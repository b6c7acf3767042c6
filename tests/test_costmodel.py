"""Capital, operating, and break-even arithmetic of the cost comparison."""

import math
from fractions import Fraction

import pytest

from offloadsim.costmodel import (
    CostParams,
    CostRow,
    SECONDS_ACTIVE_PER_YEAR,
    capex_ec,
    cost_row,
    opex_ec,
    opex_vcc,
    savings,
    vcc_bonus,
)


def test_active_seconds_per_year():
    assert SECONDS_ACTIVE_PER_YEAR == 15 * 3600 * 365 == 19_710_000


def test_request_volume():
    p = CostParams()
    assert p.requests() == 5.0 * 100.0 * 1.0 * 19_710_000.0
    assert p.requests(0.01) == pytest.approx(9.855e7, rel=1e-15)


def test_default_vcc_fee_tracks_edge_fee_plus_bonus():
    assert CostParams().vcc_req == 2e-5
    assert CostParams(beta=1e-6).vcc_req == 2e-5 + 1e-6
    assert CostParams(beta=1e-6, c_ec_req=5e-5).vcc_req == 5e-5 + 1e-6


def test_capex_buys_one_cpu_per_replacement_cycle():
    assert capex_ec(CostParams(years=1.0)) == 700.0
    assert capex_ec(CostParams(years=3.0)) == 700.0
    assert capex_ec(CostParams(years=4.0)) == 1400.0
    assert capex_ec(CostParams(years=6.0)) == 1400.0
    assert capex_ec(CostParams(years=1.0, capex_overhead=2.5)) == 1750.0


def test_opex_defaults():
    p = CostParams()
    assert opex_ec(p, 1.0, False) == pytest.approx(2e-5 * 9.855e9 + 1368.46, rel=1e-15)
    assert opex_vcc(p) == pytest.approx(2e-5 * 9.855e9, rel=1e-15)


def test_opex_bonus_placement_flag():
    p = CostParams(beta=1e-6)
    plain = opex_ec(p, 1.0, bonus_in_requests=False)
    loaded = opex_ec(p, 1.0, bonus_in_requests=True)
    assert plain == pytest.approx(197100.0 + 1368.46, rel=1e-12)
    assert loaded == pytest.approx(206955.0 + 1368.46, rel=1e-12)
    # the vehicular side always carries the bonus
    assert opex_vcc(p) == pytest.approx(206955.0, rel=1e-12)


def test_savings_request_terms_cancel_exactly_at_zero_bonus():
    for years in (1.0, 2.0, 3.0, 5.0):
        p = CostParams(years=years)
        assert savings(p) == capex_ec(p) + p.c_ec_main * years


def test_savings_with_bonus():
    p = CostParams(beta=1e-6)
    assert savings(p) == pytest.approx(700.0 - 9855.0 + 1368.46, rel=1e-12)


def test_break_even_bonus_exact_fraction():
    """Break-even bonus at a one-year horizon against exact rational arithmetic."""
    exact = (Fraction(700) + Fraction("1368.46")) / (5 * 100 * 19_710_000)
    got = vcc_bonus(CostParams())
    assert got == pytest.approx(float(exact), rel=1e-15)
    assert abs(got - 2.099e-7) < 1e-10


def test_break_even_bonus_horizon_invariance_on_cycle_multiples():
    base = vcc_bonus(CostParams(years=3.0))
    assert vcc_bonus(CostParams(years=6.0)) == pytest.approx(base, rel=1e-15)
    # off-cycle horizons pay for an extra CPU and the bonus moves
    assert vcc_bonus(CostParams(years=4.0)) != pytest.approx(base, rel=1e-6)


def test_savings_vanish_at_the_break_even_bonus():
    for years in (1.0, 3.0, 6.0):
        p = CostParams(years=years)
        p_star = CostParams(years=years, beta=vcc_bonus(p))
        assert savings(p_star) == pytest.approx(0.0, abs=1e-6)


def test_breakdown_percentages_close():
    for beta in (0.0, 1e-6, 2e-6):
        for years in (1.0, 3.0, 5.0):
            p = CostParams(beta=beta, years=years)
            row = cost_row(p, 1.0, True)
            assert isinstance(row, CostRow)
            assert row.capex_ec_pct + row.ec_main_pct + row.ec_req_pct == pytest.approx(
                100.0, abs=1e-9
            )
            assert row.vcc_req_pct == 100.0
            assert row.ec_total_usd > 0.0 and row.vcc_total_usd > 0.0
            assert row.savings_usd == savings(p)
            if beta == 0.0:
                assert row.ec_total_usd > row.vcc_total_usd


def test_breakdown_flag_moves_bonus_between_columns():
    with_bonus = cost_row(CostParams(beta=2e-6), 1.0, bonus_in_requests=True)
    without = cost_row(CostParams(beta=2e-6), 1.0, bonus_in_requests=False)
    assert with_bonus.ec_req_pct > without.ec_req_pct
    assert with_bonus.ec_total_usd > without.ec_total_usd
    # the vehicular total and the savings carry the bonus either way
    assert with_bonus.vcc_total_usd == without.vcc_total_usd
    assert with_bonus.savings_usd == without.savings_usd


def test_the_edge_total_sums_capex_maintenance_and_requests():
    # capex + opex_ec would round to 8291.575: the edge total adds its three components
    p = CostParams(years=5.0, users=1.0, c_ec_req=1e-5)
    assert cost_row(p, 0.01, True).ec_total_usd == 8291.574999999999


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(l_ec_cpu=0.0)
    with pytest.raises(ValueError):
        CostParams(years=-1.0)
    with pytest.raises(ValueError):
        CostParams(c_ec_cpu=-1.0)
    with pytest.raises(ValueError):
        CostParams(beta=-1e-6)
    with pytest.raises(ValueError):
        CostParams(users=0.0)
    with pytest.raises(ValueError):
        CostParams(capex_overhead=0.0)


@pytest.mark.parametrize("field", ["years", "c_ec_cpu", "beta", "alpha", "capex_overhead"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cost_params_reject_non_finite_fields(field, value):
    # CostParams(years=nan) used to pass and savings() then died in capex_ec
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CostParams(**{field: value})


def test_overflowing_totals_raise_instead_of_returning_nan():
    p = CostParams(years=1e308)
    with pytest.raises(ValueError, match="edge total is not finite"):
        cost_row(p, 1.0, True)
    with pytest.raises(ValueError, match="savings is not finite"):
        savings(p)
    with pytest.raises(ValueError, match="replacement cycles is not finite"):
        capex_ec(CostParams(years=1e308, l_ec_cpu=1e-308))
