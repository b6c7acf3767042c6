"""Capital and operating cost model for edge versus vehicular offloading.

An operator either buys and maintains edge CPUs (capital outlay on a
replacement cycle, yearly maintenance, plus a per-request operating fee) or
pays vehicle owners per request (the edge per-request fee plus a bonus). All
arithmetic is full-precision floats; rounding to cents or 0.01 percentage
points happens only at presentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

SECONDS_ACTIVE_PER_YEAR = 15 * 3600 * 365  # 15 h/day of offloading activity
# Whether breakdown tables add the bonus to the edge per-request column, unless
# told otherwise (``cost.bonus_in_ec_requests``, ``--bonus-in-ec-requests``).
BONUS_IN_EC_REQUESTS = True


@dataclass(frozen=True)
class CostParams:
    """Inputs of the cost comparison.

    ``alpha`` is the active seconds per year, so requests per year are
    request_rate * users * alpha. ``c_vcc_req`` defaults to the edge
    per-request cost plus the bonus ``beta`` paid to vehicle owners.
    """

    c_ec_cpu: float = 700.0  # $ per edge CPU
    l_ec_cpu: float = 3.0  # years a CPU lasts before replacement
    years: float = 1.0  # horizon Y
    c_ec_main: float = 1368.46  # $ per year of edge maintenance
    c_ec_req: float = 2e-5  # $ per request served at the edge
    c_vcc_req: float | None = None  # $ per request served by a vehicle
    request_rate: float = 5.0  # requests per second per user
    users: float = 100.0
    alpha: float = float(SECONDS_ACTIVE_PER_YEAR)
    beta: float = 0.0  # $ per request bonus to vehicle owners
    capex_overhead: float = 1.0  # multiplier on the capital outlay

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.l_ec_cpu <= 0.0:
            raise ValueError("CPU lifetime must be positive")
        if self.years <= 0.0:
            raise ValueError("horizon must be positive")
        if min(self.c_ec_cpu, self.c_ec_main, self.c_ec_req, self.beta) < 0.0:
            raise ValueError("costs must be nonnegative")
        if self.c_vcc_req is not None and self.c_vcc_req < 0.0:
            raise ValueError("costs must be nonnegative")
        if self.request_rate <= 0.0 or self.users <= 0.0 or self.alpha <= 0.0:
            raise ValueError("request volume terms must be positive")
        if self.capex_overhead <= 0.0:
            raise ValueError("capex overhead must be positive")

    @property
    def vcc_req(self) -> float:
        return self.c_vcc_req if self.c_vcc_req is not None else self.c_ec_req + self.beta

    def requests(self, request_scale: float = 1.0) -> float:
        """Total requests over the horizon."""
        return self.request_rate * self.users * request_scale * self.years * self.alpha


def _finite(what: str, value: float) -> float:
    """``value``, or a ValueError if finite inputs overflowed it to inf or nan."""
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite ({value!r}): the inputs overflow a float")
    return value


def capex_ec(p: CostParams) -> float:
    """Capital outlay: one CPU purchase per replacement cycle over the horizon."""
    return p.c_ec_cpu * math.ceil(_finite("replacement cycles", p.years / p.l_ec_cpu)) * p.capex_overhead


def opex_ec(p: CostParams, request_scale: float = 1.0, bonus_in_requests: bool = False) -> float:
    """Edge operating cost: per-request fees plus yearly maintenance.

    With ``bonus_in_requests`` the per-request bonus beta is added to the edge
    per-request fee; breakdown tables use that reading, the savings formula
    never does.
    """
    per_request = p.c_ec_req + (p.beta if bonus_in_requests else 0.0)
    return per_request * p.requests(request_scale) + p.c_ec_main * p.years


def opex_vcc(p: CostParams, request_scale: float = 1.0) -> float:
    """Vehicular operating cost: purely per-request."""
    return p.vcc_req * p.requests(request_scale)


def savings(p: CostParams, request_scale: float = 1.0) -> float:
    """Cost avoided by serving from vehicles instead of owning the edge.

    Algebraically capex_ec + opex_ec - opex_vcc, written in distributed form so
    the request terms cancel exactly (not merely to rounding) whenever the two
    per-request fees are equal.
    """
    request_term = (p.c_ec_req - p.vcc_req) * p.requests(request_scale)
    return _finite("savings", capex_ec(p) + request_term + p.c_ec_main * p.years)


def vcc_bonus(p: CostParams) -> float:
    """Break-even per-request bonus: the beta at which savings hit zero.

    Spreads the capital and maintenance spend over the horizon's requests. For
    horizons that are integer multiples of the CPU lifetime the ceil cancels
    and the bonus is independent of the horizon length.
    """
    return (capex_ec(p) / p.years + p.c_ec_main) / (p.request_rate * p.users * p.alpha)


@dataclass(frozen=True)
class BreakdownRow:
    """Cost composition for one bonus level, as percentages of each side's total."""

    beta: float
    capex_ec_pct: float
    ec_main_pct: float
    ec_req_pct: float
    vcc_req_pct: float
    ec_total: float
    vcc_total: float


def cost_breakdown(
    p: CostParams,
    betas: list[float],
    request_scale: float = 1.0,
    bonus_in_requests: bool = BONUS_IN_EC_REQUESTS,
) -> list[BreakdownRow]:
    """Component percentages of the edge and vehicular totals per bonus level.

    The vehicular side has a single per-request component, so its column is
    always 100%. The edge percentages are nan when the edge total is 0.
    Percentages are full precision; round at presentation.
    """
    rows = []
    for beta in betas:
        q = replace(p, beta=beta, c_vcc_req=None)
        capex = capex_ec(q)
        main = q.c_ec_main * q.years
        req = opex_ec(q, request_scale, bonus_in_requests) - main
        ec_total = _finite("edge total", capex + main + req)
        vcc_total = _finite("vehicular total", opex_vcc(q, request_scale))
        if ec_total:
            pcts = (100.0 * capex / ec_total, 100.0 * main / ec_total, 100.0 * req / ec_total)
        else:  # an edge that costs nothing has no composition
            pcts = (math.nan,) * 3
        rows.append(BreakdownRow(beta, *pcts, vcc_req_pct=100.0, ec_total=ec_total, vcc_total=vcc_total))
    return rows


def total_costs(
    p: CostParams,
    betas: list[float],
    years: list[float],
    request_scale: float = 1.0,
    bonus_in_requests: bool = BONUS_IN_EC_REQUESTS,
) -> list[tuple[float, float, float, float]]:
    """(beta, years, ec_total, vcc_total) tuples over a grid of bonus levels and horizons."""
    out = []
    for beta in betas:
        for y in years:
            q = replace(p, beta=beta, years=y, c_vcc_req=None)
            ec_total = _finite("edge total", capex_ec(q) + opex_ec(q, request_scale, bonus_in_requests))
            out.append((beta, y, ec_total, _finite("vehicular total", opex_vcc(q, request_scale))))
    return out
