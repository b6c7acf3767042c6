"""Nearest-rank percentiles, one-way ANOVA, and the F survival function."""

import math
import random

import pytest

from offloadsim.stats import anova_oneway, f_sf, percentile, reg_inc_beta

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")


def test_percentile_is_a_sample_member():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 40.0) == 2.0
    assert percentile(values, 20.0) == 1.0
    assert percentile(values, 100.0) == 5.0
    assert percentile([7.0], 1.0) == 7.0


def test_percentile_on_a_decade():
    values = list(range(1, 11))
    assert percentile(values, 90.0) == 9.0
    assert percentile(values, 95.0) == 10.0
    assert percentile(values, 1.0) == 1.0


def test_percentile_rank_is_exact_for_integer_ranks():
    # 35% of 20 is exactly rank 7; dividing q first would round it to 8
    assert percentile(list(range(1, 21)), 35.0) == 7.0
    assert percentile(list(range(1, 21)), 15.0) == 3.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 100.5)


def test_percentile_rejects_nan_and_ranks_infinities():
    for values in ([1.0, math.nan, 2.0], [math.inf, math.nan], [math.inf, -math.inf, math.nan]):
        with pytest.raises(ValueError, match="nan"):
            percentile(values, 50.0)
    assert percentile([math.inf, -math.inf, 1.0], 50.0) == 1.0
    assert percentile([math.inf, -math.inf, 1.0], 100.0) == math.inf


def test_percentile_matches_numpy_partition_on_random_samples():
    # numpy's partition, the implementation before the package dropped numpy
    np = pytest.importorskip("numpy")
    rng = random.Random(77)
    for _ in range(200):
        values = [rng.choice((rng.random(), float(rng.randrange(5)))) for _ in range(rng.randrange(1, 60))]
        q = rng.choice((rng.uniform(0.001, 100.0), 90.0, 95.0, 99.0, 100.0))
        rank = min(max(math.ceil(q * len(values) / 100.0), 1), len(values))
        assert percentile(values, q) == float(np.partition(np.asarray(values), rank - 1)[rank - 1])
        assert percentile(sorted(values), q) == percentile(values, q)


def test_percentile_does_not_reorder_its_input():
    values = [3.0, 1.0, 2.0]
    percentile(values, 50.0)
    assert values == [3.0, 1.0, 2.0]


def test_anova_two_group_example():
    r = anova_oneway([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert r.sum_sq_factor == 13.5
    assert r.df_factor == 1
    assert r.sum_sq_resid == 4.0
    assert r.df_resid == 4
    assert r.f_stat == 13.5
    assert r.p_value == pytest.approx(0.02131164112875673, abs=1e-13)


def test_anova_matches_scipy_on_random_groups():
    rng = random.Random(5150)
    for _ in range(50):
        k = rng.randrange(2, 5)
        groups = [
            [rng.gauss(rng.uniform(-1, 1), 1.0) for _ in range(rng.randrange(3, 12))]
            for _ in range(k)
        ]
        ours = anova_oneway(groups)
        ref = scipy_stats.f_oneway(*groups)
        assert ours.f_stat == pytest.approx(ref.statistic, rel=1e-10)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)


def test_anova_validation():
    with pytest.raises(ValueError):
        anova_oneway([[1.0, 2.0]])
    with pytest.raises(ValueError):
        anova_oneway([[1.0], []])
    with pytest.raises(ValueError):
        anova_oneway([[1.0], [2.0]])  # as many observations as groups
    with pytest.raises(ValueError):
        anova_oneway([[2.0, 2.0], [2.0, 2.0]])  # zero variance everywhere


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_anova_rejects_non_finite_observations(bad):
    with pytest.raises(ValueError, match="observations must be finite"):
        anova_oneway([[1.0, 2.0], [3.0, bad]])


def test_anova_separated_constant_groups():
    r = anova_oneway([[1.0, 1.0], [2.0, 2.0]])
    assert math.isinf(r.f_stat)
    assert r.p_value == 0.0
    assert r.sum_sq_resid == 0.0


def test_f_sf_edges_and_symmetry():
    assert f_sf(0.0, 3.0, 7.0) == 1.0
    assert f_sf(-2.0, 3.0, 7.0) == 1.0
    assert f_sf(math.inf, 3.0, 7.0) == 0.0
    # equal degrees of freedom put the median exactly at f = 1
    assert f_sf(1.0, 6.0, 6.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        f_sf(1.0, 0.0, 5.0)


def test_f_sf_matches_scipy_grid():
    for f in (0.1, 0.5, 1.0, 2.5, 13.5, 100.0):
        for d1 in (1, 2, 5, 10):
            for d2 in (1, 4, 20, 120):
                assert f_sf(f, d1, d2) == pytest.approx(
                    float(scipy_stats.f.sf(f, d1, d2)), rel=1e-9, abs=1e-14
                )


def test_reg_inc_beta_known_values():
    assert reg_inc_beta(2.0, 3.0, 0.5) == pytest.approx(0.6875, abs=1e-12)
    assert reg_inc_beta(1.0, 1.0, 0.25) == pytest.approx(0.25, abs=1e-14)
    assert reg_inc_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-13)
    assert reg_inc_beta(3.0, 7.0, 0.0) == 0.0
    assert reg_inc_beta(3.0, 7.0, 1.0) == 1.0


def test_reg_inc_beta_complement_symmetry():
    for a, b, x in ((2.0, 5.0, 0.3), (0.5, 0.5, 0.9), (10.0, 1.5, 0.02)):
        total = reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_reg_inc_beta_matches_scipy_grid():
    for a in (0.5, 1.0, 2.0, 4.5, 30.0):
        for b in (0.5, 1.0, 3.0, 12.0):
            for x in (0.01, 0.2, 0.5, 0.8, 0.99):
                assert reg_inc_beta(a, b, x) == pytest.approx(
                    float(scipy_special.betainc(a, b, x)), abs=1e-12
                )


def test_reg_inc_beta_validation():
    with pytest.raises(ValueError):
        reg_inc_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, 1.0, 1.1)


@pytest.mark.parametrize("groups", [
    [[1e308, 1e308], [1.0, 2.0]],  # a group's sum overflows inside fsum
    [[1e200, -1e200], [0.0, 1.0]],  # a finite square overflows
    [[1.7e308, 1.7e308, -1.7e308], [0.0, 1.0]],  # an observation's distance to its mean overflows
])
def test_anova_rejects_observations_whose_sums_overflow(groups):
    # each used to end in an OverflowError, or in a table of inf and nan
    with pytest.raises(ValueError, match="observations too large"):
        anova_oneway(groups)
