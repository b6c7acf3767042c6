"""Descriptive statistics and one-way analysis of variance.

Percentiles use the nearest-rank definition (the ceil(q/100 * n)-th smallest
observation), so the result is always a member of the sample. The ANOVA p-value
comes from the F survival function evaluated through the regularized incomplete
beta function, computed by continued fraction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q/100 * n)-th smallest value.

    ``q`` must lie in (0, 100]. The multiplication is done before the division
    so exact integer ranks are not perturbed by binary rounding. A nan has no
    rank, so values holding one are rejected. Sorting an already sorted list
    takes linear time, so callers asking for several percentiles sort once.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must lie in (0, 100]")
    # the sum is nan only if a value is nan or both infinities occur
    if math.isnan(sum(values)) and any(map(math.isnan, values)):
        raise ValueError("percentile of a sample holding nan")
    rank = math.ceil(q * n / 100.0)
    rank = min(max(rank, 1), n)
    return float(sorted(values)[rank - 1])


@dataclass(frozen=True)
class AnovaResult:
    sum_sq_factor: float
    df_factor: int
    sum_sq_resid: float
    df_resid: int
    f_stat: float
    p_value: float


def anova_oneway(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """One-way fixed-effects ANOVA over two or more groups of observations."""
    if len(groups) < 2:
        raise ValueError("ANOVA needs at least two groups")
    groups = [list(map(float, g)) for g in groups]
    if not all(groups):
        raise ValueError("every group must be non-empty")
    if not all(map(math.isfinite, chain.from_iterable(groups))):
        raise ValueError("observations must be finite")
    k = len(groups)
    n = sum(map(len, groups))
    if n <= k:
        raise ValueError("need more observations than groups")
    grand = math.fsum(chain.from_iterable(groups)) / n
    means = [math.fsum(g) / len(g) for g in groups]
    ss_between = math.fsum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ss_within = math.fsum((v - m) ** 2 for g, m in zip(groups, means) for v in g)
    df_between = k - 1
    df_within = n - k
    if ss_within == 0.0:
        if ss_between == 0.0:
            raise ValueError("all observations identical: F is undefined")
        return AnovaResult(ss_between, df_between, 0.0, df_within, math.inf, 0.0)
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(
        ss_between, df_between, ss_within, df_within, f_stat, f_sf(f_stat, df_between, df_within)
    )


def f_sf(f: float, d1: float, d2: float) -> float:
    """Survival function P(F > f) of the F distribution with (d1, d2) degrees."""
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    return reg_inc_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f))


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation, switching tails through the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) so the fraction always converges fast.
    Absolute accuracy is well below 1e-10 over the tested domain.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the incomplete-beta continued fraction."""
    max_iter = 300
    eps = 1e-15
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")
