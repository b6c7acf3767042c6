"""Capital and operating cost model for edge versus vehicular offloading.

An operator either buys and maintains edge CPUs (capital outlay on a
replacement cycle, yearly maintenance, plus a per-request operating fee) or
pays vehicle owners per request (the edge per-request fee plus a bonus). All
arithmetic is full-precision floats; rounding to cents or 0.01 percentage
points happens only at presentation.

``cost_row`` is the one source of a cell of the cost grid (horizon x bonus x
request scale) that ``offloadsim cost`` writes.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bounds import checked

SECONDS_ACTIVE_PER_YEAR = 15 * 3600 * 365  # 15 h/day of offloading activity
# Whether ``cost_row`` adds the bonus to the edge per-request column: the
# default of ``offloadsim cost --[no-]bonus-in-ec-requests``.
BONUS_IN_EC_REQUESTS = True


# field -> (default, kind); the kinds are the fields' bounds (see ``bounds``).
_COST_FIELDS = {
    "c_ec_cpu": (700.0, "nonnegative"),  # $ per edge CPU
    "l_ec_cpu": (3.0, "positive"),  # years a CPU lasts before replacement
    "years": (1.0, "positive"),  # horizon Y, set per table row
    "c_ec_main": (1368.46, "nonnegative"),  # $ per year of edge maintenance
    "c_ec_req": (2e-5, "nonnegative"),  # $ per request served at the edge
    "request_rate": (5.0, "positive"),  # requests per second per user
    "users": (100.0, "positive"),
    "alpha": (float(SECONDS_ACTIVE_PER_YEAR), "positive"),
    "beta": (0.0, "nonnegative"),  # $ per request bonus to vehicle owners, set per table row
    "capex_overhead": (1.0, "positive"),  # multiplier on the capital outlay
}


class CostParams(checked("CostParams", _COST_FIELDS)):
    """Inputs of the cost comparison.

    ``alpha`` is the active seconds per year, so requests per year are
    request_rate * users * alpha. A vehicle is paid the edge per-request cost
    plus the bonus ``beta``.
    """

    __slots__ = ()

    @property
    def vcc_req(self) -> float:
        return self.c_ec_req + self.beta

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


def opex_ec(p: CostParams, request_scale: float, bonus_in_requests: bool) -> float:
    """Edge operating cost: per-request fees plus yearly maintenance.

    With ``bonus_in_requests`` the per-request bonus beta is added to the edge
    per-request fee; ``cost_row`` reads the switch, the savings formula never
    does.
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


CostRow = namedtuple(
    "CostRow", "capex_ec_pct ec_main_pct ec_req_pct vcc_req_pct ec_total_usd vcc_total_usd savings_usd"
)
CostRow.__doc__ = "One cost-grid cell: edge components in percent of the edge total, vcc_req_pct (100), then $."


def cost_row(p: CostParams, request_scale: float, bonus_in_requests: bool) -> CostRow:
    """The cost grid's cell at horizon ``p.years`` and bonus ``p.beta``.

    The percentages divide each edge component by the edge total, and are nan
    when it is 0; the vehicular side has a single per-request component, so
    its column is always 100. Every value is full precision; round at
    presentation.
    """
    capex = capex_ec(p)
    main = p.c_ec_main * p.years
    req = opex_ec(p, request_scale, bonus_in_requests) - main
    ec_total = _finite("edge total", capex + main + req)
    vcc_total = _finite("vehicular total", opex_vcc(p, request_scale))
    if ec_total:
        pcts = (100.0 * capex / ec_total, 100.0 * main / ec_total, 100.0 * req / ec_total)
    else:  # an edge that costs nothing has no composition
        pcts = (math.nan,) * 3
    return CostRow(*pcts, 100.0, ec_total, vcc_total, savings(p, request_scale))
