"""Abstracted radio and wired links: per-leg transfer time and loss outcome.

Every task hop belongs to one link class, a field of ``ChannelConfig``. Radio
legs (UE/vehicle access) have a base latency plus a size-dependent
serialization term under processor sharing, and an independent per-leg
Bernoulli loss whose probability grows linearly with the mobile endpoint's
speed. Wired legs (core network, Internet) are lossless and share nothing, so
each is one fixed one-way latency.

A run resolves each radio leg through the ``Link`` of its link class, which
holds both formulas and the airtime still in use; a wired leg is its latency.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from .bounds import checked

PROCESSOR_SHARING = "processor_sharing"
NO_SHARING = "none"
SHARING_MODES = (PROCESSOR_SHARING, NO_SHARING)


class LinkParams(checked("LinkParams", {
    "base_latency": (..., "nonnegative"),  # s, the one-way floor
    "rate": (None, ("positive", None)),  # bits/s shared by concurrent transfers; None: unbounded
    "p_base": (0.0, "probability"),  # loss probability at speed 0
    "k_speed": (0.0, "nonnegative"),  # added loss probability per m/s
    "sharing": (PROCESSOR_SHARING, ("word", SHARING_MODES)),
})):
    """One radio link class."""

    __slots__ = ()


class ChannelConfig(checked("ChannelConfig", {
    "pue_up": (..., None),
    "pue_down": (..., None),
    "vue_up": (..., None),
    "vue_down": (..., None),
    "cn_up": (..., "nonnegative"),
    "cn_down": (..., "nonnegative"),
    "internet_up": (..., "nonnegative"),
    "internet_down": (..., "nonnegative"),
})):
    """Every link class of a run. The four radio legs (pedestrian and vehicle,
    up and down) are ``LinkParams``; the four wired legs (core network and
    Internet, up and down) are one latency each in seconds, the fields that
    ``KINDS`` bounds."""

    __slots__ = ()


def lena_calibrated() -> ChannelConfig:
    """Shipped radio calibration.

    Base latencies (2.7 ms pedestrian legs, 5.7 ms vehicle legs) and 100 Mb/s
    shared rates are chosen so a default edge round trip lands near 10 ms and a
    default vehicular round trip near 30 ms. Radio legs lose 0.001 of
    transfers, plus 5e-4 per m/s on vehicle legs; a run builds pedestrian legs
    at speed 0. Wired legs: 2 ms core-network and 35 ms Internet one-way.
    """
    pedestrian = LinkParams(0.0027, 100e6, p_base=1e-3)
    vehicle = LinkParams(0.0057, 100e6, p_base=1e-3, k_speed=5e-4)
    return ChannelConfig(pedestrian, pedestrian, vehicle, vehicle, 0.002, 0.002, 0.035, 0.035)


class Link:
    """One link class resolved for a run: its parameters, the payload size and
    the mobile endpoint's speed read once, the end times of its transfers still
    on the air (a heap) for processor sharing, and ``times[k - 1]``, the
    ``transfer_time(k)`` of each level k met so far.

    The transfer-time and loss formulas are defined here and nowhere else. A
    leg with an uncovered endpoint is lost without a draw; a covered one takes
    exactly one draw from the run's RNG and is lost iff it is below ``p_loss``.
    """

    __slots__ = ("base_latency", "rate", "shared", "bits", "p_loss", "ends", "times")

    def __init__(self, params: LinkParams, size_bytes: float = 0.0, speed: float = 0.0) -> None:
        self.base_latency, self.rate = params.base_latency, params.rate
        self.shared = params.sharing == PROCESSOR_SHARING
        self.bits = size_bytes * 8.0
        self.p_loss = min(1.0, max(0.0, params.p_base + params.k_speed * speed))
        self.ends, self.times = [], []

    def transfer_time(self, concurrent: int) -> float:
        rate = self.rate
        if rate is None:
            return self.base_latency
        share = rate / concurrent if self.shared else rate  # 0 where a subnormal rate underflows
        return self.base_latency + (self.bits / share if share else math.inf if self.bits else 0.0)

    def send(self, rng, t: float, covered: bool = True) -> float | None:
        """One radio leg started at ``t``: its latency, or None when it is lost.

        The transfer shares the rate with those still on the air at ``t`` and
        occupies its airtime even if lost.
        """
        ends = self.ends
        while ends and ends[0] <= t:
            heappop(ends)
        times, k = self.times, len(ends)
        while len(times) <= k:
            times.append(self.transfer_time(len(times) + 1))
        latency = times[k]
        heappush(ends, t + latency)
        return latency if covered and rng.random() >= self.p_loss else None
