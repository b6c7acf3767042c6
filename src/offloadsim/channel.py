"""Abstracted radio and wired links: per-leg transfer time and loss outcome.

Every task hop belongs to one link class. Radio legs (UE/vehicle access) have a
base latency plus a size-dependent serialization term under processor sharing,
and an independent per-leg Bernoulli loss whose probability grows linearly with
the mobile endpoint's speed. Wired legs (core network, Internet) are lossless
with fixed one-way latency.

A run resolves each radio leg through the ``Link`` of its link class, which
holds both formulas and the airtime still in use; a wired leg is its
``base_latency``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from heapq import heappop, heappush


class LinkClass(Enum):
    PUE_UP = "pue_up"
    PUE_DOWN = "pue_down"
    VUE_UP = "vue_up"
    VUE_DOWN = "vue_down"
    CN_UP = "cn_up"
    CN_DOWN = "cn_down"
    INTERNET_UP = "internet_up"
    INTERNET_DOWN = "internet_down"


RADIO_LINKS = frozenset(
    {LinkClass.PUE_UP, LinkClass.PUE_DOWN, LinkClass.VUE_UP, LinkClass.VUE_DOWN}
)
WIRED_LINKS = frozenset(LinkClass) - RADIO_LINKS

PROCESSOR_SHARING = "processor_sharing"
NO_SHARING = "none"

OUT_OF_COVERAGE = "out_of_coverage"
CHANNEL_ERROR = "channel_error"


@dataclass(frozen=True)
class LinkParams:
    """One link class: latency floor, shared rate, and loss coefficients."""

    base_latency: float  # s, one-way floor
    rate: float | None = None  # bits/s shared by concurrent transfers; None = unbounded
    p_base: float = 0.0  # loss probability at speed 0
    k_speed: float = 0.0  # added loss probability per (m/s)
    sharing: str = PROCESSOR_SHARING

    def __post_init__(self) -> None:
        if self.base_latency < 0.0:
            raise ValueError("base latency must be nonnegative")
        if self.rate is not None and self.rate <= 0.0:
            raise ValueError("rate must be positive or unbounded (None)")
        if not 0.0 <= self.p_base <= 1.0:
            raise ValueError("p_base must lie in [0, 1]")
        if self.k_speed < 0.0:
            raise ValueError("k_speed must be nonnegative")
        if self.sharing not in (PROCESSOR_SHARING, NO_SHARING):
            raise ValueError(f"unknown sharing mode {self.sharing!r}")


@dataclass
class ChannelConfig:
    """Per-link-class parameters for one run."""

    links: dict[LinkClass, LinkParams]

    def __post_init__(self) -> None:
        missing = set(LinkClass) - set(self.links)
        if missing:
            names = ", ".join(sorted(k.value for k in missing))
            raise ValueError(f"channel config missing link classes: {names}")
        for link in WIRED_LINKS:
            if self.links[link].p_base != 0.0 or self.links[link].k_speed != 0.0:
                raise ValueError(f"wired leg {link.value} must be lossless")

    def lossless(self) -> "ChannelConfig":
        """Copy with all loss probabilities zeroed (latency model unchanged)."""
        return ChannelConfig(
            {k: replace(p, p_base=0.0, k_speed=0.0) for k, p in self.links.items()}
        )


def lena_calibrated() -> ChannelConfig:
    """Shipped radio calibration.

    Base latencies (2.7 ms pedestrian legs, 5.7 ms vehicle legs) and 100 Mb/s
    shared rates are chosen so a default edge round trip lands near 10 ms and a
    default vehicular round trip near 30 ms. Wired legs: 2 ms core-network and
    35 ms Internet one-way.
    """
    radio_loss = {"p_base": 1e-3, "k_speed": 5e-4}
    return ChannelConfig(
        {
            LinkClass.PUE_UP: LinkParams(0.0027, 100e6, **radio_loss),
            LinkClass.PUE_DOWN: LinkParams(0.0027, 100e6, **radio_loss),
            LinkClass.VUE_UP: LinkParams(0.0057, 100e6, **radio_loss),
            LinkClass.VUE_DOWN: LinkParams(0.0057, 100e6, **radio_loss),
            LinkClass.CN_UP: LinkParams(0.002),
            LinkClass.CN_DOWN: LinkParams(0.002),
            LinkClass.INTERNET_UP: LinkParams(0.035),
            LinkClass.INTERNET_DOWN: LinkParams(0.035),
        }
    )


class Link:
    """One link class resolved for a run: its parameters, the payload size and
    the mobile endpoint's speed read once, plus the end times of its transfers
    still on the air (a heap) for processor sharing.

    The transfer-time and loss formulas are defined here and nowhere else.
    """

    __slots__ = ("base_latency", "rate", "shared", "bits", "p_loss", "ends")

    def __init__(self, params: LinkParams, size_bytes: float = 0.0, speed: float = 0.0) -> None:
        self.base_latency, self.rate = params.base_latency, params.rate
        self.shared = params.sharing == PROCESSOR_SHARING
        self.bits = size_bytes * 8.0
        self.p_loss = min(1.0, max(0.0, params.p_base + params.k_speed * speed))
        self.ends: list[float] = []

    def transfer_time(self, concurrent: int) -> float:
        rate = self.rate
        if rate is None:
            return self.base_latency
        return self.base_latency + self.bits / (rate / concurrent if self.shared else rate)

    def lost(self, rng, covered: bool) -> str | None:
        """Why a radio leg is lost, or None. An uncovered endpoint loses it
        without a draw; a covered leg takes exactly one draw from ``rng``."""
        if not covered:
            return OUT_OF_COVERAGE
        return CHANNEL_ERROR if rng.random() < self.p_loss else None

    def send(self, rng, t: float, covered: bool = True) -> float | None:
        """One radio leg started at ``t``: its latency, or None when it is lost.

        The transfer shares the rate with those still on the air at ``t`` and
        occupies its airtime even if lost.
        """
        ends = self.ends
        while ends and ends[0] <= t:
            heappop(ends)
        latency = self.transfer_time(len(ends) + 1)
        heappush(ends, t + latency)
        return None if self.lost(rng, covered) else latency
