"""Beacon-driven availability registry and the VCCFirst dispatch strategy.

ECFirst needs no registry: its rule, the edge unless the waiting line is
full, is applied by ``compute.EdgeState.offer``.

The controller at the gNB keeps a registry of vehicles heard from recently.
Idle vehicles in coverage beacon every ``beacon_period`` seconds (plus once
immediately on finishing a task); entries not refreshed within ``timeout``
expire. The registry is a snapshot, not ground truth: a listed vehicle may
already be busy or out of coverage, and dispatching to it simply fails.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import Iterator

CLOUD = "CLOUD"
EDGE = "EDGE"
VEHICLE = "VEHICLE"

EC_FIRST = "ECFirst"
VCC_FIRST = "VCCFirst"
STRATEGIES = (EC_FIRST, VCC_FIRST)

DEFAULT_TIMEOUT = 0.5  # s


@dataclass(frozen=True)
class Dispatch:
    destination: str  # CLOUD, EDGE or VEHICLE
    vehicle_id: int | None = None
    decided_at: float = 0.0


@dataclass
class Registry:
    """vehicle id -> last beacon time (``math.inf``: still beaconing), with
    timeout expiry. ``ids`` is the sorted index of present ids; ``_ages`` is a
    heap of (time, id) per entry change, so expiry pops only stale items."""

    timeout: float = DEFAULT_TIMEOUT
    entries: dict[int, float] = field(default_factory=dict)
    ids: list[int] = field(default_factory=list)
    _ages: list[tuple[float, int]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.timeout <= 0.0:
            raise ValueError("timeout must be positive")

    def on_beacon(self, vehicle_id: int, t: float) -> None:
        last = self.entries.get(vehicle_id)
        if last is None:
            bisect.insort(self.ids, vehicle_id)
        if last != t:
            heapq.heappush(self._ages, (t, vehicle_id))
        self.entries[vehicle_id] = t

    def remove(self, vehicle_id: int) -> None:
        del self.entries[vehicle_id]
        del self.ids[bisect.bisect_left(self.ids, vehicle_id)]

    def expire_stale(self, t: float) -> None:
        """Drop every entry whose last beacon is older than ``t - timeout``."""
        deadline = t - self.timeout
        while self._ages and self._ages[0][0] < deadline:
            last, vid = heapq.heappop(self._ages)
            if self.entries.get(vid) == last:
                self.remove(vid)


def select_vccfirst(registry: Registry, rng, now: float) -> Dispatch:
    """Pick a vehicle uniformly at random, or fall back to the cloud.

    The chosen vehicle is removed from the registry and reappears only once a
    later beacon of its is processed. Candidates are ordered by id so the
    selection depends only on the RNG state, never on dict history.
    """
    registry.expire_stale(now)
    ids = registry.ids
    if not ids:
        return Dispatch(CLOUD, decided_at=now)
    chosen = ids[rng.randrange(len(ids))]
    registry.remove(chosen)
    return Dispatch(VEHICLE, vehicle_id=chosen, decided_at=now)


class Beacons:
    """A fleet's periodic beacons, replayed into a registry only when needed.

    An idle vehicle beacons from its seeded phase, or at once on finishing a
    task, then at ``x = x + period`` as an event per beacon would. It is
    replayed, from a heap of wake-ups, only when its membership could change.
    ``coverage(vid, t)`` gives its coverage at t and a time before which that
    cannot change. A vehicle sure to beacon in coverage within the timeout is
    listed as ``math.inf``. Beacons at time <= t act before engine events at t."""

    def __init__(self, registry: Registry, period: float, phases: dict[int, float], coverage, horizon: float):
        self.registry, self.period, self.coverage = registry, period, coverage
        self.steady = registry.timeout - period > 1e-12 * max(1.0, horizon)
        self.next = dict(phases)  # vid -> next beacon time; absent while serving
        self.heard: dict[int, float] = {}  # vid -> last beacon in coverage
        self.cov = {vid: (False, -math.inf) for vid in phases}  # vid -> (covered, until)
        self.wakes = sorted((x, vid) for vid, x in phases.items())

    def advance(self, t: float) -> None:
        """Apply every beacon at time <= t that can change the registry."""
        while self.wakes and self.wakes[0][0] <= t:
            self._replay(heapq.heappop(self.wakes)[1], t)

    def picked(self, vid: int, t: float) -> None:
        """vid was just removed by a pick at t: skip past its beacons <= t."""
        x = self.next.get(vid)
        if x is not None:
            while x <= t:
                x += self.period
            self.next[vid] = x
            self._book(vid)

    def stop(self, vid: int, t: float) -> None:
        """vid starts serving at t and beacons no more until it finishes."""
        if vid in self.next:
            self._replay(vid, t)
            if self.registry.entries.get(vid) == math.inf:
                self.registry.on_beacon(vid, self.heard[vid])
            del self.next[vid]

    def restart(self, vid: int, t: float, covered: bool) -> None:
        """vid finished a task at t: it beacons at once, then every period."""
        if covered:
            self.registry.on_beacon(vid, t)
            self.heard[vid] = t
        self.next[vid] = t + self.period
        self._book(vid)

    def _replay(self, vid: int, t: float) -> None:
        """Apply vid's beacons up to t; a wake-up that finds none is stale."""
        x = self.next.get(vid, math.inf)
        if x > t:
            return
        covered, until = self.cov[vid]
        heard = None
        while x <= t:
            if x > until:
                covered, until = self.cov[vid] = self.coverage(vid, x)
            if covered:
                heard = x
            x += self.period
        self.next[vid] = x
        if heard is not None:
            self.heard[vid] = heard
            self.registry.on_beacon(vid, math.inf if self.steady and covered else heard)
        elif self.registry.entries.get(vid) == math.inf:
            self.registry.on_beacon(vid, self.heard[vid])  # left coverage: start aging
        self._book(vid)

    def _book(self, vid: int) -> None:
        """Wake vid at its next beacon if that can matter, else when its window ends."""
        x, (covered, until) = self.next[vid], self.cov[vid]
        w = x if x > until or (covered and self.registry.entries.get(vid) != math.inf) else until
        heapq.heappush(self.wakes, (w, vid))  # an infinite wake-up never comes


def beacon_times(idle_since: float, period: float, until: float) -> Iterator[float]:
    """Beacon instants for a vehicle idle from ``idle_since``: one immediately,
    then every ``period`` seconds while it stays idle, up to ``until``."""
    if period <= 0.0:
        raise ValueError("beacon period must be positive")
    t = idle_since
    while t <= until:
        yield t
        t += period
