"""Beacon-driven availability registry and the VCCFirst dispatch strategy.

ECFirst needs no registry: its rule, the edge unless the waiting line is
full, is applied by ``compute.EdgeState.offer``.

The controller at the gNB keeps a registry of vehicles heard from recently.
Idle vehicles in coverage beacon every ``beacon_period`` seconds (plus once
immediately on finishing a task); entries not refreshed within ``timeout``
expire. The registry is a snapshot, not ground truth: a listed vehicle may
already be busy or out of coverage, and dispatching to it simply fails.

``Beacons`` replays a vehicle's beacons only when its membership could change,
and no heap holds an infinite time. With a beacon period clearly below the
timeout, a VCCFirst run costs one replay per vehicle at its first beacon (on
an unbounded cell, one bulk listing per batch of those), work per task and per
coverage crossing, and, per pick, one float addition per period since the
picked vehicle was last replayed. A vehicular task pushes at most the wake-ups
that can act before it stops its vehicle, and a vehicle that finishes a task
well inside its coverage window is listed steady at once. Otherwise every
beacon of a listed vehicle is replayed, to keep its age exact.
"""

from __future__ import annotations

import bisect
import heapq
import math

CLOUD = "CLOUD"
EDGE = "EDGE"
VEHICLE = "VEHICLE"

EC_FIRST = "ECFirst"
VCC_FIRST = "VCCFirst"
STRATEGIES = (EC_FIRST, VCC_FIRST)


class Registry:
    """vehicle id -> last beacon time (``math.inf``: still beaconing), with
    timeout expiry. ``ids`` is the sorted index of present ids; ``_ages`` is a
    heap of (time, id) per change to a finite entry, so expiry pops only stale items."""

    __slots__ = ("timeout", "entries", "ids", "_ages")

    def __init__(self, timeout: float) -> None:
        self.timeout, self.entries, self.ids, self._ages = timeout, {}, [], []

    def on_beacon(self, vehicle_id: int, t: float) -> None:
        last = self.entries.get(vehicle_id)
        if last is None:
            bisect.insort(self.ids, vehicle_id)
        if last != t and t < math.inf:
            heapq.heappush(self._ages, (t, vehicle_id))
        self.entries[vehicle_id] = t

    def list_steady(self, vids: list[int]) -> None:
        """List ``vids``, none of them present, as still beaconing (``math.inf``)."""
        self.entries.update(dict.fromkeys(vids, math.inf))
        if len(vids) == 1:
            bisect.insort(self.ids, vids[0])
        else:
            self.ids += vids
            self.ids.sort()

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


def select_vccfirst(registry: Registry, rng, now: float) -> int | None:
    """Pick a vehicle uniformly at random and return its id, or None for the cloud.

    The chosen vehicle is removed from the registry and reappears only once a
    later beacon of its is processed. Candidates are ordered by id so the
    selection depends only on the RNG state, never on dict history.
    """
    if registry._ages and registry._ages[0][0] < now - registry.timeout:  # something is stale
        registry.expire_stale(now)
    ids = registry.ids
    if not ids:
        return None
    chosen = ids[rng.randrange(len(ids))]
    registry.remove(chosen)
    return chosen


class Beacons:
    """A fleet's periodic beacons, replayed into a registry only when needed.

    Vehicle ids index flat per-vehicle lists. An idle vehicle beacons from its
    seeded phase, or at once on finishing a task, then at ``x = x + period`` as
    an event per beacon would. It is replayed, from a heap of finite wake-ups,
    only when its membership could change. ``coverage(vid, t)`` gives its
    coverage at t and a time before which that cannot change; None covers every
    vehicle for good, and in a steady run the first beacons are then ``first``,
    the ids by phase from its end, each due batch listed in bulk as its replays
    would list it. A vehicle sure to beacon in coverage within the timeout is
    listed as ``math.inf`` and woken only when that window ends. Beacons at
    time <= t act before engine events at t."""

    def __init__(self, registry: Registry, period: float, phases: list[float], coverage, horizon: float):
        self.registry, self.period, self.coverage = registry, period, coverage
        self.steady = registry.timeout - period > 1e-12 * max(1.0, horizon)
        n = len(phases)
        self.next = list(phases)  # next beacon time; math.inf while serving
        self.heard = [-math.inf] * n  # last beacon in coverage
        self.cov = [(True, math.inf) if coverage is None else (False, -math.inf)] * n  # (covered, until), last test
        self.first, self.wakes = [], list(zip(phases, range(n)))
        if coverage is None and self.steady:
            self.first, self.wakes = sorted(range(n), key=phases.__getitem__, reverse=True), []
        heapq.heapify(self.wakes)

    def advance(self, t: float) -> None:
        """Apply every beacon at time <= t that can change the registry."""
        first, nxt, period, vids = self.first, self.next, self.period, []
        while first and nxt[first[-1]] <= t:
            vid = first.pop()
            x = nxt[vid]
            while x <= t:
                last = x
                x += period
            self.heard[vid], nxt[vid] = last, x
            vids.append(vid)
        if vids:
            self.registry.list_steady(vids)
        while self.wakes and self.wakes[0][0] <= t:
            self._replay(heapq.heappop(self.wakes)[1], t)

    def dispatch(self, rng, t: float) -> int | None:
        """VCCFirst at t: apply the beacons <= t, pick with ``select_vccfirst``,
        and move the picked vehicle's cursor past its beacons <= t. The caller
        then books the picked vehicle's wake-up with ``book``."""
        if self.first and self.next[self.first[-1]] <= t or self.wakes and self.wakes[0][0] <= t:
            self.advance(t)
        vid = select_vccfirst(self.registry, rng, t)
        if vid is not None:
            x, period = self.next[vid], self.period
            while x <= t:
                x += period
            self.next[vid] = x
        return vid

    def covered(self, vid: int, t: float) -> bool:
        """vid's coverage at t. Coverage windows start at or before the current
        time, so one that has not ended at t still holds."""
        covered, until = self.cov[vid]
        return covered if t <= until else self.coverage(vid, t)[0]

    def stop(self, vid: int, t: float) -> None:
        """vid starts serving at t and beacons no more until it finishes."""
        if self.next[vid] < math.inf:
            self._replay(vid, t)
            if self.registry.entries.get(vid) == math.inf:
                self.registry.on_beacon(vid, self.heard[vid])
            self.next[vid] = math.inf

    def restart(self, vid: int, t: float, covered: bool) -> None:
        """vid finished a task at t: it beacons at once, then every period. In a
        steady run, if its next beacon still falls in its cached coverage window,
        it is listed as ``math.inf`` at once, as replaying that beacon would."""
        x = self.next[vid] = t + self.period
        if covered:
            in_window, until = self.cov[vid]
            steady = self.steady and in_window and x <= until
            self.registry.on_beacon(vid, math.inf if steady else t)
            self.heard[vid] = t
        self.book(vid)

    def _replay(self, vid: int, t: float) -> None:
        """Apply vid's beacons up to t; a wake-up that finds none is stale."""
        x = self.next[vid]
        if x > t:
            return
        covered, until = self.cov[vid]
        heard, period = None, self.period
        while x <= t:
            if x > until:
                covered, until = self.cov[vid] = self.coverage(vid, x)
            if covered:
                heard = x
            x += period
        self.next[vid] = x
        if heard is not None:
            self.heard[vid] = heard
            self.registry.on_beacon(vid, math.inf if self.steady and covered else heard)
        elif self.registry.entries.get(vid) == math.inf:
            self.registry.on_beacon(vid, self.heard[vid])  # left coverage: start aging
        self.book(vid)

    def book(self, vid: int, before: float = math.inf) -> None:
        """Wake vid at its next beacon if that can matter, else when its window
        ends; never, if that is after ``before`` or infinite. A picked vehicle
        is booked with ``before`` set to when its task reaches it, since a
        later wake-up would find it serving; beacons at that time still act
        first. A lost forward leg books it with no limit."""
        x, (covered, until) = self.next[vid], self.cov[vid]
        w = x if x > until or (covered and self.registry.entries.get(vid) != math.inf) else until
        if w <= before and w < math.inf:
            heapq.heappush(self.wakes, (w, vid))
