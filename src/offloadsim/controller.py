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
timeout, a VCCFirst run costs one replay per vehicle at its first beacon (the
first beacons due at a dispatch replayed as one batch, their steady entries
listed in bulk), work per task and per coverage crossing, and, per pick, one
float addition per period since the picked vehicle was last replayed, made
eight to a comparison. A vehicular task pushes at most the wake-ups that can
act before it stops its vehicle, and a vehicle that finishes a task well inside
its coverage window is listed steady at once. Otherwise every beacon of a
listed vehicle is replayed, to keep its age exact. A wake-up or stop before a vehicle's next beacon skips the replay.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from array import array

CLOUD = "CLOUD"
EDGE = "EDGE"
VEHICLE = "VEHICLE"

EC_FIRST = "ECFirst"
VCC_FIRST = "VCCFirst"
STRATEGIES = (EC_FIRST, VCC_FIRST)


class Registry:
    """vehicle id -> last beacon time (``math.inf``: still beaconing), with
    timeout expiry. ``entries`` is a list indexed by id, None where absent;
    ``ids`` is the sorted index of present ids; ``_ages`` is a heap of (time,
    id) per change to a finite entry, so expiry pops only stale items."""

    __slots__ = ("timeout", "entries", "ids", "_ages")

    def __init__(self, timeout: float, n_vehicles: int) -> None:
        self.timeout, self.entries, self.ids, self._ages = timeout, [None] * n_vehicles, [], []

    def on_beacon(self, vehicle_id: int, t: float) -> None:
        entries = self.entries
        last = entries[vehicle_id]
        if last is None:
            bisect.insort(self.ids, vehicle_id)
        if last != t and t < math.inf:
            heapq.heappush(self._ages, (t, vehicle_id))
        entries[vehicle_id] = t

    def list_steady(self, vids: list[int]) -> None:
        """List ``vids``, none of them present, as still beaconing (``math.inf``)."""
        entries = self.entries
        for vid in vids:
            entries[vid] = math.inf
        if len(vids) == 1:
            bisect.insort(self.ids, vids[0])
        else:
            self.ids += vids
            self.ids.sort()

    def pick(self, rng, now: float) -> int | None:
        """VCCFirst at ``now``: expire stale entries, then remove a listed id drawn
        uniformly and return it, or None for the cloud. Candidates are ordered by
        id, so the pick depends only on the RNG state, never on dict history. The
        index is drawn from ``getrandbits`` as CPython's ``randrange(n)`` draws
        it, so it does not rest on ``randrange``, whose algorithm CPython does
        not promise to keep."""
        if self._ages and self._ages[0][0] < now - self.timeout:  # something is stale
            self.expire_stale(now)
        ids = self.ids
        if not ids:
            return None
        n = len(ids)
        k = n.bit_length()
        i = rng.getrandbits(k)
        while i >= n:
            i = rng.getrandbits(k)
        vid = ids.pop(i)
        self.entries[vid] = None  # listed again only by a later beacon of its
        return vid

    def expire_stale(self, t: float) -> None:
        """Drop every entry whose last beacon is older than ``t - timeout``."""
        deadline = t - self.timeout
        while self._ages and self._ages[0][0] < deadline:
            last, vid = heapq.heappop(self._ages)
            if self.entries[vid] == last:
                self.entries[vid] = None
                del self.ids[bisect.bisect_left(self.ids, vid)]


class Beacons:
    """A fleet's periodic beacons, replayed into a registry only when needed.

    Vehicle ids index flat per-vehicle columns. An idle vehicle beacons from
    its seeded phase, or at once on finishing a task, then at ``x = x +
    period`` as an event per beacon would. It is replayed only when its
    membership could change: at its first beacon, in a batch of those due
    (``_list_first``), then from a heap of finite wake-ups. ``coverage(vid,
    t)`` gives its coverage at t and a time before which that cannot change;
    None covers every vehicle for good. In a steady run, a vehicle sure to
    beacon in coverage within the timeout is listed as ``math.inf`` and woken
    only when that window ends. Beacons at time <= t act before engine events
    at t."""

    def __init__(self, registry: Registry, period: float, phases: list[float], coverage, horizon: float):
        self.registry, self.period, self.coverage = registry, period, coverage
        self.steady = registry.timeout - period > 1e-12 * max(1.0, horizon)
        self.next = list(phases)  # next beacon time; math.inf while serving
        n = len(self.next)
        self.heard = array("d", [-math.inf]) * n  # last beacon in coverage
        self.inside = [coverage is None] * n  # the last coverage test, and until when it holds
        self.until = [math.inf if coverage is None else -math.inf] * n
        self.first, self.due, self.wakes = None, min(self.next, default=math.inf), []  # see _list_first

    def advance(self, t: float) -> None:
        """Apply every beacon at time <= t that can change the registry."""
        if self.due <= t:
            self._list_first(t)
        wakes, nxt = self.wakes, self.next
        while wakes and wakes[0][0] <= t:
            vid = heapq.heappop(wakes)[1]
            if nxt[vid] <= t:  # else the wake-up is stale: no beacon to replay
                self._replay(vid, t)

    def dispatch(self, rng, t: float) -> int | None:
        """VCCFirst at t: apply the beacons <= t, pick with ``Registry.pick``,
        and move the picked vehicle's cursor past its beacons <= t. The caller
        then books the picked vehicle's wake-up with ``book``."""
        if self.due <= t or self.wakes and self.wakes[0][0] <= t:
            self.advance(t)
        vid = self.registry.pick(rng, t)
        if vid is not None:
            # The same additions as one per test, made eight per test while the
            # first seven sums are sure to stay <= t.
            x, period = self.next[vid], self.period
            lim = t - 8 * (period + math.ulp(t))
            while x <= lim:
                x = x + period + period + period + period + period + period + period + period
            while x <= t:
                x += period
            self.next[vid] = x
        return vid

    def covered(self, vid: int, t: float) -> bool:
        """vid's coverage at t. Coverage windows start at or before the current
        time, so one that has not ended at t still holds."""
        return self.inside[vid] if t <= self.until[vid] else self.coverage(vid, t)[0]

    def stop(self, vid: int, t: float) -> None:
        """vid starts serving at t and beacons no more until it finishes."""
        if self.next[vid] <= t:
            self._replay(vid, t)
        if self.next[vid] < math.inf:
            if self.registry.entries[vid] == math.inf:
                self.registry.on_beacon(vid, self.heard[vid])
            self.next[vid] = math.inf

    def restart(self, vid: int, t: float) -> bool:
        """vid finished a task at t: it beacons at once, then every period; return
        its coverage at t. In a steady run, if its next beacon still falls in its
        cached coverage window, it is listed as ``math.inf`` at once, as replaying
        that beacon would."""
        x = self.next[vid] = t + self.period
        inside, until = self.inside[vid], self.until[vid]
        covered = inside if t <= until else self.coverage(vid, t)[0]  # as ``covered`` reads it
        if covered:
            steady = self.steady and inside and x <= until
            self.registry.on_beacon(vid, math.inf if steady else t)
            self.heard[vid] = t
        self.book(vid)
        return covered

    def _list_first(self, t: float) -> None:
        """Replay the first beacons due by t, each as ``_replay`` would, in one
        batch by id: steady entries listed in bulk, many wake-ups heapified at
        once. The first batch sorts the ids it leaves into ``first``, by phase,
        descending; ``due`` is the next first beacon's time."""
        first, nxt = self.first, self.next
        if first is None:
            ids, at = range(len(nxt)), itertools.repeat(t)
            later = itertools.compress(ids, map(operator.gt, nxt, at))
            first = self.first = array("q", sorted(later, key=nxt.__getitem__, reverse=True))
            due = itertools.compress(ids, map(operator.le, nxt, at))  # read lazily: the loop writes only ids read
        else:
            cut = bisect.bisect_left(first, -t, key=lambda vid: -nxt[vid])
            due = sorted(first[cut:])
            del first[cut:]
        self.due = nxt[first[-1]] if first else math.inf
        registry, coverage, period, steady = self.registry, self.coverage, self.period, self.steady
        heard, inside, until_at, listed, booked = self.heard, self.inside, self.until, [], []
        for vid in due:
            x, covered, until, last = nxt[vid], inside[vid], until_at[vid], None
            while x <= t:
                if x > until:
                    covered, until = coverage(vid, x)
                if covered:
                    last = x
                x += period
            nxt[vid], inside[vid], until_at[vid] = x, covered, until
            if last is not None:
                heard[vid] = last
                if steady and covered:
                    listed.append(vid)
                else:
                    registry.on_beacon(vid, last)
            w = x if x > until or (covered and not steady) else until  # as book(vid) reads it
            if w < math.inf:
                booked.append((w, vid))
        if listed:
            registry.list_steady(listed)
        if len(booked) > len(self.wakes) >> 3:
            booked += self.wakes
            heapq.heapify(booked)
            self.wakes = booked
        else:
            for wake in booked:
                heapq.heappush(self.wakes, wake)

    def _replay(self, vid: int, t: float) -> None:
        """Apply vid's beacons up to t; callers check that the next one is due by t."""
        x = self.next[vid]
        covered, until = self.inside[vid], self.until[vid]
        heard, period = None, self.period
        while x <= t:
            if x > until:
                covered, until = self.inside[vid], self.until[vid] = self.coverage(vid, x)
            if covered:
                heard = x
            x += period
        self.next[vid] = x
        if heard is not None:
            self.heard[vid] = heard
            self.registry.on_beacon(vid, math.inf if self.steady and covered else heard)
        elif self.registry.entries[vid] == math.inf:
            self.registry.on_beacon(vid, self.heard[vid])  # left coverage: start aging
        self.book(vid)

    def book(self, vid: int, before: float = math.inf) -> None:
        """Wake vid at its next beacon if that can matter, else when its window
        ends; never, if that is after ``before`` or infinite. A picked vehicle
        is booked with ``before`` set to when its task reaches it, since a
        later wake-up would find it serving; beacons at that time still act
        first. A lost forward leg books it with no limit."""
        x, covered, until = self.next[vid], self.inside[vid], self.until[vid]
        w = x if x > until or (covered and self.registry.entries[vid] != math.inf) else until
        if w <= before and w < math.inf:
            heapq.heappush(self.wakes, (w, vid))
