"""Beacon-driven availability registry and the VCCFirst dispatch strategy.

ECFirst needs no registry: its rule, the edge unless the waiting line is
full, is applied by ``compute.EdgeState.offer``.

The controller at the gNB keeps a registry of vehicles heard from recently.
Idle vehicles in coverage beacon every ``beacon_period`` seconds (plus once
immediately on finishing a task); entries not refreshed within ``timeout``
expire. The registry is a snapshot, not ground truth: a listed vehicle may
already be busy or out of coverage, and dispatching to it simply fails.

``Beacons`` replays a vehicle's beacons only when its membership could change;
``Beacons._replay`` walks every replay but a steady restart in coverage. With a
beacon period clearly below the timeout, a VCCFirst run costs one replay per
vehicle at its first beacon, and work per task and per coverage crossing;
otherwise every beacon of a listed vehicle is replayed, to keep its age exact.
Booking a pick finds its vehicle's next beacon by closed form, and walks the
beacons since its last replay only if that beacon may act before the task
arrives or the forward leg is lost. A vehicular task pushes at most the
wake-ups that can act before it stops its vehicle.
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
        self.entries[vid] = None  # listed again only by a later beacon of its own
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
    membership could change: at its first beacon, at a wake-up, as it stops and
    as it restarts (see ``restart``). ``coverage(vid, t)`` gives its coverage
    at t and a time before which that cannot change; None covers every vehicle
    for good. In a steady run, a vehicle heard in coverage is listed as
    ``math.inf`` and woken only when its window ends, or at its next beacon if
    that falls past the window. No wake-up is past ``horizon``. Beacons at time
    <= t act before engine events at t."""

    def __init__(self, registry: Registry, period: float, phases: list[float], coverage, horizon: float):
        self.registry, self.period, self.coverage, self.horizon = registry, period, coverage, horizon
        self.steady = registry.timeout - period > 1e-12 * max(1.0, horizon)
        self.next = list(phases)  # next beacon time; math.inf while serving
        n = len(self.next)
        self.heard = array("d", [-math.inf]) * n  # last beacon in coverage
        self.inside = [coverage is None] * n  # the last coverage test, and until when it holds
        self.until = [math.inf if coverage is None else -math.inf] * n
        self.first, self.due, self.wakes = None, min(self.next, default=math.inf), []  # see _first_due

    def advance(self, t: float) -> None:
        """Apply every beacon at time <= t that can change the registry: the
        first beacons due and the vehicles woken, replayed as one batch."""
        wakes, nxt, woken = self.wakes, self.next, []
        while wakes and wakes[0][0] <= t:
            vid = heapq.heappop(wakes)[1]
            if nxt[vid] <= t:  # else the wake-up is stale: no beacon to replay
                woken.append(vid)
        if self.due <= t:
            self._replay(itertools.chain(self._first_due(t), woken), t)
        elif woken:
            self._replay(woken, t)

    def dispatch(self, rng, t: float) -> int | None:
        """VCCFirst at t: apply the beacons <= t and pick with ``Registry.pick``.
        The caller books the picked vehicle with ``book``, which moves its
        cursor, before anything else reads that cursor."""
        if self.due <= t or self.wakes and self.wakes[0][0] <= t:
            self.advance(t)
        return self.registry.pick(rng, t)

    def covered(self, vid: int, t: float) -> bool:
        """vid's coverage at t. Coverage windows start at or before the current
        time, so one that has not ended at t still holds."""
        return self.inside[vid] if t <= self.until[vid] else self.coverage(vid, t)[0]

    def stop(self, vid: int, t: float) -> None:
        """vid starts serving at t and beacons no more until it finishes."""
        if self.next[vid] <= t:
            self._replay((vid,), t)
        if self.next[vid] < math.inf:
            if self.registry.entries[vid] == math.inf:
                self.registry.on_beacon(vid, self.heard[vid])
            self.next[vid] = math.inf

    def restart(self, vid: int, t: float) -> bool:
        """vid finished a task at t: it beacons at once, then every period;
        return its coverage at t. A steady run relists a covered vid in place
        as ``_replay`` would: next beacon ``t + period`` (> t by the run's
        caps), heard at t, entry ``math.inf``, ``_replay``'s wake-up. Other
        restarts go through ``_replay``."""
        if t > self.until[vid]:
            self.inside[vid], self.until[vid] = self.coverage(vid, t)
        if self.steady and self.inside[vid]:
            x = self.next[vid] = t + self.period
            self.heard[vid], until = t, self.until[vid]
            self.registry.on_beacon(vid, math.inf)
            w = x if x > until else until
            if w <= self.horizon:
                heapq.heappush(self.wakes, (w, vid))
            return True
        self.next[vid] = t
        self._replay((vid,), t)
        return self.inside[vid]

    def _first_due(self, t: float):
        """The ids, in order, whose first beacon is due by t. The first call
        sorts the ids it leaves into ``first``, by phase, descending; each later
        call cuts the due ids off its end. ``due`` is the next first beacon's
        time."""
        first, nxt = self.first, self.next
        if first is None:
            ids, at = range(len(nxt)), itertools.repeat(t)
            later = itertools.compress(ids, map(operator.gt, nxt, at))
            first = self.first = array("q", sorted(later, key=nxt.__getitem__, reverse=True))
            due = itertools.compress(ids, map(operator.le, nxt, at))  # read lazily: the replay writes only ids read
        else:
            cut = bisect.bisect_left(first, -t, key=lambda vid: -nxt[vid])
            due = sorted(first[cut:])
            del first[cut:]
        self.due = nxt[first[-1]] if first else math.inf
        return due

    def _replay(self, vids, t: float) -> None:
        """Apply the beacons up to t of each of ``vids``: walk its ``x = x +
        period`` chain with its coverage tests, list or age its entry, and book
        its wake-up as ``book`` would. A vehicle whose next beacon is after t
        is skipped: one dispatch can wake it twice."""
        registry, coverage, period, horizon = self.registry, self.coverage, self.period, self.horizon
        steady, nxt, heard = self.steady, self.next, self.heard
        inside, until_at, entries = self.inside, self.until, registry.entries
        listed, booked = [], []
        for vid in vids:
            x = nxt[vid]
            if x > t:
                continue
            covered, until, last = inside[vid], until_at[vid], None
            while x <= t:
                if x > until:
                    covered, until = coverage(vid, x)
                if covered:
                    last = x
                x += period
            nxt[vid], inside[vid], until_at[vid] = x, covered, until
            if last is None:
                if entries[vid] == math.inf:
                    registry.on_beacon(vid, heard[vid])  # fell silent: start aging
            else:
                heard[vid] = last
                if not (steady and covered):
                    registry.on_beacon(vid, last)
                elif entries[vid] is None:
                    listed.append(vid)
                else:
                    registry.on_beacon(vid, math.inf)
            w = x if x > until or (covered and not steady) else until
            if w <= horizon:
                booked.append((w, vid))
        if listed:
            registry.list_steady(listed)
        if not booked:
            return
        wakes = self.wakes
        if len(booked) > len(wakes) >> 3:
            booked += wakes
            heapq.heapify(booked)
            self.wakes = booked
        else:
            for wake in booked:
                heapq.heappush(wakes, wake)

    def book(self, vid: int, t: float, before: float = math.inf) -> None:
        """Wake vid, picked at t, at its next beacon if that can matter, else
        when its window ends; never, if that is after ``before`` or infinite.
        ``before`` is when its task reaches it, since a later wake-up would
        find it serving; beacons at that time still act first. A lost forward
        leg books it with no limit.

        A cursor at or before t takes a closed-form test: if its next beacon
        is sure to fall after ``before``, no wake-up can act and the cursor
        becomes ``math.inf``, which every replay and stale wake-up skips,
        until the vehicle stops. Otherwise it walks the exact ``x = x + period``
        chain past t, one addition per test."""
        x = self.next[vid]
        if x <= t:
            period = self.period
            # The chain from x (>= 0, exact) is x_j = x + j*period + e_j with
            # |e_j| <= j*u/2: each addition rounds by at most u/2, u = ulp(T),
            # while every sum stays below T. x~_j = fl(x + fl(j*period)) rounds
            # twice, so |x~_j - (x + j*period)| <= u and |x_j - x~_j| <=
            # (j/2 + 1)*u <= eps for j <= k. Take T = 4*x~_k and eps = (k + 2)*
            # ulp(2*x~_k) >= (k/2 + 1)*u, exact as an integer times a power of
            # two. If the test below holds, then eps < x~_k (t >= 0), so every
            # sum is at most x~_k*(1 + 2**-51) + eps < T, and, since rounding is
            # monotone, x_(k-1) <= t <= before < x_k: x_k is the next beacon, and
            # a wake-up is at x_k or at a window end past it, never by before.
            k = (t - x) // period + 1.0
            hi = x + k * period
            eps = (k + 2.0) * math.ulp(hi + hi)
            if x + (k - 1.0) * period + eps <= t <= before < hi - eps:
                self.next[vid] = math.inf
                return
            while x <= t:
                x += period
            self.next[vid] = x
        until = self.until[vid]
        # _replay's rule, but the pick took vid's entry: a covered vid is woken
        # at its next beacon even when steady, where _replay lists it as inf.
        w = x if x > until or self.inside[vid] else until
        if w <= before and w <= self.horizon:
            heapq.heappush(self.wakes, (w, vid))
