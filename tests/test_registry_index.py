"""Seeded property tests for the registry index and the lazy beacon replay.

The registry keeps its present ids sorted and expires entries from a heap;
both must agree with a plain dict scanned and sorted on every operation. The
lazy ``Beacons`` must leave the registry exactly as one event per beacon
would, at every dispatch, and no whole run may dispatch from a stale entry.
"""

import heapq
import math
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from offloadsim.controller import Beacons, Registry, select_vccfirst
from offloadsim import controller, engine
from offloadsim.engine import KMH, RunConfig
from offloadsim.scenario import (
    build_scenario,
    edge_distance,
    in_coverage,
    partial_coverage,
    position_at,
    total_coverage,
)

_TIME = st.floats(0.0, 1.0)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("beacon"), st.integers(0, 12), _TIME | st.just(math.inf)),
        st.tuples(st.just("select"), st.integers(0, 2**32)),
        st.tuples(st.just("expire"), st.floats(-1.0, 1.0)),
        st.tuples(st.just("advance"), _TIME),
    ),
    max_size=80,
)


@settings(max_examples=examples(300), deadline=None, derandomize=True)
@given(timeout=st.sampled_from((0.1, 0.5, 1.0)) | st.floats(0.01, 2.0), ops=_OPS)
def test_index_and_expiry_match_a_sorted_scan(timeout, ops):
    reg = Registry(timeout=timeout)
    model: dict[int, float] = {}
    now = 0.0

    def expire(t):
        return {vid: last for vid, last in model.items() if not last < t - timeout}

    for op in ops:
        if op[0] == "beacon":
            # beacons may carry times up to a second old, or inf (never expires)
            t = op[2] if math.isinf(op[2]) else now - op[2]
            reg.on_beacon(op[1], t)
            model[op[1]] = t
        elif op[0] == "select":
            model = expire(now)
            expected = sorted(model)
            vid = select_vccfirst(reg, random.Random(op[1]), now)
            if expected:
                pick = expected[random.Random(op[1]).randrange(len(expected))]
                assert vid == pick
                del model[pick]
            else:
                assert vid is None
        elif op[0] == "expire":
            reg.expire_stale(now + op[1])
            model = expire(now + op[1])
        else:
            now += op[1]
        assert reg.ids == sorted(reg.entries)
        assert reg.entries == model


_DONE, _REACHED = range(2)


class EagerBeacons:
    """Reference: every beacon of every idle vehicle applied in time order."""

    def __init__(self, registry, period, phases, covered):
        self.registry, self.period, self.covered = registry, period, covered
        self.next = dict(enumerate(phases))

    def _apply(self, vid, t):
        x = self.next[vid]
        while x <= t:
            if self.covered(vid, x):
                self.registry.on_beacon(vid, x)
            x = x + self.period
        self.next[vid] = x

    def advance(self, t):
        for vid in self.next:
            self._apply(vid, t)

    def dispatch(self, rng, t):
        self.advance(t)
        return select_vccfirst(self.registry, rng, t)

    def stop(self, vid, t):
        if vid in self.next:
            self._apply(vid, t)
            del self.next[vid]

    def restart(self, vid, t, covered):
        if covered:
            self.registry.on_beacon(vid, t)
        self.next[vid] = t + self.period


@settings(max_examples=examples(60), deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    partial=st.booleans(),
    speed_kmh=st.sampled_from((0.0, 13.1, 90.0, 300.0)),
    period=st.sampled_from((0.01, 0.1, 0.4, 0.5, 0.7)),
    timeout=st.sampled_from((0.1, 0.5, 1.0)),
)
def test_lazy_beacons_leave_the_registry_as_eager_ones(seed, partial, speed_kmh, period, timeout):
    geom = partial_coverage() if partial else total_coverage()
    fleet = build_scenario(geom, 12, speed_kmh * KMH, 1.0, seed)
    rng = random.Random(seed)
    phases = [rng.random() * period for _ in fleet]

    def covered(vid, t):
        return in_coverage(position_at(fleet[vid], t, geom), geom)

    def coverage(vid, t):
        p, v = position_at(fleet[vid], t, geom), fleet[vid]
        until = t + edge_distance(p, geom) / v.speed if v.speed > 0.0 else math.inf
        return in_coverage(p, geom), until

    lazy_reg, eager_reg = Registry(timeout=timeout), Registry(timeout=timeout)
    lazy = Beacons(lazy_reg, period, phases, coverage, horizon=60.0)
    eager = EagerBeacons(eager_reg, period, phases, covered)
    busy: set[int] = set()
    events: list[tuple[float, int, int]] = []  # (time, _DONE or _REACHED, vid)
    t = 0.0
    for _ in range(300):
        t += rng.expovariate(8.0)
        while events and events[0][0] <= t:
            at, kind, vid = heapq.heappop(events)
            if kind == _DONE:
                busy.discard(vid)
                for beacons in (lazy, eager):
                    beacons.restart(vid, at, covered(vid, at))
            elif vid in busy:  # rejected
                lazy.book(vid)
            else:
                busy.add(vid)
                heapq.heappush(events, (at + rng.uniform(0.0, 1.5), _DONE, vid))
                for beacons in (lazy, eager):
                    beacons.stop(vid, at)
        draw = rng.random()
        picks = [beacons.dispatch(random.Random(draw), t) for beacons in (lazy, eager)]
        assert picks[0] == picks[1]
        assert lazy_reg.ids == eager_reg.ids
        vid = picks[0]
        if vid is None:
            continue
        if draw < 0.7:  # the task reaches vid at once or after up to three periods
            reached = t + rng.choice((0.0, rng.uniform(0.0, 3 * period)))
            lazy.book(vid, reached)
            heapq.heappush(events, (reached, _REACHED, vid))
        else:  # its forward leg is lost
            lazy.book(vid)


def test_beacons_at_a_dispatch_instant_count_before_it():
    """Tie rule: a beacon at exactly t takes effect before a pick or stop at t."""
    reg = Registry(timeout=0.5)
    beacons = Beacons(reg, 0.25, [0.0], lambda vid, t: (True, math.inf), horizon=10.0)
    rng = random.Random(0)

    beacons.advance(0.1)  # heard at 0.0; its later beacons need no replay
    assert beacons.dispatch(rng, 0.5) == 0
    beacons.book(0, 0.75)
    assert beacons.dispatch(rng, 0.5) is None  # the beacon at 0.5 was spent on the first pick
    beacons.stop(0, 0.75)  # its beacon at 0.75 still lands
    assert reg.entries == {0: 0.75}
    assert beacons.dispatch(rng, 1.25) == 0  # exactly timeout old: still listed
    beacons.restart(0, 1.5, covered=True)
    beacons.stop(0, 1.6)
    assert beacons.dispatch(rng, 2.0) == 0
    beacons.restart(0, 2.0, covered=False)
    assert beacons.dispatch(rng, 2.25) == 0  # first periodic beacon after the restart


def _one_listed_vehicle(coverage):
    """Vehicle 0, beaconing at 0, 0.25, ... and picked at 0.3: its cursor is
    at 0.5 and it is not listed."""
    beacons = Beacons(Registry(timeout=0.5), 0.25, [0.0], coverage, horizon=10.0)
    assert beacons.dispatch(random.Random(0), 0.3) == 0
    assert beacons.next == [0.5] and beacons.registry.entries == {}
    return beacons


def test_a_pick_whose_task_arrives_first_books_no_wake_up():
    for until in (math.inf, 4.0):  # unbounded cell, or a window ending at 4 s
        beacons = _one_listed_vehicle(lambda vid, t: (True, until))
        before = list(beacons.wakes)
        beacons.book(0, 0.45)  # the task stops the vehicle before its beacon at 0.5
        assert beacons.wakes == before
        beacons.stop(0, 0.45)
        assert beacons.dispatch(random.Random(0), 1.0) is None


def test_a_pick_books_its_wake_up_when_the_beacon_comes_first_or_the_leg_is_lost():
    for stop_at in (0.5, math.inf):  # a tie goes to the beacon
        beacons = _one_listed_vehicle(lambda vid, t: (True, math.inf))
        beacons.book(0, stop_at)
        assert beacons.wakes == [(0.5, 0)]
        assert beacons.dispatch(random.Random(0), 0.5) == 0  # listed again by its beacon at 0.5


def test_a_steady_restart_inside_a_lasting_window_is_listed_at_once():
    beacons = _one_listed_vehicle(lambda vid, t: (True, 2.0))  # in coverage until 2 s
    reg = beacons.registry
    beacons.book(0, 0.3)
    beacons.stop(0, 0.3)
    beacons.restart(0, 1.0, covered=True)  # next beacon 1.25, inside the window
    assert reg.entries == {0: math.inf} and reg._ages == []  # no finite age pushed
    assert beacons.dispatch(random.Random(0), 1.1) == 0
    beacons.book(0, 1.1)
    beacons.stop(0, 1.1)
    beacons.restart(0, 1.9, covered=True)  # next beacon 2.15, past the window
    assert reg.entries == {0: 1.9} and (1.9, 0) in reg._ages


def test_a_restart_lists_its_time_when_the_period_is_not_below_the_timeout():
    beacons = Beacons(Registry(timeout=0.25), 0.25, [0.0], lambda vid, t: (True, math.inf), horizon=10.0)
    assert beacons.dispatch(random.Random(0), 0.1) == 0
    beacons.book(0, 0.1)
    beacons.stop(0, 0.1)
    beacons.restart(0, 1.0, covered=True)
    assert beacons.registry.entries == {0: 1.0}


@settings(max_examples=examples(150), deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    partial=st.booleans(),
    users=st.integers(1, 8),
    n_vehicles=st.integers(0, 30),
    speed_kmh=st.sampled_from((0.0, 13.1, 50.0, 150.0)),
    capacity_scale=st.sampled_from((1.0, 1 / 64)),
    period=st.sampled_from((0.05, 0.1, 0.4, 0.5, 0.7)),
    timeout=st.sampled_from((0.1, 0.25, 0.5)) | st.floats(0.05, 1.0),
)
def test_every_dispatch_sees_only_fresh_or_steady_entries(
    seed, partial, users, n_vehicles, speed_kmh, capacity_scale, period, timeout
):
    """At each VCCFirst dispatch of a run, every registry entry the pick can
    see is math.inf (an idle vehicle still beaconing) or at most
    ``registry_timeout`` old."""
    cfg = RunConfig(
        strategy="VCCFirst",
        n_users=users,
        duration=3.0,
        seed=seed,
        geometry=partial_coverage() if partial else total_coverage(),
        n_vehicles=n_vehicles,
        vehicle_speed=speed_kmh * KMH,
        vehicle_capacity=71120.0 * capacity_scale,
        beacon_period=period,
        registry_timeout=timeout,
    )
    fleets = []
    dispatches = []

    def record_fleet(*args):
        fleets.append(build_scenario(*args))
        return fleets[-1]

    def checked(registry, rng, now):
        before = dict(registry.entries)
        pick = select_vccfirst(registry, rng, now)
        seen = dict(registry.entries)
        if pick is not None:
            seen[pick] = before[pick]
        for vid, last in seen.items():
            if last == math.inf:
                assert fleets[0][vid].busy_until <= now, "a serving vehicle is listed as beaconing"
            else:
                assert last <= now and last >= now - registry.timeout, (vid, last, now)
        dispatches.append(len(seen))
        return pick

    with mock.patch.object(engine, "build_scenario", record_fleet), mock.patch.object(
        controller, "select_vccfirst", checked
    ):
        engine.run(cfg)
    assert dispatches  # every run dispatches at least once


def test_steady_coverage_books_only_finite_times():
    """On an unbounded cell with the period well below the timeout, a listed
    vehicle holds math.inf and needs no wake-up. Over a long history of picks,
    tasks and restarts neither heap takes an infinite time, and the wake-ups
    never outnumber the fleet."""
    fleet = 12
    rng = random.Random(6)
    reg = Registry(timeout=0.5)
    phases = [rng.random() * 0.1 for _ in range(fleet)]
    beacons = Beacons(reg, 0.1, phases, lambda vid, t: (True, math.inf), horizon=1000.0)
    busy: dict[int, float] = {}  # vid -> task finish time
    t = 0.0
    for _ in range(5000):
        t += rng.expovariate(8.0)
        for vid in [vid for vid, done in busy.items() if done <= t]:
            del busy[vid]
            beacons.restart(vid, t, covered=True)
        vid = beacons.dispatch(rng, t)
        if vid is not None and vid not in busy:
            beacons.book(vid, t)
            busy[vid] = t + rng.uniform(0.0, 1.5)
            beacons.stop(vid, t)
        elif vid is not None:  # rejected by a serving vehicle
            beacons.book(vid)
        assert all(w < math.inf for w, _ in beacons.wakes)
        assert all(last < math.inf for last, _ in reg._ages)
        assert len(beacons.wakes) <= fleet
    assert t > 500.0 and math.inf in reg.entries.values()
