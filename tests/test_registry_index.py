"""Seeded property tests for the registry index and the lazy beacon replay.

The registry keeps its present ids sorted and expires entries from a heap;
both must agree with a plain dict scanned and sorted on every operation. The
lazy ``Beacons``, first beacons listed in batches included, must leave the
registry exactly as one event per beacon would, at every dispatch, and no
whole run may dispatch from a stale entry.
"""

import heapq
import math
import random
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples, listed
from offloadsim.controller import Beacons, Registry
from offloadsim import engine
from offloadsim.config import apply_axis, parse_sweep_spec
from offloadsim.engine import KMH, RunConfig
from offloadsim.scenario import coverage_function, partial_coverage, start_offsets, total_coverage

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
    reg = Registry(timeout=timeout, n_vehicles=13)
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
            vid = reg.pick(random.Random(op[1]), now)
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
        assert reg.ids == sorted(listed(reg))
        assert listed(reg) == model


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
        return self.registry.pick(rng, t)

    def stop(self, vid, t):
        if vid in self.next:
            self._apply(vid, t)
            del self.next[vid]

    def restart(self, vid, t):
        covered = self.covered(vid, t)
        if covered:
            self.registry.on_beacon(vid, t)
        self.next[vid] = t + self.period
        return covered


@settings(max_examples=examples(60), deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    partial=st.booleans(),
    speed_kmh=st.sampled_from((0.0, 13.1, 90.0, 300.0)),
    period=st.sampled_from((0.01, 0.1, 0.4, 0.5, 0.7)),
    timeout=st.sampled_from((0.1, 0.5, 1.0)),
    rate=st.sampled_from((8.0, 100.0)),
    fleet=st.sampled_from((12, 12, 300)),
    tied=st.booleans(),
    late=st.booleans(),
)
def test_lazy_beacons_leave_the_registry_as_eager_ones(
    seed, partial, speed_kmh, period, timeout, rate, fleet, tied, late
):
    """First beacons are listed in batches, each one due at a dispatch; at 100
    dispatches/s many fall inside the first period, and fleets of 300 make
    batches of many vehicles, on both cells. ``tied`` draws the phases from four
    values, so many are equal. ``late`` holds the first dispatch back by 2 s, so
    the first batch replays many beacons, across coverage edges too. On total
    coverage, which passes no coverage function, a twin given one must also
    hold the very same state after every step."""
    geom = partial_coverage() if partial else total_coverage()
    coverage = coverage_function(geom, start_offsets(geom, fleet, seed), speed_kmh * KMH)
    rng = random.Random(seed)
    pool = [rng.random() * period for _ in range(4 if tied else fleet)]
    phases = [rng.choice(pool) if tied else pool[vid] for vid in range(fleet)]

    def covered(vid, t):
        return coverage(vid, t)[0]

    lazy_reg, eager_reg = Registry(timeout, fleet), Registry(timeout, fleet)
    lazy = Beacons(lazy_reg, period, phases, coverage if partial else None, horizon=60.0)
    eager = EagerBeacons(eager_reg, period, phases, covered)
    twins = [] if partial else [Beacons(Registry(timeout, fleet), period, phases, coverage, horizon=60.0)]
    busy: set[int] = set()
    events: list[tuple[float, int, int]] = []  # (time, _DONE or _REACHED, vid)
    t = 2.0 if late else 0.0
    for _ in range(300 if fleet < 100 else 60):
        t += rng.expovariate(rate)
        while events and events[0][0] <= t:
            at, kind, vid = heapq.heappop(events)
            if kind == _DONE:
                busy.discard(vid)
                for beacons in (lazy, eager, *twins):
                    assert beacons.restart(vid, at) == covered(vid, at)
            elif vid in busy:  # rejected
                for beacons in (lazy, *twins):
                    beacons.book(vid)
            else:
                busy.add(vid)
                heapq.heappush(events, (at + rng.uniform(0.0, 1.5), _DONE, vid))
                for beacons in (lazy, eager, *twins):
                    beacons.stop(vid, at)
        draw = rng.random()
        picks = [beacons.dispatch(random.Random(draw), t) for beacons in (lazy, eager, *twins)]
        assert picks.count(picks[0]) == len(picks)
        assert lazy_reg.ids == eager_reg.ids
        for twin in twins:
            assert (twin.next, twin.heard, twin.registry.entries) == (lazy.next, lazy.heard, lazy_reg.entries)
            assert sorted(twin.registry._ages) == sorted(lazy_reg._ages)
        vid = picks[0]
        if vid is None:
            continue
        reached = math.inf  # its forward leg is lost
        if draw < 0.7:  # the task reaches vid at once or after up to three periods
            reached = t + rng.choice((0.0, rng.uniform(0.0, 3 * period)))
            heapq.heappush(events, (reached, _REACHED, vid))
        for beacons in (lazy, *twins):
            beacons.book(vid, reached)


def test_beacons_at_a_dispatch_instant_count_before_it():
    """Tie rule: a beacon at exactly t takes effect before a pick or stop at t."""
    reg = Registry(timeout=0.5, n_vehicles=1)
    # in coverage but at the instant 2.0; each window ends at its own test
    beacons = Beacons(reg, 0.25, [0.0], lambda vid, t: (t != 2.0, t), horizon=10.0)
    rng = random.Random(0)

    beacons.advance(0.1)  # heard at 0.0; its later beacons need no replay
    assert beacons.dispatch(rng, 0.5) == 0
    beacons.book(0, 0.75)
    assert beacons.dispatch(rng, 0.5) is None  # the beacon at 0.5 was spent on the first pick
    beacons.stop(0, 0.75)  # its beacon at 0.75 still lands
    assert listed(reg) == {0: 0.75}
    assert beacons.dispatch(rng, 1.25) == 0  # exactly timeout old: still listed
    assert beacons.restart(0, 1.5)
    beacons.stop(0, 1.6)
    assert beacons.dispatch(rng, 2.0) == 0
    assert not beacons.restart(0, 2.0)
    assert beacons.dispatch(rng, 2.25) == 0  # first periodic beacon after the restart


def test_first_beacons_at_a_dispatch_instant_are_listed_before_it():
    """The tie rule for first beacons, in the first batch and in a later one."""
    for early in (None, 0.1):  # the first batch at 0.25, or after one at 0.1 that lists none
        reg = Registry(timeout=0.5, n_vehicles=3)
        beacons = Beacons(reg, 0.3, [0.25, 0.28, 0.25], None, horizon=10.0)
        if early is not None:
            assert beacons.dispatch(random.Random(0), early) is None
        pick = beacons.dispatch(random.Random(0), 0.25)
        assert pick in (0, 2) and listed(reg) == {2 - pick: math.inf}
        beacons.advance(0.28)
        assert listed(reg) == {2 - pick: math.inf, 1: math.inf}


def _one_listed_vehicle(coverage):
    """Vehicle 0, beaconing at 0, 0.25, ... and picked at 0.3: its cursor is
    at 0.5 and it is not listed."""
    beacons = Beacons(Registry(timeout=0.5, n_vehicles=1), 0.25, [0.0], coverage, horizon=10.0)
    assert beacons.dispatch(random.Random(0), 0.3) == 0
    assert list(beacons.next) == [0.5] and listed(beacons.registry) == {}
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
    assert beacons.restart(0, 1.0)  # next beacon 1.25, inside the window
    assert listed(reg) == {0: math.inf} and reg._ages == []  # no finite age pushed
    assert beacons.dispatch(random.Random(0), 1.1) == 0
    beacons.book(0, 1.1)
    beacons.stop(0, 1.1)
    assert beacons.restart(0, 1.9)  # next beacon 2.15, past the window
    assert listed(reg) == {0: 1.9} and (1.9, 0) in reg._ages


def test_a_restart_lists_its_time_when_the_period_is_not_below_the_timeout():
    beacons = Beacons(Registry(timeout=0.25, n_vehicles=1), 0.25, [0.0], lambda vid, t: (True, math.inf), horizon=10.0)
    assert beacons.dispatch(random.Random(0), 0.1) == 0
    beacons.book(0, 0.1)
    beacons.stop(0, 0.1)
    assert beacons.restart(0, 1.0)
    assert listed(beacons.registry) == {0: 1.0}


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
    serving: set[int] = set()  # the vehicles the engine has stopped and not restarted
    calls = set()
    dispatches = []

    class Recording(Beacons):
        """The engine's calls: it stops a vehicle as its service starts and
        restarts it as that ends (checked against the records below)."""

        def stop(self, vid, t):
            serving.add(vid)
            calls.add(("stop", vid, t))
            super().stop(vid, t)

        def restart(self, vid, t):
            serving.discard(vid)
            calls.add(("restart", vid, t))
            return super().restart(vid, t)

    pick_from = Registry.pick

    def checked(registry, rng, now):
        before = listed(registry)
        pick = pick_from(registry, rng, now)
        seen = listed(registry)
        if pick is not None:
            seen[pick] = before[pick]
        for vid, last in seen.items():
            if last == math.inf:
                assert vid not in serving, "a serving vehicle is listed as beaconing"
            else:
                assert last <= now and last >= now - registry.timeout, (vid, last, now)
        dispatches.append(len(seen))
        return pick

    with mock.patch.object(engine, "Beacons", Recording), mock.patch.object(Registry, "pick", checked):
        records = engine.run(cfg)
    assert dispatches  # every run dispatches at least once
    for r in records:
        if r.destination == "VEHICLE" and r.t_elab > 0.0:  # served from start to end
            start = r.created_at + r.t_up_access + r.t_gnb_to_vue
            assert ("stop", r.vehicle_id, start) in calls
            if start + r.t_elab <= cfg.duration:
                assert ("restart", r.vehicle_id, start + r.t_elab) in calls


def test_steady_coverage_books_only_finite_times():
    """On an unbounded cell with the period well below the timeout, a listed
    vehicle holds math.inf and needs no wake-up. Over a long history of picks,
    tasks and restarts neither heap takes an infinite time, and the wake-ups
    never outnumber the fleet."""
    fleet = 12
    rng = random.Random(6)
    reg = Registry(timeout=0.5, n_vehicles=fleet)
    phases = [rng.random() * 0.1 for _ in range(fleet)]
    beacons = Beacons(reg, 0.1, phases, lambda vid, t: (True, math.inf), horizon=1000.0)
    busy: dict[int, float] = {}  # vid -> task finish time
    t = 0.0
    for _ in range(5000):
        t += rng.expovariate(8.0)
        for vid in [vid for vid, done in busy.items() if done <= t]:
            del busy[vid]
            assert beacons.restart(vid, t)
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
    assert t > 500.0 and math.inf in reg.entries


def test_no_replay_finds_the_next_beacon_still_ahead():
    """Over the benchmark's coverage sweep at seeds 0 and 1, every ``_replay``
    call has a beacon to replay: a wake-up or a stop that finds the vehicle's
    next beacon after t makes no call."""
    text = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "coverage_sweep.cfg").read_text()
    spec = parse_sweep_spec(text)
    calls, ahead = 0, 0
    replay = Beacons._replay

    def counted(self, vid, t):
        nonlocal calls, ahead
        calls += 1
        ahead += self.next[vid] > t
        replay(self, vid, t)

    with mock.patch.object(Beacons, "_replay", counted):
        for seed in (0, 1):
            for value in spec.values:
                engine.run(apply_axis(spec.base_run, spec.axis, value, seed))
    assert calls > 1000 and ahead == 0, (calls, ahead)


@st.composite
def _catch_ups(draw):
    """(x, period, t): a cursor x in [0, t] at most a few thousand periods behind t."""
    t = draw(st.floats(1e-6, 1e7) | st.sampled_from((0.1, 1.0, 120.0, 2.0**20)))
    period = draw(
        st.sampled_from((0.1, 1 / 3)) | st.integers(-30, 4).map(lambda k: 2.0**k) | st.floats(1e-4, 10.0)
        | st.floats(0.51, 8.0).map(lambda c: c * math.ulp(t))  # down to just above half a float step of t
    )
    if draw(st.booleans()):  # anywhere below t, or just below it
        x = draw(st.floats(0.0, 1.0, exclude_max=True) | st.just(math.nextafter(1.0, 0.0))) * t
    else:  # a few periods, and a part of one, behind t
        x = t - draw(st.integers(0, 64)) * period - draw(st.floats(0.0, 1.0)) * period
    return max(x, t - 5000 * period, 0.0), period, t


@settings(max_examples=examples(300), deadline=None, derandomize=True)
@given(case=_catch_ups())
def test_a_pick_moves_its_cursor_as_one_addition_per_test_would(case):
    x, period, t = case
    reference = x
    while reference <= t:
        reference += period
    beacons = Beacons(Registry(timeout=1.0, n_vehicles=1), period, [math.inf], None, horizon=t)
    beacons.next[0] = x
    beacons.registry.list_steady([0])
    assert beacons.dispatch(random.Random(0), t) == 0
    assert beacons.next[0] == reference, (x, period, t)


def test_a_pick_draws_the_id_at_randrange_and_leaves_the_same_rng_state():
    sizes = [1, 2, 3] + [2**k + d for k in range(2, 21) for d in (-1, 0, 1)]
    for n in sizes:
        reg = Registry(timeout=1.0, n_vehicles=n)
        reg.list_steady(list(range(n)))
        ids = list(range(n))
        rng, twin = random.Random(n), random.Random(n)
        for _ in range(min(n, 12)):
            assert reg.pick(rng, 0.0) == ids.pop(twin.randrange(len(ids)))
            assert rng.getstate() == twin.getstate()
        assert reg.ids == ids
