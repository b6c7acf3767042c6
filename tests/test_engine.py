"""End-to-end simulation runs: determinism, leg accounting, and taxonomy."""

import gc
import math
import os
import random
import tracemalloc

import pytest

import oracle_engine
from offloadsim import engine
from offloadsim.channel import ChannelConfig, Link, LinkParams, lena_calibrated
from offloadsim.compute import elaboration_time
from offloadsim.controller import CLOUD, EC_FIRST, EDGE, VCC_FIRST, VEHICLE
from offloadsim.engine import (
    FAILED,
    FAILURE_LEGS,
    GNB_TO_USER,
    GNB_TO_VCC,
    IN_FLIGHT,
    KMH,
    MAX_ARRIVALS,
    MAX_BEACONS,
    MAX_VEHICLES,
    PositionOverflow,
    REPLICATION_SEEDS,
    REJECTION,
    RECORD_FIELDS,
    Records,
    RunConfig,
    SUCCESS,
    USER_TO_GNB,
    VCC_TO_GNB,
    generate_arrivals,
    run,
    summarize,
    summarize_runs,
)
from offloadsim.scenario import partial_coverage, total_coverage

LEG_FIELDS = (
    "t_up_access",
    "t_up_cn",
    "t_up_internet",
    "t_gnb_to_vue",
    "t_queue",
    "t_elab",
    "t_vue_to_gnb",
    "t_down_internet",
    "t_down_cn",
    "t_down_access",
)


def test_replication_seed_set():
    assert REPLICATION_SEEDS == (0, 1, 2, 3, 4, 6, 7, 8, 9)
    assert len(REPLICATION_SEEDS) == 9


def test_kmh_conversion():
    assert 36.0 * KMH == pytest.approx(10.0, rel=1e-15)


def test_arrivals_are_periodic_per_user_with_seeded_phase():
    cfg = RunConfig(n_users=3, request_rate=5.0, duration=2.0, seed=11)
    rng = random.Random(11)
    arrivals = generate_arrivals(cfg, rng)
    # phases replay from the same seed, one draw per user in id order
    ref = random.Random(11)
    phases = [ref.random() * 0.2 for _ in range(3)]
    expected = sorted(
        (phases[u] + k * 0.2, u) for u in range(3) for k in range(10)
    )
    assert arrivals == expected


def test_default_run_generates_4800_tasks():
    records = run(RunConfig(seed=3))
    assert len(records) == 4800
    assert [r.task_id for r in records] == list(range(4800))


def test_identical_config_and_seed_replays_identically():
    a = run(RunConfig(strategy=VCC_FIRST, duration=20.0, seed=5))
    b = run(RunConfig(strategy=VCC_FIRST, duration=20.0, seed=5))
    assert a.columns == b.columns
    c = run(RunConfig(strategy=VCC_FIRST, duration=20.0, seed=6))
    assert a.columns != c.columns


def test_lossless_single_user_edge_run_hits_the_closed_form():
    """With no contention and no loss every task's legs are the same numbers."""
    cfg = RunConfig(
        strategy=EC_FIRST, n_users=1, duration=10.0, seed=0,
        channel=lena_calibrated().lossless(),
    )
    records = run(cfg)
    assert len(records) == 50
    access = 0.0027 + 4000 * 8 / 100e6
    expected = access + 0.002 + 500.0 / 749070.0 + 0.002 + access
    for r in records:
        assert r.outcome == SUCCESS
        assert r.destination == EDGE
        assert r.t_up_access == pytest.approx(access, rel=1e-15)
        assert r.t_queue == 0.0
        assert r.t_elab == 500.0 / 749070.0
        assert r.t_up_internet == 0.0 and r.t_down_internet == 0.0
        assert r.total == pytest.approx(expected, rel=1e-12)
    assert records[0].total == pytest.approx(0.010707494359672661, rel=1e-15)


def test_lossless_single_user_vehicular_run_hits_the_closed_form():
    cfg = RunConfig(
        strategy=VCC_FIRST, n_users=1, n_vehicles=4, duration=10.0, seed=0,
        channel=lena_calibrated().lossless(),
    )
    records = run(cfg)
    assert len(records) == 50
    access = 0.0027 + 4000 * 8 / 100e6
    vue = 0.0057 + 4000 * 8 / 100e6
    expected = access + vue + 500.0 / 71120.0 + vue + access
    for r in records:
        assert r.outcome == SUCCESS
        assert r.destination == VEHICLE
        assert r.vehicle_id in (0, 1, 2, 3)
        assert r.t_elab == 500.0 / 71120.0
        assert r.t_queue == 0.0 and r.t_up_cn == 0.0
        assert r.total == pytest.approx(expected, rel=1e-12)
    assert records[0].total == pytest.approx(0.025110371203599553, rel=1e-15)


def test_totals_decompose_into_legs_exactly():
    for strategy in (EC_FIRST, VCC_FIRST):
        for r in run(RunConfig(strategy=strategy, duration=30.0, seed=1)):
            parts = sum(getattr(r, f) for f in LEG_FIELDS)
            if r.outcome == SUCCESS:
                assert abs(r.total - parts) <= 1e-12
            else:
                assert r.total == 0.0


def test_success_is_delivered_inside_the_horizon():
    cfg = RunConfig(strategy=VCC_FIRST, duration=15.0, seed=2)
    for r in run(cfg):
        assert 0.0 <= r.created_at < cfg.duration
        if r.outcome == SUCCESS:
            assert r.created_at + r.total <= cfg.duration + 1e-9


def test_destination_taxonomy_per_strategy():
    ec = run(RunConfig(strategy=EC_FIRST, duration=20.0, seed=4))
    assert {r.destination for r in ec if r.destination} <= {EDGE, CLOUD}
    assert all(r.vehicle_id is None for r in ec)
    assert all(r.edge_queue_at_decision is not None for r in ec if r.destination)
    vcc = run(RunConfig(strategy=VCC_FIRST, duration=20.0, seed=4))
    assert {r.destination for r in vcc if r.destination} <= {VEHICLE, CLOUD}
    assert all(r.edge_queue_at_decision is None for r in vcc)
    assert any(r.destination == VEHICLE for r in vcc)


def test_failed_leg_is_consistent_with_the_destination():
    cfg = RunConfig(
        strategy=VCC_FIRST, vehicle_speed=100.0 * KMH, duration=60.0, seed=7
    )
    seen = set()
    for r in run(cfg):
        if r.outcome != FAILED:
            assert r.failed_leg is None
            continue
        assert r.failed_leg in FAILURE_LEGS
        seen.add(r.failed_leg)
        if r.failed_leg == USER_TO_GNB:
            assert r.destination is None
        elif r.failed_leg in (GNB_TO_VCC, REJECTION, VCC_TO_GNB):
            assert r.destination == VEHICLE
        elif r.failed_leg == GNB_TO_USER:
            assert r.destination is not None
    assert {USER_TO_GNB, GNB_TO_VCC, VCC_TO_GNB, GNB_TO_USER} <= seen


def test_busy_vehicles_reject_follow_up_dispatches():
    """Slow vehicles stay busy past the beacon window, so rejections pile up."""
    cfg = RunConfig(
        strategy=VCC_FIRST, vehicle_capacity=71120.0 / 128.0, duration=30.0, seed=0
    )
    rejected = [r for r in run(cfg) if r.failed_leg == REJECTION]
    assert len(rejected) > 50
    assert all(r.destination == VEHICLE and r.t_elab == 0.0 for r in rejected)


def test_no_vehicles_sends_everything_to_the_cloud():
    records = run(RunConfig(strategy=VCC_FIRST, n_vehicles=0, duration=10.0, seed=0))
    dispatched = [r for r in records if r.destination is not None]
    assert dispatched and all(r.destination == CLOUD for r in dispatched)


def test_vehicle_service_intervals_never_overlap_in_a_run():
    cfg = RunConfig(strategy=VCC_FIRST, duration=60.0, seed=8)
    by_vehicle = {}
    for r in run(cfg):
        if r.destination != VEHICLE or r.t_elab == 0.0:
            continue  # rejected or lost before service started
        start = r.created_at + r.t_up_access + r.t_gnb_to_vue
        by_vehicle.setdefault(r.vehicle_id, []).append((start, start + r.t_elab))
    assert by_vehicle
    for intervals in by_vehicle.values():
        intervals.sort()
        for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
            assert s1 >= e0 - 1e-12


def test_summarize_accounting_and_share_sums():
    records = run(RunConfig(strategy=VCC_FIRST, seed=0))
    agg = summarize(records)
    assert agg.n_requests == 4800
    assert agg.n_success + agg.n_failed + agg.n_in_flight == agg.n_requests
    assert agg.n_dispatched <= agg.n_requests
    assert agg.uplink_share_pct + agg.elab_share_pct + agg.downlink_share_pct == (
        pytest.approx(100.0, abs=1e-9)
    )
    per_leg = (
        agg.fail_user_gnb_pct
        + agg.fail_gnb_vcc_pct
        + agg.fail_rejection_pct
        + agg.fail_vcc_gnb_pct
        + agg.fail_gnb_user_pct
    )
    assert per_leg == pytest.approx(agg.fail_total_pct, abs=1e-9)
    assert agg.p90 <= agg.p95 <= agg.p99
    assert 0 <= agg.vehicles_used <= 40


def test_reference_aggregates_are_pinned():
    """Regression pins for the two default seed-0 runs."""
    ec = summarize(run(RunConfig(strategy=EC_FIRST, seed=0)))
    assert (ec.n_success, ec.n_failed, ec.n_in_flight) == (4793, 7, 0)
    assert ec.mean_total == pytest.approx(0.010707494359671887, rel=1e-14)
    assert ec.vehicles_used == 0
    vcc = summarize(run(RunConfig(strategy=VCC_FIRST, seed=0)))
    assert (vcc.n_success, vcc.n_failed, vcc.n_in_flight) == (4770, 30, 0)
    assert vcc.mean_total == pytest.approx(0.025270237031691026, rel=1e-14)
    assert vcc.p99 == pytest.approx(0.025750371203599555, rel=1e-14)
    assert vcc.vehicles_used == 40


def test_summarize_handles_an_all_cloud_run():
    agg = summarize(run(RunConfig(strategy=VCC_FIRST, n_vehicles=0, duration=5.0, seed=0)))
    assert agg.cc_share_pct == 100.0
    assert math.isnan(agg.elab_share_pct)  # no vehicular successes to split


def test_summarize_gives_nan_shares_when_vehicular_successes_took_no_time():
    # used to divide by the zero total span of the vehicular successes
    lossless = ChannelConfig(*[LinkParams(0.0, None)] * 4, *[0.0] * 4)
    records = run(RunConfig(strategy="VCCFirst", n_users=1, duration=1.0, workload_mi=0.0, channel=lossless))
    assert any(r.destination == VEHICLE and r.outcome == SUCCESS for r in records)
    agg = summarize(records)
    assert math.isnan(agg.uplink_share_pct)
    assert math.isnan(agg.elab_share_pct)
    assert math.isnan(agg.downlink_share_pct)


def test_summarize_sums_left_to_right_on_every_python():
    # Python 3.12 compensates float sum(): ten totals of 0.1 gave a mean of 0.1
    # there and 0.09999999999999999 on 3.11, and the shares differed alike
    n = 10
    cells = {field: [None] * n for field in RECORD_FIELDS}
    cells.update({field: [0.0] * n for field in LEG_FIELDS})
    cells.update(task_id=range(n), destination=[VEHICLE] * n, outcome=[SUCCESS] * n, total=[0.1] * n)
    cells.update(t_up_access=[0.1] * n, t_elab=[0.3] * n)
    agg = summarize(Records([cells[field] for field in RECORD_FIELDS]))
    assert agg.mean_total == 0.09999999999999999
    up, elab = 0.0, 0.0
    for _ in range(n):
        up, elab = up + 0.1, elab + 0.3
    assert (up, elab) == (0.9999999999999999, 2.9999999999999996)
    assert agg.uplink_share_pct == 100.0 * up / (up + elab)
    assert agg.elab_share_pct == 100.0 * elab / (up + elab)


@pytest.mark.parametrize("strategy", [EC_FIRST, VCC_FIRST])
def test_a_success_whose_legs_are_all_negative_zero_totals_positive_zero(strategy):
    # the engine sums only the legs on a task's path; the sum of all ten holds
    # a +0.0 for each leg the path skips, so it is 0.0, never -0.0
    zero = ChannelConfig(*[LinkParams(-0.0, None)] * 4, *[-0.0] * 4)
    cfg = RunConfig(strategy=strategy, n_users=1, duration=1.0, workload_mi=-0.0, edge_max_queue=0, channel=zero)
    totals = [r.total for r in run(cfg) if r.outcome == SUCCESS]
    assert totals and all(math.copysign(1.0, t) == 1.0 for t in totals)


def test_each_run_config_gets_its_own_default_channel():
    # configs share the default channel, which none of them can change in place
    a, b = RunConfig(), RunConfig(seed=1)
    assert a.channel == b.channel == lena_calibrated()
    with pytest.raises(AttributeError):
        a.channel.cn_up = 1.0
    with pytest.raises(AttributeError):
        a.channel.pue_up.base_latency = 1.0
    assert a._replace(seed=2).channel is a.channel


def test_record_field_order_starts_with_identity():
    assert RECORD_FIELDS[:3] == ("task_id", "origin_user", "created_at")
    assert set(LEG_FIELDS) < set(RECORD_FIELDS)


def test_run_config_validation():
    with pytest.raises(ValueError):
        run(RunConfig(strategy="Nearest"))
    with pytest.raises(ValueError):
        run(RunConfig(duration=0.0))
    with pytest.raises(ValueError):
        run(RunConfig(request_rate=0.0))
    with pytest.raises(ValueError):
        run(RunConfig(vehicle_capacity=0.0))
    with pytest.raises(ValueError):
        run(RunConfig(beacon_period=0.0))
    with pytest.raises(ValueError, match="seed"):
        RunConfig(seed=-1).validate()
    with pytest.raises(ValueError, match="nonnegative"):
        RunConfig(task_size_bytes=-1.0).validate()
    with pytest.raises(ValueError, match="nonnegative"):
        RunConfig(result_size_bytes=-1.0).validate()


@pytest.mark.parametrize(
    "field", ["duration", "request_rate", "vehicle_speed", "registry_timeout", "workload_mi", "geometry", "channel"]
)
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_run_config_rejects_non_finite_numbers(field, value):
    # a nan loop used to give a VCCFirst run numbers, and a nan pue_up latency an IndexError
    nested = {
        "geometry": lambda: partial_coverage()._replace(loop_length_x=value),
        "channel": lambda: lena_calibrated()._replace(pue_up=LinkParams(value, 100e6)),
    }
    with pytest.raises(ValueError, match="finite"):
        run(RunConfig(**{"strategy": VCC_FIRST, "duration": 2.0, field: nested[field]() if field in nested else value}))


def test_in_flight_tasks_have_no_total():
    # a tight horizon strands the tail of the arrival stream mid-lifecycle
    cfg = RunConfig(strategy=VCC_FIRST, duration=1.003, seed=2)
    records = run(cfg)
    stranded = [r for r in records if r.outcome == IN_FLIGHT]
    assert stranded
    for r in stranded:
        assert r.total == 0.0 and r.failed_leg is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_users": 10**9},
        {"n_users": 1, "request_rate": 1.0, "duration": MAX_ARRIVALS + 0.5},
        {"n_users": 3, "request_rate": 1.0, "duration": MAX_ARRIVALS / 3},
        {"request_rate": 1e200, "duration": 1e200},
    ],
)
def test_run_config_bounds_the_arrival_count(kwargs):
    # checked by validate only: these configs must never reach generate_arrivals
    with pytest.raises(ValueError, match="arrivals"):
        RunConfig(**kwargs).validate()


def test_arrival_bound_is_users_times_ceil_of_arrivals_per_user():
    RunConfig(n_users=1, request_rate=1.0, duration=float(MAX_ARRIVALS)).validate()
    RunConfig(n_users=2, request_rate=0.5, duration=float(MAX_ARRIVALS)).validate()
    RunConfig(n_users=0, request_rate=1e200, duration=1e200).validate()  # no users, no arrivals


def _zero_latency_links(**radio):
    """Every leg takes exactly 0 s; radio legs lose with the given p_base."""
    links = ("pue_up", "pue_down", "vue_up", "vue_down")
    return ChannelConfig(*(LinkParams(0.0, None, p_base=radio.get(link, 0.0)) for link in links), *[0.0] * 4)


def test_an_arrival_goes_before_an_event_pushed_for_the_same_instant():
    """Task 0's result reaches the gNB exactly when task 1 arrives. The arrival
    is handled first, so after the phase and task 0's uplink, task 1's uplink
    takes the next draw and task 0's downlink the one after, which decides
    whether it is lost."""
    discriminating = 0
    for seed in range(20):
        # 4 req/s and 250 MI on a 1000 MIPS cloud: elaboration equals the
        # 0.25 s interval exactly, and every leg takes 0 s
        cfg = RunConfig(
            strategy=EC_FIRST, n_users=1, request_rate=4.0, duration=0.5, seed=seed,
            workload_mi=250.0, cloud_mips=1000.0, edge_max_queue=0,
            channel=_zero_latency_links(pue_down=0.5),
        )
        ref = random.Random(seed)
        phase = ref.random() * 0.25
        _, uplink_1, downlink_0 = ref.random(), ref.random(), ref.random()
        t0, t1 = generate_arrivals(cfg, random.Random(seed))
        assert t0 == (phase, 0) and t1 == (phase + 0.25, 0)
        assert phase + 0.0 + 0.0 + 0.0 + 0.25 + 0.0 + 0.0 == t1[0]  # the engine's float additions

        first, second = run(cfg)
        assert first.destination == CLOUD
        assert (first.failed_leg == GNB_TO_USER) == (downlink_0 < 0.5)
        assert (first.outcome == SUCCESS) == (downlink_0 >= 0.5)
        assert second.outcome == IN_FLIGHT
        discriminating += (uplink_1 < 0.5) != (downlink_0 < 0.5)
    assert discriminating >= 5  # the opposite order would give other outcomes


@pytest.mark.parametrize("strategy, field", [(EC_FIRST, "task_size_bytes"), (VCC_FIRST, "result_size_bytes")])
def test_a_leg_that_overflows_to_inf_leaves_its_task_in_flight(strategy, field):
    # a payload of 1e308 bytes takes inf seconds: an event at inf used to tie
    # the inf after the arrivals, so the loop took arrival n, which does not
    # exist, and died with an IndexError
    records = run(RunConfig(**{"strategy": strategy, "duration": 1.0, field: 1e308}))
    assert len(records) == 40 and {r.outcome for r in records} == {IN_FLIGHT}


@pytest.mark.parametrize("strategy", [EC_FIRST, VCC_FIRST])
def test_a_delivery_exactly_at_the_horizon_succeeds(strategy):
    """The result that lands exactly at ``duration`` counts; one ulp later it
    is in flight. Both strategies send the single task to the cloud."""
    links = lena_calibrated().lossless()
    seed = 3
    phase = random.Random(seed).random() * 1.0
    up = Link(links.pue_up, 4000.0).transfer_time(1)
    down = Link(links.pue_down, 4000.0).transfer_time(1)
    elab = elaboration_time(500.0, 2356230.0)
    at_gnb = phase + up
    result_at_gnb = at_gnb + links.cn_up + links.internet_up + elab + links.internet_down + links.cn_down
    delivered = result_at_gnb + down

    def single(duration):
        (rec,) = run(
            RunConfig(
                strategy=strategy, n_users=1, request_rate=1.0, duration=duration, seed=seed,
                n_vehicles=0, edge_max_queue=0, channel=links,
            )
        )
        assert rec.created_at == phase and rec.destination == CLOUD
        return rec

    on_time = single(delivered)
    assert on_time.outcome == SUCCESS
    assert on_time.total == oracle_engine.leg_sum(on_time) > 0.0
    late = single(math.nextafter(delivered, 0.0))
    assert late.outcome == IN_FLIGHT
    assert late.total == 0.0 and late.t_down_access == down  # the last leg started in time


def test_run_config_bounds_the_fleet():
    RunConfig(n_vehicles=MAX_VEHICLES).validate()
    with pytest.raises(ValueError, match=r"n_vehicles must be an integer in \[0, 1000000\], got 1000001"):
        RunConfig(n_vehicles=MAX_VEHICLES + 1).validate()


def test_ecfirst_runs_build_no_fleet(monkeypatch):
    def no_fleet(*args):
        raise AssertionError("ECFirst never reads the fleet")

    monkeypatch.setattr(engine, "Beacons", no_fleet)  # the fleet's beacon columns
    monkeypatch.setattr(engine, "start_offsets", no_fleet)
    cfg = RunConfig(strategy=EC_FIRST, n_vehicles=MAX_VEHICLES, duration=2.0, seed=1)
    assert len(run(cfg)) == 80
    for geometry in (total_coverage(), partial_coverage()):
        with pytest.raises(AssertionError, match="fleet"):
            run(RunConfig(strategy=VCC_FIRST, geometry=geometry, duration=2.0, seed=1))


def test_vccfirst_on_an_unbounded_cell_computes_no_position(monkeypatch):
    def no_position(*args):
        raise AssertionError("a vehicle position was computed")

    drawn = []
    monkeypatch.setattr(engine, "coverage_function", lambda *args: no_position)
    monkeypatch.setattr(engine, "start_offsets", lambda *args: drawn.append(args))
    records = run(RunConfig(strategy=VCC_FIRST, duration=10.0, seed=2))
    assert drawn == []  # and it draws no start offsets
    assert sum(r.destination == VEHICLE for r in records) > 300
    with pytest.raises(AssertionError, match="position"):
        run(RunConfig(strategy=VCC_FIRST, geometry=partial_coverage(), duration=2.0, seed=2))


# Peak bytes per vehicle (tracemalloc) of a VCCFirst run with 1 user for 1 s
# and 100,000 vehicles when the fleet was one object per vehicle, by preset:
# half of these bounds the fleet as columns.
_OBJECT_FLEET_BYTES = {"total": 387, "partial": 445}


@pytest.mark.parametrize("preset", ["total", "partial"])
def test_a_fleet_as_columns_peaks_at_half_the_bytes_of_one_object_per_vehicle(preset):
    geometry = total_coverage() if preset == "total" else partial_coverage()
    cfg = RunConfig(strategy=VCC_FIRST, n_users=1, duration=1.0, n_vehicles=20_000, geometry=geometry)
    gc.collect()
    tracemalloc.start()
    try:
        records = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(r.destination == VEHICLE for r in records) == 5  # every task found a vehicle
    assert peak / cfg.n_vehicles <= _OBJECT_FLEET_BYTES[preset] / 2


def test_run_config_bounds_the_beacons_of_a_vcc_fleet():
    # a beacon period below the float spacing of the horizon used to hang the
    # run: x + period == x, so the beacon replay never got past x
    for period in (1e-300, 1e-10):
        with pytest.raises(ValueError, match="beacons"):
            RunConfig(strategy=VCC_FIRST, n_vehicles=1, duration=1.0, beacon_period=period).validate()
    RunConfig(strategy=VCC_FIRST, n_vehicles=10, duration=1.0, beacon_period=10 / MAX_BEACONS).validate()
    with pytest.raises(ValueError, match="beacons"):
        RunConfig(strategy=VCC_FIRST, n_vehicles=11, duration=1.0, beacon_period=10 / MAX_BEACONS).validate()
    # ECFirst runs and fleets of none replay no beacons
    RunConfig(strategy=EC_FIRST, duration=1.0, beacon_period=1e-300).validate()
    RunConfig(strategy=VCC_FIRST, n_vehicles=0, duration=1.0, beacon_period=1e-300).validate()


def test_run_config_rejects_fleet_positions_that_overflow_where_coverage_reads_them():
    # both used to run with every coverage window nan, so coverage froze at the
    # first position past the float range
    fast = dict(strategy=VCC_FIRST, geometry=partial_coverage(), vehicle_speed=1e308, duration=3.0)
    endless = dict(strategy=VCC_FIRST, geometry=partial_coverage()._replace(loop_length_x=1e308))
    for cfg in (fast, endless):
        with pytest.raises(PositionOverflow, match="vehicle positions overflow"):
            RunConfig(**cfg).validate()
        # a run that reads no position keeps running: no fleet, an unbounded cell, ECFirst
        RunConfig(**dict(cfg, n_vehicles=0)).validate()
        RunConfig(**dict(cfg, geometry=total_coverage()._replace(loop_length_x=cfg["geometry"].loop_length_x))).validate()
        RunConfig(**dict(cfg, strategy=EC_FIRST)).validate()
    RunConfig(**dict(fast, vehicle_speed=1e300)).validate()  # 3e300 m is still a float


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers need os.fork")


def _mixed_configs():
    return [
        RunConfig(strategy=strategy, geometry=preset(), n_users=3, n_vehicles=30, duration=3.0, seed=seed)
        for strategy in (EC_FIRST, VCC_FIRST)
        for preset in (total_coverage, partial_coverage)
        for seed in (0, 5)
    ]


@needs_fork
@pytest.mark.parametrize("cpus", [{0, 1}, {0, 1, 2}])
def test_summarize_runs_equals_the_serial_list(monkeypatch, cpus):
    cfgs = _mixed_configs()
    serial = [summarize(run(cfg)) for cfg in cfgs]
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", counting_fork)
    parallel = summarize_runs(cfgs)
    assert len(forks) == len(cpus) - 1
    # repr: nan shares compare unequal, and -0.0 must stay -0.0
    assert [repr(agg) for agg in parallel] == [repr(agg) for agg in serial]
    assert summarize_runs([]) == []


def test_summarize_runs_on_one_cpu_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    cfgs = _mixed_configs()[:5]
    assert [repr(agg) for agg in summarize_runs(cfgs)] == [repr(summarize(run(cfg))) for cfg in cfgs]


def test_summarize_runs_validates_every_config_before_forking(monkeypatch):
    def no_fork():
        raise AssertionError("forked before validating")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    cfgs = [RunConfig(duration=1.0), RunConfig(duration=1.0, n_users=-1)]
    with pytest.raises(ValueError, match="n_users must be a nonnegative integer, got -1"):
        summarize_runs(cfgs)


@needs_fork
def test_summarize_runs_reaps_its_workers_when_its_own_share_fails(monkeypatch):
    real_run = engine.run

    def failing_run(cfg):
        if cfg.seed == 0:  # share 0 runs in the calling process
            raise ArithmeticError("planted failure")
        return real_run(cfg)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(engine, "run", failing_run)
    with pytest.raises(ArithmeticError, match="planted"):
        summarize_runs([RunConfig(duration=1.0, seed=seed) for seed in (0, 1, 0, 1)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
