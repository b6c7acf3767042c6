"""Acceptance suite: the package's numbered release criteria.

Each ``test_criterion_NN_*`` function checks one numbered criterion (or one
clause of it); the session summary prints one PASS/FAIL line per criterion.
Pinned numbers come from independent hand or arbitrary-precision arithmetic,
from published reference tables, or from the frozen calibration windows.
"""

import csv
import math
import random
import time
from fractions import Fraction

import pytest

from offloadsim.cli import main
from offloadsim.controller import (
    CLOUD,
    EC_FIRST,
    EDGE,
    Registry,
    VCC_FIRST,
    VEHICLE,
)
from offloadsim.costmodel import BONUS_IN_EC_REQUESTS, CostParams, capex_ec, cost_row, savings, vcc_bonus
from offloadsim.engine import (
    FAILED,
    GNB_TO_VCC,
    KMH,
    REPLICATION_SEEDS,
    RunConfig,
    SUCCESS,
    run,
    summarize,
    summarize_runs,
)
from offloadsim.scenario import coverage_function, partial_coverage, start_offsets
from offloadsim.stats import anova_oneway, percentile, reg_inc_beta
from oracle_engine import Vehicle, vehicle_offer
from conftest import listed

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


def _nine_seed_mean(values):
    assert len(values) == len(REPLICATION_SEEDS)
    return sum(values) / len(values)


def _nine_seed_means(cfgs, field):
    """The nine-seed mean of one Aggregates field per point, for point-major cfgs."""
    values = [getattr(agg, field) for agg in summarize_runs(cfgs)]
    k = len(REPLICATION_SEEDS)
    return [_nine_seed_mean(values[i : i + k]) for i in range(0, len(values), k)]


# --- criterion 1: cost breakdown tables, exact and fast ---------------------

FULL_VOLUME_ROWS = {
    0.0: (0.35, 0.69, 98.96, 100.00),
    1e-6: (0.33, 0.65, 99.01, 100.00),
    2e-6: (0.32, 0.63, 99.05, 100.00),
}
ONE_PERCENT_ROWS = {
    0.0: (17.33, 33.88, 48.79, 100.00),
    1e-6: (16.92, 33.07, 50.01, 100.00),
    2e-6: (16.52, 32.30, 51.18, 100.00),
}


def test_criterion_01_cost_tables_reproduce_reference_percentages(tmp_path):
    out = tmp_path / "cost.csv"
    t0 = time.perf_counter()
    assert main(["cost", "-o", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        expected = (
            FULL_VOLUME_ROWS if float(row["request_scale"]) == 1.0 else ONE_PERCENT_ROWS
        )[float(row["beta"])]
        got = (
            float(row["capex_ec_pct"]),
            float(row["ec_main_pct"]),
            float(row["ec_req_pct"]),
            float(row["vcc_req_pct"]),
        )
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=0.01)
    assert elapsed < 1.0


# --- criterion 2: break-even bonus against exact rational arithmetic --------


def test_criterion_02_break_even_bonus_value():
    exact = (Fraction(700) + Fraction("1368.46")) / (
        Fraction(5) * 100 * 19_710_000
    )
    got = vcc_bonus(CostParams())
    assert got == pytest.approx(float(exact), rel=1e-14)
    assert abs(got - 2.099e-7) < 1e-10


# --- criterion 3: savings structure and total ordering ----------------------


def test_criterion_03_savings_cancel_and_totals_order():
    for years in (1.0, 3.0, 5.0):
        p = CostParams(years=years)
        # request terms cancel exactly at zero bonus and equal fees
        assert savings(p) == capex_ec(p) + p.c_ec_main * years
    for years in (1.0, 3.0, 5.0):
        row = cost_row(CostParams(years=years), 1.0, BONUS_IN_EC_REQUESTS)
        assert row.ec_total_usd > row.vcc_total_usd


# --- criterion 4: cloud latency floor ----------------------------------------


def test_criterion_04_cloud_bound_tasks_never_beat_the_wired_floor():
    records = run(RunConfig(strategy=VCC_FIRST, n_vehicles=1, seed=0))
    assert len(records) == 4800
    cloud_ok = [r for r in records if r.destination == CLOUD and r.outcome == SUCCESS]
    assert len(cloud_ok) > 100
    for r in cloud_ok:
        assert r.total >= 0.074
    # no cloud task ever lands in the 16 ms latency class
    assert not any(r.total <= 0.016 for r in cloud_ok)


# --- criterion 5: calibrated aggregate reproduction --------------------------


def test_criterion_05_reference_means_and_runtime(default_runs):
    assert default_runs.elapsed < 30.0
    ec = [summarize(r) for r in default_runs.by_strategy(EC_FIRST)]
    vcc = [summarize(r) for r in default_runs.by_strategy(VCC_FIRST)]
    ec_mean_ms = _nine_seed_mean([a.mean_total for a in ec]) * 1e3
    vcc_mean_ms = _nine_seed_mean([a.mean_total for a in vcc]) * 1e3
    assert 10.0 - 3.0 <= ec_mean_ms <= 10.0 + 3.0
    assert 30.0 - 6.0 <= vcc_mean_ms <= 30.0 + 6.0
    assert _nine_seed_mean([a.cc_share_pct for a in ec]) < 1.0
    assert _nine_seed_mean([a.cc_share_pct for a in vcc]) < 1.0


# --- criterion 6: component decomposition ------------------------------------


def test_criterion_06_success_totals_decompose_into_legs(default_runs):
    for records in default_runs.records.values():
        for r in records:
            if r.outcome == SUCCESS:
                parts = sum(getattr(r, f) for f in LEG_FIELDS)
                assert abs(r.total - parts) <= 1e-12


def test_criterion_06_vehicular_component_shares(default_runs):
    aggs = [summarize(r) for r in default_runs.by_strategy(VCC_FIRST)]
    for a in aggs:
        share_sum = a.uplink_share_pct + a.elab_share_pct + a.downlink_share_pct
        assert share_sum == pytest.approx(100.0, abs=0.01)
    elab = _nine_seed_mean([a.elab_share_pct for a in aggs])
    assert 20.0 <= elab <= 30.0


# --- criterion 7: strategy properties -----------------------------------------


def test_criterion_07_no_vehicles_means_all_cloud():
    records = run(RunConfig(strategy=VCC_FIRST, n_vehicles=0, seed=0))
    dispatched = [r for r in records if r.destination is not None]
    assert dispatched
    assert all(r.destination == CLOUD for r in dispatched)
    assert summarize(records).cc_share_pct == 100.0


def test_criterion_07_edge_first_overflows_only_when_full(default_runs):
    # heavy tasks fill the waiting line and force overflow onto the cloud
    heavy = run(RunConfig(strategy=EC_FIRST, workload_mi=50_000.0, duration=30.0, seed=0))
    checked = list(heavy)
    for records in default_runs.by_strategy(EC_FIRST):
        checked.extend(records)
    cloud_seen = False
    for r in checked:
        if r.destination == CLOUD:
            cloud_seen = True
            assert r.edge_queue_at_decision >= 100
        elif r.destination == EDGE:
            assert r.edge_queue_at_decision < 100
    assert cloud_seen


def test_criterion_07_vehicles_never_serve_overlapping_tasks(default_runs):
    # unit level: 1e5 random offers to one vehicle accept only disjoint intervals
    rng = random.Random(424242)
    v = Vehicle(0, speed=3.0, capacity=500.0)
    t = 0.0
    accepted = []
    for _ in range(100_000):
        t += rng.expovariate(2.0)
        done = vehicle_offer(v, rng.uniform(10.0, 2000.0), now=t)
        if done is not None:
            accepted.append((t, done))
    assert len(accepted) > 1000
    for (_, e0), (s1, _) in zip(accepted, accepted[1:]):
        assert s1 >= e0
    # run level: per-vehicle service intervals reconstructed from the records
    for records in default_runs.by_strategy(VCC_FIRST):
        by_vehicle = {}
        for r in records:
            if r.destination == VEHICLE and r.t_elab > 0.0:
                start = r.created_at + r.t_up_access + r.t_gnb_to_vue
                by_vehicle.setdefault(r.vehicle_id, []).append((start, start + r.t_elab))
        for intervals in by_vehicle.values():
            intervals.sort()
            for (_, e0), (s1, _) in zip(intervals, intervals[1:]):
                assert s1 >= e0 - 1e-12


# --- criterion 8: registry state machine ---------------------------------------


def test_criterion_08_registry_trace_properties():
    """1e4 random beacon/select/advance traces against a shadow model."""
    rng = random.Random(80808)
    for _ in range(10_000):
        timeout = rng.choice((0.2, 0.5, 1.0))
        reg = Registry(timeout=timeout, n_vehicles=6)
        now = 0.0
        awaiting_beacon = set()  # assigned and not heard from since
        for _ in range(12):
            op = rng.random()
            if op < 0.5:
                vid = rng.randrange(6)
                reg.on_beacon(vid, now)
                awaiting_beacon.discard(vid)
            elif op < 0.8:
                vid = reg.pick(rng, now)
                if vid is not None:
                    # removal on assignment
                    assert vid not in listed(reg)
                    awaiting_beacon.add(vid)
                # staleness bound: nothing older than the timeout survives
                for last in listed(reg).values():
                    assert last >= now - timeout
            else:
                now += rng.uniform(0.0, timeout)
            # an assigned vehicle reappears only after a fresh beacon
            assert not (awaiting_beacon & set(listed(reg)))


def test_criterion_08_out_of_coverage_dispatches_fail_on_the_forward_leg():
    """Stale registry entries dispatched past the cell edge fail GNB-to-vehicle."""
    total_stale = 0
    for seed in REPLICATION_SEEDS:
        cfg = RunConfig(
            strategy=VCC_FIRST,
            geometry=partial_coverage(),
            vehicle_speed=100.0 * KMH,
            seed=seed,
        )
        records = run(cfg)
        offsets = start_offsets(cfg.geometry, cfg.n_vehicles, cfg.seed)
        coverage = coverage_function(cfg.geometry, offsets, cfg.vehicle_speed)
        for r in records:
            if r.vehicle_id is None:
                continue
            decided_at = r.created_at + r.t_up_access
            if not coverage(r.vehicle_id, decided_at)[0]:
                total_stale += 1
                assert r.outcome == FAILED and r.failed_leg == GNB_TO_VCC
    assert total_stale > 50


# --- criterion 9: trend reproductions (nine-seed means) -------------------------

FLEET_SIZES = (1, 2, 4, 10, 20, 40, 60)
CAPACITY_FRACTIONS = (1 / 128, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 2, 1, 2, 3)
SPEEDS_KMH = (13.1, 50.0, 100.0)


def _capacity_curve():
    return _nine_seed_means(
        [
            RunConfig(strategy=VCC_FIRST, vehicle_capacity=71120.0 * frac, seed=seed)
            for frac in CAPACITY_FRACTIONS
            for seed in REPLICATION_SEEDS
        ],
        "mean_total",
    )


@pytest.fixture(scope="module")
def capacity_curve():
    return _capacity_curve()


def test_criterion_09_cloud_share_fades_with_fleet_size(default_runs):
    simulated = iter(
        _nine_seed_means(
            [
                RunConfig(strategy=VCC_FIRST, n_vehicles=n, seed=seed)
                for n in FLEET_SIZES
                if n != 40
                for seed in REPLICATION_SEEDS
            ],
            "cc_share_pct",
        )
    )
    means = []
    for n in FLEET_SIZES:
        if n == 40:  # the default fleet: reuse the reference runs
            runs = default_runs.by_strategy(VCC_FIRST)
            means.append(_nine_seed_mean([summarize(records).cc_share_pct for records in runs]))
        else:
            means.append(next(simulated))
    for earlier, later in zip(means, means[1:]):
        assert later <= earlier + 1e-9
    for n, share in zip(FLEET_SIZES, means):
        if n >= 10:
            assert share < 2.0


def test_criterion_09_latency_drops_then_flattens_with_capacity(capacity_curve):
    means = capacity_curve
    for earlier, later in zip(means, means[1:]):
        assert later < earlier
    full_descent = means[0] - means[-1]
    top_step = means[CAPACITY_FRACTIONS.index(1)] - means[-1]
    # the 1x -> 3x stretch contributes almost nothing to the overall drop
    assert top_step < 0.05 * full_descent
    assert top_step < 0.005  # under 5 ms in absolute terms


@pytest.mark.xfail(
    strict=True,
    reason=(
        "tripling capacity removes two thirds of the elaboration term, and the "
        "calibrated elaboration share is 20-30% of the mean, so the relative "
        "improvement from 1x to 3x lands near 19%, not under 5%"
    ),
)
def test_criterion_09_capacity_gain_from_1x_to_3x_below_five_percent(capacity_curve):
    means = capacity_curve
    baseline = means[CAPACITY_FRACTIONS.index(1)]
    improvement = (baseline - means[-1]) / baseline
    assert improvement < 0.05


def test_criterion_09_failure_rate_grows_with_speed():
    means = _nine_seed_means(
        [
            RunConfig(strategy=VCC_FIRST, vehicle_speed=kmh * KMH, seed=seed)
            for kmh in SPEEDS_KMH
            for seed in REPLICATION_SEEDS
        ],
        "fail_total_pct",
    )
    for earlier, later in zip(means, means[1:]):
        assert later >= earlier
    assert means[0] < 4.0


# --- criterion 10: statistics oracles -------------------------------------------


def test_criterion_10_percentile_matches_brute_force():
    rng = random.Random(777)
    for _ in range(1000):
        n = rng.randrange(1, 51)
        values = [
            rng.choice([rng.random() * 100.0, float(rng.randrange(10))])
            for _ in range(n)
        ]
        q = rng.random() * 99.999 + 0.001
        rank = min(max(math.ceil(q * n / 100.0), 1), n)
        assert percentile(values, q) == sorted(values)[rank - 1]


def test_criterion_10_anova_hand_example():
    r = anova_oneway([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert (r.sum_sq_factor, r.df_factor, r.sum_sq_resid, r.df_resid) == (
        13.5,
        1,
        4.0,
        4,
    )
    assert r.f_stat == 13.5


def test_criterion_10_null_p_values_are_uniform():
    rng = random.Random(12345)
    p_values = []
    for _ in range(1000):
        groups = [[rng.gauss(0.0, 1.0) for _ in range(8)] for _ in range(3)]
        p_values.append(anova_oneway(groups).p_value)
    p_values.sort()
    n = len(p_values)
    ks = max(max((i + 1) / n - p, p - i / n) for i, p in enumerate(p_values))
    assert ks < 1.6276 / math.sqrt(n)  # 1% critical value


def test_criterion_10_incomplete_beta_integer_closed_form():
    for a in range(1, 7):
        for b in range(1, 7):
            n = a + b - 1
            for x in [i / 20.0 for i in range(1, 20)]:
                closed = sum(
                    math.comb(n, j) * x**j * (1.0 - x) ** (n - j)
                    for j in range(a, n + 1)
                )
                assert abs(reg_inc_beta(float(a), float(b), x) - closed) <= 1e-10


# --- criterion 11: byte-identical replays ----------------------------------------


def test_criterion_11_repeated_runs_and_sweeps_are_byte_identical(tmp_path):
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        "strategy = VCCFirst\n"
        "duration = 10\n"
        "seed = 4\n"
        "scenario.preset = partial_coverage\n"
        "vehicles.speed_kmh = 50\n"
    )
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "strategy = VCCFirst\n"
        "duration = 5\n"
        "sweep.axis = speed\n"
        "sweep.values = 13.1, 100\n"
        "sweep.replications = 2\n"
    )
    paths = {}
    for tag in ("first", "second"):
        agg = tmp_path / f"agg_{tag}.csv"
        rec = tmp_path / f"rec_{tag}.csv"
        swp = tmp_path / f"swp_{tag}.csv"
        assert main(["run", str(run_cfg), "-o", str(agg), "--records", str(rec)]) == 0
        assert main(["sweep", str(sweep_cfg), "-o", str(swp)]) == 0
        paths[tag] = (agg, rec, swp)
    for a, b in zip(paths["first"], paths["second"]):
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()  # non-empty outputs
