"""Differential test: ``engine.run`` against the eager reference engine.

``oracle_engine.run`` schedules every arrival, beacon and delivery as its own
event. The fast engine must return the same records, compared field by field
through ``repr`` so that -0.0, nan and int/float differences show. The configs
include exact ties: with zero-latency lossless links, no workload and a request
interval equal to the beacon period, a vehicle's beacons fall on the very
instants its user's next task is dispatched.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_engine
from conftest import examples
from offloadsim.channel import ChannelConfig, LinkClass, LinkParams, lena_calibrated
from offloadsim.engine import KMH, RECORD_FIELDS, RunConfig, run
from offloadsim.scenario import partial_coverage, total_coverage


def _rows(records):
    return [tuple(repr(getattr(r, f)) for f in RECORD_FIELDS) for r in records]


@settings(max_examples=examples(120), deadline=None, derandomize=True)
@given(
    strategy=st.sampled_from(("ECFirst", "VCCFirst")),
    partial=st.booleans(),
    seed=st.integers(0, 10_000),
    users=st.integers(1, 6),
    rate=st.sampled_from((2.0, 4.0, 5.0, 10.0, 20.0)),
    n_vehicles=st.integers(0, 20),
    speed_kmh=st.sampled_from((0.0, 13.1, 50.0, 150.0)),
    period=st.sampled_from(("interval", 0.05, 0.1, 0.25, 0.7)),
    timeout=st.sampled_from((0.04, 0.1, 0.25, 0.5)),
    workload_mi=st.sampled_from((0.0, 500.0, 5000.0)),
    instant_links=st.booleans(),
    edge_max_queue=st.sampled_from((0, 1, 3, 100)),
)
def test_engine_matches_the_eager_oracle(
    strategy, partial, seed, users, rate, n_vehicles, speed_kmh, period, timeout, workload_mi, instant_links,
    edge_max_queue,
):
    if instant_links:
        channel = ChannelConfig({link: LinkParams(0.0) for link in LinkClass})
    else:
        channel = lena_calibrated()
    cfg = RunConfig(
        strategy=strategy,
        n_users=users,
        request_rate=rate,
        duration=3.0,
        seed=seed,
        workload_mi=workload_mi,
        geometry=partial_coverage() if partial else total_coverage(),
        n_vehicles=n_vehicles,
        vehicle_speed=speed_kmh * KMH,
        channel=channel,
        edge_mips=749070.0 / 50,
        edge_max_queue=edge_max_queue,
        beacon_period=1.0 / rate if period == "interval" else period,
        registry_timeout=timeout,
    )
    assert _rows(run(cfg)) == _rows(oracle_engine.run(cfg))


@pytest.mark.parametrize("seed", (0, 1, 2, 4, 7, 9, 21, 23, 25, 26))
def test_a_task_reaching_a_vehicle_as_its_previous_task_ends_matches_the_oracle(seed):
    """A 0.25 s forward leg and a 0.05 s elaboration equal to the request
    interval: tasks reach the vehicle at the instant its previous task ends, and
    the arrival sorts before the completion. The completion must not leave the
    vehicle, now serving again, beaconing. At the seeds other than 0 a task also
    reaches the gNB at the instant a vehicle's task ends, and the vehicle's
    beacon must count before that dispatch."""
    links = {link: LinkParams(0.0) for link in LinkClass}
    links[LinkClass.VUE_DOWN] = LinkParams(0.25)
    cfg = RunConfig(
        strategy="VCCFirst",
        n_users=1,
        n_vehicles=1,
        request_rate=20.0,
        duration=3.0,
        workload_mi=3556.0,
        beacon_period=0.01,
        channel=ChannelConfig(links),
        seed=seed,
    )
    assert _rows(run(cfg)) == _rows(oracle_engine.run(cfg))


def test_a_beacon_counts_before_a_dispatch_pushed_earlier_at_its_time():
    """No workload and a 1 Mb/s shared user uplink, so uploads end on 32 ms
    steps that can equal a beacon time exactly. A task whose arrival at the gNB
    was pushed before the beacon at that instant must still see the beacon."""
    links = {link: LinkParams(0.0) for link in LinkClass}
    links[LinkClass.PUE_UP] = LinkParams(0.0, rate=1e6)
    cfg = RunConfig(
        strategy="VCCFirst",
        n_users=2,
        request_rate=20.0,
        duration=3.0,
        seed=6981,
        workload_mi=0.0,
        geometry=total_coverage(),
        n_vehicles=16,
        vehicle_speed=13.1 * KMH,
        channel=ChannelConfig(links),
        beacon_period=0.1,
        registry_timeout=0.1,
    )
    assert _rows(run(cfg)) == _rows(oracle_engine.run(cfg))


@pytest.mark.parametrize("strategy, seed", [("ECFirst", 0), ("ECFirst", 3), ("VCCFirst", 0), ("VCCFirst", 5)])
def test_records_read_as_the_oracle_records(strategy, seed):
    """The column store reads back, item by item, as the oracle's objects."""
    cfg = RunConfig(strategy=strategy, n_users=4, duration=4.0, seed=seed, geometry=partial_coverage())
    records, want = run(cfg), oracle_engine.run(cfg)
    assert len(records) == len(want) > 0
    assert records[0] == want[0] and records[-1] == want[-1] and records[len(want) // 2] == want[len(want) // 2]
    assert [records[i] for i in range(len(want))] == list(records) == want
    assert list(records[1:-1]) == want[1:-1]
    with pytest.raises(IndexError):
        records[len(want)]
