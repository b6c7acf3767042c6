"""Elaboration times and tier admission: cloud, bounded-FIFO edge, vehicles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from oracle_engine import Vehicle, vehicle_offer, waiting_count
from offloadsim.channel import ChannelConfig, lena_calibrated
from offloadsim.compute import EdgeState, elaboration_time
from offloadsim.engine import RunConfig, run


def test_elaboration_time_is_workload_over_capacity():
    assert elaboration_time(500.0, 71120.0) == 500.0 / 71120.0
    assert elaboration_time(500.0, 2356230.0) == 500.0 / 2356230.0
    assert elaboration_time(500.0, 749070.0) == 500.0 / 749070.0
    assert elaboration_time(0.0, 1000.0) == 0.0


def test_elaboration_time_validation():
    # elaboration_time trusts its inputs; RunConfig checks them when built
    for field, bad in [("workload_mi", -1.0), ("cloud_mips", 0.0), ("vehicle_capacity", 0.0)]:
        with pytest.raises(ValueError, match=f"{field} must be"):
            run(RunConfig(**{field: bad}))


def test_cloud_wired_roundtrip():
    # 2 ms core + 35 ms Internet each way; a wired leg is one latency, whatever the payload size
    channel = lena_calibrated()
    roundtrip = sum(getattr(channel, link) for link in ChannelConfig.KINDS)
    assert roundtrip == pytest.approx(0.074, rel=1e-12)


_S = 100.0 / 1000.0  # 100 MI on 1000 MIPS: 0.1 s of service


def _edge(max_queue=100):
    return EdgeState(max_queue)


def test_edge_serves_fifo_with_cumulative_waits():
    edge = _edge()
    _, first, first_wait = edge.offer(_S, 0.0, 0.0)
    _, second, second_wait = edge.offer(_S, 0.0, 0.0)
    _, third, third_wait = edge.offer(_S, 0.0, 0.0)
    assert (first_wait, second_wait, third_wait) == (0.0, _S, 2 * _S)
    assert first == _S
    assert second == 2 * _S
    assert third == 3 * _S


def test_edge_occupancy_transitions():
    """One task in service and one waiting, then the second in service, then none."""
    edge = _edge()
    edge.offer(_S, 0.0, 0.0)
    edge.offer(_S, 0.0, 0.0)
    assert waiting_count(edge, 0.0) == 1
    assert waiting_count(edge, 0.05) == 1
    assert waiting_count(edge, 0.15) == 0
    assert waiting_count(edge, 0.25) == 0
    assert edge.offer(_S, 0.25, 0.25) == (0, 0.35, 0.0)  # the line is empty again


def test_edge_overflow_rejects_beyond_queue_bound():
    edge = _edge(max_queue=2)
    assert edge.offer(_S, 0.0, 0.0)[1] is not None  # in service
    assert edge.offer(_S, 0.0, 0.0)[1] is not None  # waiting 1
    assert edge.offer(_S, 0.0, 0.0)[1] is not None  # waiting 2
    assert waiting_count(edge, 0.0) == 2
    assert edge.offer(_S, 0.0, 0.0) == (2, None, None)
    # once the head finishes there is room again
    assert edge.offer(_S, 0.1, 0.1)[1] is not None


def test_edge_offer_reports_the_waiting_count_it_decided_on():
    """The ECFirst rule: the edge until its waiting line is full, then the cloud."""
    edge = _edge(max_queue=2)
    assert edge.offer(_S, 0.0, 0.0)[0] == 0  # straight into service
    assert edge.offer(_S, 0.0, 0.0)[0] == 0
    assert edge.offer(_S, 0.0, 0.0)[0] == 1  # 1 in service + 2 waiting: full
    assert edge.offer(_S, 0.0, 0.0) == (2, None, None)
    # service drains one slot and the edge is attractive again; it starts at 0.3
    waiting, completion, queue_wait = edge.offer(_S, 0.1, 0.1)
    assert waiting == 1 and queue_wait == pytest.approx(0.3 - 0.1)
    assert completion == pytest.approx(0.3 + 0.1)


def test_edge_respects_payload_arrival_time():
    edge = _edge()
    _, a, a_wait = edge.offer(_S, 0.0, 0.002)
    assert a_wait == 0.0  # service starts when the payload arrives
    assert a == 0.002 + 0.1
    # a back-to-back offer waits for the first to finish, so it starts at a
    _, b, b_wait = edge.offer(_S, 0.0, 0.002)
    assert b == a + 0.1
    assert b_wait == a - 0.002


def test_edge_idle_gap_resets_waiting():
    edge = _edge()
    edge.offer(_S, 0.0, 0.0)
    _, a, a_wait = edge.offer(_S, 5.0, 5.0)
    assert a == 5.0 + 0.1  # service starts at the offer
    assert a_wait == 0.0


_STEPS = st.sampled_from((0.0, 0.0625)) | st.floats(0.0, 1.0)
# 0, dyadic, any, or so long that the second queued completion overflows to inf
_SERVICES = st.sampled_from((0.0, 1e308)) | st.integers(1, 64).map(lambda k: k / 16) | st.floats(0.0, 1.0)


@settings(max_examples=examples(200), deadline=None, derandomize=True)
@given(
    max_queue=st.integers(0, 4),
    c=st.sampled_from((0.0, 0.002, 0.125)) | st.floats(0.0, 1.0),
    offers=st.lists(st.tuples(_STEPS, _SERVICES), max_size=40),
)
def test_admitted_completions_are_nondecreasing_in_admission_order(max_queue, c, offers):
    """The order ``engine.run`` takes edge results in without sorting them:
    offers at nondecreasing times whose payloads arrive a constant ``c`` later
    complete in admission order, and so do their results ``c`` after that."""
    edge = _edge(max_queue)
    now = 0.0
    done = []
    for step, service in offers:
        now += step
        completion = edge.offer(service, now, now + c)[1]
        if completion is not None:
            done.append(completion)
    assert done == sorted(done)
    assert [x + c for x in done] == sorted(x + c for x in done)


def test_edge_rejects_a_capacity_that_is_not_positive():
    # EdgeState takes a service time; RunConfig checks the capacity it comes from when built
    with pytest.raises(ValueError, match="edge_mips must be positive, got 0.0"):
        run(RunConfig(edge_mips=0.0))


def test_vehicle_serves_one_task_at_a_time():
    v = Vehicle(0, speed=3.0, capacity=71120.0)
    done = vehicle_offer(v, 500.0, now=1.0)
    assert done == 1.0 + 500.0 / 71120.0
    assert v.busy_until == done
    # busy: a second offer is refused and leaves the state alone
    assert vehicle_offer(v, 500.0, now=1.001) is None
    assert v.busy_until == done
    # free exactly at completion
    assert vehicle_offer(v, 500.0, now=done) == done + 500.0 / 71120.0


def test_vehicle_accepted_intervals_never_overlap():
    """Random offer storm: accepted service intervals are disjoint."""
    import random

    rng = random.Random(99)
    v = Vehicle(0, speed=3.0, capacity=500.0)
    t = 0.0
    intervals = []
    for _ in range(100_000):
        t += rng.expovariate(2.0)
        done = vehicle_offer(v, rng.uniform(10.0, 2000.0), now=t)
        if done is not None:
            intervals.append((t, done))
    assert len(intervals) > 1000
    for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
        assert s1 >= e0
