"""Elaboration times and tier admission: cloud, bounded-FIFO edge, vehicles."""

import pytest

from offloadsim.channel import WIRED_LINKS, Link, lena_calibrated
from offloadsim.compute import EdgeState, elaboration_time, vehicle_offer
from offloadsim.scenario import CLOCKWISE, VehicleState


def test_elaboration_time_is_workload_over_capacity():
    assert elaboration_time(500.0, 71120.0) == 500.0 / 71120.0
    assert elaboration_time(500.0, 2356230.0) == 500.0 / 2356230.0
    assert elaboration_time(500.0, 749070.0) == 500.0 / 749070.0
    assert elaboration_time(0.0, 1000.0) == 0.0


def test_elaboration_time_validation():
    with pytest.raises(ValueError):
        elaboration_time(-1.0, 1000.0)
    with pytest.raises(ValueError):
        elaboration_time(1.0, 0.0)


def test_cloud_wired_roundtrip():
    # 2 ms core + 35 ms Internet each way, whatever the payload size
    links = lena_calibrated().links
    roundtrip = sum(Link(links[link], size_bytes=1e6).transfer_time(1) for link in WIRED_LINKS)
    assert roundtrip == pytest.approx(0.074, rel=1e-12)


def _edge(capacity=1000.0, max_queue=100):
    return EdgeState(capacity=capacity, max_queue=max_queue)


def test_edge_serves_fifo_with_cumulative_waits():
    edge = _edge(capacity=1000.0)  # 100 MI -> 0.1 s service
    e = 100.0 / 1000.0
    _, first, first_wait = edge.offer(100.0, now=0.0)
    _, second, second_wait = edge.offer(100.0, now=0.0)
    _, third, third_wait = edge.offer(100.0, now=0.0)
    assert (first_wait, second_wait, third_wait) == (0.0, e, 2 * e)
    assert first == e
    assert second == 2 * e
    assert third == 3 * e


def test_edge_occupancy_transitions():
    """One task in service and one waiting, then the second in service, then none."""
    edge = _edge(capacity=1000.0)
    edge.offer(100.0, now=0.0)
    edge.offer(100.0, now=0.0)
    assert edge.waiting_count(0.0) == 1
    assert edge.waiting_count(0.05) == 1
    assert edge.waiting_count(0.15) == 0
    assert edge.waiting_count(0.25) == 0
    assert edge.offer(100.0, now=0.25) == (0, 0.35, 0.0)  # the line is empty again


def test_edge_overflow_rejects_beyond_queue_bound():
    edge = _edge(capacity=1000.0, max_queue=2)
    assert edge.offer(100.0, now=0.0)[1] is not None  # in service
    assert edge.offer(100.0, now=0.0)[1] is not None  # waiting 1
    assert edge.offer(100.0, now=0.0)[1] is not None  # waiting 2
    assert edge.waiting_count(0.0) == 2
    assert edge.offer(100.0, now=0.0) == (2, None, None)
    # once the head finishes there is room again
    assert edge.offer(100.0, now=0.1)[1] is not None


def test_edge_offer_reports_the_waiting_count_it_decided_on():
    """The ECFirst rule: the edge until its waiting line is full, then the cloud."""
    edge = _edge(capacity=1000.0, max_queue=2)
    assert edge.offer(100.0, now=0.0)[0] == 0  # straight into service
    assert edge.offer(100.0, now=0.0)[0] == 0
    assert edge.offer(100.0, now=0.0)[0] == 1  # 1 in service + 2 waiting: full
    assert edge.offer(100.0, now=0.0) == (2, None, None)
    # service drains one slot and the edge is attractive again; it starts at 0.3
    waiting, completion, queue_wait = edge.offer(100.0, now=0.1)
    assert waiting == 1 and queue_wait == pytest.approx(0.3 - 0.1)
    assert completion == pytest.approx(0.3 + 0.1)


def test_edge_respects_payload_arrival_time():
    edge = _edge(capacity=1000.0)
    _, a, a_wait = edge.offer(100.0, now=0.0, data_at=0.002)
    assert a_wait == 0.0  # service starts when the payload arrives
    assert a == 0.002 + 0.1
    # a back-to-back offer waits for the first to finish, so it starts at a
    _, b, b_wait = edge.offer(100.0, now=0.0, data_at=0.002)
    assert b == a + 0.1
    assert b_wait == a - 0.002


def test_edge_idle_gap_resets_waiting():
    edge = _edge(capacity=1000.0)
    edge.offer(100.0, now=0.0)
    _, a, a_wait = edge.offer(100.0, now=5.0)
    assert a == 5.0 + 0.1  # service starts at the offer
    assert a_wait == 0.0


def test_edge_rejects_a_capacity_that_is_not_positive():
    with pytest.raises(ValueError, match="capacity"):
        _edge(capacity=0.0)


def test_vehicle_serves_one_task_at_a_time():
    v = VehicleState(0, 0.0, CLOCKWISE, speed=3.0, capacity=71120.0)
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
    v = VehicleState(0, 0.0, CLOCKWISE, speed=3.0, capacity=500.0)
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
