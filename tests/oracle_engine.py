"""Reference engine for differential tests: the eager event loop of the first
version of ``offloadsim.engine.run``.

Every arrival, every beacon of every idle vehicle and every delivery is its own
heap event. Events go by time, then beacons before everything else, then push
order: a beacon at time <= t takes effect before a dispatch or a vehicle's task
start at t, as the README states. Every radio leg builds a ``channel.Link`` and
takes only its ``transfer_time`` and ``lost``; the airtime heaps are kept here,
so ``Link.send``'s own bookkeeping is checked independently. It is slow and
simple on purpose. A few shims adapt it to today's public names: a local
``Task``, a three-line ``select_ecfirst``, ``EdgeState.offer``'s (waiting,
completion, queue wait) triple, the vehicle id or None that
``select_vccfirst`` returns, and mutable records (``new_record``, with
``leg_sum``, once a method of the record) made ``OffloadRecord`` tuples at the
end. ``run`` must return the same records as ``offloadsim.engine.run`` for
every valid config.
"""

from __future__ import annotations

import heapq
import random
from types import SimpleNamespace
from typing import NamedTuple

from offloadsim.channel import Link, LinkClass
from offloadsim.compute import EdgeState, elaboration_time, vehicle_offer
from offloadsim.controller import CLOUD, EDGE, VCC_FIRST, VEHICLE, Registry, select_vccfirst
from offloadsim.engine import (
    FAILED,
    GNB_TO_USER,
    GNB_TO_VCC,
    IN_FLIGHT,
    RECORD_FIELDS,
    REJECTION,
    SUCCESS,
    USER_TO_GNB,
    VCC_TO_GNB,
    OffloadRecord,
    RunConfig,
    generate_arrivals,
)
from offloadsim.scenario import build_scenario, in_coverage, position_at


class Task(NamedTuple):
    id: int
    workload_mi: float
    size_bytes: float
    result_bytes: float
    created_at: float
    origin_user: int


def new_record(task: Task) -> SimpleNamespace:
    """A task's record before anything happened to it, with mutable fields."""
    rec = SimpleNamespace(**dict.fromkeys(RECORD_FIELDS, 0.0))
    rec.task_id, rec.origin_user, rec.created_at = task.id, task.origin_user, task.created_at
    rec.destination = rec.vehicle_id = rec.failed_leg = rec.edge_queue_at_decision = None
    rec.outcome = IN_FLIGHT
    return rec


def leg_sum(rec) -> float:
    """The ten legs of a record in field order, added left to right."""
    return (
        rec.t_up_access
        + rec.t_up_cn
        + rec.t_up_internet
        + rec.t_gnb_to_vue
        + rec.t_queue
        + rec.t_elab
        + rec.t_vue_to_gnb
        + rec.t_down_internet
        + rec.t_down_cn
        + rec.t_down_access
    )


def select_ecfirst(edge: EdgeState, now: float) -> str:
    """Send to the edge unless its waiting line is full, else to the cloud."""
    return CLOUD if edge.waiting_count(now) >= edge.max_queue else EDGE


# Event kinds, dispatched in the run loop.
_ARRIVAL, _AT_GNB, _AT_VEHICLE, _VEHICLE_DONE, _RESULT_AT_GNB, _DELIVERED, _BEACON = range(7)


def run(cfg: RunConfig) -> list[OffloadRecord]:
    """Simulate one run and return one record per generated arrival, by task id."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    geom = cfg.geometry
    chan = cfg.channel
    vccfirst = cfg.strategy == VCC_FIRST

    vehicles = build_scenario(geom, cfg.n_vehicles, cfg.vehicle_speed, cfg.vehicle_capacity, cfg.seed)
    vmap = {v.id: v for v in vehicles}
    registry = Registry(timeout=cfg.registry_timeout)
    edge = EdgeState(capacity=cfg.edge_mips, max_queue=cfg.edge_max_queue)

    cn_up = chan.links[LinkClass.CN_UP].base_latency
    cn_down = chan.links[LinkClass.CN_DOWN].base_latency
    inet_up = chan.links[LinkClass.INTERNET_UP].base_latency
    inet_down = chan.links[LinkClass.INTERNET_DOWN].base_latency

    heap: list[tuple[float, bool, int, int, int, int]] = []
    seq = 0

    def push(t: float, kind: int, a: int = 0, b: int = 0) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, kind != _BEACON, seq, kind, a, b))
        seq += 1

    arrivals = [
        Task(tid, cfg.workload_mi, cfg.task_size_bytes, cfg.result_size_bytes, t, user)
        for tid, (t, user) in enumerate(generate_arrivals(cfg, rng))
    ]
    tasks = {task.id: task for task in arrivals}
    records = {task.id: new_record(task) for task in arrivals}
    for task in arrivals:
        push(task.created_at, _ARRIVAL, task.id)

    # Periodic beacons matter only when vehicles can be selected. Each vehicle
    # keeps its own phase; bumping its epoch cancels whatever beacon is pending.
    beacon_epoch = {v.id: 0 for v in vehicles}
    if vccfirst:
        for v in vehicles:
            push(rng.random() * cfg.beacon_period, _BEACON, v.id, 0)

    # Active transfer end-times per radio link class, for processor sharing.
    active: dict[LinkClass, list[float]] = {link: [] for link in LinkClass}

    def attempt_radio(t, link, size, speed, src_cov=True, dst_cov=True):
        """Run one radio leg: its latency, or None when lost. The transmission
        occupies airtime even if lost."""
        ends = active[link]
        while ends and ends[0] <= t:
            heapq.heappop(ends)
        leg = Link(chan.links[link], size, speed)
        airtime = leg.transfer_time(len(ends) + 1)
        heapq.heappush(ends, t + airtime)
        return None if leg.lost(rng, src_cov and dst_cov) else airtime

    def fail(rec: SimpleNamespace, leg: str) -> None:
        rec.outcome = FAILED
        rec.failed_leg = leg

    def to_cloud(t: float, rec: SimpleNamespace, task: Task) -> None:
        rec.destination = CLOUD
        rec.t_up_cn = cn_up
        rec.t_up_internet = inet_up
        rec.t_elab = elaboration_time(task.workload_mi, cfg.cloud_mips)
        rec.t_down_internet = inet_down
        rec.t_down_cn = cn_down
        push(t + cn_up + inet_up + rec.t_elab + inet_down + cn_down, _RESULT_AT_GNB, task.id)

    horizon = cfg.duration
    while heap:
        t, _, _, kind, a, b = heapq.heappop(heap)
        if t > horizon:
            break

        if kind == _ARRIVAL:
            task = tasks[a]
            rec = records[a]
            latency = attempt_radio(t, LinkClass.PUE_UP, task.size_bytes, 0.0)
            if latency is not None:
                rec.t_up_access = latency
                push(t + latency, _AT_GNB, a)
            else:
                fail(rec, USER_TO_GNB)

        elif kind == _AT_GNB:
            task = tasks[a]
            rec = records[a]
            if vccfirst:
                vid = select_vccfirst(registry, rng, t)
                if vid is None:
                    to_cloud(t, rec, task)
                else:
                    v = vmap[vid]
                    rec.destination = VEHICLE
                    rec.vehicle_id = vid
                    covered = in_coverage(position_at(v, t, geom), geom)
                    latency = attempt_radio(t, LinkClass.VUE_DOWN, task.size_bytes, v.speed, dst_cov=covered)
                    if latency is not None:
                        rec.t_gnb_to_vue = latency
                        push(t + latency, _AT_VEHICLE, a, vid)
                    else:
                        fail(rec, GNB_TO_VCC)
            else:
                destination = select_ecfirst(edge, t)
                rec.edge_queue_at_decision = edge.waiting_count(t)
                if destination == CLOUD:
                    to_cloud(t, rec, task)
                else:
                    rec.destination = EDGE
                    _, completion, queue_wait = edge.offer(task.workload_mi, now=t, data_at=t + cn_up)
                    rec.t_up_cn = cn_up
                    rec.t_queue = queue_wait
                    rec.t_elab = elaboration_time(task.workload_mi, cfg.edge_mips)
                    rec.t_down_cn = cn_down
                    push(completion + cn_down, _RESULT_AT_GNB, a)

        elif kind == _AT_VEHICLE:
            task = tasks[a]
            rec = records[a]
            v = vmap[b]
            done_at = vehicle_offer(v, task.workload_mi, t)
            if done_at is None:
                fail(rec, REJECTION)
            else:
                rec.t_elab = elaboration_time(task.workload_mi, v.capacity)
                beacon_epoch[b] += 1  # busy vehicles stop beaconing
                push(done_at, _VEHICLE_DONE, a, b)

        elif kind == _VEHICLE_DONE:
            task = tasks[a]
            rec = records[a]
            v = vmap[b]
            covered = in_coverage(position_at(v, t, geom), geom)
            if covered:
                registry.on_beacon(b, t)  # idle again: beacon immediately
            beacon_epoch[b] += 1
            push(t + cfg.beacon_period, _BEACON, b, beacon_epoch[b])
            latency = attempt_radio(t, LinkClass.VUE_UP, task.result_bytes, v.speed, src_cov=covered)
            if latency is not None:
                rec.t_vue_to_gnb = latency
                push(t + latency, _RESULT_AT_GNB, a)
            else:
                fail(rec, VCC_TO_GNB)

        elif kind == _RESULT_AT_GNB:
            task = tasks[a]
            rec = records[a]
            latency = attempt_radio(t, LinkClass.PUE_DOWN, task.result_bytes, 0.0)
            if latency is not None:
                rec.t_down_access = latency
                push(t + latency, _DELIVERED, a)
            else:
                fail(rec, GNB_TO_USER)

        elif kind == _DELIVERED:
            rec = records[a]
            rec.outcome = SUCCESS
            rec.total = leg_sum(rec)

        elif kind == _BEACON:
            if b != beacon_epoch.get(a):
                continue  # superseded schedule
            v = vmap[a]
            if v.busy_until > t:
                continue
            if in_coverage(position_at(v, t, geom), geom):
                registry.on_beacon(a, t)
            push(t + cfg.beacon_period, _BEACON, a, b)

    return [OffloadRecord(**vars(records[tid])) for tid in sorted(records)]
