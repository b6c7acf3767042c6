"""Deterministic discrete-event simulation of task offloading.

One run owns a single seeded RNG and a single event heap ordered by
(time, insertion sequence), so identical configurations and seeds replay the
exact same event interleaving and produce identical records. The heap starts
as the arrival list itself: arrivals are generated sorted by (time, task id)
and use their task id as sequence number, and a sorted list is a valid heap.

Each radio leg goes through the run's ``channel.Link`` for its link class,
which holds the link's parameters and the airtime still in use. A leg returns
its latency, or None when lost; it draws once from the RNG only when both
endpoints are in coverage, and a lost leg still occupies its airtime.

Task lifecycle: a user uploads over the access network to the gNB; the
controller picks a destination (cloud, edge or a beaconing vehicle); the task
travels the remaining legs, is elaborated, and the result returns to the user.
Any lost radio leg, a rejection by a busy vehicle, or a dispatch to a vehicle
that left coverage ends the task as a failure; tasks unresolved at the horizon
count as in flight.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field, fields

from .channel import ChannelConfig, Link, LinkClass, lena_calibrated
from .compute import EdgeState, Task, elaboration_time, vehicle_offer
from .controller import (
    CLOUD,
    EC_FIRST,
    EDGE,
    Beacons,
    Registry,
    STRATEGIES,
    VCC_FIRST,
    VEHICLE,
    select_vccfirst,
)
from .scenario import (
    ScenarioGeometry,
    build_scenario,
    edge_distance,
    in_coverage,
    position_at,
    total_coverage,
)
from .stats import percentile

# Where a task can die, in lifecycle order.
USER_TO_GNB = "USER_TO_GNB"
GNB_TO_VCC = "GNB_TO_VCC"
REJECTION = "REJECTION"
VCC_TO_GNB = "VCC_TO_GNB"
GNB_TO_USER = "GNB_TO_USER"
FAILURE_LEGS = (USER_TO_GNB, GNB_TO_VCC, REJECTION, VCC_TO_GNB, GNB_TO_USER)

SUCCESS = "success"
FAILED = "failed"
IN_FLIGHT = "in_flight"

REPLICATION_SEEDS = (0, 1, 2, 3, 4, 6, 7, 8, 9)

KMH = 1.0 / 3.6  # km/h in m/s

MAX_ARRIVALS = 10_000_000  # per run, checked before any arrival is generated


@dataclass
class RunConfig:
    """Everything one run needs. Defaults describe the reference workload:
    8 pedestrians offloading 500 MI tasks at 5 req/s for 120 s, 40 vehicles
    looping a fully covered 600 x 50 m block at 13.1 km/h."""

    strategy: str = EC_FIRST
    n_users: int = 8
    request_rate: float = 5.0  # per user, Hz
    duration: float = 120.0  # s
    seed: int = 0
    workload_mi: float = 500.0
    task_size_bytes: float = 4000.0
    result_size_bytes: float = 4000.0
    geometry: ScenarioGeometry = field(default_factory=total_coverage)
    n_vehicles: int = 40
    vehicle_speed: float = 13.1 * KMH  # m/s
    vehicle_capacity: float = 71120.0  # MIPS
    channel: ChannelConfig = field(default_factory=lena_calibrated)
    cloud_mips: float = 2356230.0
    edge_mips: float = 749070.0
    edge_max_queue: int = 100
    beacon_period: float = 0.1
    registry_timeout: float = 0.5

    def validate(self) -> None:
        if not all(math.isfinite(v) for v in vars(self).values() if isinstance(v, (int, float))):
            raise ValueError("numeric parameters must be finite")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.n_users < 0 or self.n_vehicles < 0:
            raise ValueError("population counts must be nonnegative")
        if self.request_rate <= 0.0:
            raise ValueError("request rate must be positive")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        per_user = self.duration * self.request_rate
        if self.n_users and (per_user > MAX_ARRIVALS or self.n_users * math.ceil(per_user) > MAX_ARRIVALS):
            raise ValueError(f"users x ceil(duration x request_rate) must not exceed {MAX_ARRIVALS} arrivals")
        if self.workload_mi < 0.0 or self.task_size_bytes < 0.0 or self.result_size_bytes < 0.0:
            raise ValueError("task template values must be nonnegative")
        if self.vehicle_speed < 0.0:
            raise ValueError("vehicle speed must be nonnegative")
        if min(self.vehicle_capacity, self.cloud_mips, self.edge_mips) <= 0.0:
            raise ValueError("capacities must be positive")
        if self.edge_max_queue < 0:
            raise ValueError("edge queue bound must be nonnegative")
        if self.beacon_period <= 0.0 or self.registry_timeout <= 0.0:
            raise ValueError("beacon period and registry timeout must be positive")


@dataclass(slots=True)
class OffloadRecord:
    """Per-task accounting: destination, each leg's duration, and the outcome.

    Legs that a destination never traverses stay exactly 0. ``total`` is the
    sum of the traversed legs for successes and 0 otherwise.
    """

    task_id: int
    origin_user: int
    created_at: float
    destination: str | None = None  # None when the task died before dispatch
    vehicle_id: int | None = None
    t_up_access: float = 0.0
    t_up_cn: float = 0.0
    t_up_internet: float = 0.0
    t_gnb_to_vue: float = 0.0
    t_queue: float = 0.0
    t_elab: float = 0.0
    t_vue_to_gnb: float = 0.0
    t_down_internet: float = 0.0
    t_down_cn: float = 0.0
    t_down_access: float = 0.0
    total: float = 0.0
    outcome: str = IN_FLIGHT
    failed_leg: str | None = None
    edge_queue_at_decision: int | None = None

    def leg_sum(self) -> float:
        return (
            self.t_up_access
            + self.t_up_cn
            + self.t_up_internet
            + self.t_gnb_to_vue
            + self.t_queue
            + self.t_elab
            + self.t_vue_to_gnb
            + self.t_down_internet
            + self.t_down_cn
            + self.t_down_access
        )


RECORD_FIELDS = tuple(f.name for f in fields(OffloadRecord))


def generate_arrivals(cfg: RunConfig, rng: random.Random) -> list[tuple[float, int, Task]]:
    """Periodic arrivals per user with a seeded uniform phase in [0, 1/rate).

    The merged stream is sorted by time, ties broken by user id, and task ids
    number the stream in that order.
    """
    interval = 1.0 / cfg.request_rate
    raw: list[tuple[float, int]] = []
    for user in range(cfg.n_users):
        phase = rng.random() * interval
        k = 0
        t = phase
        while t < cfg.duration:
            raw.append((t, user))
            k += 1
            t = phase + k * interval
    raw.sort()
    return [
        (
            t,
            user,
            Task(tid, cfg.workload_mi, cfg.task_size_bytes, cfg.result_size_bytes, t, user),
        )
        for tid, (t, user) in enumerate(raw)
    ]


# Event kinds, dispatched in the run loop.
_ARRIVAL, _AT_GNB, _AT_VEHICLE, _VEHICLE_DONE, _RESULT_AT_GNB, _DELIVERED = range(6)


def run(cfg: RunConfig) -> list[OffloadRecord]:
    """Simulate one run and return one record per generated arrival, by task id."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    geom = cfg.geometry
    chan = cfg.channel
    vccfirst = cfg.strategy == VCC_FIRST
    heappop, heappush = heapq.heappop, heapq.heappush

    vehicles = build_scenario(
        geom, cfg.n_vehicles, cfg.vehicle_speed, cfg.vehicle_capacity, cfg.seed
    )  # vehicle ids are list indexes
    registry = Registry(timeout=cfg.registry_timeout)
    edge = EdgeState(capacity=cfg.edge_mips, max_queue=cfg.edge_max_queue)

    cn_up = chan.links[LinkClass.CN_UP].base_latency
    cn_down = chan.links[LinkClass.CN_DOWN].base_latency
    inet_up = chan.links[LinkClass.INTERNET_UP].base_latency
    inet_down = chan.links[LinkClass.INTERNET_DOWN].base_latency
    pue_up, pue_down, vue_up, vue_down = (
        Link(chan.links[link])
        for link in (LinkClass.PUE_UP, LinkClass.PUE_DOWN, LinkClass.VUE_UP, LinkClass.VUE_DOWN)
    )

    # Tasks and records are indexed by task id. Arrivals come sorted by (time,
    # id) and take their id as insertion sequence, so their list is already a
    # heap; later events are numbered on from there.
    arrivals = generate_arrivals(cfg, rng)
    tasks = [task for _, _, task in arrivals]
    records = [OffloadRecord(task.id, task.origin_user, task.created_at) for task in tasks]
    heap = [(t, task.id, _ARRIVAL, task.id, 0) for t, _, task in arrivals]
    seq = itertools.count(len(heap))

    def push(t: float, kind: int, a: int, b: int = 0) -> None:
        heappush(heap, (t, next(seq), kind, a, b))

    def coverage(vid: int, t: float) -> tuple[bool, float]:
        v = vehicles[vid]
        p = position_at(v, t, geom)
        return in_coverage(p, geom), (t + edge_distance(p, geom) / v.speed if v.speed else math.inf)

    # Periodic beacons matter only when vehicles can be selected. Each vehicle
    # keeps its own phase; beacons are replayed lazily, not queued as events.
    if vccfirst:
        phases = {v.id: rng.random() * cfg.beacon_period for v in vehicles}
        beacons = Beacons(registry, cfg.beacon_period, phases, coverage, cfg.duration)

    def fail(rec: OffloadRecord, leg: str) -> None:
        rec.outcome = FAILED
        rec.failed_leg = leg

    def to_cloud(t: float, rec: OffloadRecord, task: Task) -> None:
        rec.destination = CLOUD
        rec.t_up_cn = cn_up
        rec.t_up_internet = inet_up
        rec.t_elab = elaboration_time(task.workload_mi, cfg.cloud_mips)
        rec.t_down_internet = inet_down
        rec.t_down_cn = cn_down
        push(
            t + cn_up + inet_up + rec.t_elab + inet_down + cn_down,
            _RESULT_AT_GNB,
            task.id,
        )

    horizon = cfg.duration
    while heap:
        t, _, kind, a, b = heappop(heap)
        if t > horizon:
            break

        if kind == _ARRIVAL:
            latency = pue_up.send(rng, t, tasks[a].size_bytes, 0.0)
            if latency is None:
                fail(records[a], USER_TO_GNB)
            else:
                records[a].t_up_access = latency
                push(t + latency, _AT_GNB, a)

        elif kind == _AT_GNB:
            task = tasks[a]
            rec = records[a]
            if vccfirst:
                beacons.advance(t)
                dispatch = select_vccfirst(registry, rng, t)
                if dispatch.destination == CLOUD:
                    to_cloud(t, rec, task)
                else:
                    vid = dispatch.vehicle_id
                    beacons.picked(vid, t)
                    v = vehicles[vid]
                    rec.destination = VEHICLE
                    rec.vehicle_id = vid
                    covered = in_coverage(position_at(v, t, geom), geom)
                    latency = vue_down.send(rng, t, task.size_bytes, v.speed, covered)
                    if latency is None:
                        fail(rec, GNB_TO_VCC)
                    else:
                        rec.t_gnb_to_vue = latency
                        push(t + latency, _AT_VEHICLE, a, vid)
            else:
                waiting, accepted = edge.offer(task.workload_mi, t, t + cn_up)
                rec.edge_queue_at_decision = waiting
                if accepted is None:
                    to_cloud(t, rec, task)
                else:
                    rec.destination = EDGE
                    rec.t_up_cn = cn_up
                    rec.t_queue = accepted.queue_wait
                    rec.t_elab = elaboration_time(task.workload_mi, cfg.edge_mips)
                    rec.t_down_cn = cn_down
                    push(accepted.completion + cn_down, _RESULT_AT_GNB, a)

        elif kind == _AT_VEHICLE:
            task = tasks[a]
            v = vehicles[b]
            done_at = vehicle_offer(v, task.workload_mi, t)
            if done_at is None:
                fail(records[a], REJECTION)
            else:
                records[a].t_elab = elaboration_time(task.workload_mi, v.capacity)
                beacons.stop(b, t)  # busy vehicles stop beaconing
                push(done_at, _VEHICLE_DONE, a, b)

        elif kind == _VEHICLE_DONE:
            v = vehicles[b]
            covered = in_coverage(position_at(v, t, geom), geom)
            beacons.restart(b, t, covered)  # idle again: beacon immediately
            latency = vue_up.send(rng, t, tasks[a].result_bytes, v.speed, covered)
            if latency is None:
                fail(records[a], VCC_TO_GNB)
            else:
                records[a].t_vue_to_gnb = latency
                push(t + latency, _RESULT_AT_GNB, a)

        elif kind == _RESULT_AT_GNB:
            latency = pue_down.send(rng, t, tasks[a].result_bytes, 0.0)
            if latency is None:
                fail(records[a], GNB_TO_USER)
            else:
                records[a].t_down_access = latency
                push(t + latency, _DELIVERED, a)

        elif kind == _DELIVERED:
            rec = records[a]
            rec.outcome = SUCCESS
            rec.total = rec.leg_sum()

    return records


@dataclass(frozen=True)
class Aggregates:
    """Run-level summary; latency statistics cover successful tasks only."""

    n_requests: int
    n_dispatched: int
    n_success: int
    n_failed: int
    n_in_flight: int
    mean_total: float
    p90: float
    p95: float
    p99: float
    cc_share_pct: float
    uplink_share_pct: float
    elab_share_pct: float
    downlink_share_pct: float
    fail_user_gnb_pct: float
    fail_gnb_vcc_pct: float
    fail_rejection_pct: float
    fail_vcc_gnb_pct: float
    fail_gnb_user_pct: float
    fail_total_pct: float
    vehicles_used: int


def summarize(records: list[OffloadRecord]) -> Aggregates:
    """Aggregate one run's records.

    Percentiles are nearest-rank over success totals. The cloud share is
    CLOUD-destined over dispatched (tasks that reached the controller).
    Component shares split the vehicular successes' time into uplink
    (access + gNB-to-vehicle), elaboration, and downlink (vehicle-to-gNB +
    access); they sum to 100. Failure percentages are per lifecycle leg over
    all generated requests.
    """
    n = len(records)
    dispatched = [r for r in records if r.destination is not None]
    successes = [r for r in records if r.outcome == SUCCESS]
    failed = [r for r in records if r.outcome == FAILED]
    in_flight = n - len(successes) - len(failed)

    totals = [r.total for r in successes]
    if totals:
        mean_total = sum(totals) / len(totals)
        p90 = percentile(totals, 90.0)
        p95 = percentile(totals, 95.0)
        p99 = percentile(totals, 99.0)
    else:
        mean_total = p90 = p95 = p99 = math.nan

    if dispatched:
        n_cloud = sum(1 for r in dispatched if r.destination == CLOUD)
        cc_share = 100.0 * n_cloud / len(dispatched)
    else:
        cc_share = math.nan

    vcc_success = [r for r in successes if r.destination == VEHICLE]
    if vcc_success:
        up = sum(r.t_up_access + r.t_gnb_to_vue for r in vcc_success)
        elab = sum(r.t_elab for r in vcc_success)
        down = sum(r.t_vue_to_gnb + r.t_down_access for r in vcc_success)
        span = up + elab + down
        up_pct = 100.0 * up / span
        elab_pct = 100.0 * elab / span
        down_pct = 100.0 * down / span
    else:
        up_pct = elab_pct = down_pct = math.nan

    def fail_pct(leg: str) -> float:
        if n == 0:
            return math.nan
        return 100.0 * sum(1 for r in failed if r.failed_leg == leg) / n

    by_leg = {leg: fail_pct(leg) for leg in FAILURE_LEGS}
    used = {r.vehicle_id for r in records if r.vehicle_id is not None}

    return Aggregates(
        n_requests=n,
        n_dispatched=len(dispatched),
        n_success=len(successes),
        n_failed=len(failed),
        n_in_flight=in_flight,
        mean_total=mean_total,
        p90=p90,
        p95=p95,
        p99=p99,
        cc_share_pct=cc_share,
        uplink_share_pct=up_pct,
        elab_share_pct=elab_pct,
        downlink_share_pct=down_pct,
        fail_user_gnb_pct=by_leg[USER_TO_GNB],
        fail_gnb_vcc_pct=by_leg[GNB_TO_VCC],
        fail_rejection_pct=by_leg[REJECTION],
        fail_vcc_gnb_pct=by_leg[VCC_TO_GNB],
        fail_gnb_user_pct=by_leg[GNB_TO_USER],
        fail_total_pct=(100.0 * len(failed) / n) if n else math.nan,
        vehicles_used=len(used),
    )
