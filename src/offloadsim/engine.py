"""Deterministic discrete-event simulation of task offloading.

One run owns a single seeded RNG and orders its events by (time, sequence
number), so identical configurations and seeds replay the exact same event
interleaving and produce identical records. Arrivals are generated sorted by
(time, task id) and stay in that list, read by a cursor beside a heap of the
in-flight events: arrival i counts as sequence number i and every pushed event
numbers on from the arrival count, so at equal times an arrival goes first.

Each radio leg goes through the run's ``channel.Link`` for its link class,
which holds the link's parameters and the airtime still in use. A leg returns
its latency, or None when lost; it draws once from the RNG only when both
endpoints are in coverage, and a lost leg still occupies its airtime.

Task lifecycle: a user uploads over the access network to the gNB; the
controller picks a destination (cloud, edge or a beaconing vehicle); the task
travels the remaining legs, is elaborated, and the result returns to the user.
Any lost radio leg, a rejection by a busy vehicle, or a dispatch to a vehicle
that left coverage ends the task as a failure. The result is delivered when
the last leg ends at or before the horizon (``t + latency <= duration``, decided
when that leg starts); tasks unresolved at the horizon count as in flight.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field, fields

from .channel import ChannelConfig, Link, LinkClass, lena_calibrated
from .compute import EdgeState, elaboration_time, vehicle_offer
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
MAX_VEHICLES = 1_000_000  # per run, checked before the fleet is built
# Beacons of a VCCFirst fleet over a run. Each beacon time is x = x + period,
# replayed one by one, so a period below the float spacing of the horizon would
# never get past it.
MAX_BEACONS = 1_000_000_000


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
        if self.n_vehicles > MAX_VEHICLES:
            raise ValueError(f"vehicle count must not exceed {MAX_VEHICLES}")
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
        if self.strategy == VCC_FIRST and self.n_vehicles * (self.duration / self.beacon_period) > MAX_BEACONS:
            raise ValueError(f"vehicles x duration / beacon period must not exceed {MAX_BEACONS} beacons")


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


def generate_arrivals(cfg: RunConfig, rng: random.Random) -> list[tuple[float, int]]:
    """Periodic arrivals per user with a seeded uniform phase in [0, 1/rate).

    Returns the merged (time, user) stream, sorted by time with ties broken by
    user id; a task's id is its index in this list.
    """
    interval = 1.0 / cfg.request_rate
    arrivals: list[tuple[float, int]] = []
    for user in range(cfg.n_users):
        phase = rng.random() * interval
        k = 0
        t = phase
        while t < cfg.duration:
            arrivals.append((t, user))
            k += 1
            t = phase + k * interval
    arrivals.sort()
    return arrivals


# Kinds of the in-flight events on the heap; arrivals are not heap events.
_AT_GNB, _AT_VEHICLE, _VEHICLE_DONE, _RESULT_AT_GNB = range(4)


def run(cfg: RunConfig) -> list[OffloadRecord]:
    """Simulate one run and return one record per generated arrival, by task id."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    geom = cfg.geometry
    links = cfg.channel.links
    horizon = cfg.duration
    heappop, heappush = heapq.heappop, heapq.heappush

    # Per-run constants: every task has the same template, and every vehicle
    # the same speed and capacity.
    workload = cfg.workload_mi
    cloud_elab = elaboration_time(workload, cfg.cloud_mips)
    edge_elab = elaboration_time(workload, cfg.edge_mips)
    vehicle_elab = elaboration_time(workload, cfg.vehicle_capacity)
    cn_up = links[LinkClass.CN_UP].base_latency
    cn_down = links[LinkClass.CN_DOWN].base_latency
    inet_up = links[LinkClass.INTERNET_UP].base_latency
    inet_down = links[LinkClass.INTERNET_DOWN].base_latency
    pue_up = Link(links[LinkClass.PUE_UP], cfg.task_size_bytes)
    pue_down = Link(links[LinkClass.PUE_DOWN], cfg.result_size_bytes)
    vue_down = Link(links[LinkClass.VUE_DOWN], cfg.task_size_bytes, cfg.vehicle_speed)
    vue_up = Link(links[LinkClass.VUE_UP], cfg.result_size_bytes, cfg.vehicle_speed)

    # Records are indexed by task id. Arrival i carries sequence number i, so
    # it precedes every pushed event at its time; pushed events number on
    # from len(arrivals). The inf sentinel ends the arrival stream.
    arrivals = generate_arrivals(cfg, rng)
    records = [OffloadRecord(tid, user, t) for tid, (t, user) in enumerate(arrivals)]
    arrival_times = [t for t, _ in arrivals] + [math.inf]
    del arrivals
    next_seq = itertools.count(len(records)).__next__
    heap: list[tuple[float, int, int, int, int]] = []  # (t, seq, kind, task, vehicle)

    if cfg.strategy == VCC_FIRST:
        # Vehicle ids are list indexes. ECFirst never reads the fleet, so it has none.
        vehicles = build_scenario(geom, cfg.n_vehicles, cfg.vehicle_speed, cfg.vehicle_capacity, cfg.seed)
        registry = Registry(timeout=cfg.registry_timeout)

        def coverage(vid: int, t: float) -> tuple[bool, float]:
            v = vehicles[vid]
            p = position_at(v, t, geom)
            return in_coverage(p, geom), (t + edge_distance(p, geom) / v.speed if v.speed else math.inf)

        # Each vehicle keeps its own beacon phase; beacons are replayed lazily,
        # not queued as events.
        phases = {v.id: rng.random() * cfg.beacon_period for v in vehicles}
        beacons = Beacons(registry, cfg.beacon_period, phases, coverage, horizon)
        edge = None
    else:
        edge = EdgeState(capacity=cfg.edge_mips, max_queue=cfg.edge_max_queue)

    def fail(rec: OffloadRecord, leg: str) -> None:
        rec.outcome = FAILED
        rec.failed_leg = leg

    def to_cloud(t: float, rec: OffloadRecord, a: int) -> None:
        rec.destination = CLOUD
        rec.t_up_cn = cn_up
        rec.t_up_internet = inet_up
        rec.t_elab = cloud_elab
        rec.t_down_internet = inet_down
        rec.t_down_cn = cn_down
        result_at = t + cn_up + inet_up + cloud_elab + inet_down + cn_down
        heappush(heap, (result_at, next_seq(), _RESULT_AT_GNB, a, 0))

    i = 0
    next_arrival = arrival_times[0]
    while heap or next_arrival < math.inf:
        if heap and heap[0][0] < next_arrival:
            t, _, kind, a, b = heappop(heap)
            if t > horizon:
                break
        else:  # arrivals all lie inside the horizon
            latency = pue_up.send(rng, next_arrival)
            if latency is None:
                fail(records[i], USER_TO_GNB)
            else:
                records[i].t_up_access = latency
                heappush(heap, (next_arrival + latency, next_seq(), _AT_GNB, i, 0))
            i += 1
            next_arrival = arrival_times[i]
            continue

        if kind == _AT_GNB:
            rec = records[a]
            if edge is not None:
                waiting, accepted = edge.offer(workload, t, t + cn_up)
                rec.edge_queue_at_decision = waiting
                if accepted is None:
                    to_cloud(t, rec, a)
                else:
                    rec.destination = EDGE
                    rec.t_up_cn = cn_up
                    rec.t_queue = accepted.queue_wait
                    rec.t_elab = edge_elab
                    rec.t_down_cn = cn_down
                    heappush(heap, (accepted.completion + cn_down, next_seq(), _RESULT_AT_GNB, a, 0))
                continue
            beacons.advance(t)
            dispatch = select_vccfirst(registry, rng, t)
            if dispatch.destination == CLOUD:
                to_cloud(t, rec, a)
                continue
            vid = dispatch.vehicle_id
            beacons.picked(vid, t)
            rec.destination = VEHICLE
            rec.vehicle_id = vid
            latency = vue_down.send(rng, t, in_coverage(position_at(vehicles[vid], t, geom), geom))
            if latency is None:
                fail(rec, GNB_TO_VCC)
            else:
                rec.t_gnb_to_vue = latency
                heappush(heap, (t + latency, next_seq(), _AT_VEHICLE, a, vid))

        elif kind == _AT_VEHICLE:
            done_at = vehicle_offer(vehicles[b], workload, t)
            if done_at is None:
                fail(records[a], REJECTION)
            else:
                records[a].t_elab = vehicle_elab
                beacons.stop(b, t)  # busy vehicles stop beaconing
                heappush(heap, (done_at, next_seq(), _VEHICLE_DONE, a, b))

        elif kind == _VEHICLE_DONE:
            covered = in_coverage(position_at(vehicles[b], t, geom), geom)
            beacons.restart(b, t, covered)  # idle again: beacon immediately
            latency = vue_up.send(rng, t, covered)
            if latency is None:
                fail(records[a], VCC_TO_GNB)
            else:
                records[a].t_vue_to_gnb = latency
                heappush(heap, (t + latency, next_seq(), _RESULT_AT_GNB, a, 0))

        else:  # _RESULT_AT_GNB: the last leg decides the outcome at once
            rec = records[a]
            latency = pue_down.send(rng, t)
            if latency is None:
                fail(rec, GNB_TO_USER)
            else:
                rec.t_down_access = latency
                if t + latency <= horizon:
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
    access); they sum to 100, and are nan when those successes took no time
    at all (or there are none). Failure percentages are per lifecycle leg over
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
        totals.sort()  # after the sum, whose float depends on the order
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
    up = sum(r.t_up_access + r.t_gnb_to_vue for r in vcc_success)
    elab = sum(r.t_elab for r in vcc_success)
    down = sum(r.t_vue_to_gnb + r.t_down_access for r in vcc_success)
    span = up + elab + down
    if span > 0.0:
        up_pct = 100.0 * up / span
        elab_pct = 100.0 * elab / span
        down_pct = 100.0 * down / span
    else:  # no vehicular success, or only ones that took no time
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
