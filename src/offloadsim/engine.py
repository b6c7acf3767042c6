"""Deterministic discrete-event simulation of task offloading.

One run draws from ``random.Random(seed)``, user phases first, then beacon
phases, then the per-event draws, and orders its events by (time, sequence
number), so identical configurations and seeds replay the exact same event
interleaving and produce identical records. On a bounded cell,
``scenario.start_offsets`` places the VCCFirst fleet from a second
``random.Random(seed)``, so vehicle i's start offset over the perimeter equals
user i's phase over the request interval; an unbounded cell draws none.
Arrivals are generated sorted by (time, task id) and stay in that list, read
by a cursor beside a heap of the in-flight events: arrival i counts as
sequence number i and every pushed event numbers on from the arrival count,
so at equal times an arrival goes first.

Each radio leg goes through the run's ``channel.Link`` for its link class,
which holds the link's parameters and the airtime still in use. A leg returns
its latency, or None when lost; it draws once from the RNG only when both
endpoints are in coverage, and a lost leg still occupies its airtime.

A run's ``Records`` are columns, one per ``RECORD_FIELDS`` entry indexed by
task id; each event writes its leg straight into its column. A VCCFirst fleet
is columns too, indexed by vehicle id: ``busy_until`` here, the beacon state
of ``controller.Beacons``, and the start offsets read by the run's one
``scenario.coverage_function``. Speed and capacity are run constants.

Task lifecycle: a user uploads over the access network to the gNB; the
controller picks a destination (cloud, edge or a beaconing vehicle); the task
travels the remaining legs, is elaborated, and the result returns to the user.
Any lost radio leg, a rejection by a busy vehicle, or a dispatch to a vehicle
that left coverage ends the task as a failure. The result is delivered when
the last leg ends at or before the horizon (``t + latency <= duration``, decided
when that leg starts); tasks unresolved at the horizon count as in flight.

``summarize_runs`` summarizes many independent runs on the usable CPUs, in
worker processes forked by ``workers.forked``, with the same result as one
after another.
"""

from __future__ import annotations

import heapq
import itertools
import marshal
import math
import operator
import random
from array import array
from collections import Counter, namedtuple

from .bounds import check_fields
from .channel import Link, lena_calibrated
from .compute import EdgeState, elaboration_time
from .controller import (
    CLOUD,
    EC_FIRST,
    EDGE,
    Beacons,
    Registry,
    STRATEGIES,
    VCC_FIRST,
    VEHICLE,
)
from .scenario import coverage_function, start_offsets, total_coverage
from .stats import left_sum, percentile
from .workers import forked, worker_count

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


# field -> (default, kind): the kind bounds the field (see ``bounds``); None
# leaves it to ``RunConfig.validate``, or to its own type when built.
_RUN_FIELDS = {
    "strategy": (EC_FIRST, None),
    "n_users": (8, "int"),
    "request_rate": (5.0, "positive"),  # per user, Hz
    "duration": (120.0, "positive"),  # s
    "seed": (0, "int"),  # nonnegative, as random.Random(-s) would replay the stream of s
    "workload_mi": (500.0, "nonnegative"),
    "task_size_bytes": (4000.0, "nonnegative"),
    "result_size_bytes": (4000.0, "nonnegative"),
    "geometry": (total_coverage(), None),
    "n_vehicles": (40, ("int", MAX_VEHICLES)),
    "vehicle_speed": (13.1 * KMH, "nonnegative"),  # m/s
    "vehicle_capacity": (71120.0, "positive"),  # MIPS
    "channel": (lena_calibrated(), None),
    "cloud_mips": (2356230.0, "positive"),
    "edge_mips": (749070.0, "positive"),
    "edge_max_queue": (100, "int"),
    "beacon_period": (0.1, "positive"),
    "registry_timeout": (0.5, "positive"),
}


class PositionOverflow(ValueError):
    """A VCCFirst fleet on a bounded cell would drive past the float range."""


class RunConfig(namedtuple("RunConfig", _RUN_FIELDS, defaults=[default for default, _ in _RUN_FIELDS.values()])):
    """Everything one run needs. Defaults describe the reference workload:
    8 pedestrians offloading 500 MI tasks at 5 req/s for 120 s, 40 vehicles
    looping a fully covered 600 x 50 m block at 13.1 km/h."""

    __slots__ = ()
    KINDS = {field: kind for field, (_, kind) in _RUN_FIELDS.items() if kind is not None}

    def validate(self) -> None:
        """Check every field's kind, the strategy, the arrival and beacon caps and the fleet's positions."""
        check_fields(self)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        per_user = self.duration * self.request_rate
        if self.n_users and (per_user > MAX_ARRIVALS or self.n_users * math.ceil(per_user) > MAX_ARRIVALS):
            raise ValueError(f"users x ceil(duration x request_rate) must not exceed {MAX_ARRIVALS} arrivals")
        if self.strategy == VCC_FIRST and self.n_vehicles * (self.duration / self.beacon_period) > MAX_BEACONS:
            raise ValueError(f"vehicles x duration / beacon period must not exceed {MAX_BEACONS} beacons")
        if (self.strategy == VCC_FIRST and self.n_vehicles and self.geometry.coverage_radius < math.inf
                and self.geometry.perimeter + self.vehicle_speed * self.duration == math.inf):
            raise PositionOverflow("vehicle positions overflow: loop perimeter + speed x duration must be finite")


OffloadRecord = namedtuple("OffloadRecord", (
    "task_id origin_user created_at destination vehicle_id t_up_access t_up_cn t_up_internet t_gnb_to_vue"
    " t_queue t_elab t_vue_to_gnb t_down_internet t_down_cn t_down_access total outcome failed_leg"
    " edge_queue_at_decision"
))
OffloadRecord.__doc__ = """One task's row of ``Records``: its id, user and creation time; its
destination (None when it died before dispatch) and vehicle; the ten legs'
durations in lifecycle order, exactly 0 where not traversed; ``total``, the
legs' sum for a success and 0 otherwise; the outcome, the failed leg, and
(ECFirst) the edge's waiting count when the controller decided."""

RECORD_FIELDS = OffloadRecord._fields


class Records:
    """One run's records as one column per ``RECORD_FIELDS`` entry, indexed by
    task id: ``array('d')`` for the floats, a ``range`` for ``task_id`` and
    lists for the rest. An item is built as an ``OffloadRecord`` when read, and
    a slice is the ``Records`` of those tasks."""

    __slots__ = ("columns",)

    def __init__(self, columns: list) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        items = [column[i] for column in self.columns]
        return Records(items) if isinstance(i, slice) else OffloadRecord._make(items)

    def __iter__(self):
        return map(OffloadRecord._make, zip(*self.columns))


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


def run(cfg: RunConfig) -> Records:
    """Simulate one run and return one record per generated arrival, by task id."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    geom = cfg.geometry
    channel = cfg.channel
    horizon = cfg.duration
    heappop, heappush = heapq.heappop, heapq.heappush

    # Per-run constants: every task has the same template, and every vehicle
    # the same speed and capacity.
    workload = cfg.workload_mi
    cloud_elab = elaboration_time(workload, cfg.cloud_mips)
    edge_elab = elaboration_time(workload, cfg.edge_mips)
    vehicle_elab = elaboration_time(workload, cfg.vehicle_capacity)
    cn_up, cn_down = channel.cn_up, channel.cn_down
    inet_up, inet_down = channel.internet_up, channel.internet_down
    pue_up = Link(channel.pue_up, cfg.task_size_bytes)
    pue_down = Link(channel.pue_down, cfg.result_size_bytes)
    vue_down = Link(channel.vue_down, cfg.task_size_bytes, cfg.vehicle_speed)
    vue_up = Link(channel.vue_up, cfg.result_size_bytes, cfg.vehicle_speed)

    # Records are columns in RECORD_FIELDS order, indexed by task id. Arrival
    # i carries sequence number i, so it precedes every pushed event at its
    # time; pushed events number on from n. The arrivals end by count: the inf
    # after them only keeps the heap's events first, and an event at inf, from
    # a leg or an elaboration that overflowed, lies past the horizon.
    arrivals = generate_arrivals(cfg, rng)
    n = len(arrivals)
    arrival_times = [t for t, _ in arrivals]
    columns = [range(n), [user for _, user in arrivals], array("d", arrival_times)]
    columns += [[None] * n for _ in range(2)] + [array("d", [0.0]) * n for _ in range(11)]
    columns += [[IN_FLIGHT] * n] + [[None] * n for _ in range(2)]
    (_, _, _, destination, vehicle_id, t_up_access, t_up_cn, t_up_internet, t_gnb_to_vue, t_queue, t_elab, t_vue_to_gnb,
     t_down_internet, t_down_cn, t_down_access, total, outcome, failed_leg, edge_queue_at_decision) = columns
    arrival_times.append(math.inf)
    del arrivals
    next_seq = itertools.count(n).__next__
    # (t, seq, kind, task, b): b is the vehicle at _AT_VEHICLE and _VEHICLE_DONE,
    # else the sum of the task's legs so far (see _RESULT_AT_GNB).
    heap: list[tuple[float, int, int, int, float]] = []

    if cfg.strategy == VCC_FIRST:
        # ECFirst never reads the fleet, so it has none. An unbounded cell
        # covers every vehicle for good, so it reads no position.
        fleet, period = cfg.n_vehicles, cfg.beacon_period
        busy_until = [0.0] * fleet
        coverage = None if math.isinf(geom.coverage_radius) else coverage_function(
            geom, start_offsets(geom, fleet, cfg.seed), cfg.vehicle_speed)
        # Each vehicle keeps its own beacon phase; beacons are replayed lazily,
        # not queued as events. Beacons copies the phases into a column.
        phases = [rng.random() * period for _ in range(fleet)]
        beacons = Beacons(Registry(cfg.registry_timeout, fleet), period, phases, coverage, horizon)
        del phases
        edge = None
    else:
        edge = EdgeState(capacity=cfg.edge_mips, max_queue=cfg.edge_max_queue)

    def fail(a: int, leg: str) -> None:
        outcome[a] = FAILED
        failed_leg[a] = leg

    def to_cloud(t: float, a: int, legs: float) -> None:
        destination[a] = CLOUD
        t_up_cn[a] = cn_up
        t_up_internet[a] = inet_up
        t_elab[a] = cloud_elab
        t_down_internet[a] = inet_down
        t_down_cn[a] = cn_down
        result_at = t + cn_up + inet_up + cloud_elab + inet_down + cn_down
        legs = legs + cn_up + inet_up + cloud_elab + inet_down + cn_down
        heappush(heap, (result_at, next_seq(), _RESULT_AT_GNB, a, legs))

    i = 0
    next_arrival = arrival_times[0]
    while True:
        if heap and heap[0][0] < next_arrival:
            t, _, kind, a, b = heappop(heap)
            if t > horizon:
                break
        else:  # arrivals all lie inside the horizon
            if i == n:  # and every event left, if any, at inf
                break
            latency = pue_up.send(rng, next_arrival)
            if latency is None:
                fail(i, USER_TO_GNB)
            else:
                t_up_access[i] = latency
                heappush(heap, (next_arrival + latency, next_seq(), _AT_GNB, i, latency))
            i += 1
            next_arrival = arrival_times[i]
            continue

        if kind == _AT_GNB:
            if edge is not None:
                waiting, completion, queue_wait = edge.offer(workload, t, t + cn_up)
                edge_queue_at_decision[a] = waiting
                if completion is None:
                    to_cloud(t, a, b)
                else:
                    destination[a] = EDGE
                    t_up_cn[a] = cn_up
                    t_queue[a] = queue_wait
                    t_elab[a] = edge_elab
                    t_down_cn[a] = cn_down
                    legs = b + cn_up + queue_wait + edge_elab + cn_down
                    heappush(heap, (completion + cn_down, next_seq(), _RESULT_AT_GNB, a, legs))
                continue
            vid = beacons.dispatch(rng, t)
            if vid is None:
                to_cloud(t, a, b)
                continue
            destination[a] = VEHICLE
            vehicle_id[a] = vid
            latency = vue_down.send(rng, t, beacons.covered(vid, t))
            if latency is None:
                fail(a, GNB_TO_VCC)
                beacons.book(vid)
            else:
                t_gnb_to_vue[a] = latency
                beacons.book(vid, t + latency)
                heappush(heap, (t + latency, next_seq(), _AT_VEHICLE, a, vid))

        elif kind == _AT_VEHICLE:
            if busy_until[b] > t:  # a vehicle serves one task at a time
                fail(a, REJECTION)
                beacons.book(b)  # this task did not stop b: wake b if it still beacons
            else:
                done_at = busy_until[b] = t + vehicle_elab
                t_elab[a] = vehicle_elab
                beacons.stop(b, t)  # busy vehicles stop beaconing
                heappush(heap, (done_at, next_seq(), _VEHICLE_DONE, a, b))

        elif kind == _VEHICLE_DONE:
            covered = beacons.restart(b, t)  # idle again: beacon immediately
            if busy_until[b] > t:  # a task reached b at this instant and sorted first
                beacons.stop(b, t)
            latency = vue_up.send(rng, t, covered)
            if latency is None:
                fail(a, VCC_TO_GNB)
            else:
                t_vue_to_gnb[a] = latency
                legs = t_up_access[a] + t_gnb_to_vue[a] + vehicle_elab + latency
                heappush(heap, (t + latency, next_seq(), _RESULT_AT_GNB, a, legs))

        else:  # _RESULT_AT_GNB: the last leg decides the outcome at once
            latency = pue_down.send(rng, t)
            if latency is None:
                fail(a, GNB_TO_USER)
            else:
                t_down_access[a] = latency
                if t + latency <= horizon:
                    # total: the ten legs in field order, left to right. b summed only
                    # those on this task's path: each skipped leg is +0.0, and x + 0.0
                    # is x bitwise for every leg x >= 0 but -0.0 (a RunConfig may hold -0.0).
                    # The full sum holds a +0.0, so it is never -0.0: the last + 0.0.
                    outcome[a] = SUCCESS
                    total[a] = b + latency + 0.0

    return Records(columns)


Aggregates = namedtuple("Aggregates", (
    "n_requests n_dispatched n_success n_failed n_in_flight mean_total p90 p95 p99 cc_share_pct uplink_share_pct"
    " elab_share_pct downlink_share_pct fail_user_gnb_pct fail_gnb_vcc_pct fail_rejection_pct fail_vcc_gnb_pct"
    " fail_gnb_user_pct fail_total_pct vehicles_used"
))
Aggregates.__doc__ = "Run-level summary; latency statistics cover successful tasks only."


def summarize(records: Records) -> Aggregates:
    """Aggregate one run's records.

    Percentiles are nearest-rank over success totals. The cloud share is
    CLOUD-destined over dispatched (tasks that reached the controller).
    Component shares split the vehicular successes' time into uplink
    (access + gNB-to-vehicle), elaboration, and downlink (vehicle-to-gNB +
    access); they sum to 100, and are nan when those successes took no time
    at all (or there are none). Failure percentages are per lifecycle leg over
    all generated requests. Every sum is a left fold in task id order
    (``stats.left_sum``), so the bytes do not depend on the Python version.
    """
    col = dict(zip(RECORD_FIELDS, records.columns))
    outcome, destination = col["outcome"], col["destination"]
    n = len(outcome)
    n_dispatched = n - destination.count(None)
    n_success = outcome.count(SUCCESS)
    fails = Counter(col["failed_leg"])  # the failed leg of each failed task, None for the others
    n_failed = n - fails[None]
    ok = list(map(operator.eq, outcome, itertools.repeat(SUCCESS)))

    totals = list(itertools.compress(col["total"], ok))
    if totals:
        mean_total = left_sum(totals) / len(totals)
        totals.sort()  # after the sum, whose float depends on the order
        p90 = percentile(totals, 90.0)
        p95 = percentile(totals, 95.0)
        p99 = percentile(totals, 99.0)
    else:
        mean_total = p90 = p95 = p99 = math.nan

    cc_share = 100.0 * destination.count(CLOUD) / n_dispatched if n_dispatched else math.nan

    up = elab = down = span = 0.0
    if VEHICLE in destination:
        vehicular = map(operator.eq, destination, itertools.repeat(VEHICLE))
        vcc = list(map(operator.and_, ok, vehicular))  # the vehicular successes

        def legs(name: str):
            return itertools.compress(col[name], vcc)

        up = left_sum(map(operator.add, legs("t_up_access"), legs("t_gnb_to_vue")))
        elab = left_sum(legs("t_elab"))
        down = left_sum(map(operator.add, legs("t_vue_to_gnb"), legs("t_down_access")))
        span = up + elab + down
    if span > 0.0:
        up_pct = 100.0 * up / span
        elab_pct = 100.0 * elab / span
        down_pct = 100.0 * down / span
    else:  # no vehicular success, or only ones that took no time
        up_pct = elab_pct = down_pct = math.nan

    by_leg = {leg: 100.0 * fails[leg] / n if n else math.nan for leg in FAILURE_LEGS}

    return Aggregates(
        n_requests=n,
        n_dispatched=n_dispatched,
        n_success=n_success,
        n_failed=n_failed,
        n_in_flight=n - n_success - n_failed,
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
        fail_total_pct=(100.0 * n_failed / n) if n else math.nan,
        vehicles_used=len(set(col["vehicle_id"]) - {None}),
    )


AGGREGATE_FIELDS = Aggregates._fields


def summarize_runs(cfgs: list[RunConfig]) -> list[Aggregates]:
    """``[summarize(run(c)) for c in cfgs]``, with the runs spread over processes.

    Every config is validated first, so a bad one raises before any run. With
    n workers (``workers.worker_count``), worker k takes ``cfgs[k::n]``: this
    process runs share 0, and each other share runs in a child made by
    ``workers.forked``, which sends back its rows' field values through its
    pipe with ``marshal`` (exact for every float, nan and -0.0 included). Each
    run owns its seeded RNG, so the result never depends on n. A child that
    fails prints its traceback to stderr, and the call raises RuntimeError.
    """
    for cfg in cfgs:
        cfg.validate()
    n = worker_count(len(cfgs))

    def share(k: int, out) -> None:
        aggs = [summarize(run(cfg)) for cfg in cfgs[k::n]]
        marshal.dump([tuple(agg) for agg in aggs], out)

    with forked(n, share) as pipes:
        own = [summarize(run(cfg)) for cfg in cfgs[::n]]
        # A pipe holds about 300 rows, so read each to EOF before waiting on its writer.
        payloads = [pipe.read() for pipe in pipes]
    out: list = [None] * len(cfgs)
    out[::n] = own
    for k, payload in enumerate(payloads, 1):
        out[k::n] = map(Aggregates._make, marshal.loads(payload))
    return out
