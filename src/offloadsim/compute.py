"""Computation tiers: infinite cloud, single FIFO edge server, one-task vehicles.

Elaboration time is workload divided by capacity everywhere; the tiers differ
only in admission. The cloud never queues. The edge is one server with a finite
FIFO waiting line. A vehicle serves at most one task at a time and refuses a
second outright.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .scenario import VehicleState


def elaboration_time(workload_mi: float, capacity_mips: float) -> float:
    """Service time in seconds for a workload on a processor of given capacity."""
    if workload_mi < 0.0:
        raise ValueError("workload must be nonnegative")
    if capacity_mips <= 0.0:
        raise ValueError("capacity must be positive")
    return workload_mi / capacity_mips


@dataclass
class EdgeState:
    """One FIFO server with a bounded waiting line.

    Admissions are in dispatch order and the core-network delay is the same for
    every task, so service starts are nondecreasing and the waiting line can be
    tracked as a deque of (service_start, completion) pairs pruned lazily.
    """

    capacity: float  # MIPS
    max_queue: int = 100
    next_free: float = 0.0
    _jobs: deque = field(default_factory=deque)  # (service_start, completion)

    def __post_init__(self) -> None:
        if self.capacity <= 0.0:
            raise ValueError("capacity must be positive")

    def waiting_count(self, now: float) -> int:
        """Tasks admitted but not yet in service at ``now``; drops finished ones."""
        jobs = self._jobs
        while jobs and jobs[0][1] <= now:
            jobs.popleft()
        return len(jobs) - (1 if jobs and jobs[0][0] <= now else 0)

    def offer(
        self, workload_mi: float, now: float, data_at: float | None = None
    ) -> tuple[int, float | None, float | None]:
        """Admit a task at ``now`` unless ``max_queue`` tasks already wait.

        Returns (waiting, completion, queue_wait): the ``waiting_count`` at
        ``now`` before this task, then the admitted task's completion time and
        its wait from ``data_at`` to its service start, both None on overflow.
        ``data_at`` is when the payload reaches the server (defaults to
        ``now``); service cannot start before it. The workload must be
        nonnegative; it is not checked here, since this runs once per task.
        """
        jobs = self._jobs
        while jobs and jobs[0][1] <= now:
            jobs.popleft()
        waiting = len(jobs)
        if waiting and jobs[0][0] <= now:
            waiting -= 1
        if waiting >= self.max_queue:
            return waiting, None, None
        if data_at is None:
            data_at = now
        start = self.next_free
        if start < data_at:
            start = data_at
        completion = self.next_free = start + workload_mi / self.capacity
        jobs.append((start, completion))
        return waiting, completion, start - data_at


def vehicle_offer(v: VehicleState, workload_mi: float, now: float) -> float | None:
    """Start service on an idle vehicle and return the completion time.

    Returns None (rejection) if the vehicle is already serving a task. Accepted
    intervals never overlap: acceptance requires busy_until <= now and sets
    busy_until to the new completion.
    """
    if v.busy_until > now:
        return None
    done_at = now + elaboration_time(workload_mi, v.capacity)
    v.busy_until = done_at
    return done_at
