"""Computation tiers: infinite cloud, single FIFO edge server, one-task vehicles.

Elaboration time is workload divided by capacity everywhere; the tiers differ
only in admission. The cloud never queues. The edge is one server with a finite
FIFO waiting line. A vehicle serves at most one task at a time and refuses a
second outright.
"""

from __future__ import annotations

from collections import deque


def elaboration_time(workload_mi: float, capacity_mips: float) -> float:
    """Service time in seconds for a workload on a processor of given capacity (both as RunConfig bounds them)."""
    return workload_mi / capacity_mips


class EdgeState:
    """One FIFO server with a bounded waiting line.

    Admissions are in dispatch order and the core-network delay is the same for
    every task, so service starts are nondecreasing and the waiting line can be
    tracked as a deque of (service_start, completion) pairs pruned lazily.
    """

    __slots__ = ("max_queue", "next_free", "_jobs")

    def __init__(self, max_queue: int) -> None:
        self.max_queue, self.next_free = max_queue, 0.0
        self._jobs: deque = deque()  # (service_start, completion)

    def offer(self, service_s: float, now: float, data_at: float) -> tuple[int, float | None, float | None]:
        """Admit a task of ``service_s`` seconds at ``now`` unless ``max_queue``
        tasks already wait.

        Returns (waiting, completion, queue_wait): the tasks admitted but not
        yet in service at ``now`` before this one, then the admitted task's
        completion time and its wait from ``data_at`` to its service start,
        both None on overflow. ``data_at`` is when the payload reaches the
        server; service cannot start before it. A task starts no earlier than
        the previous admission's completion, so admitted completions are
        nondecreasing in call order, which ``engine.run`` relies on.
        """
        jobs = self._jobs
        while jobs and jobs[0][1] <= now:
            jobs.popleft()
        waiting = len(jobs)
        if waiting and jobs[0][0] <= now:
            waiting -= 1
        if waiting >= self.max_queue:
            return waiting, None, None
        start = self.next_free
        if start < data_at:
            start = data_at
        completion = self.next_free = start + service_s
        jobs.append((start, completion))
        return waiting, completion, start - data_at
