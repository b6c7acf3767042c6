"""Outside-in tracer for offloadsim: per-layer counts and times.

The tracer never edits the package. It swaps names that ``offloadsim.engine``
and ``offloadsim.cli`` look up at call time (the functions they imported from
the other layers, ``heapq``, and a few methods of ``Registry`` and
``EdgeState``) for wrappers that count calls and time them, and it puts every
original back when the ``tracing`` block ends, also on error. The wrappers
only observe arguments and results: they draw nothing from any RNG and change
no value the simulator sees, so traced runs write the same bytes as untraced
ones. A name the package no longer has is skipped and its metrics read 0.

Spans nest: each wrapper adds its duration to the open span of its caller, so
a span's self time is its inclusive time minus that of the wrapped calls made
inside it. ``engine.loop_self_s`` is the self time of ``engine.run``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict

# Event kinds by the engine constant that holds them; absent ones read 0.
EVENT_KINDS = ("arrival", "at_gnb", "at_vehicle", "vehicle_done", "result_at_gnb", "delivered", "beacon")


class Tracer:
    """Call counts, inclusive and self seconds per span, and free counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.heap_max = 0
        self._stack: list[float] = []  # wrapped-child seconds of each open span

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` as span ``name``; hooks see (args, kwargs) and the result."""
        stack, clock = self._stack, time.perf_counter
        calls, incl, self_s = self.calls, self.incl, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                incl[name] += dt
                self_s[name] += dt - child
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer values of one traced call; the caller adds the rest."""
        c, calls, incl = self.counts, self.calls, self.incl

        def ratio(num, den):
            return num / den if den else 0.0

        events = {kind: c[f"event.{kind}"] for kind in EVENT_KINDS}
        vcc_calls = calls["controller.select_vccfirst"]
        legs = calls["channel.leg_outcome"]
        return {
            "engine.events": sum(events.values()) + c["event.other"],
            **{f"engine.events.{kind}": n for kind, n in events.items()},
            "engine.heap_max": self.heap_max,
            "engine.run_s": incl["engine.run"],
            "engine.loop_self_s": self.self_s["engine.run"],
            "engine.generate_arrivals_s": incl["engine.generate_arrivals"],
            "engine.summarize_s": incl["engine.summarize"],
            "controller.select_vccfirst_calls": vcc_calls,
            "controller.select_vccfirst_s": incl["controller.select_vccfirst"],
            "controller.registry_size_mean": ratio(c["registry_size_sum"], vcc_calls),
            "controller.cloud_fallback_ratio": ratio(c["vcc_cloud_fallback"], vcc_calls),
            "controller.on_beacon_calls": calls["controller.on_beacon"],
            "controller.beacon_refresh_ratio": ratio(calls["controller.on_beacon"], events["beacon"]),
            "controller.select_ecfirst_s": incl["controller.select_ecfirst"],
            "scenario.build_scenario_s": incl["scenario.build_scenario"],
            "scenario.position_at_calls": calls["scenario.position_at"],
            "scenario.position_at_s": incl["scenario.position_at"],
            "scenario.in_coverage_calls": calls["scenario.in_coverage"],
            "scenario.in_coverage_s": incl["scenario.in_coverage"],
            "channel.leg_outcome_calls": legs,
            "channel.leg_outcome_s": incl["channel.leg_outcome"],
            "channel.transfer_time_calls": calls["channel.transfer_time"],
            "channel.delivered_ratio": ratio(c["leg_delivered"], legs),
            "channel.lost.out_of_coverage": c["lost.out_of_coverage"],
            "channel.lost.channel_error": c["lost.channel_error"],
            "channel.max_concurrent": c["max_concurrent"],
            "compute.edge_offer_calls": calls["compute.edge_offer"],
            "compute.edge_offer_s": incl["compute.edge_offer"],
            "compute.edge_waiting_count_s": incl["compute.edge_waiting_count"],
            "compute.vehicle_offer_calls": calls["compute.vehicle_offer"],
            "compute.vehicle_accept_ratio": ratio(c["vehicle_accepted"], calls["compute.vehicle_offer"]),
            "stats.percentile_s": incl["stats.percentile"],
            "config.parse_s": incl["config.parse"],
            "cli.csv_write_s": incl["cli.csv_write"],
            "cli.csv_rows": c["csv_rows"],
            "cli.csv_bytes": c["csv_bytes"],
            "cli.sweep_points": calls["engine.run"],
        }


class _CountingHeapq:
    """Stand-in for ``heapq`` inside the engine that counts event pops by kind.

    Event entries are tuples whose field 2 is the kind; the float end times
    pushed on the radio airtime heaps are passed through uncounted.
    """

    def __init__(self, real, tracer: Tracer, kinds: dict[int, str]):
        self._real = real
        self._tracer = tracer
        self._kinds = kinds

    def heappush(self, heap, item):
        self._real.heappush(heap, item)
        if type(item) is tuple and len(heap) > self._tracer.heap_max:
            self._tracer.heap_max = len(heap)

    def heappop(self, heap):
        item = self._real.heappop(heap)
        if type(item) is tuple:
            self._tracer.counts["event." + self._kinds.get(item[2], "other")] += 1
        return item

    def __getattr__(self, name):
        return getattr(self._real, name)


@contextlib.contextmanager
def tracing():
    """Install a fresh ``Tracer`` into the package; restore every name on exit."""
    from offloadsim import channel, cli, compute, controller, engine

    tracer = Tracer()
    counts = tracer.counts
    undo = []

    def patch(owner, attr, make):
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(name, **hooks):
        return lambda fn: tracer.span(name, fn, **hooks)

    def registry_size(args, kwargs):
        counts["registry_size_sum"] += len(args[0].entries)

    def vcc_result(args, kwargs, dispatch):
        if dispatch.destination == controller.CLOUD:
            counts["vcc_cloud_fallback"] += 1

    def concurrency(args, kwargs):
        concurrent = args[7] if len(args) > 7 else kwargs.get("concurrent", 1)
        counts["max_concurrent"] = max(counts["max_concurrent"], concurrent)

    def leg_result(args, kwargs, out):
        if isinstance(out, channel.Delivered):
            counts["leg_delivered"] += 1
        else:
            counts["lost." + out.reason] += 1

    def vehicle_result(args, kwargs, done_at):
        if done_at is not None:
            counts["vehicle_accepted"] += 1

    def counting_write(write):
        def write_counted(path, header, rows):
            def counted(rows):
                for row in rows:
                    counts["csv_rows"] += 1
                    yield row

            write(path, header, counted(rows))
            if path:
                counts["csv_bytes"] += os.path.getsize(path)

        return write_counted

    kinds = {
        getattr(engine, "_" + kind.upper()): kind
        for kind in EVENT_KINDS
        if hasattr(engine, "_" + kind.upper())
    }
    try:
        patch(engine, "heapq", lambda real: _CountingHeapq(real, tracer, kinds))
        patch(engine, "generate_arrivals", wrap("engine.generate_arrivals"))
        patch(engine, "build_scenario", wrap("scenario.build_scenario"))
        patch(engine, "position_at", wrap("scenario.position_at"))
        patch(engine, "in_coverage", wrap("scenario.in_coverage"))
        patch(engine, "select_vccfirst", wrap("controller.select_vccfirst", before=registry_size, after=vcc_result))
        patch(engine, "select_ecfirst", wrap("controller.select_ecfirst"))
        patch(engine, "leg_outcome", wrap("channel.leg_outcome", before=concurrency, after=leg_result))
        patch(engine, "transfer_time", wrap("channel.transfer_time"))
        patch(engine, "vehicle_offer", wrap("compute.vehicle_offer", after=vehicle_result))
        patch(engine, "percentile", wrap("stats.percentile"))
        patch(controller.Registry, "on_beacon", wrap("controller.on_beacon"))
        patch(compute.EdgeState, "offer", wrap("compute.edge_offer"))
        patch(compute.EdgeState, "waiting_count", wrap("compute.edge_waiting_count"))
        patch(cli, "run", wrap("engine.run"))
        patch(cli, "summarize", wrap("engine.summarize"))
        for parser in ("parse_run_config", "parse_sweep_spec", "parse_seed_list"):
            patch(cli, parser, wrap("config.parse"))
        patch(cli, "_write_csv", lambda write: tracer.span("cli.csv_write", counting_write(write)))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
