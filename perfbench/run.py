#!/usr/bin/env python3
"""offloadsim benchmark: host time of whole CLI invocations, and a traced pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports offloadsim from the
checkout's src/ and writes only under .perfbench/ at the checkout root.

--trace 0 reports the end-to-end metrics. offloadsim.cli.main is called
repeatedly in this process for S seconds, and a fixed reference kernel is
timed just before and after every call. wall_rel is the median over calls of
the call's host seconds divided by the kernel's, so host-wide slowdowns that
hit both cancel out; tasks_per_ref is simulated tasks per kernel time. setup_s
is fresh interpreter to parsed config, the median of child processes spread
over the run, and peak_rss_mb the peak RSS of one fresh child running the
workload. The raw host seconds (wall_s) are printed and kept in the record.
--trace 1 spends half of S untraced and half traced (see tracer.py) and reports
the per-layer metrics. Every call's output files are hashed: against the
digests pinned in digests.json when the seed has them, otherwise against the
first call's, whose content is also checked against invariants. A failed or
mismatching call counts in "failed" and makes the exit code 1. The last line
of standard output is the JSON result; the full record, with an environment
stamp, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import heapq
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# name -> (subcommand, output files; the first holds the aggregates)
WORKLOADS = {
    "edge_rush": ("run", ("aggregates.csv", "records.csv")),
    "fleet_idle": ("run", ("aggregates.csv",)),
    "coverage_sweep": ("sweep", ("sweep.csv",)),
}
HELD_OUT_SEED = 101  # reserved for confirming claims; never used while tuning
MIN_REPS = 3
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 120
REF_KERNEL_STEPS = 40_000  # about 70 ms on a 2-vCPU Python 3.11 host


def config_text(workload: str, seed: int) -> str:
    """The workload's config as the CLI reads it; run configs carry the seed."""
    text = (BENCH / "workloads" / f"{workload}.cfg").read_text()
    if WORKLOADS[workload][0] == "run":
        text += f"seed = {seed}\n"
    return text


def cli_args(workload: str, config: Path, seed: int, out_dir: Path) -> list[str]:
    command, outputs = WORKLOADS[workload]
    argv = [command, str(config), "-o", str(out_dir / outputs[0])]
    if len(outputs) > 1:
        argv += ["--records", str(out_dir / outputs[1])]
    if command == "sweep":
        argv += ["--seed-list", f"{seed},{seed + 1}"]
    return argv


def digests(out_dir: Path, outputs) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in outputs}


def pinned_digests(workload: str, seed: int) -> dict[str, str] | None:
    table = json.loads((BENCH / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def reference_kernel() -> float:
    """Host seconds of a fixed piece of pure-Python work.

    Its mix (a heap of tuples, seeded draws, dict updates) is the simulator's,
    and its working set of several MB is as exposed to cache contention from
    other tenants of the host; a kernel small enough to stay in cache slowed
    less than the simulator when the host was busy. It runs no offloadsim
    code, so a change to the package does not move it.
    """
    t0 = time.perf_counter()
    rng = random.Random(1)
    heap, table = [], {}
    for i in range(REF_KERNEL_STEPS):
        heapq.heappush(heap, (rng.random(), i, i % 7))
        table[rng.randrange(1 << 20)] = table.get(rng.randrange(1 << 20), 0.0) + 1.5
        if len(heap) > 20_000:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def call_main(main, argv: list[str]) -> float:
    """Host seconds of one CLI call; its console output is discarded."""
    sink = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = main(argv)
    wall = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: {sink.getvalue().strip()}")
    return wall


class Bracketed:
    """CLI calls with the reference kernel run once between every two calls.

    Each call returns (call seconds, mean of the kernel runs just before and
    just after it); neighbouring calls share the run between them.
    """

    def __init__(self, main, argv: list[str]):
        self.main, self.argv = main, argv
        self.before: float | None = None

    def __call__(self) -> tuple[float, float]:
        if self.before is None:
            self.before = reference_kernel()
        wall = call_main(self.main, self.argv)
        after = reference_kernel()
        ref, self.before = (self.before + after) / 2, after
        return wall, ref


class Check:
    """Counts attempted and failed calls; compares each call's output digests."""

    def __init__(self, reference: dict[str, str] | None):
        self.pinned = reference is not None
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {why}")

    def outputs(self, label: str, got: dict[str, str]) -> None:
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            base = "the pinned digests" if self.pinned else "the first call's digests"
            self.fail(label, f"output differs from {base}: {got}")

    def call(self, label: str, fn, out_dir: Path, outputs):
        """Run one attempt on fresh output files; fn's result, or None if it failed."""
        self.attempted += 1
        for name in outputs:
            (out_dir / name).unlink(missing_ok=True)
        try:
            result = fn()
            got = digests(out_dir, outputs)
        except Exception as exc:  # a failing call is a measured outcome, not a crash
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        self.outputs(label, got)
        return result


def repeat(check: Check, label: str, fn, until: float, out_dir: Path, outputs, min_reps=MIN_REPS) -> list:
    """Call fn until perf_counter() passes `until`, at least `min_reps` times.

    Returns the successful calls' results.
    """
    results = []
    attempts = 0
    while attempts < min_reps or time.perf_counter() < until:
        attempts += 1
        result = check.call(f"{label} {attempts}", fn, out_dir, outputs)
        if result is not None:
            results.append(result)
    return results


def invariants(workload: str, text: str, seed: int, out_dir: Path) -> tuple[int, list[str]]:
    """Simulated task count of one call, and the invariants its outputs break.

    Each simulated run must account for every request exactly once
    (success + failed + in flight), and its request count must equal what
    generate_arrivals returns for its config. The arrival count does not
    depend on the draws as long as the duration is a whole number of request
    intervals, which holds for every workload here.
    """
    from offloadsim.config import apply_axis, parse_run_config, parse_sweep_spec
    from offloadsim.engine import generate_arrivals

    command, outputs = WORKLOADS[workload]
    with open(out_dir / outputs[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    if command == "run":
        points = [parse_run_config(text)]
    else:
        spec = parse_sweep_spec(text)
        seeds = (seed, seed + 1)
        points = [apply_axis(spec.base_run, spec.axis, v, s) for v in spec.values for s in seeds]
        rows = [row for row in rows if row["seed"] != "mean"]
    problems = []
    if len(rows) != len(points):
        problems.append(f"{len(rows)} result rows for {len(points)} runs")
    tasks = 0
    for cfg, row in zip(points, rows):
        n = int(row["n_requests"])
        tasks += n
        if int(row["seed"]) != cfg.seed:
            problems.append(f"row for seed {row['seed']} where {cfg.seed} was due")
        if int(row["n_success"]) + int(row["n_failed"]) + int(row["n_in_flight"]) != n:
            problems.append(f"seed {cfg.seed}: success + failed + in flight != {n} requests")
        expected = len(generate_arrivals(cfg, random.Random(cfg.seed)))
        if n != expected:
            problems.append(f"seed {cfg.seed}: {n} requests, generate_arrivals gives {expected}")
    if len(outputs) > 1:
        with open(out_dir / outputs[1], newline="") as fh:
            n_records = sum(1 for _ in fh) - 1
        if n_records != tasks:
            problems.append(f"{n_records} task records for {tasks} requests")
    return tasks, problems


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str]) -> tuple[float, str]:
    """Host seconds and standard output of one child process, run to its end."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return wall, proc.stdout


BARE_PYTHON = [sys.executable, "-c", "pass"]


def setup_command(workload: str, config: Path) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), "setup", WORKLOADS[workload][0], str(config)]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "offloadsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_state() -> tuple[str | None, bool | None]:
    """(commit, dirty) when the checkout root is a git work tree, else (None, None)."""

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None, None
        commit = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return commit, dirty


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit, dirty = git_state()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "numpy_imported_by_offloadsim": "numpy" in sys.modules,
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": source_digest(),
    }


def quartiles(values: list[float]) -> dict:
    if not values:
        return {"median": math.nan, "q1": math.nan, "q3": math.nan, "n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if not (SRC / "offloadsim" / "__init__.py").is_file():
        print(f"perfbench: no offloadsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import offloadsim.cli

    if not Path(offloadsim.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: offloadsim imported from {offloadsim.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "rss").mkdir(parents=True)
    try:
        record = measure(args, work, offloadsim.cli.main)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    check = record["check"]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{check['attempted']} calls, {check['failed']} failed "
          f"(error_rate {check['failed'] / check['attempted']:.3f}), outputs checked against "
          f"{'pinned digests' if check['pinned'] else 'invariants and the first call'}")
    for error in check["errors"][:10]:
        print(f"  FAILED {error}")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    for name, unit in (("wall_s", "s"), ("ref_kernel_s", "s"), ("wall_rel", "ref")):
        q = record[name]
        print(f"  {name} median {q['median']:.4f} {unit}, q1 {q['q1']:.4f}, q3 {q['q3']:.4f}, n {q['n']}")
    print(f"  {record['tasks']} simulated tasks per call: {record['tasks'] / record['wall_s']['median']:.6g} tasks/s")
    env = record["environment"]
    print(f"  env: python {env['python']}, nproc {env['nproc']}, numpy {env['numpy']}, "
          f"commit {env['git_commit']}, dirty {env['git_dirty']}; full record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if check["failed"] == 0 else 1


def measure(args, work: Path, main) -> dict:
    """Run the workload as --trace asks; return the full result record."""
    from tracer import tracing

    workload, seed = args.workload, args.seed
    outputs = WORKLOADS[workload][1]
    text = config_text(workload, seed)
    config = work / f"{workload}.cfg"
    config.write_text(text)
    argv = cli_args(workload, config, seed, work)
    check = Check(pinned_digests(workload, seed))
    record = {"workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace}

    tasks = 0
    if check.call("warm-up", lambda: call_main(main, argv), work, outputs) is not None:
        tasks, problems = invariants(workload, text, seed, work)
        if problems:
            check.fail("invariants of the warm-up call", "; ".join(problems))

    setup, bare, calls = [], [], []
    if args.trace == 0:
        run_child(setup_command(workload, config))  # compiles the bytecode once, as an install would
        # Fresh-process samples are spread over the run, so that one busy
        # stretch of the host does not skew all of them.
        start = time.perf_counter()
        for i in range(1, SETUP_SAMPLES + 1):
            bare.append(run_child(BARE_PYTHON)[0])
            setup.append(run_child(setup_command(workload, config))[0])
            until = start + args.seconds * i / SETUP_SAMPLES
            calls += repeat(check, "timed call", Bracketed(main, argv), until, work, outputs, min_reps=1)
    else:
        bare = [run_child(BARE_PYTHON)[0] for _ in range(3)]
        until = time.perf_counter() + args.seconds / 2
        calls = repeat(check, "timed call", Bracketed(main, argv), until, work, outputs)
    walls = [wall for wall, _ in calls]
    wall = statistics.median(walls) if walls else math.nan
    record["wall_s"] = quartiles(walls)
    record["ref_kernel_s"] = quartiles([ref for _, ref in calls])
    record["wall_rel"] = quartiles([wall / ref for wall, ref in calls])
    record["wall_samples_s"] = walls
    record["ref_kernel_samples_s"] = [ref for _, ref in calls]
    record["tasks"] = tasks

    if args.trace == 0:
        rss_args = cli_args(workload, config, seed, work / "rss")

        def rss_call():
            out = run_child([sys.executable, str(BENCH / "child.py"), "rss", *rss_args])[1]
            return json.loads(out.strip().splitlines()[-1])["maxrss_kb"]

        rss_kb = check.call("peak-rss child", rss_call, work / "rss", outputs)
        wall_rel = record["wall_rel"]["median"]
        values = {
            "wall_rel": wall_rel,
            "tasks_per_ref": tasks / wall_rel,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kb / 1024 if rss_kb else math.nan,
        }
        record["setup_s"] = quartiles(setup)
        record["setup.bare_python_s"] = quartiles(bare)
    else:

        def traced_call():
            with tracing() as tracer:
                traced_wall = call_main(main, argv)
            return {"wall": traced_wall, **tracer.metrics()}

        until = time.perf_counter() + args.seconds / 2
        traced = repeat(check, "traced call", traced_call, until, work, outputs)
        # median_low keeps the exactly repeating counts integral
        values = {key: statistics.median_low(r[key] for r in traced) for key in traced[0]} if traced else {}
        record["traced_wall_s"] = quartiles([r["wall"] for r in traced])
        values["engine.events_per_s"] = values.get("engine.events", 0) / wall
        values["trace.overhead_s"] = values.pop("wall", math.nan) - wall
        values["setup.bare_python_s"] = statistics.median(bare)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record["digests"] = check.reference
    record["check"] = {"pinned": check.pinned, "attempted": check.attempted, "failed": check.failed, "errors": check.errors}
    record["environment"] = environment()
    return record


if __name__ == "__main__":
    sys.exit(main())
