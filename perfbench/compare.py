#!/usr/bin/env python3
"""Compare two sets of perfbench result records.

    python3 perfbench/compare.py --base A1.json A2.json ... --change B1.json ...

The records are the files run.py writes under .perfbench/results/. Records
made on different setups are refused (exit 2): another Python, CPU count,
platform, numpy version or run length. For every workload and metric the
script prints each side's median and quartiles over its records and the
change's median relative to the base's. An end-to-end metric whose change is
worse than its bound in BENCHMARK.json allows is marked WORSE (exit 1); one
whose base spread (quartile distance over median) exceeds the bound is marked
unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SETUP_KEYS = ("python", "implementation", "nproc", "usable_cpus", "platform", "machine", "numpy")


def summary(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)

    records = {side: [json.loads(p.read_text()) for p in paths] for side, paths in (("base", args.base), ("change", args.change))}
    everything = records["base"] + records["change"]
    setups = {tuple((k, r["environment"][k]) for k in SETUP_KEYS) + (("seconds", r["seconds"]),) for r in everything}
    if len(setups) > 1:
        print("refused: the records come from different setups:", file=sys.stderr)
        for setup in sorted(setups, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in setup), file=sys.stderr)
        return 2

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worse_any = False
    groups = sorted({(r["workload"], r["trace"]) for r in everything})
    for workload, trace in groups:
        sides = {s: [r for r in rs if (r["workload"], r["trace"]) == (workload, trace)] for s, rs in records.items()}
        if not sides["base"] or not sides["change"]:
            print(f"{workload} trace {trace}: records on one side only, skipped")
            continue
        print(f"{workload} trace {trace}: {len(sides['base'])} base and {len(sides['change'])} change records")
        for name, meta in sides["base"][0]["metrics"].items():
            b = summary([r["metrics"][name]["value"] for r in sides["base"]])
            c = summary([r["metrics"][name]["value"] for r in sides["change"]])
            rel = c[0] / b[0] if b[0] else float("nan")
            verdict = ""
            if name in bounds:
                bound, higher = bounds[name]["bound"], bounds[name]["better"] == "higher"
                loss = (1 - rel) if higher else (rel - 1)
                if b[0] and (b[2] - b[1]) / b[0] > bound:
                    verdict = "unresolved"
                elif loss > bound:
                    verdict, worse_any = "WORSE", True
            print(f"  {name:36s} base {b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}]  "
                  f"change {c[0]:.6g} [{c[1]:.6g}, {c[2]:.6g}]  x{rel:.4f} {meta['unit']} {verdict}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
