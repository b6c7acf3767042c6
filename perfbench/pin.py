#!/usr/bin/env python3
"""Recompute the pinned output digests in perfbench/digests.json.

    python3 perfbench/pin.py

Runs every workload once per pinned seed through offloadsim.cli.main and
records the SHA-256 of each output file. Run it only for a declared
behaviour change, and record the old and new digests in CHANGES.md; a change
that claims to keep behaviour must pass against the digests as they are.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

PINNED_SEEDS = (*range(10), run.HELD_OUT_SEED)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from offloadsim.cli import main as cli_main

    work = run.OUT / "work" / "pin"
    table = {}
    try:
        for workload, (_, outputs) in run.WORKLOADS.items():
            table[workload] = {}
            for seed in PINNED_SEEDS:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                text = run.config_text(workload, seed)
                config = work / f"{workload}.cfg"
                config.write_text(text)
                run.call_main(cli_main, run.cli_args(workload, config, seed, work))
                _, problems = run.invariants(workload, text, seed, work)
                if problems:
                    raise SystemExit(f"{workload} seed {seed}: {problems}")
                table[workload][str(seed)] = run.digests(work, outputs)
                print(workload, seed, table[workload][str(seed)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.BENCH / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
