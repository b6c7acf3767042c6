"""Seeded property tests for the per-task records of small runs.

The records CSV must carry every record's exact values: a float cell parses
back through ``float()`` to the same number, and a None cell is empty. The
edge serves in FIFO order, so its service starts never decrease. A run keeps
its records, stored as columns, in at most half the memory that one record
object per task took.
"""

import csv
import gc
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim import engine
from offloadsim.cli import main
from offloadsim.compute import EdgeState
from offloadsim.config import parse_run_config
from offloadsim.engine import RECORD_FIELDS, RunConfig, run


def _configs(strategies, max_users):
    """Small run configs; more users put a waiting line in front of the edge."""
    return st.builds(
        "".join,
        st.tuples(
            st.sampled_from(strategies).map("strategy = {}\n".format),
            st.sampled_from(("", "scenario.preset = partial_coverage\n")),
            st.integers(1, max_users).map("users = {}\n".format),
            st.sampled_from((0.5, 1.0, 2.5)).map("duration = {}\n".format),
            st.sampled_from((500, 20_000, 80_000)).map("task.workload_mi = {}\n".format),
            st.integers(0, 4).map("compute.edge_max_queue = {}\n".format),
            st.integers(0, 30).map("vehicles.count = {}\n".format),
            st.sampled_from((0.0, 13.1, 90.0, 250.0)).map("vehicles.speed_kmh = {}\n".format),
            st.integers(0, 2**16).map("seed = {}\n".format),
        ),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=_configs(("ECFirst", "VCCFirst"), 5))
def test_records_csv_round_trips_every_value(text):
    records = run(parse_run_config(text))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "run.cfg"), Path(tmp, "records.csv")
        cfg.write_text(text)
        assert main(["run", str(cfg), "-o", str(Path(tmp, "agg.csv")), "--records", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows[0] == list(RECORD_FIELDS)
    assert len(rows) == len(records) + 1
    for rec, row in zip(records, rows[1:]):
        for name, cell in zip(RECORD_FIELDS, row, strict=True):
            value = getattr(rec, name)
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell) == value, (name, cell, value)
            else:
                assert cell == str(value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=_configs(("ECFirst",), 40))
def test_edge_service_starts_never_decrease(text):
    starts = []

    class RecordingEdge(EdgeState):
        def offer(self, workload_mi, now, data_at=None):
            waiting, completion, queue_wait = super().offer(workload_mi, now, data_at)
            if completion is not None:
                starts.append(self._jobs[-1][0])  # the admitted task's (service_start, completion)
            return waiting, completion, queue_wait

    with mock.patch.object(engine, "EdgeState", RecordingEdge):
        records = run(parse_run_config(text))
    assert len(starts) == sum(1 for r in records if r.destination == "EDGE")
    assert all(a <= b for a, b in zip(starts, starts[1:]))


# Bytes per task that a run's records kept as one slotted object per task
# (tracemalloc, 100,000 tasks): half of these is the bound for the columns.
_OBJECT_BYTES_PER_TASK = {"ECFirst": 340, "VCCFirst": 363}


@pytest.mark.parametrize("strategy", ["ECFirst", "VCCFirst"])
def test_records_keep_at_most_half_the_bytes_of_one_object_per_task(strategy):
    cfg = RunConfig(strategy=strategy, duration=500.0)  # 8 users at 5 Hz: 20,000 tasks
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = run(cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 20_000
    assert retained / len(records) <= _OBJECT_BYTES_PER_TASK[strategy] / 2
