"""The four subcommands end to end, through main() with temp files."""

import contextlib
import csv
import io
import math
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from offloadsim import cli, config, engine
from offloadsim.cli import AGGREGATE_COLUMNS, ANOVA_COLUMNS, COST_COLUMNS, main
from offloadsim.costmodel import CostParams, savings

RUN_CFG = """\
strategy = ECFirst
users = 2
duration = 5
seed = 1
"""


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_one_aggregate_row(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "agg.csv"
    rec = tmp_path / "records.csv"
    assert main(["run", str(cfg), "-o", str(out), "--records", str(rec)]) == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert list(rows[0]) == ["seed"] + list(AGGREGATE_COLUMNS)
    assert rows[0]["seed"] == "1"
    assert rows[0]["n_requests"] == "50"
    records = _rows(rec)
    assert len(records) == 50
    assert records[0]["task_id"] == "0"
    assert {r["outcome"] for r in records} <= {"success", "failed", "in_flight"}
    # the human summary goes to stdout when the CSV goes to a file
    assert "requests" in capsys.readouterr().out


def test_run_prints_csv_to_stdout_by_default(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed,n_requests,")


def test_run_is_byte_identical_across_invocations(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", str(cfg), "-o", str(a), "--records", str(tmp_path / "ra.csv")]) == 0
    assert main(["run", str(cfg), "-o", str(b), "--records", str(tmp_path / "rb.csv")]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "ra.csv").read_bytes() == (tmp_path / "rb.csv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers need os.fork")
def test_long_records_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strategy = ECFirst\nusers = 30\nduration = 20\n")  # 3,000 records
    written = []
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        rec = tmp_path / f"r{len(cpus)}.csv"
        assert main(["run", str(cfg), "-o", str(tmp_path / "a.csv"), "--records", str(rec)]) == 0
        written.append(rec.read_bytes())
    assert written[0].count(b"\n") == 3001
    assert written[1] == written[0] and written[2] == written[0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers need os.fork")
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_records_as_a_row_generator_write_the_bytes_of_the_column_path(tmp_path, monkeypatch, cpus):
    # a row generator, as a wrapper around the writer passes, has no length
    # and goes through the one-process path; the columns may be split
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strategy = VCCFirst\nusers = 30\nduration = 20\nscenario.preset = partial_coverage\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    real_write = cli._write_csv
    monkeypatch.setattr(
        cli, "_write_csv", lambda path, header, rows: real_write(path, header, (row for row in rows))
    )
    assert main(["run", str(cfg), "-o", str(tmp_path / "a.csv"), "--records", str(tmp_path / "rows.csv")]) == 0
    monkeypatch.setattr(cli, "_write_csv", real_write)
    assert main(["run", str(cfg), "-o", str(tmp_path / "b.csv"), "--records", str(tmp_path / "columns.csv")]) == 0
    rows = (tmp_path / "rows.csv").read_bytes()
    assert rows.count(b"\n") == 3001 and b",VEHICLE," in rows
    assert rows == (tmp_path / "columns.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_a_run_without_users_writes_only_the_records_header(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strategy = VCCFirst\nusers = 0\n")
    rec = tmp_path / "records.csv"
    assert main(["run", str(cfg), "-o", str(tmp_path / "agg.csv"), "--records", str(rec)]) == 0
    assert rec.read_text() == ",".join(engine.RECORD_FIELDS) + "\n"
    (row,) = _rows(tmp_path / "agg.csv")
    assert row["n_requests"] == "0" and row["n_success"] == "0" and row["vehicles_used"] == "0"
    assert row["mean_total_s"] == "nan" and row["fail_total_pct"] == "nan"


def test_sweep_emits_per_seed_and_mean_rows(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "strategy = VCCFirst\n"
        "users = 2\n"
        "duration = 5\n"
        "sweep.axis = vehicles\n"
        "sweep.values = 0, 4\n"
        "sweep.replications = 2\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "-o", str(out)]) == 0
    rows = _rows(out)
    assert list(rows[0]) == ["axis", "value", "seed"] + list(AGGREGATE_COLUMNS)
    assert [(r["value"], r["seed"]) for r in rows] == [
        ("0.0", "0"), ("0.0", "1"), ("0.0", "mean"),
        ("4.0", "0"), ("4.0", "1"), ("4.0", "mean"),
    ]
    # zero vehicles: every dispatched task rode to the cloud
    assert float(rows[2]["cc_share_pct"]) == 100.0
    head = rows[3]
    mean = rows[5]
    assert float(mean["n_requests"]) == 50.0
    assert mean["axis"] == "vehicles" and head["axis"] == "vehicles"


def test_a_sweep_mean_row_sums_left_to_right(monkeypatch):
    # on Python 3.12 sum() compensates floats, and ten seeds of 0.1 averaged 0.1
    spec = config.parse_sweep_spec("strategy = ECFirst\nsweep.axis = users\nsweep.values = 1\n")
    spec = spec._replace(seeds=tuple(range(10)))  # as --seed-list 0,...,9 sets them
    agg = engine.Aggregates._make([0.1] * len(engine.AGGREGATE_FIELDS))
    monkeypatch.setattr(cli, "summarize_runs", lambda cfgs: [agg] * len(cfgs))
    rows = cli._sweep_rows(spec)
    assert [row[2] for row in rows] == [*range(10), "mean"]
    assert rows[-1][3:] == [0.09999999999999999] * len(engine.AGGREGATE_FIELDS)


def test_sweep_seed_list_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "strategy = ECFirst\nduration = 5\nsweep.axis = users\nsweep.values = 1\n"
    )
    out = tmp_path / "s.csv"
    assert main(["sweep", str(cfg), "-o", str(out), "--seed-list", "5,9"]) == 0
    rows = _rows(out)
    assert [r["seed"] for r in rows] == ["5", "9", "mean"]


def test_negative_seed_list_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("strategy = ECFirst\nduration = 5\nsweep.axis = users\nsweep.values = 1\n")
    out = tmp_path / "s.csv"
    assert main(["sweep", str(cfg), "-o", str(out), "--seed-list", "1,-5"]) == 1
    assert "nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_empty_seed_list_exits_nonzero(tmp_path, capsys):
    # it used to be ignored, and the sweep ran the default seeds
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("strategy = ECFirst\nduration = 5\nsweep.axis = users\nsweep.values = 1\n")
    out = tmp_path / "s.csv"
    assert main(["sweep", str(cfg), "-o", str(out), "--seed-list", ""]) == 1
    assert "--seed-list must list at least one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers need os.fork")
def test_a_failing_sweep_worker_fails_the_sweep(tmp_path, monkeypatch, capfd):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("strategy = ECFirst\nusers = 2\nduration = 2\nsweep.axis = users\nsweep.values = 1, 2\n")
    real_run = engine.run

    def failing_run(run_cfg):
        # points go (1, s0), (1, s1), (2, s0), (2, s1); with two workers the
        # child takes the seed-1 points
        if run_cfg.seed == 1:
            raise ArithmeticError("planted failure")
        return real_run(run_cfg)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(engine, "run", failing_run)
    out = tmp_path / "s.csv"
    with pytest.raises(RuntimeError, match="worker process"):
        main(["sweep", str(cfg), "-o", str(out), "--seed-list", "0,1"])
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # the worker was reaped: no zombie
        os.waitpid(-1, os.WNOHANG)
    assert "ArithmeticError: planted failure" in capfd.readouterr().err


def test_beta_sweep_rejects_replications(tmp_path, capsys):
    cfg = tmp_path / "beta.cfg"
    cfg.write_text("sweep.axis = beta\nsweep.values = 0\nsweep.replications = 3\n")
    out = tmp_path / "beta.csv"
    assert main(["sweep", str(cfg), "-o", str(out)]) == 1
    assert "line 3: sweep.replications does not apply to a beta sweep" in capsys.readouterr().err
    assert not out.exists()


def test_beta_sweep_rejects_a_seed_list(tmp_path, capsys):
    cfg = tmp_path / "beta.cfg"
    cfg.write_text("sweep.axis = beta\nsweep.values = 0\n")
    out = tmp_path / "beta.csv"
    assert main(["sweep", str(cfg), "-o", str(out), "--seed-list", "5,6"]) == 1
    assert "--seed-list does not apply to a beta sweep" in capsys.readouterr().err
    assert not out.exists()


def test_cost_defaults_produce_the_breakdown_grid(tmp_path):
    out = tmp_path / "cost.csv"
    assert main(["cost", "-o", str(out)]) == 0
    rows = _rows(out)
    assert list(rows[0]) == list(COST_COLUMNS)
    # default grid: scales {1, 0.01} x years {1} x betas {0, 1e-6, 2e-6}
    assert len(rows) == 6
    assert [r["request_scale"] for r in rows] == ["1.0"] * 3 + ["0.01"] * 3
    zero = rows[0]
    assert float(zero["beta"]) == 0.0
    assert float(zero["vcc_req_pct"]) == 100.0
    assert float(zero["savings_usd"]) == pytest.approx(
        savings(CostParams()), rel=1e-12
    )


def test_cost_with_a_free_edge_writes_nan_edge_percentages(tmp_path):
    # used to end in a ZeroDivisionError traceback
    cfg = tmp_path / "free.cfg"
    cfg.write_text("cost.c_ec_cpu = 0\ncost.c_ec_main = 0\ncost.c_ec_req = 0\n")
    out = tmp_path / "cost.csv"
    assert main(["cost", str(cfg), "--betas", "0", "-o", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 2
    for row in rows:
        assert (row["capex_ec_pct"], row["ec_main_pct"], row["ec_req_pct"]) == ("nan", "nan", "nan")
        assert (row["vcc_req_pct"], row["ec_total_usd"], row["savings_usd"]) == ("100.0", "0.0", "0.0")


def test_cost_beta_sweep_via_config(tmp_path):
    cfg = tmp_path / "beta.cfg"
    cfg.write_text("sweep.axis = beta\nsweep.values = 0, 1e-6, 2e-6\n")
    out = tmp_path / "beta.csv"
    assert main(["sweep", str(cfg), "-o", str(out)]) == 0
    rows = _rows(out)
    assert list(rows[0]) == list(COST_COLUMNS)
    assert [float(r["beta"]) for r in rows] == [0.0, 1e-6, 2e-6]
    # savings fall as the bonus grows
    s = [float(r["savings_usd"]) for r in rows]
    assert s[0] > s[1] > s[2]


def test_cost_bonus_flag_switches_interpretation(tmp_path):
    on = tmp_path / "on.csv"
    off = tmp_path / "off.csv"
    args = ["cost", "--betas", "2e-6", "--scales", "1", "--years", "1"]
    assert main(args + ["-o", str(on), "--bonus-in-ec-requests"]) == 0
    assert main(args + ["-o", str(off), "--no-bonus-in-ec-requests"]) == 0
    row_on = _rows(on)[0]
    row_off = _rows(off)[0]
    assert float(row_on["ec_total_usd"]) > float(row_off["ec_total_usd"])
    assert row_on["vcc_total_usd"] == row_off["vcc_total_usd"]


def test_cost_years_default_to_the_config(tmp_path):
    # `--years` used to default to 1 whatever the config's cost.years said
    cfg = tmp_path / "cost.cfg"
    cfg.write_text("cost.years = 4\n")
    from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    assert main(["cost", str(cfg), "-o", str(from_config)]) == 0
    assert main(["cost", str(cfg), "--years", "4", "-o", str(from_flag)]) == 0
    assert from_config.read_bytes() == from_flag.read_bytes()
    assert {row["years"] for row in _rows(from_config)} == {"4.0"}
    # the flag still wins, and the beta sweep reads the key alike
    assert main(["cost", str(cfg), "--years", "2", "-o", str(from_flag)]) == 0
    assert {row["years"] for row in _rows(from_flag)} == {"2.0"}
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("cost.years = 4\nsweep.axis = beta\nsweep.values = 0, 1e-6, 2e-6\n")
    assert main(["sweep", str(sweep), "-o", str(from_flag)]) == 0
    assert from_flag.read_text().splitlines() == from_config.read_text().splitlines()[:4]


def test_beta_sweep_and_cost_read_the_bonus_flag_alike(tmp_path):
    off = "cost.bonus_in_ec_requests = false\n"
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text("sweep.axis = beta\nsweep.values = 1e-6\n" + off)
    cost_cfg = tmp_path / "cost.cfg"
    cost_cfg.write_text(off)
    swept = tmp_path / "sweep.csv"
    costed = tmp_path / "cost.csv"
    assert main(["sweep", str(sweep_cfg), "-o", str(swept)]) == 0
    assert main(["cost", str(cost_cfg), "--betas", "1e-6", "--scales", "1", "-o", str(costed)]) == 0
    assert swept.read_bytes() == costed.read_bytes()
    assert _rows(swept)[0]["ec_total_usd"] == "199168.46000000002"


def test_anova_table_matches_the_hand_example(tmp_path):
    data = tmp_path / "groups.csv"
    data.write_text(
        "group,value\na,1\na,2\na,3\nb,4\nb,5\nb,6\n"
    )
    out = tmp_path / "anova.csv"
    assert main(["anova", str(data), "-o", str(out)]) == 0
    rows = _rows(out)
    assert list(rows[0]) == list(ANOVA_COLUMNS)
    factor, resid = rows
    assert factor["source"] == "C(group)"
    assert float(factor["sum_sq"]) == 13.5
    assert factor["df"] == "1"
    assert float(factor["F"]) == 13.5
    assert float(factor["PR(>F)"]) == pytest.approx(0.02131164112875673, abs=1e-13)
    assert resid["source"] == "Residual"
    assert float(resid["sum_sq"]) == 4.0
    assert resid["df"] == "4"
    assert resid["F"] == "" and resid["PR(>F)"] == ""


def test_anova_custom_columns_and_missing_column_error(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    data.write_text("strategy,latency\nec,1.0\nec,1.1\nvcc,2.0\nvcc,2.2\n")
    assert main(["anova", str(data), "--group-col", "strategy", "--value-col", "latency"]) == 0
    capsys.readouterr()
    assert main(["anova", str(data), "--group-col", "nope"]) == 1
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_anova_rejects_a_non_finite_value_naming_its_line(tmp_path, capsys, raw):
    data = tmp_path / "groups.csv"
    data.write_text(f"group,value\na,1\na,{raw}\nb,4\nb,5\n")
    assert main(["anova", str(data)]) == 1
    err = capsys.readouterr().err
    assert "line 3: value is not finite" in err and "[0, 1]" not in err


def test_anova_whose_sums_overflow_exits_nonzero(tmp_path, capsys):
    # used to end in an OverflowError traceback
    data = tmp_path / "groups.csv"
    data.write_text("group,value\na,1e308\na,1e308\nb,1\nb,2\n")
    assert main(["anova", str(data), "-o", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "offloadsim: observations too large: a sum of squares overflows\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["cost", "-o", "/dev/full"], ["run", "run.cfg", "-o", "agg.csv", "--records", "/dev/full"]])
def test_a_full_device_exits_nonzero_with_a_message(tmp_path, capsys, monkeypatch, argv):
    # each used to end in an OSError traceback from closing the device
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(RUN_CFG)
    assert main(argv) == 1
    assert capsys.readouterr().err == "offloadsim: cannot write /dev/full: No space left on device\n"
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]  # the aggregates are not left behind


def _cli(argv, stdout, cwd=None) -> subprocess.CompletedProcess:
    """``offloadsim`` in a child process whose standard output is ``stdout``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "offloadsim", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, cwd=cwd,
        text=True, timeout=60,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_full_standard_output_exits_nonzero_with_one_message(tmp_path):
    # used to end in an OSError traceback from the interpreter's last flush
    message = "offloadsim: cannot write standard output: No space left on device\n"
    with open("/dev/full", "w") as full:
        done = _cli(["cost"], full)
        assert (done.returncode, done.stderr) == (1, message)
        # a summary that cannot be printed fails the call, which then leaves no file
        (tmp_path / "run.cfg").write_text(RUN_CFG)
        done = _cli(["run", "run.cfg", "-o", "agg.csv", "--records", "records.csv"], full, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (1, message)
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_a_closed_pipe_on_standard_output_exits_nonzero_with_one_message():
    # as `offloadsim cost | head -1` can meet it: used to end in a BrokenPipeError traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _cli(["cost"], write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "offloadsim: cannot write standard output: Broken pipe\n"


def test_config_errors_exit_nonzero_with_a_message(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("strategy = ECFirst\nbogus = 1\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "line 2" in err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["duration = inf", "request_rate = nan"])
def test_non_finite_run_parameters_exit_nonzero(tmp_path, capsys, line):
    # `duration = inf` used to generate arrivals forever, and
    # `request_rate = nan` to write an empty run with exit code 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"strategy = ECFirst\n{line}\n")
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2" in captured.err and "finite" in captured.err


def test_float_cells_use_repr_for_exactness(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "agg.csv"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    text = out.read_text()
    mean_cell = text.splitlines()[1].split(",")[6]
    assert float(mean_cell) == float(repr(float(mean_cell)))
    assert "." in mean_cell or "nan" in mean_cell


@pytest.mark.parametrize(
    "flag, value, why",
    [
        ("--betas", "nan", "must be finite"),
        ("--years", "inf", "must be finite"),
        ("--scales", "1/0", "expects a number"),
        ("--years", "0", "must be positive"),
        ("--betas", "-1", "must be nonnegative"),
        ("--scales", "-1", "must be nonnegative"),
    ],
)
def test_cost_flags_reject_non_finite_numbers(capsys, flag, value, why):
    # `--betas nan` used to write a table of nan with exit code 0, `--years inf`
    # to die with an OverflowError traceback, `--years 0` and `--betas -1` with
    # a ValueError one, and `--scales -1` to exit 0 with negative totals
    assert main(["cost", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} {why}" in captured.err and repr(value) in captured.err


def test_cost_totals_that_overflow_exit_nonzero(capsys):
    # used to exit 0 and print nan,nan,nan,100.0,nan,inf,nan
    assert main(["cost", "--years", "1e308", "--scales", "1", "--betas", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "years 1e+308" in captured.err and "is not finite" in captured.err


def test_the_cli_imports_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, offloadsim.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout == "False\n"


def test_the_cli_imports_without_dataclasses_or_inspect():
    # importing dataclasses pulls in inspect, ast, dis and tokenize at every start
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = "import sys, offloadsim.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("module", ["offloadsim", "offloadsim.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    # offloadsim.cli used to exit 0 without running anything or writing the
    # file, and offloadsim to fail with "No module named offloadsim.__main__"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "agg.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", module, "run", str(cfg), "-o", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert "50 requests" in done.stdout
    assert main(["run", str(cfg), "-o", str(tmp_path / "main.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_an_unwritable_output_path_exits_nonzero_with_a_message(tmp_path, capsys, monkeypatch):
    # each used to end in a FileNotFoundError or IsADirectoryError traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    missing = tmp_path / "missing" / "x.csv"
    (tmp_path / "agg.csv").write_bytes(b"earlier output\n")
    for flags, path, why in [
        (["-o", str(missing)], missing, "No such file or directory"),
        (["-o", str(tmp_path)], tmp_path, "Is a directory"),
        (["-o", str(tmp_path / "agg.csv"), "--records", str(missing)], missing, "No such file or directory"),
        (["-o", str(tmp_path / "new.csv"), "--records", str(missing)], missing, "No such file or directory"),
    ]:
        assert main(["run", str(cfg)] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"offloadsim: cannot write {path}: {why}\n"
        # the aggregates of a run whose records cannot be written change no file
        assert (tmp_path / "agg.csv").read_bytes() == b"earlier output\n"
        assert not (tmp_path / "new.csv").exists()
    # a file that cannot be replaced keeps its bytes, and no temporary file is left
    out = tmp_path / "agg.csv"

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["run", str(cfg), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"offloadsim: cannot write {out}: Permission denied\n"
    assert out.read_bytes() == b"earlier output\n"
    assert sorted(os.listdir(tmp_path)) == ["agg.csv", "run.cfg"]


@pytest.mark.parametrize("lines, named", [
    ("vehicles.speed_mps = 1e308\nduration = 3", 4),  # offset + speed x t overflowed past t = 1.8 s
    ("scenario.length_x = 1e308", 3),  # the perimeter itself
])
def test_a_fleet_whose_positions_overflow_exits_nonzero_naming_a_line(tmp_path, capsys, lines, named):
    # each used to exit 0 with every coverage window nan: coverage froze where the position overflowed
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"strategy = VCCFirst\nscenario.preset = partial_coverage\n{lines}\n")
    out = tmp_path / "agg.csv"
    assert main(["run", str(cfg), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"offloadsim: line {named}: vehicle positions overflow: loop perimeter + speed x duration must be finite\n"
    )


def test_a_speed_sweep_whose_positions_overflow_names_its_values_line(tmp_path, capsys):
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    sweep = "strategy = VCCFirst\nusers = 0\nsweep.axis = speed\nsweep.values = 50, 1e308\n"
    cfg.write_text(sweep)
    assert main(["sweep", str(cfg), "-o", str(out)]) == 0  # an unbounded cell reads no position
    cfg.write_text(sweep + "scenario.preset = partial_coverage\n")
    assert main(["sweep", str(cfg), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("offloadsim: line 4: sweep.values 1e+308: vehicle positions overflow") and err.count("\n") == 1


@pytest.mark.parametrize("line", [
    "scenario.coverage_radius = 1e200",  # its square overflowed in the coverage test
    "scenario.bs_z = 1e200",  # and the mast height's
    "channel.vue_down.rate = 5e-324",  # a shared share of it underflowed to a zero divisor
])
def test_extreme_partial_coverage_configs_run_to_the_end(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"strategy = VCCFirst\nscenario.preset = partial_coverage\nduration = 1\n{line}\n")
    out = tmp_path / "agg.csv"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (row,) = _rows(out)
    assert row["n_requests"] == "40"
    if "rate" in line:  # every vehicular forward leg takes forever: no task ends
        assert row["n_in_flight"] == "40" and row["vehicles_used"] != "0"


# Edge values of the config keys and the cost flags, then small ones, so that
# many calls parse and run.
_EDGE = st.sampled_from(("0", "-0", "1e-300", "1e308", "1/3", "3/2", "1/128"))
_VALUE = st.one_of(_EDGE, st.sampled_from(("1", "2", "90", "VCCFirst", "partial_coverage")))
_NUMBERS = st.lists(st.one_of(_EDGE, st.sampled_from(("1", "0.5"))), min_size=1, max_size=2).map(",".join)
# Where an output goes: stdout, a new file, a file that holds earlier bytes, a
# missing directory's file, a directory, or a device.
_DEVICES = (os.devnull, "/dev/full") if os.path.exists("/dev/full") else (os.devnull,)
_WHERE = st.sampled_from((None, "new", "old", "missing", "dir") + _DEVICES)
_EARLIER = b"earlier output\n"


def _rows_of(command, argv, text):
    """Per requested file flag: its header and its number of rows, as a
    successful call writes them."""
    if command == "run":
        cfg = config.parse_run_config(text)
        n = len(engine.generate_arrivals(cfg, random.Random(cfg.seed)))
        return {"-o": (("seed",) + AGGREGATE_COLUMNS, 1), "--records": (engine.RECORD_FIELDS, n)}
    if command == "sweep":
        spec = config.parse_sweep_spec(text)
        if spec.axis == "beta":
            return {"-o": (COST_COLUMNS, len(spec.values))}
        seeds = next((len(a.split("=")[1].split(",")) for a in argv if a.startswith("--seed-list=")), len(spec.seeds))
        return {"-o": (("axis", "value", "seed") + AGGREGATE_COLUMNS, len(spec.values) * (seeds + 1))}
    if command == "cost":
        sizes = {"--betas": 3, "--years": 1, "--scales": 2}  # the flags' defaults
        sizes.update((a.split("=")[0], len(a.split(","))) for a in argv if a.split("=")[0] in sizes)
        return {"-o": (COST_COLUMNS, math.prod(sizes.values()))}
    return {"-o": (ANOVA_COLUMNS, 2)}


def _small_enough(command, text) -> bool:
    """Whether every run the call would make stays small: at most 2,000
    arrivals, 200 vehicles and 10^5 beacons, as the config fuzz caps them."""
    try:
        if command == "run":
            cfgs = [config.parse_run_config(text)]
        elif command == "sweep":
            spec = config.parse_sweep_spec(text)
            cfgs = [] if spec.axis == "beta" else [config.apply_axis(spec.base_run, spec.axis, v, 0) for v in spec.values]
        else:
            return True
    except config.ConfigError:
        return True
    for cfg in cfgs:
        beacons = cfg.n_vehicles * cfg.duration / cfg.beacon_period if cfg.strategy == "VCCFirst" else 0
        if cfg.n_users * math.ceil(cfg.duration * cfg.request_rate) > 2000 or cfg.n_vehicles > 200 or beacons > 1e5:
            return False
    return True


def test_every_cli_call_ends_in_complete_files_or_one_message():
    """All four subcommands on edge values from the config keys and the cost
    flags, writing to every kind of output path: each call exits 0 with every
    requested file complete, or exits 1 with one ``offloadsim:`` line on
    stderr, no traceback and no file changed."""
    outcomes = Counter()

    @settings(max_examples=examples(40), deadline=None, derandomize=True)
    @given(
        strategy=st.sampled_from(("ECFirst", "VCCFirst")),
        entries=st.dictionaries(st.sampled_from(tuple(config._KEYS)), _VALUE, max_size=2),
        axis=st.sampled_from(config.SWEEP_AXES),
        values=_NUMBERS,
        flags=st.dictionaries(st.sampled_from(("--betas", "--years", "--scales", "--seed-list")), _NUMBERS, max_size=2),
        bonus=st.sampled_from(((), ("--bonus-in-ec-requests",), ("--no-bonus-in-ec-requests",))),
        outputs=st.tuples(_WHERE, _WHERE),
    )
    def check(strategy, entries, axis, values, flags, bonus, outputs):
        for command in ("run", "sweep", "cost", "anova"):
            lines = {"strategy": strategy, "users": "2", "duration": "1", "vehicles.count": "10"}
            if command == "sweep":
                lines.update({"sweep.axis": axis, "sweep.values": values, "sweep.replications": "1"})
            elif command == "cost":
                lines = {}
            lines.update(entries)
            text = "".join(f"{key} = {value}\n" for key, value in lines.items())
            if command == "anova":
                rows = zip(("a", "a", "b", "b"), (values + ",1,2,3").split(","))
                text = "group,value\n" + "".join(f"{g},{v}\n" for g, v in rows)
            if _small_enough(command, text):
                outcomes[command, _call(command, text, entries, flags, bonus, outputs)] += 1

    check()
    assert all(outcomes[command, code] >= 5 for command in ("run", "sweep", "cost", "anova") for code in (0, 1)), outcomes


def _call(command, text, entries, flags, bonus, outputs) -> int:
    """Call ``main`` once in a fresh directory, check the contract, and return the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "input.cfg")
        with open(source, "w") as fh:
            fh.write(text)
        argv = [command] + ([source] if command != "cost" or entries else [])
        if command == "cost":
            argv += [f"{flag}={value}" for flag, value in flags.items() if flag != "--seed-list"] + list(bonus)
        elif command == "sweep" and "--seed-list" in flags:
            argv.append(f"--seed-list={flags['--seed-list']}")
        requested = {}
        for flag, where in zip(("-o", "--records"), outputs):
            if where is None or flag == "--records" and command != "run":
                continue
            path = {"new": f"{tmp}/{flag[-1]}.csv", "old": f"{tmp}/{flag[-1]}.old.csv",
                    "missing": f"{tmp}/missing/x.csv", "dir": tmp}.get(where, where)
            if where == "old":
                with open(path, "wb") as fh:
                    fh.write(_EARLIER)
            argv += [flag, path]
            requested[flag] = (where, path)
        if command == "run" and "-o" not in requested and "--records" in requested:
            argv += ["-o", os.devnull]  # run writes its records beside an aggregates file

        def files():
            return {name: Path(tmp, name).read_bytes() for name in os.listdir(tmp) if Path(tmp, name).is_file()}

        before = files()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        after, message = files(), err.getvalue()
        assert "Traceback" not in message
        if code == 1:
            assert message.startswith("offloadsim: ") and message.count("\n") == 1, message
            assert after == before, argv  # no file changed, and no temporary one left
            return code
        assert code == 0 and message == "", (argv, message)
        expected = _rows_of(command, argv, text)
        for flag, (where, path) in requested.items():
            assert where in ("new", "old", os.devnull), argv
            if where != os.devnull:
                header, n = expected[flag]
                with open(path, newline="") as fh:
                    table = list(csv.reader(fh))
                assert tuple(table[0]) == tuple(header) and len(table) == n + 1, argv
                assert all(len(row) == len(header) for row in table), argv
                assert after[os.path.basename(path)].endswith(b"\n")
        assert set(after) == set(before) | {os.path.basename(p) for w, p in requested.values() if w == "new"}
        return code
