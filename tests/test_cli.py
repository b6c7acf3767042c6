"""The four subcommands end to end, through main() with temp files."""

import csv
import math
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_sweep_seed_list_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "strategy = ECFirst\nduration = 5\nsweep.axis = users\nsweep.values = 1\n"
    )
    out = tmp_path / "s.csv"
    assert main(["sweep", str(cfg), "-o", str(out), "--seed-list", "5,9"]) == 0
    rows = _rows(out)
    assert [r["seed"] for r in rows] == ["5", "9", "mean"]


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
    [("--betas", "nan", "must be finite"), ("--years", "inf", "must be finite"), ("--scales", "1/0", "expects a number")],
)
def test_cost_flags_reject_non_finite_numbers(capsys, flag, value, why):
    # `--betas nan` used to write a table of nan with exit code 0, and
    # `--years inf` to die with an OverflowError traceback
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
