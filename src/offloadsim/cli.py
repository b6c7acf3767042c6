"""Command-line front end: run, sweep, cost, anova.

Every subcommand emits RFC-4180-style CSV, to --output or to standard output,
in the bytes ``csv.writer(lineterminator="\\n")`` would write: floats with repr,
ints with str, None as an empty cell, and other values (strings) quoted by the
csv module itself, so identical runs produce byte-identical files. Rows are
formatted in blocks of ``_BLOCK_ROWS``, column by column, and a value repeated
within a block column is formatted once; ``run --records`` passes the run's
``engine.Records``, whose blocks are slices of its columns, so no row is built.
A table of ``_PARALLEL_ROWS`` rows or more is split into contiguous shares
formatted at once on the usable CPUs, in worker processes forked by
``workers.forked``; this process writes the shares out in order, so the bytes
never depend on the worker count. Under ``taskset -c 0``, while another thread
runs, or for a shorter table, one process writes it all. A file is written
whole or not at all. When writing to a file, a short human-readable summary
goes to stdout instead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import marshal
import math
import os
import sys
from array import array
from dataclasses import replace
from itertools import islice, repeat
from pathlib import Path

from .config import (
    ConfigError,
    SweepSpec,
    apply_axis,
    bonus_in_ec_requests,
    parse_cost_params,
    parse_list,
    parse_run_config,
    parse_seed_list,
    parse_sweep_spec,
)
from .costmodel import CostParams, cost_breakdown, savings
from .engine import AGGREGATE_FIELDS, Aggregates, RECORD_FIELDS, Records, run, summarize, summarize_runs
from .stats import anova_oneway
from .workers import forked, worker_count

# Aggregates fields in order, as CSV columns: latencies carry their unit.
_UNITS = {"mean_total": "mean_total_s", "p90": "p90_s", "p95": "p95_s", "p99": "p99_s"}
AGGREGATE_COLUMNS = tuple(_UNITS.get(name, name) for name in AGGREGATE_FIELDS)

COST_COLUMNS = (
    "request_scale",
    "years",
    "beta",
    "capex_ec_pct",
    "ec_main_pct",
    "ec_req_pct",
    "vcc_req_pct",
    "ec_total_usd",
    "vcc_total_usd",
    "savings_usd",
)

ANOVA_COLUMNS = ("source", "sum_sq", "df", "F", "PR(>F)")


# Rows formatted per write: enough to share each repeated cell's text, few
# enough that a long table never sits in memory whole.
_BLOCK_ROWS = 512
# Tables this long or longer are formatted on the usable CPUs: below it the
# fork costs about what a second worker saves.
_PARALLEL_ROWS = 4 * _BLOCK_ROWS


class _Echo:
    """A file whose write returns the line, so a csv writer's writerow returns it."""

    @staticmethod
    def write(line: str) -> str:
        return line


def _csv_line(row) -> str:
    """The line the csv module writes for one row."""
    return csv.writer(_Echo, lineterminator="\n").writerow(row)


# The csv module quotes a row's only cell when it is empty, so the line is not blank.
_LONE_EMPTY = _csv_line(("",))[:-1]
_PLAIN = {float: repr, int: str}
_MEMO_KINDS = ({float}, {int}, {str})


def _cell(value) -> str:
    """One cell as the csv module writes it beside others; it quotes strings."""
    if value is None:
        return ""
    plain = _PLAIN.get(type(value))
    return plain(value) if plain else _csv_line((value, None))[:-2]


def _column_cells(values):
    """The cells of one block column, formatting each value repeated in it once.

    Only a column of one type (besides None) gets a memo, since equal values of
    different types can print differently (1 and 1.0). So can 0.0 and -0.0, so
    a float column holding a zero gets a memo only when it holds no None and
    all its values share one sign. An ``array('d')`` holds floats only and is
    memoized by their bits: equal bits print alike, and 0.0 and -0.0 differ.
    """
    if getattr(values, "typecode", None) == "d":
        bits = array("q", values.tobytes())
        distinct = array("q", set(bits))
        if 2 * len(distinct) > len(values):
            return map(repr, values)
        return map(dict(zip(distinct, map(repr, array("d", distinct.tobytes())))).__getitem__, bits)
    kinds = set(map(type, values))
    if kinds - {type(None)} in _MEMO_KINDS:
        distinct = set(values)
        if 2 * len(distinct) <= len(values) and (
            float not in kinds
            or 0.0 not in distinct
            or (kinds == {float} and len(set(map(math.copysign, repeat(1.0), values))) == 1)
        ):
            memo = {value: _cell(value) for value in distinct}
            return map(memo.__getitem__, values)
    plain = _PLAIN.get(next(iter(kinds))) if len(kinds) == 1 else None
    return map(plain or _cell, values)


def _csv_block(n: int, columns) -> str:
    """The CSV text of n rows given as equal-length columns, each line ending in \\n."""
    cells = [_column_cells(values) for values in columns]
    if len(cells) == 1:
        cells = [[_LONE_EMPTY if cell == "" else cell for cell in cells[0]]]
    lines = map(",".join, zip(*cells)) if cells else repeat("", n)
    return "\n".join(lines) + "\n"


def _write_csv(path: str | None, header, rows) -> None:
    """Write the header and rows to the path, all or nothing, or to stdout.

    ``rows`` is any iterable of sequences, ``engine.Records`` included, taken
    ``_BLOCK_ROWS`` at a time, so memory stays flat. A list, tuple or
    ``Records`` of ``_PARALLEL_ROWS`` rows or more is formatted by
    ``_write_forked`` on the usable CPUs, in the same bytes; other iterables
    have no length to split by. A regular file is written under a temporary
    name in its directory and renamed over the path once complete, so on any
    failure the path keeps what it held before.
    """
    if path and (not os.path.exists(path) or os.path.isfile(path)):
        path = os.path.realpath(path) if os.path.islink(path) else path  # through a link, as open would
        temporary = f"{path}.{os.getpid()}.tmp"
        try:
            with open(temporary, "w", newline="") as out:
                _write_table(out, header, rows)
            os.replace(temporary, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)  # left only by a failure
    else:  # stdout, or a device or pipe such as /dev/null, written in place
        with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as out:
            _write_table(out, header, rows)


def _write_table(out, header, rows) -> None:
    out.write(_csv_block(1, zip(header)))
    parallel = isinstance(rows, (list, tuple, Records)) and len(rows) >= _PARALLEL_ROWS
    n = worker_count(len(rows) // _BLOCK_ROWS) if parallel else 1
    if n > 1:
        _write_forked(out, rows, n)
    else:
        out.writelines(_block_texts(rows))


def _block_texts(rows):
    """The CSV text of each ``_BLOCK_ROWS`` rows of a table, in order."""
    if isinstance(rows, Records):  # sliced column by column
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start : start + _BLOCK_ROWS]
            yield _csv_block(len(block), block.columns)
        return
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK_ROWS)):
        if len(set(map(len, block))) > 1:
            raise ValueError("CSV rows must all have the same length")
        yield _csv_block(len(block), zip(*block))


def _write_forked(out, rows, n: int) -> None:
    """Write ``rows`` with n workers, each formatting one contiguous share.

    This process formats share 0 and writes it. Each forked worker formats its
    whole share first, since a pipe holds less than one block and a worker
    writing as it goes would wait on this process's share, and then sends the
    text block by block as ``marshal`` strings, then None. This process copies
    the shares out in order, one block at a time.
    """
    size = -(-len(rows) // n)

    def share(k: int, pipe) -> None:
        texts = list(_block_texts(rows[k * size : (k + 1) * size]))
        for text in texts:
            marshal.dump(text, pipe)
        marshal.dump(None, pipe)

    with forked(n, share) as pipes:
        out.writelines(_block_texts(rows[:size]))
        for pipe in pipes:
            # EOFError here means the worker died; leaving the block reports it
            while (text := marshal.load(pipe)) is not None:
                out.write(text)


def _aggregate_values(agg: Aggregates) -> list:
    return [getattr(agg, name) for name in AGGREGATE_FIELDS]


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def _cmd_run(args) -> int:
    cfg = parse_run_config(_read_config(args.config))
    records = run(cfg)
    agg = summarize(records)
    _write_csv(args.output, ("seed",) + AGGREGATE_COLUMNS, [[cfg.seed] + _aggregate_values(agg)])
    if args.records:
        _write_csv(args.records, RECORD_FIELDS, records)
    if args.output:
        ms = agg.mean_total * 1e3
        print(
            f"{cfg.strategy} seed {cfg.seed}: {agg.n_requests} requests, "
            f"{agg.n_success} ok, {agg.n_failed} failed, {agg.n_in_flight} in flight; "
            f"mean {ms:.3f} ms, cloud share {agg.cc_share_pct:.2f}%"
        )
    return 0


def _sweep_rows(spec: SweepSpec):
    """Per-seed rows plus one mean row per axis value, in declaration order.

    The points run through ``summarize_runs``, so they share the usable CPUs.
    """
    cfgs = [apply_axis(spec.base_run, spec.axis, value, seed) for value in spec.values for seed in spec.seeds]
    aggs = iter(summarize_runs(cfgs))
    rows = []
    for value in spec.values:
        per_seed = []
        for seed in spec.seeds:
            per_seed.append(_aggregate_values(next(aggs)))
            rows.append([spec.axis, value, seed] + per_seed[-1])
        means = []
        for col in range(len(AGGREGATE_COLUMNS)):
            cells = [r[col] for r in per_seed]
            means.append(math.nan if any(math.isnan(c) for c in cells) else sum(cells) / len(cells))
        rows.append([spec.axis, value, "mean"] + means)
    return rows


def _cost_rows(base: CostParams, betas, years, scales, bonus_flag: bool):
    rows = []
    for scale in scales:
        for year in years:
            for beta in betas:
                p = replace(base, years=year, beta=beta, c_vcc_req=None)
                try:
                    row = cost_breakdown(p, [beta], scale, bonus_flag)[0]
                    saved = savings(p, scale)
                except ValueError as exc:
                    raise ConfigError(f"cost at scale {scale!r}, years {year!r}, beta {beta!r}: {exc}") from None
                rows.append(
                    [
                        scale,
                        year,
                        beta,
                        row.capex_ec_pct,
                        row.ec_main_pct,
                        row.ec_req_pct,
                        row.vcc_req_pct,
                        row.ec_total,
                        row.vcc_total,
                        saved,
                    ]
                )
    return rows


def _cmd_sweep(args) -> int:
    text = _read_config(args.config)
    spec = parse_sweep_spec(text)
    if args.seed_list is not None:
        if spec.axis == "beta":
            raise ConfigError("--seed-list does not apply to a beta sweep, which runs nothing")
        spec = replace(spec, seeds=parse_seed_list(args.seed_list))
    if spec.axis == "beta":
        flag = bonus_in_ec_requests(text)
        rows = _cost_rows(spec.base_cost, spec.values, [spec.base_cost.years], [1.0], flag)
        _write_csv(args.output, COST_COLUMNS, rows)
    else:
        rows = _sweep_rows(spec)
        _write_csv(args.output, ("axis", "value", "seed") + AGGREGATE_COLUMNS, rows)
    if args.output:
        print(f"sweep over {spec.axis}: {len(spec.values)} values -> {args.output}")
    return 0


def _cmd_cost(args) -> int:
    text = _read_config(args.config) if args.config else ""
    base = parse_cost_params(text)
    flag = args.bonus_in_ec_requests
    if flag is None:
        flag = bonus_in_ec_requests(text)
    betas = parse_list(args.betas, "--betas")
    years = parse_list(args.years, "--years")
    scales = parse_list(args.scales, "--scales")
    rows = _cost_rows(base, betas, years, scales, flag)
    _write_csv(args.output, COST_COLUMNS, rows)
    if args.output:
        print(f"{'scale':>8} {'years':>6} {'beta':>10} {'capex%':>8} {'main%':>8} {'req%':>8} {'vcc%':>8}")
        for r in rows:
            print(
                f"{r[0]:>8g} {r[1]:>6g} {r[2]:>10.2e} "
                f"{r[3]:>8.2f} {r[4]:>8.2f} {r[5]:>8.2f} {r[6]:>8.2f}"
            )
    return 0


def _cmd_anova(args) -> int:
    groups: dict[str, list[float]] = {}
    try:
        with open(args.csv, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or args.group_col not in reader.fieldnames:
                raise ConfigError(f"{args.csv}: no column named {args.group_col!r}")
            if args.value_col not in reader.fieldnames:
                raise ConfigError(f"{args.csv}: no column named {args.value_col!r}")
            for row_no, row in enumerate(reader, 2):
                try:
                    value = float(row[args.value_col])
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"{args.csv} line {row_no}: {args.value_col} is not a number"
                    ) from None
                if not math.isfinite(value):
                    raise ConfigError(f"{args.csv} line {row_no}: {args.value_col} is not finite")
                groups.setdefault(row[args.group_col], []).append(value)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.csv}: {exc}") from None
    try:
        result = anova_oneway(list(groups.values()))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = [
        [f"C({args.group_col})", result.sum_sq_factor, result.df_factor, result.f_stat, result.p_value],
        ["Residual", result.sum_sq_resid, result.df_resid, None, None],
    ]
    _write_csv(args.output, ANOVA_COLUMNS, rows)
    if args.output:
        print(f"{'source':<16} {'sum_sq':>14} {'df':>6} {'F':>12} {'PR(>F)':>12}")
        print(
            f"{rows[0][0]:<16} {result.sum_sq_factor:>14.6g} {result.df_factor:>6} "
            f"{result.f_stat:>12.6g} {result.p_value:>12.6g}"
        )
        print(f"{'Residual':<16} {result.sum_sq_resid:>14.6g} {result.df_resid:>6}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offloadsim",
        description="Deterministic three-tier task-offloading simulator and cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration and emit its aggregates")
    p_run.add_argument("config", help="run configuration file")
    p_run.add_argument("-o", "--output", help="aggregates CSV path (default: stdout)")
    p_run.add_argument("--records", help="also write one CSV row per task to this path")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="replicate runs over an axis of values")
    p_sweep.add_argument("config", help="sweep configuration file (sweep.axis, sweep.values)")
    p_sweep.add_argument("-o", "--output", help="CSV path (default: stdout)")
    p_sweep.add_argument(
        "--seed-list",
        help="comma-separated replication seeds (default: 0,1,2,3,4,6,7,8,9)",
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_cost = sub.add_parser("cost", help="edge versus vehicular cost tables")
    p_cost.add_argument("config", nargs="?", help="cost configuration file (optional)")
    p_cost.add_argument("-o", "--output", help="CSV path (default: stdout)")
    p_cost.add_argument("--betas", default="0,1e-6,2e-6", help="per-request bonus levels")
    p_cost.add_argument("--years", default="1", help="horizons in years")
    p_cost.add_argument("--scales", default="1,0.01", help="request-volume scale factors")
    p_cost.add_argument(
        "--bonus-in-ec-requests",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="add the bonus to the edge per-request column of breakdown tables (default: on)",
    )
    p_cost.set_defaults(fn=_cmd_cost)

    p_anova = sub.add_parser("anova", help="one-way ANOVA over a CSV of grouped observations")
    p_anova.add_argument("csv", help="input CSV with a group column and a value column")
    p_anova.add_argument("-o", "--output", help="CSV path (default: stdout)")
    p_anova.add_argument("--group-col", default="group")
    p_anova.add_argument("--value-col", default="value")
    p_anova.set_defaults(fn=_cmd_anova)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"offloadsim: {exc}", file=sys.stderr)
        return 1
