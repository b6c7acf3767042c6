"""Command-line front end: run, sweep, cost, anova.

Each subcommand returns its tables as (path, header, rows), in write order,
and its summary lines; ``main`` alone writes them, a path of None to standard
output, and prints the summary when ``--output`` names a file. Every table is
RFC-4180-style CSV in the bytes ``csv.writer(lineterminator="\\n")`` would
write: floats with repr, ints with str, None as an empty cell and strings
quoted by the csv module, so identical runs produce byte-identical files.
Every table but ``run --records`` is written by ``csv.writer`` itself. The
records, an ``engine.Records``, are formatted in this process ``_BLOCK_ROWS``
rows at a time from slices of their columns, so no row is built. A column
formats each value once per table through one memo, floats keyed by their bits
(0.0 and -0.0 differ) and lists by value, and adds a block's values only when
one is missing. A block whose distinct values would take the memo past
``_BLOCK_ROWS`` entries starts it over from that block. Task ids (a ``range``),
and floats more than half distinct in a block that finds the memo empty (first,
or just started over), print with repr for the rest of the column instead.
``main`` writes every table before it renames any: a regular or
new file goes to a temporary ``<path>.<pid>.tmp`` beside it, a device or
standard output is written in place; then the summary is printed, then each
temporary is renamed over its path, in order. So a call that fails while
writing or printing changes no file, and ``run``'s two files are written both
or neither. A rename that fails after an earlier one succeeded puts the earlier
path's previous file back from a hard link, where the file system has them. An
empty path, or a path or standard output that cannot be written, is reported
like an unreadable config.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import os
import sys
from array import array
from pathlib import Path

from .config import (
    ConfigError,
    SweepSpec,
    apply_axis,
    parse_cost_params,
    parse_list,
    parse_run_config,
    parse_seed_list,
    parse_sweep_spec,
)
from .costmodel import BONUS_IN_EC_REQUESTS, CostParams, CostRow, cost_row
from .engine import AGGREGATE_FIELDS, RECORD_FIELDS, REPLICATION_SEEDS, Records, run, summarize, summarize_runs
from .stats import anova_oneway, left_sum

# Aggregates fields in order, as CSV columns: latencies carry their unit.
_UNITS = {"mean_total": "mean_total_s", "p90": "p90_s", "p95": "p95_s", "p99": "p99_s"}
AGGREGATE_COLUMNS = tuple(_UNITS.get(name, name) for name in AGGREGATE_FIELDS)

COST_COLUMNS = ("request_scale", "years", "beta", *CostRow._fields)

ANOVA_COLUMNS = ("source", "sum_sq", "df", "F", "PR(>F)")


# Records formatted per write, and the most cells a column's memo holds: few
# enough that a long table never sits in memory whole.
_BLOCK_ROWS = 512


class _Echo:
    """A file whose write returns the line, so a csv writer's writerow returns it."""

    @staticmethod
    def write(line: str) -> str:
        return line


# The terminator as in the output: the csv module quotes a cell holding one of its characters.
_QUOTED = csv.writer(_Echo, lineterminator="\n")


def _cell(value) -> str:
    """One cell as the csv module writes it beside others: None empty, an int
    with str and a string quoted where it must be."""
    return _QUOTED.writerow((value, None))[:-2]


@contextlib.contextmanager
def _writing(path: str | None):
    """Report an OSError raised inside as the path not being writable. A path
    of None is standard output, flushed before the block ends."""
    try:
        yield
        if path is None:
            sys.stdout.flush()
    except OSError as exc:
        if path is None:  # the interpreter flushes it again at exit: what is left goes nowhere
            with contextlib.suppress(OSError):  # a stdout with no descriptor (io.UnsupportedOperation) opens nothing
                fd = sys.stdout.fileno()
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        where = "standard output" if path is None else path
        raise ConfigError(f"cannot write {where}: {exc.strerror or exc}") from None


def _write_csv(path: str | None, header, rows) -> None:
    """Write the header and rows to the path, or to standard output when the
    path is None: an ``engine.Records`` by blocks (see the module docstring),
    any other iterable of rows through ``csv.writer``."""
    with open(path, "w", newline="") if path is not None else contextlib.nullcontext(sys.stdout) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, Records):
            for text in _block_texts(rows):
                out.write(text)
        else:
            writer.writerows(rows)


def _replace_in_order(renames) -> None:
    """Rename each (temporary, path) over its path, in order: the one step where
    a call can fail after replacing a file, for example with EBUSY on a
    bind-mounted file or EPERM in a sticky directory. Before its rename, each
    path gets a hard link ``<path>.<pid>.old`` to its previous file; if a
    rename fails, each path renamed before it gets that file back, or is
    removed if it is new. Where hard links are missing, a failure leaves it
    replaced. The caller removes the links."""
    replaced = []  # (path, link to its previous file, or None if it had none)
    try:
        for temporary, path in renames:
            previous = f"{path}.{os.getpid()}.old"
            with contextlib.suppress(FileNotFoundError):
                os.remove(previous)  # left by a killed process of this pid: no call backs a path up twice
            try:
                os.link(path, previous)
                replaced.append((path, previous))
            except FileNotFoundError:  # a new file: a failure removes it
                replaced.append((path, None))
            except OSError:  # no hard links here
                pass
            with _writing(path):
                os.replace(temporary, path)
    except BaseException:
        for path, previous in reversed(replaced):
            with contextlib.suppress(OSError):
                if previous:
                    os.replace(previous, path)
                else:
                    os.remove(path)
        raise


def _block_texts(records: Records):
    """The CSV text of the records, ``_BLOCK_ROWS`` rows at a time, in order,
    each line ending in \\n."""
    for cells in zip(*map(_column_cells, records.columns)):
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _column_cells(values):
    """The cells of a ``Records`` column, one iterable per block."""
    blocks = (values[at : at + _BLOCK_ROWS] for at in range(0, len(values), _BLOCK_ROWS))
    floats = isinstance(values, array)
    memo = {}  # a float's bits, or a list value, to its cell
    for block in blocks:
        keys = array("q", block.tobytes()) if floats else block
        try:
            cells = list(map(memo.__getitem__, keys))
        except KeyError:
            new = set(keys)
            if len(memo) + len(new) > _BLOCK_ROWS:
                memo = {}
            else:
                new.difference_update(memo)
            if isinstance(keys, range) or floats and not memo and 2 * len(new) > len(keys):
                yield from (map(repr, block) for block in itertools.chain((block,), blocks))  # an int's repr is its str
                return
            memo.update(zip(new, map(repr, array("d", array("q", new).tobytes())) if floats else map(_cell, new)))
            cells = map(memo.__getitem__, keys)
        yield cells


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 ({exc.reason})") from None


def _cmd_run(args):
    cfg = parse_run_config(_read_config(args.config))
    records = run(cfg)
    agg = summarize(records)
    tables = [(args.output, ("seed",) + AGGREGATE_COLUMNS, [[cfg.seed, *agg]])]
    if args.records is not None:
        tables.append((args.records, RECORD_FIELDS, records))
    summary = [
        f"{cfg.strategy} seed {cfg.seed}: {agg.n_requests} requests, "
        f"{agg.n_success} ok, {agg.n_failed} failed, {agg.n_in_flight} in flight; "
        f"mean {agg.mean_total * 1e3:.3f} ms, cloud share {agg.cc_share_pct:.2f}%"
    ]
    return tables, summary


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
            per_seed.append(next(aggs))
            rows.append([spec.axis, value, seed, *per_seed[-1]])
        means = [left_sum(cells) / len(cells) for cells in zip(*per_seed)]
        rows.append([spec.axis, value, "mean", *means])
    return rows


def _cmd_sweep(args):
    spec = parse_sweep_spec(_read_config(args.config))
    if args.seed_list is not None:
        spec = spec._replace(seeds=parse_seed_list(args.seed_list))
    tables = [(args.output, ("axis", "value", "seed") + AGGREGATE_COLUMNS, _sweep_rows(spec))]
    return tables, [f"sweep over {spec.axis}: {len(spec.values)} values -> {args.output}"]


def _cmd_cost(args):
    """One row per scale, horizon and bonus, in that nesting; the config sets
    every other cost parameter."""
    base = parse_cost_params(_read_config(args.config) if args.config else "")
    betas = parse_list(args.betas, "--betas", CostParams.KINDS["beta"])
    years = parse_list(args.years, "--years", CostParams.KINDS["years"])
    scales = parse_list(args.scales, "--scales", "nonnegative")
    rows = []
    for scale in scales:
        for year in years:
            for beta in betas:
                try:
                    p = base._replace(years=year, beta=beta)
                    rows.append([scale, year, beta, *cost_row(p, scale, args.bonus_in_ec_requests)])
                except ValueError as exc:
                    raise ConfigError(f"cost at scale {scale!r}, years {year!r}, beta {beta!r}: {exc}") from None
    summary = [f"{'scale':>8} {'years':>6} {'beta':>10} {'capex%':>8} {'main%':>8} {'req%':>8} {'vcc%':>8}"]
    summary += (
        f"{r[0]:>8g} {r[1]:>6g} {r[2]:>10.2e} {r[3]:>8.2f} {r[4]:>8.2f} {r[5]:>8.2f} {r[6]:>8.2f}" for r in rows
    )
    return [(args.output, COST_COLUMNS, rows)], summary


def _cmd_anova(args):
    groups: dict[str, list[float]] = {}
    try:
        with open(args.csv, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or args.group_col not in reader.fieldnames:
                raise ConfigError(f"{args.csv}: no column named {args.group_col!r}")
            if args.value_col not in reader.fieldnames:
                raise ConfigError(f"{args.csv}: no column named {args.value_col!r}")
            for name in (args.group_col, args.value_col):
                if reader.fieldnames.count(name) > 1:
                    raise ConfigError(f"{args.csv}: the header names {name!r} more than once")
            for row in reader:  # reader.line_num: the last line of the row, blank lines counted
                try:
                    value = float(row[args.value_col])
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"{args.csv} line {reader.line_num}: {args.value_col} is not a number"
                    ) from None
                if not math.isfinite(value):
                    raise ConfigError(f"{args.csv} line {reader.line_num}: {args.value_col} is not finite")
                if None in row or None in row.values():  # DictReader's key for extra cells, its value for missing ones
                    more = "more" if None in row else "fewer"
                    raise ConfigError(f"{args.csv} line {reader.line_num}: {more} cells than the header")
                groups.setdefault(row[args.group_col], []).append(value)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.csv}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {args.csv}: not UTF-8 ({exc.reason})") from None
    except csv.Error as exc:
        raise ConfigError(f"{args.csv} line {reader.reader.line_num}: {exc}") from None  # the row is not counted yet
    try:
        result = anova_oneway(list(groups.values()))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = [
        [f"C({args.group_col})", result.sum_sq_factor, result.df_factor, result.f_stat, result.p_value],
        ["Residual", result.sum_sq_resid, result.df_resid, None, None],
    ]
    summary = [
        f"{'source':<16} {'sum_sq':>14} {'df':>6} {'F':>12} {'PR(>F)':>12}",
        f"{rows[0][0]:<16} {result.sum_sq_factor:>14.6g} {result.df_factor:>6} "
        f"{result.f_stat:>12.6g} {result.p_value:>12.6g}",
        f"{'Residual':<16} {result.sum_sq_resid:>14.6g} {result.df_resid:>6}",
    ]
    return [(args.output, ANOVA_COLUMNS, rows)], summary


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
        help=f"comma-separated replication seeds (default: {','.join(map(str, REPLICATION_SEEDS))})",
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
        default=BONUS_IN_EC_REQUESTS,
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
    records = getattr(args, "records", None)  # only run has --records
    renames = []  # (temporary, path) of each table written to a regular or new file
    try:
        for flag, path in (("-o", args.output), ("--records", records)):
            if path == "":
                raise ConfigError(f"{flag} names no file: the path is empty")
        if None not in (args.output, records) and os.path.realpath(args.output) == os.path.realpath(records):
            raise ConfigError(f"-o and --records name the same file: {records}")
        tables, summary = args.fn(args)
        for path, header, rows in tables:
            target = path
            if path is not None and (not os.path.exists(path) or os.path.isfile(path)):
                path = os.path.realpath(path) if os.path.islink(path) else path  # through a link, as open would
                target = f"{path}.{os.getpid()}.tmp"
                renames.append((target, path))
            with _writing(path):
                _write_csv(target, header, rows)
        if args.output is not None:
            with _writing(None):
                print("\n".join(summary))
        _replace_in_order(renames)
    except ConfigError as exc:
        print(f"offloadsim: {exc}", file=sys.stderr)
        return 1
    finally:
        for temporary, path in renames:
            for name in (temporary, f"{path}.{os.getpid()}.old"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(name)  # a temporary left by a failure, or the backup link
    return 0


if __name__ == "__main__":
    sys.exit(main())
