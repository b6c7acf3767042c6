"""Command-line front end: run, sweep, cost, anova.

Every subcommand emits RFC-4180-style CSV, to --output or to standard output,
in the bytes ``csv.writer(lineterminator="\\n")`` would write: floats with repr,
ints with str, None as an empty cell and strings quoted by the csv module, so
identical runs produce byte-identical files. Every table but one is written by
``csv.writer`` itself. The exception is ``run --records``, whose rows are the
run's ``engine.Records``: its columns are formatted in blocks of
``_BLOCK_ROWS`` rows, slice by slice, with a value repeated within a block
column formatted once, so no row is built. Records of ``_PARALLEL_ROWS`` rows
or more are split into contiguous shares formatted at once on the usable CPUs,
in worker processes forked by ``workers.forked``; this process writes the
shares out in order, so the bytes never depend on the worker count. Under
``taskset -c 0``, while another thread runs, or for fewer records, one process
writes them all. A file is written whole or not at all, and a call that
fails changes no file, so ``run``'s two files are written both or neither; a
path or a standard output that cannot be written is reported like an
unreadable config. When writing to a file, a short human-readable summary
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
from .workers import forked, worker_count

# Aggregates fields in order, as CSV columns: latencies carry their unit.
_UNITS = {"mean_total": "mean_total_s", "p90": "p90_s", "p95": "p95_s", "p99": "p99_s"}
AGGREGATE_COLUMNS = tuple(_UNITS.get(name, name) for name in AGGREGATE_FIELDS)

COST_COLUMNS = ("request_scale", "years", "beta", *CostRow._fields)

ANOVA_COLUMNS = ("source", "sum_sq", "df", "F", "PR(>F)")


# Records formatted per write: enough to share each repeated cell's text, few
# enough that a long table never sits in memory whole.
_BLOCK_ROWS = 512
# Records this long or longer are formatted on the usable CPUs: below it the
# fork costs about what a second worker saves.
_PARALLEL_ROWS = 4 * _BLOCK_ROWS


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


def _column_cells(values):
    """The cells of one block of a ``Records`` column, formatting each value
    repeated in it once.

    A ``range`` (task ids) prints with str. An ``array('d')`` holds floats only
    and is memoized by their bits: equal bits print alike, and 0.0 and -0.0
    differ. A list holds one type beside None, ints or a few constant strings,
    so it is memoized by value.
    """
    if isinstance(values, range):
        return map(str, values)
    if isinstance(values, array):
        bits = array("q", values.tobytes())
        distinct = array("q", set(bits))
        if 2 * len(distinct) > len(values):
            return map(repr, values)
        return map(dict(zip(distinct, map(repr, array("d", distinct.tobytes())))).__getitem__, bits)
    return map({value: _cell(value) for value in set(values)}.__getitem__, values)


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
            with contextlib.suppress(OSError):
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, sys.stdout.fileno())
                os.close(null)
        raise ConfigError(f"cannot write {path or 'standard output'}: {exc.strerror or exc}") from None


_replaced: list | None = None  # in ``_all_or_nothing``: (path, link to its previous file or None)


@contextlib.contextmanager
def _all_or_nothing():
    """If the block raises, each file ``_write_csv`` replaced inside it gets
    its previous bytes back, or is removed if it is new."""
    global _replaced
    _replaced = replaced = []
    try:
        yield
    except BaseException:
        for path, previous in reversed(replaced):
            with contextlib.suppress(OSError):
                if previous:
                    os.replace(previous, path)
                else:
                    os.remove(path)
        raise
    finally:
        _replaced = None
        for _, previous in replaced:
            if previous:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(previous)  # left only by a success


def _write_csv(path: str | None, header, rows) -> None:
    """Write the header and rows to the path, all or nothing, or to stdout.

    ``rows`` is an ``engine.Records``, written by ``_block_texts`` and, at
    ``_PARALLEL_ROWS`` rows or more, by ``_write_forked`` on the usable CPUs in
    the same bytes, or any other iterable of rows, written by ``csv.writer``. A
    regular file is written under a temporary name in its directory and
    renamed over the path once complete, so on any failure the path keeps what
    it held before; inside ``_all_or_nothing`` its previous file is kept as a
    hard link until the block ends. A path that cannot be opened or replaced is
    reported as a ConfigError, and so is standard output that cannot be
    written.
    """
    if path and (not os.path.exists(path) or os.path.isfile(path)):
        path = os.path.realpath(path) if os.path.islink(path) else path  # through a link, as open would
        temporary = f"{path}.{os.getpid()}.tmp"
        try:
            with _writing(path), open(temporary, "w", newline="") as out:
                _write_table(out, header, rows)
            with _writing(path):
                if _replaced is not None:
                    previous = f"{path}.{os.getpid()}.old"
                    try:
                        os.link(path, previous)
                        _replaced.append((path, previous))
                    except FileNotFoundError:  # a new file: a failure removes it
                        _replaced.append((path, None))
                    except OSError:  # no hard links here: a failure leaves it replaced
                        pass
                os.replace(temporary, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)  # left only by a failure
    elif path:  # a device or pipe such as /dev/null, written in place
        with _writing(path), open(path, "w", newline="") as out:
            _write_table(out, header, rows)
    else:
        with _writing(None):
            _write_table(sys.stdout, header, rows)


def _write_table(out, header, rows) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    if not isinstance(rows, Records):
        writer.writerows(rows)
    elif len(rows) >= _PARALLEL_ROWS and (n := worker_count(len(rows) // _BLOCK_ROWS)) > 1:
        _write_forked(out, rows, n)
    else:
        out.writelines(_block_texts(rows))


def _block_texts(records: Records):
    """The CSV text of each ``_BLOCK_ROWS`` records, in order, each line
    ending in \\n; the blocks are slices of the columns, so no row is built."""
    for start in range(0, len(records), _BLOCK_ROWS):
        cells = [_column_cells(values[start : start + _BLOCK_ROWS]) for values in records.columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


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


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 ({exc.reason})") from None


def _cmd_run(args) -> int:
    if args.output and args.records and os.path.realpath(args.output) == os.path.realpath(args.records):
        raise ConfigError(f"-o and --records name the same file: {args.records}")
    cfg = parse_run_config(_read_config(args.config))
    records = run(cfg)
    agg = summarize(records)
    _write_csv(args.output, ("seed",) + AGGREGATE_COLUMNS, [[cfg.seed, *agg]])
    if args.records:
        _write_csv(args.records, RECORD_FIELDS, records)
    if args.output:
        ms = agg.mean_total * 1e3
        with _writing(None):
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
            per_seed.append(next(aggs))
            rows.append([spec.axis, value, seed, *per_seed[-1]])
        means = [math.nan if any(map(math.isnan, cells)) else left_sum(cells) / len(cells) for cells in zip(*per_seed)]
        rows.append([spec.axis, value, "mean", *means])
    return rows


def _cmd_sweep(args) -> int:
    spec = parse_sweep_spec(_read_config(args.config))
    if args.seed_list is not None:
        spec = spec._replace(seeds=parse_seed_list(args.seed_list))
    _write_csv(args.output, ("axis", "value", "seed") + AGGREGATE_COLUMNS, _sweep_rows(spec))
    if args.output:
        with _writing(None):
            print(f"sweep over {spec.axis}: {len(spec.values)} values -> {args.output}")
    return 0


def _cmd_cost(args) -> int:
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
    _write_csv(args.output, COST_COLUMNS, rows)
    if args.output:
        with _writing(None):
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
    _write_csv(args.output, ANOVA_COLUMNS, rows)
    if args.output:
        with _writing(None):
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
    try:
        with _all_or_nothing():  # a call that fails, its summary included, leaves every file as it was
            return args.fn(args)
    except ConfigError as exc:
        print(f"offloadsim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
