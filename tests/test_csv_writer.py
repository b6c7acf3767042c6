"""The CSV writer writes exactly the bytes of ``csv.writer``.

Every subcommand goes through ``cli._write_csv``. A run's ``engine.Records``
is formatted in this process a block at a time, column by column: each column
through a memo that formats each repeated value once and starts over rather
than pass ``_BLOCK_ROWS`` entries, or with repr for task ids and mostly
distinct floats (the rule is stated once, in the ``cli`` module docstring).
Any other table is written by ``csv.writer`` itself. The output must match
``csv.writer(lineterminator="\\n")`` byte for byte: floats (nan, inf and signed
zeros too) with repr, ints with str, None as an empty cell and strings with
the csv module's quoting.
"""

import contextlib
import csv
import io
import itertools
import os
import random
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from offloadsim import cli
from offloadsim.cli import _BLOCK_ROWS, _write_csv, main
from offloadsim.engine import Records, RunConfig, run, summarize

_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, float("nan"), float("inf"), float("-inf"))),
)
# Strings as a records list column holds them, and strings the csv module quotes.
_STRINGS = st.one_of(st.sampled_from(("success", "VEHICLE", "USER_TO_GNB")), st.text(alphabet=',"\n\r a-', max_size=5))
# Tables of many blocks: on both sides of a block's end, and ending two rows into a block.
_LONG_ROW_COUNTS = (4 * _BLOCK_ROWS - 1, 4 * _BLOCK_ROWS, 4 * _BLOCK_ROWS + 1, 9 * _BLOCK_ROWS + 2)
_HEADER = ("id", "x", "y", "k", "s")


@st.composite
def _list_columns(draw, values, n):
    """A records list column of n cells drawn from a few values."""
    pool = draw(st.lists(values, min_size=1, max_size=8))
    rng = random.Random(draw(st.integers(0, 2**16)))
    return [rng.choice(pool) for _ in range(n)]


def _records(n, seed):
    """Records of n rows with each kind of column: task ids, floats that are
    mostly distinct and floats from a few values, ints or None, and strings
    that need quoting or None."""
    rng = random.Random(seed)
    return Records(
        [
            range(n),
            array("d", (rng.random() for _ in range(n))),
            array("d", (rng.choice((0.0, -0.0, 0.5, float("nan"))) for _ in range(n))),
            [rng.choice((None, 3, 41)) for _ in range(n)],
            [rng.choice((None, "in_flight", 'a "b"', "c,d", "e\nf")) for _ in range(n)],
        ]
    )


def _written(header, rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_csv(None, header, rows)
    return out.getvalue()


def _reference(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _assert_same_text(header, rows, given=None):
    """The writer gets ``given`` (the rows by default), the csv module the rows."""
    _assert_equal_texts(_written(header, rows if given is None else given), _reference(header, rows))


def _assert_equal_texts(got, want):
    """Equal texts, or a failure showing the lengths and where they first differ."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(at - 60, 0)
        assert (len(got), at, got[lo : at + 60]) == (len(want), at, want[lo : at + 60])


def test_block_writer_matches_the_csv_module():
    # any table but a Records goes to csv.writer, whatever iterable holds its rows
    rows = [(1, 0.5, None, "a,b"), (-0.0, float("nan"), float("-inf"), 'say "hi"'), (True, 2**70, "", "x\ny")]
    for header, table in ((("a", "b", "c", "d"), rows), (("",), [(None,), ("",)]), (("a", "b"), [])):
        for given in (table, tuple(table), iter(table)):
            _assert_same_text(header, table, given)


_FLOAT_COLUMNS = st.one_of(
    st.lists(_FLOATS, max_size=3 * _BLOCK_ROWS),  # mostly distinct values
    st.lists(_FLOATS, min_size=1, max_size=4).flatmap(  # few values, each repeated
        lambda pool: st.lists(st.sampled_from(pool), max_size=3 * _BLOCK_ROWS)
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=_FLOAT_COLUMNS, data=st.data())
def test_column_stored_records_print_like_their_rows(values, data):
    # the columns of a run's records: a range of ids, arrays of doubles, whose
    # repeated values (signed zeros and nan among them) are shared by bits, and
    # lists of ints or strings beside None, shared by value
    column = array("d", values)
    n = len(column)
    ints = data.draw(_list_columns(st.one_of(st.none(), st.integers(-(2**70), 2**70)), n))
    strings = data.draw(_list_columns(st.one_of(st.none(), _STRINGS), n))
    columns = [range(n), column, column[::-1], ints, strings]
    _assert_same_text(_HEADER, list(zip(*columns)), Records(columns))


# Distinct values in a records column: on both sides of what one memo may hold.
_CARDINALITIES = (1, 2, 7, _BLOCK_ROWS // 2, _BLOCK_ROWS // 2 + 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS)
_SPECIALS = (0.0, -0.0, float("nan"), float("inf"), float("-inf"))


@st.composite
def _drawn_column(draw, n):
    """A records column of n rows of k distinct values of one kind (floats,
    ints beside None, or strings beside None), in one of three orders: any
    value anywhere; new values spread over the column, so that a memo grows
    from block to block and may outgrow its bound mid-column; or one value
    first seen in the last block."""
    kind = draw(st.sampled_from(("float", "int", "str")))
    k = draw(st.sampled_from(_CARDINALITIES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "float":
        specials = draw(st.permutations(_SPECIALS)) if draw(st.booleans()) else []
        pool = [*specials, *(rng.uniform(-1e3, 1e3) for _ in range(k))][:k]
    elif kind == "int":
        pool = [None, *rng.sample(range(-(2**40), 2**40), k - 1)]
    else:
        pool = [None, 'a "b"', "c,d", "e\nf", "", *(f"s{i}" for i in range(k))][:k]
    order = draw(st.sampled_from(("any", "spread", "late")))
    if order == "spread":
        values = [pool[rng.randrange(1 + i * k // n)] for i in range(n)]
    else:
        values = [rng.choice(pool[:-1] if order == "late" and k > 1 else pool) for _ in range(n)]
    if order == "late":
        values[draw(st.integers((n - 1) // _BLOCK_ROWS * _BLOCK_ROWS, n - 1))] = pool[-1]
    return array("d", values) if kind == "float" else values


def _memo_sizes(values):
    """The size of the column's memo after each block."""
    column = cli._column_cells(values)
    for cells in column:
        list(cells)
        if column.gi_frame is not None:  # None once the column is done
            yield len(column.gi_frame.f_locals["memo"])


def _assert_table_text(records):
    """The records' text is the csv module's text of their rows, and no
    column's memo holds more than a block's worth of entries."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(zip(*records.columns))
    _assert_equal_texts("".join(cli._block_texts(records)), out.getvalue())
    for values in records.columns:
        assert max(_memo_sizes(values), default=0) <= _BLOCK_ROWS


@settings(max_examples=examples(100), deadline=None, derandomize=True)
@given(data=st.data())
def test_a_share_prints_like_its_rows_whatever_its_columns_repeat(data):
    # a table of 2 to 6 blocks, the last one full or not: task ids, an
    # all-distinct and a constant float column, and 1 to 4 drawn columns
    n = data.draw(st.integers(_BLOCK_ROWS + 1, 6 * _BLOCK_ROWS))
    drawn = [data.draw(_drawn_column(n)) for _ in range(data.draw(st.integers(1, 4)))]
    distinct = array("d", (random.Random(n).random() for _ in range(n)))
    _assert_table_text(Records([range(n), distinct, array("d", [2.5]) * n, *drawn]))


@pytest.mark.parametrize("specials", list(itertools.permutations(_SPECIALS[:4])))
def test_specials_first_seen_in_different_blocks_keep_their_text(specials):
    # 0.0, -0.0, nan and inf each first seen in a block of its own beside a
    # constant, the last of them in the last block, where all recur
    column = array("d", [1.0]) * (5 * _BLOCK_ROWS)
    for b, value in enumerate(specials):
        column[(b + 1) * _BLOCK_ROWS + 7 * b + 3] = column[4 * _BLOCK_ROWS + 7 * b + 100] = value
    _assert_table_text(Records([range(len(column)), column, column[::-1]]))
    assert list(_memo_sizes(column)) == [1, 2, 3, 4, 5]  # one memo for the column


@pytest.mark.parametrize("k, sizes", [(_BLOCK_ROWS, [256, 512, 512]), (_BLOCK_ROWS + 1, [256, 257, 512])])
def test_a_memo_that_would_pass_a_block_of_entries_stops_growing(k, sizes):
    # k distinct ints, half of them in the first block and the rest first seen
    # in the second: at k = _BLOCK_ROWS + 1 the memo starts over there with the
    # 257 values of that block, and again in the third, which holds 512
    first, rest = list(range(256)), list(range(256, k))
    column = first * 2 + (rest * 2)[:_BLOCK_ROWS] + (first + rest)[:_BLOCK_ROWS]
    _assert_table_text(Records([range(len(column)), column]))
    assert list(_memo_sizes(column)) == sizes


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forked_writer_matches_the_csv_module(n, monkeypatch):
    # long records, with n usable CPUs: written in this process, forking nothing
    forks = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or 1 / 0, raising=False)
    for n_rows in _LONG_ROW_COUNTS:
        records = _records(n_rows, seed=n_rows)
        _assert_same_text(_HEADER, list(zip(*records.columns)), records)
    assert forks == []


def test_a_failing_writer_worker_raises_and_leaves_no_child(tmp_path, monkeypatch):
    # the records are written in this process, which raises on a list cell it
    # cannot memoize; through main, to files: all or nothing, so both files
    # there before keep their bytes
    records = _records(4 * _BLOCK_ROWS, seed=0)
    records.columns[3][-3] = [1]
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("strategy = ECFirst\nusers = 1\nduration = 1\n")
    monkeypatch.setattr(cli, "run", lambda cfg: records)
    monkeypatch.setattr(cli, "summarize", lambda rows: summarize(run(RunConfig(n_users=1, duration=1.0))))
    for name in ("agg.csv", "records.csv"):
        Path(name).write_bytes(b"earlier output\n")
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        main(["run", "run.cfg", "-o", "agg.csv", "--records", "records.csv"])
    assert [Path(name).read_bytes() for name in ("agg.csv", "records.csv")] == [b"earlier output\n"] * 2
    assert sorted(os.listdir()) == ["agg.csv", "records.csv", "run.cfg"]  # no temporary file left


def test_a_complete_file_replaces_the_old_one(tmp_path, capsys):
    assert main(["cost"]) == 0
    table = capsys.readouterr().out
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 100_000)
    assert main(["cost", "-o", str(path)]) == 0
    assert path.read_text() == table
    assert os.listdir(tmp_path) == ["out.csv"]
    link = tmp_path / "link.csv"
    link.symlink_to(path)
    path.write_bytes(b"earlier output\n")
    assert main(["cost", "-o", str(link)]) == 0  # through the link, which stays a link
    assert link.is_symlink() and path.read_text() == table
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "out.csv"]
    assert main(["cost", "-o", os.devnull]) == 0  # a device is written in place, never replaced
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zeros_keep_their_sign_within_and_across_blocks(first, second):
    within = [(first if i % 3 else second, 1.0, None if i % 5 else first) for i in range(2 * _BLOCK_ROWS)]
    across = [(first if i < _BLOCK_ROWS else second,) for i in range(2 * _BLOCK_ROWS)]
    for rows in (within, across):
        _assert_same_text(("x",) * len(rows[0]), rows)
    # float columns of records, memoized by bits
    columns = [array("d", (row[0] for row in rows)) for rows in (within, across)]
    _assert_same_text(("w", "a"), list(zip(*columns)), Records(columns))


def test_equal_values_of_different_types_keep_their_own_text():
    for mixed in ((1, 1.0), (1, True), (0, -0.0, False), (1.0, True, None)):
        _assert_same_text(("v",), [(v,) for v in mixed * _BLOCK_ROWS])


def test_lone_empty_cells_are_quoted_like_the_csv_module():
    rows = [(None,), ("",), ("a",)] * 3
    assert _written(("",), rows) == _reference(("",), rows) == '""\n' + '""\n""\na\n' * 3
