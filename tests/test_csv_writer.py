"""The block CSV writer writes exactly the bytes of ``csv.writer``.

Every subcommand goes through ``cli._write_csv``, which formats rows a block at
a time, column by column, sharing the text of values repeated in a block
column, and splits a long table among forked workers. Its output must match
``csv.writer(lineterminator="\\n")`` byte for byte, whatever the worker count:
floats (nan, inf and signed zeros too) with repr, ints with str, None as an
empty cell and strings with the csv module's quoting.
"""

import contextlib
import csv
import io
import os
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim.cli import _BLOCK_ROWS, _PARALLEL_ROWS, _write_csv
from offloadsim.engine import RECORD_FIELDS, Records, RunConfig, run

_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, float("nan"), float("inf"), float("-inf"))),
)
_NUMBERS = st.one_of(_FLOATS, st.integers(-(2**70), 2**70), st.sampled_from((0, 1, True, False)))
_CELLS = st.one_of(_NUMBERS, st.none(), st.text(alphabet=',"\n\r a-', max_size=5))
# What one column draws its few values from.
_COLUMN_KINDS = (_FLOATS, st.one_of(_FLOATS, st.none()), _NUMBERS, _CELLS)

_ROW_COUNTS = (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 3 * _BLOCK_ROWS + 7)
# Both sides of the cutoff for forked workers, and shares that end inside a block.
_LONG_ROW_COUNTS = (_PARALLEL_ROWS - 1, _PARALLEL_ROWS, _PARALLEL_ROWS + 1, 2 * _PARALLEL_ROWS + _BLOCK_ROWS + 2)
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers need os.fork")


@st.composite
def _columns(draw):
    """A column as a function of the row index: few distinct values, mixed
    within a block or switching between blocks, or a fresh value per row.
    Columns of floats only, of floats and None, and holding equal values that
    print differently (signed zeros, an int and a float) are common."""
    pool = draw(st.lists(draw(st.sampled_from(_COLUMN_KINDS)), min_size=1, max_size=6))
    pool += draw(st.sampled_from(([], [0.0, -0.0], [1, 1.0], [True, 1])))
    mode = draw(st.sampled_from(("mixed", "runs", "fresh")))
    seed = draw(st.integers(0, 2**16))
    if mode == "mixed":
        rng = random.Random(seed)
        return lambda i: rng.choice(pool)
    if mode == "runs":
        run = draw(st.sampled_from((1, 7, _BLOCK_ROWS - 3, _BLOCK_ROWS)))
        return lambda i: pool[(i // run) % len(pool)]
    rng = random.Random(seed)
    return lambda i: rng.choice((rng.random(), -rng.random(), rng.randrange(10**6), None, pool[0]))


@st.composite
def _tables(draw, row_counts=_ROW_COUNTS):
    columns = draw(st.lists(_columns(), max_size=6))
    header = tuple(draw(st.lists(_CELLS, min_size=len(columns), max_size=len(columns))))
    n_rows = draw(st.sampled_from(row_counts))
    return header, [tuple(column(i) for column in columns) for i in range(n_rows)]


def _written(header, rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_csv(None, header, rows)
    return out.getvalue()


@contextlib.contextmanager
def _usable_cpus(n):
    """Make n CPUs usable and yield the list that counts forks."""
    forks = []
    real_fork = getattr(os, "fork", None)

    def counting_fork():
        forks.append(1)
        return real_fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        mp.setattr(os, "fork", counting_fork, raising=False)
        yield forks


def _reference(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _assert_same_text(header, rows, given=None):
    """Equal texts, or a failure showing the lengths and where they first differ.
    The writer gets ``given`` (the rows by default), the csv module the rows."""
    got, want = _written(header, rows if given is None else given), _reference(header, rows)
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(at - 60, 0)
        assert (len(got), at, got[lo : at + 60]) == (len(want), at, want[lo : at + 60])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table=_tables())
def test_block_writer_matches_the_csv_module(table):
    header, rows = table
    _assert_same_text(header, rows, iter(rows))  # any iterable: one process writes it


_FLOAT_COLUMNS = st.one_of(
    st.lists(_FLOATS, max_size=3 * _BLOCK_ROWS),  # mostly distinct values
    st.lists(_FLOATS, min_size=1, max_size=4).flatmap(  # few values, each repeated
        lambda pool: st.lists(st.sampled_from(pool), max_size=3 * _BLOCK_ROWS)
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=_FLOAT_COLUMNS)
def test_column_stored_records_print_like_their_rows(values):
    # the columns of a run's records: a range of ids and arrays of doubles,
    # whose repeated values (signed zeros and nan among them) are shared by bits
    column = array("d", values)
    rows = list(zip(range(len(column)), column, column[::-1]))
    _assert_same_text(("id", "x", "y"), rows, Records([range(len(column)), column, column[::-1]]))


@needs_fork
@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(table=_tables(_LONG_ROW_COUNTS))
def test_forked_writer_matches_the_csv_module(n, table):
    header, rows = table
    with _usable_cpus(n) as forks:
        _assert_same_text(header, rows)
    assert len(forks) == (n - 1 if len(rows) >= _PARALLEL_ROWS else 0)


@needs_fork
def test_only_a_list_tuple_or_records_are_split():
    rows = [(i, i / 7, None) for i in range(_PARALLEL_ROWS + 5)]
    header = ("a", "b", "c")
    records = run(RunConfig(n_users=4, duration=_PARALLEL_ROWS / 20 + 1))
    assert len(records) >= _PARALLEL_ROWS
    with _usable_cpus(2) as forks:
        _assert_same_text(header, rows, (row for row in rows))
        assert forks == []
        _assert_same_text(header, rows, tuple(rows))
        _assert_same_text(RECORD_FIELDS, list(records), records)
        assert len(forks) == 2


@needs_fork
def test_a_failing_writer_worker_raises_and_leaves_no_child(capfd, tmp_path):
    # three shares of _PARALLEL_ROWS rows: a short row in the last one fails worker 2
    rows = [(i, 0.5) for i in range(3 * _PARALLEL_ROWS)]
    rows[-3] = (1,)
    with _usable_cpus(3), pytest.raises(RuntimeError, match="worker process"):
        _written(("a", "b"), rows)
    with pytest.raises(ChildProcessError):  # every worker was reaped: no zombie
        os.waitpid(-1, os.WNOHANG)
    assert "ValueError: CSV rows must all have the same length" in capfd.readouterr().err
    # to a file: all or nothing, so the file there before keeps its bytes
    path = tmp_path / "out.csv"
    path.write_bytes(b"earlier output\n")
    with _usable_cpus(3), pytest.raises(RuntimeError, match="worker process"):
        _write_csv(str(path), ("a", "b"), rows)
    assert path.read_bytes() == b"earlier output\n"
    assert os.listdir(tmp_path) == ["out.csv"]  # no temporary file left


def test_a_complete_file_replaces_the_old_one(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 100_000)
    rows = [(1, 0.5, None)] * 3
    _write_csv(str(path), ("a", "b", "c"), rows)
    assert path.read_text() == _reference(("a", "b", "c"), rows)
    assert os.listdir(tmp_path) == ["out.csv"]
    link = tmp_path / "link.csv"
    link.symlink_to(path)
    _write_csv(str(link), ("b",), [(2,)])  # through the link, which stays a link
    assert link.is_symlink() and path.read_text() == "b\n2\n"
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "out.csv"]
    _write_csv(os.devnull, ("a",), [(1,)])  # a device is written in place, never replaced
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


@needs_fork
def test_the_writer_reaps_its_workers_when_its_own_share_fails(capfd):
    rows = [(i, 0.5) for i in range(3 * _PARALLEL_ROWS)]
    rows[3] = (1,)  # share 0 is formatted in the calling process
    with _usable_cpus(3) as forks, pytest.raises(ValueError, match="same length"):
        _written(("a", "b"), rows)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert "Traceback" not in capfd.readouterr().err  # the killed workers report nothing


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zeros_keep_their_sign_within_and_across_blocks(first, second):
    within = [(first if i % 3 else second, 1.0, None if i % 5 else first) for i in range(2 * _BLOCK_ROWS)]
    across = [(first if i < _BLOCK_ROWS else second,) for i in range(2 * _BLOCK_ROWS)]
    for rows in (within, across):
        _assert_same_text(("x",) * len(rows[0]), rows)


def test_equal_values_of_different_types_keep_their_own_text():
    for mixed in ((1, 1.0), (1, True), (0, -0.0, False), (1.0, True, None)):
        _assert_same_text(("v",), [(v,) for v in mixed * _BLOCK_ROWS])


def test_lone_empty_cells_are_quoted_like_the_csv_module():
    rows = [(None,), ("",), ("a",)] * 3
    assert _written(("",), rows) == _reference(("",), rows) == '""\n' + '""\n""\na\n' * 3


def test_rows_of_different_lengths_are_rejected():
    with pytest.raises(ValueError, match="same length"):
        _written(("a", "b"), [(1, 2), (3,)])
