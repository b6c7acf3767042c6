"""The block CSV writer writes exactly the bytes of ``csv.writer``.

Every subcommand goes through ``cli._write_csv``, which formats rows a block at
a time, column by column, sharing the text of values repeated in a block
column. Its output must match ``csv.writer(lineterminator="\\n")`` byte for
byte: floats (nan, inf and signed zeros too) with repr, ints with str, None as
an empty cell and strings with the csv module's quoting.
"""

import contextlib
import csv
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim.cli import _BLOCK_ROWS, _write_csv

_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, float("nan"), float("inf"), float("-inf"))),
)
_NUMBERS = st.one_of(_FLOATS, st.integers(-(2**70), 2**70), st.sampled_from((0, 1, True, False)))
_CELLS = st.one_of(_NUMBERS, st.none(), st.text(alphabet=',"\n\r a-', max_size=5))
# What one column draws its few values from.
_COLUMN_KINDS = (_FLOATS, st.one_of(_FLOATS, st.none()), _NUMBERS, _CELLS)

_ROW_COUNTS = (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 3 * _BLOCK_ROWS + 7)


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
def _tables(draw):
    columns = draw(st.lists(_columns(), max_size=6))
    header = tuple(draw(st.lists(_CELLS, min_size=len(columns), max_size=len(columns))))
    n_rows = draw(st.sampled_from(_ROW_COUNTS))
    return header, [tuple(column(i) for column in columns) for i in range(n_rows)]


def _written(header, rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_csv(None, header, iter(rows))
    return out.getvalue()


def _reference(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _assert_same_text(header, rows):
    """Equal texts, or a failure showing the lengths and where they first differ."""
    got, want = _written(header, rows), _reference(header, rows)
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(at - 60, 0)
        assert (len(got), at, got[lo : at + 60]) == (len(want), at, want[lo : at + 60])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table=_tables())
def test_block_writer_matches_the_csv_module(table):
    _assert_same_text(*table)


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
