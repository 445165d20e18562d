"""Tests for the bit-packed GF(2) matrix (M4RI stand-in)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2_dense import from_dense, to_dense
from oracles.gf2 import rref_gj
from repro.gf2 import GF2Matrix

dense = st.lists(
    st.lists(st.integers(0, 1), min_size=6, max_size=6),
    min_size=1,
    max_size=8,
)


def test_get_set():
    m = GF2Matrix(2, 70)  # spans two words
    m.set(0, 0, 1)
    m.set(1, 69, 1)
    assert m.get(0, 0) == 1
    assert m.get(1, 69) == 1
    assert m.get(0, 69) == 0
    m.set(0, 0, 0)
    assert m.get(0, 0) == 0


def test_flip():
    m = GF2Matrix(1, 3)
    m.flip(0, 1)
    assert m.get(0, 1) == 1
    m.flip(0, 1)
    assert m.get(0, 1) == 0


def test_out_of_range_raises():
    m = GF2Matrix(1, 3)
    with pytest.raises(IndexError):
        m.get(0, 3)
    with pytest.raises(IndexError):
        m.set(1, 0, 1)


def test_row_cols():
    m = GF2Matrix.from_rows([[0, 65], [2]], 70)
    assert m.row_cols(0) == [0, 65]
    assert m.row_cols(1) == [2]


def test_identity_and_rank():
    m = GF2Matrix.from_rows([[i] for i in range(5)], 5)
    assert m.rank() == 5


def test_xor_row():
    m = GF2Matrix.from_rows([[0, 1], [1, 2]], 3)
    m.xor_row_into(0, 1)
    assert m.row_cols(1) == [0, 2]


def test_swap_rows():
    m = GF2Matrix.from_rows([[0], [1]], 2)
    m.swap_rows(0, 1)
    assert m.row_cols(0) == [1]


def test_rref_known_example():
    # The matrix from the paper's Table I (8 columns).
    rows = [
        [3, 6, 7],       # x1x2 + x1 + 1
        [3, 6],          # x1 * (x1x2 + x1 + 1) = x1x2 + x1  (degree-collapsed)
    ]
    m = GF2Matrix.from_rows(rows, 8)
    pivots = m.rref()
    assert pivots == [3, 7]
    assert m.row_cols(0) == [3, 6]
    assert m.row_cols(1) == [7]


def test_rref_detects_inconsistency_row():
    # rows x1, x1 + 1 reduce to x1 and 1.
    m = GF2Matrix.from_rows([[0], [0, 1]], 2)
    m.rref()
    reduced = sorted(tuple(m.row_cols(i)) for i in range(2))
    assert reduced == [(0,), (1,)]


@settings(max_examples=60)
@given(dense)
def test_rref_idempotent(rows):
    m = from_dense(rows)
    m.rref()
    before = to_dense(m).tolist()
    m.rref()
    assert to_dense(m).tolist() == before


@settings(max_examples=60)
@given(dense)
def test_rref_preserves_row_space(rows):
    """Every original row must be a GF(2) combination of the reduced rows,
    checked by rank invariance when appending it back."""
    m = from_dense(rows)
    original = m.copy()
    m.rref()
    reduced = m.rows_cols()
    base_rank = sum(1 for cols in reduced if cols)
    assert base_rank == original.rank()
    for i in range(original.n_rows):
        stacked = GF2Matrix.from_rows(
            reduced + [original.row_cols(i)], m.n_cols
        )
        assert stacked.rank() == base_rank


@settings(max_examples=60)
@given(dense)
def test_rref_pivot_columns_are_unit(rows):
    m = from_dense(rows)
    pivots = m.rref()
    for r, j in enumerate(pivots):
        column = [m.get(i, j) for i in range(m.n_rows)]
        assert column[r] == 1
        assert sum(column) == 1


@settings(max_examples=80)
@given(st.sampled_from([1, 6, 31, 63, 64, 65, 128]), st.data())
def test_rref_matches_gj_oracle(width, data):
    """`rref` (Four-Russians) must be bit-for-bit the seed Gauss–Jordan:
    same pivot list, same row order, same row content — across widths,
    block overrides and column caps."""
    rows = data.draw(
        st.lists(st.integers(0, (1 << width) - 1), max_size=12)
    )
    max_cols = data.draw(st.sampled_from([None, width // 2, width]))
    block = data.draw(st.sampled_from([None, 1, 3, 8, 11, 16]))
    cols = [[j for j in range(width) if mask >> j & 1] for mask in rows]
    m = GF2Matrix.from_rows(cols, width)
    oracle = GF2Matrix.from_rows(cols, width)
    pivots = m.rref(max_cols=max_cols, block=block)
    assert pivots == rref_gj(oracle, max_cols=max_cols)
    assert (m._data == oracle._data).all()


def test_from_cells_matches_from_rows():
    rows = [[0, 65, 129], [], [64], [1, 1, 2]]
    a = GF2Matrix.from_rows(rows, 130)
    row_idx = [i for i, cols in enumerate(rows) for _ in cols]
    col_idx = [j for cols in rows for j in cols]
    b = GF2Matrix.from_cells(row_idx, col_idx, len(rows), 130)
    assert (to_dense(a) == to_dense(b)).all()


def test_from_cells_validates():
    with pytest.raises(ValueError):
        GF2Matrix.from_cells([0], [1, 2], 1, 3)
    with pytest.raises(IndexError):
        GF2Matrix.from_cells([0], [3], 1, 3)
    with pytest.raises(IndexError):
        GF2Matrix.from_cells([1], [0], 1, 3)
    empty = GF2Matrix.from_cells([], [], 2, 5)
    assert empty.n_rows == 2 and empty.n_cols == 5
    assert not to_dense(empty).any()


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.integers(0, 129), max_size=6), min_size=1, max_size=8
    )
)
def test_rows_cols_matches_row_cols(rows):
    m = GF2Matrix.from_rows(rows, 130)
    bulk = m.rows_cols()
    assert len(bulk) == m.n_rows
    for i in range(m.n_rows):
        assert bulk[i] == m.row_cols(i)
