from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from persym.gf2 import BitMatrix, echelon, rank, rank_of_rows

from gf2_helpers import from_entries, kernel_dimension, to_entries, transpose
from oracles import oracle_rank_minors


def M(entries, ncols=None):
    return from_entries(entries, ncols)


def test_rank_zero_matrix():
    assert rank(M([[0, 0, 0]] * 3)) == 0


def test_rank_identity():
    assert rank(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_two_independent_rows():
    rows = [[1, 0, 1], [0, 1, 0]]
    assert rank(M(rows)) == 2
    assert oracle_rank_minors(rows) == 2


def test_rank_empty_shapes():
    assert rank(BitMatrix(0, 5, [])) == 0
    assert rank(BitMatrix(3, 0, [0, 0, 0])) == 0
    assert rank(BitMatrix(0, 0, [])) == 0


def test_kernel_dimension_examples():
    assert kernel_dimension(M([[0, 0, 0]] * 3)) == 3
    assert kernel_dimension(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 0
    # two independent rows over three columns leave a line of solutions
    assert kernel_dimension(M([[1, 0, 1], [0, 1, 0]])) == 1


def test_transpose_examples():
    t = transpose(M([[1, 0, 1], [0, 1, 0]]))
    assert (t.nrows, t.ncols) == (3, 2)
    assert to_entries(t) == [[1, 0], [0, 1], [1, 0]]

    degenerate = transpose(BitMatrix(0, 5, []))
    assert (degenerate.nrows, degenerate.ncols) == (5, 0)

    eye = M([[1, 0], [0, 1]])
    assert transpose(eye) == eye


def test_constructor_rejects_stray_bits():
    with pytest.raises(ValueError):
        BitMatrix(1, 2, [0b100])
    with pytest.raises(ValueError):
        BitMatrix(2, 2, [0b01])
    with pytest.raises(ValueError):
        from_entries([[1, 0], [1]])


def test_matrix_is_value_like():
    a = M([[1, 1], [0, 1]])
    b = M([[1, 1], [0, 1]])
    assert a == b and hash(a) == hash(b)
    rank(a)
    assert a.rows == (0b11, 0b10)


small_entries = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.integers(min_value=0, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 1), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(small_entries)
def test_rank_matches_minor_oracle(entries):
    ncols = len(entries[0]) if entries else 0
    assert rank(M(entries, ncols)) == oracle_rank_minors(entries)


@given(small_entries)
def test_rank_invariant_under_transpose(entries):
    ncols = len(entries[0]) if entries else 0
    m = M(entries, ncols)
    assert rank(m) == rank(transpose(m))


@given(small_entries)
def test_rank_nullity(entries):
    ncols = len(entries[0]) if entries else 0
    m = M(entries, ncols)
    assert rank(m) + kernel_dimension(m) == m.ncols


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=8))
def test_rank_of_rows_matches_matrix_path(rows):
    assert rank_of_rows(rows) == rank(BitMatrix(len(rows), 8, rows))


@given(st.lists(st.integers(min_value=0, max_value=31), max_size=5), st.data())
def test_echelon_extends_a_reduced_prefix(rows, data):
    split = data.draw(st.integers(0, len(rows)))
    pivots = echelon(rows[:split])
    before = list(pivots)
    out = echelon(rows[split:], pivots)
    assert len(out) == oracle_rank_minors([[(r >> j) & 1 for j in range(5)] for r in rows])
    lows = [p & -p for p in out]
    assert all(lows) and len(set(lows)) == len(lows)
    assert out[: len(before)] == before
    assert pivots == before
