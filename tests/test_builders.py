from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from persym.builders import hankel, rank_profile, stacked
from persym.exceptions import InsufficientPrecision
from persym.gf2 import rank
from persym.laurent import UnitSeries

from gf2_helpers import entry, from_entries, to_entries
from oracles import oracle_hankel_entries, oracle_rank_minors


def S(literal):
    return UnitSeries.from_string(literal)


def test_hankel_layout():
    m = hankel(S("1011"), 1, 2, 3)
    assert to_entries(m) == [[1, 0, 1], [0, 1, 1]]


def test_hankel_zero_series():
    m = hankel(UnitSeries.zero(6), 1, 3, 4)
    assert rank(m) == 0


def test_hankel_shifted_offset():
    # entries start at a_2, so the first coefficient is ignored
    m = hankel(S("0101"), 2, 2, 2)
    assert to_entries(m) == [[1, 0], [0, 1]]
    assert rank(m) == 2


def test_hankel_degenerate_shapes():
    assert hankel(S("1"), 1, 0, 3).nrows == 0
    assert hankel(S("1"), 1, 3, 0).ncols == 0


def test_hankel_precision_guard():
    with pytest.raises(InsufficientPrecision):
        hankel(S("10"), 1, 2, 2)  # needs a_3
    with pytest.raises(InsufficientPrecision):
        hankel(S("1011"), 2, 2, 3)  # needs a_5


def test_hankel_rejects_bad_offset():
    with pytest.raises(ValueError):
        hankel(S("101"), 0, 1, 1)


@given(st.integers(0, 2**10 - 1), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
def test_hankel_matches_oracle_and_is_persymmetric(bits, l, n, m):
    t = UnitSeries(bits, 10)
    block = hankel(t, l, n, m)
    alpha = [(bits >> b) & 1 for b in range(10)]
    assert to_entries(block) == oracle_hankel_entries(alpha, l, n, m)
    for i in range(n):
        for j in range(m):
            for r in range(n):
                s = i + j - r
                if 0 <= s < m:
                    assert entry(block, i, j) == entry(block, r, s)


def test_stacked_without_rows_is_plain_block():
    t = S("10110")
    assert stacked(t, [], 2, 3) == hankel(t, 1, 3, 3)


def test_stacked_zero_case():
    m = stacked(UnitSeries.zero(2), [UnitSeries.zero(2)], 0, 2)
    assert (m.nrows, m.ncols) == (2, 2)
    assert rank(m) == 0


def test_stacked_layout():
    m = stacked(S("10110"), [S("011")], 2, 3)
    assert to_entries(m) == [
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 0],
        [0, 1, 1],
    ]


def test_stacked_precision_guards():
    with pytest.raises(InsufficientPrecision):
        stacked(S("101"), [], 2, 3)  # top block needs k+m = 5
    with pytest.raises(InsufficientPrecision):
        stacked(S("10110"), [S("01")], 2, 3)  # eta needs k = 3


def test_rank_profile_zero():
    assert rank_profile(UnitSeries.zero(3), 1, 2, 2) == (0, 0, 0, 0)


def test_rank_profile_examples():
    assert rank_profile(S("100"), 1, 2, 2) == (1, 1, 1, 1)
    # only the full block sees the trailing coefficient
    assert rank_profile(S("001"), 1, 2, 2) == (0, 0, 0, 1)


def test_rank_profile_degenerate_corner():
    # one row: deleting it leaves empty blocks of rank zero
    p = rank_profile(S("11"), 1, 1, 2)
    assert p == (0, 0, 1, 1)


@given(st.integers(0, 2**9 - 1), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
def test_rank_profile_matches_sliced_ranks(bits, l, n, m):
    t = UnitSeries(bits, 9)
    profile = rank_profile(t, l, n, m)
    alpha = [(bits >> b) & 1 for b in range(9)]
    entries = oracle_hankel_entries(alpha, l, n, m)
    expected = (
        oracle_rank_minors([row[: m - 1] for row in entries[: n - 1]]),
        oracle_rank_minors(entries[: n - 1]),
        oracle_rank_minors([row[: m - 1] for row in entries]),
        oracle_rank_minors(entries),
    )
    assert profile == expected
    # single deletions move the rank by at most one, never upward
    j1, j2, j3, j4 = profile
    assert 0 <= j1 <= j2 <= j4 and j1 <= j3 <= j4
    assert j2 <= j1 + 1 and j3 <= j1 + 1
    assert j4 <= j2 + 1 and j4 <= j3 + 1


def test_rank_profile_matches_sliced_ranks_on_every_small_window():
    # each corner block is itself a window on the same coefficients, so
    # every distinct block goes to the oracle once
    ranks = {}

    def oracle(entries):
        key = tuple(map(tuple, entries))
        if key not in ranks:
            ranks[key] = oracle_rank_minors(entries)
        return ranks[key]

    for n in range(1, 7):
        for m in range(1, 7):
            depth = n + m - 1
            for bits in range(1 << depth):
                alpha = [(bits >> b) & 1 for b in range(depth)]
                entries = oracle_hankel_entries(alpha, 1, n, m)
                expected = (
                    oracle([row[: m - 1] for row in entries[: n - 1]]),
                    oracle(entries[: n - 1]),
                    oracle([row[: m - 1] for row in entries]),
                    oracle(entries),
                )
                assert rank_profile(UnitSeries(bits, depth), 1, n, m) == expected, (
                    n, m, bits)


@given(st.integers(0, 2**10 - 1), st.integers(0, 2), st.integers(1, 3), st.integers(0, 2))
def test_stacked_matches_explicit_build(t_bits, m, k, n_etas):
    t = UnitSeries(t_bits & ((1 << (k + m)) - 1), k + m)
    etas = [UnitSeries((t_bits >> (3 * j)) & ((1 << k) - 1), k) for j in range(n_etas)]
    built = stacked(t, etas, m, k)
    top = hankel(t, 1, 1 + m, k)
    expected = to_entries(top) + [[e.coefficient(i + 1) for i in range(k)] for e in etas]
    assert built == from_entries(expected, k)
