from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from persym.builders import RankProfile, hankel, rank_profile, stacked
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
    assert rank_profile(UnitSeries.zero(3), 1, 2, 2) == RankProfile(0, 0, 0, 0)


def test_rank_profile_examples():
    assert rank_profile(S("100"), 1, 2, 2) == RankProfile(1, 1, 1, 1)
    # only the full block sees the trailing coefficient
    assert rank_profile(S("001"), 1, 2, 2) == RankProfile(0, 0, 0, 1)


def test_rank_profile_degenerate_corner():
    # one row: deleting it leaves empty blocks of rank zero
    p = rank_profile(S("11"), 1, 1, 2)
    assert p == RankProfile(0, 0, 1, 1)


@given(st.integers(0, 2**9 - 1), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
def test_rank_profile_matches_sliced_ranks(bits, l, n, m):
    t = UnitSeries(bits, 9)
    profile = rank_profile(t, l, n, m)
    alpha = [(bits >> b) & 1 for b in range(9)]
    entries = oracle_hankel_entries(alpha, l, n, m)
    expected = RankProfile(
        oracle_rank_minors([row[: m - 1] for row in entries[: n - 1]]),
        oracle_rank_minors(entries[: n - 1]),
        oracle_rank_minors([row[: m - 1] for row in entries]),
        oracle_rank_minors(entries),
    )
    assert profile == expected
    assert profile.is_consistent()


@given(st.integers(0, 2**10 - 1), st.integers(0, 2), st.integers(1, 3), st.integers(0, 2))
def test_stacked_matches_explicit_build(t_bits, m, k, n_etas):
    t = UnitSeries(t_bits & ((1 << (k + m)) - 1), k + m)
    etas = [UnitSeries((t_bits >> (3 * j)) & ((1 << k) - 1), k) for j in range(n_etas)]
    built = stacked(t, etas, m, k)
    top = hankel(t, 1, 1 + m, k)
    expected = to_entries(top) + [[e.coefficient(i + 1) for i in range(k)] for e in etas]
    assert built == from_entries(expected, k)
