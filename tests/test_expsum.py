from __future__ import annotations

import random
import sys
from collections import Counter
from functools import reduce
from itertools import combinations, product
from operator import xor

import pytest
from hypothesis import given, strategies as st

from persym import builders, census, expsum, formulas, gf2, lanes
from persym.builders import hankel
from persym.exceptions import BudgetExceeded, InsufficientPrecision
from persym.expsum import (
    fmulti_closed,
    fmulti_direct,
    g2var_closed,
    g2var_direct,
    g_boundary_vectors,
    g_closed,
    g_direct,
    g_vector,
    h_closed,
    h_direct,
)
from persym.laurent import UnitSeries

from oracles import (
    g_boundary_factors,
    oracle_f2var,
    oracle_fmulti,
    oracle_g,
    oracle_g2var,
    oracle_h,
)


def S(literal):
    return UnitSeries.from_string(literal)


def grid(bits):
    return (UnitSeries(v, bits) for v in range(1 << bits))


def alpha_of(u):
    return [(u.coeffs >> i) & 1 for i in range(u.precision)]


# -------------------------------------------------------------------- h


def test_h_at_zero():
    assert h_direct(2, 3, UnitSeries(0, 4)) == 32
    assert h_closed(2, 3, UnitSeries(0, 4)) == 32


def test_h_frozen_values():
    assert oracle_h(2, 2, [1, 0, 0]) == 8
    assert h_direct(2, 2, S("100")) == 8
    assert h_closed(2, 2, S("100")) == 8

    assert oracle_h(2, 3, [0, 0, 0, 1]) == 16
    assert h_direct(2, 3, S("0001")) == 16
    assert h_closed(2, 3, S("0001")) == 16


def test_h_precision_guard():
    with pytest.raises(InsufficientPrecision):
        h_direct(2, 3, S("100"))
    with pytest.raises(InsufficientPrecision):
        h_closed(2, 3, S("100"))


@pytest.mark.parametrize("s,k", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_h_direct_equals_closed_on_full_grid(s, k):
    for t in grid(k + s - 1):
        assert h_direct(s, k, t) == h_closed(s, k, t)


def test_h_counts_kernel_vectors():
    # the direct sum collapses to 2^s per Y in the kernel of the block
    s, k = 3, 3
    for t in grid(k + s - 1):
        rows = hankel(t, 1, s, k).rows
        in_kernel = sum(
            1
            for y in range(1 << k)
            if all(bin(row & y).count("1") % 2 == 0 for row in rows)
        )
        assert h_direct(s, k, t) == (1 << s) * in_kernel


# -------------------------------------------------------------------- g


def test_g_at_zero():
    assert g_direct(2, 2, UnitSeries(0, 3)) == 4
    assert g_closed(2, 2, UnitSeries(0, 3)) == 4


def test_g_frozen_values():
    assert oracle_g(2, 2, [1, 0, 0]) == 2
    assert g_direct(2, 2, S("100")) == 2
    assert g_closed(2, 2, S("100")) == 2

    assert oracle_g(2, 2, [0, 0, 1]) == -4
    assert g_direct(2, 2, S("001")) == -4
    assert g_closed(2, 2, S("001")) == -4


def test_g_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        g_direct(1, 2, S("10"))
    with pytest.raises(ValueError):
        g_closed(2, 1, S("10"))


@pytest.mark.parametrize("s,k", [(2, 2), (2, 3), (3, 3)])
def test_g_direct_equals_closed_on_full_grid(s, k):
    for t in grid(k + s - 1):
        assert g_direct(s, k, t) == g_closed(s, k, t)


def test_g_boundary_factors_at_zero():
    assert g_boundary_factors(2, 2, UnitSeries(0, 3)) == (4, 4)


def test_g_boundary_factors_frozen_square():
    g1, g2 = g_boundary_factors(2, 2, S("001"))
    assert g1 * g2 == 16


@pytest.mark.parametrize("s,k", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_g_squared_factors_pointwise(s, k):
    for t in grid(k + s - 1):
        g1, g2 = g_boundary_factors(s, k, t)
        assert g1 * g2 == g_direct(s, k, t) ** 2


# ------------------------------------------------------------- g2var/f2var


def test_g2var_at_zero():
    assert g2var_direct(1, 2, UnitSeries(0, 3), UnitSeries(0, 2)) == 16
    assert g2var_closed(1, 2, UnitSeries(0, 3), UnitSeries(0, 2)) == 16


def test_g2var_frozen_values():
    assert oracle_g2var(0, 1, [0], [1]) == 0
    assert g2var_direct(0, 1, UnitSeries(0, 1), S("1")) == 0
    assert g2var_closed(0, 1, UnitSeries(0, 1), S("1")) == 0

    assert oracle_g2var(0, 1, [1], [1]) == 2
    assert g2var_direct(0, 1, S("1"), S("1")) == 2
    assert g2var_closed(0, 1, S("1"), S("1")) == 2


def test_f2var_at_zero():
    assert fmulti_direct(0, 1, UnitSeries(0, 1), [UnitSeries(0, 1)]) == 8
    assert fmulti_closed(0, 1, UnitSeries(0, 1), [UnitSeries(0, 1)]) == 8


def test_f2var_frozen_values():
    assert oracle_f2var(0, 1, [0], [1]) == 4
    assert fmulti_direct(0, 1, UnitSeries(0, 1), [S("1")]) == 4
    assert fmulti_closed(0, 1, UnitSeries(0, 1), [S("1")]) == 4

    assert fmulti_closed(2, 3, UnitSeries(0, 5), [UnitSeries(0, 3)]) == 128


@pytest.mark.parametrize("m,k", [(0, 1), (0, 2), (1, 2), (2, 3)])
def test_two_variable_sums_agree_on_full_grid(m, k):
    for t in grid(k + m):
        for eta in grid(k):
            assert g2var_direct(m, k, t, eta) == g2var_closed(m, k, t, eta)
            assert fmulti_direct(m, k, t, [eta]) == fmulti_closed(m, k, t, [eta])


def test_two_variable_sums_match_oracles():
    m, k = 1, 2
    for t in grid(k + m):
        for eta in grid(k):
            a, b = alpha_of(t), alpha_of(eta)
            assert g2var_direct(m, k, t, eta) == oracle_g2var(m, k, a, b)
            assert fmulti_direct(m, k, t, [eta]) == oracle_f2var(m, k, a, b)


# ----------------------------------------------------------------- fmulti


def test_fmulti_all_zero():
    t = UnitSeries(0, 1)
    etas = [UnitSeries(0, 1), UnitSeries(0, 1)]
    assert fmulti_direct(0, 1, t, etas) == 16
    assert fmulti_closed(0, 1, t, etas) == 16


def test_fmulti_direct_equals_closed_at_n2():
    m, k = 0, 2
    for t in grid(k + m):
        for e1 in grid(k):
            for e2 in grid(k):
                assert fmulti_direct(m, k, t, [e1, e2]) == fmulti_closed(
                    m, k, t, [e1, e2]
                )


def test_fmulti_reduces_to_h():
    m, k = 1, 2
    for t in grid(k + m):
        assert fmulti_direct(m, k, t, []) == h_closed(1 + m, k, t)
        assert fmulti_closed(m, k, t, []) == h_closed(1 + m, k, t)


# ---------------------------------------------------------------- stability


@given(st.integers(0, 2**4 - 1), st.integers(0, 2**3 - 1))
def test_h_and_g_constant_on_cosets(base_bits, tail_bits):
    # appending coefficients past depth k+s-1 must not move the sums
    s, k = 2, 3
    t_lo = UnitSeries(base_bits, k + s - 1)
    t_hi = UnitSeries(base_bits | (tail_bits << (k + s - 1)), k + s + 2)
    assert h_direct(s, k, t_lo) == h_direct(s, k, t_hi)
    assert g_direct(s, k, t_lo) == g_direct(s, k, t_hi)


def test_direct_sums_refuse_more_terms_than_the_budget():
    t, eta = UnitSeries(0, 12), UnitSeries(0, 4)
    cases = [  # (direct sum, its number of terms as a power of two)
        (lambda b: h_direct(4, 4, t, budget_bits=b), 8),
        (lambda b: g_direct(4, 4, t, budget_bits=b), 6),
        (lambda b: g2var_direct(2, 4, t, eta, budget_bits=b), 7),
        (lambda b: fmulti_direct(2, 4, t, [eta], budget_bits=b), 8),
        (lambda b: fmulti_direct(2, 4, t, [eta, eta], budget_bits=b), 9),
    ]
    for direct, bits in cases:
        with pytest.raises(BudgetExceeded):
            direct(bits - 1)
        assert direct(bits) == 1 << bits  # every term of the sum at t = 0 is 1


# t needs k+s-1 coefficients for g and k+m for g2 and fmulti, each eta k;
# the closed forms check their own, so only these tests see the direct guards
@pytest.mark.parametrize("direct,args,text", [
    (g_direct, (2, 3, S("101")), "needs precision 4, series has 3"),
    (g2var_direct, (2, 3, S("1011"), S("101")), "needs precision 5, series has 4"),
    (g2var_direct, (2, 3, S("10110"), S("10")), "needs precision 3, series has 2"),
    (fmulti_direct, (2, 3, S("1011"), [S("101")]), "needs precision 5, series has 4"),
    (fmulti_direct, (2, 3, S("10110"), [S("101"), S("10")]), "needs precision 3, series has 2"),
], ids=["g-t", "g2-t", "g2-eta", "fmulti-t", "fmulti-eta"])
def test_direct_sums_refuse_a_series_one_coefficient_short(direct, args, text):
    with pytest.raises(InsufficientPrecision, match=text):
        direct(*args)


# ------------------------------------------------------------ oracle grids

# every parameter set whose full grid of series holds at most 2^12 terms
H_CASES = [(s, k) for s in range(1, 6) for k in range(1, 6) if 2 * (s + k) - 1 <= 12]
G_CASES = [(s, k) for s in range(2, 6) for k in range(2, 6) if 2 * (s + k) - 3 <= 12]
TWO_VAR_CASES = [(m, k) for m in range(4) for k in range(1, 5) if 3 * k + 2 * m + 1 <= 12]
FMULTI_CASES = [(n, m, k) for n in (1, 2) for m in range(3) for k in range(1, 4)
                if (n + 2) * k + 2 * m + n + 1 <= 12]


def long_grid(bits, extra):
    """Every series of this depth, carrying `extra` more coefficients, all 1."""
    tail = ((1 << extra) - 1) << bits
    return [UnitSeries(v | tail, bits + extra) for v in range(1 << bits)]


@pytest.mark.parametrize("extra", [0, 2, 3])
@pytest.mark.parametrize("s,k", H_CASES)
def test_h_direct_matches_oracle_on_every_small_grid(s, k, extra):
    for t in long_grid(k + s - 1, extra):
        assert h_direct(s, k, t) == oracle_h(s, k, alpha_of(t))


@pytest.mark.parametrize("extra", [0, 2, 3])
@pytest.mark.parametrize("s,k", G_CASES)
def test_g_direct_matches_oracle_on_every_small_grid(s, k, extra):
    for t in long_grid(k + s - 1, extra):
        assert g_direct(s, k, t) == oracle_g(s, k, alpha_of(t))


@pytest.mark.parametrize("extra", [0, 2, 3])
@pytest.mark.parametrize("m,k", TWO_VAR_CASES)
def test_g2var_direct_matches_oracle_on_every_small_grid(m, k, extra):
    # t's coefficients past k+m must not reach eta's factor, nor eta's past k
    for t, eta in product(long_grid(k + m, extra), long_grid(k, 5 - extra)):
        assert g2var_direct(m, k, t, eta) == oracle_g2var(m, k, alpha_of(t), alpha_of(eta))


@pytest.mark.parametrize("extra", [0, 2, 3])
@pytest.mark.parametrize("n,m,k", FMULTI_CASES)
def test_fmulti_direct_matches_oracle_on_every_small_grid(n, m, k, extra):
    for t, *etas in product(long_grid(k + m, extra), *[long_grid(k, 5 - extra)] * n):
        want = oracle_fmulti(m, k, alpha_of(t), [alpha_of(eta) for eta in etas])
        assert fmulti_direct(m, k, t, etas) == want


# the grids above fit in one 2^16-lane word; words of 2 and 4 lanes split
# every sum over several words
@pytest.mark.parametrize("lane_bits", [1, 2])
@pytest.mark.parametrize("s,k", H_CASES)
def test_h_direct_matches_oracle_over_several_lane_words(monkeypatch, lane_bits, s, k):
    monkeypatch.setattr(lanes, "_LANE_BITS", lane_bits)
    for t in grid(k + s - 1):
        assert h_direct(s, k, t) == oracle_h(s, k, alpha_of(t))


@pytest.mark.parametrize("lane_bits", [1, 2])
@pytest.mark.parametrize("s,k", G_CASES)
def test_g_direct_matches_oracle_over_several_lane_words(monkeypatch, lane_bits, s, k):
    monkeypatch.setattr(lanes, "_LANE_BITS", lane_bits)
    for t in grid(k + s - 1):
        assert g_direct(s, k, t) == oracle_g(s, k, alpha_of(t))


@pytest.mark.parametrize("lane_bits", [1, 2])
@pytest.mark.parametrize("m,k", TWO_VAR_CASES)
def test_g2var_direct_matches_oracle_over_several_lane_words(monkeypatch, lane_bits, m, k):
    monkeypatch.setattr(lanes, "_LANE_BITS", lane_bits)
    for t, eta in product(grid(k + m), grid(k)):
        assert g2var_direct(m, k, t, eta) == oracle_g2var(m, k, alpha_of(t), alpha_of(eta))


@pytest.mark.parametrize("lane_bits", [1, 2])
@pytest.mark.parametrize("n,m,k", FMULTI_CASES)
def test_fmulti_direct_matches_oracle_over_several_lane_words(monkeypatch, lane_bits,
                                                              n, m, k):
    monkeypatch.setattr(lanes, "_LANE_BITS", lane_bits)
    for t, *etas in product(grid(k + m), *[grid(k)] * n):
        want = oracle_fmulti(m, k, alpha_of(t), [alpha_of(eta) for eta in etas])
        assert fmulti_direct(m, k, t, etas) == want


@pytest.mark.parametrize("seed", range(3))
def test_direct_sums_over_many_lane_words_match_the_closed_forms(seed):
    rng = random.Random(seed)
    t = UnitSeries(rng.getrandbits(23), 23)
    assert h_direct(12, 12, t) == h_closed(12, 12, t)  # 2^24 terms, 2^8 words
    t = UnitSeries(rng.getrandbits(17), 17)
    etas = [UnitSeries(rng.getrandbits(9), 9) for _ in range(3)]
    for n in range(4):  # 2^18 .. 2^21 terms
        assert fmulti_direct(8, 9, t, etas[:n]) == fmulti_closed(8, 9, t, etas[:n])


def test_direct_sums_never_call_gf2_or_builders(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a direct sum called persym.gf2 or persym.builders")

    # every binding of a public gf2 or builders callable, in any persym module
    oracles = {id(getattr(module, name))
               for module in (gf2, builders) for name in module.__all__}
    for module in [m for key, m in sys.modules.items()
                   if key == "persym" or key.startswith("persym.")]:
        for attr, value in list(vars(module).items()):
            if id(value) in oracles:
                monkeypatch.setattr(module, attr, refuse)
    t, eta = S("1011010"), S("110")
    with pytest.raises(AssertionError):
        h_closed(3, 3, t)
    a, b = alpha_of(t), alpha_of(eta)
    assert h_direct(3, 3, t) == oracle_h(3, 3, a)
    assert g_direct(3, 3, t) == oracle_g(3, 3, a)
    assert g2var_direct(2, 3, t, eta) == oracle_g2var(2, 3, a, b)
    assert fmulti_direct(2, 3, t, [eta, t]) == oracle_fmulti(2, 3, a, [b, a])


def test_closed_forms_never_call_the_lanes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closed form called persym.lanes")

    want = dict(census.enum_gamma(3, 4))
    # every binding of a callable defined in lanes, in any persym module
    helpers = {id(value) for value in vars(lanes).values()
               if callable(value) and getattr(value, "__module__", None) == lanes.__name__}
    for module in [m for key, m in sys.modules.items()
                   if key == "persym" or key.startswith("persym.")]:
        for attr, value in list(vars(module).items()):
            if id(value) in helpers:
                monkeypatch.setattr(module, attr, refuse)
    t, eta = S("1011010"), S("110")
    with pytest.raises(AssertionError):
        h_direct(3, 3, t)
    with pytest.raises(AssertionError):
        g_vector(3, 3)
    a, b = alpha_of(t), alpha_of(eta)
    assert h_closed(3, 3, t) == oracle_h(3, 3, a)
    assert g_closed(3, 3, t) == oracle_g(3, 3, a)
    assert g2var_closed(2, 3, t, eta) == oracle_g2var(2, 3, a, b)
    assert fmulti_closed(2, 3, t, [eta, t]) == oracle_fmulti(2, 3, a, [b, a])
    assert formulas.gamma_table(3, 4) == want
    # the literal product lists reach lanes._span; the closed counts do not
    with pytest.raises(AssertionError):
        g_boundary_vectors(3, 3)
    with pytest.raises(AssertionError):
        census.repcount_bruteforce(2, 1, 2, 1)
    assert census.repcount_multi_formula(2, 1, 2, 1) == 148
    assert formulas.quad_table(2, 3)[(1, 1, 2, 2)] == 8


def test_literal_products_are_listed_by_the_span_only(monkeypatch):
    listed = []
    span = lanes._span

    def counting(base, vectors):
        out = span(base, vectors)
        listed.append(len(out))
        return out

    monkeypatch.setattr(lanes, "_span", counting)
    # one span per Y, one entry per (Z, U_1..U_n): every tuple of one factor
    q, n, k, m = 2, 1, 3, 2
    assert census.repcount_bruteforce(q, n, k, m) == census.repcount_multi_formula(q, n, k, m)
    assert listed == [1 << (m + 1 + n)] * (1 << k)
    s, k = 3, 4
    listed.clear()
    g_vector(s, k)
    assert listed == [1 << (s - 1)] * (1 << (k - 1))
    listed.clear()
    g_boundary_vectors(s, k)
    assert listed == [1 << (s - 1)] * (1 << (k - 1)) * 2


@pytest.mark.parametrize("closed,args,text", [
    (g2var_closed, (-1, 2), "m must be nonnegative"),
    (g2var_closed, (2, 0), "k must be positive"),
    (g2var_closed, (-1, 0), "m must be nonnegative"),
    (fmulti_closed, (-1, 2), "m must be nonnegative"),
    (fmulti_closed, (2, 0), "k must be positive"),
    (fmulti_closed, (-1, 0), "m must be nonnegative"),
    (formulas.quad_table, (0, 3), "requires 1 <= s <= k, got s=0 k=3"),
    (formulas.quad_table, (4, 3), "requires 1 <= s <= k, got s=4 k=3"),
    (formulas.quad_table, (-2, -5), "requires 1 <= s <= k, got s=-2 k=-5"),
], ids=lambda value: getattr(value, "__name__", None))
def test_closed_forms_name_the_bad_shape(closed, args, text):
    series = {g2var_closed: (S("1011"), S("11")), fmulti_closed: (S("1011"), [S("11")])}
    with pytest.raises(ValueError) as caught:
        closed(*args, *series.get(closed, ()))
    assert str(caught.value) == text


# ------------------------------------------------------- whole-grid sums


@pytest.mark.parametrize("bits", range(9))
def test_wht_equals_the_naive_transform(bits):
    rng = random.Random(bits)
    for _ in range(3):
        v = [rng.randint(-9, 9) for _ in range(1 << bits)]
        want = [sum(c * (-1) ** (t & p).bit_count() for p, c in enumerate(v))
                for t in range(1 << bits)]
        lanes._wht(v)
        assert v == want


@pytest.mark.parametrize("base,vectors", [
    (0, []), (6, []), (0, [1, 2, 4]), (5, [3, 0, 12]), (0, [0, 0, 0]),
    (9, [6, 6]), (3, [5, 5, 5, 10]), (1 << 40, [1 << 40, 7, 1 << 41]),
])
def test_span_lists_base_xor_every_subset_sum_once(base, vectors):
    # combinations picks by position, so equal vectors are distinct subsets
    want = Counter(reduce(xor, subset, base) for r in range(len(vectors) + 1)
                   for subset in combinations(vectors, r))
    got = lanes._span(base, vectors)
    assert len(got) == 1 << len(vectors)
    assert Counter(got) == want


@pytest.mark.parametrize("seed", range(8))
def test_product_sums_equal_the_naive_literal_sum(seed):
    rng = random.Random(seed)
    bits = rng.randint(3, 7)
    width = rng.randint(1, bits - 1)  # ys below 2^width, shifted by at most bits - width
    ys = [rng.randrange(1 << width) for _ in range(rng.randint(1, 5))]
    shifts = [rng.randint(0, bits - width) for _ in range(rng.randint(0, 3))]
    for top in (None, rng.randint(0, bits - width)):
        # y << top (or 0) XOR the y << j of each subset of shifts, by position
        products = [reduce(xor, [y << j for j in subset], 0 if top is None else y << top)
                    for y in ys for r in range(len(shifts) + 1)
                    for subset in combinations(shifts, r)]
        want = [sum((-1) ** (x & p).bit_count() for p in products) for x in range(1 << bits)]
        assert lanes._product_sums(bits, ys, shifts, top) == want, top


# every brute count grid of K = k+m+nk <= 10 bits
PRODUCT_GRIDS = [(n, k, m) for n in range(4) for k in range(1, 11) for m in range(10)
                 if k + m + n * k <= 10]


@pytest.mark.parametrize("n,k,m", PRODUCT_GRIDS)
def test_brute_products_sum_to_fmulti_direct_at_every_point(n, k, m):
    # the brute count's F: contribution Y*Z in the low k+m bits, Y*U_j in the
    # j-th k-bit field above, so point x is t and the eta_j read off those fields
    bits, shifts = k + m + n * k, [*range(m + 1), *range(k + m, k + m + n * k, k)]
    sums = lanes._product_sums(bits, range(1 << k), shifts)
    for x in range(1 << bits):
        t = UnitSeries(x & ((1 << (k + m)) - 1), k + m)
        etas = [UnitSeries(x >> (k + m + j * k) & ((1 << k) - 1), k) for j in range(n)]
        assert sums[x] == fmulti_direct(m, k, t, etas), x


# the brute count's one transform at q >= 3 is pinned in test_census.py
def test_g_g1_and_g2_each_transform_once(monkeypatch):
    lengths = []
    wht = lanes._wht

    def counting(v):
        lengths.append(len(v))
        wht(v)

    monkeypatch.setattr(lanes, "_wht", counting)
    g_vector(3, 4)
    assert lengths == [1 << 6]
    g_boundary_vectors(3, 4)
    assert lengths == [1 << 6] * 3


# every (s, k) whose grid holds at most 2^12 points
GRID_CASES = [(s, k) for s in range(2, 12) for k in range(2, 12) if s + k - 1 <= 12]


@pytest.mark.parametrize("s,k", GRID_CASES)
def test_grid_vectors_match_the_closed_forms_at_every_point(s, k):
    g, (g1, g2) = g_vector(s, k), g_boundary_vectors(s, k)
    assert len(g) == len(g1) == len(g2) == 1 << (k + s - 1)
    for v, t in enumerate(grid(k + s - 1)):
        assert (g[v], g1[v], g2[v]) == (g_closed(s, k, t), *g_boundary_factors(s, k, t))


@pytest.mark.parametrize("s,k", GRID_CASES)
def test_g_vector_matches_g_direct_at_every_point(s, k):
    assert g_vector(s, k) == [g_direct(s, k, t) for t in grid(k + s - 1)]


def test_grid_vectors_refuse_degenerate_parameters():
    for s, k in [(1, 3), (3, 1)]:
        with pytest.raises(ValueError):
            g_vector(s, k)
        with pytest.raises(ValueError):
            g_boundary_vectors(s, k)


def test_grid_vectors_refuse_grids_over_the_ceiling(monkeypatch):
    monkeypatch.setattr(expsum, "GRID_MAX_BITS", 5)
    for vectors in (g_vector, g_boundary_vectors):
        with pytest.raises(BudgetExceeded, match="2\\^6 point grid, over the fixed 2\\^5"):
            vectors(3, 4)
    assert len(g_vector(3, 3)) == len(g_boundary_vectors(3, 3)[0]) == 1 << 5


def test_grid_sums_never_call_gf2_builders_census_or_formulas(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a whole-grid sum called gf2, builders, census or formulas")

    want_g = [g_direct(3, 4, t) for t in grid(6)]
    want_boundary = tuple(zip(*(g_boundary_factors(3, 4, t) for t in grid(6))))
    # every binding of a public gf2, builders, census or formulas callable
    oracles = {id(getattr(module, name)) for module in (gf2, builders, census, formulas)
               for name in module.__all__ if callable(getattr(module, name))}
    for module in [m for key, m in sys.modules.items()
                   if key == "persym" or key.startswith("persym.")]:
        for attr, value in list(vars(module).items()):
            if id(value) in oracles:
                monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError):
        g_closed(3, 4, UnitSeries(0, 6))
    assert g_vector(3, 4) == want_g
    assert tuple(map(tuple, g_boundary_vectors(3, 4))) == want_boundary
