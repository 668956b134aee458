"""Exponential sums over the unit interval, evaluated two independent ways.

Every sum here has a direct form (a literal iteration over polynomial
tuples, summing character values term by term) and a closed form (a signed
power of two read off the rank of a structured matrix), and the two must
always agree. A direct form takes each term as one lane of the
`persym.lanes` words and its E as the XOR of the monomials of its product,
so one big-int operation acts on up to 2^16 terms; it reads no rank and
sums nothing by orthogonality. It refuses to run over more than
2^budget_bits terms.

Naming: h is the full bilinear sum over deg Y <= k-1, deg Z <= s-1; g is
its top-degree slice (both degrees exact); the two-variable g adds a
second series eta with one extra factor, constant (deg U = 0); fmulti adds
n series eta_j, each with a factor free over U_j in {0,1} (the two-variable
f is fmulti with one eta).

g and its two boundary sums also have whole-grid forms: lanes._product_sums
of the products YZ, the direct sum at every point of the depth k+s-1 grid,
one int per point, so they refuse grids over 2^GRID_MAX_BITS points.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import List, Sequence, Tuple

from .builders import hankel_rows, rank_profile, stacked_rows
from .exceptions import DEFAULT_BUDGET_BITS, GRID_MAX_BITS, BudgetExceeded, check_budget
from .gf2 import rank_of_rows
from .lanes import _lane_words, _product_sums
from .laurent import UnitSeries

__all__ = [
    "h_direct",
    "h_closed",
    "g_direct",
    "g_closed",
    "g_vector",
    "g_boundary_vectors",
    "g2var_direct",
    "g2var_closed",
    "fmulti_direct",
    "fmulti_closed",
]


def _lane_sum(n: int, pairs: Sequence[Tuple[int, int]]) -> int:
    """Sum of (-1)^E(x) over x in [0, 2^n), E(x) the XOR of x_a x_b over pairs
    (index n is the constant 1): 2^n less twice the lanes._lane_words lanes
    where E is 1, one lane per x."""
    odd = 0
    for bits, _, full in _lane_words(n, 0, 1 << n):
        x = bits + [full]
        odd += reduce(xor, [x[a] & x[b] for a, b in pairs], 0).bit_count()
    return (1 << n) - 2 * odd


def _pairs(t: UnitSeries, ys, zs, etas: Sequence[UnitSeries] = (), us=()) -> list:
    """The monomials of E(tYZ) + sum_j E(eta_j Y U_j) over variable indices
    ys[i] (Y's T^i), zs[j] (Z's T^j) and us[j] (U_j): y_i z_j where bit i + j
    of t is 1, y_i u_j where bit i of eta_j is 1."""
    return ([(y, z) for i, y in enumerate(ys) for j, z in enumerate(zs)
             if t.coeffs >> i + j & 1]
            + [(y, u) for eta, u in zip(etas, us) for i, y in enumerate(ys)
               if eta.coeffs >> i & 1])


def h_direct(
    s: int, k: int, t: UnitSeries, *, budget_bits: int = DEFAULT_BUDGET_BITS
) -> int:
    """Sum of E(tYZ) over deg Y <= k-1, deg Z <= s-1, term by term."""
    if s < 1 or k < 1:
        raise ValueError("h is defined for s, k >= 1")
    check_budget(k + s, budget_bits, "direct h sum s=%d k=%d" % (s, k))
    t.require(k + s - 1)
    return _lane_sum(k + s, _pairs(t, range(k), range(k, k + s)))


def h_closed(s: int, k: int, t: UnitSeries) -> int:
    """2^(k+s-r) where r is the rank of the s x k persymmetric block of t."""
    if s < 1 or k < 1:
        raise ValueError("h is defined for s, k >= 1")
    return 1 << (k + s - rank_of_rows(hankel_rows(t, 1, s, k)))


def g_direct(
    s: int, k: int, t: UnitSeries, *, budget_bits: int = DEFAULT_BUDGET_BITS
) -> int:
    """Sum of E(tYZ) over deg Y = k-1 exactly, deg Z = s-1 exactly."""
    if s < 2 or k < 2:
        raise ValueError("g is defined for s, k >= 2")
    check_budget(k + s - 2, budget_bits, "direct g sum s=%d k=%d" % (s, k))
    t.require(k + s - 1)
    n = k + s - 2  # the top coefficients of Y and Z are the constant 1
    return _lane_sum(n, _pairs(t, [*range(k - 1), n], [*range(k - 1, n), n]))


def g_closed(s: int, k: int, t: UnitSeries) -> int:
    """Signed power of two gated by the corner-block rank profile.

    The sum survives only when the three proper corner blocks share one
    rank j; the sign says whether the full block stays at j or jumps.
    """
    if s < 2 or k < 2:
        raise ValueError("g is defined for s, k >= 2")
    j1, j2, j3, j4 = rank_profile(t, 1, s, k)
    if not (j1 == j2 == j3):
        return 0
    if j4 == j1:
        return 1 << (s + k - j1 - 2)
    return -(1 << (s + k - j1 - 2))


def _g_depth(s: int, k: int) -> int:
    """k+s-1, the depth of g's grid, refusing s or k below 2 and a grid over
    2^GRID_MAX_BITS points (the suites call it first, before their census)."""
    if s < 2 or k < 2:
        raise ValueError("g is defined for s, k >= 2")
    if k + s - 1 > GRID_MAX_BITS:
        raise BudgetExceeded(
            "g s=%d k=%d holds a 2^%d point grid, over the fixed 2^%d point ceiling of a "
            "whole-grid sum" % (s, k, k + s - 1, GRID_MAX_BITS))
    return k + s - 1


def g_vector(s: int, k: int) -> List[int]:
    """g at every point of the depth k+s-1 grid (index: the coefficient bits
    of t), summed directly: deg Y = k-1 and deg Z = s-1, both exact."""
    return _product_sums(_g_depth(s, k), range(1 << (k - 1), 1 << k), range(s - 1), s - 1)


def g_boundary_vectors(s: int, k: int) -> Tuple[List[int], List[int]]:
    """The two boundary sums whose product is g^2, at every point of the
    depth k+s-1 grid, summed directly: g1 relaxes the Y degree (deg Y <= k-2,
    deg Z = s-1), g2 the Z degree (deg Y = k-1, deg Z <= s-2)."""
    bits = _g_depth(s, k)
    return (_product_sums(bits, range(1 << (k - 1)), range(s - 1), s - 1),
            _product_sums(bits, range(1 << (k - 1), 1 << k), range(s - 1)))


def g2var_direct(
    m: int,
    k: int,
    t: UnitSeries,
    eta: UnitSeries,
    *,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> int:
    """Sum of E(tYZ)E(etaY) over deg Y <= k-1, deg Z <= m (U pinned to 1)."""
    _check_two_var(m, k)
    check_budget(k + m + 1, budget_bits, "direct g2 sum m=%d k=%d" % (m, k))
    t.require(k + m)
    eta.require(k)
    n = k + m + 1  # U is pinned to the constant 1
    return _lane_sum(n, _pairs(t, range(k), range(k, n), [eta], [n]))


def g2var_closed(m: int, k: int, t: UnitSeries, eta: UnitSeries) -> int:
    """2^(k+m+1-r) if appending the eta row preserves the rank, else 0."""
    rows = stacked_rows(t, [eta], m, k)
    r = rank_of_rows(rows[:-1])
    return (1 << (k + m + 1 - r)) if rank_of_rows(rows) == r else 0


def fmulti_direct(
    m: int,
    k: int,
    t: UnitSeries,
    etas: Sequence[UnitSeries],
    *,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> int:
    """Literal (n+2)-fold sum over Y, Z and one U_j in {0, 1} per eta."""
    _check_two_var(m, k)
    n = k + m + 1 + len(etas)
    check_budget(n, budget_bits, "direct fmulti sum n=%d m=%d k=%d" % (len(etas), m, k))
    t.require(k + m)
    for eta in etas:
        eta.require(k)
    zs = range(k, k + m + 1)
    return _lane_sum(n, _pairs(t, range(k), zs, etas, range(zs.stop, n)))


def fmulti_closed(m: int, k: int, t: UnitSeries, etas: Sequence[UnitSeries]) -> int:
    """2^(k+m+n+1-r) with r the rank of the stacked matrix over n eta rows."""
    r = rank_of_rows(stacked_rows(t, etas, m, k))
    return 1 << (k + m + len(etas) + 1 - r)


def _check_two_var(m: int, k: int) -> None:
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
