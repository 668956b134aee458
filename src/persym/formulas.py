"""Closed forms for the rank censuses and representation counts.

Everything in this module is pure big-integer arithmetic. The census
module recomputes each of these tables by exhaustive enumeration; the two
sides meet in the verification suites and in the test corpus.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Dict, Iterator, List, Tuple

from .exceptions import CaseMismatch, NonIntegerResult

__all__ = [
    "gamma_closed",
    "gamma_table",
    "quad_closed",
    "quad_table",
    "stacked1_gamma_closed",
    "stacked1_gamma_table",
    "a_coeff_rows",
    "a_coeff_recurrence",
    "a_coeff_closed",
    "a_coeff_table",
    "gaussian_binomial",
    "stacked_gamma_closed",
    "stacked_gamma_table",
    "landsberg",
    "landsberg_table",
    "repcount_piecewise",
]


def gamma_closed(s: int, k: int, i: int) -> int:
    """Number of s x k coefficient-window matrices of rank i.

    The window matrix of a shape and its transpose have the same rank
    distribution, so s > k is normalized by swapping. Returns 0 for i
    outside [0, min(s, k)].
    """
    if s < 1 or k < 1:
        raise ValueError("shape must be positive, got %dx%d" % (s, k))
    if s > k:
        s, k = k, s
    if i < 0 or i > s:
        return 0
    if i == 0:
        return 1
    if i < s:
        return 3 << (2 * (i - 1))
    return (1 << (k + s - 1)) - (1 << (2 * s - 2))


def gamma_table(s: int, k: int) -> Dict[int, int]:
    """Full rank distribution {i: count} for s x k window matrices."""
    return {i: gamma_closed(s, k, i) for i in range(min(s, k) + 1)}


def quad_closed(s: int, k: int, j1: int, j2: int, j3: int, j4: int) -> int:
    """Number of windows whose corner-deleted rank quadruple is (j1,j2,j3,j4).

    The quadruple lists the ranks of the (s-1)x(k-1), (s-1)xk, sx(k-1) and
    sxk windows of one coefficient vector. Unreachable quadruples count 0.
    """
    if not 1 <= s <= k:
        raise ValueError("requires 1 <= s <= k, got s=%d k=%d" % (s, k))
    if j1 == j2 == j3 == 0 and j4 in (0, 1):
        return 1
    if j1 == j2 == j3 and 1 <= j1 <= s - 1 and j4 in (j1, j1 + 1):
        return 2 << (2 * j1 - 2)
    if j2 == j3 == j1 + 1 and j4 == j1 + 2 and j4 <= s:
        return 1 << (2 * j4 - 3)
    if (j1, j2, j3, j4) == (s - 1, s - 1, s, s):
        return (1 << (k + s - 1)) - (1 << (2 * s - 1))
    return 0


def quad_table(s: int, k: int) -> Dict[Tuple[int, int, int, int], int]:
    """All rank quadruples with nonzero count for s x k windows."""
    candidates = [(0, 0, 0, 0), (0, 0, 0, 1), (s - 1, s - 1, s, s)]
    for j in range(1, s):
        candidates += [(j, j, j, j), (j, j, j, j + 1), (j - 1, j, j, j + 1)]
    counts = {quad: quad_closed(s, k, *quad) for quad in candidates}
    return {quad: count for quad, count in counts.items() if count}


def stacked1_gamma_closed(m: int, k: int, i: int) -> int:
    """Rank-i count for one free row stacked on a (1+m) x k window block.

    Computed by the one-row recurrence: the free row either stays inside
    the row space of the window block (2^i choices) or leaves it
    (2^k - 2^{i-1} choices on top of a rank i-1 block).
    """
    if m < 0 or k < 1:
        raise ValueError("requires m >= 0 and k >= 1, got m=%d k=%d" % (m, k))
    if i < 0 or i > min(k, m + 2):
        return 0
    value = (1 << i) * gamma_closed(1 + m, k, i)
    if i >= 1:
        value += ((1 << k) - (1 << (i - 1))) * gamma_closed(1 + m, k, i - 1)
    return value


def _stacked1_case_table(m: int, k: int) -> Dict[int, int]:
    if k == 2:
        return {0: 1, 1: 9, 2: (1 << (4 + m)) - 10}
    if m == 0 and k >= 2:
        return {0: 1, 1: 3 * ((1 << k) - 1), 2: (1 << (2 * k)) - 3 * (1 << k) + 2}
    if m == 1 and k >= 3:
        return {
            0: 1,
            1: (1 << k) + 5,
            2: 11 * ((1 << k) - 2),
            3: (1 << (2 * k + 1)) - 3 * (1 << (k + 2)) + 16,
        }
    if 3 <= k <= 1 + m:
        table = {0: 1, 1: (1 << k) + 5}
        for i in range(2, k):
            table[i] = 3 * (1 << (k + 2 * i - 4)) + 21 * (1 << (3 * i - 5))
        table[k] = (1 << (2 * k + m)) - 5 * (1 << (3 * k - 5))
        return table
    if 2 <= m <= k - 2:
        table = {0: 1, 1: (1 << k) + 5}
        for i in range(2, m + 1):
            table[i] = 3 * (1 << (k + 2 * i - 4)) + 21 * (1 << (3 * i - 5))
        table[m + 1] = 11 * ((1 << (k + 2 * m - 2)) - (1 << (3 * m - 2)))
        table[m + 2] = (1 << (2 * k + m)) - 3 * (1 << (k + 2 * m)) + (1 << (3 * m + 1))
        return table
    raise ValueError("no case table covers m=%d, k=%d" % (m, k))


def stacked1_gamma_table(m: int, k: int) -> Dict[int, int]:
    """Case-by-case closed tables for the one-free-row census.

    Five parameter families (k=2; m=0; m=1; k <= 1+m; 2 <= m <= k-2) have
    fully expanded tables. They are redundant with the recurrence in
    stacked1_gamma_closed and are kept as fixtures: every entry is checked
    against the recurrence, and any disagreement raises CaseMismatch
    rather than silently preferring one side.
    """
    table = _stacked1_case_table(m, k)
    for i, value in table.items():
        recurrence = stacked1_gamma_closed(m, k, i)
        if value != recurrence:
            raise CaseMismatch(
                "case table and recurrence disagree at m=%d k=%d i=%d: %d vs %d"
                % (m, k, i, value, recurrence)
            )
    return table


def a_coeff_rows(n: int) -> Iterator[List[int]]:
    """Rows 0..n of the row-stacking coefficients, by the triangle recurrence.

    Row n is built from row n-1 by a_j -> 2^j a_j + a_{j-1} with both ends
    pinned to 1; entry j of row n is a_j for n free rows.
    """
    row = [1]
    yield row
    for size in range(1, n + 1):
        row = [1] + [(1 << j) * row[j] + row[j - 1] for j in range(1, size)] + [1]
        yield row


@functools.lru_cache(maxsize=1)
def _a_coeff_row(n: int) -> Tuple[int, ...]:
    """Row n of a_coeff_rows; cached, since stacked_gamma_closed reads it at every (i, j)."""
    return tuple(deque(a_coeff_rows(n), maxlen=1)[0])


def a_coeff_recurrence(n: int, j: int) -> int:
    """Row-stacking coefficient a_j for n free rows, by the triangle recurrence."""
    if n < 0 or not 0 <= j <= n:
        raise ValueError("requires 0 <= j <= n, got n=%d j=%d" % (n, j))
    return _a_coeff_row(n)[j]


@functools.lru_cache(maxsize=1024)
def gaussian_binomial(n: int, r: int) -> int:
    """Number of r-dimensional subspaces of an n-dimensional F2 space.

    Cached, since a_coeff_closed(n, j) reads row n+1 of these at every j.
    """
    if n < 0 or r < 0:
        raise ValueError("requires n, r >= 0, got n=%d r=%d" % (n, r))
    if r > n:
        return 0
    num = 1
    den = 1
    for l in range(r):
        num *= (1 << n) - (1 << l)
        den *= (1 << r) - (1 << l)
    value, rem = divmod(num, den)
    if rem:
        raise NonIntegerResult("Gaussian binomial (%d, %d) is not exact" % (n, r))
    return value


def a_coeff_closed(n: int, j: int) -> int:
    """Row-stacking coefficient a_j for n free rows, in closed form.

    Alternating sum of Gaussian binomials; must agree with the recurrence
    for every 0 <= j <= n.
    """
    if n < 0 or not 0 <= j <= n:
        raise ValueError("requires 0 <= j <= n, got n=%d j=%d" % (n, j))
    if j == 0 or j == n:
        return 1
    total = (-1 if j & 1 else 1) * (1 << (j * n - j * (j - 1) // 2))
    for s in range(j):
        term = gaussian_binomial(n + 1, j - s) << (s * (n - j) + s * (s + 1) // 2)
        total += -term if s & 1 else term
    return total


_A_ROWS = {
    1: (1, 1),
    2: (1, 3, 1),
    3: (1, 7, 7, 1),
    4: (1, 15, 35, 15, 1),
    5: (1, 31, 155, 155, 31, 1),
}


def a_coeff_table(n: int) -> Tuple[int, ...]:
    """Hardcoded coefficient rows for 1 <= n <= 5, kept as a fixture."""
    if n not in _A_ROWS:
        raise ValueError("hardcoded rows cover 1 <= n <= 5, got n=%d" % n)
    return _A_ROWS[n]


def _check_stacked(n: int, m: int, k: int) -> None:
    if n < 0 or m < 0 or k < 1:
        raise ValueError("requires n, m >= 0 and k >= 1, got n=%d m=%d k=%d" % (n, m, k))


def stacked_gamma_closed(n: int, m: int, k: int, i: int) -> int:
    """Rank-i count for n free rows stacked on a (1+m) x k window block: the window-block
    rank counts combined with a_j coefficients, nonzero only for 0 <= i <= min(k, n+m+1)."""
    _check_stacked(n, m, k)
    total = 0
    for j in range(min(i, n) + 1):
        base = gamma_closed(1 + m, k, i - j)
        if base:
            coeff = a_coeff_recurrence(n, j) << ((n - j) * (i - j))
            for l in range(1, j + 1):
                coeff *= (1 << k) - (1 << (i - l))
            total += coeff * base
    return total


def stacked_gamma_table(n: int, m: int, k: int) -> Dict[int, int]:
    """Full rank distribution {i: count} for the stacked census."""
    _check_stacked(n, m, k)
    return {i: stacked_gamma_closed(n, m, k, i) for i in range(min(k, n + m + 1) + 1)}


def landsberg(rows: int, k: int, i: int) -> int:
    """Number of rows x k matrices over F2 of rank i (no structure at all)."""
    if rows < 1 or k < 1:
        raise ValueError("shape must be positive, got %dx%d" % (rows, k))
    if i < 0 or i > min(rows, k):
        return 0
    num = 1
    den = 1
    for l in range(i):
        num *= ((1 << rows) - (1 << l)) * ((1 << k) - (1 << l))
        den *= (1 << i) - (1 << l)
    value, rem = divmod(num, den)
    if rem:
        raise NonIntegerResult("rank count (%d, %d, %d) is not exact" % (rows, k, i))
    return value


def landsberg_table(rows: int, k: int) -> Dict[int, int]:
    """Full rank distribution over all rows x k matrices."""
    return {i: landsberg(rows, k, i) for i in range(min(rows, k) + 1)}


def repcount_piecewise(q: int, k: int, m: int) -> int:
    """Solution count R_q for the one-free-row system, split by exponent q.

    q = 1 and q = 2 have flat integer forms; q >= 3 folds a geometric sum
    g into 2^E (1 + 3g 2^-a + D 2^-b), with E = (q-1)(k+m+1) + 1,
    a = (q-2)m + 2, b = q(1+m) and D = 2^(k+m) - 2^(2m). Requires
    m <= k - 1, so E - a = (q-1)k + m + q - 2 and E - b = (q-1)k - m are
    both positive and every term is an integer shift.
    """
    if q < 1 or m < 0 or m > k - 1:
        raise ValueError("requires q >= 1 and 0 <= m <= k-1, got q=%d k=%d m=%d" % (q, k, m))
    if q == 1:
        return (1 << k) + (1 << (1 + m)) - 1
    if q == 2:
        return (1 << (2 * k)) + 3 * (m + 1) * (1 << (k + m))
    geometric = sum(1 << ((q - 2) * r) for r in range(m))
    return ((1 << ((q - 1) * (k + m + 1) + 1))
            + (3 * geometric << ((q - 1) * k + m + q - 2))
            + (((1 << (k + m)) - (1 << (2 * m))) << ((q - 1) * k - m)))
