"""Closed forms for the rank censuses and representation counts.

Everything in this module is pure big-integer arithmetic. Each census is a
whole table, built in one call; the census module recomputes each table by
exhaustive enumeration, and the two sides meet in the verification suites.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Tuple

from .exceptions import CaseMismatch, NonIntegerResult

__all__ = [
    "gamma_closed",
    "gamma_table",
    "quad_table",
    "stacked1_gamma_closed",
    "stacked1_gamma_table",
    "a_coeff_rows",
    "a_coeff_recurrence",
    "a_coeff_closed",
    "a_coeff_table",
    "stacked_gamma_table",
    "landsberg_table",
    "repcount_piecewise",
]


def gamma_table(s: int, k: int) -> Dict[int, int]:
    """Theorem 3.1: {i: count} over ranks of s x k window matrices. One window has
    rank 0, 3 * 4^(i-1) have each rank i below min(s, k), and the rest of the
    2^(s+k-1) windows have full rank; a shape and its transpose share the table."""
    if s < 1 or k < 1:
        raise ValueError("shape must be positive, got %dx%d" % (s, k))
    low = min(s, k)
    table = {i: 3 << (2 * (i - 1)) for i in range(1, low)}
    return {0: 1, **table, low: (1 << (k + s - 1)) - (1 << (2 * low - 2))}


def gamma_closed(s: int, k: int, i: int) -> int:
    """Entry i of gamma_table(s, k), 0 outside [0, min(s, k)]. No package code reads
    one entry; it stays while perfbench calls and traces it by name."""
    return gamma_table(s, k).get(i, 0)


def quad_table(s: int, k: int) -> Dict[Tuple[int, int, int, int], int]:
    """Theorem 3.3: every rank quadruple with nonzero count for s x k windows, the
    ranks of a coefficient vector's (s-1)x(k-1), (s-1)xk, sx(k-1) and sxk windows."""
    if not 1 <= s <= k:
        raise ValueError("requires 1 <= s <= k, got s=%d k=%d" % (s, k))
    table = {(0, 0, 0, 0): 1, (0, 0, 0, 1): 1}
    full = (1 << (k + s - 1)) - (1 << (2 * s - 1))
    if full:
        table[s - 1, s - 1, s, s] = full
    for j in range(1, s):
        table[j, j, j, j] = table[j, j, j, j + 1] = table[j - 1, j, j, j + 1] = 1 << (2 * j - 1)
    return table


def stacked1_gamma_closed(m: int, k: int, i: int) -> int:
    """Rank-i count for one free row stacked on a (1+m) x k window block: entry i
    of Theorem 3.9's n = 1 table, 2^i gamma_i + (2^k - 2^(i-1)) gamma_(i-1), as the
    row stays inside the block's row space or lifts a rank i-1 block."""
    if m < 0 or k < 1:
        raise ValueError("requires m >= 0 and k >= 1, got m=%d k=%d" % (m, k))
    return stacked_gamma_table(1, m, k).get(i, 0)


def _stacked1_case_table(m: int, k: int) -> Dict[int, int]:
    if k == 2 and m >= 0:
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
    fully expanded tables. They are kept as fixtures and checked against
    Theorem 3.9's n = 1 table, built once: any disagreement raises
    CaseMismatch rather than silently preferring one side.
    """
    table = _stacked1_case_table(m, k)
    theorem = stacked_gamma_table(1, m, k)
    for i, value in table.items():
        if value != theorem.get(i, 0):
            raise CaseMismatch(
                "case table and Theorem 3.9 disagree at m=%d k=%d i=%d: %d vs %d"
                % (m, k, i, value, theorem.get(i, 0))
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
        row = [1] + [(row[j] << j) + row[j - 1] for j in range(1, size)] + [1]
        yield row


def a_coeff_recurrence(n: int, j: int) -> int:
    """Coefficient a_j of row n of a_coeff_rows. No package code reads one entry;
    it stays while perfbench/tracer.py traces it by name."""
    if n < 0 or not 0 <= j <= n:
        raise ValueError("requires 0 <= j <= n, got n=%d j=%d" % (n, j))
    return deque(a_coeff_rows(n), maxlen=1)[0][j]


def _gaussian_row(n: int, top: int) -> List[int]:
    """Gaussian binomials [n, r] for r = 0..min(top, n), each from the last by one
    exact division: [n, r] = [n, r-1] (2^(n-r+1) - 1) / (2^r - 1)."""
    row = [1]
    for r in range(1, min(top, n) + 1):
        value, rem = divmod(row[-1] * ((1 << (n - r + 1)) - 1), (1 << r) - 1)
        if rem:
            raise NonIntegerResult("Gaussian binomial (%d, %d) is not exact" % (n, r))
        row.append(value)
    return row


def a_coeff_closed(n: int, j: int) -> int:
    """Row-stacking coefficient a_j for n free rows, in closed form.

    Alternating sum of the Gaussian binomials [n+1, 1..j], read from one row;
    must agree with the recurrence for every 0 <= j <= n.
    """
    if n < 0 or not 0 <= j <= n:
        raise ValueError("requires 0 <= j <= n, got n=%d j=%d" % (n, j))
    if j == 0 or j == n:
        return 1
    binomials = _gaussian_row(n + 1, j)
    total = (-1 if j & 1 else 1) * (1 << (j * n - j * (j - 1) // 2))
    for s in range(j):
        term = binomials[j - s] << (s * (n - j) + s * (s + 1) // 2)
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


def stacked_gamma_table(n: int, m: int, k: int) -> Dict[int, int]:
    """Theorem 3.9: {i: count} over ranks of n free rows stacked on a (1+m) x k window
    block. Entry i sums, over j <= min(i, n), the block's rank i-j count times
    a_j 2^((n-j)(i-j)) prod_{l=1..j} (2^k - 2^(i-l)), a_j from row n held alone and
    the product gaining its factor 2^k - 2^(i-j) at each step of j."""
    if n < 0 or m < 0 or k < 1:
        raise ValueError("requires n, m >= 0 and k >= 1, got n=%d m=%d k=%d" % (n, m, k))
    a = deque(a_coeff_rows(n), maxlen=1)[0]
    gamma, table = gamma_table(1 + m, k), {}
    for i in range(min(k, n + m + 1) + 1):
        total, product = 0, 1
        for j in range(min(i, n) + 1):
            if j:
                product *= (1 << k) - (1 << (i - j))
            base = gamma.get(i - j, 0)
            if base:
                total += (a[j] * product << (n - j) * (i - j)) * base
        table[i] = total
    return table


def landsberg_table(rows: int, k: int) -> Dict[int, int]:
    """Rank distribution {i: count} over all rows x k matrices (no structure at all):
    Landsberg's [rows, i] prod_{l<i} (2^k - 2^l), the binomials read off one Gaussian
    row and the product kept running."""
    if rows < 1 or k < 1:
        raise ValueError("shape must be positive, got %dx%d" % (rows, k))
    table, product = {}, 1
    for i, binomial in enumerate(_gaussian_row(rows, k)):
        table[i] = binomial * product
        product *= (1 << k) - (1 << i)
    return table


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
