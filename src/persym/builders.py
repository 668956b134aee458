"""Builders that turn series coefficients into structured GF(2) matrices.

Matrices here read their entries straight out of coefficient windows of a
UnitSeries: a persymmetric (Hankel) block has entry(i, j) = a_{l+i+j}, so
each row is just the previous row's window shifted one place. The stacked
shape appends unconstrained rows taken from further series.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .gf2 import BitMatrix, rank_of_rows
from .laurent import UnitSeries

__all__ = [
    "hankel",
    "stacked",
    "rank_profile",
    "hankel_rows",
    "stacked_rows",
]


def hankel_rows(t: UnitSeries, l: int, n: int, m: int) -> List[int]:
    """Bit-packed rows of the n x m block with entry(i, j) = a_{l+i+j}."""
    if l < 1:
        raise ValueError("offset l must be at least 1")
    if n < 0 or m < 0:
        raise ValueError("block dimensions must be nonnegative")
    if n and m:
        t.require(l + n + m - 2)
    mask = (1 << m) - 1
    base = t.coeffs >> (l - 1)
    return [(base >> i) & mask for i in range(n)]


def hankel(t: UnitSeries, l: int, n: int, m: int) -> BitMatrix:
    """The n x m persymmetric block of t starting at coefficient a_l."""
    return BitMatrix(n, m, hankel_rows(t, l, n, m))


def stacked_rows(t: UnitSeries, etas: Sequence[UnitSeries], m: int, k: int) -> List[int]:
    """Bit-packed rows of the (1+m) x k block of t over one row per eta."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    rows = hankel_rows(t, 1, 1 + m, k)
    mask = (1 << k) - 1
    for eta in etas:
        eta.require(k)
        rows.append(eta.coeffs & mask)
    return rows


def stacked(t: UnitSeries, etas: Sequence[UnitSeries], m: int, k: int) -> BitMatrix:
    """(1+m) x k persymmetric block of t over one unconstrained row per eta."""
    return BitMatrix(1 + m + len(etas), k, stacked_rows(t, etas, m, k))


def rank_profile(t: UnitSeries, l: int, n: int, m: int) -> Tuple[int, int, int, int]:
    """Ranks (j1, j2, j3, j4) of the four corner blocks of the n x m block at
    offset l: j1 with the last row and column deleted, j2 with the last row
    deleted, j3 with the last column deleted, j4 of the full block.
    """
    if n < 1 or m < 1:
        raise ValueError("rank profiles need at least one row and column")
    rows = hankel_rows(t, l, n, m)
    narrow = (1 << (m - 1)) - 1
    return (
        rank_of_rows(r & narrow for r in rows[: n - 1]),
        rank_of_rows(rows[: n - 1]),
        rank_of_rows(r & narrow for r in rows),
        rank_of_rows(rows),
    )
