"""Dense bit-packed linear algebra over GF(2).

A matrix row is a Python integer whose bit j is the entry in column j.
Arbitrary-precision ints make row operations single XORs regardless of
width, which is all the rank computations here need.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

__all__ = ["BitMatrix", "echelon", "rank", "rank_of_rows"]


class BitMatrix:
    """Immutable dense matrix over GF(2) with bit-packed rows."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows: int, ncols: int, rows: Iterable[int]):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        packed = list(rows)
        if len(packed) != nrows:
            raise ValueError("expected %d rows, got %d" % (nrows, len(packed)))
        mask = (1 << ncols) - 1
        for r in packed:
            if r < 0 or r & ~mask:
                raise ValueError("row 0b%s has bits outside %d columns" % (bin(r), ncols))
        self.nrows = nrows
        self.ncols = ncols
        self._rows = tuple(packed)

    @property
    def rows(self) -> Tuple[int, ...]:
        return self._rows

    def __repr__(self) -> str:
        return "BitMatrix(%d, %d, %r)" % (self.nrows, self.ncols, list(self._rows))


def echelon(rows: Iterable[int], pivots: Sequence[int] = ()) -> List[int]:
    """Pivot rows of span(pivots, rows) over GF(2).

    pivots, an earlier result of echelon, comes back first and unmutated.
    Each new row is reduced against the rows before it and kept, pivot at
    its lowest set bit, when something is left.
    """
    out = list(pivots)
    for row in rows:
        for p in out:
            if row & (p & -p):
                row ^= p
        if row:
            out.append(row)
    return out


def rank_of_rows(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a collection of bit-packed rows."""
    return len(echelon(rows))


def rank(m: BitMatrix) -> int:
    """Row rank of the matrix over GF(2)."""
    return rank_of_rows(m.rows)
