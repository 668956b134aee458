"""Entry-level views of `persym.gf2.BitMatrix` that only the tests need.

The package works on bit-packed rows; these helpers build a matrix from
nested 0/1 lists, read it back, and derive the transpose and the kernel
dimension, so tests can state small examples entry by entry.
"""

from __future__ import annotations

from typing import List, Sequence

from persym.gf2 import BitMatrix, rank


def from_entries(entries: Sequence[Sequence[int]], ncols: int | None = None) -> BitMatrix:
    """Build from nested 0/1 sequences (row-major)."""
    nrows = len(entries)
    if ncols is None:
        ncols = len(entries[0]) if nrows else 0
    rows = []
    for row in entries:
        if len(row) != ncols:
            raise ValueError("ragged rows")
        packed = 0
        for j, e in enumerate(row):
            if e not in (0, 1):
                raise ValueError("entries must be 0 or 1")
            packed |= e << j
        rows.append(packed)
    return BitMatrix(nrows, ncols, rows)


def to_entries(m: BitMatrix) -> List[List[int]]:
    return [[(r >> j) & 1 for j in range(m.ncols)] for r in m.rows]


def entry(m: BitMatrix, i: int, j: int) -> int:
    if not (0 <= j < m.ncols):
        raise IndexError("column index out of range")
    return (m.rows[i] >> j) & 1


def kernel_dimension(m: BitMatrix) -> int:
    """Dimension of the right nullspace {x : Mx = 0}; equals cols - rank."""
    return m.ncols - rank(m)


def transpose(m: BitMatrix) -> BitMatrix:
    rows = []
    for j in range(m.ncols):
        packed = 0
        for i in range(m.nrows):
            packed |= ((m.rows[i] >> j) & 1) << i
        rows.append(packed)
    return BitMatrix(m.ncols, m.nrows, rows)
