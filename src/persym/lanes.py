"""Bit-sliced lane words, F2 spans and the Walsh-Hadamard transform; imports no persym.

Lane x of a word stands for the integer base + x (a census window, or one
term of a direct sum), the word covering an aligned block of 2^b integers,
so one big-int operation acts on all of them. Bit p < b is the same lane
mask in every word; a bit p >= b is all ones or zeros, from bit p of base.

_product_sums is the one literal sum at every grid point, for g's grid
vectors and the brute representation count: the _wht of a tally of _spans.
"""

import functools
from operator import add, sub
from typing import Iterable, List, Optional, Sequence, Tuple

# a word holds at most 2^16 lanes: at 2^26 windows 2^18 lanes saved about
# a tenth of the time and raised peak memory from 15 to 21 MiB
_LANE_BITS = 16


@functools.lru_cache(maxsize=None)
def _lane_masks(b: int) -> Tuple[int, ...]:
    """M_p for p < b: bit x of M_p is bit p of x, over 2^b lanes. The masks of
    2^(l+1) lanes repeat each of 2^l (m | m << 2^l) and add 2^l zeros, then 2^l
    ones: shifts and ors, where dividing a 2^16-bit word took about 8 ms."""
    masks = []
    for l in range(b):
        half = 1 << l
        masks = [m | m << half for m in masks] + [((1 << half) - 1) << half]
    return tuple(masks)


def _lane_words(depth: int, lo: int, hi: int):
    """(bits, valid, full) for each aligned word of at most 2^_LANE_BITS lanes
    meeting [lo, hi), whose lane x stands for the integer base + x: bits[p]
    holds bit p of each lane's integer (p < depth), valid the lanes in
    [lo, hi), full all of them (see the module docstring)."""
    b = min(_LANE_BITS, depth, (hi - lo - 1).bit_length())
    lanes = 1 << b
    full = (1 << lanes) - 1
    masks = _lane_masks(b)
    for base in range(lo >> b << b, hi, lanes):
        start = max(lo - base, 0)
        valid = ((1 << (min(hi - base, lanes) - start)) - 1) << start
        yield [*masks, *[full if base >> p & 1 else 0 for p in range(b, depth)]], valid, full


def _span(base: int, vectors: Iterable[int]) -> List[int]:
    """base XOR each subset-sum of vectors, one entry per subset (equal sums repeat),
    by doubling; over Y's shifts, these are the literal products YZ."""
    out = [base]
    for v in vectors:
        out += [x ^ v for x in out]
    return out


def _wht(v: List[int]) -> None:
    """Walsh-Hadamard transform in place: v[t] becomes the sum over p of
    v[p] * (-1)^popcount(t & p), for len(v) a power of two, by Yates's (1937) pass
    log2(len(v)) times: the sums v[2i] + v[2i + 1] in order, then the differences."""
    half = len(v) // 2
    for _ in range(len(v).bit_length() - 1):
        a, b = v[0::2], v[1::2]
        v[:half] = map(add, a, b)
        v[half:] = map(sub, a, b)


def _product_sums(bits: int, ys: Iterable[int], shifts: Sequence[int],
                  top: Optional[int] = None) -> List[int]:
    """The sum of (-1)^popcount(x & p) over the products p of each y in ys, at
    every point x of the depth-bits grid: the _wht of the tally of the _span of
    y << j over shifts, from y << top (or 0), so no rank is read."""
    tally = [0] * (1 << bits)
    for y in ys:
        for p in _span(0 if top is None else y << top, [y << j for j in shifts]):
            tally[p] += 1
    _wht(tally)
    return tally
