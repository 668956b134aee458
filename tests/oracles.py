"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and self-contained: list-based
polynomials, minor-expansion rank (and, for grids too large for it, a plain
elimination on the highest set bit), literal character sums. Nothing imports
the package under test, so agreement between these oracles and the package
is evidence, not circularity.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, product
from typing import List, Optional, Sequence, Tuple


# ---------------------------------------------------------------- matrices


def oracle_rank_minors(entries: Sequence[Sequence[int]]) -> int:
    """Rank = size of the largest nonsingular square submatrix.

    Nonsingularity of an r x r submatrix is decided by exhaustive solve:
    S is invertible over GF(2) iff Sx = 0 only for x = 0. Exponential in
    the matrix size; keep inputs at 5 x 5 or below.
    """
    nrows = len(entries)
    ncols = len(entries[0]) if nrows else 0
    for r in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), r):
            for cols in combinations(range(ncols), r):
                if _nonsingular([[entries[i][j] for j in cols] for i in rows]):
                    return r
    return 0


def _nonsingular(square: List[List[int]]) -> bool:
    r = len(square)
    for bits in range(1, 1 << r):
        x = [(bits >> j) & 1 for j in range(r)]
        if all(sum(row[j] * x[j] for j in range(r)) % 2 == 0 for row in square):
            return False
    return True


def oracle_hankel_entries(alpha: Sequence[int], l: int, n: int, m: int) -> List[List[int]]:
    return [[alpha[l + i + j - 1] for j in range(m)] for i in range(n)]


# ------------------------------------------------------- series and sums

# A polynomial is a tuple of 0/1 coefficients, index = power of T.
# A series in the unit interval is a tuple (a1, a2, ...), index i = the
# coefficient of T^-(i+1).


def poly_mul(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] ^= bj
    return tuple(out)


def char_sign(alpha: Sequence[int], poly: Sequence[int]) -> int:
    """Sign of the additive character at (series * poly).

    The coefficient of T^-1 in the product is sum_j poly_j * alpha_{1+j};
    alpha must be long enough to cover every nonzero poly coefficient.
    """
    acc = 0
    for j, pj in enumerate(poly):
        if pj:
            acc ^= alpha[j]
    return -1 if acc else 1


def polys_up_to(deg: int) -> List[Tuple[int, ...]]:
    """All polynomials of degree <= deg, including 0; deg < 0 gives just 0."""
    if deg < 0:
        return [()]
    return [tuple((v >> i) & 1 for i in range(deg + 1)) for v in range(1 << (deg + 1))]


def polys_exactly(deg: int) -> List[Tuple[int, ...]]:
    """All polynomials with leading coefficient 1 at exactly this degree."""
    return [p for p in polys_up_to(deg) if len(p) == deg + 1 and p[deg] == 1]


def oracle_h(s: int, k: int, alpha: Sequence[int]) -> int:
    total = 0
    for y in polys_up_to(k - 1):
        for z in polys_up_to(s - 1):
            total += char_sign(alpha, poly_mul(y, z))
    return total


def oracle_g(s: int, k: int, alpha: Sequence[int]) -> int:
    total = 0
    for y in polys_exactly(k - 1):
        for z in polys_exactly(s - 1):
            total += char_sign(alpha, poly_mul(y, z))
    return total


def oracle_g2var(m: int, k: int, alpha: Sequence[int], beta: Sequence[int]) -> int:
    # inner factor is a single term: deg U = 0 forces U = 1
    total = 0
    for y in polys_up_to(k - 1):
        for z in polys_up_to(m):
            total += char_sign(alpha, poly_mul(y, z)) * char_sign(beta, y)
    return total


def oracle_fmulti(m: int, k: int, alpha: Sequence[int], betas: Sequence[Sequence[int]]) -> int:
    total = 0
    units = [(), (1,)]  # deg U <= 0 means U in {0, 1}
    for y in polys_up_to(k - 1):
        for z in polys_up_to(m):
            base = char_sign(alpha, poly_mul(y, z))
            for us in product(units, repeat=len(betas)):
                term = base
                for beta, u in zip(betas, us):
                    term *= char_sign(beta, poly_mul(y, u))
                total += term
    return total


def oracle_f2var(m: int, k: int, alpha: Sequence[int], beta: Sequence[int]) -> int:
    return oracle_fmulti(m, k, alpha, [beta])


# ------------------------------------------------- rank-gated closed forms

# Bit-packed rows here: bit j of a row is column j, and bit b of a series'
# coefficient bits v is the coefficient of T^-(b+1).


def _rank_bits(rows: Sequence[int]) -> int:
    """GF(2) rank of bit-packed rows, pivoting on the highest set bit."""
    pivots: dict = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _window_rows(v: int, rows: int, cols: int) -> List[int]:
    """Bit-packed rows of the rows x cols window, entry (i, j) = bit i + j of v."""
    return [(v >> i) & ((1 << cols) - 1) for i in range(rows)]


def g_boundary_factors(s: int, k: int, t) -> Tuple[int, int]:
    """The two boundary sums whose product is g^2, in closed form at series t.

    The first factor relaxes the Y degree (deg Y <= k-2) and is a
    difference of closed h values, h = 2^(k+s-r) at window rank r; the
    second relaxes the Z degree and is computed from its own rank gate.
    """
    if s < 2 or k < 2:
        raise ValueError("boundary factors exist for s, k >= 2")

    def rank(rows: int, cols: int) -> int:
        return _rank_bits(_window_rows(t.coeffs, rows, cols))

    g1 = (1 << (k + s - 1 - rank(s, k - 1))) - (1 << (k + s - 2 - rank(s - 1, k - 1)))
    j1, j2 = rank(s - 1, k - 1), rank(s - 1, k)
    g2 = (1 << (k + s - 2 - j1)) if j1 == j2 else 0
    return g1, g2


# ------------------------------------------------------------ rank censuses

# A census walks the coefficient bits v of its windows: gamma (s, k) ranks
# each s x k window, quad (l, n, m) each n x m window, and sigma (m, k) and
# stacked (n, m, k) each (1+m) x k window, under one free row or n.


def oracle_window_ranks(kind: str, params: Tuple[int, ...],
                        windows: Optional[range] = None) -> List[dict]:
    """What a census chunk holds, as one {key: 1} per window index (all of
    them unless windows names a range): the window's rank, or for quad the
    ranks of its four corner blocks, with the last row and column deleted,
    the last row, the last column, and none. quad ignores l, which only
    names where the window starts."""
    rows, cols = params[-2:] if kind in ("gamma", "quad") else (1 + params[-2], params[-1])
    narrow = (1 << (cols - 1)) - 1
    out = []
    for v in range(1 << (rows + cols - 1)) if windows is None else windows:
        block = _window_rows(v, rows, cols)
        if kind == "quad":
            cut = [row & narrow for row in block]
            key = (_rank_bits(cut[:-1]), _rank_bits(block[:-1]), _rank_bits(cut),
                   _rank_bits(block))
        else:
            key = _rank_bits(block)
        out.append({key: 1})
    return out


def oracle_window_tallies(kind: str, params: Tuple[int, ...]) -> List[dict]:
    """The whole census, as one tally per window index: the window's own key
    for gamma and quad; for stacked (n, m, k) the window's rank under every
    n-tuple of free rows; for sigma (m, k) stacked with one free row, each
    rank keyed "same" or "up" by whether the row raised the window's."""
    if kind in ("gamma", "quad"):
        return oracle_window_ranks(kind, params)
    m, k = params[-2:]
    tallies = []
    for v in range(1 << (k + m)):
        block = _window_rows(v, 1 + m, k)
        if kind == "sigma":
            base = _rank_bits(block)
            tallies.append({("same" if r == base else "up", r): count
                            for r, count in _free_row_ranks(block, 1, k).items()})
        else:
            tallies.append(_free_row_ranks(block, params[0], k))
    return tallies


def oracle_rank_counts(rows: int, k: int) -> dict:
    """Every rows x k matrix, tallied by rank."""
    return _free_row_ranks([], rows, k)


def _free_row_ranks(block: List[int], n: int, k: int) -> dict:
    """Ranks of block under each of the 2^(nk) n-tuples of free k-bit rows."""
    mask = (1 << k) - 1
    counts: dict = {}
    for word in range(1 << (n * k)):
        r = _rank_bits(block + [(word >> (j * k)) & mask for j in range(n)])
        counts[r] = counts.get(r, 0) + 1
    return counts


# ------------------------------------------------------ solution counting


def oracle_repcount(q: int, n: int, k: int, m: int) -> int:
    """Count tuples (Y_i, Z_i, U_j^(i)) solving the bilinear system.

    deg Y_i <= k-1, deg Z_i <= m, U_j^(i) in {0, 1}; the constraints are
    sum_i Y_i Z_i = 0 and, for each j <= n, sum_i Y_i U_j^(i) = 0.
    """
    ys = polys_up_to(k - 1)
    zs = polys_up_to(m)
    units = [(), (1,)]
    count = 0
    piece = [(y, z, us) for y in ys for z in zs for us in product(units, repeat=n)]
    for chosen in product(piece, repeat=q):
        if _poly_sum(poly_mul(y, z) for y, z, _ in chosen):
            continue
        ok = True
        for j in range(n):
            if _poly_sum(poly_mul(y, us[j]) for y, _, us in chosen):
                ok = False
                break
        if ok:
            count += 1
    return count


def oracle_repcount_integral(q: int, n: int, k: int, m: int) -> int:
    """The representation count as a coset integral, one rank per point.

    At each point (t, eta_1..eta_n) of the 2^(k+m+nk) grid the closed
    character sum is 2^(k+m+n+1-r), r the rank of the (1+m) x k window of
    t over the n eta rows; the count is the mean of its q-th power.
    """
    total = sum(count * value**q for value, count in _coset_values(n, k, m).items())
    count, rem = divmod(total, 1 << (k + m + n * k))
    assert rem == 0, "the integral is not an integer"
    return count


@cache
def _coset_values(n: int, k: int, m: int) -> Counter:
    values: Counter = Counter()
    for counts in oracle_window_tallies("stacked", (n, m, k)):
        for r, count in counts.items():
            values[1 << (k + m + n + 1 - r)] += count
    return values


def _poly_sum(polys) -> Tuple[int, ...]:
    acc: List[int] = []
    for p in polys:
        if len(p) > len(acc):
            acc.extend([0] * (len(p) - len(acc)))
        for i, c in enumerate(p):
            acc[i] ^= c
    while acc and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


# -------------------------------------------------------- subspace counts


def oracle_gaussian_binomial(n: int, r: int) -> int:
    """[n, r]_2, the number of r-dimensional subspaces of GF(2)^n, by the
    product formula prod_{l<r} (2^(n-l) - 1) / (2^(r-l) - 1); 0 unless 0 <= r <= n."""
    if not 0 <= r <= n:
        return 0
    numerator = denominator = 1
    for l in range(r):
        numerator *= 2 ** (n - l) - 1
        denominator *= 2 ** (r - l) - 1
    quotient, remainder = divmod(numerator, denominator)
    assert remainder == 0, (n, r)
    return quotient
