"""Exhaustive censuses over coset representatives.

Every count the closed forms predict is recomputed here by walking the
full coset grid: window rank distributions, corner-deleted rank
quadruples, row-append comparisons, stacked-block distributions, and the
brute-force representation counts. Censuses are data-parallel over
disjoint index ranges; partial tallies merge by plain addition, so any
partitioning (including a resumed checkpoint file) gives identical
results. A checkpoint file opens with a header naming its census,
parameters, domain size and chunk size; a file with another header, or
a line with a field that does not parse, a count below 1, a key the
census cannot produce, a repeated key, or counts that do not sum to its
range's point count, is rejected.

A coset representative of depth N is an N-bit integer whose bit b
(least significant first) is the coefficient alpha_{l+b} of the series;
window row i is its k bits from bit i up. All rank censuses are one walk
from the top coefficient down: the last row is the top k bits, and each
lower bit completes one more row, reduced against its prefix's pivots.
A census kind is data for the walk: corner blocks (column mask, whether
the last row belongs) whose ranks key the tally; free rows below the
window, walked depth first through a membership mask of the row space;
and for sigma, a split by whether the free row raised the rank.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from typing import (
    Container, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from . import formulas
from .dyadic import DyadicRational
from .exceptions import DEFAULT_BUDGET_BITS, IncompleteDomain, check_budget
from .expsum import fmulti_closed
from .laurent import Poly2, UnitSeries, poly_mul

__all__ = [
    "DEFAULT_BUDGET_BITS",
    "enum_gamma",
    "enum_quadruple",
    "enum_sigma",
    "enum_stacked_gamma",
    "integrate_coset",
    "integrate_tally",
    "repcount_multi_formula",
    "repcount_integral",
    "repcount_bruteforce",
]

Key = Union[int, Tuple]
# (column mask, whether the last window row belongs to the block)
Blocks = Tuple[Tuple[int, bool], ...]


# ---------------------------------------------------------------------------
# chunked enumeration driver

# Starting a worker pool costs about 15 ms (2-vCPU x86 host, Python 3.11);
# below this many pending points one process finishes first.
_POOL_MIN_POINTS = 1 << 14


def _key_to_text(key: Key) -> str:
    if isinstance(key, tuple):
        return ",".join(str(part) for part in key)
    return str(key)


def _key_from_text(text: str) -> Key:
    if "," in text:
        return tuple(
            int(part) if part.lstrip("-").isdigit() else part
            for part in text.split(",")
        )
    return int(text)


def _read_checkpoint(
    path: str,
    header: str,
    valid: Iterable[Tuple[int, int]],
    keys: Container[Key],
    weight: int,
) -> Dict[Tuple[int, int], Counter]:
    """Finished chunks of a checkpoint file; keys are those the census can
    produce, weight is points per index.

    The file must open with this census's header line. A last line
    without a newline was cut off mid-write (the header included): it is
    cut from the file and its chunk is computed again.
    """
    done: Dict[Tuple[int, int], Counter] = {}
    if not os.path.exists(path):
        return done
    with open(path, "rb") as handle:
        data = handle.read()
    head = (header + "\n").encode("ascii")
    if not (data.startswith(head) or head.startswith(data)):
        raise ValueError(
            "checkpoint header %r does not match this census (%r);"
            " remove %s to start over"
            % (data.split(b"\n", 1)[0].decode("ascii", "replace"), header, path)
        )
    complete = data[: data.rfind(b"\n") + 1]
    valid_set = set(valid)
    for line in complete.decode("ascii").splitlines()[1:]:
        fields = line.split()
        if not fields:
            continue
        try:
            rng = tuple(int(field) for field in fields[:2])
            entries = [(text, _key_from_text(text), int(count))
                       for text, _, count in (f.rpartition(":") for f in fields[2:])]
        except ValueError:
            raise ValueError(
                "checkpoint line %r has a malformed field;"
                " remove %s to start over" % (line, path)
            ) from None
        if rng not in valid_set:
            raise ValueError(
                "checkpoint range %r does not match this census;"
                " remove %s to start over" % (rng, path)
            )
        counts = Counter()
        for key_text, key, count in entries:
            if count < 1:
                raise ValueError(
                    "checkpoint range %r has count %d below 1;"
                    " remove %s to start over" % (rng, count, path)
                )
            if key not in keys or key in counts:
                raise ValueError(
                    "checkpoint range %r has %s key %s;"
                    " remove %s to start over"
                    % (rng, "a repeated" if key in counts else "an impossible",
                       key_text, path)
                )
            counts[key] = count
        points = (rng[1] - rng[0]) * weight
        if counts.total() != points:
            raise ValueError(
                "checkpoint range %r counts %d points, not %d;"
                " remove %s to start over" % (rng, counts.total(), points, path)
            )
        done[rng] = counts
    if len(complete) < len(data):
        os.truncate(path, len(complete))
    return done


def _checkpoint_line(rng: Tuple[int, int], counts: Counter) -> str:
    parts = ["%d %d" % rng]
    for key, value in sorted(counts.items()):
        parts.append("%s:%d" % (_key_to_text(key), value))
    return " ".join(parts) + "\n"


def _run_chunks(
    name: str,
    blocks: Blocks,
    rows: int,
    free: int = 0,
    split: bool = False,
    *,
    threads: int = 1,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    checkpoint: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> Counter:
    """Split the window indices into ranges, walk each, merge tallies.

    Chunk boundaries depend only on the domain size (never on the thread
    count) so a checkpoint file written by one run can resume under any
    other worker configuration. name (census kind and parameters) and the
    chunking form the checkpoint header. A pooled chunk that raises, or a
    worker that dies, fails the census with a ValueError; the chunks
    finished before it stay in the checkpoint for a rerun to resume.
    """
    k = max(mask for mask, _ in blocks).bit_length()
    check_budget(k + rows - 1 + free * k, budget_bits, "census " + name)
    total = 1 << (k + rows - 1)
    weight = 1 << (free * k)
    if chunk_size is None:
        chunk_size = max(1, total >> 6)
    ranges = [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]
    header = "#census %s points=%d chunk=%d" % (name, total * weight, chunk_size)
    done = {}
    if checkpoint:
        ranks = range(min(rows + free, k) + 1)
        if split:
            keys = set(itertools.product(("same", "up"), ranks))
        elif len(blocks) > 1:
            keys = set(itertools.product(ranks, repeat=len(blocks)))
        else:
            keys = set(ranks)
        done = _read_checkpoint(checkpoint, header, ranges, keys, weight)
    tally = Counter()
    for counts in done.values():
        tally += counts
    pending = [rng for rng in ranges if rng not in done]
    jobs = [(blocks, rows, free, split) + rng for rng in pending]
    out = open(checkpoint, "a", encoding="ascii") if checkpoint else None
    pool = None
    try:
        if out and out.tell() == 0:
            out.write(header + "\n")
            out.flush()
        pending_points = sum(hi - lo for lo, hi in pending) * weight
        if threads > 1 and len(pending) > 1 and pending_points >= _POOL_MIN_POINTS:
            # imported here, so that runs without a pool skip importing it
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=min(threads, len(pending)))
            results = pool.map(_walk_worker, jobs)
        else:
            results = map(_walk_worker, jobs)
        for rng, counts in zip(pending, results):
            tally += counts
            if out:
                out.write(_checkpoint_line(rng, counts))
                out.flush()
    except Exception as exc:  # a pooled chunk raised or its worker died
        if not pool:
            raise
        raise ValueError("census %s failed in a worker (%s: %s); a rerun resumes from %s"
                         % (name, type(exc).__name__, exc, checkpoint or "the start")
                         ) from exc
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        if out:
            out.close()
    return tally


# ---------------------------------------------------------------------------
# the window walk (top level so it crosses process boundaries)


def _add_row(masks: Sequence[int], states: Sequence[Tuple[int, ...]], row: int):
    """Each block's pivots after reducing its columns of one more row."""
    out = []
    for mask, pivots in zip(masks, states):
        reduced = row & mask
        for p in pivots:
            if reduced & (p & -p):
                reduced ^= p
        out.append(pivots + (reduced,) if reduced else pivots)
    return out


def _xor_shift_masks(k: int) -> List[Tuple[int, int]]:
    """For each bit j of a k-bit value: (2^j, mask of values with bit j clear)."""
    masks = []
    for j in range(k):
        d = 1 << j
        low = 0
        for x in range(1 << k):
            if not x & d:
                low |= 1 << x
        masks.append((d, low))
    return masks


def _span_with(span: int, vector: int, masks: Sequence[Tuple[int, int]]) -> int:
    """Membership mask of span(current basis, vector).

    span has one bit per k-bit value; adding a basis vector unions in the
    image of the current span under XOR by that vector, computed as a
    position permutation of the mask.
    """
    image = span
    j = 0
    while vector:
        if vector & 1:
            d, low = masks[j]
            image = ((image & low) << d) | ((image & ~low) >> d)
        vector >>= 1
        j += 1
    return span | image


def _walk_worker(args: Tuple[Blocks, int, int, bool, int, int]) -> Counter:
    """Tally the windows [lo, hi) of one census kind (see the module docstring)."""
    blocks, rows, free, split, lo, hi = args
    columns = [mask for mask, _ in blocks]
    kmask = max(columns)
    width = kmask + 1
    masks = _xor_shift_masks(kmask.bit_length()) if free else []
    counts = Counter()

    def tail(span: int, r: int, depth: int, final: List[int]) -> None:
        if depth == 1:
            inside = span.bit_count()
            final[r] += inside
            final[r + 1] += width - inside
            return
        for v in range(width):
            if (span >> v) & 1:
                tail(span, r, depth - 1, final)
            else:
                tail(_span_with(span, v, masks), r + 1, depth - 1, final)

    def walk(v: int, b: int, states) -> None:
        # the windows [v, v + 2^b): bits b and up fixed, rows b and up reduced
        if v >= hi or v + (1 << b) <= lo:
            return
        if b:
            b -= 1
            for w in (v, v | 1 << b):
                walk(w, b, _add_row(columns, states, (w >> b) & kmask))
        elif free:  # free rows extend the one window block
            span = 1
            for p in states[0]:
                span = _span_with(span, p, masks)
            r = len(states[0])
            final = [0] * (r + free + 1)  # counts by rank with the free rows
            tail(span, r, free, final)
            for f, count in enumerate(final):
                if count:
                    counts[("same" if f == r else "up", f) if split else f] += count
        else:
            ranks = tuple(map(len, states))
            counts[ranks if len(ranks) > 1 else ranks[0]] += 1

    # the last row is the top k bits; blocks without it see it as zero
    last = [mask if with_last else 0 for mask, with_last in blocks]
    for top in range(lo >> (rows - 1), ((hi - 1) >> (rows - 1)) + 1):
        walk(top << (rows - 1), rows - 1, _add_row(last, [()] * len(blocks), top))
    return counts


# ---------------------------------------------------------------------------
# public censuses


def enum_gamma(
    s: int,
    k: int,
    *,
    threads: int = 1,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    checkpoint: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> Counter:
    """Rank distribution of all 2^{k+s-1} s x k coefficient windows."""
    if s < 1 or k < 1:
        raise ValueError("shape must be positive, got %dx%d" % (s, k))
    return _run_chunks(
        "gamma s=%d k=%d" % (s, k),
        (((1 << k) - 1, True),),
        s,
        threads=threads,
        budget_bits=budget_bits,
        checkpoint=checkpoint,
        chunk_size=chunk_size,
    )


def enum_quadruple(
    l: int,
    n: int,
    m: int,
    *,
    threads: int = 1,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    checkpoint: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> Counter:
    """Distribution of corner-deleted rank quadruples over all windows.

    The window starts at coefficient alpha_l; the census runs over the
    2^{n+m-1} choices of alpha_l .. alpha_{l+n+m-2}.
    """
    if l < 1 or n < 1 or m < 1:
        raise ValueError("requires l, n, m >= 1, got l=%d n=%d m=%d" % (l, n, m))
    full, narrow = (1 << m) - 1, (1 << (m - 1)) - 1
    return _run_chunks(
        "quad l=%d n=%d m=%d" % (l, n, m),
        ((narrow, False), (full, False), (narrow, True), (full, True)),
        n,
        threads=threads,
        budget_bits=budget_bits,
        checkpoint=checkpoint,
        chunk_size=chunk_size,
    )


def enum_sigma(
    m: int,
    k: int,
    *,
    threads: int = 1,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    checkpoint: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> Tuple[Counter, Counter]:
    """Row-append census over all (window, free row) pairs.

    Returns (same, up): same[i] counts pairs where the appended row stays
    inside the rank-i row space of the (1+m) x k window block; up[i]
    counts pairs where the row lifts a rank i-1 block to rank i.
    """
    if m < 0 or k < 1:
        raise ValueError("requires m >= 0 and k >= 1, got m=%d k=%d" % (m, k))
    merged = _run_chunks(
        "sigma m=%d k=%d" % (m, k),
        (((1 << k) - 1, True),),
        1 + m,
        free=1,
        split=True,
        threads=threads,
        budget_bits=budget_bits,
        checkpoint=checkpoint,
        chunk_size=chunk_size,
    )
    same = Counter()
    up = Counter()
    for key, value in merged.items():
        kind, i = key
        (same if kind == "same" else up)[i] = value
    return same, up


def enum_stacked_gamma(
    n: int,
    m: int,
    k: int,
    *,
    threads: int = 1,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    checkpoint: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> Counter:
    """Rank distribution of the stacked census: a (1+m) x k window block
    with n unconstrained k-bit rows appended, over all 2^{(k+m)+nk} tuples.

    With m = 0 the block is one free-standing row, so
    enum_stacked_gamma(rows - 1, 0, k) is the census of all rows x k
    matrices.
    """
    if n < 0 or m < 0 or k < 1:
        raise ValueError(
            "requires n, m >= 0 and k >= 1, got n=%d m=%d k=%d" % (n, m, k)
        )
    return _run_chunks(
        "stacked n=%d m=%d k=%d" % (n, m, k),
        (((1 << k) - 1, True),),
        1 + m,
        free=n,
        threads=threads,
        budget_bits=budget_bits,
        checkpoint=checkpoint,
        chunk_size=chunk_size,
    )


# ---------------------------------------------------------------------------
# integration and representation counts


def integrate_coset(values, N: int) -> DyadicRational:
    """Exact Haar integral of a function constant on depth-N cosets.

    values maps every representative in [0, 2^N) to an integer (a mapping
    or a sequence in index order); the integral is their sum weighted by
    the coset measure 2^{-N}.
    """
    if N < 0:
        raise ValueError("coset depth must be nonnegative, got %d" % N)
    size = 1 << N
    if isinstance(values, Mapping):
        if len(values) != size:
            raise IncompleteDomain(
                "expected %d representatives, got %d" % (size, len(values))
            )
        try:
            total = sum(values[v] for v in range(size))
        except KeyError as missing:
            raise IncompleteDomain(
                "missing representative %s at depth %d" % (missing, N)
            ) from None
    else:
        seq = list(values)
        if len(seq) != size:
            raise IncompleteDomain(
                "expected %d representatives, got %d" % (size, len(seq))
            )
        total = sum(seq)
    return DyadicRational(total, -N)


def integrate_tally(tally: Mapping[int, int], N: int, power: int = 1) -> DyadicRational:
    """Exact Haar integral of f^power from the tally of f over the depth-N grid.

    tally maps each value of f to the number of representatives in
    [0, 2^N) where f takes it; together they must cover all 2^N.
    """
    if N < 0:
        raise ValueError("coset depth must be nonnegative, got %d" % N)
    points = sum(tally.values())
    if points != 1 << N:
        raise IncompleteDomain(
            "expected %d representatives, got %d" % (1 << N, points)
        )
    total = sum(count * value**power for value, count in tally.items())
    return DyadicRational(total, -N)


def _check_qnkm(q: int, n: int, k: int, m: int) -> None:
    if q < 1 or n < 0 or k < 1 or m < 0:
        raise ValueError(
            "requires q >= 1, n, m >= 0, k >= 1, got q=%d n=%d k=%d m=%d"
            % (q, n, k, m)
        )


def repcount_multi_formula(
    q: int, n: int, k: int, m: int, gamma: Optional[Mapping[int, int]] = None
) -> int:
    """Count of solution q-tuples for the stacked system, from a rank table.

    With n = 0 the system is the window system of the (1+m) x k block.
    Uses the closed rank distribution by default; pass a census table to
    cross-check one against the other. The dyadic sum must come out an
    integer; anything else signals an inconsistent table.
    """
    _check_qnkm(q, n, k, m)
    if gamma is None:
        gamma = formulas.stacked_gamma_table(n, m, k)
    acc = DyadicRational(0)
    for i, count in gamma.items():
        acc += DyadicRational(count, -q * i)
    exponent = q * (k + m + n + 1) - ((n + 1) * k + m)
    return (acc * DyadicRational(1, exponent)).to_int()


def repcount_integral(
    q: int, n: int, k: int, m: int, *, budget_bits: int = DEFAULT_BUDGET_BITS
) -> int:
    """Count of solution q-tuples as an exact coset integral.

    Evaluates the closed character sum once at each point of the full
    grid, tallies the values, and integrates their q-th power off the
    tally; the result must be an integer.
    """
    _check_qnkm(q, n, k, m)
    t_bits = k + m
    bits = t_bits + n * k
    check_budget(bits, budget_bits, "integral q=%d n=%d k=%d m=%d" % (q, n, k, m))
    ts = (UnitSeries(tv, t_bits) for tv in range(1 << t_bits))
    eta_values = [UnitSeries(v, k) for v in range(1 << k)]
    values = (
        fmulti_closed(m, k, t, etas)
        for t in ts
        for etas in itertools.product(eta_values, repeat=n)
    )
    return integrate_tally(Counter(values), bits, q).to_int()


def _xor_convolve(a: Mapping[int, int], b: Mapping[int, int]) -> Counter:
    """Tally of x ^ y over pairs drawn from the tallies a and b."""
    out: Counter = Counter()
    for x, cx in a.items():
        for y, cy in b.items():
            out[x ^ y] += cx * cy
    return out


def repcount_bruteforce(
    q: int, n: int, k: int, m: int, *, budget_bits: int = DEFAULT_BUDGET_BITS
) -> int:
    """Count solution q-tuples by enumerating every polynomial tuple.

    Variables per factor: Y of degree <= k-1, Z of degree <= m, and n
    constant-or-zero multipliers U_j. A tuple counts when sum(Y_i Z_i) = 0
    and sum(Y_i U_j^(i)) = 0 for each j. Every factor's contribution is
    built and tallied; the tuples whose contributions XOR to zero are
    counted by XOR-convolving the tallies of the first q // 2 factors and
    of the rest.
    """
    _check_qnkm(q, n, k, m)
    factor_bits = k + (m + 1) + n
    check_budget(
        q * factor_bits, budget_bits, "brute count q=%d n=%d k=%d m=%d" % (q, n, k, m)
    )
    ymask = (1 << k) - 1
    zmask = (1 << (m + 1)) - 1
    # one factor's contribution as one int: Y*Z in the low k+m bits, then
    # the n values Y*U_j packed k bits apart
    contributions: Counter = Counter()
    for idx in range(1 << factor_bits):
        y = idx & ymask
        z = (idx >> k) & zmask
        u = idx >> (k + m + 1)
        product = poly_mul(Poly2(y), Poly2(z)).bits
        spread = 0
        for j in range(n):
            if (u >> j) & 1:
                spread |= 1 << (j * k)
        contributions[product | (y * spread) << (k + m)] += 1

    half = Counter({0: 1})
    for _ in range(q // 2):
        half = _xor_convolve(half, contributions)
    rest = _xor_convolve(half, contributions) if q % 2 else half
    return sum(count * rest[key] for key, count in half.items())
