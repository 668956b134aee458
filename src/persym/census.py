"""Exhaustive censuses over coset representatives.

Every count the closed forms predict is recomputed here by walking the
full coset grid: window rank distributions, corner-deleted rank
quadruples, row-append comparisons, stacked-block distributions, and the
brute-force representation counts. Censuses are data-parallel over
disjoint index ranges; partial tallies merge by plain addition, so any
partitioning (including a resumed checkpoint file) gives identical
results. A checkpoint file opens with a header naming its census,
parameters, window count and chunk size; a file with another header, or
a line with a field that does not parse, a count below 1, a key the
census cannot produce, a repeated key or range, or counts that do not
sum to its range's window count, is rejected.

A coset representative of depth N is an N-bit integer whose bit b (least
significant first) is the coefficient alpha_{l+b} of the series; window
row i is its k bits from bit i up, so entry (i, j) is bit i + j. All rank
censuses run one kernel over `persym.lanes` words, one lane per window. It
eliminates column by column in every lane at once, taking each pivot from
the topmost row that holds none yet, and keeps each lane's rank as a
thermometer code (one mask per rank r: the lanes of rank at least r), so
it can read the rank of any column prefix. A census kind is data for the
kernel: corner blocks (column count, whether the last row belongs) whose
ranks key the tally; free rows below the window; and for sigma, a split by
whether the free row raised the rank. A block of w columns reads the ranks
after w columns. Since no row is ever reduced by a row below it, the rows
above the last are eliminated as they would be alone, so a block without
the last row takes one off those ranks where the last row holds a pivot,
and the four quad blocks share one elimination.

The kernel visits windows only, and chunks and checkpoints hold window
tallies. A free k-bit row keeps a rank-f row space when it lies inside it
(2^f rows) and raises the rank to f + 1 otherwise (2^k - 2^f rows), so
the driver expands the merged window tally by that rule once per free
row, after the last chunk.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from typing import Container, Dict, Iterable, Mapping, Optional, Tuple, Union

# only the stdlib, lanes and exceptions here: the integrals and representation
# counts import what they use in their own bodies, so a census loads no more
from . import lanes
from .exceptions import DEFAULT_BUDGET_BITS, IncompleteDomain, check_budget

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
# (column count, whether the last window row belongs to the block)
Blocks = Tuple[Tuple[int, bool], ...]


# ---------------------------------------------------------------------------
# chunked enumeration driver

# Below this many pending windows one process finishes first: on a 2-vCPU
# x86 host (Python 3.11) `census gamma` at --threads 1 against 2 took
# 0.26 s against 0.30 s at 2^21 windows and 0.39 s against 0.35 s at 2^22.
_POOL_MIN_POINTS = 1 << 22


def _table_text(table: Mapping[Key, int]) -> Dict[str, int]:
    """A tally as the CLI prints it: {key text: count}, in key order."""
    return {",".join(map(str, key)) if isinstance(key, tuple) else str(key): count
            for key, count in sorted(table.items())}


def _decimal(text: str) -> int:
    """The int that %d writes as text; a sign, padding or underscore is refused."""
    value = int(text)
    if "%d" % value != text:
        raise ValueError("%r is not a canonical decimal" % text)
    return value


def _key_from_text(text: str) -> Key:
    parts = tuple(_decimal(part) for part in text.split(","))
    return parts if len(parts) > 1 else parts[0]


def _read_checkpoint(
    path: str,
    header: str,
    valid: Iterable[Tuple[int, int]],
    keys: Container[Key],
) -> Dict[Tuple[int, int], Counter]:
    """Finished chunks of a checkpoint file; keys are those the census can
    produce, and a chunk's counts sum to its window count.

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
    try:
        lines = complete.decode("ascii").splitlines()
    except UnicodeDecodeError as err:
        raise ValueError(
            "checkpoint line %d has a non-ASCII byte; remove %s to start over"
            % (complete.count(b"\n", 0, err.start) + 1, path)
        ) from None
    valid_set = set(valid)
    for line in lines[1:]:
        fields = line.split()
        if not fields:
            continue
        try:
            rng = tuple(_decimal(field) for field in fields[:2])
            entries = [(text, _key_from_text(text), _decimal(count))
                       for text, _, count in (f.rpartition(":") for f in fields[2:])]
        except ValueError:
            raise ValueError(
                "checkpoint line %r has a malformed field;"
                " remove %s to start over" % (line, path)
            ) from None
        if rng not in valid_set or rng in done:
            raise ValueError(
                "checkpoint range %r %s; remove %s to start over"
                % (rng, "appears twice" if rng in done
                   else "does not match this census", path)
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
        points = rng[1] - rng[0]
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
    fields = ["%s:%d" % item for item in _table_text(counts).items()]
    return " ".join(["%d %d" % rng] + fields) + "\n"


def _run_chunks(
    name: str,
    blocks: Blocks,
    rows: int,
    free: int = 0,
    split: bool = False,
    /,
    *,
    threads: int = 1,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    checkpoint: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> Counter:
    """Split the window indices into ranges, walk each, merge the window
    tallies, then expand the free rows once (see the module docstring).

    The kind's data (name, blocks, rows, free, split) is positional only, so
    no forwarded option reaches it. The keyword options every enum_* forwards
    are declared here only: threads=1 (worker processes, at least 1),
    budget_bits=DEFAULT_BUDGET_BITS (refuse over 2^budget_bits points),
    checkpoint=None (a file to append finished chunks to and resume from),
    chunk_size=None (windows per chunk; None means total >> 6, but at least
    one whole 2^lanes._LANE_BITS-lane word, or the whole domain if it is smaller).
    So a domain of at most 2^16 windows is one chunk, one of up to 2^22
    windows (the pool cutoff) is 2^16-window chunks, and a larger one is
    64 chunks.

    Chunk boundaries depend only on the domain size (never on the thread
    count) so a checkpoint file written by one run can resume under any
    other worker configuration. name (census kind and parameters) and the
    chunking form the checkpoint header. A pooled chunk that raises, or a
    worker that dies, fails the census with a ValueError; the chunks
    finished before it stay in the checkpoint for a rerun to resume.
    """
    k = max(width for width, _ in blocks)
    check_budget(k + rows - 1 + free * k, budget_bits, "census " + name)
    total = 1 << (k + rows - 1)
    if threads < 1:
        raise ValueError("threads must be at least 1, got %d" % threads)
    if chunk_size is None:
        chunk_size = max(total >> 6, min(total, 1 << lanes._LANE_BITS))
    elif chunk_size < 1:
        raise ValueError("chunk_size must be at least 1, got %d" % chunk_size)
    ranges = [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]
    header = "#census %s points=%d chunk=%d" % (name, total, chunk_size)
    done = {}
    if checkpoint:
        ranks = range(min(rows, k) + 1)
        keys = set(itertools.product(ranks, repeat=len(blocks)) if len(blocks) > 1 else ranks)
        done = _read_checkpoint(checkpoint, header, ranges, keys)
    tally = sum(done.values(), Counter())
    pending = [rng for rng in ranges if rng not in done]
    jobs = [(blocks, rows) + rng for rng in pending]
    out = open(checkpoint, "a", encoding="ascii") if checkpoint else None
    pool = None
    try:
        if out and out.tell() == 0:
            out.write(header + "\n")
            out.flush()
        pending_windows = sum(hi - lo for lo, hi in pending)
        if threads > 1 and len(pending) > 1 and pending_windows >= _POOL_MIN_POINTS:
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
    # a free row keeps a rank-f row space in 2^f ways and raises it in the rest
    for _ in range(free):
        step, tally = tally, Counter()
        for f, count in step.items():
            tally[("same", f) if split else f] += count << f
            if f < k:
                tally[("up", f + 1) if split else f + 1] += count * ((1 << k) - (1 << f))
    return tally


# ---------------------------------------------------------------------------
# the lane kernel (top level so it crosses process boundaries)


def _walk_worker(args: Tuple[Blocks, int, int, int]) -> Counter:
    """Tally the window ranks of [lo, hi) for one census kind's blocks; the
    driver expands free rows (see the module docstring)."""
    blocks, rows, lo, hi = args
    k = max(blocks)[0]
    widths = {w for w, _ in blocks if w < k}
    top = min(rows, k)
    counts = Counter()
    for bits, valid, full in lanes._lane_words(k + rows - 1, lo, hi):
        a = [bits[i:i + k] for i in range(rows)]  # a[i][j]: entry (i, j) per lane
        unused = [full] * rows  # lanes where row i holds no pivot yet
        ge = [valid] + [0] * (top + 1)  # ge[r]: lanes whose rank is at least r
        seen = {}  # width: (ge, lanes whose last row holds a pivot)
        for j in range(k):
            if j in widths:
                seen[j] = (ge[:], full ^ unused[-1])
            spare = full  # lanes whose column-j pivot is still to come
            pc = [0] * k  # per lane, the later columns of the column-j pivot row
            for i in range(rows):
                row = a[i]
                hit = row[j] & unused[i]
                if hit:
                    piv = hit & spare
                    above = hit ^ piv  # lanes whose pivot row lies above row i
                    if above:
                        for c in range(j + 1, k):
                            row[c] ^= above & pc[c]
                    if piv:
                        for c in range(j + 1, k):
                            pc[c] |= piv & row[c]
                        unused[i] ^= piv
                        spare ^= piv
            if spare != full:
                found = full ^ spare
                for r in range(min(j + 1, top), 0, -1):
                    ge[r] |= ge[r - 1] & found
        seen[k] = (ge, full ^ unused[-1])
        joint = [((), valid)]
        for width, with_last in blocks:
            ge, last = seen[width]
            if not with_last:  # the last row's pivot, if any, leaves the block
                ge = [(ge[r] & (full ^ last)) | (ge[r + 1] & last) for r in range(top + 1)] + [0]
            joint = [(key + (r,), both) for key, lanes_in in joint for r in range(top + 1)
                     if (both := lanes_in & (ge[r] ^ ge[r + 1]))]
        for key, lanes_in in joint:
            counts[key if len(key) > 1 else key[0]] += lanes_in.bit_count()
    return counts


# ---------------------------------------------------------------------------
# public censuses


def enum_gamma(s: int, k: int, **options) -> Counter:
    """Rank distribution of all 2^{k+s-1} s x k coefficient windows."""
    if s < 1 or k < 1:
        raise ValueError("shape must be positive, got %dx%d" % (s, k))
    return _run_chunks("gamma s=%d k=%d" % (s, k), ((k, True),), s, **options)


def enum_quadruple(l: int, n: int, m: int, **options) -> Counter:
    """Distribution of corner-deleted rank quadruples over all windows.

    The window starts at coefficient alpha_l; the census runs over the
    2^{n+m-1} choices of alpha_l .. alpha_{l+n+m-2}.
    """
    if l < 1 or n < 1 or m < 1:
        raise ValueError("requires l, n, m >= 1, got l=%d n=%d m=%d" % (l, n, m))
    blocks = ((m - 1, False), (m, False), (m - 1, True), (m, True))
    return _run_chunks("quad l=%d n=%d m=%d" % (l, n, m), blocks, n, **options)


def enum_sigma(m: int, k: int, **options) -> Counter:
    """Row-append census over all (window, free row) pairs.

    Key ("same", i) counts pairs where the appended row stays inside the
    rank-i row space of the (1+m) x k window block; ("up", i) counts
    pairs where the row lifts a rank i-1 block to rank i.
    """
    if m < 0 or k < 1:
        raise ValueError("requires m >= 0 and k >= 1, got m=%d k=%d" % (m, k))
    return _run_chunks("sigma m=%d k=%d" % (m, k), ((k, True),), 1 + m, 1, True, **options)


def enum_stacked_gamma(n: int, m: int, k: int, **options) -> Counter:
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
    return _run_chunks("stacked n=%d m=%d k=%d" % (n, m, k), ((k, True),), 1 + m, n,
                       **options)


# ---------------------------------------------------------------------------
# integration and representation counts


def integrate_coset(values, N: int) -> DyadicRational:
    """Exact Haar integral of a function constant on depth-N cosets.

    values maps every representative in [0, 2^N) to an integer (a mapping
    or a sequence in index order); the integral is their sum weighted by
    the coset measure 2^{-N}.
    """
    from .dyadic import DyadicRational

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
    from .dyadic import DyadicRational

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


def repcount_multi_formula(q: int, n: int, k: int, m: int) -> int:
    """Count of solution q-tuples for the stacked system, from the closed
    rank distribution. With n = 0 the system is the window system of the
    (1+m) x k block. The dyadic sum must come out an integer.
    """
    from . import formulas
    from .dyadic import DyadicRational

    _check_qnkm(q, n, k, m)
    acc = DyadicRational(0)
    for i, count in formulas.stacked_gamma_table(n, m, k).items():
        acc += DyadicRational(count, -q * i)
    exponent = q * (k + m + n + 1) - ((n + 1) * k + m)
    return (acc * DyadicRational(1, exponent)).to_int()


def repcount_integral(
    q: int, n: int, k: int, m: int, *, budget_bits: int = DEFAULT_BUDGET_BITS
) -> int:
    """Count of solution q-tuples as an exact coset integral.

    At each grid point (t, eta_1..eta_n) the closed character sum is
    2^(k+m+n+1-r), r the rank of the t block over the n eta rows; the
    values are tallied and the q-th power integrated off the tally, and
    the result must be an integer.

    Each t block is reduced once (echelon of its hankel_rows). Reducing an
    eta row against it clears the block's pivot columns without leaving
    the span, so r is the block's rank plus the rank of the reduced eta
    rows. The reduced rows are exactly the rows on the block's free
    (non-pivot) columns, each reached from 2^(block rank) eta rows. So the
    t blocks are tallied by their free columns, and each n-tuple of rows
    on those columns is ranked once per distinct set of free columns,
    weighted by the points that reduce to it.
    """
    from .builders import hankel_rows
    from .gf2 import echelon
    from .laurent import UnitSeries

    _check_qnkm(q, n, k, m)
    t_bits = k + m
    bits = t_bits + n * k
    check_budget(bits, budget_bits, "integral q=%d n=%d k=%d m=%d" % (q, n, k, m))
    frees: Counter = Counter()  # free columns of the t block -> number of t
    for tv in range(1 << t_bits):
        free = (1 << k) - 1
        for row in echelon(hankel_rows(UnitSeries(tv, t_bits), 1, 1 + m, k)):
            free ^= row & -row
        frees[free] += 1
    values: Counter = Counter()
    for free, count in frees.items():
        block_rank = k - free.bit_count()
        forms = [0]
        for j in range(k):
            if free >> j & 1:
                forms += [form | 1 << j for form in forms]
        weight = count << (block_rank * n)
        for etas in itertools.product(forms, repeat=n):
            r = block_rank + len(echelon(etas))
            values[1 << (k + m + n + 1 - r)] += weight
    return integrate_tally(values, bits, q).to_int()


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
    of the rest. Each Y's products Y*Z are listed by doubling over Z's
    shifts, so no polynomial is multiplied out.
    """
    _check_qnkm(q, n, k, m)
    factor_bits = k + (m + 1) + n
    check_budget(
        q * factor_bits, budget_bits, "brute count q=%d n=%d k=%d m=%d" % (q, n, k, m)
    )
    # one factor's contribution as one int: Y*Z in the low k+m bits, then
    # the n values Y*U_j packed k bits apart
    contributions: Counter = Counter()
    for y in range(1 << k):
        products = [0]
        for j in range(m + 1):
            products += [p ^ (y << j) for p in products]
        # U's bit j keeps Y in the j-th k-bit field above the product
        spreads = [0]
        for j in range(n):
            spreads += [v | y << ((k + m) + j * k) for v in spreads]
        for v in spreads:
            contributions.update([p | v for p in products])

    half = Counter({0: 1})
    for _ in range(q // 2):
        half = _xor_convolve(half, contributions)
    rest = _xor_convolve(half, contributions) if q % 2 else half
    return sum(count * rest[key] for key, count in half.items())
