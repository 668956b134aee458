"""Exhaustive censuses over coset representatives.

Every count the closed forms predict is recomputed here by walking the
full coset grid: window rank distributions, corner-deleted rank
quadruples, row-append comparisons, stacked-block distributions, and the
brute-force representation counts. The coset integral of a representation
count is the stacked distribution weighted by rank, as the closed count
weights the closed table. Censuses are data-parallel over
disjoint index ranges; partial tallies merge by plain addition, so any
partitioning (including a resumed checkpoint file) gives identical
results. A checkpoint file opens with a header naming its format (v2),
census, parameters, window count and chunk size; a file with another
header, or a line with a count below 1, a key the census cannot produce,
a repeated key or range, or counts that do not sum to its range's window
count, is rejected, and a chunk line is accepted only as the exact bytes
the writer gives (canonical decimals, keys in sorted order, single
spaces, sealed by a CRC32 of the header and the line's fields).

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
import zlib
from collections import Counter
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

# only the stdlib, lanes and exceptions here: the coset integral imports dyadic
# and the closed count formulas in their own bodies, so a census loads no more
from . import lanes
from .exceptions import (DEFAULT_BUDGET_BITS, GRID_MAX_BITS, BudgetExceeded, NonIntegerResult,
                         bigint_bits, check_budget)

__all__ = [
    "DEFAULT_BUDGET_BITS",
    "enum_gamma",
    "enum_quadruple",
    "enum_sigma",
    "enum_stacked_gamma",
    "integrate_coset",
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


def _read_checkpoint(
    path: str,
    header: str,
    valid: Iterable[Tuple[int, int]],
    blocks: int,
    bound: int,
) -> Dict[Tuple[int, int], Counter]:
    """Finished chunks of a checkpoint file; each key holds one rank in
    0..bound per block (an int for one block, as the kernel keys it), a
    chunk's counts sum to its window count, and each chunk line is the
    bytes _checkpoint_line writes for them, its CRC32 checked last.

    The file must open with this census's header line. A last line
    without a newline was cut off mid-write (the header included): it is
    cut from the file and its chunk is computed again.
    """
    done: Dict[Tuple[int, int], Counter] = {}
    if not os.path.exists(path):
        return done

    def refuse(what: str) -> ValueError:
        return ValueError("checkpoint %s; remove %s to start over" % (what, path))

    with open(path, "rb") as handle:
        data = handle.read()
    head = (header + "\n").encode("ascii")
    if not (data.startswith(head) or head.startswith(data)):
        raise refuse("header %r does not match this census (%r)"
                     % (data.split(b"\n", 1)[0].decode("ascii", "replace"), header))
    complete = data[: data.rfind(b"\n") + 1]
    try:
        lines = complete.decode("ascii").split("\n")
    except UnicodeDecodeError as err:
        raise refuse("line %d has a non-ASCII byte"
                     % (complete.count(b"\n", 0, err.start) + 1)) from None
    valid_set = set(valid)
    for line in lines[1:-1]:  # the text ends at its last newline
        malformed = refuse("line %r has a malformed field" % line)
        body = line.rpartition(" crc=")[0] or line
        # read leniently; the line is kept only if _checkpoint_line writes it back
        try:
            lo, hi, *fields = body.split(" ")
            rng = (int(lo), int(hi))
            entries = [(text, tuple(map(int, text.split(","))), int(count))
                       for text, _, count in (f.rpartition(":") for f in fields)]
        except ValueError:
            raise malformed from None
        counts = Counter()
        for key_text, ranks, count in entries:
            if count < 1:
                raise refuse("range %r has count %d below 1" % (rng, count))
            key = ranks if len(ranks) > 1 else ranks[0]  # as the kernel keys its tally
            if len(ranks) != blocks or not all(0 <= r <= bound for r in ranks) or key in counts:
                raise refuse("range %r has %s key %s" % (
                    rng, "a repeated" if key in counts else "an impossible", key_text))
            counts[key] = count
        written = _checkpoint_line(header, rng, counts)
        if written.rpartition(" crc=")[0] != body:
            raise malformed
        if rng not in valid_set or rng in done:
            raise refuse("range %r %s" % (
                rng, "appears twice" if rng in done else "does not match this census"))
        points = rng[1] - rng[0]
        if counts.total() != points:
            raise refuse("range %r counts %d points, not %d" % (rng, counts.total(), points))
        if written != line + "\n":
            raise refuse("line %r fails its CRC32 check" % line)
        done[rng] = counts
    if len(complete) < len(data):
        os.truncate(path, len(complete))
    return done


def _checkpoint_line(header: str, rng: Tuple[int, int], counts: Counter) -> str:
    """A chunk's line: its range and tally, sealed by the CRC32 of the header and them."""
    fields = " ".join(["%d %d" % rng] + ["%s:%d" % item for item in _table_text(counts).items()])
    return "%s crc=%08x\n" % (fields, zlib.crc32(("%s\n%s" % (header, fields)).encode("ascii")))


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
    budget_bits=DEFAULT_BUDGET_BITS (refuse over 2^budget_bits windows ranked,
    or free rows of over budget_bits bits in all),
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
    # the kernel ranks 2^(k+rows-1) windows; free rows are only expanded,
    # and their bits bound the size of the printed counts
    check_budget(max(k + rows - 1, free * k), budget_bits, "census " + name)
    total = 1 << (k + rows - 1)
    if threads < 1:
        raise ValueError("threads must be at least 1, got %d" % threads)
    if chunk_size is None:
        chunk_size = max(total >> 6, min(total, 1 << lanes._LANE_BITS))
    elif chunk_size < 1:
        raise ValueError("chunk_size must be at least 1, got %d" % chunk_size)
    ranges = [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]
    header = "#census v2 %s points=%d chunk=%d" % (name, total, chunk_size)
    done = {}
    if checkpoint:
        done = _read_checkpoint(checkpoint, header, ranges, len(blocks), min(rows, k))
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
                out.write(_checkpoint_line(header, rng, counts))
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
                keep = full ^ last
                ge = [(ge[r] & keep) | (ge[r + 1] & last) for r in range(top + 1)] + [0]
            exact = [(r, lanes_r) for r in range(top + 1) if (lanes_r := ge[r] ^ ge[r + 1])]
            joint = [(key + (r,), both) for key, lanes_in in joint for r, lanes_r in exact
                     if (both := lanes_in & lanes_r)]
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

    values lists the integer value of every representative in [0, 2^N) in
    index order; the integral is their sum weighted by the coset measure 2^{-N}.
    """
    from .dyadic import DyadicRational

    if N < 0:
        raise ValueError("coset depth must be nonnegative, got %d" % N)
    if len(values) != 1 << N:
        raise ValueError("expected %d representatives, got %d" % (1 << N, len(values)))
    return DyadicRational(sum(values), -N)


def _check_qnkm(q: int, n: int, k: int, m: int) -> None:
    if q < 1 or n < 0 or k < 1 or m < 0:
        raise ValueError(
            "requires q >= 1, n, m >= 0, k >= 1, got q=%d n=%d k=%d m=%d"
            % (q, n, k, m)
        )


def _over_grid(total: int, bits: int) -> int:
    """total / 2^bits, the integral of a sum over 2^bits points; it must be an integer."""
    if total & ((1 << bits) - 1):
        raise NonIntegerResult("count %d / 2^%d is not an integer" % (total, bits))
    return total >> bits


def _count_from_ranks(ranks: Mapping[int, int], q: int, n: int, k: int, m: int) -> int:
    """R = 2^-(k+m+nk) * sum_r count_r * 2^(q(k+m+n+1-r)), from the stacked census's
    ranks: 2^(k+m+n+1-r) is the character sum at a grid point of rank r."""
    return _over_grid(sum(count << q * (k + m + n + 1 - r) for r, count in ranks.items()),
                      k + m + n * k)


def repcount_multi_formula(
    q: int, n: int, k: int, m: int, *, budget_bits: int = DEFAULT_BUDGET_BITS
) -> int:
    """Count of solution q-tuples for the stacked system, from the closed
    rank distribution. With n = 0 the system is the window system of the
    (1+m) x k block. Charged first bit_length(P W V) bits: the table is charged
    P = n^2 + (k+1)(min(n, k, m+1)+1)(min(n, k)+2) big-int steps (n^2 shifts and
    adds for coefficient row n), each on W = max(n^2/4, k+m+nk)//64 + 1 by V = k//64 + 1 words.
    """
    from . import formulas

    _check_qnkm(q, n, k, m)
    products = n * n + (k + 1) * (min(n, k, m + 1) + 1) * (min(n, k) + 2)
    steps = products * (max(n * n // 4, k + m + n * k) // 64 + 1) * (k // 64 + 1)
    check_budget(steps.bit_length(), budget_bits, "formula table n=%d k=%d m=%d" % (n, k, m))
    return _count_from_ranks(formulas.stacked_gamma_table(n, m, k), q, n, k, m)


def repcount_integral(
    q: int, n: int, k: int, m: int, *, budget_bits: int = DEFAULT_BUDGET_BITS
) -> int:
    """Count of solution q-tuples as an exact coset integral.

    At each grid point (t, eta_1..eta_n) the closed character sum is
    2^(k+m+n+1-r), r the rank of the (1+m) x k t block over the n eta
    rows, so the integral of its q-th power over the 2^(k+m+nk) points is
    the stacked census weighted by 2^(q(k+m+n+1-r)). Only the source of
    the rank distribution differs from `repcount_multi_formula`.
    """
    _check_qnkm(q, n, k, m)
    ranks = enum_stacked_gamma(n, m, k, budget_bits=budget_bits)
    return _count_from_ranks(ranks, q, n, k, m)


def repcount_bruteforce(
    q: int, n: int, k: int, m: int, *, budget_bits: int = DEFAULT_BUDGET_BITS
) -> int:
    """Count solution q-tuples as the integral of the q-th power of the literal sum.

    Variables per factor: Y of degree <= k-1, Z of degree <= m, and n
    constant-or-zero multipliers U_j. A tuple counts when sum(Y_i Z_i) = 0
    and sum(Y_i U_j^(i)) = 0 for each j. A factor's contribution (Y*Z in the
    low k+m bits, Y*U_j in the j-th k-bit field above) has K = k+m+nk bits,
    and each Y's are the lanes._span of its shifts. lanes._product_sums gives
    the literal sum F(x) = sum_c T[c] (-1)^popcount(x & c), T their tally, at
    each grid point x, and R = 2^-K sum_x F(x)^q; by Parseval, R = T[0] at
    q = 1 and sum_c T[c]^2 at q = 2, with no transform.

    Listing visits 2^f contributions, f = k+m+1+n, charged f bits at q <= 2.
    Refused first over 2^GRID_MAX_BITS entries held: one span of 2^(m+1+n) at
    q = 1, a tally of up to min(2^K, 2^f) keys at q = 2, the 2^K-point transform
    at q >= 3, charged bigint_bits(K 2^K, q f) for its K 2^K steps and q-th powers.
    """
    _check_qnkm(q, n, k, m)
    what = "brute count q=%d n=%d k=%d m=%d" % (q, n, k, m)
    f, grid = k + m + 1 + n, k + m + n * k
    if q <= 2:  # the span or tally alone gives R
        check_budget(f, budget_bits, what)
    held = m + 1 + n if q == 1 else min(grid, f) if q == 2 else grid
    if held > GRID_MAX_BITS:
        holds = "a span of 2^%d contributions" if q == 1 else "a tally of up to 2^%d keys"
        raise BudgetExceeded(("%s holds " + holds + ", over the fixed 2^%d key ceiling of a"
                              " brute count") % (what, held, GRID_MAX_BITS))
    shifts = [*range(m + 1), *range(k + m, k + m + n * k, k)]
    if q > 2:
        check_budget(bigint_bits(grid << grid, q * f), budget_bits, what)
        sums = lanes._product_sums(grid, range(1 << k), shifts)
        return _over_grid(sum(value ** q for value in sums), grid)
    spans = (lanes._span(0, [y << j for j in shifts]) for y in range(1 << k))
    if q == 1:  # T[0], counted one span at a time
        return sum(span.count(0) for span in spans)
    return sum(count * count for count in Counter(itertools.chain.from_iterable(spans)).values())
