"""Per-layer timings: direct calls into each persym module's public functions.

Inputs (rows, series, polynomials, dyadics) are drawn from the workload
seed; enumerations are exhaustive over small fixed domains. Every timing
is the median of several repeats. Kernel costs use one chunk, one worker
and no checkpoint, so they exclude the chunk driver and the pool, which
have their own entries.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from random import Random
from typing import Callable, Dict, Tuple

from persym import builders, census, expsum, formulas, gf2, laurent
from persym.dyadic import DyadicRational
from persym.laurent import Poly2, UnitSeries

SIZES = {
    "samples": 2000, "reps": 5, "heavy_reps": 3,
    "gamma": (8, 8), "quad": (7, 7), "stacked": (4, 2, 4), "sigma": (4, 7),
    "driver": (6, 6), "checkpoint": (5, 6), "coset_bits": 16,
    "integral": (2, 1, 6, 4), "brute": (2, 1, 4, 3), "h_direct": (6, 6),
    "quad_table": (7, 7), "stacked_table": (4, 2, 4), "stacked1_table": (4, 6),
    "a_coeff_n": 40,
}

TINY_SIZES = {
    "samples": 20, "reps": 1, "heavy_reps": 1,
    "gamma": (3, 3), "quad": (3, 3), "stacked": (1, 1, 2), "sigma": (1, 2),
    "driver": (3, 3), "checkpoint": (2, 3), "coset_bits": 4,
    "integral": (2, 1, 2, 1), "brute": (1, 1, 2, 1), "h_direct": (2, 2),
    "quad_table": (3, 3), "stacked_table": (1, 2, 3), "stacked1_table": (1, 3),
    "a_coeff_n": 5,
}

Metrics = Dict[str, Tuple[float, str]]


def _timed(call: Callable[[], object], reps: int) -> float:
    """Median wall seconds of `reps` calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _ns_per_call(fn, inputs, reps: int) -> float:
    def loop():
        for args in inputs:
            fn(*args)

    return _timed(loop, reps) * 1e9 / len(inputs)


def _series(rng: Random, bits: int) -> UnitSeries:
    return UnitSeries(rng.getrandbits(bits), bits)


def kernels(rng: Random, size: dict) -> Metrics:
    """Row reduction, window extraction, series and characters, closed sums."""
    n, reps = size["samples"], size["reps"]
    mask10 = (1 << 10) - 1
    windows = [[(v >> i) & mask10 for i in range(10)]
               for v in (rng.getrandbits(19) for _ in range(n))]
    t17 = [_series(rng, 17) for _ in range(n)]
    bits17 = [rng.getrandbits(17) for _ in range(n)]
    polys = [(Poly2(rng.getrandbits(9)), Poly2(rng.getrandbits(9))) for _ in range(n)]
    products = [(t, Poly2(rng.getrandbits(17))) for t in t17]
    dyadics = [(DyadicRational(rng.getrandbits(40) | 1, -rng.randrange(40)),
                DyadicRational(rng.getrandbits(40) | 1, -rng.randrange(40)))
               for _ in range(n)]
    fmulti_args = [(6, 7, _series(rng, 13), [_series(rng, 7) for _ in range(3)])
                   for _ in range(n)]
    hs, hk = size["h_direct"]
    h_t = _series(rng, hs + hk - 1)
    return {
        "gf2.rank_of_rows.ns_per_call": (
            _ns_per_call(gf2.rank_of_rows, [(rows,) for rows in windows], reps), "ns"),
        "builders.hankel_rows.ns_per_call": (
            _ns_per_call(builders.hankel_rows, [(t, 1, 9, 9) for t in t17], reps), "ns"),
        "builders.rank_profile.ns_per_call": (
            _ns_per_call(builders.rank_profile, [(t, 1, 9, 9) for t in t17], reps), "ns"),
        "laurent.UnitSeries.ns_per_call": (
            _ns_per_call(UnitSeries, [(v, 17) for v in bits17], reps), "ns"),
        "laurent.poly_mul.ns_per_call": (
            _ns_per_call(laurent.poly_mul, polys, reps), "ns"),
        "laurent.char_E_of_product.ns_per_call": (
            _ns_per_call(laurent.char_E_of_product, products, reps), "ns"),
        "dyadic.add.ns_per_op": (
            _ns_per_call(DyadicRational.__add__, dyadics, reps), "ns"),
        "expsum.g_closed.ns_per_call": (
            _ns_per_call(expsum.g_closed, [(9, 9, t) for t in t17], reps), "ns"),
        "expsum.h_closed.ns_per_call": (
            _ns_per_call(expsum.h_closed, [(9, 9, t) for t in t17], reps), "ns"),
        "expsum.fmulti_closed.ns_per_call": (
            _ns_per_call(expsum.fmulti_closed, fmulti_args, reps), "ns"),
        "expsum.h_direct.ns_per_term": (
            _timed(lambda: expsum.h_direct(hs, hk, h_t), reps) * 1e9 / (1 << (hs + hk)),
            "ns"),
    }


def census_layers(rng: Random, size: dict, nproc: int, work_dir: str) -> Metrics:
    """Census kernels per point, chunk driver, pool, checkpoint I/O, integrals."""
    reps = size["heavy_reps"]
    out: Metrics = {}

    s, k = size["gamma"]
    total = 1 << (s + k - 1)
    out["census.gamma.ns_per_point"] = (
        _timed(lambda: census.enum_gamma(s, k, chunk_size=total), reps) * 1e9 / total, "ns")
    qs, qk = size["quad"]
    total = 1 << (qs + qk - 1)
    out["census.quad.ns_per_point"] = (
        _timed(lambda: census.enum_quadruple(1, qs, qk, chunk_size=total), reps) * 1e9 / total,
        "ns")
    n, m, k = size["stacked"]
    windows = 1 << (k + m)
    out["census.stacked.ns_per_tuple"] = (
        _timed(lambda: census.enum_stacked_gamma(n, m, k, chunk_size=windows), reps) * 1e9
        / (windows << (n * k)), "ns")
    m, k = size["sigma"]
    windows = 1 << (k + m)
    out["census.sigma.ns_per_pair"] = (
        _timed(lambda: census.enum_sigma(m, k, chunk_size=windows), reps) * 1e9
        / (windows << k), "ns")

    s, k = size["driver"]
    total = 1 << (s + k - 1)
    many, one = [], []
    for _ in range(size["reps"]):
        many.append(_timed(lambda: census.enum_gamma(s, k), 1))
        one.append(_timed(lambda: census.enum_gamma(s, k, chunk_size=total), 1))
    out["census.driver.overhead_s"] = (statistics.median(many) - statistics.median(one), "s")
    out["census.pool.startup_s"] = (
        _timed(lambda: census.enum_gamma(1, 2, threads=nproc), reps), "s")

    # Checkpoint I/O: one line per one-point chunk, written fresh, then
    # resumed with every chunk present (so the resume is the read alone).
    s, k = size["checkpoint"]
    plain = _timed(lambda: census.enum_gamma(s, k, chunk_size=1), reps)
    writes, reads = [], []
    for i in range(reps):
        path = os.path.join(work_dir, "layer-checkpoint-%d" % i)
        writes.append(_timed(lambda: census.enum_gamma(s, k, chunk_size=1, checkpoint=path), 1))
        reads.append(_timed(lambda: census.enum_gamma(s, k, chunk_size=1, checkpoint=path), 1))
        os.remove(path)
    out["census.checkpoint.write_s"] = (statistics.median(writes) - plain, "s")
    out["census.checkpoint.read_s"] = (statistics.median(reads), "s")

    bits = size["coset_bits"]
    values = [rng.randrange(-64, 65) for _ in range(1 << bits)]
    out["census.integrate_coset.ns_per_point"] = (
        _timed(lambda: census.integrate_coset(values, bits), size["reps"]) * 1e9 / (1 << bits),
        "ns")
    q, n, k, m = size["integral"]
    integral_points = 1 << (k + m + n * k)
    out["census.repcount_integral.ns_per_point"] = (
        _timed(lambda: census.repcount_integral(q, n, k, m), reps) * 1e9 / integral_points,
        "ns")
    tracemalloc.start()
    try:
        census.repcount_integral(q, n, k, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["census.repcount_integral.peak_alloc_mib"] = (peak / 2**20, "MiB")
    q, n, k, m = size["brute"]
    out["census.repcount_bruteforce.ns_per_tuple"] = (
        _timed(lambda: census.repcount_bruteforce(q, n, k, m), reps) * 1e9
        / (1 << (q * (k + m + 1 + n))), "ns")
    return out


def formula_tables(size: dict) -> Metrics:
    """Seconds per closed-form table at the verify-suites parameters."""
    reps = size["reps"]
    n_max = size["a_coeff_n"]

    def a_coeffs():
        for n in range(1, n_max + 1):
            for j in range(n + 1):
                formulas.a_coeff_closed(n, j)

    return {
        "formulas.quad_table.s": (
            _timed(lambda: formulas.quad_table(*size["quad_table"]), reps), "s"),
        "formulas.stacked_gamma_table.s": (
            _timed(lambda: formulas.stacked_gamma_table(*size["stacked_table"]), reps), "s"),
        "formulas.stacked1_gamma_table.s": (
            _timed(lambda: formulas.stacked1_gamma_table(*size["stacked1_table"]), reps), "s"),
        "formulas.a_coeff_closed.s": (_timed(a_coeffs, reps), "s"),
    }


def measure(seed: int, nproc: int, work_dir: str, tiny: bool) -> Metrics:
    size = TINY_SIZES if tiny else SIZES
    rng = Random("layers-%d" % seed)
    out = kernels(rng, size)
    out.update(census_layers(rng, size, nproc, work_dir))
    out.update(formula_tables(size))
    return out
