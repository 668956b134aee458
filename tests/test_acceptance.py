"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
with its runtime, and fails on any inexact count or a blown time budget.
Every comparison is exact integer equality.
"""

import sys
import time
from fractions import Fraction

from persym import census, formulas
from persym.expsum import (
    fmulti_closed,
    fmulti_direct,
    g2var_closed,
    g2var_direct,
    g_closed,
    g_direct,
    h_closed,
    h_direct,
)
from persym.gf2 import rank_of_rows
from persym.laurent import UnitSeries

from oracles import g_boundary_factors, oracle_gaussian_binomial
from test_census import split_sigma

BUDGETS = {1: 60, 2: 30, 3: 1, 4: 600, 5: 60, 6: 120, 7: 30, 8: 30, 9: 10, 10: 5}


def _finish(number, started, problems):
    elapsed = time.monotonic() - started
    budget = BUDGETS[number]
    ok = not problems and elapsed < budget
    line = "criterion %2d: %s in %6.2fs (budget %3ds)\n" % (
        number, "PASS" if ok else "FAIL", elapsed, budget)
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert not problems, problems[:3]
    assert elapsed < budget, "took %.2fs, budget %ds" % (elapsed, budget)


def test_criterion_01_window_census_matches_closed_form():
    started = time.monotonic()
    problems = []
    for s, k in [(1, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 6),
                 (5, 5), (5, 7)]:
        got = dict(census.enum_gamma(s, k))
        want = formulas.gamma_table(s, k)
        if got != want:
            problems.append(("shape", s, k, got, want))
    _finish(1, started, problems)


def test_criterion_02_profile_census_matches_closed_form_everywhere():
    started = time.monotonic()
    problems = []
    for s, k in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 5)]:
        got = census.enum_quadruple(1, s, k)
        table = formulas.quad_table(s, k)
        box = range(s + 1)
        for j1 in box:
            for j2 in box:
                for j3 in box:
                    for j4 in box:
                        key = (j1, j2, j3, j4)
                        want = table.get(key, 0)
                        if got[key] != want:
                            problems.append((s, k, key, got[key], want))
        stray = [key for key in got if max(key) > s]
        if stray:
            problems.append((s, k, "stray keys", stray))
    _finish(2, started, problems)


def test_criterion_03_small_stacked_census():
    started = time.monotonic()
    got = dict(census.enum_stacked_gamma(1, 2, 3))
    problems = [] if got == {0: 1, 1: 13, 2: 66, 3: 176} else [got]
    _finish(3, started, problems)


def test_criterion_04_large_stacked_census_single_threaded():
    started = time.monotonic()
    problems = []
    got = dict(census.enum_stacked_gamma(5, 2, 4, threads=1))
    want = {0: 1, 1: 561, 2: 65670, 3: 3731208, 4: 63311424}
    if got != want:
        problems.append((got, want))
    if census.repcount_multi_formula(3, 5, 4, 2) != 24413824:
        problems.append(("formula", census.repcount_multi_formula(3, 5, 4, 2)))
    _finish(4, started, problems)


def test_criterion_05_representation_count_cross_check():
    started = time.monotonic()
    problems = []
    for q, s, k in [(1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2)]:
        brute = census.repcount_bruteforce(q, 0, k, s - 1)
        formula = census.repcount_multi_formula(q, 0, k, s - 1)
        integral = census.repcount_integral(q, 0, k, s - 1)
        if not brute == formula == integral:
            problems.append((q, s, k, brute, formula, integral))
    pair = (census.repcount_bruteforce(1, 1, 3, 2),
            census.repcount_multi_formula(1, 1, 3, 2))
    if pair != (23, 23):
        problems.append(pair)
    _finish(5, started, problems)


def test_criterion_06_exponential_sum_identity_suite():
    started = time.monotonic()
    problems = []
    for s, k in [(2, 2), (2, 3), (3, 3)]:
        depth = k + s - 1
        for v in range(1 << depth):
            t = UnitSeries(v, depth)
            if h_direct(s, k, t) != h_closed(s, k, t):
                problems.append(("h", s, k, v))
            gd = g_direct(s, k, t)
            if gd != g_closed(s, k, t):
                problems.append(("g", s, k, v))
            g1, g2 = g_boundary_factors(s, k, t)
            if gd * gd != g1 * g2:
                problems.append(("g^2", s, k, v, gd, g1, g2))
    for m, k in [(0, 1), (0, 2), (1, 2), (2, 3)]:
        for tv in range(1 << (k + m)):
            t = UnitSeries(tv, k + m)
            for ev in range(1 << k):
                eta = UnitSeries(ev, k)
                if g2var_direct(m, k, t, eta) != g2var_closed(m, k, t, eta):
                    problems.append(("g2", m, k, tv, ev))
                if fmulti_direct(m, k, t, [eta]) != fmulti_closed(m, k, t, [eta]):
                    problems.append(("f2", m, k, tv, ev))
    m, k = 0, 2
    for tv in range(1 << (k + m)):
        t = UnitSeries(tv, k + m)
        for word in range(1 << (2 * k)):
            etas = [UnitSeries((word >> (j * k)) & ((1 << k) - 1), k)
                    for j in range(2)]
            if fmulti_direct(m, k, t, etas) != fmulti_closed(m, k, t, etas):
                problems.append(("fmulti", tv, word))
    _finish(6, started, problems)


def test_criterion_07_partition_properties():
    started = time.monotonic()
    problems = []
    for s, k in [(2, 3), (3, 3), (3, 4)]:
        depth = k + s - 1
        grid = [UnitSeries(v, depth) for v in range(1 << depth)]
        gvals = [g_closed(s, k, t) for t in grid]
        for q in (0, 1, 2):
            total = sum(g ** (2 * q + 1) for g in gvals)
            if total != 0:
                problems.append(("odd", s, k, q, total))
        quads = census.enum_quadruple(1, s, k)
        for j in range(s):
            if quads[(j, j, j, j)] != quads[(j, j, j, j + 1)]:
                problems.append(("pair", s, k, j))
        for j in range(s - 1):
            for key in [(j, j + 1, j + 1, j + 1), (j, j + 1, j, j + 1),
                        (j, j, j + 1, j + 1)]:
                if quads[key] != 0:
                    problems.append(("nonzero", s, k, key, quads[key]))
        narrow = census.enum_gamma(s, k - 1)
        short = census.enum_gamma(s - 1, k)
        for i in range(s - 1):
            if narrow[i] != short[i]:
                problems.append(("shift", s, k, i, narrow[i], short[i]))
        for q in (1, 2):
            lhs = Fraction(sum(g ** (2 * q) for g in gvals), 1 << depth)
            rhs = sum(Fraction(quads[(j, j, j, j)], 1 << 2 * q * j) for j in range(s))
            rhs *= 1 << (s + k - 2) * (2 * q - 1)
            if lhs != rhs:
                problems.append(("even", s, k, q, lhs, rhs))
    _finish(7, started, problems)


def test_criterion_08_row_extension_split():
    started = time.monotonic()
    problems = []
    for m, k in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]:
        same, up = split_sigma(census.enum_sigma(m, k))
        for i, count in same.items():
            if count != (1 << i) * formulas.gamma_closed(1 + m, k, i):
                problems.append(("same", m, k, i, count))
        for i, count in up.items():
            want = ((1 << k) - (1 << (i - 1))) * formulas.gamma_closed(1 + m, k, i - 1)
            if count != want:
                problems.append(("up", m, k, i, count, want))
        merged = same + up
        for i in range(min(k, m + 2) + 1):
            if merged[i] != formulas.stacked1_gamma_closed(m, k, i):
                problems.append(("merge", m, k, i, merged[i]))
    _finish(8, started, problems)


def test_criterion_09_coefficient_suite():
    started = time.monotonic()
    problems = []
    for n in range(13):
        for j in range(n + 1):
            rec = formulas.a_coeff_recurrence(n, j)
            if rec != formulas.a_coeff_closed(n, j):
                problems.append(("closed", n, j))
        for i in range(1, n + 1):
            lhs = formulas.a_coeff_recurrence(n, i) + (
                1 << (n - (i - 1))) * formulas.a_coeff_recurrence(n, i - 1)
            if lhs != oracle_gaussian_binomial(n + 1, i):
                problems.append(("pair-sum", n, i))
    for n, row in [(1, (1, 1)), (2, (1, 3, 1)), (3, (1, 7, 7, 1)),
                   (4, (1, 15, 35, 15, 1)), (5, (1, 31, 155, 155, 31, 1))]:
        if formulas.a_coeff_table(n) != row:
            problems.append(("row", n))
    for n in range(5):
        for k in range(1, 7):
            stacked = formulas.stacked_gamma_table(n, 0, k)
            if stacked != formulas.landsberg_table(n + 1, k):
                problems.append(("free", n, k, stacked))
    for rows, k in [(2, 2), (2, 3), (3, 3)]:
        counts = {}
        mask = (1 << k) - 1
        for word in range(1 << (rows * k)):
            r = rank_of_rows([(word >> (i * k)) & mask for i in range(rows)])
            counts[r] = counts.get(r, 0) + 1
        if counts != formulas.landsberg_table(rows, k):
            problems.append(("brute", rows, k, counts))
    _finish(9, started, problems)


def test_criterion_10_case_tables_equal_recurrence():
    started = time.monotonic()
    problems = []
    for m, k in [(0, 2), (0, 4), (1, 3), (2, 2), (3, 3), (2, 5)]:
        table = formulas.stacked1_gamma_table(m, k)
        want = {i: formulas.stacked1_gamma_closed(m, k, i)
                for i in range(min(k, m + 2) + 1)}
        if table != want:
            problems.append((m, k, table, want))
    _finish(10, started, problems)
