import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persym import formulas as F
from persym.exceptions import CaseMismatch
from persym.gf2 import rank_of_rows

from oracles import oracle_gaussian_binomial


def brute_rank_counts(rows, k):
    counts = {}
    for word in range(1 << (rows * k)):
        mask = (1 << k) - 1
        r = rank_of_rows((word >> (i * k)) & mask for i in range(rows))
        counts[r] = counts.get(r, 0) + 1
    return counts


class TestGamma:
    def test_known_values(self):
        assert F.gamma_closed(2, 3, 2) == 12
        assert F.gamma_closed(3, 3, 3) == 16
        assert F.gamma_closed(5, 7, 0) == 1
        assert F.gamma_table(2, 3) == {0: 1, 1: 3, 2: 12}
        assert F.gamma_table(4, 4) == {0: 1, 1: 3, 2: 12, 3: 48, 4: 64}
        assert F.gamma_table(1, 5) == {0: 1, 1: 31}

    def test_out_of_range_is_zero(self):
        assert F.gamma_closed(2, 3, -1) == 0
        assert F.gamma_closed(2, 3, 3) == 0

    def test_transpose_normalization(self):
        for s, k in [(3, 2), (5, 1), (4, 2)]:
            assert F.gamma_table(s, k) == F.gamma_table(k, s)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            F.gamma_closed(0, 3, 0)
        with pytest.raises(ValueError):
            F.gamma_table(2, 0)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_total_is_domain_size(self, s, k):
        assert sum(F.gamma_table(s, k).values()) == 1 << (k + s - 1)

    def test_table_is_theorem_3_1_written_out(self):
        for s in range(1, 41):
            for k in range(1, 41):
                low = min(s, k)
                want = {0: 1, low: 2 ** (s + k - 1) - 4 ** (low - 1)}
                want.update((i, 3 * 4 ** (i - 1)) for i in range(1, low))
                table = F.gamma_table(s, k)
                assert table == F.gamma_table(k, s) == want, (s, k)
                assert list(table) == list(range(low + 1))  # the order a report prints
                assert sum(table.values()) == 2 ** (s + k - 1)

    @pytest.mark.parametrize("s, k", [(1, 1), (1, 6), (6, 1), (4, 4), (3, 9), (40, 40)])
    def test_closed_is_zero_just_outside_the_ranks(self, s, k):
        assert F.gamma_closed(s, k, -1) == 0
        assert F.gamma_closed(s, k, min(s, k) + 1) == 0

    @pytest.mark.parametrize("call", [lambda: F.gamma_table(0, 3), lambda: F.gamma_closed(0, 3, 0)])
    def test_zero_rows_are_refused_with_the_shape(self, call):
        with pytest.raises(ValueError, match=r"^shape must be positive, got 0x3$"):
            call()

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_dyadic_moment(self, s, k):
        acc = sum(Fraction(count, 1 << i) for i, count in F.gamma_table(s, k).items())
        expected = (1 << k - 1) + (1 << s - 1) - Fraction(1, 2)
        assert acc == expected


class TestQuad:
    def test_known_values(self):
        table = F.quad_table(3, 4)
        assert table.get((1, 1, 1, 1), 0) == 2
        assert table.get((1, 2, 2, 3), 0) == 8
        assert table.get((0, 1, 1, 1), 0) == 0
        assert table.get((2, 2, 3, 3), 0) == 32
        assert F.quad_table(2, 2).get((0, 0, 0, 0), 0) == 1
        assert F.quad_table(2, 2).get((0, 0, 0, 1), 0) == 1

    def test_requires_wide_shape(self):
        for s, k in [(3, 2), (4, 3), (0, 3)]:
            with pytest.raises(ValueError, match="requires 1 <= s <= k, got s=%d k=%d" % (s, k)):
                F.quad_table(s, k)

    def test_table_matches_pointwise_form(self):
        # Theorem 3.3's four cases, read pointwise: every quadruple in the box
        def pointwise(s, k, j1, j2, j3, j4):
            if j1 == j2 == j3 == 0 and j4 in (0, 1):
                return 1
            if j1 == j2 == j3 and 1 <= j1 <= s - 1 and j4 in (j1, j1 + 1):
                return 2 << (2 * j1 - 2)
            if j2 == j3 == j1 + 1 and j4 == j1 + 2 and j4 <= s:
                return 1 << (2 * j4 - 3)
            if (j1, j2, j3, j4) == (s - 1, s - 1, s, s):
                return (1 << (k + s - 1)) - (1 << (2 * s - 1))
            return 0

        for s, k in [(1, 1), (1, 3), (2, 2), (3, 4), (4, 5)]:
            table = F.quad_table(s, k)
            assert all(v > 0 for v in table.values())
            for quad in itertools.product(range(s + 1), repeat=4):
                assert pointwise(s, k, *quad) == table.get(quad, 0)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))
    def test_total_is_domain_size(self, s, extra):
        k = s + extra
        assert sum(F.quad_table(s, k).values()) == 1 << (k + s - 1)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=5))
    def test_last_rank_marginal_recovers_gamma(self, s, extra):
        k = s + extra
        marginal = {}
        for (j1, j2, j3, j4), count in F.quad_table(s, k).items():
            marginal[j4] = marginal.get(j4, 0) + count
        assert marginal == F.gamma_table(s, k)

    def test_leading_rank_marginal_scales_down(self):
        for s, k in [(2, 2), (3, 4)]:
            marginal = {}
            for (j1, _, _, _), count in F.quad_table(s, k).items():
                marginal[j1] = marginal.get(j1, 0) + count
            small = F.gamma_table(s - 1, k - 1)
            assert marginal == {i: 4 * v for i, v in small.items() if v}


class TestStacked1:
    def test_known_values(self):
        assert F.stacked1_gamma_table(2, 2) == {0: 1, 1: 9, 2: 54}
        assert F.stacked1_gamma_closed(2, 3, 1) == 13
        for k in range(2, 6):
            assert F.stacked1_gamma_closed(0, k, 2) == (1 << (2 * k)) - 3 * (1 << k) + 2

    def test_out_of_range_is_zero(self):
        assert F.stacked1_gamma_closed(1, 2, -1) == 0
        assert F.stacked1_gamma_closed(1, 2, 3) == 0
        assert F.stacked1_gamma_closed(3, 9, 6) == 0

    def test_all_case_families_agree_with_recurrence(self):
        shapes = [(0, 2), (0, 4), (1, 3), (1, 5), (2, 2), (5, 2), (2, 3), (3, 3),
                  (3, 4), (2, 4), (2, 5), (4, 6), (6, 3)]
        for m, k in shapes:
            table = F.stacked1_gamma_table(m, k)
            assert table == {i: F.stacked1_gamma_closed(m, k, i) for i in table}
            assert sum(table.values()) == 1 << (2 * k + m)

    def test_entries_match_the_one_row_recurrence(self):
        # the row stays inside the block's rank-i row space in 2^i ways, or
        # lifts a rank i-1 block in 2^k - 2^(i-1)
        for m in range(7):
            for k in range(1, 9):
                for i in range(-2, k + m + 5):
                    want = 0
                    if 0 <= i <= min(k, m + 2):
                        want = (1 << i) * F.gamma_closed(1 + m, k, i)
                        if i >= 1:
                            want += ((1 << k) - (1 << (i - 1))) * F.gamma_closed(1 + m, k, i - 1)
                    assert F.stacked1_gamma_closed(m, k, i) == want, (m, k, i)

    def test_no_case_covers_single_column(self):
        with pytest.raises(ValueError):
            F.stacked1_gamma_table(2, 1)

    @pytest.mark.parametrize("m", [-1, -5])
    def test_no_case_covers_a_negative_shift_at_two_columns(self, m):
        with pytest.raises(ValueError, match="^no case table covers m=%d, k=2$" % m):
            F.stacked1_gamma_table(m, 2)

    def test_transcription_guard_fires_on_disagreement(self, monkeypatch):
        good = F._stacked1_case_table(1, 3)
        bad = dict(good)
        bad[2] += 11
        monkeypatch.setattr(F, "_stacked1_case_table", lambda m, k: bad)
        with pytest.raises(CaseMismatch):
            F.stacked1_gamma_table(1, 3)


class TestACoefficients:
    def test_hardcoded_rows(self):
        assert F.a_coeff_table(1) == (1, 1)
        assert F.a_coeff_table(2) == (1, 3, 1)
        assert F.a_coeff_table(3) == (1, 7, 7, 1)
        assert F.a_coeff_table(4) == (1, 15, 35, 15, 1)
        assert F.a_coeff_table(5) == (1, 31, 155, 155, 31, 1)
        with pytest.raises(ValueError):
            F.a_coeff_table(6)

    def test_recurrence_matches_closed_form(self):
        for n in range(13):
            for j in range(n + 1):
                assert F.a_coeff_recurrence(n, j) == F.a_coeff_closed(n, j)

    def test_rows_match_table(self):
        for n in range(1, 6):
            row = tuple(F.a_coeff_recurrence(n, j) for j in range(n + 1))
            assert row == F.a_coeff_table(n)

    def test_first_coefficient(self):
        for n in range(1, 13):
            assert F.a_coeff_recurrence(n, 1) == (1 << n) - 1

    def test_boundaries_are_one(self):
        for n in range(13):
            assert F.a_coeff_closed(n, 0) == 1
            assert F.a_coeff_closed(n, n) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            F.a_coeff_recurrence(3, 4)
        with pytest.raises(ValueError):
            F.a_coeff_closed(3, -1)

    def test_pair_sum_is_gaussian_binomial(self):
        for n in range(1, 13):
            for i in range(1, n + 1):
                lhs = F.a_coeff_recurrence(n, i)
                lhs += (1 << (n - (i - 1))) * F.a_coeff_recurrence(n, i - 1)
                assert lhs == oracle_gaussian_binomial(n + 1, i)

    def test_gaussian_binomial_values(self):
        assert F._gaussian_row(4, 2) == [1, 15, 35] == [oracle_gaussian_binomial(4, r)
                                                        for r in range(3)]
        assert F._gaussian_row(3, 0) == [1]
        assert F._gaussian_row(2, 5) == [1, 3, 1]  # [2, r] is 0 for r > 2: the row stops
        assert oracle_gaussian_binomial(2, 5) == 0

    def test_recurrence_rows_are_gaussian_binomials(self):
        # the q-Pascal rule [n, j] = 2^j [n-1, j] + [n-1, j-1] is a_coeff_rows' step
        for n, row in enumerate(F.a_coeff_rows(60)):
            assert row == F._gaussian_row(n, n) == [oracle_gaussian_binomial(n, j)
                                                    for j in range(n + 1)]

    def test_gaussian_binomial_symmetry_and_zeros(self):
        for n in range(61):
            row = F._gaussian_row(n, n + 3)  # no entry past [n, n], where [n, r] is 0
            assert row == row[::-1] == [oracle_gaussian_binomial(n, r) for r in range(n + 1)]
        for rows in range(1, 9):  # the all-matrices census reads one such row
            for k in range(1, rows + 4):
                product, want = 1, {}
                for i in range(min(rows, k) + 1):
                    want[i] = oracle_gaussian_binomial(rows, i) * product
                    product *= 2 ** k - 2 ** i
                assert F.landsberg_table(rows, k) == want, (rows, k)


class TestStackedGamma:
    def test_known_tables(self):
        assert F.stacked_gamma_table(1, 2, 3) == {0: 1, 1: 13, 2: 66, 3: 176}
        assert F.stacked_gamma_table(5, 2, 4) == {
            0: 1, 1: 561, 2: 65670, 3: 3731208, 4: 63311424,
        }

    def test_table_refuses_a_bad_shape(self):
        for n, m, k in [(-5, 0, 3), (0, -1, 3), (2, 1, 0)]:
            message = "requires n, m >= 0 and k >= 1, got n=%d m=%d k=%d" % (n, m, k)
            with pytest.raises(ValueError, match=message):
                F.stacked_gamma_table(n, m, k)

    def test_no_free_rows_reduces_to_window_census(self):
        for m, k in [(0, 1), (1, 2), (2, 3), (3, 2)]:
            assert F.stacked_gamma_table(0, m, k) == F.gamma_table(1 + m, k)

    def test_one_free_row_matches_case_tables(self):
        for m, k in [(0, 2), (1, 3), (2, 2), (3, 3), (2, 5)]:
            assert F.stacked_gamma_table(1, m, k) == F.stacked1_gamma_table(m, k)

    @pytest.mark.parametrize("m", [0, 3, 40])
    def test_table_matches_the_per_entry_sum(self, m):
        # each entry summed on its own, its a_j from a_coeff_recurrence
        for n in range(41):
            k = n or 1
            a = [F.a_coeff_recurrence(n, j) for j in range(n + 1)]
            want = {}
            for i in range(min(k, n + m + 1) + 1):
                want[i] = 0
                for j in range(min(i, n) + 1):
                    coeff = a[j] << ((n - j) * (i - j))
                    for l in range(1, j + 1):
                        coeff *= (1 << k) - (1 << (i - l))
                    want[i] += coeff * F.gamma_closed(1 + m, k, i - j)
            assert F.stacked_gamma_table(n, m, k) == want, n

    def test_table_builds_the_coefficient_rows_once(self, monkeypatch):
        calls = []
        rows = F.a_coeff_rows
        monkeypatch.setattr(F, "a_coeff_rows", lambda n: calls.append(n) or rows(n))
        F.stacked_gamma_table(7, 2, 6)
        assert calls == [7]
        F.stacked_gamma_table(8, 2, 6)
        assert calls == [7, 8]

    def test_coefficient_row_is_held_alone(self):
        # every row up to n held at once peaks at about 4 MiB here
        tracemalloc.start()
        try:
            F.stacked_gamma_table(160, 0, 160)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_unstructured_block_matches_landsberg(self):
        for n in range(5):
            for k in range(1, 7):
                assert F.stacked_gamma_table(n, 0, k) == F.landsberg_table(n + 1, k)

    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60)
    def test_total_is_domain_size(self, n, m, k):
        total = sum(F.stacked_gamma_table(n, m, k).values())
        assert total == 1 << (k + m + n * k)


class TestLandsberg:
    def test_known_values(self):
        assert F.landsberg_table(2, 2)[1] == 9
        assert F.landsberg_table(4, 6)[0] == 1
        assert F.landsberg_table(3, 3)[3] == 168

    def test_matches_brute_enumeration(self):
        for rows, k in [(2, 2), (2, 3), (3, 3)]:
            assert F.landsberg_table(rows, k) == brute_rank_counts(rows, k)

    def test_out_of_range_is_zero(self):
        assert F.landsberg_table(2, 3).get(3, 0) == 0
        assert F.landsberg_table(2, 3).get(-1, 0) == 0

    def test_rejects_bad_shapes(self):
        for rows, k in [(0, 3), (3, 0), (-1, 2), (2, -1)]:
            with pytest.raises(ValueError, match="shape must be positive, got %dx%d" % (rows, k)):
                F.landsberg_table(rows, k)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_total_is_domain_size(self, rows, k):
        assert sum(F.landsberg_table(rows, k).values()) == 1 << (rows * k)


class TestRepcountPiecewise:
    def test_known_values(self):
        assert F.repcount_piecewise(1, 2, 1) == 7
        assert F.repcount_piecewise(2, 2, 1) == 64
        assert F.repcount_piecewise(3, 2, 1) == 736

    def test_rejects_narrow_shapes(self):
        with pytest.raises(ValueError):
            F.repcount_piecewise(1, 2, 2)
        with pytest.raises(ValueError):
            F.repcount_piecewise(0, 2, 1)

    def test_q1_general_form(self):
        for k in range(1, 6):
            for m in range(k):
                assert F.repcount_piecewise(1, k, m) == (1 << k) + (1 << (1 + m)) - 1
