import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persym import formulas as F
from persym.dyadic import DyadicRational
from persym.exceptions import CaseMismatch
from persym.gf2 import rank_of_rows


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

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_dyadic_moment(self, s, k):
        acc = DyadicRational(0)
        for i, count in F.gamma_table(s, k).items():
            acc += DyadicRational(count, -i)
        expected = DyadicRational(1, k - 1) + DyadicRational(1, s - 1) + DyadicRational(-1, -1)
        assert acc == expected


class TestQuad:
    def test_known_values(self):
        assert F.quad_closed(3, 4, 1, 1, 1, 1) == 2
        assert F.quad_closed(3, 4, 1, 2, 2, 3) == 8
        assert F.quad_closed(3, 4, 0, 1, 1, 1) == 0
        assert F.quad_closed(3, 4, 2, 2, 3, 3) == 32
        assert F.quad_closed(2, 2, 0, 0, 0, 0) == 1
        assert F.quad_closed(2, 2, 0, 0, 0, 1) == 1

    def test_requires_wide_shape(self):
        with pytest.raises(ValueError):
            F.quad_closed(3, 2, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            F.quad_table(4, 3)

    def test_table_matches_pointwise_form(self):
        # the table lists every quadruple the pointwise form counts
        for s, k in [(1, 1), (1, 3), (2, 2), (3, 4), (4, 5)]:
            table = F.quad_table(s, k)
            assert all(v > 0 for v in table.values())
            for quad in itertools.product(range(s + 1), repeat=4):
                assert F.quad_closed(s, k, *quad) == table.get(quad, 0)

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

    def test_no_case_covers_single_column(self):
        with pytest.raises(ValueError):
            F.stacked1_gamma_table(2, 1)

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
                assert lhs == F.gaussian_binomial(n + 1, i)

    def test_gaussian_binomial_values(self):
        assert F.gaussian_binomial(4, 2) == 35
        assert F.gaussian_binomial(3, 0) == 1
        assert F.gaussian_binomial(2, 5) == 0


class TestStackedGamma:
    def test_known_tables(self):
        assert F.stacked_gamma_table(1, 2, 3) == {0: 1, 1: 13, 2: 66, 3: 176}
        assert F.stacked_gamma_table(5, 2, 4) == {
            0: 1, 1: 561, 2: 65670, 3: 3731208, 4: 63311424,
        }

    def test_no_free_rows_reduces_to_window_census(self):
        for m, k in [(0, 1), (1, 2), (2, 3), (3, 2)]:
            assert F.stacked_gamma_table(0, m, k) == F.gamma_table(1 + m, k)

    def test_one_free_row_matches_case_tables(self):
        for m, k in [(0, 2), (1, 3), (2, 2), (3, 3), (2, 5)]:
            assert F.stacked_gamma_table(1, m, k) == F.stacked1_gamma_table(m, k)

    def test_unstructured_block_matches_landsberg(self):
        for n in range(5):
            for k in range(1, 7):
                for i in range(min(n + 1, k) + 2):
                    assert F.stacked_gamma_closed(n, 0, k, i) == F.landsberg(n + 1, k, i)

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
        assert F.landsberg(2, 2, 1) == 9
        assert F.landsberg(4, 6, 0) == 1
        assert F.landsberg(3, 3, 3) == 168

    def test_matches_brute_enumeration(self):
        for rows, k in [(2, 2), (2, 3), (3, 3)]:
            assert F.landsberg_table(rows, k) == brute_rank_counts(rows, k)

    def test_out_of_range_is_zero(self):
        assert F.landsberg(2, 3, 3) == 0
        assert F.landsberg(2, 3, -1) == 0

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
