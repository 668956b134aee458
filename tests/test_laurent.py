from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from typing import Iterable, Optional

from persym.exceptions import InsufficientPrecision
from persym.laurent import Poly2, UnitSeries, char_E_of_product, poly_mul

from oracles import char_sign, poly_mul as oracle_poly_mul


def S(literal):
    return UnitSeries.from_string(literal)


def P(literal):
    """A bit-string literal; the leftmost character is the constant term."""
    return Poly2(int(literal[::-1], 2))


# Series operations that only these tests use; the package evaluates
# characters on t*p directly through char_E_of_product.


def frac_mul(t: UnitSeries, p: Poly2, precision: Optional[int] = None) -> UnitSeries:
    """Fractional part of t*p as a series of the requested precision.

    Output coefficient b_r = sum_j p_j * a_{r+j} (mod 2): multiplying by T^j
    shifts the tail of t left by j places and the integer part falls away.
    Default precision is the largest the input supports.
    """
    if not p:
        return UnitSeries(0, t.precision if precision is None else precision)
    deg = p.bits.bit_length() - 1
    if precision is None:
        precision = t.precision - deg
        if precision < 0:
            raise InsufficientPrecision(
                "series stores %d coefficients, fewer than deg p = %d" % (t.precision, deg)
            )
    t.require(precision + deg)
    out = 0
    for r in range(1, precision + 1):
        out |= (((t.coeffs >> (r - 1)) & p.bits).bit_count() & 1) << (r - 1)
    return UnitSeries(out, precision)


def frac_valuation_exceeds(t: UnitSeries, p: Poly2, s: int) -> bool:
    """True iff the fractional part of t*p vanishes through T^-s."""
    if s < 0:
        raise ValueError("valuation threshold must be nonnegative")
    return frac_mul(t, p, s).coeffs == 0


def char_E(u: UnitSeries) -> int:
    """Sign (-1)^(a_1): the additive character of the unit interval."""
    u.require(1)
    return -1 if u.coeffs & 1 else 1


def char_chi(us: Iterable[UnitSeries]) -> int:
    """Product character over a tuple of series."""
    sign = 1
    for u in us:
        sign *= char_E(u)
    return sign


def series_add(u: UnitSeries, v: UnitSeries) -> UnitSeries:
    """Coefficientwise sum, exact through the smaller precision."""
    precision = min(u.precision, v.precision)
    mask = (1 << precision) - 1
    return UnitSeries((u.coeffs ^ v.coeffs) & mask, precision)


# ---------------------------------------------------------------- polynomials


def test_poly_mul_frobenius_square():
    assert poly_mul(P("11"), P("11")).bits == P("101").bits  # (1+T)^2 = 1+T^2


def test_poly_mul_by_zero():
    assert poly_mul(Poly2(0), P("0101")).bits == 0


def test_poly_mul_schoolbook():
    assert poly_mul(P("101"), P("11")).bits == P("1111").bits  # (1+T^2)(1+T) = 1+T+T^2+T^3


@given(st.integers(0, 1023), st.integers(0, 1023))
def test_poly_mul_matches_list_oracle(a, b):
    lhs = poly_mul(Poly2(a), Poly2(b)).bits
    coeffs = oracle_poly_mul(
        tuple((a >> i) & 1 for i in range(a.bit_length())),
        tuple((b >> i) & 1 for i in range(b.bit_length())),
    )
    rhs = sum(c << i for i, c in enumerate(coeffs))
    assert lhs == rhs


@given(st.integers(0, 4095), st.integers(0, 4095))
def test_poly_mul_commutes(a, b):
    assert poly_mul(Poly2(a), Poly2(b)).bits == poly_mul(Poly2(b), Poly2(a)).bits


@given(st.integers(1, 4095), st.integers(1, 4095))
def test_poly_mul_degree_additive(a, b):
    # deg(ab) = deg a + deg b, where the degree is bit_length() - 1
    assert poly_mul(Poly2(a), Poly2(b)).bits.bit_length() == a.bit_length() + b.bit_length() - 1


# --------------------------------------------------------------- fractional


def test_frac_mul_shifts_out_integer_part():
    # T^-1 * T = 1 has no fractional part at all
    assert frac_mul(S("100"), P("01")).coeffs == 0


def test_frac_mul_shift_by_one():
    out = frac_mul(S("010"), P("01"))
    assert out.precision == 2 and out.to_string() == "10"


def test_frac_mul_zero_poly():
    out = frac_mul(S("1101"), Poly2(0))
    assert (out.precision, out.coeffs) == (4, 0)


def test_frac_mul_explicit_precision_checked():
    with pytest.raises(InsufficientPrecision):
        frac_mul(S("10"), P("01"), 2)  # would need a_3


def test_frac_mul_general_window():
    # P = 1 + T: b_r = a_r + a_{r+1}
    t = S("1011")
    out = frac_mul(t, P("11"))
    assert out.precision == 3
    assert [(out.coeffs >> (r - 1)) & 1 for r in (1, 2, 3)] == [1, 1, 0]


def test_frac_valuation_examples():
    assert frac_valuation_exceeds(UnitSeries(0, 5), P("11"), 3) is True
    assert frac_valuation_exceeds(S("10"), P("1"), 1) is False
    # b_r = a_{r+1} here, so b_2 = a_3 = 1 spoils it
    assert frac_valuation_exceeds(S("0010"), P("01"), 2) is False


# --------------------------------------------------------------- characters


def test_char_E_examples():
    assert char_E(UnitSeries(0, 1)) == 1
    assert char_E(S("1")) == -1
    assert char_E(S("01")) == 1


def test_char_E_needs_first_coefficient():
    with pytest.raises(InsufficientPrecision):
        char_E(UnitSeries(0, 0))


def test_char_E_of_product_examples():
    assert char_E_of_product(UnitSeries(0, 0), Poly2(0)) == 1
    assert char_E_of_product(S("10"), P("1")) == -1
    assert char_E_of_product(S("010"), P("01")) == -1


def test_char_E_of_product_precision_guard():
    with pytest.raises(InsufficientPrecision):
        char_E_of_product(S("1"), P("01"))  # needs a_2


def test_char_chi_parity():
    assert char_chi([]) == 1
    assert char_chi([UnitSeries(0, 2), UnitSeries(0, 1)]) == 1
    assert char_chi([S("1"), S("1")]) == 1
    assert char_chi([S("1"), S("1"), S("0")]) == 1
    assert char_chi([S("1"), S("0"), S("0")]) == -1


series_bits = st.integers(0, 255)


@given(series_bits, series_bits)
def test_char_E_is_additive(u_bits, v_bits):
    u, v = UnitSeries(u_bits, 8), UnitSeries(v_bits, 8)
    assert char_E(series_add(u, v)) == char_E(u) * char_E(v)


@given(series_bits, st.integers(0, 15), st.integers(0, 15))
def test_char_of_product_symmetric(t_bits, y, z):
    t = UnitSeries(t_bits, 8)
    assert char_E_of_product(t, poly_mul(Poly2(y), Poly2(z))) == char_E_of_product(
        t, poly_mul(Poly2(z), Poly2(y))
    )


@given(series_bits, st.integers(0, 63))
def test_char_of_product_matches_oracle(t_bits, p_bits):
    t = UnitSeries(t_bits, 8)
    alpha = [(t_bits >> b) & 1 for b in range(8)]
    poly = tuple((p_bits >> i) & 1 for i in range(6))
    assert char_E_of_product(t, Poly2(p_bits)) == char_sign(alpha, poly)


@given(series_bits, st.integers(0, 3))
def test_full_polynomial_sum_collapses_or_vanishes(u_bits, j):
    # summing the character over every polynomial of degree <= j gives
    # 2^(j+1) when all of a_1..a_{j+1} vanish, and 0 otherwise
    u = UnitSeries(u_bits, 8)
    total = sum(char_E_of_product(u, Poly2(b)) for b in range(1 << (j + 1)))
    if frac_valuation_exceeds(u, Poly2(1), j + 1):
        assert total == 1 << (j + 1)
    else:
        assert total == 0


# ------------------------------------------------------------------ parsing


def test_series_literal_round_trip():
    assert S("0110").to_string() == "0110"
    assert S("").precision == 0
    assert S("100").coeffs == 1 and S("001").coeffs == 4


def test_bad_literals_rejected():
    with pytest.raises(ValueError):
        UnitSeries.from_string("10x")
    with pytest.raises(ValueError):
        UnitSeries(0b100, 2)


def test_truncate_never_extends():
    t = S("1011")
    cut = t.truncate(2)
    assert (cut.precision, cut.coeffs) == (2, S("10").coeffs)
    with pytest.raises(InsufficientPrecision):
        t.truncate(5)
