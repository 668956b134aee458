from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persym.dyadic import DyadicRational


def to_fraction(d):
    return Fraction(d.mantissa) * Fraction(2) ** d.exponent


def test_normal_form():
    assert DyadicRational(12, 0) == DyadicRational(3, 2)
    d = DyadicRational(12, -5)
    assert (d.mantissa, d.exponent) == (3, -3)
    z = DyadicRational(0, -7)
    assert (z.mantissa, z.exponent) == (0, 0)
    assert DyadicRational(-8, -3) == DyadicRational(-1, 0)
    with pytest.raises(TypeError):
        DyadicRational(1, -1) + 1


dyadics = st.builds(
    DyadicRational,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-40, max_value=40),
)


@given(dyadics, dyadics)
def test_add_matches_fraction(a, b):
    assert to_fraction(a + b) == to_fraction(a) + to_fraction(b)


@given(dyadics, dyadics)
def test_equality_matches_fraction(a, b):
    assert (a == b) == (to_fraction(a) == to_fraction(b))
