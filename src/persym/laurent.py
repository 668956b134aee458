"""Truncated arithmetic in F2((1/T)) and its additive character.

Two value types live here. `Poly2` is a polynomial over GF(2), bit i of
its backing integer being the coefficient of T^i. `UnitSeries` is an
element of the unit interval (series in negative powers of T only),
stored as the coefficient vector a_1..a_N of T^-1..T^-N together with the
precision N. A series never pretends to know coefficients past its
precision: any operation that would need one raises InsufficientPrecision.

The additive character E sends a series to (-1) raised to its T^-1
coefficient; every exponential sum in this package is built from its
value on the fractional part of t*p (`char_E_of_product`). The direct sums
in `expsum` and the brute count in `census` take that parity as the XOR of
the monomials of the product, on plain ints. So `Poly2`, `poly_mul` and
`char_E_of_product` have no caller in the package; they stay because
`perfbench/layers.py` times them.
"""

from __future__ import annotations

from .exceptions import InsufficientPrecision

__all__ = [
    "Poly2",
    "UnitSeries",
    "poly_mul",
    "char_E_of_product",
]


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


class Poly2:
    """Polynomial over GF(2) packed into an int (bit i = coefficient of T^i)."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits < 0:
            raise ValueError("coefficient bits must be nonnegative")
        self.bits = bits

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return "Poly2(0b%s)" % format(self.bits, "b")


class UnitSeries:
    """Element of the unit interval known exactly through T^-precision."""

    __slots__ = ("precision", "coeffs")

    def __init__(self, coeffs: int, precision: int):
        if precision < 0:
            raise ValueError("precision must be nonnegative")
        if coeffs < 0 or coeffs >> precision:
            raise ValueError("coefficient bits exceed the stated precision")
        self.precision = precision
        self.coeffs = coeffs

    @classmethod
    def from_string(cls, literal: str) -> "UnitSeries":
        """Parse a bit-string literal; the leftmost character is a_1."""
        if literal.strip("01"):
            raise ValueError("series literal must be a string of 0/1")
        bits = int(literal[::-1], 2) if literal else 0
        return cls(bits, len(literal))

    def to_string(self) -> str:
        return format(self.coeffs, "b").zfill(self.precision)[::-1] if self.precision else ""

    def require(self, precision: int) -> None:
        """Fail unless at least this many coefficients are stored."""
        if precision > self.precision:
            raise InsufficientPrecision(
                "operation needs precision %d, series has %d" % (precision, self.precision)
            )

    def truncate(self, precision: int) -> "UnitSeries":
        """Drop coefficients past the requested precision (never invents them)."""
        self.require(precision)
        return UnitSeries(self.coeffs & ((1 << precision) - 1), precision)

    def __repr__(self) -> str:
        return "UnitSeries(%r)" % self.to_string()


def poly_mul(a: Poly2, b: Poly2) -> Poly2:
    """Carry-less product over GF(2)."""
    x, out = a.bits, 0
    y = b.bits
    while y:
        if y & 1:
            out ^= x
        x <<= 1
        y >>= 1
    return Poly2(out)


def char_E_of_product(t: UnitSeries, p: Poly2) -> int:
    """E of the fractional part of t*p, i.e. (-1)^(sum_j p_j a_{1+j})."""
    if not p:
        return 1
    t.require(1 + (p.bits.bit_length() - 1))
    return -1 if _parity(t.coeffs & p.bits) else 1
