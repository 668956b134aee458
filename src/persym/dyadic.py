"""Exact dyadic rationals m * 2**e for Haar coset sums.

Every integral in this package is a finite sum of integers divided by a
power of two, so this tiny type (plus big-integer mantissas) is the whole
numeric tower. Normal form keeps the mantissa odd (or zero with exponent
zero), which makes equality structural. The type has only what the
sums need: +, * and == (an int operand goes on the right) and an exact
to_int; it is unordered and unhashable.
"""

from __future__ import annotations

from .exceptions import NonIntegerResult

__all__ = ["DyadicRational"]


class DyadicRational:
    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0):
        if mantissa == 0:
            exponent = 0
        else:
            shift = (mantissa & -mantissa).bit_length() - 1
            mantissa >>= shift
            exponent += shift
        self.mantissa = mantissa
        self.exponent = exponent

    def is_integer(self) -> bool:
        return self.exponent >= 0 or self.mantissa == 0

    def to_int(self) -> int:
        """The exact integer value; error if there is a fractional part."""
        if not self.is_integer():
            raise NonIntegerResult(
                "value %d * 2**%d is not an integer" % (self.mantissa, self.exponent)
            )
        return self.mantissa << self.exponent if self.mantissa else 0

    def _coerce(self, other) -> "DyadicRational":
        if isinstance(other, DyadicRational):
            return other
        if isinstance(other, int):
            return DyadicRational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = min(self.exponent, other.exponent)
        return DyadicRational(
            (self.mantissa << (self.exponent - e)) + (other.mantissa << (other.exponent - e)),
            e,
        )

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return DyadicRational(self.mantissa * other.mantissa, self.exponent + other.exponent)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.mantissa, self.exponent) == (other.mantissa, other.exponent)

    def __bool__(self):
        return self.mantissa != 0

    def __repr__(self):
        return "DyadicRational(%d, %d)" % (self.mantissa, self.exponent)
