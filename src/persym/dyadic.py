"""Exact dyadic rationals m * 2**e, the value of `census.integrate_coset`.

No command reaches this type: every integral a command prints is a plain
int over a power of two. It keeps only what its callers outside the tests
use: the normal-form constructor and + (the benchmark times `+`), == (else
two equal integrals would compare by identity) and repr. Normal form keeps
the mantissa odd (or zero with exponent zero), which makes equality
structural. Both operators take only another DyadicRational.
"""

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

    def __add__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        e = min(self.exponent, other.exponent)
        return DyadicRational(
            (self.mantissa << (self.exponent - e)) + (other.mantissa << (other.exponent - e)),
            e,
        )

    def __eq__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return (self.mantissa, self.exponent) == (other.mantissa, other.exponent)

    def __repr__(self):
        return "DyadicRational(%d, %d)" % (self.mantissa, self.exponent)
