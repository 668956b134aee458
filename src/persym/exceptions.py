"""Exception types shared across the package, the point budget check and the memory ceiling."""

DEFAULT_BUDGET_BITS = 28

# a whole-grid vector holds one int per grid point (`verify thm3.5` keeps
# three, and peaks at about 120 MiB at 2^20 points), and a brute count's
# tally or transform one entry per contribution value; neither may pass
# 2^GRID_MAX_BITS
GRID_MAX_BITS = 20


class PersymError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientPrecision(PersymError):
    """A series operation needed a coefficient beyond the stored precision.

    Raised instead of silently truncating: every series knows exactly how
    many coefficients it carries, and reading past the end is a caller bug.
    """


class BudgetExceeded(PersymError):
    """An enumeration would visit more domain points than the configured budget."""


def check_budget(bits: int, budget_bits: int, what: str) -> None:
    """Raise BudgetExceeded when a 2^bits point domain is over a 2^budget_bits budget."""
    if bits > budget_bits:
        raise BudgetExceeded(
            "%s needs a 2^%d point domain, over the 2^%d budget"
            % (what, bits, budget_bits)
        )


def bigint_bits(values: int, bits: int) -> int:
    """bit_length(values W^2): values ints of W = bits//64 + 1 words, W^2 steps each."""
    return (values * (max(0, bits) // 64 + 1) ** 2).bit_length()


class NonIntegerResult(PersymError):
    """A count formula produced a non-integer, signalling an inconsistent input table."""


class CaseMismatch(PersymError):
    """A printed case table disagreed with the closed table it is checked against."""
