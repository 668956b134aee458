"""Exact rank censuses of persymmetric matrices over GF(2) and the
character sums over F2((1/T)) that those ranks control.

The package has three layers:

* carriers: bit-packed GF(2) matrices (`gf2`), truncated Laurent-series
  arithmetic and additive characters (`laurent`), structured-matrix builders
  (`builders`), lane words (`lanes`), and exact dyadic rationals (`dyadic`),
  which, like `laurent.Poly2`, stay only for the benchmark's `perfbench/layers.py`;
* two independent routes to every quantity: literal character sums and
  exhaustive enumeration (`expsum`, `census`) versus closed-form count
  calculators (`formulas`);
* a CLI (`cli`, with its verify suites in `suites`) that cross-checks the
  two routes and emits machine-readable reports.
"""

from .exceptions import (
    BudgetExceeded,
    CaseMismatch,
    InsufficientPrecision,
    NonIntegerResult,
    PersymError,
)

__all__ = [
    "PersymError",
    "InsufficientPrecision",
    "BudgetExceeded",
    "NonIntegerResult",
    "CaseMismatch",
]

__version__ = "0.1.0"
