"""Command line front end.

Four subcommands:

  verify    run an empirical census against its closed form, emit a JSON report
  census    print a rank census as JSON or CSV
  expsum    evaluate an exponential sum directly and in closed form
  repcount  count polynomial representations by formula, brute force, or integral

Each command kind declares only the flags it reads, so argparse refuses
any other (`persym <command> <kind> -h` lists them). Exit status is 0
when every comparison matches, 1 on a mathematical mismatch, 2 on usage
errors or when an enumeration would exceed the point budget.  Output for
a given input is byte-identical across runs and across worker counts.

Series arguments are bit strings whose leftmost character is the
coefficient of T^-1, so `--t 100` means t = T^-1 exactly.
"""

import argparse
import csv
import json
import os
import sys
from collections import Counter
from typing import Dict, Optional

from . import census, formulas
from .census import _key_to_text
from .dyadic import DyadicRational
from .exceptions import (
    BudgetExceeded,
    CaseMismatch,
    IncompleteDomain,
    InsufficientPrecision,
    NonIntegerResult,
)
from .expsum import (
    fmulti_closed,
    fmulti_direct,
    g2var_closed,
    g2var_direct,
    g_boundary_factors,
    g_closed,
    g_direct,
    h_closed,
    h_direct,
)
from .laurent import UnitSeries


def _default_threads() -> int:
    return os.cpu_count() or 1


def _render(value):
    """JSON-friendly form of a count; dyadic fractions become strings."""
    if isinstance(value, DyadicRational):
        if value.is_integer():
            return value.to_int()
        return "%d/2^%d" % (value.mantissa, -value.exponent)
    return value


def _table_text(table) -> Dict[str, int]:
    return {_key_to_text(key): count for key, count in sorted(table.items())}


def _sigma_text(same, up) -> Dict[str, int]:
    out = {}
    for i, count in sorted(same.items()):
        out["same,%d" % i] = count
    for i, count in sorted(up.items()):
        out["up,%d" % i] = count
    return out


def _parse_series(literal: str, depth: int) -> UnitSeries:
    series = UnitSeries.from_string(literal)
    series.require(depth)
    return series.truncate(depth)


# ---------------------------------------------------------------------------
# verify


def _ck(args, label: str) -> Optional[str]:
    if args.checkpoint is None:
        return None
    return "%s.%s" % (args.checkpoint, label)


def _opts(args, label: str) -> dict:
    return {
        "threads": args.threads,
        "budget_bits": args.budget_bits,
        "checkpoint": _ck(args, label),
    }


def _verify_window_census(p, args):
    """Window rank census against the closed product form."""
    got = census.enum_gamma(p["s"], p["k"], **_opts(args, "gamma"))
    want = formulas.gamma_table(p["s"], p["k"])
    return _table_text(got), _table_text(want)


def _verify_profile_census(p, args):
    """Rank profile census of the four nested windows against the closed table."""
    got = census.enum_quadruple(p["l"], p["s"], p["k"], **_opts(args, "quad"))
    want = formulas.quad_table(p["s"], p["k"])
    return _table_text(got), _table_text(want)


def _g_tally(s, k):
    """Tally of the closed g over the whole window grid."""
    depth = k + s - 1
    return Counter(g_closed(s, k, UnitSeries(v, depth)) for v in range(1 << depth))


def _even_moment(s, k, g_tally, quads, q):
    """Integral of g^{2q} over the window grid, and the weighted (j,j,j,j) sum."""
    lhs = census.integrate_tally(g_tally, k + s - 1, 2 * q)
    rhs = DyadicRational(0)
    for j in range(s):
        rhs += DyadicRational(quads[(j, j, j, j)], -2 * q * j)
    rhs *= DyadicRational(1, (s + k - 2) * (2 * q - 1))
    return _render(lhs), _render(rhs)


def _verify_even_moments(p, args):
    """Even power sums of g against the weighted diagonal profile counts.

    Also counts the grid points where g^2 = g1 * g2 (boundary factorisation)."""
    s, k = p["s"], p["k"]
    quads = census.enum_quadruple(1, s, k, **_opts(args, "quad"))
    depth = k + s - 1
    gs, factored = Counter(), 0
    for t in (UnitSeries(v, depth) for v in range(1 << depth)):
        g, (g1, g2) = g_closed(s, k, t), g_boundary_factors(s, k, t)
        gs[g] += 1
        factored += g * g == g1 * g2
    computed, expected = {"g^2 factors": factored}, {"g^2 factors": 1 << depth}
    for q in range(1, p["q"] + 1):
        computed["q=%d" % q], expected["q=%d" % q] = _even_moment(s, k, gs, quads, q)
    return computed, expected


def _verify_one_extra_row(p, args):
    """Census with one appended row against the printed case tables."""
    got = census.enum_stacked_gamma(1, p["m"], p["k"], **_opts(args, "stacked"))
    want = formulas.stacked1_gamma_table(p["m"], p["k"])
    return _table_text(got), _table_text(want)


def _verify_stacked_census(p, args):
    """Census with n appended rows against the coefficient expansion."""
    got = census.enum_stacked_gamma(p["n"], p["m"], p["k"], **_opts(args, "stacked"))
    want = formulas.stacked_gamma_table(p["n"], p["m"], p["k"])
    return _table_text(got), _table_text(want)


def _verify_coefficient_rows(p, args):
    """Coefficient recurrence against the closed alternating sum and stored rows."""
    computed, expected = {}, {}
    for n in range(1, p["n"] + 1):
        rec = [formulas.a_coeff_recurrence(n, j) for j in range(n + 1)]
        computed["closed n=%d" % n] = [
            formulas.a_coeff_closed(n, j) for j in range(n + 1)
        ]
        expected["closed n=%d" % n] = rec
        if n <= 5:
            computed["table n=%d" % n] = list(formulas.a_coeff_table(n))
            expected["table n=%d" % n] = rec
    return computed, expected


def _verify_multi_count(p, args):
    """Brute-force representation count against the stacked-census formula.

    With n = 0 and m <= k - 1 the paper's piecewise form is checked too.
    """
    q, n, k, m = p["q"], p["n"], p["k"], p["m"]
    computed = {"R": census.repcount_bruteforce(q, n, k, m, budget_bits=args.budget_bits)}
    expected = {"R": census.repcount_multi_formula(q, n, k, m)}
    if n == 0 and m <= k - 1:
        computed["R piecewise"] = formulas.repcount_piecewise(q, k, m)
        expected["R piecewise"] = expected["R"]
    return computed, expected


def _verify_unstructured(p, args):
    """Rank census over all matrices of a shape against the classical product.

    A rows x k matrix is one k-bit row with rows - 1 free rows below it.
    """
    rows, k = p["rows"], p["k"]
    want = formulas.landsberg_table(rows, k)
    got = census.enum_stacked_gamma(rows - 1, 0, k, **_opts(args, "landsberg"))
    return _table_text(got), _table_text(want)


def _verify_partition_suite(p, args):
    """Deletion and parity identities tying the window censuses together."""
    s, k = p["s"], p["k"]
    if s < 2 or k < 2:
        raise ValueError("the partition suite needs s, k >= 2")
    quads = census.enum_quadruple(1, s, k, **_opts(args, "quad"))
    computed, expected = {}, {}
    gs = _g_tally(s, k)
    for q in (0, 1, 2):
        power = 2 * q + 1
        total = sum(count * value**power for value, count in gs.items())
        computed["odd power %d" % power] = total
        expected["odd power %d" % power] = 0
    for j in range(s):
        computed["pair j=%d" % j] = quads[(j, j, j, j)]
        expected["pair j=%d" % j] = quads[(j, j, j, j + 1)]
    for j in range(s - 1):
        computed["skew j=%d" % j] = (
            quads[(j, j + 1, j + 1, j + 1)]
            + quads[(j, j + 1, j, j + 1)]
            + quads[(j, j, j + 1, j + 1)]
        )
        expected["skew j=%d" % j] = 0
    narrow = census.enum_gamma(s, k - 1, **_opts(args, "narrow"))
    short = census.enum_gamma(s - 1, k, **_opts(args, "short"))
    for i in range(s - 1):
        computed["shrink i=%d" % i] = narrow[i]
        expected["shrink i=%d" % i] = short[i]
        computed["delete i=%d" % i] = 2 * narrow[i]
        expected["delete i=%d" % i] = (
            2 * quads[(i, i, i, i)] + quads[(i - 1, i, i, i + 1)]
        )
    for q in (1, 2):
        key = "even power q=%d" % q
        computed[key], expected[key] = _even_moment(s, k, gs, quads, q)
    return computed, expected


def _verify_row_split(p, args):
    """Split of the one-extra-row census by whether the row stays in span."""
    m, k = p["m"], p["k"]
    same, up = census.enum_sigma(m, k, **_opts(args, "sigma"))
    computed, expected = {}, {}
    for i, count in sorted(same.items()):
        computed["same,%d" % i] = count
        expected["same,%d" % i] = (1 << i) * formulas.gamma_closed(1 + m, k, i)
    for i, count in sorted(up.items()):
        computed["up,%d" % i] = count
        expected["up,%d" % i] = ((1 << k) - (1 << (i - 1))) * formulas.gamma_closed(
            1 + m, k, i - 1
        )
    merged = same + up
    for i, count in sorted(merged.items()):
        computed["sum,%d" % i] = count
        expected["sum,%d" % i] = formulas.stacked1_gamma_closed(m, k, i)
    return computed, expected


_VERIFIERS = {
    "thm3.1": (_verify_window_census, {"s": 3, "k": 4}),
    "thm3.3": (_verify_profile_census, {"l": 1, "s": 2, "k": 3}),
    "thm3.5": (_verify_even_moments, {"s": 2, "k": 2, "q": 2}),
    "thm3.8": (_verify_one_extra_row, {"m": 1, "k": 3}),
    "thm3.9": (_verify_stacked_census, {"n": 1, "m": 2, "k": 3}),
    "cor3.10": (_verify_coefficient_rows, {"n": 5}),
    "thm3.11": (_verify_multi_count, {"q": 1, "n": 1, "k": 3, "m": 2}),
    "landsberg": (_verify_unstructured, {"rows": 2, "k": 2}),
    "lemmas5.x": (_verify_partition_suite, {"s": 2, "k": 3}),
    "sigma6.x": (_verify_row_split, {"m": 1, "k": 2}),
}


def _cmd_verify(args) -> int:
    runner, defaults = _VERIFIERS[args.theorem]
    params = {"theorem": args.theorem}
    params.update((name, getattr(args, name)) for name in defaults)
    computed, expected = runner(params, args)
    report = {
        "params": params,
        "computed": computed,
        "expected": expected,
        "match": computed == expected,
    }
    print(json.dumps(report, separators=(",", ":")))
    return 0 if report["match"] else 1


# ---------------------------------------------------------------------------
# census

# the flags each kind requires; quad also reads an optional --l
_CENSUS_REQUIRED = {
    "gamma": ("s", "k"),
    "quad": ("s", "k"),
    "sigma": ("m", "k"),
    "stacked": ("n", "m", "k"),
}


def _cmd_census(args) -> int:
    if args.kind == "gamma":
        table = _table_text(census.enum_gamma(args.s, args.k, **_opts(args, "gamma")))
    elif args.kind == "quad":
        table = _table_text(
            census.enum_quadruple(args.l, args.s, args.k, **_opts(args, "quad"))
        )
    elif args.kind == "sigma":
        same, up = census.enum_sigma(args.m, args.k, **_opts(args, "sigma"))
        table = _sigma_text(same, up)
    else:
        table = _table_text(
            census.enum_stacked_gamma(args.n, args.m, args.k, **_opts(args, "stacked"))
        )
    if args.format == "json":
        print(json.dumps(table, separators=(",", ":")))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["key", "count"])
        for key, count in table.items():
            writer.writerow([key, count])
    return 0


# ---------------------------------------------------------------------------
# expsum

_EXPSUM_REQUIRED = {
    "h": ("s", "k", "t"),
    "g": ("s", "k", "t"),
    "g2": ("m", "k", "t", "eta"),
    "f2": ("m", "k", "t", "eta"),
    "fmulti": ("m", "k", "t", "etas"),
}
# the series flags; the others are integers
_SERIES_HELP = {
    "t": "series argument, leftmost bit is the T^-1 coefficient",
    "eta": "row series (f2 is fmulti with this one row)",
    "etas": "comma-separated row series",
}


def _cmd_expsum(args) -> int:
    kind = args.kind
    if kind in ("h", "g"):
        t = _parse_series(args.t, args.k + args.s - 1)
        if kind == "h":
            direct = h_direct(args.s, args.k, t, budget_bits=args.budget_bits)
            closed = h_closed(args.s, args.k, t)
        else:
            direct = g_direct(args.s, args.k, t, budget_bits=args.budget_bits)
            closed = g_closed(args.s, args.k, t)
    elif kind == "g2":
        t = _parse_series(args.t, args.k + args.m)
        eta = _parse_series(args.eta, args.k)
        direct = g2var_direct(args.m, args.k, t, eta, budget_bits=args.budget_bits)
        closed = g2var_closed(args.m, args.k, t, eta)
    else:  # f2 is fmulti with one eta
        t = _parse_series(args.t, args.k + args.m)
        literals = [args.eta] if kind == "f2" else args.etas.split(",")
        etas = [_parse_series(part, args.k) for part in literals]
        direct = fmulti_direct(args.m, args.k, t, etas, budget_bits=args.budget_bits)
        closed = fmulti_closed(args.m, args.k, t, etas)
    agree = direct == closed
    print("direct=%d closed=%d agree=%s" % (direct, closed, "true" if agree else "false"))
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# repcount

# every mode, in the order --check reports them
_REPCOUNT_MODES = {
    "formula": lambda q, n, k, m, bits: census.repcount_multi_formula(q, n, k, m),
    "brute": lambda q, n, k, m, bits: census.repcount_bruteforce(
        q, n, k, m, budget_bits=bits),
    "integral": lambda q, n, k, m, bits: census.repcount_integral(
        q, n, k, m, budget_bits=bits),
}


def _cmd_repcount(args) -> int:
    params = (args.q, args.n, args.k, args.m, args.budget_bits)
    if not args.check:
        print(_REPCOUNT_MODES[args.mode](*params))
        return 0
    results = []
    for name, count in _REPCOUNT_MODES.items():
        try:
            results.append((name, count(*params)))
        except BudgetExceeded:
            pass
    agree = len({value for _, value in results}) == 1
    fields = ["%s=%d" % pair for pair in results]
    fields.append("agree=%s" % ("true" if agree else "false"))
    print(" ".join(fields))
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar: each command kind declares only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="persym",
        description="Rank censuses, exponential sums, and representation counts "
        "for sliding-window matrices over GF(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def budget(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget-bits", type=int, default=census.DEFAULT_BUDGET_BITS,
                       dest="budget_bits",
                       help="refuse enumerations over 2^BITS points (default: %d)"
                       % census.DEFAULT_BUDGET_BITS)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--threads", type=int, default=_default_threads(),
                       help="worker processes for enumerations (default: all cores)")
        budget(p)
        p.add_argument("--checkpoint", help="append finished chunks to this file "
                       "and resume from it")

    def required(p: argparse.ArgumentParser, flags) -> None:
        for flag in flags:
            series = flag in _SERIES_HELP
            p.add_argument("--" + flag, required=True, type=str if series else int,
                           help=_SERIES_HELP.get(flag))

    verify = sub.add_parser(
        "verify", help="run an empirical census against its closed form"
    ).add_subparsers(dest="theorem", required=True, metavar="suite")
    for theorem, (runner, defaults) in _VERIFIERS.items():
        suite = verify.add_parser(theorem, help=runner.__doc__.splitlines()[0])
        for flag, default in defaults.items():
            suite.add_argument("--" + flag, type=int, default=default,
                               help="default: %(default)s")
        common(suite)
        suite.set_defaults(run=_cmd_verify)

    cens = sub.add_parser(
        "census", help="print a rank census table"
    ).add_subparsers(dest="kind", required=True)
    for kind, flags in _CENSUS_REQUIRED.items():
        leaf = cens.add_parser(kind)
        required(leaf, flags)
        if kind == "quad":
            leaf.add_argument("--l", type=int, default=1,
                              help="first window coefficient (default: 1)")
        leaf.add_argument("--format", choices=("json", "csv"), default="json")
        common(leaf)
        leaf.set_defaults(run=_cmd_census)

    exps = sub.add_parser(
        "expsum", help="evaluate an exponential sum directly and in closed form"
    ).add_subparsers(dest="kind", required=True)
    for kind, flags in _EXPSUM_REQUIRED.items():
        leaf = exps.add_parser(kind)
        required(leaf, flags)
        budget(leaf)
        leaf.set_defaults(run=_cmd_expsum)

    rep = sub.add_parser(
        "repcount", help="count representations t = sum of products y*z")
    how = rep.add_mutually_exclusive_group(required=True)
    how.add_argument("--mode", choices=tuple(_REPCOUNT_MODES))
    how.add_argument("--check", action="store_true",
                     help="run every mode within budget and compare")
    required(rep, ("q", "n", "k", "m"))
    budget(rep)
    # accepted so that every census-running command takes the same flags
    rep.add_argument("--threads", type=int, help="accepted and unused: "
                     "repcount runs in one process")
    rep.add_argument("--checkpoint", help="accepted and unused: repcount "
                     "writes no checkpoint")
    rep.set_defaults(run=_cmd_repcount)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (CaseMismatch, NonIntegerResult) as exc:
        print("mismatch: %s" % exc, file=sys.stderr)
        return 1
    except (BudgetExceeded, InsufficientPrecision, IncompleteDomain, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
