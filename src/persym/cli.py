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
    g_boundary_vectors,
    g_closed,
    g_direct,
    g_vector,
    h_closed,
    h_direct,
)
from .laurent import UnitSeries


def _default_threads() -> int:
    return os.cpu_count() or 1


def _worker_count(text: str) -> int:
    """The --threads value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer of at least 1, got %r" % text)
    return value


def _checkpoint_path(text: str) -> str:
    """The --checkpoint value: a nonempty path (each census adds .<label>)."""
    if not text:
        raise argparse.ArgumentTypeError("must be a nonempty path")
    return text


def _render(value):
    """JSON-friendly form of a count; dyadic fractions become strings."""
    if isinstance(value, DyadicRational):
        if value.is_integer():
            return value.to_int()
        return "%d/2^%d" % (value.mantissa, -value.exponent)
    return value


def _table_text(table) -> Dict[str, int]:
    return {_key_to_text(key): count for key, count in sorted(table.items())}


def _parse_series(literal: str, depth: int) -> UnitSeries:
    return UnitSeries.from_string(literal).truncate(depth)


# census kind: (its enumeration in persym.census, its parameters in call order);
# the enumeration is looked up by name at each call, so a rebinding is seen
_CENSUS_KINDS = {
    "gamma": ("enum_gamma", ("s", "k")),
    "quad": ("enum_quadruple", ("l", "s", "k")),
    "sigma": ("enum_sigma", ("m", "k")),
    "stacked": ("enum_stacked_gamma", ("n", "m", "k")),
}


def _census(kind: str, params, args, label: Optional[str] = None) -> Counter:
    """Census kind at params, checkpointed to --checkpoint plus .label (or .kind)."""
    checkpoint = args.checkpoint
    if checkpoint is not None:
        checkpoint = "%s.%s" % (checkpoint, label or kind)
    return getattr(census, _CENSUS_KINDS[kind][0])(
        *params, threads=args.threads, budget_bits=args.budget_bits, checkpoint=checkpoint)


# ---------------------------------------------------------------------------
# verify


def _verify_window_census(p, args):
    """Window rank census against the closed product form."""
    got = _census("gamma", (p["s"], p["k"]), args)
    want = formulas.gamma_table(p["s"], p["k"])
    return _table_text(got), _table_text(want)


def _verify_profile_census(p, args):
    """Rank profile census of the four nested windows against the closed table."""
    if not 1 <= p["s"] <= p["k"]:
        raise ValueError("requires 1 <= s <= k, got s=%d k=%d" % (p["s"], p["k"]))
    got = _census("quad", (p["l"], p["s"], p["k"]), args)
    want = formulas.quad_table(p["s"], p["k"])
    return _table_text(got), _table_text(want)


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

    Also counts the grid points where g^2 = g1 * g2 (boundary factorisation).
    g, g1 and g2 are the direct sums over the whole grid, so the power sums
    set the exponential sum itself against the census."""
    s, k = p["s"], p["k"]
    if p["q"] < 1:
        raise ValueError("--q must be at least 1, got %d" % p["q"])
    g = g_vector(s, k)
    g1, g2 = g_boundary_vectors(s, k)
    factored = sum(a * a == b * c for a, b, c in zip(g, g1, g2))
    gs = Counter(g)
    quads = _census("quad", (1, s, k), args)
    computed, expected = {"g^2 factors": factored}, {"g^2 factors": 1 << (k + s - 1)}
    for q in range(1, p["q"] + 1):
        computed["q=%d" % q], expected["q=%d" % q] = _even_moment(s, k, gs, quads, q)
    return computed, expected


def _verify_one_extra_row(p, args):
    """Census with one appended row against the printed case tables."""
    got = _census("stacked", (1, p["m"], p["k"]), args)
    want = formulas.stacked1_gamma_table(p["m"], p["k"])
    return _table_text(got), _table_text(want)


def _verify_stacked_census(p, args):
    """Census with n appended rows against the coefficient expansion."""
    got = _census("stacked", (p["n"], p["m"], p["k"]), args)
    want = formulas.stacked_gamma_table(p["n"], p["m"], p["k"])
    return _table_text(got), _table_text(want)


def _verify_coefficient_rows(p, args):
    """Coefficient recurrence against the closed alternating sum and stored rows."""
    if p["n"] < 1:
        raise ValueError("--n must be at least 1, got %d" % p["n"])
    computed, expected = {}, {}
    for n, rec in enumerate(formulas.a_coeff_rows(p["n"])):
        if n == 0:
            continue  # no free row: nothing to compare
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
    if rows < 1:
        raise ValueError("--rows must be at least 1, got %d" % rows)
    got = _census("stacked", (rows - 1, 0, k), args, "landsberg")
    return _table_text(got), _table_text(formulas.landsberg_table(rows, k))


def _verify_partition_suite(p, args):
    """Deletion and parity identities tying the window censuses together."""
    s, k = p["s"], p["k"]
    if not 2 <= s <= k:  # the deletion identities are stated for s <= k
        raise ValueError("the partition suite needs 2 <= s <= k, got s=%d k=%d" % (s, k))
    gs = Counter(g_vector(s, k))
    quads = _census("quad", (1, s, k), args)
    computed, expected = {}, {}
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
    narrow = _census("gamma", (s, k - 1), args, "narrow")
    short = _census("gamma", (s - 1, k), args, "short")
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
    tally = _census("sigma", (m, k), args)
    merged = Counter()
    for (_, i), count in tally.items():
        merged[i] += count
    computed = _table_text(tally)
    computed.update(("sum,%d" % i, count) for i, count in sorted(merged.items()))
    # expected keys come from the formulas alone, so a rank the census lost shows
    ranks = range(min(k, m + 2) + 1)
    expected = {"same,%d" % i: (1 << i) * formulas.gamma_closed(1 + m, k, i)
                for i in ranks}
    expected.update(("up,%d" % i, ((1 << k) - (1 << (i - 1)))
                     * formulas.gamma_closed(1 + m, k, i - 1)) for i in ranks[1:])
    expected.update(("sum,%d" % i, formulas.stacked1_gamma_closed(m, k, i))
                    for i in ranks)
    return computed, {key: count for key, count in expected.items() if count}


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


def _cmd_census(args) -> int:
    params = [getattr(args, flag) for flag in _CENSUS_KINDS[args.kind][1]]
    table = _table_text(_census(args.kind, params, args))
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
        p.add_argument("--threads", type=_worker_count, default=_default_threads(),
                       help="worker processes for enumerations (default: all cores)")
        budget(p)
        p.add_argument("--checkpoint", type=_checkpoint_path, help="append finished "
                       "chunks to this file and resume from it")

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
    for kind, (_, flags) in _CENSUS_KINDS.items():
        leaf = cens.add_parser(kind)
        required(leaf, [flag for flag in flags if flag != "l"])
        if "l" in flags:
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
    rep.add_argument("--threads", type=_worker_count, help="accepted and unused: "
                     "repcount runs in one process")
    rep.add_argument("--checkpoint", type=_checkpoint_path, help="accepted and "
                     "unused: repcount writes no checkpoint")
    rep.set_defaults(run=_cmd_repcount)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (CaseMismatch, NonIntegerResult) as exc:
        print("mismatch: %s" % exc, file=sys.stderr)
        return 1
    except (BudgetExceeded, InsufficientPrecision, IncompleteDomain, ValueError,
            OSError) as exc:  # OSError: a checkpoint path that cannot be opened
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
