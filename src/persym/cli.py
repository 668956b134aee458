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
coefficient of T^-1, so `--t 100` means t = T^-1 exactly. A sum reads only
the coefficients its matrix holds, refusing fewer after its shape and budget.

A run loads only what its command uses: the verify suites live in
`persym.suites`, each function imports the persym modules it calls in its
own body (and reads their names off the module at each call), and the
parser builds only the command kind that argv names.
"""

import argparse
import gc
import os
import sys
from collections import Counter
from functools import partial
from typing import Optional

from .exceptions import (
    DEFAULT_BUDGET_BITS,
    GRID_MAX_BITS,
    BudgetExceeded,
    CaseMismatch,
    InsufficientPrecision,
    NonIntegerResult,
    bigint_bits,
    check_budget,
)


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


# census kind: (its enumeration in persym.census, its parameters in call order);
# the enumeration is looked up by name at each call, so a rebinding is seen
_CENSUS_KINDS = {
    "gamma": ("enum_gamma", ("s", "k")),
    "quad": ("enum_quadruple", ("l", "s", "k")),
    "sigma": ("enum_sigma", ("m", "k")),
    "stacked": ("enum_stacked_gamma", ("n", "m", "k")),
}


def _census(args, kind: str, params, label: Optional[str] = None) -> Counter:
    """Census kind at params, checkpointed to --checkpoint plus .label (or .kind)."""
    from . import census

    checkpoint = args.checkpoint
    if checkpoint is not None:
        checkpoint = "%s.%s" % (checkpoint, label or kind)
    return getattr(census, _CENSUS_KINDS[kind][0])(
        *params, threads=args.threads, budget_bits=args.budget_bits, checkpoint=checkpoint)


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    """Run the suite as persym.suites.SUITES declares it and print its report."""
    import json

    from . import suites

    runner, defaults, _ = suites.SUITES[args.theorem]
    flags = {name: getattr(args, name) for name in defaults}
    computed, expected = runner(partial(_census, args), args.budget_bits, **flags)
    report = {
        "params": {"theorem": args.theorem, **flags},
        "computed": computed,
        "expected": expected,
        "match": computed == expected,
    }
    print(json.dumps(report, separators=(",", ":")))
    return 0 if report["match"] else 1


# ---------------------------------------------------------------------------
# census


def _cmd_census(args) -> int:
    from .census import _table_text

    params = [getattr(args, flag) for flag in _CENSUS_KINDS[args.kind][1]]
    table = _table_text(_census(args, args.kind, params))
    if args.format == "json":
        import json

        print(json.dumps(table, separators=(",", ":")))
    else:
        import csv

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
    from . import expsum
    from .laurent import UnitSeries

    kind, t = args.kind, UnitSeries.from_string(args.t)
    if kind in ("h", "g"):
        if kind == "h":
            direct = expsum.h_direct(args.s, args.k, t, budget_bits=args.budget_bits)
            closed = expsum.h_closed(args.s, args.k, t)
        else:
            direct = expsum.g_direct(args.s, args.k, t, budget_bits=args.budget_bits)
            closed = expsum.g_closed(args.s, args.k, t)
    elif kind == "g2":
        eta = UnitSeries.from_string(args.eta)
        direct = expsum.g2var_direct(args.m, args.k, t, eta, budget_bits=args.budget_bits)
        closed = expsum.g2var_closed(args.m, args.k, t, eta)
    else:  # f2 is fmulti with one eta
        literals = [args.eta] if kind == "f2" else args.etas.split(",")
        etas = [UnitSeries.from_string(part) for part in literals]
        direct = expsum.fmulti_direct(args.m, args.k, t, etas, budget_bits=args.budget_bits)
        closed = expsum.fmulti_closed(args.m, args.k, t, etas)
    agree = direct == closed
    print("direct=%d closed=%d agree=%s" % (direct, closed, "true" if agree else "false"))
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# repcount

# mode: its count in persym.census, in the order --check reports them; the
# count is looked up by name at each call, so a rebinding is seen
_REPCOUNT_MODES = {
    "formula": "repcount_multi_formula",
    "brute": "repcount_bruteforce",
    "integral": "repcount_integral",
}


def _cmd_repcount(args) -> int:
    from . import census

    check_budget(bigint_bits(1, args.q * (args.k + args.m + args.n + 1)), args.budget_bits,
                 "repcount q=%d" % args.q)

    def count(mode: str) -> int:
        return getattr(census, _REPCOUNT_MODES[mode])(
            args.q, args.n, args.k, args.m, budget_bits=args.budget_bits)

    if not args.check:
        print(count(args.mode))
        return 0
    results, skipped = [], []
    for name in _REPCOUNT_MODES:
        try:
            results.append((name, count(name)))
        except BudgetExceeded:
            if name == "formula":  # the count the others are checked against
                raise
            skipped.append(name)
    if len(results) < 2:  # agree=true over one count would look checked
        raise BudgetExceeded("repcount --check compared nothing: %s are over budget"
                             % " and ".join(skipped))
    agree = len({value for _, value in results}) == 1
    fields = ["%s=%d" % pair for pair in results]
    fields.append("agree=%s" % ("true" if agree else "false"))
    print(" ".join(fields))
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# wiring


def _named_kind(argv):
    """The (command, kind) that argv names, ("repcount",) for repcount, or
    None when argv names none or asks for help (-h, or --help abbreviated)."""
    if not argv or any(arg == "-h" or arg.startswith("--h") for arg in argv):
        return None
    if argv[0] == "repcount":
        return ("repcount",)
    if argv[0] == "verify":
        from .suites import SUITES as kinds
    else:
        kinds = {"census": _CENSUS_KINDS, "expsum": _EXPSUM_REQUIRED}.get(argv[0], ())
    return tuple(argv[:2]) if len(argv) > 1 and argv[1] in kinds else None


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI grammar: each command kind declares only the flags it reads.

    Given the argv it is to parse, it builds all four commands but only the
    kind that argv names, since no other kind's parser can speak for that
    argv; without argv, or when argv names no kind or asks for help, it
    builds every kind.
    """
    only = _named_kind(argv)

    def wanted(*path) -> bool:
        return only is None or only == path

    parser = argparse.ArgumentParser(
        prog="persym",
        description="Rank censuses, exponential sums, and representation counts "
        "for sliding-window matrices over GF(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def budget(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget-bits", type=int, default=DEFAULT_BUDGET_BITS,
                       dest="budget_bits",
                       help="refuse enumerations over 2^BITS points (default: %d)"
                       % DEFAULT_BUDGET_BITS)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--threads", type=_worker_count, default=os.cpu_count() or 1,
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
    if only is None or only[0] == "verify":
        from .suites import SUITES

        for theorem, (runner, defaults, flag_help) in SUITES.items():
            if not wanted("verify", theorem):
                continue
            suite = verify.add_parser(theorem, help=runner.__doc__.splitlines()[0])
            for flag, default in defaults.items():
                suite.add_argument("--" + flag, type=int, default=default,
                                   help=flag_help.get(flag, "default: %(default)s"))
            common(suite)
            suite.set_defaults(run=_cmd_verify)

    cens = sub.add_parser(
        "census", help="print a rank census table"
    ).add_subparsers(dest="kind", required=True)
    for kind, (_, flags) in _CENSUS_KINDS.items():
        if not wanted("census", kind):
            continue
        leaf = cens.add_parser(kind)
        required(leaf, [flag for flag in flags if flag != "l"])
        leaf.add_argument("--format", choices=("json", "csv"), default="json")
        common(leaf)
        leaf.set_defaults(run=_cmd_census, l=1)  # the quad window starts at alpha_1

    exps = sub.add_parser(
        "expsum", help="evaluate an exponential sum directly and in closed form"
    ).add_subparsers(dest="kind", required=True)
    for kind, flags in _EXPSUM_REQUIRED.items():
        if not wanted("expsum", kind):
            continue
        leaf = exps.add_parser(kind)
        required(leaf, flags)
        budget(leaf)
        leaf.set_defaults(run=_cmd_expsum)

    rep = sub.add_parser(
        "repcount", help="count representations t = sum of products y*z")
    if not wanted("repcount"):
        return parser
    how = rep.add_mutually_exclusive_group(required=True)
    how.add_argument("--mode", choices=tuple(_REPCOUNT_MODES), help="formula is charged P = n^2 + "
                     "(k+1)(min(n, k, m+1)+1)(min(n, k)+2) big-int steps on W = max(n^2/4, "
                     "k+m+nk)//64 + 1 by V = k//64 + 1 words: charged bit_length(P W V) "
                     "bits. brute lists 2^f factor "
                     "contributions of K = k+m+nk bits, f = k+m+1+n. q = 1 counts the zeros of "
                     "each Y's 2^(m+1+n) span, q = 2 reads R off their tally of up to 2^min(K, f) "
                     "keys: charged f bits, refused over 2^%d entries. q >= 3 sums the q-th "
                     "powers of the tally's 2^K-point transform: refused when K > %d, charged K + "
                     "bit_length(K W^2) bits, W = qf//64 + 1" % (GRID_MAX_BITS, GRID_MAX_BITS))
    how.add_argument("--check", action="store_true",
                     help="run every mode within budget and compare; refused when the "
                     "formula is, or when both other modes are")
    rep.add_argument("--q", required=True, type=int, help="tuple length; the count "
                     "has up to q(k+m+n+1) bits, and printing W 64-bit words takes "
                     "about W^2 steps, so q is refused when the bit length of W^2, "
                     "W = q(k+m+n+1)//64 + 1, is over --budget-bits")
    required(rep, ("n", "k", "m"))
    budget(rep)
    # accepted so that every census-running command takes the same flags
    rep.add_argument("--threads", type=_worker_count, help="accepted and unused: "
                     "repcount runs in one process")
    rep.add_argument("--checkpoint", type=_checkpoint_path, help="accepted and "
                     "unused: repcount writes no checkpoint")
    rep.set_defaults(run=_cmd_repcount)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):  # exact counts print at any length
        sys.set_int_max_str_digits(0)
    try:
        return args.run(args)
    except (CaseMismatch, NonIntegerResult) as exc:
        print("mismatch: %s" % exc, file=sys.stderr)
        return 1
    except (BudgetExceeded, InsufficientPrecision, ValueError,
            OSError) as exc:  # OSError: a checkpoint path that cannot be opened
        print("error: %s" % exc, file=sys.stderr)
        return 2


def script() -> int:
    """main() as the `persym` console script and `python -m persym.cli` run it."""
    code = main()
    gc.freeze()  # exit then skips collecting what is left; stdout is flushed before
    return code


if __name__ == "__main__":
    sys.exit(script())
