"""Output checks and domain-point counts for the persym CLI commands.

A census table is held entry by entry to the closed forms in
`persym.formulas` (imported from the checkout's `src/`), never to a stored
copy. Verify, repcount and expsum outputs must report agreement of their
two routes, and a repcount value must equal the stacked-census formula.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from typing import Dict, List

from persym import census, formulas

# The one field of a verify report that differs between identical runs.
_RUNTIME_MS = re.compile(rb',"runtime_ms":-?\d+')


def flags(argv: List[str]) -> Dict[str, str]:
    """The --name value pairs of a command (flags without a value map to '')."""
    out = {}
    i = 0
    while i < len(argv):
        if argv[i].startswith("--"):
            name = argv[i][2:]
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                out[name] = argv[i + 1]
                i += 2
                continue
            out[name] = ""
        i += 1
    return out


def _params(argv: List[str]) -> Dict[str, int]:
    """The integer flags of a command; a flag not given reads as 0."""
    out: Dict[str, int] = defaultdict(int)
    for name, value in flags(argv).items():
        if value.lstrip("-").isdigit():
            out[name] = int(value)
    return out


# The verify suites, each reported as cli.suite.<id>.self_s.
SUITES = ("thm3.1", "thm3.3", "thm3.5", "thm3.8", "thm3.9", "cor3.10", "thm3.11",
          "landsberg", "lemmas5.x", "sigma6.x")


def points(argv: List[str]) -> int:
    """Domain points a command visits, from its parameters alone (every
    parameter a command uses must be given; suite defaults are not known here).

    Enumerations count their domain (windows, tuples or pairs); grid sums
    count one point per evaluated series; cor3.10 counts its closed-form
    coefficients. Closed-form table lookups count nothing.
    """
    command, kind = argv[0], argv[1] if len(argv) > 1 else ""
    p = _params(argv)
    if command == "census" or kind in ("thm3.1", "thm3.3", "thm3.8", "thm3.9", "sigma6.x"):
        if kind in ("gamma", "quad", "thm3.1", "thm3.3"):
            return 1 << (p["s"] + p["k"] - 1)
        if kind in ("stacked", "thm3.9"):
            return 1 << (p["k"] + p["m"] + p["n"] * p["k"])
        return 1 << (2 * p["k"] + p["m"])  # windows x one free row
    if kind == "thm3.5":  # quad census and one pass of g over the grid per q
        return (1 + p["q"]) << (p["s"] + p["k"] - 1)
    if kind == "cor3.10":
        return p["n"] * (p["n"] + 3) // 2
    if kind == "thm3.11":
        return 1 << (p["q"] * (p["k"] + p["m"] + 1 + p["n"]))
    if kind == "landsberg":
        return 1 << (p["rows"] * p["k"])
    if kind == "lemmas5.x":
        # quad census (2^b), narrow and short window censuses (2^(b-1) each)
        # and five passes of g over the grid (three odd powers, two even)
        return 7 << (p["s"] + p["k"] - 1)
    if command == "repcount":
        integral_bits = p["k"] + p["m"] + p["n"] * p["k"]
        if "check" not in flags(argv):
            return 1 << integral_bits if flags(argv)["mode"] == "integral" else 0
        budget = p["budget-bits"] or census.DEFAULT_BUDGET_BITS
        brute_bits = p["q"] * (p["k"] + p["m"] + 1 + p["n"])
        return sum(1 << b for b in (brute_bits, integral_bits) if b <= budget)
    # expsum: terms of the direct sum
    if kind in ("h", "g"):
        bits = p["k"] + p["s"]
        return 1 << (bits if kind == "h" else bits - 2)
    etas = len(flags(argv)["etas"].split(","))
    return 1 << (p["k"] + p["m"] + 1 + etas)


def normalize(stdout: bytes) -> bytes:
    """Stdout with the known nondeterministic field removed."""
    return _RUNTIME_MS.sub(b"", stdout)


def expected_census(argv: List[str]) -> Dict[str, int]:
    """The closed-form census table a `census` command must print."""
    kind, p = argv[1], _params(argv)
    if kind == "gamma":
        table = formulas.gamma_table(p["s"], p["k"])
    elif kind == "quad":
        table = formulas.quad_table(p["s"], p["k"])
    elif kind == "stacked":
        table = formulas.stacked_gamma_table(p["n"], p["m"], p["k"])
    else:
        m, k = p["m"], p["k"]
        out = {}
        for i in range(min(k, m + 2) + 1):
            out["same,%d" % i] = (1 << i) * formulas.gamma_closed(1 + m, k, i)
            if i:
                out["up,%d" % i] = ((1 << k) - (1 << (i - 1))) * formulas.gamma_closed(
                    1 + m, k, i - 1
                )
        return {key: value for key, value in out.items() if value}
    return {
        ",".join(map(str, key)) if isinstance(key, tuple) else str(key): value
        for key, value in table.items()
        if value
    }


def problems(argv: List[str], stdout: bytes) -> List[str]:
    """Why this stdout is not a correct answer to the command (empty if it is)."""
    text = stdout.decode("ascii", "replace").strip()
    command = argv[0]
    try:
        if command == "census":
            got = {key: value for key, value in json.loads(text).items() if value}
            if got != expected_census(argv):
                return ["census table differs from the closed table"]
            return []
        if command == "verify":
            report = json.loads(text)
            if report.get("match") is not True:
                return ["verify match is not true"]
            if report.get("computed") != report.get("expected"):
                return ["verify computed != expected"]
            return []
        if command == "repcount":
            p = _params(argv)
            want = census.repcount_multi_formula(p["q"], p["n"], p["k"], p["m"])
            if "check" in flags(argv):
                fields = dict(part.split("=") for part in text.split())
                if fields.get("agree") != "true":
                    return ["repcount agree is not true"]
                if int(fields["formula"]) != want:
                    return ["repcount formula differs from the stacked-census formula"]
                return []
            if int(text) != want:
                return ["repcount %s differs from the formula" % flags(argv)["mode"]]
            return []
        fields = dict(part.split("=") for part in text.split())
        if fields.get("agree") != "true" or fields["direct"] != fields["closed"]:
            return ["expsum agree is not true"]
        return []
    except (ValueError, KeyError, AttributeError) as exc:
        return ["unreadable output: %s" % exc]
