"""What one `python -m persym.cli` run loads and builds.

A run imports only the persym modules on its command's path, and the
parser builds only the command kind that argv names. Neither may change
what a run prints. Statically, the lane module imports no persym module,
and the census and the exponential sums do not import each other.
"""

import ast
import functools
import pathlib
import subprocess
import sys

import pytest

from persym import cli, suites

# argv: the persym modules the run may load besides the package and exceptions
EXPSUM = {"expsum", "builders", "gf2", "laurent", "lanes"}
IMPORT_PATHS = {
    "census gamma --s 2 --k 2": {"census", "lanes"},
    "census quad --s 2 --k 2 --format csv": {"census", "lanes"},
    "verify thm3.1": {"suites", "census", "lanes", "formulas"},
    "verify cor3.10": {"suites", "formulas"},
    # the even moments are plain ints over powers of two: no dyadic
    "verify thm3.5": {"suites", "census", "lanes", "expsum", "builders", "gf2", "laurent"},
    "verify lemmas5.x": {"suites", "census", "lanes", "expsum", "builders", "gf2", "laurent"},
    "verify thm3.3": {"suites", "census", "lanes", "formulas"},
    "verify thm3.8": {"suites", "census", "lanes", "formulas"},
    "verify thm3.9": {"suites", "census", "lanes", "formulas"},
    "verify thm3.11": {"suites", "census", "lanes", "formulas"},
    "verify landsberg": {"suites", "census", "lanes", "formulas"},
    "verify sigma6.x": {"suites", "census", "lanes", "formulas"},
    "expsum h --s 2 --k 2 --t 100": EXPSUM,
    "expsum g --s 2 --k 2 --t 100": EXPSUM,
    "expsum g2 --m 1 --k 2 --t 100 --eta 10": EXPSUM,
    "expsum f2 --m 1 --k 2 --t 100 --eta 10": EXPSUM,
    "expsum fmulti --m 1 --k 2 --t 100 --etas 10,11": EXPSUM,
    # repcount_* live in census, so a formula count loads the lanes too
    "repcount --mode formula --q 1 --n 0 --k 2 --m 1": {"census", "lanes", "formulas"},
    # the integral is the stacked census, weighted
    "repcount --mode integral --q 1 --n 1 --k 2 --m 1": {"census", "lanes"},
    # the brute count multiplies on plain ints, so it loads no laurent
    "repcount --mode brute --q 1 --n 1 --k 2 --m 1": {"census", "lanes"},
    "repcount --check --q 1 --n 1 --k 2 --m 1": {"census", "lanes", "formulas"},
}


def persym_imports(tree):
    """The persym modules a syntax tree imports, at the top or in any body."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:  # absolute: only persym and persym.x count
                if module.partition(".")[0] != "persym":
                    continue
                module = module.partition(".")[2]
            names |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[2] for alias in node.names
                      if alias.name.startswith("persym.")}
    return names


def source_trees():
    """Each persym module's syntax tree, by module name."""
    return {path.stem: ast.parse(path.read_text())
            for path in pathlib.Path(cli.__file__).parent.glob("*.py")}


def test_lanes_census_and_expsum_import_apart():
    graph = {name: persym_imports(tree) for name, tree in source_trees().items()}
    assert set().union(*graph.values()) <= set(graph)
    assert {"lanes", "formulas"} <= graph["census"]  # formulas only in a function body
    assert not {"gf2", "builders", "laurent"} & graph["census"]
    assert graph["lanes"] == set()
    assert "expsum" not in graph["census"] and "census" not in graph["expsum"]
    # the closed route reaches none of the enumeration route, nor the front ends
    assert not {"census", "lanes", "expsum", "suites", "cli"} & graph["formulas"]


def test_only_the_coset_integral_imports_dyadic():
    trees = source_trees()
    assert {name for name, tree in trees.items() if "dyadic" in persym_imports(tree)} == {
        "census"}
    census = trees["census"]
    coset = next(node for node in census.body if getattr(node, "name", "") == "integrate_coset")
    census.body.remove(coset)
    assert "dyadic" in persym_imports(coset) and "dyadic" not in persym_imports(census)


def loaded_modules(argv, cwd):
    """Every module a fresh interpreter imports, read off -X importtime."""
    result = subprocess.run([sys.executable, "-X", "importtime"] + argv,
                            capture_output=True, text=True, timeout=60, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return {line.rpartition("|")[2].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:")}


@functools.cache
def interpreter_modules():
    """What the interpreter imports before any persym code runs."""
    return loaded_modules(["-c", "pass"], None)


@pytest.mark.parametrize("command", list(IMPORT_PATHS))
def test_a_run_loads_only_its_commands_modules(tmp_path, command):
    loaded = loaded_modules(["-m", "persym.cli"] + command.split(), tmp_path)
    loaded -= interpreter_modules()
    persym = {name for name in loaded if name.startswith("persym.")}
    assert persym == {"persym." + name for name in IMPORT_PATHS[command] | {"exceptions"}}
    assert ("csv" in loaded) == command.endswith("--format csv")
    prints_json = command.startswith("verify") or (
        command.startswith("census") and not command.endswith("--format csv"))
    assert ("json" in loaded) == prints_json


def valid_argvs():
    """One argv per command kind, with every required flag given."""
    def flags(names):
        values = {"t": "100", "eta": "10", "etas": "10,11"}
        return [part for name in names for part in ("--" + name, values.get(name, "2"))]

    argvs = [["verify", suite] for suite in suites.SUITES]
    argvs += [["census", kind] + flags(name for name in names if name != "l")
              for kind, (_, names) in cli._CENSUS_KINDS.items()]
    argvs += [["expsum", kind] + flags(names) for kind, names in cli._EXPSUM_REQUIRED.items()]
    argvs.append(["repcount", "--mode", "formula"] + flags("qnkm"))
    return argvs


def corpus():
    """Help, and each way to get an argv wrong, on every kind."""
    out = []
    for argv in valid_argvs():
        out.append(argv + ["-h"])
        out.append(argv + ["--he"])  # --help, abbreviated
        if argv[0] != "verify":  # no suite flag is required
            out.append(argv[:-2])  # the last required flag left out
        out.append(argv + ["--bogus", "1"])
        out.append(argv + ["--format", "xml"])
        out.append(argv + ["--threads", "0"])
        out.append(argv + ["--checkpoint", ""])
        out.append(argv + ["extra"])
    out += [[], ["-h"], ["bogus"], ["verify"], ["census", "-h"]]
    out += [[command, "bogus"] for command in ("verify", "census", "expsum")]
    return out


def outcome(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", corpus(), ids=" ".join)
def test_parsing_matches_the_full_grammar(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    got = outcome(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert got == outcome(argv, capsys)
    assert got[0] == 2 or (got[0] == 0 and "usage: persym" in got[1])
    assert list(tmp_path.iterdir()) == []


def test_a_named_kind_builds_that_kind_only(capsys):
    argv = ["census", "quad", "--s", "2", "--k", "2"]
    assert cli.build_parser().parse_args(argv).kind == "quad"
    with pytest.raises(SystemExit):
        cli.build_parser(["census", "gamma", "--s", "2", "--k", "2"]).parse_args(argv)
    err = capsys.readouterr().err
    assert "invalid choice" in err and "quad" in err
