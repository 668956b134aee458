import ast
import functools
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import persym

MODULES = ["persym"] + sorted(
    "persym." + info.name for info in pkgutil.iter_modules(persym.__path__))

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(persym.__file__).parent
CALLER_FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Named only as strings in perfbench/tracer.py's TARGETS; they leave src/
# once the benchmark stops tracing them (ROADMAP items 1 and 7).
NO_CALLER_YET = {"persym.gf2.rank", "persym.builders.hankel", "persym.builders.stacked",
                 "persym.formulas.a_coeff_recurrence", "persym.formulas.stacked1_gamma_closed"}


def module_name(path):
    """The persym module a caller file holds, or None outside the package."""
    if path.parent != PACKAGE:
        return None
    return "persym" if path.stem == "__init__" else "persym." + path.stem


def persym_imports(tree, module):
    """{bound name: (persym module, name)} for each `from persym.X import name`
    or `from .X import name` in the tree, an `as` name binding the alias."""
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and module is not None:
            source = "persym." + node.module if node.module else "persym"
        elif node.level == 0 and (node.module or "").split(".")[0] == "persym":
            source = node.module
        else:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name] = (source, alias.name)
    return bound


@functools.cache
def module_imports(module):
    """persym_imports of a persym module's own source, parsed once."""
    path = PACKAGE / ("__init__.py" if module == "persym" else module.split(".")[1] + ".py")
    return persym_imports(ast.parse(path.read_text(), str(path)), module)


def origin(module, name):
    """Where module.name is defined: followed through the module's own
    `from .X import name` lines, as persym re-exports the exceptions."""
    bound = module_imports(module)
    return origin(*bound[name]) if name in bound else (module, name)


def references(sources):
    """(names, attributes) read in the given (module, source text) pairs.

    names holds the origin of each bare Name: the persym name an import
    binds it to, else, in a persym module, that module's own name; a bare
    name outside the package that no import binds is nobody's. attributes
    holds every x.name by name alone. A def or class line, an __all__ entry
    and a docstring are not references: none of them is a Name or Attribute.
    """
    names, attributes = set(), set()
    for module, text in sources:
        tree = ast.parse(text)
        bound = persym_imports(tree, module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in bound:
                names.add(origin(*bound[node.id]))
            elif isinstance(node, ast.Name) and module is not None:
                names.add(origin(module, node.id))
    return names, attributes


@functools.cache
def caller_references():
    return references((module_name(path), path.read_text()) for path in CALLER_FILES)


def is_called(module, name, refs=None):
    names, attributes = refs or caller_references()
    return name in attributes or origin(module, name) in names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_has_a_caller_outside_the_tests(module):
    exported = getattr(importlib.import_module(module), "__all__", ())
    uncalled = [module + "." + name for name in exported if not is_called(module, name)]
    assert sorted(set(uncalled) - NO_CALLER_YET) == []


def test_names_without_a_caller_are_still_exported_and_uncalled():
    for qualified in NO_CALLER_YET:
        module, _, name = qualified.rpartition(".")
        assert name in importlib.import_module(module).__all__
        assert not is_called(module, name)


@pytest.mark.parametrize("module,text,called", [
    # a local table named like an export calls nothing
    ("persym.suites", "stacked = {}\nprint(stacked)\n", False),
    (None, "stacked = {}\nprint(stacked)\n", False),
    ("persym.suites", "from .builders import stacked\nstacked(t, etas, m, k)\n", True),
    (None, "from persym.builders import stacked as s\ns(t, etas, m, k)\n", True),
    # an import alone is no call, and another module's name is not this one
    (None, "from persym.builders import stacked\n", False),
    (None, "from persym.census import stacked\nstacked()\n", False),
    ("persym.builders", "def f():\n    return stacked(t, etas, m, k)\n", True),
    (None, "from persym import builders as b\nb.stacked(t, etas, m, k)\n", True),
], ids=["local", "local-outside", "relative", "absolute-alias", "import-only",
        "other-module", "own-module", "attribute"])
def test_a_bare_name_counts_only_where_it_binds_the_export(module, text, called):
    assert is_called("persym.builders", "stacked", references([(module, text)])) is called


def tracer_targets():
    """perfbench/tracer.py's TARGETS, loaded by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("span,module,attr", tracer_targets())
def test_every_traced_name_resolves(span, module, attr):
    # the tracer patches Class.method on the class itself, anything else by name
    owner = importlib.import_module(module)
    if "." in attr:
        cls, method = attr.split(".")
        assert method in vars(getattr(owner, cls))
    else:
        assert hasattr(owner, attr)
