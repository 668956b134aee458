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
CALLER_FILES = sorted(Path(persym.__file__).parent.glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))

# Named only as strings in perfbench/tracer.py's TARGETS; they leave src/
# once the benchmark stops tracing them (ROADMAP items 1 and 7).
NO_CALLER_YET = {"persym.gf2.rank", "persym.builders.hankel", "persym.builders.stacked",
                 "persym.formulas.a_coeff_recurrence"}


@functools.cache
def referenced_names():
    """Every Name, Attribute and import alias in the caller files.

    A def or class line, an __all__ entry and a docstring are not
    references: none of them is one of these nodes.
    """
    names = set()
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_has_a_caller_outside_the_tests(module):
    exported = getattr(importlib.import_module(module), "__all__", ())
    uncalled = [module + "." + name for name in exported
                if name not in referenced_names()]
    assert sorted(set(uncalled) - NO_CALLER_YET) == []


def test_names_without_a_caller_are_still_exported_and_uncalled():
    for qualified in NO_CALLER_YET:
        module, _, name = qualified.rpartition(".")
        assert name in importlib.import_module(module).__all__
        assert name not in referenced_names()


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
