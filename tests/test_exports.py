import importlib
import pkgutil

import pytest

import persym

MODULES = ["persym"] + sorted(
    "persym." + info.name for info in pkgutil.iter_modules(persym.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
