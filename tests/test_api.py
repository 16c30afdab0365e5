import importlib
import pkgutil

import pytest

import gridmtd

MODULES = ["gridmtd"] + [f"gridmtd.{m.name}" for m in pkgutil.iter_modules(gridmtd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a removed type must not linger in an export list
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
