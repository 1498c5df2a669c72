import importlib
import pkgutil

import pytest

import gyrocal

MODULES = ["gyrocal"] + [
    f"gyrocal.{info.name}" for info in pkgutil.iter_modules(gyrocal.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
