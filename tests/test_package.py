import importlib
import pkgutil

import pytest

import ordtensor

MODULES = sorted(m.name for m in pkgutil.iter_modules(ordtensor.__path__))


def test_modules_found():
    assert {"ordinal", "schreier", "space", "tensor", "trees", "weights"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a deleted definition must not stay behind in its module's exports
    module = importlib.import_module(f"ordtensor.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
