import importlib
import pkgutil

import pytest

import svdsep

MODULES = sorted(m.name for m in pkgutil.iter_modules(svdsep.__path__, "svdsep."))


@pytest.mark.parametrize("module", ["svdsep", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []

