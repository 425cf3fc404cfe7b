import importlib
import pkgutil

import pytest

import torusfs


@pytest.mark.parametrize("module", sorted(info.name for info in pkgutil.iter_modules(torusfs.__path__)))
def test_star_import_of_every_module(module):
    # a name left in __all__ after its definition is gone makes the star import raise
    namespace = {}
    exec(f"from torusfs.{module} import *", namespace)
    assert set(importlib.import_module(f"torusfs.{module}").__all__) <= set(namespace)
