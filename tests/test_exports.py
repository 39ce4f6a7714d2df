"""The package's declared public names."""

import importlib
import pkgutil

import ratimm


def test_every_name_in_each_module_all_resolves():
    # `from ratimm.<module> import *` fails on a name that `__all__`
    # lists but the module no longer defines
    declared = 0
    for info in pkgutil.iter_modules(ratimm.__path__):
        module = importlib.import_module(f"ratimm.{info.name}")
        names = getattr(module, "__all__", ())
        assert [n for n in names if not hasattr(module, n)] == [], info.name
        declared += len(names)
    assert declared > 50
