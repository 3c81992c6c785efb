import importlib

import pytest

import wavestab

MODULES = ("cli", "continuation", "criteria", "elliptic", "evolution",
           "galerkin", "klcurve", "multiplier", "profile")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    # a stale name in __all__ breaks `from ... import *` and the tracing
    # benchmark, which wraps every exported function
    module = importlib.import_module(f"wavestab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve():
    missing = [attr for attr in wavestab.__all__ if not hasattr(wavestab, attr)]
    assert missing == []
