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


@pytest.mark.parametrize("name", MODULES)
def test_exception_classes_have_an_exit_code(name):
    # main maps a ValueError (refused input) to exit 2 and an ArithmeticError
    # (numerical failure) to exit 3; a class derived from neither escapes it
    module = importlib.import_module(f"wavestab.{name}")
    classes = [obj for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__]
    assert [cls.__name__ for cls in classes
            if not issubclass(cls, (ValueError, ArithmeticError))] == []
