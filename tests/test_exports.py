"""Public-name bookkeeping: every exported name resolves where it is declared.

Tools that wrap the public functions walk each module's ``__all__``, so a
stale entry would otherwise go unnoticed.
"""
import importlib
import inspect
import pkgutil

import altsplit

MODULES = [
    importlib.import_module(f"altsplit.{info.name}")
    for info in pkgutil.iter_modules(altsplit.__path__)
]


def test_every_declared_name_resolves():
    for module in [altsplit, *MODULES]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"


def test_module_exports_are_defined_in_their_module():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, f"{module.__name__}.{name}"


def test_package_reexports_come_from_their_defining_module():
    for name in altsplit.__all__:
        obj = getattr(altsplit, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            home = importlib.import_module(obj.__module__)
            assert getattr(home, name) is obj, name
            assert name in getattr(home, "__all__", [name]), name
        else:
            homes = [m for m in MODULES if name in getattr(m, "__all__", ())]
            assert [getattr(m, name) for m in homes] == [obj], name
