"""Public-name bookkeeping: each public name is declared once, in its
module's ``__all__``; the package exports exactly the six library modules'
lists; every exported name resolves where it is declared; every imported
name is used; and every error class is raised somewhere.

Tools that wrap the public functions walk each module's ``__all__``, so a
stale entry would otherwise go unnoticed; no linter runs on the package, so
an import left behind by a cleanup would too.
"""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import altsplit
from altsplit import errors

MODULES = [
    importlib.import_module(f"altsplit.{info.name}")
    for info in pkgutil.iter_modules(altsplit.__path__)
]
LIBRARY = ("analysis", "core", "errors", "problems", "schemes", "splittings")


def test_package_exports_the_library_modules_lists():
    lists = [getattr(altsplit, name).__all__ for name in LIBRARY]
    assert altsplit.__all__ == [name for names in lists for name in names]
    assert len(set(altsplit.__all__)) == len(altsplit.__all__)
    # generators and cli stay submodules: neither they nor what they define is exported
    homes = {getattr(getattr(altsplit, name), "__module__", None) for name in altsplit.__all__}
    assert not homes & {"altsplit.generators", "altsplit.cli"}
    assert not {"generators", "cli"} & set(altsplit.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from altsplit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(altsplit.__all__)


def test_every_error_class_is_exported():
    defined = [name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, altsplit.AltSplitError)]
    assert sorted(defined) == sorted(errors.__all__)


def test_every_leaf_error_class_is_raised():
    # a class no other class subclasses is caught only as itself, so the
    # package must raise it: a ``raise`` of its name in some module
    classes = [obj for obj in vars(errors).values()
               if inspect.isclass(obj) and issubclass(obj, altsplit.AltSplitError)]
    leaves = {c.__name__ for c in classes
              if not any(o is not c and issubclass(o, c) for o in classes)}
    raised = set()
    for path in Path(altsplit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).rsplit(".", 1)[-1])  # errors.X or X
    assert not leaves - raised, f"never raised: {sorted(leaves - raised)}"


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



@pytest.mark.parametrize("path", sorted(Path(altsplit.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # used: read as a name anywhere in the module, or listed in its __all__
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    # (a star import binds what its module's __all__ lists: nothing to check;
    # an __all__ built from other modules' lists reads them as names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported |= {(alias.asname or alias.name).split(".")[0]
                         for alias in node.names if alias.name != "*"}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    assert not imported - used, f"{path.name} imports {sorted(imported - used)} unused"


def test_svd_is_called_at_two_sites():
    # one thin SVD of each factored matrix (core._Factored.svd) and the
    # index-1 test on G F (core._Factored.sharp); every other fact reads them
    sites = []
    for path in sorted(Path(altsplit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and ast.unparse(node).endswith("linalg.svd")) or (
                    isinstance(node, ast.ImportFrom) and any(a.name == "svd" for a in node.names)):
                call = calls.get(id(node))
                sites.append((path.name, call and [ast.unparse(k) for k in call.keywords]))
    assert sorted(sites, key=repr) == [
        ("core.py", ["compute_uv=False"]), ("core.py", ["full_matrices=False"])]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True"
    iterations, residual = lines[1].split()
    assert int(iterations) > 0 and float(residual) < 1e-7
