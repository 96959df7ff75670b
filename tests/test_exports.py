from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import unimap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402  (perfbench/run.py, imported as its self-tests do)

MODULES = ["unimap"] + [f"unimap.{m.name}" for m in pkgutil.iter_modules(unimap.__path__)]
EXPORTING = [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # the benchmark's tracer calls getattr on every __all__ entry
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("traced", sorted(run.TRACED))
def test_benchmark_traced_names_are_exported_where_defined(traced):
    # the tracer wraps only __all__ functions defined in their own module, so
    # a traced name that misses either shows up only as a KeyError in a
    # traced benchmark run
    layer, attr = traced.split(".")
    mod = importlib.import_module(f"unimap.{layer}")
    assert attr in mod.__all__
    fn = getattr(mod, attr)
    assert callable(fn) and not inspect.isclass(fn)
    assert fn.__module__ == mod.__name__


SRC = Path(unimap.__file__).resolve().parent
REPO = SRC.parents[1]
CALLERS = [
    *sorted(SRC.glob("*.py")),
    REPO / "tests" / "test_acceptance.py",
    *sorted((REPO / "perfbench").glob("*.py")),
]

# exported names that no code needs to reach, each with its reason
UNREACHED_BY_DESIGN = {
    ("unimap", "__version__"): "package metadata, read by packaging tools",
}


def _uses(node: ast.AST) -> set[str]:
    """Names that code uses: loads, attribute reads and from-imports.

    Strings and comments are not code, so a name that appears only in a
    docstring, a comment or an ``__all__`` list is not used.
    """
    used: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def _defines(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _module_tree(mod) -> ast.Module:
    path = Path(mod.__file__).resolve()
    return ast.parse(path.read_text(), str(path))


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_is_reached(name):
    # a name is reached when code uses it outside its own definition: in
    # its module, another package module, an acceptance criterion or the
    # benchmark, or when the benchmark traces it.  One that only tests
    # call belongs in tests/oracles.py, or nowhere.
    mod = importlib.import_module(name)
    path = Path(mod.__file__).resolve()
    used = set().union(*(_uses(ast.parse(p.read_text())) for p in CALLERS if p != path))
    layer = name.rpartition(".")[2]
    used |= {key.split(".")[1] for key in run.TRACED if key.split(".")[0] == layer}
    own = _module_tree(mod).body
    unreached = []
    for attr in mod.__all__:
        in_own = any(attr in _uses(stmt) for stmt in own if attr not in _defines(stmt))
        if attr not in used and not in_own and (name, attr) not in UNREACHED_BY_DESIGN:
            unreached.append(attr)
    assert unreached == []


@pytest.mark.parametrize("name", EXPORTING)
def test_every_public_definition_is_exported(name):
    # a public function or class left out of __all__ would escape the
    # reach check above
    mod = importlib.import_module(name)
    public = {
        stmt.name
        for stmt in _module_tree(mod).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    }
    assert sorted(public - set(mod.__all__)) == []


# imports of an underscore name from another package module, each with its reason
PRIVATE_IMPORTS_BY_DESIGN = {
    ("unimap.census", "unimap.core", "_Segments"):
        "the census tallies a class's rootings off its branch sizes",
}


def test_no_module_imports_a_private_name_from_another():
    # a helper that two modules share is part of the owner's interface,
    # or belongs in the module that uses it
    found = set()
    for name in MODULES:
        mod = importlib.import_module(name)
        for node in ast.walk(_module_tree(mod)):
            if not isinstance(node, ast.ImportFrom):
                continue
            relative = "." * node.level + (node.module or "")
            source = importlib.util.resolve_name(relative, mod.__package__)
            if source.partition(".")[0] != "unimap" or source == name:
                continue
            found.update((name, source, a.name) for a in node.names if a.name.startswith("_"))
    assert found == set(PRIVATE_IMPORTS_BY_DESIGN)


def test_oracles_import_only_classes_from_the_package():
    # tests/oracles.py promises to use nothing of the package beyond its
    # public dataclasses and exceptions, so a library walk can never feed
    # the oracle it is checked against
    tree = ast.parse((REPO / "tests" / "oracles.py").read_text())
    whole, imported = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            whole += [a.name for a in node.names if a.name.partition(".")[0] == "unimap"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "unimap":
            imported += [(node.module, a.name) for a in node.names]
    assert whole == [] and imported
    not_classes = [
        (module, attr)
        for module, attr in imported
        if not inspect.isclass(getattr(importlib.import_module(module), attr))
    ]
    assert not_classes == []
