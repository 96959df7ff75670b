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
    ("unimap.experiments", "unimap.samplers", "_genus_count_column"):
        "built once before the trials fork",
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


# functions of the package that call their own name, each with its reason
RECURSION_BY_DESIGN: dict[tuple[str, str], str] = {}


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in ("self", "cls"):
            return func.attr
    return None


def _scoped_nodes(tree: ast.AST):
    """Every node under `tree` with the dotted name of the functions and
    classes it lies in; a def or class lies in its own name."""
    stack = [((), tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            path = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                path = (*prefix, child.name)
            yield ".".join(path), child
            stack.append((path, child))


def test_no_function_calls_its_own_name():
    # a recursive walk reaches Python's recursion limit on a deep enough
    # input, so the package walks with loops and explicit stacks
    found = set()
    for name in MODULES:
        for scope, node in _scoped_nodes(_module_tree(importlib.import_module(name))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(sub, ast.Call) and _callee(sub.func) == node.name
                for sub in ast.walk(node)
            ):
                found.add((name, scope))
    assert found == set(RECURSION_BY_DESIGN)


def _process_machinery(tree: ast.Module) -> set[str]:
    """`os.fork`, `os._exit` and `marshal` where a module's code uses them."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in ("fork", "_exit"):
                found.add(f"os.{node.attr}")
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name == "marshal")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update(f"os.{a.name}" for a in node.names if a.name in ("fork", "_exit"))
        elif isinstance(node, ast.ImportFrom) and node.module == "marshal":
            found.add("marshal")
    return found


def test_only_parallel_forks_and_marshals():
    # dealing units to processes, and carrying their results and errors
    # back, is decided in one module, which every split job goes through
    found = {
        (path.name, use)
        for path in sorted(SRC.glob("*.py"))
        for use in _process_machinery(ast.parse(path.read_text()))
    }
    assert found == {("parallel.py", use) for use in ("os.fork", "os._exit", "marshal")}


def _gluing_callers(tree: ast.Module) -> set[str]:
    """The functions of a module whose code calls `from_polygon_gluing`,
    by its bare name or as an attribute (``maps.from_polygon_gluing``)."""
    found = set()
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "from_polygon_gluing":
                found.add(scope)
    return found


def test_only_face_words_and_gluings_call_from_polygon_gluing():
    # every other one-face map is a face word handed to from_face_word,
    # so how a face order becomes the canonical labelling is written once
    found = {
        (path.stem, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope in _gluing_callers(ast.parse(path.read_text()))
    }
    assert found == {
        ("maps", "from_face_word"),
        ("samplers", "sample_polygon_gluing"),
        ("census", "turn_classes"),
    }


# `type(...) is not int` outside errors.py, each with its reason
SIZE_RULE_EXCEPTIONS = {
    ("maps.py", "CombinatorialMap.__post_init__"):
        "darts and root are map fields, refused with MalformedMapError",
    ("maps.py", "decode_map"): "n_darts is a field of the map's JSON, refused with MalformedMapError",
    ("experiments.py", "ExperimentConfig.__post_init__"): "a seed is no size: any int may seed",
}


def _is_int_type_test(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Name)
        and node.left.func.id == "type"
        and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)
    )


def test_size_rule_lives_in_errors():
    # "a size is an int, not a bool, and at least some least value" is
    # written once, in errors.check_int, which every size argument calls
    found = {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, node in _scoped_nodes(ast.parse(path.read_text()))
        if _is_int_type_test(node)
    }
    assert found == {("errors.py", "check_int"), *SIZE_RULE_EXCEPTIONS}


def _is_repeat_test(node: ast.AST) -> bool:
    """A comparison of ``len(set(x))`` with ``len(x)``, either way round."""
    if not isinstance(node, ast.Compare) or len(node.comparators) != 1:
        return False
    sides = {ast.unparse(node.left), ast.unparse(node.comparators[0])}
    return any(f"len(set({side[4:-1]}))" in sides for side in sides if side.startswith("len("))


def test_cap_and_list_rules_have_one_owner_each():
    # the enumeration cap is named only where samplers.check_enumerable
    # decides it, and "no repeated value" is tested only in
    # errors.check_ints, which every list of sizes goes through
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    cap = {name for name, tree in trees.items() if "ENUMERATION_CAP" in _uses(tree)}
    repeats = {
        (name, scope)
        for name, tree in trees.items()
        for scope, node in _scoped_nodes(tree)
        if _is_repeat_test(node)
    }
    assert cap == {"samplers.py"}
    assert repeats == {("errors.py", "check_ints")}
