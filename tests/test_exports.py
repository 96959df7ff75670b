from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import unimap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402  (perfbench/run.py, imported as its self-tests do)

MODULES = ["unimap"] + [f"unimap.{m.name}" for m in pkgutil.iter_modules(unimap.__path__)]


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
