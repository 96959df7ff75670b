"""In-memory spans around calls into the public functions of `unimap`.

`Recorder.install()` replaces every public function of the traced layers
with a wrapper that records one span per call: name, start, end, the span
that was open when it was called (its parent) and the operation id.  The
wrapper is put wherever a `unimap` module holds the function, both in the
module that defines it (calls inside that module) and in the modules that
imported it, e.g. `unimap.experiments.sample_unicellular_fixed_genus` and
`unimap.core.reconstruct`.  No file of the package is changed.

A function that returns a generator (`samplers.enumerate_pairings`) gets one
span for the call and one "resume" span for each item it produces, so its
self time includes the work done between yields.

Timestamps are integer nanoseconds, so the derived self times are exact:
a span's self time is its duration minus the durations of its direct
children, which lie inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("samplers", "maps", "core", "trees", "expansion", "series", "experiments")

CALL = 0
RESUME = 1

# Work counts taken from a call's arguments: span name -> (counter, measure).
# Each counter is reported as its sum over calls and, with a "max_" prefix on
# the counter name, its maximum.
WORK = {
    "core.core": ("edges_in", lambda m, *a, **k: m.n_edges),
    "expansion.cheeger_exact": ("vertices", lambda g, *a, **k: g.n_vertices),
}

_DONE = object()


def public_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> (span name, function) for every traced function."""
    out: dict[int, tuple[str, object]] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"unimap.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isclass(fn) or not callable(fn):
                continue
            if getattr(fn, "__module__", None) != mod.__name__:
                continue
            out[id(fn)] = (f"{layer}.{attr}", fn)
    return out


class Recorder:
    """Span store plus the patching that feeds it.

    Spans live in typed arrays (about 30 bytes each) because the census
    workload records over a million of them.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.kind = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.items: dict[str, int] = {}
        self.work: dict[str, list[int]] = {}
        self._stack = [-1]
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, nid: int, kind: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _resume(self, nid: int, label: str, gen):
        while True:
            idx = self._open(nid, RESUME)
            try:
                item = next(gen, _DONE)
            finally:
                self._close(idx)
            if item is _DONE:
                return
            self.items[label] += 1
            yield item

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        work = WORK.get(label)
        if work is not None:
            self.work[label] = []
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self.work[label].append(work[1](*args, **kwargs))
            idx = open_(nid, CALL)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if isinstance(out, types.GeneratorType):
                self.items.setdefault(label, 0)
                return self._resume(nid, label, out)
            return out

        return traced

    # -- patching --------------------------------------------------------

    def install(self, callers: tuple[types.ModuleType, ...] = ()) -> None:
        """Wrap every public function of the traced layers where it is held.

        That is every `unimap` module plus `callers`, the modules outside
        the package whose calls into it should be traced.
        """
        targets = public_functions()
        wrappers = {key: self._wrap(label, fn) for key, (label, fn) in targets.items()}
        holders = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "unimap" or name.startswith("unimap."))
        ]
        for mod in holders + list(callers):
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][1] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "kind": np.frombuffer(self.kind, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def save(self, path) -> None:
        """Write the spans as an .npz file; names are stored alongside."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    """Self time of each span in ns: its duration minus its children's."""
    dur = a["end"] - a["start"]
    child = np.zeros(len(dur), dtype=np.int64)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    return dur - child


def layer_table(rec: Recorder) -> dict[str, dict[str, float]]:
    """Per traced function: calls, total_s, self_s, plus its work counters.

    total_s sums the durations of the function's own spans; no public
    function of the package calls itself, so these never overlap.
    """
    a = rec.arrays()
    k = len(rec.names)
    dur = a["end"] - a["start"]
    own = np.bincount(a["name"], weights=self_times(a), minlength=k)
    total = np.bincount(a["name"], weights=dur, minlength=k)
    calls = np.bincount(a["name"][a["kind"] == CALL], minlength=k)
    table: dict[str, dict[str, float]] = {}
    for nid, label in enumerate(rec.names):
        row = {
            "calls": int(calls[nid]),
            "total_s": float(total[nid]) / 1e9,
            "self_s": float(own[nid]) / 1e9,
        }
        if label in rec.items:
            row["items"] = rec.items[label]
        if label in rec.work:
            counter = WORK[label][0]
            values = rec.work[label]
            row[counter] = sum(values)
            row["max_" + counter] = max(values, default=0)
        table[label] = row
    return table
