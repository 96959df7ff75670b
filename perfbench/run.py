"""The benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 32 --trace 0

Each batch of the workload (see workloads.py) runs in a fresh,
single-threaded interpreter (worker.py), the way a `unimap` CLI call
does, so the package's lru_caches start cold every time.  Batches run one
after another; batch k draws its inputs from seed * 1000 + k.  A new batch
starts only while it, and the set-up-only interpreters still owed (see
setup_s), are expected to end within --seconds; the first always runs.

Times are in seconds at a fixed reference speed.  On a shared host the CPU
speed a process gets drifts by tens of percent within seconds to minutes,
so each worker times a short pure-Python reference loop every
0.25 s while it sets up and runs its batch (worker.SpeedProbe), and a time
it measured is scaled by REFERENCE_S / (median probe time over that
interval): a batch that took 12 s while a probe took 4.8 ms reads 10 s.
The probe calls nothing from `unimap`, so a change to the package moves
these times as it moves the raw ones.  Raw medians are printed beside them.

--trace 0 prints the end-to-end metrics:
  wall_s       median time of a batch, inputs ready -> last operation
               checked
  setup_s      median of interpreter start -> `import unimap` -> inputs
               generated; extra set-up-only interpreters are started
               until there are MIN_SETUPS samples
  peak_rss_mb  median peak resident set of a batch's interpreter
  fail_share   failed / attempted operations (the JSON line carries it as
               `attempted` and `failed`)

--trace 1 runs each batch twice on the same inputs, untraced and then with
spans (spans.py), and prints the per-layer metrics: medians over the
traced batches, plus trace.overhead_ratio = traced / untraced raw wall
time.  Traced batches run without speed probes, so span times are raw.
A traced batch must return byte-identical report payloads; a difference
counts as a failed operation.  The full per-function table goes to
out/trace-<workload>.json and the spans of the last traced batch to
out/spans-<workload>.npz, both next to this file.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 2, with no result, when the checkout holds no
`src/unimap` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("census", "core_expander", "large_n", "transfer")
MIN_SETUPS = 7
REFERENCE_S = 0.004  # time of one speed probe (worker.py) at the reference speed
RUN_LIMIT_S = 170  # a run must end within 180 s; children are killed past this

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics: traced function -> the fields reported for it.
TRACED = {
    "samplers.sample_unicellular_fixed_genus": ("calls", "total_s", "self_s"),
    "samplers.sample_polygon_gluing": ("calls", "total_s", "self_s"),
    "samplers.enumerate_pairings": ("calls", "items", "total_s", "self_s"),
    "maps.from_polygon_gluing": ("calls", "total_s", "self_s"),
    "maps.genus": ("calls", "total_s", "self_s"),
    "maps.vertex_degrees": ("calls", "total_s", "self_s"),
    "maps.underlying_graph": ("calls", "total_s", "self_s"),
    "core.core": ("calls", "edges_in", "total_s", "self_s"),
    "core.reconstruct": ("calls", "total_s", "self_s"),
    "core.core_less_M": ("calls", "total_s", "self_s"),
    "core.branch_size_profile": ("calls", "total_s", "self_s"),
    "trees.children_to_map": ("calls", "total_s", "self_s"),
    "trees.entry_dart": ("calls", "total_s", "self_s"),
    "expansion.cheeger_exact": ("calls", "vertices", "max_vertices", "total_s", "self_s"),
    "expansion.branch_substitution_transfer_check": ("calls", "total_s", "self_s"),
    "series.derive_constants": ("calls", "total_s", "self_s"),
    "series.series_C": ("calls", "total_s", "self_s"),
    "series.series_D": ("calls", "total_s", "self_s"),
    "experiments.profile_census": ("calls", "total_s", "self_s"),
    "experiments.min_degree3_census": ("calls", "total_s", "self_s"),
}
PER_LAYER = {
    f"{fn}.{field}": "s" if field.endswith("_s") else "count"
    for fn, fields in TRACED.items()
    for field in fields
}
PER_LAYER["samplers.acceptance"] = "ratio"
PER_LAYER["trace.overhead_ratio"] = "ratio"


def batch_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def scale(result: dict, spawned_ns: int, setup_only: bool) -> None:
    """Add the worker's raw set-up and batch times and scale both to the
    reference speed by the probes taken while each ran."""
    result["setup_raw_s"] = (result["ready_ns"] - spawned_ns) / 1e9
    result["setup_s"] = result["setup_raw_s"] * REFERENCE_S / result["setup_probe_s"]
    if not setup_only:
        result["wall_raw_s"] = result.pop("wall_s")
        if "batch_probe_s" in result:  # traced batches run without probes
            result["wall_s"] = result["wall_raw_s"] * REFERENCE_S / result["batch_probe_s"]


class Run:
    """The batches of one run, started one at a time under a time limit."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def child(self, k: int, *, trace: bool = False, setup_only: bool = False) -> dict | None:
        """Start one worker interpreter and wait for it; None if it failed."""
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(batch_seed(self.seed, k)),
        ]
        if trace:
            OUT.mkdir(exist_ok=True)
            cmd += ["--trace", "--spans", str(OUT / f"spans-{self.workload}.npz")]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        budget = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.t0))
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired:
            return self._lost(k, f"killed after {budget:.0f} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self._lost(k, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        result = json.loads(lines[-1])
        scale(result, spawned, setup_only)
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if not setup_only:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.failures += result["failures"]
        return result

    def _lost(self, k: int, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"batch {k}: {why}")
        return None

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def batches(self, seconds: float, per_batch, reserve=lambda n: 0.0) -> None:
        """Call per_batch(k) for k = 0, 1, ... while one more batch, plus
        reserve(batches done after it) seconds of later work, is expected
        to end within `seconds`."""
        k = 0
        while True:
            per_batch(k)
            k += 1
            end = self.elapsed() * (k + 1) / k + reserve(k + 1)
            if end > min(seconds, RUN_LIMIT_S / 2):
                return


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    results: list[dict] = []

    def batch(k: int) -> None:
        r = run.child(k)
        if r is not None:
            results.append(r)

    def setups_left(n: int) -> float:
        """Time the set-up-only interpreters will take after n batches."""
        if not results:
            return 0.0
        return max(0, MIN_SETUPS - n) * statistics.median(r["setup_raw_s"] for r in results)

    run.batches(seconds, batch, setups_left)
    if not results:
        return {}
    setups = [r["setup_s"] for r in results]
    k = 0
    while len(setups) < MIN_SETUPS and run.elapsed() < RUN_LIMIT_S / 2:
        r = run.child(k % len(results), setup_only=True)
        if r is not None:
            setups.append(r["setup_s"])
        k += 1
    print(f"{run.workload}: {len(results)} batches, {len(setups)} set-ups")
    print(
        f"raw medians: wall {statistics.median(r['wall_raw_s'] for r in results):.4g} s, "
        f"set-up {statistics.median(r['setup_raw_s'] for r in results):.4g} s, reference loop "
        f"{statistics.median(r['batch_probe_s'] for r in results):.4g} s"
    )
    return {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    pairs: list[tuple[dict, dict]] = []

    def pair(k: int) -> None:
        plain = run.child(k)
        traced = run.child(k, trace=True)
        if plain is None or traced is None:
            return
        if plain["digests"] != traced["digests"]:
            run.failed += 1
            run.failures.append(f"batch {k}: traced payload differs from untraced")
        pairs.append((plain, traced))

    run.batches(seconds, pair)
    if not pairs:
        return {}
    traced = [t for _, t in pairs]
    metrics: dict[str, float] = {}
    for fn, fields in TRACED.items():
        for field in fields:
            # "items" exists only once the function has returned a generator
            metrics[f"{fn}.{field}"] = statistics.median(t["layers"][fn].get(field, 0) for t in traced)
    metrics["samplers.acceptance"] = statistics.median(
        t["layers"]["samplers.sample_unicellular_fixed_genus"]["calls"]
        / max(1, t["layers"]["samplers.sample_polygon_gluing"]["calls"])
        for t in traced
    )
    metrics["trace.overhead_ratio"] = sum(t["wall_raw_s"] for t in traced) / sum(
        p["wall_raw_s"] for p, _ in pairs
    )
    write_trace_report(run, pairs, metrics["trace.overhead_ratio"])
    print(f"{run.workload}: {len(pairs)} untraced + traced batch pairs")
    return metrics


def write_trace_report(run: Run, pairs: list, overhead: float) -> None:
    """Full per-function table and per-layer shares of the traced wall time."""
    traced = [t for _, t in pairs]
    wall = statistics.median(t["wall_raw_s"] for t in traced)  # spans are raw times
    functions = {
        fn: {
            field: statistics.median(t["layers"][fn][field] for t in traced)
            for field in traced[0]["layers"][fn]
        }
        for fn in traced[0]["layers"]
    }
    shares: dict[str, float] = {}
    for fn, row in functions.items():
        layer = fn.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + row["self_s"] / wall
    shares["outside traced functions"] = 1.0 - sum(shares.values())
    report = {
        "workload": run.workload,
        "seed": run.seed,
        "batches": len(pairs),
        "inputs": [t["inputs"] for t in traced],
        "traced_wall_s": wall,
        "untraced_wall_s": statistics.median(p["wall_raw_s"] for p, _ in pairs),
        "probe_s": statistics.median(p["batch_probe_s"] for p, _ in pairs),
        "overhead_ratio": overhead,
        "spans": statistics.median(t["spans"] for t in traced),
        "layer_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "functions": dict(sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{run.workload}.json").write_text(json.dumps(report, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unimap" / "__init__.py").is_file():
        print(f"no src/unimap under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, units = per_layer(run, args.seconds), PER_LAYER
    else:
        metrics, units = end_to_end(run, args.seconds), END_TO_END
    for failure in run.failures:
        print(f"FAILED {failure}")
    if set(metrics) != set(units):
        print("no batch completed", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name:55s} {value:>14.6g} {units[name]}")
    print(f"{'fail_share':55s} {run.failed / max(1, run.attempted):>14.6g} ratio ({run.failed}/{run.attempted})")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
