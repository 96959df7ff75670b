"""Tests of the benchmark itself: spans, seeds, failure counting, contract."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import unimap.core  # noqa: E402
import unimap.experiments  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import SpeedProbe, run_ops  # noqa: E402


def test_span_self_times_are_nonnegative_and_fit_in_wall_time():
    original = unimap.experiments.core
    rec = spans.Recorder()
    rec.install(callers=(workloads,))
    t0 = time.perf_counter_ns()
    try:
        unimap.experiments.run_core_expander_experiment(0.4, 0.1, (10, 12), trials=3, seed=5)
        unimap.experiments.verify_substitution_transfer(instances=10, seed=5)
        workloads.large_n_run(workloads.large_n_inputs(5, count=1, polygon_edges=30)[0])
    finally:
        wall = time.perf_counter_ns() - t0
        rec.uninstall()
    assert unimap.experiments.core is original and unimap.core.core is original

    own = spans.self_times(rec.arrays())
    assert len(own) > 1000
    assert own.min() >= 0
    assert own.sum() <= wall

    table = spans.layer_table(rec)
    assert table["core.core"]["calls"] > table["core.core_less_M"]["calls"] > 0
    assert table["core.core"]["edges_in"] >= 10 * table["core.core"]["calls"]
    assert table["expansion.cheeger_exact"]["max_vertices"] >= 2
    for row in table.values():
        assert 0 <= row["self_s"] <= row["total_s"] + 1e-9


def test_enumerate_pairings_items_are_counted():
    uncached = unimap.experiments.min_degree3_census.__wrapped__
    rec = spans.Recorder()
    rec.install()
    try:
        total = sum(uncached(4).values())
    finally:
        rec.uninstall()
    table = spans.layer_table(rec)
    assert table["samplers.enumerate_pairings"]["items"] == 105
    assert table["maps.from_polygon_gluing"]["calls"] == 105
    assert total <= 105


def test_seed_changes_inputs_except_for_the_census():
    assert workloads.census_inputs(1) == workloads.census_inputs(2)
    assert workloads.core_expander_inputs(1) != workloads.core_expander_inputs(2)
    assert workloads.transfer_inputs(1) != workloads.transfer_inputs(2)

    def maps(seed):
        return [item["map"] for item in workloads.large_n_inputs(seed, count=2, polygon_edges=40)]

    assert maps(1) == maps(1)
    assert maps(1) != maps(2)
    assert len({run.batch_seed(3, k) for k in range(5)} | {run.batch_seed(4, 0)}) == 6


def test_large_n_inputs_record_what_they_were_built_with():
    for item in workloads.large_n_inputs(9, count=2, polygon_edges=40):
        m = item["map"]
        assert m.n_edges == item["n"]
        assert unimap.maps.genus(m) == item["g"]
        assert len(unimap.core.core(m).branches) == item["core_edges"]
        assert 1 <= item["max_branch"] <= item["n"]
        op = workloads.large_n_ops([item])[0]
        assert op.check(op.run()) is None


def test_failing_operations_are_counted_not_raised():
    def boom():
        raise ValueError("deliberate")

    ops = [
        workloads.Operation("fine", lambda: 1, lambda out: None),
        workloads.Operation("raises", boom, lambda out: None),
        workloads.Operation("wrong", lambda: 2, lambda out: "wrong output"),
        workloads.Operation("fine again", lambda: 3, lambda out: None),
    ]
    result = run_ops(ops)
    assert result["attempted"] == 4
    assert result["failed"] == 2
    assert result["failures"] == ["raises: ValueError: deliberate", "wrong: wrong output"]


def test_speed_probe_samples_while_running_and_accounts_its_time():
    probe = SpeedProbe()
    probe.start()
    try:
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < 800_000_000:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.times) >= 2
    assert sum(probe.times) <= probe.spent_ns < time.perf_counter_ns() - t0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_times_are_scaled_to_the_reference_speed():
    # a host running at half the reference speed: probes and batch take twice as long
    result = {"ready_ns": 600_000_000, "setup_probe_s": 2 * run.REFERENCE_S, "wall_s": 8.0,
              "batch_probe_s": 2 * run.REFERENCE_S}
    run.scale(result, spawned_ns=0, setup_only=False)
    assert result["setup_raw_s"] == 0.6 and result["wall_raw_s"] == 8.0
    assert abs(result["setup_s"] - 0.3) < 1e-12 and abs(result["wall_s"] - 4.0) < 1e-12

    traced = {"ready_ns": 600_000_000, "setup_probe_s": 2 * run.REFERENCE_S, "wall_s": 8.0}
    run.scale(traced, spawned_ns=0, setup_only=False)
    assert traced["wall_raw_s"] == 8.0 and "wall_s" not in traced


def test_gates_reject_wrong_outputs():
    report = unimap.experiments.verify_decomposition_identity(5, 1)
    assert workloads._census_check("decomposition-identity", 1)(report).startswith("payload sha256")
    transfer = unimap.experiments.verify_substitution_transfer(instances=3, seed=1)
    assert workloads.transfer_check(transfer) is None


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
