"""One batch of a workload, in the fresh interpreter that runs this file.

    python3 perfbench/worker.py --workload census --seed 7 [--trace] [--setup-only]

Imports `unimap` from the checkout's `src`, builds the workload's inputs
from the seed (the set-up), then runs the batch of operations closed-loop
and prints one JSON object on stdout.  `run.py` starts it; it is never
imported by the process that measures.

On a shared host the CPU speed a process gets drifts by tens of percent
within seconds to minutes.  So that `run.py` can report times at a
fixed reference speed, a `SpeedProbe` times a short pure-Python reference
loop, which calls nothing from the package, every PROBE_PERIOD_S seconds
from the start of the set-up to the end of an untraced batch, from a
SIGALRM handler in this (single) thread.  The time spent in probes is taken
out of the set-up and batch times it interrupted.  Traced batches run
without probes, which would add to the spans they interrupt.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROBE_PERIOD_S = 0.25
PROBE_ITERATIONS = 10_000  # about 5 ms on a 2-core x86 host
SETUP_PROBES = 5  # extra probes right after the set-up, which may be short


def reference_loop(iterations: int = PROBE_ITERATIONS) -> int:
    """Fixed pure-Python work, shaped like the package's inner loops:
    tuple keys counted in a dict that outgrows the CPU's small caches."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(iterations):
        key = (i, i * 7 % 13)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class SpeedProbe:
    """Times reference_loop() every PROBE_PERIOD_S s while it is running.

    `times` holds the probe durations in ns; `spent_ns` the whole time the
    probes took, handler included, so that it can be taken out of the
    intervals they interrupted.
    """

    def __init__(self) -> None:
        self.times: list[int] = []
        self.spent_ns = 0

    def probe(self, *_) -> None:
        t0 = time.perf_counter_ns()
        reference_loop()
        t1 = time.perf_counter_ns()
        self.times.append(t1 - t0)
        self.spent_ns += time.perf_counter_ns() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def median_s(times_ns: list[int]) -> float:
    return sorted(times_ns)[len(times_ns) // 2] / 1e9


def run_ops(ops, recorder=None) -> dict:
    """Run the operations one after another and gate each output.

    An exception or a failed gate counts as a failed operation; neither
    stops the batch.  Report payload digests are returned so that a traced
    and an untraced batch of the same inputs can be compared.
    """
    failures: list[str] = []
    digests: list[str] = []
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op_id = i
        out = None
        try:
            out = op.run()
            reason = op.check(out)
        except Exception as exc:  # counted as a failure, the batch goes on
            traceback.print_exc()
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
        if hasattr(out, "payload_json"):
            digests.append(hashlib.sha256(out.payload_json().encode()).hexdigest())
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced spans to this .npz file")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import unimap

    if Path(unimap.__file__).resolve().parent != (ROOT / "src" / "unimap").resolve():
        print(f"imported unimap from {unimap.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    make_inputs, make_ops = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    ops = make_ops(inputs)
    ready_ns = time.monotonic_ns()
    result: dict = {"ready_ns": ready_ns - probe.spent_ns, "inputs": workloads.describe(inputs)}
    for _ in range(SETUP_PROBES):
        probe.probe()
    result["setup_probe_s"] = median_s(probe.times)
    result["probes"] = len(probe.times)
    if args.setup_only:
        probe.stop()
    else:
        recorder = None
        if args.trace:
            from spans import Recorder

            probe.stop()  # a probe would count towards the span it interrupted
            recorder = Recorder()
            recorder.install(callers=(workloads,))
        first_probe, spent0 = len(probe.times), probe.spent_ns
        t0 = time.perf_counter_ns()
        try:
            result.update(run_ops(ops, recorder))
        finally:
            t1 = time.perf_counter_ns()
            probe.stop()
            if recorder is not None:
                recorder.uninstall()
        result["wall_s"] = (t1 - t0 - (probe.spent_ns - spent0)) / 1e9
        if not args.trace:
            result["batch_probe_s"] = median_s(probe.times[first_probe:] or probe.times[-1:])
        result["probes"] = len(probe.times)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if recorder is not None:
            from spans import layer_table

            result["spans"] = len(recorder.start)
            result["layers"] = layer_table(recorder)
            if args.spans:
                recorder.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
