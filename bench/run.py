"""Benchmark of cornellbound: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: phase-ladder, mesh-table, compare-sweep (see bench/README.md).
The run repeats the workload's round of operations as often as it fits in
S seconds (at least once), checks every round's outputs, and prints one
JSON line last: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a further round runs with spans
recorded at every layer boundary and the metrics are the per-layer ones.
The library is imported from the checkout's `src/`; OpenBLAS runs on one
thread in this process and in every process it starts.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = "1"
SETUP_PROBES = 5
BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("phase-ladder", "mesh-table", "compare-sweep")


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_library() -> float:
    """Import the checkout's library; returns the import time in ms."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cornellbound.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    if Path(cornellbound.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"cornellbound was imported from {cornellbound.cli.__file__}, not from {SRC}")
    return import_ms


def setup_seconds() -> float:
    """Median over fresh interpreters of start -> imports done + warm-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py")],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
    return statistics.median(samples)


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated within the sample (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_blas_threads()
    import_ms = import_library()
    from setup_probe import warm_up

    warm_up()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.workload == "phase-ladder":
            workload = workloads.PhaseLadder(args.seed)
        elif args.workload == "mesh-table":
            workload = workloads.MeshTable(args.seed)
        else:
            workload = workloads.CompareSweep(args.seed, Path(tmp))
        setup_s = None if args.trace else setup_seconds()

        # whole rounds, as many as fit in the window (at least one): the
        # next round starts only if a round as long as the last one ends in it
        rounds = []
        t_start = time.perf_counter()
        while not rounds or time.perf_counter() - t_start + rounds[-1][2] <= args.seconds:
            rounds.append(workloads.run_round(workload))
        untraced_wall = statistics.median(r[2] for r in rounds)

        if args.trace:
            from tracer import Tracer, layer_metrics

            with Tracer() as tracer:
                rounds.append(workloads.run_round(workload))
            tracer.write(OUT_DIR / f"trace-{args.workload}.npz")
            metrics = layer_metrics(tracer, len(workload.ops), rounds[-1][2] - untraced_wall, import_ms)

        problems = [p for results, _, _ in rounds for p in workload.check(results)]

    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    results = [res for r in rounds for res in r[0]]
    failed = [res for res in results if not workloads.ok(res)]
    for f in dict.fromkeys(map(repr, failed)):
        print(f"failed operation: {f}", file=sys.stderr)

    if not args.trace:
        op_ms = [ms for r in rounds for res, ms in zip(r[0], r[1]) if workloads.ok(res)]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (untraced_wall, "s"),
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            "op_p90_ms": (percentile(op_ms, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    out = {
        "correct": not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(out)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
