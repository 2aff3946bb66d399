"""Quick self-check of the benchmark, about 20 s: python3 bench/selfcheck.py

Runs every workload's checks on a reduced case set (eight phase ladders,
four mesh rows, one compare pair on a 2000-subinterval grid), shows that
each check rejects a corrupted output, and that a traced pass reports every
per-layer metric with counts that repeat exactly.  Exits 0 when all hold.
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

import run

COUNT_METRICS = [
    "phase_integral.tp_evals_per_level",
    "phase_integral.phase_evals_per_level",
    "phase_integral.L3_evals_per_level",
    "phase_integral.brent_evals_per_level",
    "special.ellip_calls_per_level",
    "numerov.solve_calls",
    "numerov.eig_calls",
    "numerov.eigh_calls",
]


def expect(label: str, ok: bool) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return ok


def main() -> int:
    run.pin_blas_threads()
    run.import_library()
    import workloads
    from tracer import Tracer, layer_metrics

    def round_results(workload):
        return workloads.run_round(workload)[0]

    good = True
    phase = workloads.PhaseLadder(seed=7, per_combo=1)
    res = round_results(phase)
    good &= expect("phase-ladder: reduced round passes", phase.check(res) == [])
    good &= expect("phase-ladder: only the Coulomb cases fail",
                   [c for c, r in zip(phase.ops, res) if not workloads.ok(r)] == [c for c in phase.ops if c in phase.COULOMB])
    bad = [dataclasses.replace(r, A=r.A + 1e-6) if workloads.ok(r) and c.j == 0 else r for c, r in zip(phase.ops, res)]
    good &= expect("phase-ladder: j=0 levels off by 1e-6 are rejected", phase.check(bad) != [])

    mesh = workloads.MeshTable(seed=7, rows=[(0.0, 0), (0.0, 2), (2.0, 2), (5.0, 1)])
    res = round_results(mesh)
    good &= expect("mesh-table: reduced round passes", mesh.check(res) == [])
    values, rates = res[0]
    bad = [([*values[:-1], values[-1] + 3e-3], rates)] + res[1:]
    good &= expect("mesh-table: an N=512 value off by 3e-3 is rejected", mesh.check(bad) != [])

    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        compare = workloads.CompareSweep(seed=7, out_dir=Path(tmp), pairs=[(0.0, 0)], n=2000)
        res = round_results(compare)
        good &= expect("compare-sweep: reduced call passes", compare.check(res) == [])
        good &= expect("compare-sweep: a non-zero exit code is rejected", compare.check([(2, res[0][1])]) != [])

        traced = []
        for _ in range(2):
            with Tracer() as tracer:
                for workload in (phase, mesh, compare):
                    round_results(workload)
            traced.append(layer_metrics(tracer, len(phase.ops) + len(mesh.ops) + len(compare.ops), 0.0, 0.0))
    good &= expect("trace: counts repeat exactly", all(traced[0][k] == traced[1][k] for k in COUNT_METRICS))
    entered = COUNT_METRICS + ["report.compare_sweep_self_ms", "report.write_ms", "report.rate_ms", "cli.main_self_ms"]
    good &= expect("trace: every layer entered", all(traced[0][k][0] > 0 for k in entered))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
