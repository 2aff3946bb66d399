"""In-memory span tracing around the library's layer boundaries.

The benchmark never edits the library: while a :class:`Tracer` is installed
it replaces the public functions of `cli`, `report`, `numerov`,
`phase_integral` and `special` (module attributes, plus the names
`phase_integral` imported from `special`) with wrappers that record one
span each.  A span is (name, start, end, parent); spans live in flat
arrays and are written out once, when the traced pass ends.  Layer self
times are derived from the spans afterwards.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from cornellbound import cli, numerov, phase_integral, report, special

ELLIP = ("ellip_K", "ellip_E", "ellip_Pi")
MATRIX_METHODS = ("kinetic_matrix", "b_matrix", "left_matrix", "symmetric_operator")

# (owner, attribute, span name); an attribute is replaced for the traced pass
TARGETS = [
    (cli, "main", "cli.main"),
    (report, "compare_sweep", "report.compare_sweep"),
    (report, "compare_case", "report.compare_case"),
    (report, "write_csv", "report.write_csv"),
    (report, "write_json", "report.write_json"),
    (report, "rate_N", "report.rate_N"),
    (numerov, "solve", "numerov.solve"),
    (numerov, "assemble", "numerov.assemble"),
    (numerov, "eig", "numerov.eig"),
    (numerov, "eigh", "numerov.eigh"),
    *[(numerov.NumerovSystem, m, f"numerov.{m}") for m in MATRIX_METHODS],
    (phase_integral, "quantize", "phase_integral.quantize"),
    (phase_integral, "turning_points_from_x2", "phase_integral.turning_points_from_x2"),
    (phase_integral, "L1_closed", "phase_integral.L1_closed"),
    (phase_integral, "L3_closed", "phase_integral.L3_closed"),
    (phase_integral, "solve_u0", "phase_integral.solve_u0"),
    (phase_integral, "brentq", "phase_integral.brentq"),
    *[(special, f, f"special.{f}") for f in ELLIP],
    *[(phase_integral, f, f"special.{f}") for f in ELLIP],
    (special, "inverse_sn", "special.inverse_sn"),
]


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self._ids: dict[str, int] = {}  # span name -> id, in first-seen order
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.brent_evals = 0  # objective calls made inside brentq
        self.dense_bytes = 0  # bytes of the matrices NumerovSystem methods return
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _counting_brentq(self, brentq):
        def traced_brentq(f, *args, **kwargs):
            def objective(x):
                self.brent_evals += 1
                return f(x)

            return brentq(objective, *args, **kwargs)

        return traced_brentq

    def _sizing(self, method):
        def sized(*args, **kwargs):
            out = method(*args, **kwargs)
            self.dense_bytes += out.nbytes
            return out

        return sized

    def __enter__(self) -> Tracer:
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            fn = original
            if attr == "brentq":
                fn = self._counting_brentq(original)
            elif attr in MATRIX_METHODS:
                fn = self._sizing(original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(list(self._ids)),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (span count, inclusive ms, self ms) summed over all spans."""
        a = self.arrays()
        if len(a["start_ns"]) == 0:
            return {}
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        out = {}
        for name, nid in self._ids.items():
            sel = a["name_id"] == nid
            out[name] = (int(sel.sum()), float(dur[sel].sum()) / 1e6, float(own[sel].sum()) / 1e6)
        return out


def layer_metrics(tracer: Tracer, ops: int, overhead_s: float, import_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass of `ops` operations.

    Times are per operation; counts per level are per `quantize` call.
    Self times (`*_self_ms`, `scan_ms`, the elliptic and matrix sums) come
    from the span tree, so nested calls are not counted twice.
    """
    t = tracer.totals()

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def incl(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[2] for n in names)

    levels = calls("phase_integral.quantize")
    tp = calls("phase_integral.turning_points_from_x2")
    l1 = calls("phase_integral.L1_closed")

    def per_level(x):
        return x / levels if levels else 0.0

    def per_op(x):
        return x / ops

    ellip = [f"special.{f}" for f in ELLIP]
    matrix = [f"numerov.{m}" for m in MATRIX_METHODS]
    quantize_ms = incl("phase_integral.quantize")
    brent_ms = incl("phase_integral.brentq")
    u0_ms = incl("phase_integral.solve_u0")
    return {
        "phase_integral.quantize_ms": (per_op(quantize_ms), "ms/op"),
        "phase_integral.tp_evals_per_level": (per_level(tp), "1/level"),
        "phase_integral.phase_evals_per_level": (per_level(l1), "1/level"),
        "phase_integral.L3_evals_per_level": (per_level(calls("phase_integral.L3_closed")), "1/level"),
        "phase_integral.valid_eval_ratio": (l1 / tp if tp else 0.0, "ratio"),
        "phase_integral.brent_ms": (per_op(brent_ms), "ms/op"),
        "phase_integral.brent_evals_per_level": (per_level(tracer.brent_evals), "1/level"),
        "phase_integral.scan_ms": (per_op(quantize_ms - brent_ms - u0_ms), "ms/op"),
        "phase_integral.u0_ms": (per_op(u0_ms), "ms/op"),
        "special.ellip_calls_per_level": (per_level(sum(calls(n) for n in ellip)), "1/level"),
        "special.ellip_ms": (per_op(own(*ellip)), "ms/op"),
        "special.inverse_sn_ms": (per_op(incl("special.inverse_sn")), "ms/op"),
        "numerov.solve_calls": (per_op(calls("numerov.solve")), "1/op"),
        "numerov.solve_ms": (per_op(incl("numerov.solve")), "ms/op"),
        "numerov.assemble_ms": (per_op(incl("numerov.assemble")), "ms/op"),
        "numerov.operator_ms": (per_op(own(*matrix)), "ms/op"),
        "numerov.eig_ms": (per_op(incl("numerov.eig")), "ms/op"),
        "numerov.eig_calls": (per_op(calls("numerov.eig")), "1/op"),
        "numerov.eigh_ms": (per_op(incl("numerov.eigh")), "ms/op"),
        "numerov.eigh_calls": (per_op(calls("numerov.eigh")), "1/op"),
        "numerov.dense_mb": (per_op(tracer.dense_bytes / 2**20), "MiB/op"),
        "report.compare_sweep_self_ms": (per_op(own("report.compare_sweep", "report.compare_case")), "ms/op"),
        "report.write_ms": (per_op(incl("report.write_csv", "report.write_json")), "ms/op"),
        "report.rate_ms": (per_op(incl("report.rate_N")), "ms/op"),
        "cli.main_self_ms": (per_op(own("cli.main")), "ms/op"),
        "cli.import_ms": (import_ms, "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }
