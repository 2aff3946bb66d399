"""The benchmark workloads: inputs drawn from the seed, one operation, checks.

A workload builds one *round* of operations from its seed; a run repeats
that same round, so every run attempts whole rounds and the share of
failed operations never depends on the run length.  `check` looks at the
outputs of one round with computations that do not go through the
library's own code paths (quadrature, `numpy.roots`, mpmath's Jacobi
functions, Airy zeros) or with properties the methods must have, plus the
published tables.  It returns a list of problems; an empty list means the
round is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from pathlib import Path

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import ai_zeros

from cornellbound import cli, numerov, phase_integral, report
from cornellbound.model import DimensionlessCase
from cornellbound.numerov import Grid

from reference import FOURTH_ORDER_ROWS, TABLE1, TABLE1_NS, TABLE1_Z_MAX, TABLE1_Z_MIN, TABLE2


class Failed:
    """An operation that raised; kept in place of its result."""

    def __init__(self, exc: Exception):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __repr__(self) -> str:
        return f"{self.kind}: {self.message}"


def ok(result) -> bool:
    return not isinstance(result, Failed)


def run_round(workload):
    """All operations of one round: (results, per-op ms, round wall s)."""
    results, op_ms = [], []
    r0 = time.perf_counter()
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            res = workload.run(op)
        except Exception as exc:  # counted as a failed operation
            res = Failed(exc)
        op_ms.append((time.perf_counter() - t0) * 1e3)
        results.append(res)
    return results, op_ms, time.perf_counter() - r0


def turning_points(A: float, B: float, l: int) -> tuple[float, float, float]:
    """Zeros x0 < x1 < x2 of z^2 Q^2(z) = -z^3 + A z^2 + B z - (l+1/2)^2."""
    roots = np.roots([-1.0, A, B, -((l + 0.5) ** 2)])
    if np.max(np.abs(roots.imag)) > 1e-9 * np.max(np.abs(roots)):
        raise ValueError(f"complex turning points for A={A}, B={B}, l={l}")
    x0, x1, x2 = np.sort(roots.real)
    return float(x0), float(x1), float(x2)


def phase_by_quadrature(A: float, B: float, l: int) -> float:
    """Integral of sqrt(Q^2) between the two positive turning points."""
    _, x1, x2 = turning_points(A, B, l)
    nu2 = (l + 0.5) ** 2

    def root_q2(z):
        return math.sqrt(max(A - z + B / z - nu2 / (z * z), 0.0))

    val, _ = quad(root_q2, x1, x2, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def boundary_term_mpmath(u0: complex, A: float, B: float, l: int) -> float:
    """|C(u0)| from the paper's formula with mpmath's Jacobi functions.

    m and alpha^2 come from the turning points of `numpy.roots`, not from
    the library.
    """
    x0, x1, x2 = turning_points(A, B, l)
    m = (x2 - x1) / (x2 - x0)
    a2 = (x2 - x1) / x2
    sn = mpmath.ellipfun("sn", u0, m=m)
    cn = mpmath.ellipfun("cn", u0, m=m)
    dn = mpmath.ellipfun("dn", u0, m=m)
    F = (m * m + m) * cn**4 - m * m + 1 + (a2 - 1) * (2 * m - 1) * (m * sn**4 - 1) / (1 - m) ** 2
    G = (m**3 - 3 * m**2 + 2 * m + m * (m * m - 1) * a2) / (1 - m) ** 2
    return float(abs(F / (cn * dn * sn) + G * cn * sn / dn))


class PhaseLadder:
    """About 1000 `phase_integral.quantize` calls; one operation is one level.

    48 ladders (B, l, j), each quantized for s = 0 ... 20: every (l, j) with
    l = 0 ... 3 and j = 0, 1 gets `per_combo` ladders whose B are drawn from
    the seed, one uniform in each of `per_combo` equal strata of [0, 20]
    (so the mix of costly and cheap levels, and the run time, hardly
    depends on the seed).  Added: the nine published Table 2 cases at both
    orders and four Coulomb-dominated cases (B = 200, 400; l = s = 0;
    j = 0, 1) that fail at present and are counted as failed.
    """

    PER_COMBO = 6
    B_MAX = 20.0
    S_MAX = 20
    COULOMB = [DimensionlessCase(B=B, l=0, s=0, j=j) for B in (200.0, 400.0) for j in (0, 1)]
    QUAD_SAMPLE = 40
    C_SAMPLE = 24

    def __init__(self, seed: int, per_combo: int = PER_COMBO):
        rng = random.Random(seed)
        self.seed = seed
        width = self.B_MAX / per_combo
        self.ladders = [
            (rng.uniform(k * width, (k + 1) * width), l, j)
            for l in range(4)
            for j in (0, 1)
            for k in range(per_combo)
        ]
        ops = [DimensionlessCase(B=B, l=l, s=s, j=j) for B, l, j in self.ladders for s in range(self.S_MAX + 1)]
        ops += [DimensionlessCase(B=B, l=l, s=0, j=j) for B, l in TABLE2 for j in (0, 1)]
        ops += self.COULOMB
        rng.shuffle(ops)
        self.ops = ops

    def run(self, case):
        return phase_integral.quantize(case)

    def check(self, results: list) -> list[str]:
        problems = []
        by_case = {case: res for case, res in zip(self.ops, results)}
        for case, res in by_case.items():
            if not ok(res) and case not in self.COULOMB:
                problems.append(f"{case}: unexpected failure {res!r}")
            elif ok(res) and not res.C_abs <= 1e-8:
                problems.append(f"{case}: reported |C(u0)| = {res.C_abs:.3e}")
        good = [(case, res) for case, res in by_case.items() if ok(res)]
        rng = random.Random(self.seed + 1)

        # the leading-order condition, independently: quadrature of sqrt(Q^2)
        j0 = [(c, r) for c, r in good if c.j == 0]
        for case, res in rng.sample(j0, min(self.QUAD_SAMPLE, len(j0))):
            target = (case.s + 0.5) * math.pi
            try:
                val = phase_by_quadrature(res.A, case.B, case.l)
            except ValueError as exc:
                problems.append(f"{case}: {exc}")
                continue
            if abs(val - target) > 1e-9 * target:
                problems.append(f"{case}: quadrature phase {val!r} vs (s+1/2)pi = {target!r}")

        # the base point, independently: C(u0) with mpmath's sn, cn, dn
        for case, res in rng.sample(good, min(self.C_SAMPLE, len(good))):
            try:
                c_abs = boundary_term_mpmath(res.u0.as_complex(), res.A, case.B, case.l)
            except ValueError as exc:
                problems.append(f"{case}: {exc}")
                continue
            if not c_abs <= 1e-8:
                problems.append(f"{case}: mpmath |C(u0)| = {c_abs:.3e}")

        # A strictly increases with s on every ladder
        for B, l, j in self.ladders:
            levels = [by_case[DimensionlessCase(B=B, l=l, s=s, j=j)] for s in range(self.S_MAX + 1)]
            values = [r.A for r in levels if ok(r)]
            if any(b <= a for a, b in zip(values, values[1:])):
                problems.append(f"ladder B={B} l={l} j={j}: A not increasing in s")

        # at j = 0, A decreases with B for fixed (l, s)
        groups: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for case, res in j0:
            groups.setdefault((case.l, case.s), []).append((case.B, res.A))
        for (l, s), pts in groups.items():
            pts.sort()
            for (b1, a1), (b2, a2) in zip(pts, pts[1:]):
                if b2 > b1 and not a2 < a1:
                    problems.append(f"j=0 l={l} s={s}: A({b2}) = {a2} not below A({b1}) = {a1}")

        # published leading-order values
        for (B, l), (_, a_phi) in TABLE2.items():
            res = by_case[DimensionlessCase(B=B, l=l, s=0, j=0)]
            if not ok(res) or abs(res.A - a_phi) > 1e-3:
                problems.append(f"Table 2 B={B} l={l}: {res!r} vs published {a_phi}")
        return problems


class MeshTable:
    """The published Table 1: 12 (B, l) rows at N = 8 ... 512 on [1e-5, 20].

    One operation is one row: `numerov.tracked_level` on each of the seven
    grids plus `report.rate_N` on the row.  The seed fixes the row order.
    """

    def __init__(self, seed: int, rows=None):
        ops = list(rows if rows is not None else TABLE1)
        random.Random(seed).shuffle(ops)
        self.ops = ops
        self.grids = [Grid(TABLE1_Z_MIN, TABLE1_Z_MAX, n) for n in TABLE1_NS]

    def run(self, row):
        B, l = row
        case = DimensionlessCase(B=B, l=l)
        values = [numerov.tracked_level(case, g) for g in self.grids]
        return values, report.rate_N(values)

    def check(self, results: list) -> list[str]:
        problems = []
        for row, res in zip(self.ops, results):
            if not ok(res):
                problems.append(f"row {row}: unexpected failure {res!r}")
                continue
            values, rates = res
            if abs(values[-1] - TABLE1[row][-1]) > 2e-3:
                problems.append(f"row {row}: N=512 value {values[-1]} vs published {TABLE1[row][-1]}")
            if row == (0.0, 0):
                airy = float(-ai_zeros(1)[0][0])
                if abs(values[-1] - airy) > 1e-4:
                    problems.append(f"row {row}: N=512 value {values[-1]} vs first Airy zero {airy}")
            if row in FOURTH_ORDER_ROWS and abs(rates[-1] - 4.0) > 0.5:
                problems.append(f"row {row}: terminal rate {rates[-1]} not within 0.5 of 4")
        return problems


class CompareSweep:
    """In-process `cornellbound compare` calls; one operation is one call.

    Each call sweeps one published Table 2 (B, l) pair over s = 0 ... 2 at
    j = 1 on n = 5000 subintervals of [1e-4, 50] (the CLI's default grid,
    passed explicitly) and writes CSV + JSON.  A round is two calls:
    B = 0, l = 0, whose levels are known exactly, and one of the other
    eight pairs, chosen by the seed.  One call alone varied 12% between
    runs; two per round halve the variance of the median.
    """

    Z_MIN = 1e-4
    Z_MAX = 50.0
    N = 5000
    S_VALUES = (0, 1, 2)

    def __init__(self, seed: int, out_dir: Path, pairs=None, n: int = N):
        if pairs is None:
            pairs = [(0.0, 0), random.Random(seed).choice([p for p in TABLE2 if p != (0.0, 0)])]
        self.ops = list(pairs)
        self.out_dir = out_dir
        self.n = n
        self._calls = 0

    def run(self, pair):
        B, l = pair
        self._calls += 1
        out = self.out_dir / f"compare-{self._calls}.csv"
        argv = ["compare", "-B", repr(B), "-l", str(l), "-s", ",".join(map(str, self.S_VALUES)),
                "--order", "1", "--zmin", repr(self.Z_MIN), "--zmax", repr(self.Z_MAX),
                "--grid", str(self.n), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return rc, out

    def check(self, results: list) -> list[str]:
        problems = []
        for (B, l), res in zip(self.ops, results):
            if not ok(res):
                problems.append(f"pair {(B, l)}: unexpected failure {res!r}")
                continue
            rc, out = res
            if rc != 0:
                problems.append(f"pair {(B, l)}: exit code {rc}")
                continue
            try:
                rows = report.read_csv(out)
                with open(f"{out}.json", encoding="utf-8") as fh:
                    cases = json.load(fh)["cases"]
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"pair {(B, l)}: outputs unreadable: {exc!r}")
                continue
            if [r.s for r in rows] != list(self.S_VALUES) or len(cases) != len(rows):
                problems.append(f"pair {(B, l)}: {len(rows)} CSV rows, {len(cases)} JSON cases")
                continue
            if (B, l) == (0.0, 0):
                # Dirichlet wall at z_min shifts the Airy levels exactly
                zeros = -ai_zeros(len(rows))[0]
                for r, a in zip(rows, zeros):
                    if abs(r.A_N - (a + self.Z_MIN)) > 1e-6:
                        problems.append(f"B=0 l=0 s={r.s}: A_N {r.A_N} vs Airy {a + self.Z_MIN}")
            a_n_ref = TABLE2[(B, l)][0]
            if abs(rows[0].A_N - a_n_ref) > 1e-3:
                problems.append(f"pair {(B, l)}: A_N {rows[0].A_N} vs published {a_n_ref}")
            for r in rows:
                a_j0 = phase_integral.quantize(DimensionlessCase(B=B, l=l, s=r.s, j=0)).A
                if not abs(r.A_N - r.A_PhI) < abs(r.A_N - a_j0):
                    problems.append(f"pair {(B, l)} s={r.s}: j=1 not closer to A_N than j=0")
        return problems
