"""Cross-method comparison, convergence-rate diagnostics, and table emission.

The central deliverables are the comparison rows |Delta A| = |A_N - A_PhI|
per (B, l, s, j) and the empirical convergence rates

    N_k = log2(|A_{k-2} - A_{k-1}| / |A_{k-1} - A_k|)
    M_k = log2(|A_{k-1} - A_ref| / |A_k - A_ref|)

computed on mesh-refinement sequences.  Tables are written as CSV (12
significant digits) and full diagnostics as JSON.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field

from . import numerov, phase_integral
from .errors import CornellboundError, DegenerateDifferenceError, DomainError, NonConvergenceError
from .model import DimensionlessCase
from .numerov import Grid

#: the table schema: CSV column (a ComparisonRow field) -> its type, in file order
_COLUMN_TYPES = dict(B=float, l=int, s=int, j=int, A_N=float, A_PhI=float, delta_A=float, residual=float, C_abs=float)
CSV_FIELDS = list(_COLUMN_TYPES)

#: the adopted definition of the dimensionless Coulomb strength, logged in
#: every run header for traceability
B_DEFINITION = "B = (4*mass^2 / (hbar^4 * a))^(1/3) * b  (independent of the energy)"


@dataclass
class ComparisonRow:
    """One (B, l, s, j) case: both methods and their discrepancy."""

    B: float
    l: int
    s: int
    j: int
    A_N: float = math.nan
    A_PhI: float = math.nan
    delta_A: float = math.nan
    residual: float = math.nan
    C_abs: float = math.nan
    u0: complex | None = None
    error: str | None = None


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


#: RunConfig field -> (test of the value, or of each entry of a *_values list; what it must be)
_FIELD_TYPES = {
    "B_values": (_is_real, "a list of finite numbers"),
    "l_values": (_is_int, "a list of integers"),
    "s_values": (_is_int, "a list of integers"),
    "j": (_is_int, "an integer"),
    "z_min": (_is_real, "a finite number"),
    "z_max": (_is_real, "a finite number"),
    "n": (_is_int, "an integer"),
}


@dataclass
class RunConfig:
    """The run spec of every CLI subcommand: the (B, l, s, j) sweep and the grid.

    Values may come from a config file, so every field is checked for its
    type and range here, before any case runs; a bad one is a DomainError.
    """

    B_values: list[float] = field(default_factory=lambda: [0.0, 2.0, 5.0, 10.0])
    l_values: list[int] = field(default_factory=lambda: [0, 1, 2])
    s_values: list[int] = field(default_factory=lambda: [0])
    j: int = 1
    z_min: float = numerov.DEFAULT_Z_MIN
    z_max: float = numerov.DEFAULT_Z_MAX
    n: int = numerov.DEFAULT_N

    def __post_init__(self):
        for name, (check, kind) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if name.endswith("_values"):
                valid = isinstance(value, (list, tuple)) and all(check(v) for v in value)
            else:
                valid = check(value)
            if not valid:
                raise DomainError(f"{name} must be {kind}, got {value!r}")
        if any(b < 0 for b in self.B_values):
            raise DomainError("B values must be non-negative")
        if any(l < 0 for l in self.l_values) or any(s < 0 for s in self.s_values):
            raise DomainError("l and s values must be non-negative")
        if self.j not in (0, 1):
            raise DomainError("j must be 0 or 1")
        self.grid()  # raises DomainError for a bad domain or mesh size

    def grid(self) -> Grid:
        return Grid(self.z_min, self.z_max, self.n)


def rate_N(values) -> list[float]:
    """Empirical mesh-refinement rates from an eigenvalue sequence."""
    values = [float(v) for v in values]
    if len(values) < 3:
        raise DomainError("need at least 3 values for N_k")
    out = []
    for k in range(2, len(values)):
        num = abs(values[k - 2] - values[k - 1])
        den = abs(values[k - 1] - values[k])
        if den == 0.0 or num == 0.0:
            raise DegenerateDifferenceError(f"consecutive values coincide at k={k}")
        out.append(math.log2(num / den))
    return out


def rate_M(values, A_ref: float) -> list[float]:
    """Convergence rates of a sequence toward an external reference value."""
    values = [float(v) for v in values]
    if len(values) < 2:
        raise DomainError("need at least 2 values for M_k")
    out = []
    for k in range(1, len(values)):
        num = abs(values[k - 1] - A_ref)
        den = abs(values[k] - A_ref)
        if den == 0.0 or num == 0.0:
            raise DegenerateDifferenceError(f"value equals the reference at k={k}")
        out.append(math.log2(num / den))
    return out


def compare_case(B: float, l: int, s: int, j: int, A_N: float) -> ComparisonRow:
    """Quantize one case and pair it with a precomputed Numerov level."""
    row = ComparisonRow(B=B, l=l, s=s, j=j, A_N=A_N)
    try:
        res = phase_integral.quantize(DimensionlessCase(B=B, l=l, s=s, j=j))
    except CornellboundError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
        return row
    row.A_PhI = res.A
    row.delta_A = abs(A_N - res.A)
    row.residual = res.residual
    row.C_abs = res.C_abs
    row.u0 = res.u0.as_complex()
    return row


def compare_sweep(config: RunConfig) -> list[ComparisonRow]:
    """One comparison row per (B, l, s, j) of the configured sweep.

    The Numerov spectrum for each (B, l) is computed once and indexed by s
    (the s-th level is the s-th ascending eigenvalue).  Per-case failures
    are recorded in the row instead of aborting the sweep; output order is
    sorted by (B, l, s, j).
    """
    grid = config.grid()
    rows = []
    for B in sorted(config.B_values):
        for l in sorted(config.l_values):
            count = max(config.s_values) + 1
            try:
                spectrum = numerov.solve(DimensionlessCase(B=B, l=l), grid, count)
            except (DomainError, NonConvergenceError) as exc:
                for s in sorted(config.s_values):
                    rows.append(
                        ComparisonRow(B=B, l=l, s=s, j=config.j, error=f"{type(exc).__name__}: {exc}")
                    )
                continue
            for s in sorted(config.s_values):
                rows.append(compare_case(B, l, s, config.j, float(spectrum.eigenvalues[s])))
    rows.sort(key=lambda r: (r.B, r.l, r.s, r.j))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_csv(rows: list[ComparisonRow], path) -> None:
    """UTF-8 CSV with a header row and 12 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for r in rows:
            writer.writerow(
                _fmt(getattr(r, name)) if kind is float else getattr(r, name)
                for name, kind in _COLUMN_TYPES.items()
            )


def read_csv(path) -> list[ComparisonRow]:
    """Parse a CSV written by :func:`write_csv`.

    A header without every column of `CSV_FIELDS`, or a cell that does not
    parse as its column's type, is a DomainError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in CSV_FIELDS if name not in (reader.fieldnames or [])]
        if missing:
            raise DomainError(f"{path} lacks the CSV column(s) {', '.join(missing)}")
        try:
            return [
                ComparisonRow(**{name: kind(rec[name]) for name, kind in _COLUMN_TYPES.items()})
                for rec in reader
            ]
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{path} line {reader.line_num}: {exc}") from exc


def rows_to_json(rows: list[ComparisonRow]) -> list[dict]:
    out = []
    for r in rows:
        d = {name: getattr(r, name) for name in CSV_FIELDS}
        d["error"] = r.error
        if r.u0 is not None:
            d["u0"] = {"re": r.u0.real, "im": r.u0.imag}
        out.append(d)
    return out


def write_json(rows: list[ComparisonRow], path, extra: dict | None = None) -> None:
    """Full per-case diagnostics, one object per case."""
    payload = {"B_definition": B_DEFINITION, "cases": rows_to_json(rows)}
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
