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
from dataclasses import dataclass, field, fields

from . import numerov, phase_integral
from .errors import CornellboundError, DegenerateDifferenceError, DomainError
from .model import DimensionlessCase, is_int, is_real
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


def _checked(default, check, kind: str):
    """A RunConfig field: its default, and the test that its value (each entry
    of a *_values list) must pass, with what that value must be."""
    metadata = {"check": check, "kind": kind}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """The run spec of every CLI subcommand: the (B, l, s, j) sweep and the grid.

    Its fields are the CLI's run values, whether from a flag or a config
    file, so every field is checked for its type and range here, before any
    case runs; a bad one is a DomainError.  At least one s value is needed.
    """

    B_values: list[float] = _checked([0.0, 2.0, 5.0, 10.0], is_real, "a list of finite numbers")
    l_values: list[int] = _checked([0, 1, 2], is_int, "a list of integers")
    s_values: list[int] = _checked([0], is_int, "a list of integers")
    j: int = _checked(1, is_int, "an integer")
    z_min: float = _checked(numerov.DEFAULT_Z_MIN, is_real, "a finite number")
    z_max: float = _checked(numerov.DEFAULT_Z_MAX, is_real, "a finite number")
    n: int = _checked(numerov.DEFAULT_N, is_int, "an integer")

    def __post_init__(self):
        for f in fields(self):
            value, check = getattr(self, f.name), f.metadata["check"]
            if f.name.endswith("_values"):
                valid = isinstance(value, (list, tuple)) and all(check(v) for v in value)
            else:
                valid = check(value)
            if not valid:
                raise DomainError(f"{f.name} must be {f.metadata['kind']}, got {value!r}")
        if any(b < 0 for b in self.B_values):
            raise DomainError("B values must be non-negative")
        if any(l < 0 for l in self.l_values) or any(s < 0 for s in self.s_values):
            raise DomainError("l and s values must be non-negative")
        if not self.s_values:
            raise DomainError("s_values must not be empty")
        if self.j not in (0, 1):
            raise DomainError("j must be 0 or 1")
        self.grid()  # raises DomainError for a bad domain or mesh size

    def grid(self) -> Grid:
        return Grid(self.z_min, self.z_max, self.n)


def _finite(values) -> list[float]:
    values = [float(v) for v in values]
    if not all(map(math.isfinite, values)):
        raise DomainError(f"convergence rates need finite values, got {values}")
    return values


def _log2_ratios(errors: list[float], k0: int, degenerate: str) -> list[float]:
    """log2(e[i - 1] / e[i]) for i >= 1, the rate at k = k0 + i; a zero error is `degenerate` at that k."""
    out = []
    for i in range(1, len(errors)):
        if errors[i] == 0.0 or errors[i - 1] == 0.0:
            raise DegenerateDifferenceError(f"{degenerate} at k={k0 + i}")
        out.append(math.log2(errors[i - 1] / errors[i]))
    return out


def rate_N(values) -> list[float]:
    """Empirical mesh-refinement rates from an eigenvalue sequence."""
    values = _finite(values)
    if len(values) < 3:
        raise DomainError("need at least 3 values for N_k")
    return _log2_ratios([abs(a - b) for a, b in zip(values, values[1:])], 1, "consecutive values coincide")


def rate_M(values, A_ref: float) -> list[float]:
    """Convergence rates of a sequence toward an external reference value."""
    *values, A_ref = _finite([*values, A_ref])
    if len(values) < 2:
        raise DomainError("need at least 2 values for M_k")
    return _log2_ratios([abs(v - A_ref) for v in values], 0, "value equals the reference")


def compare_case(B: float, l: int, s: int, j: int, A_N: float) -> ComparisonRow:
    """Quantize one case and pair it with a precomputed Numerov level."""
    (level,) = phase_integral.quantize_ladder(B, l, j, [s])
    return _paired(ComparisonRow(B=B, l=l, s=s, j=j, A_N=A_N), level)


def _paired(row: ComparisonRow, level) -> ComparisonRow:
    """`row` with its phase-integral level, or the package error that level or its u0 failed with."""
    try:
        if isinstance(level, CornellboundError):
            raise level
        u0 = level.u0.as_complex()  # worked out on this first read
    except CornellboundError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
        return row
    row.A_PhI = level.A
    row.delta_A = abs(row.A_N - level.A)
    row.residual = level.residual
    row.C_abs = level.C_abs
    row.u0 = u0
    return row


def compare_sweep(config: RunConfig) -> list[ComparisonRow]:
    """One comparison row per (B, l, s, j) of the configured sweep, each made by `_paired`.

    The Numerov spectrum for each (B, l) is computed once and indexed by s
    (the s-th level is the s-th ascending eigenvalue), and the
    phase-integral levels of each (B, l, j) come from one ladder walk.  A
    failed Numerov solve is the level of every s of its (B, l), with A_N
    NaN, and no ladder is walked for it.  Per-case failures are recorded in
    the row instead of aborting the sweep; output order is sorted by
    (B, l, s, j).
    """
    grid = config.grid()
    s_values = sorted(config.s_values)
    rows = []
    for B in sorted(config.B_values):
        for l in sorted(config.l_values):
            try:
                spectrum = numerov.solve(DimensionlessCase(B=B, l=l), grid, s_values[-1] + 1)
            except CornellboundError as exc:
                A_N, levels = [math.nan] * len(s_values), [exc] * len(s_values)
            else:
                A_N = [float(spectrum.eigenvalues[s]) for s in s_values]
                levels = phase_integral.quantize_ladder(B, l, config.j, s_values)
            for s, a, level in zip(s_values, A_N, levels):
                rows.append(_paired(ComparisonRow(B=B, l=l, s=s, j=config.j, A_N=a), level))
    rows.sort(key=lambda r: (r.B, r.l, r.s, r.j))  # a repeated B or l value repeats a whole block
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


def dump_json(payload, path) -> None:
    """Write `payload` to `path` as indented UTF-8 JSON, in one write after it is serialized."""
    text = json.dumps(payload, indent=2, default=str) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(rows: list[ComparisonRow], path) -> None:
    """Full per-case diagnostics, one object per case."""
    dump_json({"B_definition": B_DEFINITION, "cases": rows_to_json(rows)}, path)
