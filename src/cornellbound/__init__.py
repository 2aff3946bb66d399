"""Bound states of the linear-plus-Coulomb radial problem.

Two independent engines for the dimensionless eigenvalue A:

* :mod:`cornellbound.numerov` -- fourth-order Numerov matrix eigenvalues,
* :mod:`cornellbound.phase_integral` -- phase-integral quantization with
  the third-order correction,

built on :mod:`cornellbound.special` (elliptic integrals and Jacobi
elliptic functions) and :mod:`cornellbound.model` (the dimensionless
reduction), cross-validated in :mod:`cornellbound.report`.
"""

from .model import DimensionlessCase, PhysicalParams, Q2_of_z, R_of_z, reduce
from .numerov import Grid, Spectrum, convergence_table, solve, tracked_level
from .phase_integral import QuantizationResult, TurningPoints, chi0_diagnostic, quantize
from .report import ComparisonRow, RunConfig, compare_sweep, rate_M, rate_N

__all__ = [
    "ComparisonRow",
    "DimensionlessCase",
    "Grid",
    "PhysicalParams",
    "Q2_of_z",
    "QuantizationResult",
    "R_of_z",
    "RunConfig",
    "Spectrum",
    "TurningPoints",
    "chi0_diagnostic",
    "compare_sweep",
    "convergence_table",
    "quantize",
    "rate_M",
    "rate_N",
    "reduce",
    "solve",
    "tracked_level",
]

__version__ = "0.1.0"
