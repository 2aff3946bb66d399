"""Dimensionless reduction of the linear-plus-Coulomb radial problem.

The physical potential V(r) = a r - b / r with reduced mass `mass` is
mapped onto the dimensionless radial equation

    psi'' + R(z) psi = 0,
    R(z) = A - z + B/z - l(l+1)/z^2,

through z = (2 mass a / hbar^2)^(1/3) r and A = (2 mass / (hbar^2 a^2))^(1/3) E.
The Coulomb strength is B = (4 mass^2 / (hbar^4 a))^(1/3) b, so that B is a
fixed property of the potential, independent of the energy.

The companion function Q^2(z) replaces l(l+1) by (l + 1/2)^2, which keeps the
Langer limit z^2 [Q^2(z) - R(z)] -> -1/4 as z -> 0, the admissibility
condition for the phase-integral base function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionful inputs: reduced mass, linear slope a, Coulomb strength b."""

    mass: float
    a: float
    b: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.mass <= 0:
            raise DomainError("mass must be positive")
        if self.a <= 0:
            raise DomainError("linear coefficient a must be positive")
        if self.b < 0:
            raise DomainError("Coulomb coefficient b must be non-negative")
        if self.hbar <= 0:
            raise DomainError("hbar must be positive")


def is_real(x) -> bool:
    """A finite real number, numpy scalars included, but not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def is_int(x) -> bool:
    """An integer, numpy scalars included, but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class DimensionlessCase:
    """One quantization problem: Coulomb strength B, angular momentum l,
    radial index s, and the quantization-condition truncation order j."""

    B: float
    l: int
    s: int = 0
    j: int = 1

    def __post_init__(self):
        if not (is_real(self.B) and self.B >= 0):
            raise DomainError(f"B must be a finite non-negative number, got {self.B!r}")
        if not (is_int(self.l) and self.l >= 0):
            raise DomainError(f"l must be a non-negative integer, got {self.l!r}")
        if not (is_int(self.s) and self.s >= 0):
            raise DomainError(f"s must be a non-negative integer, got {self.s!r}")
        if not (is_int(self.j) and self.j in (0, 1)):
            raise DomainError(f"truncation order j must be 0 or 1, got {self.j!r}")

    @property
    def nu(self) -> float:
        """Langer-shifted angular momentum l + 1/2."""
        return self.l + 0.5


def reduce(p: PhysicalParams, E: float) -> tuple[float, float, float]:
    """Map (physical params, energy) to (z scale factor, A, B).

    z_scale multiplies r to give z; A scales linearly with E; B depends on
    the potential only.
    """
    z_scale = (2.0 * p.mass * p.a / p.hbar**2) ** (1.0 / 3.0)
    A = (2.0 * p.mass / (p.hbar**2 * p.a**2)) ** (1.0 / 3.0) * E
    B = (4.0 * p.mass**2 / (p.hbar**4 * p.a)) ** (1.0 / 3.0) * p.b
    return z_scale, A, B


def energy_from_A(p: PhysicalParams, A: float) -> float:
    """Invert the A(E) scaling of :func:`reduce`."""
    return A / (2.0 * p.mass / (p.hbar**2 * p.a**2)) ** (1.0 / 3.0)


def _check_z(z):
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise DomainError("z must be positive")
    return z


def R_of_z(A: float, case: DimensionlessCase, z):
    """R(z) = A - z + B/z - l(l+1)/z^2 for z > 0 (scalar or array)."""
    z = _check_z(z)
    out = A - z + case.B / z - case.l * (case.l + 1) / z**2
    return float(out) if out.ndim == 0 else out


def Q2_of_z(A: float, case: DimensionlessCase, z):
    """Q^2(z) = A - z + B/z - (l + 1/2)^2 / z^2 for z > 0 (scalar or array)."""
    z = _check_z(z)
    out = A - z + case.B / z - case.nu**2 / z**2
    return float(out) if out.ndim == 0 else out
