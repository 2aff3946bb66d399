"""Phase-integral quantization for the linear-plus-Coulomb problem.

-Q^2 has three real zeros x0 < 0 < x1 < x2; the classically allowed region
is (x1, x2).  Writing x0 = S - T, x1 = S + T with

    S = (l+1/2)^2 / (2 x2^2) - B / (2 x2),   T^2 = S^2 + (l+1/2)^2 / x2,

every quantity of the quantization condition becomes a function of x2
alone:  d^2 = x2 - x0,  m = k^2 = (x2 - x1)/(x2 - x0),  alpha^2 =
(x2 - x1)/x2.  The leading integral L1 reduces to complete elliptic
integrals; the third-order correction L3 reduces to

    L3 = [Acal(m, a2) E(m) + Bcal(m, a2) K(m)] / (12 d^3 m alpha^2)

once the complex base point u0 of the underlying contour is chosen so the
boundary term C(u0, m, alpha^2) vanishes; u0 comes from a quadratic in
sn^2(u0).  The level follows from solving L1 (+ L3) = (s + 1/2) pi for x2
and A = x2 - B/x2 + (l+1/2)^2/x2^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from . import special
from .errors import BracketError, CornellboundError, DomainError, NoValidRootError, OrderingError
from .model import DimensionlessCase, Q2_of_z, R_of_z
from .special import ComplexPoint, ellip_E, ellip_K, ellip_Pi, jacobi_complex

# tolerances of the verified post-conditions
C_TOL = 1e-8
RESIDUAL_TOL = 1e-10
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class TurningPoints:
    """The zeros x0 < 0 < x1 < x2 of -Q^2 and their derived parameters."""

    x0: float
    x1: float
    x2: float
    S: float
    T: float
    d2: float
    k2: float
    alpha2: float

    @property
    def m(self) -> float:
        return self.k2

    @property
    def d3(self) -> float:
        return self.d2**1.5


@dataclass(frozen=True)
class QuantizationResult:
    """A converged phase-integral level with its verification data."""

    case: DimensionlessCase
    x2: float
    A: float
    u0: ComplexPoint
    residual: float
    C_abs: float
    turning_points: TurningPoints


def turning_points_from_x2(x2: float, case: DimensionlessCase) -> TurningPoints:
    """Resolve the full turning-point structure from the outer zero x2.

    Raises OrderingError when the required ordering 0 < x1 < x2 fails,
    i.e. when this x2 does not support a two-turning-point well.
    """
    if x2 <= 0.0:
        raise DomainError("x2 must be positive")
    nu2 = case.nu**2
    S = nu2 / (2.0 * x2**2) - case.B / (2.0 * x2)
    T = math.sqrt(S * S + nu2 / x2)
    x1 = S + T
    x0 = S - T
    if not (0.0 < x1 < x2):
        raise OrderingError(f"no ordering 0 < x1 < x2 at x2={x2} (x1={x1})")
    d2 = x2 - x0
    k2 = (x2 - x1) / d2
    alpha2 = (x2 - x1) / x2
    return TurningPoints(x0=x0, x1=x1, x2=x2, S=S, T=T, d2=d2, k2=k2, alpha2=alpha2)


def _f1(m: float, a2: float) -> float:
    """Coefficient f1(m, alpha^2) of the closed-form L1."""
    return 2.0 * m * ((1.0 - m) * a2**2 + 3.0 * m * m * (a2 - 1.0)) / (3.0 * a2**2)


def L1_closed(tp: TurningPoints) -> float:
    """Leading quantization integral in closed elliptic form."""
    m, a2 = tp.m, tp.alpha2
    if abs(a2 - m) < DEGENERACY_TOL:
        raise DomainError("alpha^2 = m is a pole of the complementary characteristic")
    ap2 = a2 * (1.0 - m) / (a2 - m)
    K = ellip_K(m)
    E = ellip_E(m)
    return tp.d3 * (
        _f1(m, a2) * (K - E) / m
        + _f1(1.0 - m, ap2) * E / (1.0 - m)
        + 2.0 * m * (1.0 - m) * (a2 - 1.0) / (a2 * ap2) * ellip_Pi(a2, m)
    )


class L3Coefficients(NamedTuple):
    A_cal: float
    B_cal: float
    G: float


def L3_coefficients(m: float, alpha2: float) -> L3Coefficients:
    """Assembled coefficients of the L3 reduction.

    Acal and Bcal multiply E(m) and K(m) in the closed L3; G is the
    coefficient of cn sn / dn in the boundary term.
    """
    if abs(m - 1.0) < DEGENERACY_TOL:
        raise DomainError("L3 coefficients degenerate at m = 1")
    a2 = alpha2
    A_cal = -(2.0 * m**3 - (a2 + 3.0) * m**2 + (4.0 * a2 - 3.0) * m + 2.0 - a2) / (1.0 - m) ** 2
    B_cal = (-(m**2) + 2.0 * (a2 - 1.0) * m + 2.0 - a2) / (1.0 - m)
    G = (m**3 - 3.0 * m**2 + 2.0 * m + m * (m * m - 1.0) * a2) / (1.0 - m) ** 2
    return L3Coefficients(A_cal, B_cal, G)


def _boundary_numerator(u0: complex, m: float, alpha2: float) -> complex:
    """Numerator F(u0, m, alpha^2) of the sn cn dn pole part of C."""
    sn, cn, _ = jacobi_complex(u0, m)
    return (
        (m * m + m) * cn**4
        - m * m
        + 1.0
        + (alpha2 - 1.0) * (2.0 * m - 1.0) * (m * sn**4 - 1.0) / (1.0 - m) ** 2
    )


def C_term(u0, m: float, alpha2: float) -> complex:
    """Boundary term C(u0, m, alpha^2) of the L3 reduction.

    C = F(u0)/(cn dn sn) + G * cn sn / dn; the quantization is consistent
    only at points u0 where C vanishes.
    """
    if abs(m - 1.0) < DEGENERACY_TOL:
        raise DomainError("C term degenerate at m = 1")
    u0 = special._u_value(u0)
    sn, cn, dn = jacobi_complex(u0, m)
    if min(abs(sn), abs(cn), abs(dn)) < special.SINGULAR_TOL:
        raise special.SingularPointError(f"sn, cn, dn must be nonzero at u0 = {u0}")
    G = L3_coefficients(m, alpha2).G
    return _boundary_numerator(u0, m, alpha2) / (cn * dn * sn) + G * cn * sn / dn


def solve_u0_kappas(m: float, alpha2: float) -> tuple[float, float, float]:
    """Coefficients of the quadratic kappa2 x^2 + kappa1 x + kappa0 = 0
    satisfied by x = sn^2(u0) at the zeros of C."""
    k2 = m**4 - 2.0 * m**3 + (2.0 - m) * m**2 * alpha2
    k1 = -2.0 * m**4 + 3.0 * m**3 - m**2 + m * (m * m - 1.0) * alpha2
    k0 = m * (m * m - m + 1.0) + (1.0 - 2.0 * m) * alpha2
    return k2, k1, k0


def solve_u0(m: float, alpha2: float) -> ComplexPoint:
    """A base point u0 in the complex plane with C(u0, m, alpha^2) = 0.

    The quadratic in sn^2(u0) has two roots; each root has two square
    roots.  The four branches are tried in a fixed order and the first one
    passing verification (|C| <= 1e-8, sn/cn/dn all nonzero) wins, which
    makes the returned point deterministic.
    """
    if abs(m - 1.0) < DEGENERACY_TOL:
        # kappa2 = alpha^2 - 1, kappa1 = 0, kappa0 = 1 - alpha^2:
        # sn^2(u0) = -1, and sn(u0, 1) = i gives u0 = i pi/4.
        return ComplexPoint(0.0, math.pi / 4.0)
    k2, k1, k0 = solve_u0_kappas(m, alpha2)
    if abs(k2) < DEGENERACY_TOL:
        raise DomainError("kappa2 vanishes; quadratic branch selection undefined")
    disc = cmath.sqrt(complex(k1 * k1 - 4.0 * k0 * k2))
    failures = []
    for x in ((-k1 + disc) / (2.0 * k2), (-k1 - disc) / (2.0 * k2)):
        root = cmath.sqrt(x)
        for w in (root, -root):
            try:
                u0 = special.inverse_sn(w, m)
                sn, cn, dn = jacobi_complex(u0, m)
                if min(abs(sn), abs(cn), abs(dn)) < special.SINGULAR_TOL:
                    failures.append((w, "vanishing Jacobi function"))
                    continue
                c_abs = abs(C_term(u0, m, alpha2))
                if c_abs <= C_TOL:
                    return u0
                failures.append((w, f"|C| = {c_abs:.3e}"))
            except CornellboundError as exc:  # branch invalid; try the next one
                failures.append((w, repr(exc)))
    raise NoValidRootError(f"no C = 0 base point for m={m}, alpha2={alpha2}: {failures}")


def L3_closed(tp: TurningPoints) -> float:
    """Third-order quantization integral at the C = 0 base point.

    L3 = [Acal E(m) + Bcal K(m)] / (12 d^3 m alpha^2); real by
    construction once the boundary term has been removed.
    """
    m, a2 = tp.m, tp.alpha2
    coeffs = L3_coefficients(m, a2)
    return (coeffs.A_cal * ellip_E(m) + coeffs.B_cal * ellip_K(m)) / (12.0 * tp.d3 * m * a2)


def A_from_x2(x2: float, case: DimensionlessCase) -> float:
    """A = x2 - B/x2 + (l+1/2)^2/x2^2, from Q^2(x2) = 0."""
    return x2 - case.B / x2 + case.nu**2 / x2**2


def _phase_sum(x2: float, case: DimensionlessCase) -> float:
    tp = turning_points_from_x2(x2, case)
    total = L1_closed(tp)
    if case.j == 1:
        total += L3_closed(tp)
    return total


def quantize(case: DimensionlessCase) -> QuantizationResult:
    """Solve the truncated quantization condition for the level of `case`.

    Finds the x2 with L1 (+ L3 for j = 1) = (s + 1/2) pi by a geometric
    bracket scan plus Brent refinement, then reconstructs A and verifies
    the boundary-term base point.
    """
    target = (case.s + 0.5) * math.pi

    def phase_residual(x2: float) -> float:
        return _phase_sum(x2, case) - target

    def f(x2: float) -> float | None:
        """The scan's view of `phase_residual`: None where x2 admits no level."""
        try:
            return phase_residual(x2)
        except (OrderingError, DomainError):
            return None

    cap = max(10.0, 3.0 * (case.s + 1.0) + case.B)
    bracket = None
    while bracket is None:
        npts = max(200, int(120 * math.log10(cap / 1e-6)))
        prev = None
        last_invalid = None
        for x in np.geomspace(1e-6, cap, npts):
            v = f(x)
            if v is None:
                prev = None
                last_invalid = x
                continue
            if prev is None and v > 0.0 and last_invalid is not None:
                # the scan stepped over the negative sliver at the floor of
                # the valid region; bisect toward the floor (f -> -target
                # or -inf there) until a negative sample appears
                lo, hi = last_invalid, x
                for _ in range(200):
                    mid = math.sqrt(lo * hi)
                    vm = f(mid)
                    if vm is None:
                        lo = mid
                    elif vm > 0.0:
                        hi, v, x = mid, vm, mid
                    else:
                        prev = (mid, vm)
                        break
                if prev is None:
                    break  # sliver unresolvable; widen the cap and retry
            if prev is not None and prev[1] * v < 0.0:
                bracket = (prev[0], x)
                break
            prev = (x, v)
            if v > 0.0:
                break  # phase sum is increasing; no need to scan further
        if bracket is None:
            if cap >= 1e6:
                raise BracketError(f"no quantization bracket found for {case} up to x2 = {cap}")
            cap *= 2.0

    # both bracket ends are valid; an invalid point inside the bracket
    # raises OrderingError/DomainError out of brentq
    x2 = brentq(phase_residual, bracket[0], bracket[1], xtol=1e-14, rtol=4.0 * np.finfo(float).eps)
    residual = abs(phase_residual(x2))
    if residual > RESIDUAL_TOL:
        raise BracketError(f"quantization residual {residual} above {RESIDUAL_TOL}")

    tp = turning_points_from_x2(x2, case)
    u0 = solve_u0(tp.m, tp.alpha2)
    c_abs = abs(C_term(u0, tp.m, tp.alpha2))
    return QuantizationResult(
        case=case,
        x2=x2,
        A=A_from_x2(x2, case),
        u0=u0,
        residual=residual,
        C_abs=c_abs,
        turning_points=tp,
    )


def chi0_diagnostic(A: float, case: DimensionlessCase, z_samples) -> float:
    """Max |chi0| over the samples: the smallness gauge of the base function.

    chi0 = [5 (dQ^2/dz)^2 - 4 Q^2 d^2Q^2/dz^2] / (16 Q^6) + R/Q^2 - 1,
    with the derivatives of Q^2 taken analytically.  Samples at (or too
    close to) a zero of Q^2 are rejected.
    """
    z = np.asarray(z_samples, dtype=float)
    if z.ndim == 0:
        z = z[None]
    if np.any(z <= 0.0):
        raise DomainError("z samples must be positive")
    q2 = Q2_of_z(A, case, z)
    if np.any(np.abs(q2) < 1e-9):
        raise DomainError("a z sample lies at a zero of Q^2")
    nu2 = case.nu**2
    dq2 = -1.0 - case.B / z**2 + 2.0 * nu2 / z**3
    d2q2 = 2.0 * case.B / z**3 - 6.0 * nu2 / z**4
    r = R_of_z(A, case, z)
    chi0 = (5.0 * dq2**2 - 4.0 * q2 * d2q2) / (16.0 * q2**3) + r / q2 - 1.0
    return float(np.max(np.abs(chi0)))
