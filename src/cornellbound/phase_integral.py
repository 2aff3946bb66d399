"""Phase-integral quantization for the linear-plus-Coulomb problem.

-Q^2 has three real zeros x0 < 0 < x1 < x2; the classically allowed region
is (x1, x2).  Given x2, the other two are S -+ T with

    S = (l+1/2)^2 / (2 x2^2) - B / (2 x2),   T^2 = S^2 + (l+1/2)^2 / x2;

the one of larger magnitude is taken from S -+ T and the other from Vieta,
x0 x1 x2 = -(l+1/2)^2, so neither cancels.  Every quantity of the
quantization condition is then a function of x2 alone:  d^2 = x2 - x0,
m = k^2 = (x2 - x1)/(x2 - x0),  alpha^2 = (x2 - x1)/x2.  The leading
integral L1 is a sum of Carlson's symmetric R_F, R_D and R_J; the
third-order correction L3 reduces to

    L3 = [Acal(m, a2) E(m) + Bcal(m, a2) K(m)] / (12 d^3 m alpha^2)

at a complex base point u0 of the contour where the boundary term
C(u0, m, alpha^2) vanishes, which exists when a root x = sn^2(u0) of a
quadratic keeps clear of 0, 1 and 1/m (`sn2_root`).  The level follows
from solving L1 (+ L3) = (s + 1/2) pi for x2 and A = x2 - B/x2 + (l+1/2)^2/x2^2.

The Langer potential A(x2) has its minimum at z*, the positive root of
z^3 + B z - 2 (l+1/2)^2, where x1 = x2.  Below z* the zero x2 of -Q^2 is
the inner one (x1 > x2), so no level lies there.  Above it the phase sum
starts at 0 and rises, so the root is bracketed by walking up from z*, and
Brent's method (`brentq`, a port of scipy's, so no scipy.optimize import)
refines the last step from the residuals the walk already has.  The phase
sum does not depend on s, so `quantize_ladder` brackets every s of one
(B, l, j) in a single walk that passes the targets (s + 1/2) pi in order;
`quantize` is its one-level ladder.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.special import elliprd, elliprf, elliprj

from . import special
from .errors import BracketError, CornellboundError, DomainError, NonConvergenceError, NoValidRootError, OrderingError
from .model import DimensionlessCase, Q2_of_z, R_of_z
from .special import ComplexPoint, ellip_E, ellip_K, jacobi_complex
from .special import ellip_Pi  # noqa: F401  (benchmark traces wrap phase_integral.ellip_Pi by name)

# tolerances of the verified post-conditions
C_TOL = 1e-8
RESIDUAL_TOL = 1e-10
DEGENERACY_TOL = 1e-10
ROOT_TOL = 1e-10  # least |sn^2|, |cn^2| and |dn^2| at the root of sn2_root
# ratio of consecutive x2 in the bracket walk: 120 steps per decade
STEP = 10.0 ** (1.0 / 120.0)
# Brent's stopping tolerances: xtol = XTOL * min(1, lower bracket end), and rtol
XTOL = 1e-14
RTOL = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class TurningPoints:
    """The zeros x0 < 0 < x1 < x2 of -Q^2 and their derived parameters."""

    x0: float
    x1: float
    x2: float
    d2: float
    m: float
    alpha2: float

    @property
    def d3(self) -> float:
        return self.d2**1.5


@dataclass(frozen=True)
class QuantizationResult:
    """A converged level; u0 and C_abs = |C(u0)| come from one `solve_u0` call on first read."""

    case: DimensionlessCase
    x2: float
    A: float
    residual: float
    turning_points: TurningPoints

    @cached_property
    def _base_point(self) -> tuple[ComplexPoint, float]:
        return solve_u0(self.turning_points.m, self.turning_points.alpha2)

    u0 = property(lambda self: self._base_point[0])
    C_abs = property(lambda self: self._base_point[1])


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
    if S < 0.0:
        x0 = S - T
        x1 = (nu2 / x2) / (T - S)
    else:
        x1 = S + T
        x0 = -(nu2 / x2) / (S + T)
    if not (0.0 < x1 < x2):
        raise OrderingError(f"no ordering 0 < x1 < x2 at x2={x2} (x1={x1})")
    d2 = x2 - x0
    return TurningPoints(x0=x0, x1=x1, x2=x2, d2=d2, m=(x2 - x1) / d2, alpha2=(x2 - x1) / x2)


def x2_floor(case: DimensionlessCase) -> float:
    """The floor z* of the valid x2 range: the positive root of z^3 + B z - 2 nu^2.

    z* is the minimum of the Langer potential z - B/z + nu^2/z^2, where
    x1 = x2.  Cardano's root t - B/(3t) cancels at large B, so it is taken
    as 2 nu^2 / (t^2 + B/3 + B^2/(9 t^2)), whose terms are all positive.
    """
    nu2 = case.nu**2
    t = (nu2 + math.sqrt(nu2 * nu2 + case.B**3 / 27.0)) ** (1.0 / 3.0)
    return 2.0 * nu2 / (t * t + case.B / 3.0 + case.B**2 / (9.0 * t * t))


def L1_closed(tp: TurningPoints) -> float:
    """Leading quantization integral L1 = int_{x1}^{x2} sqrt(P(t)) / t dt.

    With P = (t - x0)(t - x1)(x2 - t), the moment int P'/sqrt(P) = 0 removes
    the t^2 term, and t = x2 (1 - alpha^2 sin^2) leaves Carlson's integrals
    at (0, 1 - m, 1[, 1 - alpha^2]) (DLMF 19.29):

        L1 = (2/3) m d [d^2 R_F - (x0 + x1 + x2) R_D / 3 + (x0 x1 / x2) R_J].

    1 - m = (x1 - x0)/d^2 and 1 - alpha^2 = x1/x2 are formed directly, so
    no term carries a 1/m or a pole.
    """
    x0, x1, x2, d2 = tp.x0, tp.x1, tp.x2, tp.d2
    y, p = (x1 - x0) / d2, x1 / x2
    rf, rd, rj = elliprf(0.0, y, 1.0), elliprd(0.0, y, 1.0), elliprj(0.0, y, 1.0, p)
    return float(2.0 / 3.0 * tp.m * math.sqrt(d2) * (d2 * rf - (x0 + x1 + x2) * rd / 3.0 + x0 * x1 / x2 * rj))


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


def _boundary_numerator(sn: complex, cn: complex, m: float, alpha2: float) -> complex:
    """Numerator F(u0, m, alpha^2) of the sn cn dn pole part of C."""
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
    sn, cn, dn = jacobi_complex(u0, m)
    if min(abs(sn), abs(cn), abs(dn)) < special.SINGULAR_TOL:
        raise special.SingularPointError(f"sn, cn, dn must be nonzero at u0 = {u0}")
    G = L3_coefficients(m, alpha2).G
    return _boundary_numerator(sn, cn, m, alpha2) / (cn * dn * sn) + G * cn * sn / dn


def solve_u0_kappas(m: float, alpha2: float) -> tuple[float, float, float]:
    """Coefficients of the quadratic kappa2 x^2 + kappa1 x + kappa0 = 0
    satisfied by x = sn^2(u0) at the zeros of C."""
    k2 = m**4 - 2.0 * m**3 + (2.0 - m) * m**2 * alpha2
    k1 = -2.0 * m**4 + 3.0 * m**3 - m**2 + m * (m * m - 1.0) * alpha2
    k0 = m * (m * m - m + 1.0) + (1.0 - 2.0 * m) * alpha2
    return k2, k1, k0


def sn2_root(m: float, alpha2: float) -> complex:
    """The root x = sn^2(u0) of kappa2 x^2 + kappa1 x + kappa0, the numerator of C.

    sn maps [0, K] x [0, K'] onto the closed first quadrant, so a u0 with C(u0) = 0 exists
    where sn^2, cn^2, dn^2 = x, 1 - x, 1 - m x are nonzero at a root.  The +disc root, then
    the -disc one if real, is returned if all three are at least ROOT_TOL in magnitude, else
    NoValidRootError; each is whichever of (-kappa1 +- disc)/(2 kappa2) and
    2 kappa0/(-kappa1 -+ disc) does not cancel (Numerical Recipes 5.6).
    """
    k2, k1, k0 = solve_u0_kappas(m, alpha2)
    disc = cmath.sqrt(complex(k1 * k1 - 4.0 * k0 * k2))
    for d in (disc,) if disc.imag else (disc, -disc):
        top, bottom = -k1 + d, -k1 - d  # x = top / (2 kappa2) = 2 kappa0 / bottom
        if abs(bottom) > abs(top):
            x = 2.0 * k0 / bottom
        elif k2:
            x = top / (2.0 * k2)
        else:
            continue  # kappa2 = 0 puts this root at infinity
        if min(abs(x), abs(1.0 - x), abs(1.0 - m * x)) >= ROOT_TOL:
            return x
    raise NoValidRootError(f"no C = 0 base point for m={m}, alpha2={alpha2}: every sn^2 root meets 0, 1 or 1/m")


def solve_u0(m: float, alpha2: float) -> tuple[ComplexPoint, float]:
    """A base point u0 in [0, K] x [0, K'] with C(u0, m, alpha^2) = 0, and |C(u0)|.

    u0 inverts sn at the first-quadrant square root of sn2_root(m, alpha^2), enough
    as C(-u) = -C(u) and C(conj u) = conj C(u); NoValidRootError if |C(u0)| > C_TOL.
    """
    if abs(m - 1.0) < DEGENERACY_TOL:
        # kappa = (alpha^2 - 1, 0, 1 - alpha^2) vanishes at sn^2 = -1; sn(i pi/4 | 1) = i
        return ComplexPoint(0.0, math.pi / 4.0), 0.0
    x = sn2_root(m, alpha2)
    u0 = special.inverse_sn(cmath.sqrt(complex(x.real, abs(x.imag))), m)
    c_abs = abs(C_term(u0, m, alpha2))
    if not c_abs <= C_TOL:
        raise NoValidRootError(f"|C(u0)| = {c_abs:.3e} above {C_TOL} at u0 = {u0} for m={m}, alpha2={alpha2}")
    return u0, c_abs


def L3_closed(tp: TurningPoints) -> float:
    """Third-order quantization integral at the C = 0 base point.

    L3 = [Acal E(m) + Bcal K(m)] / (12 d^3 m alpha^2); real by
    construction once the boundary term has been removed.
    """
    m, a2 = tp.m, tp.alpha2
    coeffs = L3_coefficients(m, a2)
    return float((coeffs.A_cal * ellip_E(m) + coeffs.B_cal * ellip_K(m)) / (12.0 * tp.d3 * m * a2))


def A_from_x2(x2: float, case: DimensionlessCase) -> float:
    """A = x2 - B/x2 + (l+1/2)^2/x2^2, from Q^2(x2) = 0."""
    return x2 - case.B / x2 + case.nu**2 / x2**2


def _phase_sum(x2: float, case: DimensionlessCase) -> float:
    tp = turning_points_from_x2(x2, case)
    total = L1_closed(tp)
    if case.j == 1:
        total += L3_closed(tp)
    return total


def brentq(f, a, b, xtol: float, rtol: float, *, f_a: float, f_b: float, maxiter: int = 100) -> tuple[float, float]:
    """A root x of f between a and b by Brent's method, returned as (x, f(x)).

    A line-for-line port of scipy's brentq.c (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4), so it returns the same
    root bit for bit, as a Python float.  The caller passes f_a = f(a) and
    f_b = f(b), which must differ in sign, so f is evaluated only inside
    the bracket.  The root is within xtol + rtol |x| of a sign change of f.
    Raises BracketError for ends without a sign change and
    NonConvergenceError after maxiter evaluations.
    """
    xpre, xcur, fpre, fcur = float(a), float(b), float(f_a), float(f_b)
    if fpre == 0.0:
        return xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    if not (fpre < 0.0 < fcur or fcur < 0.0 < fpre):
        raise BracketError(f"f({a}) = {fpre} and f({b}) = {fcur} do not differ in sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
    raise NonConvergenceError(f"Brent's method did not converge in {maxiter} evaluations on [{a}, {b}]")


def quantize(case: DimensionlessCase) -> QuantizationResult:
    """Solve the truncated quantization condition for the level of `case`.

    The one-level ladder of :func:`quantize_ladder`, walked for `case`
    itself; its package error is raised instead of returned.
    """
    (level,) = _climb([case])
    if isinstance(level, CornellboundError):
        raise level
    return level


def quantize_ladder(B: float, l: int, j: int, s_values) -> list[QuantizationResult | CornellboundError]:
    """The levels s of one (B, l, j) ladder from a single walk up from the floor.

    Returns one entry per entry of `s_values`, in the same order (a
    repeated s gets the same entry): the level, or the package error that
    level failed with, so one failed level leaves the others to finish.
    Every level is the one `quantize` finds for it alone, bit for bit.
    """
    levels: dict = {}
    cases = []
    for s in sorted(set(s_values)):
        try:
            cases.append(DimensionlessCase(B=B, l=l, s=s, j=j))
        except CornellboundError as exc:
            levels[s] = exc
    levels.update(zip((case.s for case in cases), _climb(cases)))
    return [levels[s] for s in s_values]


def _climb(cases: list[DimensionlessCase]) -> list[QuantizationResult | CornellboundError]:
    """The levels of `cases`, one (B, l, j) ladder in ascending s, from one walk.

    The phase sum does not depend on s and starts at 0 just above the
    floor x2_floor, so one walk up in steps of STEP passes every target
    (s + 1/2) pi in order, evaluating each x2 once.  A target the phase
    sum is not below at the start fails with BracketError; the first step
    whose end is not below a target hands that step and the residuals at
    its ends to `_refine`.  A package error at a walk point is the error
    of every level not yet bracketed, which would meet that point on its
    own walk too.
    """
    if not cases:
        return []
    case, n = cases[0], len(cases)
    targets = [(c.s + 0.5) * math.pi for c in cases]
    levels: list = []
    lo = x2_floor(case) * (1.0 + 1e-6)
    try:
        p_lo = _phase_sum(lo, case)
        k = 0
        while k < n and not p_lo - targets[k] < 0.0:
            msg = f"phase sum not below the target at x2 = {lo}, just above the floor, for {cases[k]}"
            levels.append(BracketError(msg))
            k += 1
        while k < n:
            hi = lo * STEP
            p_hi = _phase_sum(hi, case)
            while k < n and not p_hi - targets[k] < 0.0:
                levels.append(_refine(cases[k], targets[k], lo, p_lo - targets[k], hi, p_hi - targets[k]))
                k += 1
            lo, p_lo = hi, p_hi
    except CornellboundError as exc:
        levels += [exc] * (n - len(levels))
    return levels


def _refine(
    case: DimensionlessCase, target: float, lo: float, f_lo: float, hi: float, f_hi: float
) -> QuantizationResult | CornellboundError:
    """The level of `case` in the walk step [lo, hi], or the package error it fails with.

    `brentq` refines the step from the residuals the walk found at its
    ends and returns the residual at the root; then A is reconstructed,
    and at j = 1 the root of the base-point quadratic checked (`sn2_root`).
    """

    def phase_residual(x2: float) -> float:
        return _phase_sum(x2, case) - target

    try:
        # xtol turns relative below x2 = 1, where deep Coulomb levels (x2 ~ 3.7/B)
        # lie; an invalid point inside the bracket raises OrderingError/DomainError
        # out of brentq
        x2, f_x2 = brentq(phase_residual, lo, hi, xtol=XTOL * min(1.0, lo), rtol=RTOL, f_a=f_lo, f_b=f_hi)
        residual = abs(f_x2)
        if residual > RESIDUAL_TOL:
            raise BracketError(f"quantization residual {residual} above {RESIDUAL_TOL}")
        tp = turning_points_from_x2(x2, case)
        if case.j == 1:
            sn2_root(tp.m, tp.alpha2)
    except CornellboundError as exc:
        return exc
    return QuantizationResult(case=case, x2=x2, A=A_from_x2(x2, case), residual=residual, turning_points=tp)


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
