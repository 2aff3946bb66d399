"""Complete elliptic integrals and Jacobi elliptic functions.

Numerical bedrock for the phase-integral engine: K, E, Pi via Carlson
symmetric forms (scipy), the Jacobi triple sn/cn/dn for real and complex
argument, and the principal inverse of sn.

Complex arguments are handled with the addition theorems applied to
u = x + iy, expressing the functions of the purely imaginary part through
real-argument functions at the complementary parameter 1 - m (Jacobi's
imaginary transformation).  All functions here are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe, ellipj, ellipk, elliprf, elliprj

from .errors import DomainError, NonConvergenceError, SingularPointError

# Magnitude below which sn/cn/dn count as vanishing at a point where a
# nonzero value is required.
SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class ComplexPoint:
    """A point u = re + i*im in the complex argument plane."""

    re: float
    im: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise DomainError("ComplexPoint components must be finite")

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def _m_value(m) -> float:
    m = float(m)
    if not (0.0 <= m <= 1.0):
        raise DomainError(f"modulus parameter m={m} outside [0, 1]")
    return m


def _n_value(n) -> float:
    n = float(n)
    if not n < 1.0:
        raise DomainError(f"characteristic n={n} must satisfy n < 1")
    return n


def _u_value(u) -> complex:
    if isinstance(u, ComplexPoint):
        return u.as_complex()
    u = complex(u)
    if not (math.isfinite(u.real) and math.isfinite(u.imag)):
        raise DomainError("argument u must be finite")
    return u


def ellip_K(m) -> float:
    """Complete elliptic integral of the first kind, K(m).

    Diverges logarithmically as m -> 1, so m = 1 is rejected.
    """
    m = _m_value(m)
    if m >= 1.0:
        raise DomainError("K(m) diverges at m = 1")
    return float(ellipk(m))


def ellip_E(m) -> float:
    """Complete elliptic integral of the second kind, E(m), for m in [0, 1]."""
    return float(ellipe(_m_value(m)))


def ellip_Pi(n, m) -> float:
    """Complete elliptic integral of the third kind, Pi(n, m), n < 1, m < 1.

    Evaluated through the Carlson forms: Pi = RF(0,1-m,1) + (n/3) RJ(0,1-m,1,1-n).
    """
    n = _n_value(n)
    m = _m_value(m)
    if m >= 1.0:
        raise DomainError("Pi(n, m) diverges at m = 1")
    if n == 0.0:
        return ellip_K(m)
    return float(elliprf(0.0, 1.0 - m, 1.0) + (n / 3.0) * elliprj(0.0, 1.0 - m, 1.0, 1.0 - n))


def jacobi_sn_cn_dn(u: float, m) -> tuple[float, float, float]:
    """Jacobi sn, cn, dn for real argument u."""
    m = _m_value(m)
    if not math.isfinite(u):
        raise DomainError("argument u must be finite")
    sn, cn, dn, _ = ellipj(u, m)
    return float(sn), float(cn), float(dn)


def _jacobi_imag(y: float, m: float) -> tuple[complex, complex, complex]:
    """sn, cn, dn at the purely imaginary argument i*y, parameter m.

    Jacobi's imaginary transformation through the complementary parameter:
    sn(iy,m) = i sn(y,1-m)/cn(y,1-m), cn(iy,m) = 1/cn(y,1-m),
    dn(iy,m) = dn(y,1-m)/cn(y,1-m).
    """
    s, c, d, _ = ellipj(y, 1.0 - m)
    if abs(c) < SINGULAR_TOL:
        raise SingularPointError(f"u = {1j * y} is at a pole of the Jacobi functions")
    return 1j * s / c, 1.0 / c, d / c


def jacobi_complex(u, m) -> tuple[complex, complex, complex]:
    """Jacobi sn, cn, dn for complex argument u = x + iy.

    Built from the real-argument triple at x and the imaginary
    transformation at iy, combined with the addition theorems.  Raises
    SingularPointError near the poles u = iK' (mod lattice), where the
    common denominator 1 - m sn^2(x) sn^2(iy) degenerates.
    """
    m = _m_value(m)
    u = _u_value(u)
    x, y = u.real, u.imag
    if y == 0.0:
        sn, cn, dn = jacobi_sn_cn_dn(x, m)
        return complex(sn), complex(cn), complex(dn)
    sx, cx, dx, _ = ellipj(x, m)
    sy, cy, dy = _jacobi_imag(y, m)
    den = 1.0 - m * (sx * sy) ** 2
    if abs(den) < SINGULAR_TOL:
        raise SingularPointError(f"u = {u} is too close to a pole of the Jacobi functions")
    sn = (sx * cy * dy + sy * cx * dx) / den
    cn = (cx * cy - sx * sy * dx * dy) / den
    dn = (dx * dy - m * sx * sy * cx * cy) / den
    return sn, cn, dn


def inverse_sn(w, m) -> ComplexPoint:
    """Principal inverse of sn: a u with sn(u, m) = w.

    The branch is pinned deterministically: among the lattice-equivalent
    solutions, prefer one inside the rectangle [0, K] x [0, K'] (which
    exists whenever w lies in the closed first quadrant), breaking ties
    toward the smallest |u|.
    """
    m = _m_value(m)
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError("w must be finite")
    if m == 1.0:
        # sn(u, 1) = tanh u
        u = cmath.atanh(w)
        return ComplexPoint(u.real, u.imag)

    u = _inverse_sn_raw(w, m)
    K = float(ellipk(m))
    Kp = float(ellipk(1.0 - m))

    # Fold the solution set {u + 4K a + 2iK' b, (2K - u) + 4K a + 2iK' b}
    # and pick the principal representative.
    def folded(v: complex) -> complex:
        re = v.real % (4.0 * K)
        im = v.imag % (2.0 * Kp)
        return complex(re, im)

    candidates = []
    for base in (u, 2.0 * K - u):
        f = folded(base)
        for dre in (0.0, -4.0 * K):
            for dim in (0.0, -2.0 * Kp):
                candidates.append(f + complex(dre, dim))

    tol = 1e-9

    def keyfun(v: complex):
        viol = max(0.0, -v.real) + max(0.0, v.real - K) + max(0.0, -v.imag) + max(0.0, v.imag - Kp)
        return (round(viol / tol), abs(v), v.real, v.imag)

    best = min(candidates, key=keyfun)
    # polish once more at the selected representative
    best = _newton_sn(best, w, m, max_iter=8)
    return ComplexPoint(best.real, best.imag)


def _newton_sn(u: complex, w: complex, m: float, max_iter: int = 60) -> complex:
    for _ in range(max_iter):
        try:
            sn, cn, dn = jacobi_complex(u, m)
        except SingularPointError:
            break
        deriv = cn * dn
        if abs(deriv) < 1e-14:
            break
        du = (sn - w) / deriv
        if abs(du) > 1.0:
            du /= abs(du)
        u = u - du
        if abs(du) < 1e-15:
            return u
    sn, _, _ = jacobi_complex(u, m)
    if abs(sn - w) > 1e-10 * max(1.0, abs(w)):
        raise NonConvergenceError(f"inverse_sn Newton iteration failed for w={w}, m={m}")
    return u


def _inverse_sn_raw(w: complex, m: float) -> complex:
    """Some solution of sn(u) = w, not yet branch-normalized."""
    # Carlson-form incomplete integral of the first kind as the start:
    # u = w RF(1 - w^2, 1 - m w^2, 1).
    start = w * elliprf(1.0 - w * w, 1.0 - m * w * w, 1.0)
    try:
        return _newton_sn(complex(start), w, m)
    except NonConvergenceError:
        pass
    # Fallback: coarse search over the fundamental rectangle, then Newton.
    K = float(ellipk(m))
    Kp = float(ellipk(1.0 - m))
    best, best_err = None, math.inf
    for re in np.linspace(0.02 * K, 3.98 * K, 48):
        for im in np.linspace(0.02 * Kp, 1.98 * Kp, 24):
            try:
                sn, _, _ = jacobi_complex(complex(re, im), m)
            except SingularPointError:
                continue
            err = abs(sn - w)
            if err < best_err:
                best, best_err = complex(re, im), err
    if best is None:
        raise NonConvergenceError(f"inverse_sn grid search failed for w={w}, m={m}")
    return _newton_sn(best, w, m)
