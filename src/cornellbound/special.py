"""Complete elliptic integrals and Jacobi elliptic functions.

Numerical bedrock for the phase-integral engine: K, E, Pi via Carlson
symmetric forms (scipy), the Jacobi triple sn/cn/dn for complex argument,
and the principal inverse of sn.

A complex argument u = x + iy is reduced to the real-argument triples at
x (parameter m) and at y (the complementary parameter 1 - m) by
Abramowitz & Stegun 16.21; near the lines Im u = +-K' it is applied at
u -+ iK' and shifted back by A&S 16.8.  The inverse of sn is Carlson's form of F on
the first quadrant of w, closed-form edge inverses on the real half-line
w > 1, and the reflections of sn elsewhere, checked by one evaluation of
sn.  All functions here are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy.special import ellipe, ellipj, ellipk, ellipkm1, elliprf, elliprj

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


def jacobi_complex(u, m) -> tuple[complex, complex, complex]:
    """Jacobi sn, cn, dn for complex argument u = x + iy.

    Abramowitz & Stegun 16.21.1-3: with s, c, d = sn, cn, dn(x | m) and
    s1, c1, d1 = sn, cn, dn(y | 1 - m),

        sn u = (s d1 + i c d s1 c1) / delta,
        cn u = (c c1 - i s d s1 d1) / delta,
        dn u = (d c1 d1 - i m s c s1) / delta,   delta = c1^2 + m s^2 s1^2.

    delta is a sum of squares that vanishes only at the poles
    2aK + i(2b + 1)K', quadratically in the distance to them, so
    SingularPointError is raised where delta < SINGULAR_TOL^2.  Near the
    line Im u = K' the triple at y depends on the m that 1 - m rounds away,
    so for |Im u| > K'/2 the formula is taken at t = u -+ iK' instead
    (K' = ellipkm1(m), which stays finite as m -> 0) and shifted back by
    A&S 16.8: sn(t + iK') = 1/(sqrt(m) sn t), cn = -i dn t/(sqrt(m) sn t)
    and dn = -i cn t/sn t, conjugated for Im u < 0; the poles are then
    where |sn t| < SINGULAR_TOL.
    """
    m = _m_value(m)
    u = _u_value(u)
    # K' >= pi/2, its value at m = 1, so no |Im u| <= pi/4 needs the shift and K' is worked out only past that
    kp = float(ellipkm1(m)) if abs(u.imag) > math.pi / 4.0 else math.pi / 2.0
    if abs(u.imag) > kp / 2.0:
        sn, cn, dn = _jacobi_reduced(complex(u.real, abs(u.imag) - kp), m)
        if abs(sn) < SINGULAR_TOL:
            raise SingularPointError(f"u = {u} is too close to a pole of the Jacobi functions")
        r = math.sqrt(m) * sn
        shifted = (1.0 / r, -1j * dn / r, -1j * cn / sn)
        return shifted if u.imag > 0.0 else tuple(z.conjugate() for z in shifted)
    return _jacobi_reduced(u, m)


def _jacobi_reduced(u: complex, m: float) -> tuple[complex, complex, complex]:
    """A&S 16.21 at u for `jacobi_complex`."""
    s, c, d, _ = ellipj(u.real, m)
    s1, c1, d1, _ = ellipj(u.imag, 1.0 - m)
    den = float(c1 * c1 + m * (s * s1) ** 2)
    if den < SINGULAR_TOL**2:
        raise SingularPointError(f"u = {u} is too close to a pole of the Jacobi functions")
    sn = complex(s * d1, c * d * s1 * c1) / den
    cn = complex(c * c1, -s * d * s1 * d1) / den
    dn = complex(d * c1 * d1, -m * s * c * s1) / den
    return sn, cn, dn


def _carlson_F(w, m):
    """F(arcsin w | m) = w R_F(1 - w^2, 1 - m w^2, 1) (DLMF 19.25.5)."""
    return w * elliprf(1.0 - w * w, 1.0 - m * w * w, 1.0)


def inverse_sn(w, m) -> ComplexPoint:
    """Principal inverse of sn: a u with sn(u, m) = w.

    sn maps [0, K] x [0, K'] onto the closed first quadrant, where the
    preimage is Carlson's form of F; on its cut, real w > 1, the edges
    sn(K + iy | m) = 1/dn(y | 1 - m) and sn(x + iK' | m) = 1/(sqrt m sn x)
    are inverted instead.  Any other w is reflected there by sn(-u) = -sn u
    and sn(conj u) = conj sn u.  NonConvergenceError is raised when
    |sn(u) - w| > 1e-10 max(1, |w|).
    """
    m = _m_value(m)
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError("w must be finite")
    if m == 1.0:
        # sn(u, 1) = tanh u
        u = cmath.atanh(w)
        return ComplexPoint(u.real, u.imag)
    v = complex(abs(w.real), abs(w.imag))
    if v.imag == 0.0 and v.real > 1.0:
        if m * v.real**2 <= 1.0:
            y = _carlson_F(min(1.0, math.sqrt((1.0 - v.real**-2) / (1.0 - m))), 1.0 - m)
            u = complex(ellip_K(m), y)
        else:
            x = _carlson_F(min(1.0, 1.0 / (math.sqrt(m) * v.real)), m)
            u = complex(x, float(ellipkm1(m)))
    else:
        u = complex(_carlson_F(v, m))
    # w is v, conj v, -conj v or -v
    if (w.real < 0.0) != (w.imag < 0.0):
        u = u.conjugate()
    if w.real < 0.0:
        u = -u
    sn, _, _ = jacobi_complex(u, m)
    if abs(sn - w) > 1e-10 * max(1.0, abs(w)):
        raise NonConvergenceError(f"inverse_sn: |sn(u) - w| = {abs(sn - w):.3e} for w={w}, m={m}")
    return ComplexPoint(u.real, u.imag)
