"""Independent slow oracles and reference routines used only by the tests.

Everything here deliberately avoids the code paths it checks: the elliptic
integrals come from adaptive quadrature of their defining single integrals,
the complex Jacobi values from mpmath's theta-function based ellipfun, the
real Jacobi triple straight from scipy's ellipj (the library itself needs
only complex argument), the Airy zero from a Maclaurin series plus
bisection, and the contour integral for the third-order correction from
Gauss-Legendre panels on an explicit straight path.  Numerov levels come
as exact rational Rayleigh quotients of the stored banded pencil at the
eigenvectors of a dense symmetric solve.

The reference routines at the end (L1 by quadrature, the Jacobi epsilon
function, the Z antiderivatives and the partial fractions of the L3
integrand) build on that real triple and the library's complex Jacobi
functions, but not on the closed forms of L1 and L3 that they check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh, solve_banded
from scipy.special import ellipe, ellipeinc, ellipj, ellipk

from cornellbound.errors import DomainError, SingularPointError
from cornellbound.special import SINGULAR_TOL, _m_value, ellip_K, jacobi_complex


def jacobi_sn_cn_dn(u: float, m) -> tuple[float, float, float]:
    """Jacobi sn, cn, dn for real argument u, straight from scipy's ellipj."""
    m = _m_value(m)
    if not math.isfinite(u):
        raise DomainError("argument u must be finite")
    sn, cn, dn, _ = ellipj(u, m)
    return float(sn), float(cn), float(dn)


def ellip_K_quad(m: float) -> float:
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)
    return val


def ellip_E_quad(m: float) -> float:
    val, _ = quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)
    return val


def ellip_Pi_quad(n: float, m: float) -> float:
    val, _ = quad(
        lambda t: 1.0 / ((1.0 - n * math.sin(t) ** 2) * math.sqrt(1.0 - m * math.sin(t) ** 2)),
        0.0,
        math.pi / 2,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return val


def jacobi_mp(u: complex, m: float) -> tuple[complex, complex, complex]:
    """sn, cn, dn via mpmath (theta-function implementation)."""
    sn = complex(mp.ellipfun("sn", u, m=m))
    cn = complex(mp.ellipfun("cn", u, m=m))
    dn = complex(mp.ellipfun("dn", u, m=m))
    return sn, cn, dn


def epsilon_quad(u: complex, m: float, panels: int = 64) -> complex:
    """Integral of dn^2 from 0 to u along the straight segment."""
    nodes, weights = np.polynomial.legendre.leggauss(panels)
    t = 0.5 * (nodes + 1.0)
    total = 0.0 + 0.0j
    for ti, wi in zip(t, weights):
        _, _, dn = jacobi_mp(u * ti, m)
        total += wi * dn * dn
    return total * u * 0.5


def airy_first_zero(tol: float = 1e-13) -> float:
    """Smallest positive root of Ai(-x) = 0, by Maclaurin series + bisection."""

    def airy_ai(x: float) -> float:
        c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
        f_term, g_term = 1.0, x
        f_sum, g_sum = f_term, g_term
        for k in range(60):
            f_term *= x**3 / ((3 * k + 2) * (3 * k + 3))
            g_term *= x**3 / ((3 * k + 3) * (3 * k + 4))
            f_sum += f_term
            g_sum += g_term
            if abs(f_term) < 1e-18 and abs(g_term) < 1e-18:
                break
        return c1 * f_sum - c2 * g_sum

    lo, hi = 2.0, 3.0
    assert airy_ai(-lo) > 0.0 > airy_ai(-hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if airy_ai(-mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def L3_contour_quad(m: float, alpha2: float, d3: float, u0: complex, panels: int = 120) -> complex:
    """Third-order integral along the straight path u0 -> u0 + K(m).

    Direct Gauss-Legendre evaluation of
    (1/(12 d^3 m a2)) * integral of (1-a2 sn^2)(1+m-3m sn^2)/(sn cn dn)^2.
    The horizontal path at height Im(u0) stays clear of the real-axis
    zeros of sn and cn and of the poles at height K'(m).
    """
    K = float(mp.ellipk(m))
    nodes, weights = np.polynomial.legendre.leggauss(panels)
    t = 0.5 * (nodes + 1.0)
    total = 0.0 + 0.0j
    for ti, wi in zip(t, weights):
        u = u0 + K * ti
        sn, cn, dn = jacobi_mp(u, m)
        s2 = sn * sn
        total += wi * (1.0 - alpha2 * s2) * (1.0 + m - 3.0 * m * s2) / (s2 * cn * cn * dn * dn)
    return total * K * 0.5 / (12.0 * d3 * m * alpha2)


def L1_quadrature(tp) -> float:
    """Leading integral by adaptive quadrature of its real form.

    2 k^2 d^3 alpha^2 * integral over [0, K(m)] of
    sn^2 cn^2 dn^2 / (1 - alpha^2 sn^2), for the TurningPoints `tp`.
    """
    m, a2 = tp.m, tp.alpha2
    K = ellip_K(m)

    def integrand(u):
        sn, cn, dn = jacobi_sn_cn_dn(u, m)
        return sn * sn * cn * cn * dn * dn / (1.0 - a2 * sn * sn)

    val, _ = quad(integrand, 0.0, K, limit=300, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * m * tp.d3 * a2 * val


def L1_mpmath(B: float, l: int, x2: float) -> float:
    """Leading integral int_{x1}^{x2} sqrt(P(t)) / t dt at 30 digits.

    P = (t - x0)(t - x1)(x2 - t), with the turning points of the given x2
    worked out in mpmath: the zero of larger magnitude from S -+ T and the
    other by Vieta, x0 x1 x2 = -(l+1/2)^2 (for S < 0 near the floor, S + T
    at 30 digits leaves x1 off by 2e-14 relative at B = 1e6 and by 2e-11 at
    B = 1e7).  Tanh-sinh quadrature in
    tau = log t, where the integrand is sqrt(P(e^tau)) with square-root
    endpoints; t - x1 and x2 - t are taken with expm1 so they keep their
    sign next to the endpoints.
    """
    with mp.workdps(30):
        B, x2, nu2 = mp.mpf(B), mp.mpf(x2), mp.mpf(l + 0.5) ** 2
        S = nu2 / (2 * x2**2) - B / (2 * x2)
        T = mp.sqrt(S * S + nu2 / x2)
        if S < 0:
            x0, x1 = S - T, (nu2 / x2) / (T - S)
        else:
            x0, x1 = -(nu2 / x2) / (S + T), S + T
        if not 0 < x1 < x2:
            raise DomainError(f"no ordering 0 < x1 < x2 at x2={x2}")

        lo, hi = mp.log(x1), mp.log(x2)

        def integrand(tau):
            return mp.sqrt((mp.exp(tau) - x0) * x1 * mp.expm1(tau - lo) * -x2 * mp.expm1(tau - hi))

        return float(mp.quad(integrand, [lo, hi]))


def L3_partial_fractions(m: float, a2: float) -> tuple[float, float, float]:
    """F1, F2, F3 splitting (1 - a2 x)(1 + m - 3 m x) / [x (1-x)(1-mx)]."""
    F1 = 1.0 + m
    F2 = (1.0 - a2) * (1.0 - 2.0 * m) / (1.0 - m)
    F3 = (a2 - m) * m * (m - 2.0) / (1.0 - m)
    return F1, F2, F3


def _epsilon_real(u: float, m: float) -> float:
    """Integral of dn^2 from 0 to real u."""
    if m == 0.0:
        return u
    if m == 1.0:
        return math.tanh(u)
    K = float(ellipk(m))
    E = float(ellipe(m))
    # quasi-periodicity: eps(u + 2K) = eps(u) + 2E; odd in u
    n = math.floor(u / (2.0 * K) + 0.5)
    r = u - 2.0 * n * K  # r in [-K, K]
    sign = 1.0
    if r < 0.0:
        r, sign = -r, -1.0
    sn, _, _, _ = ellipj(r, m)
    base = float(ellipeinc(math.asin(min(1.0, max(-1.0, sn))), m))
    return sign * base + 2.0 * n * E


def _epsilon_imag(y: float, m: float) -> complex:
    """Jacobi epsilon at the purely imaginary argument i*y, parameter m.

    eps(iy, m) = i [ y - eps(y, 1-m) + dn(y,1-m) sn(y,1-m) / cn(y,1-m) ].
    """
    s, c, d, _ = ellipj(y, 1.0 - m)
    if abs(c) < SINGULAR_TOL:
        raise SingularPointError(f"epsilon pole at u = {1j * y}")
    return 1j * (y - _epsilon_real(y, 1.0 - m) + d * s / c)


def jacobi_epsilon(u, m: float):
    """Jacobi epsilon function: the antiderivative of dn^2 vanishing at 0.

    Accepts real or complex u; satisfies eps(K(m), m) = E(m).  The complex
    extension uses the addition theorem
    eps(u+v) = eps(u) + eps(v) - m sn(u) sn(v) sn(u+v) with v = iy.
    """
    u = complex(u)
    x, y = u.real, u.imag
    if y == 0.0:
        return _epsilon_real(x, m)
    if x == 0.0:
        return _epsilon_imag(y, m)
    snx, _, _ = jacobi_sn_cn_dn(x, m)
    sny, _, _ = jacobi_complex(complex(0.0, y), m)
    snu, _, _ = jacobi_complex(u, m)
    return _epsilon_real(x, m) + _epsilon_imag(y, m) - m * snx * sny * snu


def z_integrals(u, m: float) -> tuple[complex, complex, complex]:
    """Antiderivative values of 1/sn^2, 1/cn^2, 1/dn^2 at complex u.

    Closed forms in terms of sn, cn, dn and the epsilon function:
      Z1 = -cn dn / sn + u - eps(u)
      Z2 = (dn sn / cn)/(1-m) + u - eps(u)/(1-m)
      Z3 = -(m/(1-m)) cn sn / dn + eps(u)/(1-m)
    Raises SingularPointError if any of sn, cn, dn vanishes at u.
    """
    if m == 1.0:
        raise DomainError("Z integrals degenerate at m = 1")
    u = complex(u)
    sn, cn, dn = jacobi_complex(u, m)
    if min(abs(sn), abs(cn), abs(dn)) < SINGULAR_TOL:
        raise SingularPointError(f"sn, cn, dn must all be nonzero at u = {u}")
    eps = jacobi_epsilon(u, m)
    z1 = -cn * dn / sn + u - eps
    z2 = dn * sn / cn / (1.0 - m) + u - eps / (1.0 - m)
    z3 = -m / (1.0 - m) * cn * sn / dn + eps / (1.0 - m)
    return z1, z2, z3


def banded_quadratic_form(bands: np.ndarray, x: np.ndarray) -> Fraction:
    """x^T S x in exact rational arithmetic, for S symmetric in upper banded storage.

    `bands` has the layout of `NumerovSystem.pencil_bands`: row -1 the
    diagonal, row -1 - d the d-th superdiagonal (its leading d entries
    unused).  Every float converts to a Fraction exactly, so nothing rounds.
    """
    xs = [Fraction(float(t)) for t in x]
    total = sum((Fraction(float(s)) * t * t for s, t in zip(bands[-1], xs)), Fraction(0))
    for d in range(1, bands.shape[0]):
        row = bands[-1 - d]
        total += 2 * sum((Fraction(float(row[i])) * xs[i - d] * xs[i] for i in range(d, len(xs))), Fraction(0))
    return total


def pencil_levels_exact(system, indices) -> list[tuple[float, float]]:
    """Levels `indices` (0-based, ascending) of the stored banded pencil (K, M), as exact
    Rayleigh quotients, each with its rounding floor.

    chi comes from a dense `eigh` of `symmetric_operator()` (psi) and a
    banded solve chi = Bhat^{-1} psi; the quotient chi^T K chi / chi^T M chi
    of the stored bands is then taken without rounding, so its error is
    second order in the eigenvector's and it is independent of every
    eigensolver path in `numerov`.  The floor eps chi^T |K| chi / chi^T M chi
    is how far rounding each entry of K once moves the level, so no float
    evaluation of the pencil is held to less.
    """
    _, psi = eigh(system.symmetric_operator(), subset_by_index=[0, max(indices)])
    n = system.size
    bhat = np.zeros((3, n))
    bhat[0, 1:], bhat[1], bhat[2, :-1] = system.b_off, system.b_main, system.b_off
    k, m = system.pencil_bands()
    out = []
    for i in indices:
        chi = solve_banded((1, 1), bhat, psi[:, i])
        mass = banded_quadratic_form(m, chi)
        floor = np.finfo(float).eps * float(banded_quadratic_form(np.abs(k), np.abs(chi)) / mass)
        out.append((float(banded_quadratic_form(k, chi) / mass), floor))
    return out
