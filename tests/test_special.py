"""Elliptic integral and Jacobi function tests, including the half-period
shift identities and checks of the epsilon/Z-integral reference routines
in `oracles` (built on the library's complex Jacobi functions)."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipkm1

import oracles
from cornellbound import special
from cornellbound.errors import DomainError, NonConvergenceError, SingularPointError
from cornellbound.special import (
    ComplexPoint,
    ellip_E,
    ellip_K,
    ellip_Pi,
    inverse_sn,
    jacobi_complex,
)
from oracles import jacobi_epsilon, jacobi_sn_cn_dn, z_integrals

# frozen quadrature-oracle values of the defining integrals
K_HALF = 1.854074677301372
E_HALF = 1.350643881047676
PI_04_06 = 2.590921156555220
EPS_07_03 = 0.669641730580588


class TestDomainTypes:
    def test_complex_point_finite(self):
        with pytest.raises(DomainError):
            ComplexPoint(math.inf, 0.0)


class TestCompleteIntegrals:
    def test_K_trivial(self):
        assert ellip_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_K_frozen_quadrature_value(self):
        assert ellip_K(0.5) == pytest.approx(K_HALF, rel=1e-12)
        assert oracles.ellip_K_quad(0.5) == pytest.approx(K_HALF, rel=1e-11)

    def test_K_diverges_at_one(self):
        with pytest.raises(DomainError):
            ellip_K(1.0)
        with pytest.raises(DomainError):
            ellip_K(-0.5)

    def test_E_trivial(self):
        assert ellip_E(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert ellip_E(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_E_frozen_quadrature_value(self):
        assert ellip_E(0.5) == pytest.approx(E_HALF, rel=1e-12)
        assert oracles.ellip_E_quad(0.5) == pytest.approx(E_HALF, rel=1e-11)

    def test_E_domain(self):
        with pytest.raises(DomainError):
            ellip_E(1.5)

    def test_Pi_reduces_to_K(self):
        for m in (0.0, 0.3, 0.8):
            assert ellip_Pi(0.0, m) == pytest.approx(ellip_K(m), rel=1e-14)

    def test_Pi_closed_form_at_m0(self):
        n = 0.3
        assert ellip_Pi(n, 0.0) == pytest.approx(math.pi / (2 * math.sqrt(1 - n)), rel=1e-12)

    def test_Pi_frozen_quadrature_value(self):
        assert ellip_Pi(0.4, 0.6) == pytest.approx(PI_04_06, rel=1e-10)
        assert oracles.ellip_Pi_quad(0.4, 0.6) == pytest.approx(PI_04_06, rel=1e-10)

    def test_Pi_domain(self):
        with pytest.raises(DomainError):
            ellip_Pi(1.0, 0.5)
        with pytest.raises(DomainError):
            ellip_Pi(0.5, 1.0)

    def test_legendre_relation_sampled(self):
        rng = np.random.default_rng(7)
        for m in rng.uniform(0.01, 0.99, size=50):
            lhs = ellip_E(m) * ellip_K(1 - m) + ellip_E(1 - m) * ellip_K(m) - ellip_K(m) * ellip_K(1 - m)
            assert lhs == pytest.approx(math.pi / 2, abs=1e-10)


class TestJacobiReal:
    def test_degenerate_m0(self):
        for u in (-1.3, 0.2, 2.7):
            sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
            assert sn == pytest.approx(math.sin(u), abs=1e-14)
            assert cn == pytest.approx(math.cos(u), abs=1e-14)
            assert dn == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_m1(self):
        for u in (-0.8, 0.5, 1.9):
            sn, cn, dn = jacobi_sn_cn_dn(u, 1.0)
            assert sn == pytest.approx(math.tanh(u), abs=1e-12)
            assert cn == pytest.approx(1.0 / math.cosh(u), abs=1e-12)
            assert dn == pytest.approx(1.0 / math.cosh(u), abs=1e-12)

    def test_quarter_period_values(self):
        m = 0.5
        sn, cn, dn = jacobi_sn_cn_dn(ellip_K(m), m)
        assert sn == pytest.approx(1.0, abs=1e-12)
        assert cn == pytest.approx(0.0, abs=1e-12)
        assert dn == pytest.approx(math.sqrt(1 - m), abs=1e-12)

    @given(
        st.floats(min_value=-8, max_value=8, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_pythagorean_identities(self, u, m):
        sn, cn, dn = jacobi_sn_cn_dn(u, m)
        assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)
        assert m * sn * sn + dn * dn == pytest.approx(1.0, abs=1e-12)


class TestJacobiComplex:
    def test_matches_real_axis(self):
        for u in (0.3, 1.1):
            for m in (0.2, 0.9):
                a = jacobi_complex(u, m)
                b = jacobi_sn_cn_dn(u, m)
                for x, y in zip(a, b):
                    assert x == pytest.approx(y, abs=1e-13)

    def test_sn_at_m1_imag(self):
        sn, cn, dn = jacobi_complex(1j * math.pi / 4, 1.0)
        assert sn == pytest.approx(1j, abs=1e-12)

    def test_against_mpmath(self):
        rng = np.random.default_rng(11)
        points = [(rng.uniform(0.05, 0.95), complex(rng.uniform(-2, 2), rng.uniform(-0.8, 0.8))) for _ in range(40)]
        # the line Im u = K' holds poles only at Re u = 0 (mod 2K)
        for m, x in ((0.5, 0.5), (0.2, -1.3), (0.8, 2.9), (0.4, ellip_K(0.4))):
            points.append((m, complex(x, ellip_K(1 - m))))
        for m, u in points:
            mine = jacobi_complex(u, m)
            ref = oracles.jacobi_mp(u, m)
            for x, y in zip(mine, ref):
                assert abs(x - y) < 1e-10 * max(1.0, abs(y))

    @pytest.mark.parametrize("m", [1e-26, 1e-16, 1e-8, 1e-3, 0.3, 0.9])
    def test_near_the_pole_line_against_mpmath(self, m):
        # around Im u = +-K' the triple at Im u with parameter 1 - m cannot
        # carry m once 1 - m rounds to 1, so the shift by iK' must
        kp, K = float(ellipkm1(m)), ellip_K(m)
        for x in (0.3 * K, 0.785, 0.97 * K, -1.1):
            for d in (-0.45, -0.1, -1e-3, 1e-3, 0.1, 0.45):
                for sign in (1.0, -1.0):
                    u = complex(x, sign * (kp + d * min(1.0, kp)))
                    with mp.workdps(40):
                        ref = oracles.jacobi_mp(u, m)
                    for got, want in zip(jacobi_complex(u, m), ref):
                        assert abs(got - want) < 1e-13 * max(1.0, abs(want)), (u, m)

    def test_complex_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            m = rng.uniform(0.05, 0.95)
            u = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            sn, cn, dn = jacobi_complex(u, m)
            assert abs(sn * sn + cn * cn - 1) < 1e-12 * max(1.0, abs(sn) ** 2)
            assert abs(m * sn * sn + dn * dn - 1) < 1e-12 * max(1.0, abs(sn) ** 2)

    def test_pole_raises(self):
        m = 0.5
        kp = ellip_K(1 - m)
        with pytest.raises(SingularPointError):
            jacobi_complex(1j * kp, m)

    def test_accepts_complex_point(self):
        a = jacobi_complex(ComplexPoint(0.4, 0.3), 0.6)
        b = jacobi_complex(0.4 + 0.3j, 0.6)
        assert a == b


def _random_safe_points(rng, count, m_lo=0.05, m_hi=0.95):
    """(u0, m) samples keeping clear of poles and zeros of sn, cn, dn."""
    out = []
    while len(out) < count:
        m = rng.uniform(m_lo, m_hi)
        u = complex(rng.uniform(0.15, 1.4), rng.uniform(0.1, 0.6))
        try:
            sn, cn, dn = jacobi_complex(u, m)
        except SingularPointError:
            continue
        if min(abs(sn), abs(cn), abs(dn)) > 1e-3:
            out.append((u, m))
    return out


class TestHalfPeriodShifts:
    """The K-shift identities used to reduce the Z-integral differences."""

    def test_shift_identities_sampled(self):
        rng = np.random.default_rng(23)
        for u0, m in _random_safe_points(rng, 100):
            K = ellip_K(m)
            sn, cn, dn = jacobi_complex(u0, m)
            snK, cnK, dnK = jacobi_complex(u0 + K, m)
            rt = math.sqrt(1 - m)
            scale = max(1.0, abs(sn), abs(cn), abs(dn)) ** 3
            assert abs(cnK - (-rt * sn / dn)) < 1e-10 * scale
            assert abs(dnK - rt / dn) < 1e-10 * scale
            assert abs(snK - cn / dn) < 1e-10 * scale
            # the three ratio identities
            assert abs(cnK * dnK / snK - (m - 1) * sn / (cn * dn)) < 1e-9 * scale
            assert abs(dnK * snK / cnK - (-cn / (dn * sn))) < 1e-9 * scale
            assert abs(cnK * snK / dnK - (-cn * sn / dn)) < 1e-9 * scale

    def test_quarter_period_edge_values(self):
        # cn(K) = 0, dn(K) = sqrt(1-m), sn(K) = 1 anchors the shifts
        for m in (0.2, 0.5, 0.8):
            sn, cn, dn = jacobi_sn_cn_dn(ellip_K(m), m)
            assert (sn, cn, dn) == (
                pytest.approx(1.0, abs=1e-12),
                pytest.approx(0.0, abs=1e-12),
                pytest.approx(math.sqrt(1 - m), abs=1e-12),
            )


class TestEpsilon:
    def test_zero(self):
        assert jacobi_epsilon(0.0, 0.4) == 0.0

    def test_at_quarter_period(self):
        for m in (0.1, 0.5, 0.9):
            assert jacobi_epsilon(ellip_K(m), m) == pytest.approx(ellip_E(m), abs=1e-12)

    def test_frozen_quadrature_value(self):
        assert jacobi_epsilon(0.7, 0.3) == pytest.approx(EPS_07_03, abs=1e-10)

    def test_large_argument_periodicity(self):
        m = 0.35
        K, E = ellip_K(m), ellip_E(m)
        assert jacobi_epsilon(0.4 + 6 * K, m) == pytest.approx(jacobi_epsilon(0.4, m) + 6 * E, abs=1e-10)

    def test_complex_against_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            m = rng.uniform(0.1, 0.9)
            u = complex(rng.uniform(0.1, 1.2), rng.uniform(0.05, 0.6))
            ref = oracles.epsilon_quad(u, m)
            assert abs(jacobi_epsilon(u, m) - ref) < 1e-9

    def test_shift_identity(self):
        # eps(u0+K) - eps(u0) = E - m cn sn / dn
        rng = np.random.default_rng(17)
        for u0, m in _random_safe_points(rng, 30):
            K, E = ellip_K(m), ellip_E(m)
            sn, cn, dn = jacobi_complex(u0, m)
            lhs = jacobi_epsilon(u0 + K, m) - jacobi_epsilon(u0, m)
            rhs = E - m * cn * sn / dn
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestInverseSn:
    def test_zero(self):
        u = inverse_sn(0.0, 0.5)
        assert abs(u.as_complex()) < 1e-12

    def test_unit_maps_to_K(self):
        for m in (0.2, 0.6):
            u = inverse_sn(1.0, m).as_complex()
            assert u == pytest.approx(ellip_K(m), abs=1e-10)

    def test_i_at_m1(self):
        u = inverse_sn(1j, 1.0).as_complex()
        assert u == pytest.approx(1j * math.pi / 4, abs=1e-12)

    @staticmethod
    def _half_axis_points(rng, signs):
        """(m, w) with w on each half-axis in `signs`, |w| from 0.05 to 100 and 1/sqrt(m)."""
        out = []
        for sign in signs:
            for r in (0.05, 0.7, 1.0, 1.2, 3.0, 17.0, 100.0):
                out.append((rng.uniform(0.05, 0.95), sign * r))
            m = rng.uniform(0.05, 0.95)
            out.append((m, sign / math.sqrt(m)))
        return out

    def test_right_inverse_property(self):
        rng = np.random.default_rng(19)
        points = [(rng.uniform(0.05, 0.95), complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))) for _ in range(60)]
        points += [(rng.uniform(0.05, 0.95), complex(*rng.uniform(-100, 100, 2))) for _ in range(30)]
        points += self._half_axis_points(rng, (1, -1, 1j, -1j))
        points += [(0.5, 1.2), (0.3, -3.0)]
        for m, w in points:
            u = inverse_sn(w, m)
            sn, _, _ = jacobi_complex(u, m)
            assert abs(sn - w) < 1e-12 * max(1.0, abs(w))

    @pytest.mark.parametrize("m", [1e-26, 1e-20])
    def test_edge_above_the_pole_line_at_tiny_m(self, m):
        # real w > 1/sqrt(m) lies on sn(x + iK') = 1/(sqrt(m) sn x), with K'
        # finite although 1 - m rounds to 1
        w = 10.0 / math.sqrt(m)
        u = inverse_sn(w, m).as_complex()
        assert u.imag == float(ellipkm1(m))
        assert abs(jacobi_complex(u, m)[0] - w) <= 1e-12 * w

    def test_wrong_inverse_is_rejected(self, monkeypatch):
        # the one evaluation of sn after the closed form is a real check
        real = special._carlson_F
        monkeypatch.setattr(special, "_carlson_F", lambda w, m: real(w, m) + 1e-3)
        for w in (0.4 + 0.3j, 2.0, 7.0):
            with pytest.raises(NonConvergenceError, match="inverse_sn"):
                inverse_sn(w, 0.6)

    def test_principal_rectangle(self):
        # first-quadrant w has its principal preimage in [0,K] x [0,K']
        rng = np.random.default_rng(29)
        points = [(rng.uniform(0.1, 0.9), complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))) for _ in range(30)]
        points += [(rng.uniform(0.1, 0.9), complex(*rng.uniform(0, 100, 2))) for _ in range(20)]
        points += self._half_axis_points(rng, (1, 1j))
        for m, w in points:
            u = inverse_sn(w, m).as_complex()
            assert -1e-12 <= u.real <= ellip_K(m) + 1e-12
            assert -1e-12 <= u.imag <= ellip_K(1 - m) + 1e-12


class TestZIntegrals:
    def test_derivatives(self):
        # d/du Z1 = 1/sn^2, d/du Z2 = 1/cn^2, d/du Z3 = 1/dn^2
        rng = np.random.default_rng(31)
        h = 1e-5
        for u0, m in _random_safe_points(rng, 20):
            sn, cn, dn = jacobi_complex(u0, m)
            plus = z_integrals(u0 + h, m)
            minus = z_integrals(u0 - h, m)
            targets = (1 / sn**2, 1 / cn**2, 1 / dn**2)
            for (zp, zm, t) in zip(plus, minus, targets):
                assert abs((zp - zm) / (2 * h) - t) < 1e-6 * max(1.0, abs(t))

    def test_z3_shift_consistency(self):
        # Z3(u+K) - Z3(u) must combine the epsilon shift with the
        # half-period ratio flip of cn sn / dn
        rng = np.random.default_rng(37)
        for u0, m in _random_safe_points(rng, 30):
            K, E = ellip_K(m), ellip_E(m)
            sn, cn, dn = jacobi_complex(u0, m)
            z3a = z_integrals(u0, m)[2]
            z3b = z_integrals(u0 + K, m)[2]
            expected = (E - m * cn * sn / dn) / (1 - m) - (m / (1 - m)) * (
                -cn * sn / dn - cn * sn / dn
            )
            assert abs((z3b - z3a) - expected) < 1e-9 * max(1.0, abs(expected))

    def test_singular_point_rejected(self):
        with pytest.raises(SingularPointError):
            z_integrals(0.0, 0.5)  # sn(0) = 0
        with pytest.raises(SingularPointError):
            z_integrals(ellip_K(0.5), 0.5)  # cn(K) = 0
