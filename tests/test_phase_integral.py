"""Phase-integral quantization: turning points, the L1 and L3 reductions,
the boundary-term base point, and golden eigenvalues."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cornellbound import phase_integral as pi_mod
from cornellbound.errors import DomainError, NonConvergenceError, NoValidRootError, OrderingError
from cornellbound.model import DimensionlessCase, Q2_of_z, R_of_z
from cornellbound.phase_integral import (
    A_from_x2,
    C_term,
    L1_closed,
    L3_closed,
    L3_coefficients,
    chi0_diagnostic,
    quantize,
    solve_u0,
    solve_u0_kappas,
    turning_points_from_x2,
)
from cornellbound.special import ellip_E, ellip_K, jacobi_complex, jacobi_sn_cn_dn
from oracles import L1_quadrature, L3_partial_fractions, z_integrals


def _random_cases(rng, count):
    """Random (x2, case) pairs admitting the two-turning-point structure."""
    out = []
    while len(out) < count:
        case = DimensionlessCase(B=rng.uniform(0.0, 10.0), l=int(rng.integers(0, 4)))
        x2 = rng.uniform(1.0, 12.0)
        try:
            tp = turning_points_from_x2(x2, case)
        except OrderingError:
            continue
        if abs(tp.alpha2 - tp.m) > 1e-6 and tp.m < 1.0 - 1e-6:
            out.append((x2, case, tp))
    return out


class TestTurningPoints:
    @given(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.5, max_value=15.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_structure(self, B, l, x2):
        case = DimensionlessCase(B=B, l=l)
        try:
            tp = turning_points_from_x2(x2, case)
        except OrderingError:
            return
        assert tp.x0 < 0.0 < tp.x1 < tp.x2
        assert 0.0 < tp.m < 1.0
        assert tp.m < tp.alpha2 < 1.0  # x0 < 0 forces m < alpha^2
        assert tp.d2 == pytest.approx(tp.x2 - tp.x0, rel=1e-14)
        # x1 and x2 are both zeros of Q^2 at A(x2)
        A = A_from_x2(x2, case)
        assert Q2_of_z(A, case, tp.x1) == pytest.approx(0.0, abs=1e-9)
        assert Q2_of_z(A, case, tp.x2) == pytest.approx(0.0, abs=1e-9)

    def test_vieta_against_cubic_roots(self):
        # x0, x1, x2 are the roots of z^3 - A z^2 - B z + nu^2
        rng = np.random.default_rng(41)
        for x2, case, tp in _random_cases(rng, 40):
            A = A_from_x2(x2, case)
            assert tp.x0 + tp.x1 + tp.x2 == pytest.approx(A, rel=1e-10, abs=1e-10)
            assert (
                tp.x0 * tp.x1 + tp.x0 * tp.x2 + tp.x1 * tp.x2
                == pytest.approx(-case.B, rel=1e-9, abs=1e-9)
            )
            assert tp.x0 * tp.x1 * tp.x2 == pytest.approx(-case.nu**2, rel=1e-9)
            roots = np.sort(np.roots([1.0, -A, -case.B, case.nu**2]))
            assert np.allclose(roots, [tp.x0, tp.x1, tp.x2], rtol=1e-8, atol=1e-8)

    def test_ordering_error(self):
        with pytest.raises(OrderingError):
            turning_points_from_x2(0.1, DimensionlessCase(B=2.0, l=0))
        with pytest.raises(DomainError):
            turning_points_from_x2(-1.0, DimensionlessCase(B=0.0, l=0))

    def test_cubic_substitution(self):
        # z = x2 - (x2-x1) sn^2 maps -P(z) = (z-x0)(z-x1)(z-x2) onto
        # -k^4 d^6 sn^2 cn^2 dn^2
        rng = np.random.default_rng(43)
        for x2, case, tp in _random_cases(rng, 20):
            K = ellip_K(tp.m)
            for u in rng.uniform(0.05 * K, 0.95 * K, size=4):
                sn, cn, dn = jacobi_sn_cn_dn(u, tp.m)
                z = tp.x2 - (tp.x2 - tp.x1) * sn * sn
                lhs = (z - tp.x0) * (z - tp.x1) * (z - tp.x2)
                rhs = -tp.m**2 * tp.d2**3 * (sn * cn * dn) ** 2
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestL1:
    def test_closed_matches_quadrature(self):
        rng = np.random.default_rng(47)
        for x2, case, tp in _random_cases(rng, 100):
            assert L1_closed(tp) == pytest.approx(L1_quadrature(tp), rel=1e-8, abs=1e-10)

    def test_positive(self):
        rng = np.random.default_rng(53)
        for _, _, tp in _random_cases(rng, 20):
            assert L1_closed(tp) > 0.0

    def test_monotone_in_x2(self):
        case = DimensionlessCase(B=2.0, l=1)
        vals = [L1_closed(turning_points_from_x2(x2, case)) for x2 in (3.0, 4.0, 5.0)]
        assert vals[0] < vals[1] < vals[2]


class TestL3Coefficients:
    def test_F1(self):
        for m in (0.1, 0.5, 0.9):
            assert L3_partial_fractions(m, 0.7)[0] == pytest.approx(1.0 + m, rel=1e-14)

    def test_partial_fraction_identity(self):
        # F1(1-x)(1-mx) + F2 x(1-mx) + F3 x(1-x) = (1 - a2 x)(1 + m - 3 m x)
        rng = np.random.default_rng(59)
        for _ in range(50):
            m = rng.uniform(0.05, 0.95)
            a2 = rng.uniform(m + 0.01, 0.999)
            F1, F2, F3 = L3_partial_fractions(m, a2)
            for x in rng.uniform(-2.0, 2.0, size=5):
                lhs = F1 * (1 - x) * (1 - m * x) + F2 * x * (1 - m * x) + F3 * x * (1 - x)
                rhs = (1 - a2 * x) * (1 + m - 3 * m * x)
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_A_cal_two_forms(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            m = rng.uniform(0.05, 0.95)
            a2 = rng.uniform(0.05, 0.95)
            c = L3_coefficients(m, a2)
            form1 = -(1 + m) - (1 - a2) * (1 - 2 * m) / (1 - m) ** 2 + (a2 - m) * m * (m - 2) / (1 - m) ** 2
            assert c.A_cal == pytest.approx(form1, rel=1e-11, abs=1e-11)

    def test_B_cal_two_forms(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            m = rng.uniform(0.05, 0.95)
            a2 = rng.uniform(0.05, 0.95)
            c = L3_coefficients(m, a2)
            form1 = (1 + m) + (1 - a2) * (1 - 2 * m) / (1 - m)
            assert c.B_cal == pytest.approx(form1, rel=1e-11, abs=1e-11)

    def test_G_two_forms(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            m = rng.uniform(0.05, 0.95)
            a2 = rng.uniform(0.05, 0.95)
            gamma1 = (
                2 * m**4
                - 3 * m**3
                - 3 * m**2
                + 2 * m
                + a2 * (-(m**3) + 4 * m**2 - m)
                + (2 * m**3 - 4 * m**2) * (a2 - m)
            )
            gamma2 = m**3 - 3 * m**2 + 2 * m + m * (m * m - 1) * a2
            assert gamma1 == pytest.approx(gamma2, rel=1e-11, abs=1e-11)
            assert L3_coefficients(m, a2).G == pytest.approx(gamma2 / (1 - m) ** 2, rel=1e-11)

    def test_degenerate_m(self):
        with pytest.raises(DomainError):
            L3_coefficients(1.0, 0.5)


class TestBasePoint:
    def test_kappas_at_m1(self):
        a2 = 0.3
        k2, k1, k0 = solve_u0_kappas(1.0, a2)
        assert k2 == pytest.approx(a2 - 1.0, rel=1e-14)
        assert k1 == pytest.approx(0.0, abs=1e-14)
        assert k0 == pytest.approx(1.0 - a2, rel=1e-14)

    def test_u0_at_m1(self):
        u0 = solve_u0(1.0, 0.3)
        assert (u0.re, u0.im) == (0.0, pytest.approx(math.pi / 4))

    def test_u0_lets_non_package_errors_escape(self, monkeypatch):
        def bug(w, m):
            raise TypeError("a bug, not an invalid branch")

        monkeypatch.setattr(pi_mod.special, "inverse_sn", bug)
        with pytest.raises(TypeError, match="a bug"):
            solve_u0(0.5, 0.3)

    def test_u0_skips_branches_that_raise_package_errors(self, monkeypatch):
        def invalid(w, m):
            raise NonConvergenceError("forced failure")

        monkeypatch.setattr(pi_mod.special, "inverse_sn", invalid)
        with pytest.raises(NoValidRootError, match="forced failure"):
            solve_u0(0.5, 0.3)

    def test_u0_satisfies_quadratic_and_kills_C(self):
        rng = np.random.default_rng(73)
        for _, _, tp in _random_cases(rng, 30):
            u0 = solve_u0(tp.m, tp.alpha2)
            sn, _, _ = jacobi_complex(u0, tp.m)
            k2, k1, k0 = solve_u0_kappas(tp.m, tp.alpha2)
            x = sn * sn
            scale = max(abs(k2), abs(k1), abs(k0))
            assert abs(k2 * x * x + k1 * x + k0) < 1e-7 * scale
            assert abs(C_term(u0, tp.m, tp.alpha2)) <= pi_mod.C_TOL

    def test_C_explicit_three_term_form(self):
        # the raw three-ratio form of C equals the F/G assembled form
        rng = np.random.default_rng(79)
        for _ in range(40):
            m = rng.uniform(0.05, 0.95)
            a2 = rng.uniform(0.05, 0.95)
            u0 = complex(rng.uniform(0.2, 1.2), rng.uniform(0.05, 0.5))
            sn, cn, dn = jacobi_complex(u0, m)
            if min(abs(sn), abs(cn), abs(dn)) < 1e-3:
                continue
            raw = (
                -(m * m - 1) * sn / (cn * dn)
                + (1 + m) * cn * dn / sn
                - (1 - a2) * (1 - 2 * m) / (1 - m) ** 2 * (cn / (dn * sn) + dn * sn / cn)
                + (m**3 - 3 * m**2 + 2 * m + m * (m * m - 1) * a2) / (1 - m) ** 2 * cn * sn / dn
            )
            assembled = C_term(u0, m, a2)
            assert abs(raw - assembled) < 1e-9 * max(1.0, abs(raw))


class TestL3:
    def test_two_route_consistency(self):
        # route 1: A_cal E + B_cal K (+ C, which vanishes at u0);
        # route 2: F1 dZ1 + F2 dZ2 + F3 dZ3 across [u0, u0 + K]
        rng = np.random.default_rng(83)
        for _, _, tp in _random_cases(rng, 25):
            m, a2 = tp.m, tp.alpha2
            c = L3_coefficients(m, a2)
            F1, F2, F3 = L3_partial_fractions(m, a2)
            u0 = solve_u0(m, a2).as_complex()
            K, E = ellip_K(m), ellip_E(m)
            za = z_integrals(u0, m)
            zb = z_integrals(u0 + K, m)
            route2 = F1 * (zb[0] - za[0]) + F2 * (zb[1] - za[1]) + F3 * (zb[2] - za[2])
            route1 = c.A_cal * E + c.B_cal * K
            scale = max(1.0, abs(route1))
            assert abs(route2 - route1) < 1e-8 * scale
            assert abs(route2.imag) < 1e-8 * scale
            # and both equal 12 d^3 m a2 L3
            assert L3_closed(tp) == pytest.approx(
                route1 / (12 * tp.d3 * m * a2), rel=1e-10, abs=1e-12
            )

    def test_against_contour_quadrature(self):
        rng = np.random.default_rng(89)
        checked = 0
        for _, _, tp in _random_cases(rng, 12):
            u0 = solve_u0(tp.m, tp.alpha2).as_complex()
            if u0.imag < 0.05:
                # a nearly real base point puts the straight contour on top
                # of the real-axis poles of the integrand; the quadrature
                # oracle is meaningless there
                continue
            checked += 1
            ref = oracles.L3_contour_quad(tp.m, tp.alpha2, tp.d3, u0)
            val = L3_closed(tp)
            assert abs(ref.imag) < 1e-7 * max(1.0, abs(val))
            assert val == pytest.approx(ref.real, rel=1e-6, abs=1e-9)
        assert checked >= 5


# published six-digit comparison values: leading-order phase integral
TABLE2_J0 = [
    (0.0, 0, 2.34966),
    (0.0, 1, 3.36536),
    (0.0, 2, 4.25046),
    (2.0, 0, 0.151574),
    (2.0, 1, 2.23556),
    (2.0, 2, 3.4322),
    (5.0, 1, 0.0670229),
    (5.0, 2, 2.02359),
    (10.0, 2, -0.952484),
]

TABLE2_NUMEROV = {
    (0.0, 0): 2.33811,
    (0.0, 1): 3.36125,
    (0.0, 2): 4.24818,
    (2.0, 0): 0.194971,
    (2.0, 1): 2.23816,
    (2.0, 2): 3.43174,
    (5.0, 1): 0.0811837,
    (5.0, 2): 2.02688,
    (10.0, 2): -0.943488,
}


class TestQuantize:
    @pytest.mark.parametrize("B,l,expected", TABLE2_J0)
    def test_leading_order_golden(self, B, l, expected):
        res = quantize(DimensionlessCase(B=B, l=l, s=0, j=0))
        assert res.A == pytest.approx(expected, abs=1e-5)

    def test_invariants_on_converged_results(self):
        for B, l, _ in TABLE2_J0:
            for j in (0, 1):
                res = quantize(DimensionlessCase(B=B, l=l, s=0, j=j))
                assert res.residual <= pi_mod.RESIDUAL_TOL
                assert res.C_abs <= pi_mod.C_TOL
                sn, cn, dn = jacobi_complex(res.u0, res.turning_points.m)
                assert min(abs(sn), abs(cn), abs(dn)) > 1e-12
                assert res.A == pytest.approx(A_from_x2(res.x2, res.case), rel=1e-14)

    def test_third_order_improves_on_leading(self):
        # the corrected condition lands closer to the matrix eigenvalue
        for B, l in ((0.0, 0), (0.0, 2), (2.0, 1), (5.0, 2)):
            a_ref = TABLE2_NUMEROV[(B, l)]
            a0 = quantize(DimensionlessCase(B=B, l=l, s=0, j=0)).A
            a1 = quantize(DimensionlessCase(B=B, l=l, s=0, j=1)).A
            assert abs(a1 - a_ref) < abs(a0 - a_ref)

    def test_excited_states_increase(self):
        case = lambda s: DimensionlessCase(B=2.0, l=1, s=s, j=1)
        vals = [quantize(case(s)).A for s in range(4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_extreme_coulomb_raises_package_error(self):
        # Brent steps onto an x2 with no turning-point ordering; that error
        # must come out as it is, not as a scipy TypeError on a None value
        with pytest.raises(OrderingError):
            quantize(DimensionlessCase(B=1e6, l=2, s=0, j=0))

    def test_deterministic(self):
        c = DimensionlessCase(B=5.0, l=1, s=2, j=1)
        r1, r2 = quantize(c), quantize(c)
        assert r1.A == r2.A
        assert r1.u0 == r2.u0


class TestChi0:
    def test_matches_finite_differences(self):
        case = DimensionlessCase(B=2.0, l=1)
        A = quantize(DimensionlessCase(B=2.0, l=1, s=0, j=1)).A
        z = np.array([0.9, 1.5, 2.7])
        h = 1e-5

        def q2(zz):
            return Q2_of_z(A, case, zz)

        chi_fd = []
        for zi in z:
            d1 = (q2(zi + h) - q2(zi - h)) / (2 * h)
            d2 = (q2(zi + h) - 2 * q2(zi) + q2(zi - h)) / h**2
            q = q2(zi)
            chi_fd.append((5 * d1**2 - 4 * q * d2) / (16 * q**3) + R_of_z(A, case, zi) / q - 1)
        expected = float(np.max(np.abs(chi_fd)))
        assert chi0_diagnostic(A, case, z) == pytest.approx(expected, rel=1e-4)

    def test_decreases_with_l(self):
        # the base function is increasingly accurate for higher angular
        # momentum; compare at the midpoint of the classically allowed region
        vals = []
        for l in (0, 1, 2):
            res = quantize(DimensionlessCase(B=0.0, l=l, s=0, j=1))
            tp = res.turning_points
            zmid = 0.5 * (tp.x1 + tp.x2)
            vals.append(chi0_diagnostic(res.A, DimensionlessCase(B=0.0, l=l), [zmid]))
        assert vals[0] > vals[1] > vals[2]

    def test_rejects_zero_of_Q2(self):
        case = DimensionlessCase(B=0.0, l=0)
        res = quantize(DimensionlessCase(B=0.0, l=0, s=0, j=1))
        with pytest.raises(DomainError):
            chi0_diagnostic(res.A, case, [res.turning_points.x2])
        with pytest.raises(DomainError):
            chi0_diagnostic(res.A, case, [-1.0])
