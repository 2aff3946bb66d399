"""Phase-integral quantization: turning points, the L1 and L3 reductions,
the boundary-term base point, and golden eigenvalues."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cornellbound import phase_integral as pi_mod
from cornellbound import special
from cornellbound.errors import (
    BracketError,
    CornellboundError,
    DomainError,
    NonConvergenceError,
    NoValidRootError,
    OrderingError,
)
from cornellbound.model import DimensionlessCase, Q2_of_z, R_of_z
from cornellbound.phase_integral import (
    A_from_x2,
    C_term,
    L1_closed,
    L3_closed,
    L3_coefficients,
    chi0_diagnostic,
    quantize,
    quantize_ladder,
    sn2_root,
    solve_u0,
    solve_u0_kappas,
    turning_points_from_x2,
    x2_floor,
)
from cornellbound.special import ellip_E, ellip_K, jacobi_complex
from oracles import L1_quadrature, L3_partial_fractions, jacobi_sn_cn_dn, z_integrals


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
        if tp.m < 1.0 - 1e-6:
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


class TestX2Floor:
    @pytest.mark.parametrize("B", [0.0, 1e-3, 2.0, 20.0, 150.0, 400.0, 1e4, 1e6, 1e9])
    def test_root_of_the_cubic(self, B):
        for l in range(4):
            case = DimensionlessCase(B=B, l=l)
            z = x2_floor(case)
            nu2 = case.nu**2
            assert z > 0.0
            assert abs(z**3 + B * z - 2.0 * nu2) <= 1e-14 * max(z**3, B * z, 2.0 * nu2)

    @pytest.mark.parametrize("B", [0.0, 1e-3, 2.0, 20.0, 150.0, 400.0, 1e4, 1e6, 1e9])
    def test_separates_the_ordering(self, B):
        for l in range(4):
            case = DimensionlessCase(B=B, l=l)
            z = x2_floor(case)
            with pytest.raises(OrderingError):
                turning_points_from_x2(z * (1.0 - 1e-9), case)
            tp = turning_points_from_x2(z * (1.0 + 1e-6), case)
            assert 0.0 < tp.x1 < tp.x2


class TestL1:
    def test_closed_matches_quadrature(self):
        rng = np.random.default_rng(47)
        for x2, case, tp in _random_cases(rng, 100):
            assert L1_closed(tp) == pytest.approx(L1_quadrature(tp), rel=1e-12, abs=1e-10)

    @given(
        st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=9.0).map(lambda u: 10.0**u)),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=-3.0, max_value=2.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_30_digit_oracle(self, B, l, gap):
        # from the floor, where m -> 0, to far above it, for B up to 1e9
        case = DimensionlessCase(B=B, l=l)
        x2 = x2_floor(case) * (1.0 + 10.0**gap)
        ref = oracles.L1_mpmath(B, l, x2)
        assert abs(L1_closed(turning_points_from_x2(x2, case)) - ref) <= 1e-13 * max(1.0, ref)

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
        u0, c_abs = solve_u0(1.0, 0.3)
        assert (u0.re, u0.im) == (0.0, pytest.approx(math.pi / 4))
        assert c_abs == 0.0

    def test_u0_lets_non_package_errors_escape(self, monkeypatch):
        def bug(w, m):
            raise TypeError("a bug, not an invalid branch")

        monkeypatch.setattr(pi_mod.special, "inverse_sn", bug)
        with pytest.raises(TypeError, match="a bug"):
            solve_u0(0.5, 0.3)

    def test_u0_lets_package_errors_through(self, monkeypatch):
        # one root, one inverse: a failed inverse is the base point's error
        def invalid(w, m):
            raise NonConvergenceError("forced failure")

        monkeypatch.setattr(pi_mod.special, "inverse_sn", invalid)
        with pytest.raises(NonConvergenceError, match="forced failure"):
            solve_u0(0.5, 0.3)

    def test_u0_with_C_above_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(pi_mod, "C_term", lambda u0, m, alpha2: 2.0 * pi_mod.C_TOL)
        with pytest.raises(NoValidRootError, match="above"):
            solve_u0(0.5, 0.3)

    @pytest.mark.parametrize(
        "kappas, m, expected",
        [
            ((1.0, -5.0, 6.0), 0.25, 3.0),  # roots 3 (+disc) and 2: the +disc root first
            ((1.0, -1.5, 0.5), 0.25, 0.5),  # roots 1 (+disc, at cn = 0) and 0.5
            ((1.0, 2.0, 0.0), 0.25, -2.0),  # roots 0 (+disc, at sn = 0) and -2
            ((1.0, -6.0, 8.0), 0.25, 2.0),  # roots 4 (+disc, at dn = 0, x = 1/m) and 2
            ((0.0, 1.0, -0.5), 0.25, 0.5),  # kappa2 = 0: the one finite root
        ],
    )
    def test_sn2_root_skips_roots_at_zeros_of_sn_cn_dn(self, monkeypatch, kappas, m, expected):
        monkeypatch.setattr(pi_mod, "solve_u0_kappas", lambda m, alpha2: kappas)
        assert sn2_root(m, 0.3) == expected

    @pytest.mark.parametrize("kappas", [(1.0, -2.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
    def test_sn2_root_of_a_degenerate_quadratic_raises(self, monkeypatch, kappas):
        # a double root at x = 1 or x = 0, or none at all
        monkeypatch.setattr(pi_mod, "solve_u0_kappas", lambda m, alpha2: kappas)
        with pytest.raises(NoValidRootError, match="no C = 0 base point"):
            sn2_root(0.5, 0.3)

    @staticmethod
    def _assert_valid_u0(m, a2):
        """solve_u0 solves the quadratic in sn^2, kills C and lands in [0, K] x [0, K']."""
        u0, c_abs = solve_u0(m, a2)
        sn, _, _ = jacobi_complex(u0, m)
        k2, k1, k0 = solve_u0_kappas(m, a2)
        x = sn * sn
        assert abs(x - sn2_root(m, a2)) < 1e-9 * max(1.0, abs(x))
        scale = max(abs(k2), abs(k1), abs(k0))
        assert abs(k2 * x * x + k1 * x + k0) < 1e-7 * scale
        assert c_abs == abs(C_term(u0, m, a2)) <= pi_mod.C_TOL
        assert -1e-12 <= u0.re <= ellip_K(m) + 1e-12
        assert -1e-12 <= u0.im <= ellip_K(1 - m) + 1e-12

    def test_u0_satisfies_quadratic_and_kills_C(self):
        rng = np.random.default_rng(73)
        for _, _, tp in _random_cases(rng, 30):
            self._assert_valid_u0(tp.m, tp.alpha2)

    def test_u0_with_tiny_kappa2(self):
        # kappa2 ~ 2 m^2 alpha^2 = 3e-11 at a Coulomb-dominated level
        m, a2 = 4.1e-6, 0.93
        assert 1e-11 < solve_u0_kappas(m, a2)[0] < 1e-10
        self._assert_valid_u0(m, a2)

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
            u0 = solve_u0(m, a2)[0].as_complex()
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
            u0 = solve_u0(tp.m, tp.alpha2)[0].as_complex()
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


# the published comparison (Table 2, s = 0): (B, l) -> (A_N, A_PhI at j = 0), six digits
TABLE2 = oracles.reference.TABLE2
TABLE2_J0 = [(B, l, a_phi) for (B, l), (_, a_phi) in TABLE2.items()]


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
            a_ref = TABLE2[(B, l)][0]
            a0 = quantize(DimensionlessCase(B=B, l=l, s=0, j=0)).A
            a1 = quantize(DimensionlessCase(B=B, l=l, s=0, j=1)).A
            assert abs(a1 - a_ref) < abs(a0 - a_ref)

    def test_excited_states_increase(self):
        case = lambda s: DimensionlessCase(B=2.0, l=1, s=s, j=1)
        vals = [quantize(case(s)).A for s in range(4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("B", [150.0, 200.0, 400.0])
    def test_coulomb_dominated_third_order(self, B):
        # hydrogenic level -B^2/4 plus the first-order shift <z> = 3/B
        res = quantize(DimensionlessCase(B=B, l=0, s=0, j=1))
        assert res.C_abs <= pi_mod.C_TOL
        assert res.A == pytest.approx(-(B**2) / 4.0 + 3.0 / B, abs=1e-5)

    def test_coulomb_dominated_leading_order(self):
        for B in (150.0, 200.0, 400.0):
            res = quantize(DimensionlessCase(B=B, l=0, s=0, j=0))
            assert res.C_abs <= pi_mod.C_TOL
            assert L1_quadrature(res.turning_points) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_degenerate_base_point_raises_package_error(self, monkeypatch):
        # a double root at x = sn^2(u0) = 1, where cn vanishes: no base point
        monkeypatch.setattr(pi_mod, "solve_u0_kappas", lambda m, alpha2: (1.0, -2.0, 1.0))
        with pytest.raises(NoValidRootError, match="no C = 0 base point"):
            quantize(DimensionlessCase(B=2.0, l=1, s=0, j=1))
        # at j = 0 the level needs no base point; reading u0 fails
        res = quantize(DimensionlessCase(B=2.0, l=1, s=0, j=0))
        with pytest.raises(NoValidRootError, match="no C = 0 base point"):
            res.u0

    def test_ordering_error_inside_bracket_escapes(self, monkeypatch):
        # an x2 inside Brent's interval with no turning-point ordering must
        # come out as OrderingError
        real_brentq, real_tp = pi_mod.brentq, pi_mod.turning_points_from_x2
        interval = []

        def brentq(f, a, b, **kwargs):
            interval.extend((a, b))
            return real_brentq(f, a, b, **kwargs)

        def turning_points(x2, case):
            if interval and interval[0] < x2 < interval[1]:
                raise OrderingError(f"no ordering at x2={x2}")
            return real_tp(x2, case)

        monkeypatch.setattr(pi_mod, "brentq", brentq)
        monkeypatch.setattr(pi_mod, "turning_points_from_x2", turning_points)
        with pytest.raises(OrderingError, match="no ordering"):
            quantize(DimensionlessCase(B=2.0, l=1, s=0, j=0))
        assert interval

    def test_deterministic(self):
        c = DimensionlessCase(B=5.0, l=1, s=2, j=1)
        r1, r2 = quantize(c), quantize(c)
        assert r1.A == r2.A
        assert r1.u0 == r2.u0


# (B, l, s, j, A, x2) as the scan over every point from x2 = 1e-6 found them
PINNED_LEVELS = [
    (2.0, 1, 0, 0, 2.235559784974787, 2.6690486973012995),
    (2.0, 1, 0, 1, 2.238415816455046, 2.6717839556035794),
    (2.0, 1, 1, 0, 4.014214032634561, 4.354831675150131),
    (2.0, 1, 1, 1, 4.015273888176149, 4.355840132936776),
    (2.0, 1, 2, 0, 5.472683219234964, 5.752369165685412),
    (2.0, 1, 2, 1, 5.473367421685562, 5.753029084788803),
    (2.0, 1, 5, 0, 9.019226904217906, 9.209859198694502),
    (2.0, 1, 5, 1, 9.019733891128224, 9.21035731039701),
    (2.0, 1, 10, 0, 13.719920739295006, 13.85257301259254),
    (2.0, 1, 10, 1, 13.720387799229307, 13.853036030698842),
    (2.0, 1, 15, 0, 17.704891518227917, 17.81009405901699),
    (2.0, 1, 15, 1, 17.705328446579465, 17.81052859373191),
    (2.0, 1, 20, 0, 21.27722829722419, 21.365906586349674),
    (2.0, 1, 20, 1, 21.27763762599106, 21.3663143169339),
    (0.0, 0, 0, 0, 2.3496580282123536, 2.3025016877877023),
    (0.0, 0, 0, 1, 2.3361435019178742, 2.2884043752521683),
    (0.0, 1, 0, 0, 3.365364701598277, 3.13667693245486),
    (0.0, 1, 0, 1, 3.3611016802189893, 3.1316841441261976),
    (0.0, 2, 0, 0, 4.250461813603435, 3.8227792085260672),
    (0.0, 2, 0, 1, 4.248146416354977, 3.819795383625663),
    (2.0, 0, 0, 0, 0.15157430094085916, 1.4288495106757837),
    (2.0, 0, 0, 1, 0.19656960317030425, 1.4539061831298847),
    (2.0, 2, 0, 0, 3.432195951887274, 3.492447071255527),
    (2.0, 2, 0, 1, 3.43175313562576, 3.491938374251139),
    (5.0, 1, 0, 0, 0.06702287064939316, 2.0026810845346117),
    (5.0, 1, 0, 1, 0.08137989048147876, 2.0112031648233106),
    (5.0, 2, 0, 0, 2.0235889485852714, 2.996165531189494),
    (5.0, 2, 0, 1, 2.0269617830322937, 2.999253133699907),
    (10.0, 2, 0, 0, -0.9524837057764475, 2.2539379361019316),
    (10.0, 2, 0, 1, -0.9434608827787161, 2.2587474062440487),
]


class TestQuantizeScan:
    def test_no_evaluation_below_the_floor(self, monkeypatch):
        real_tp = pi_mod.turning_points_from_x2
        calls = []

        def counted(x2, case):
            calls.append((x2, case))
            return real_tp(x2, case)

        monkeypatch.setattr(pi_mod, "turning_points_from_x2", counted)
        cases = [DimensionlessCase(B=2.0, l=1, s=s, j=j) for s in range(21) for j in (0, 1)]
        cases += [DimensionlessCase(B=B, l=l, s=0, j=j) for B, l, _ in TABLE2_J0 for j in (0, 1)]
        for case in cases:
            quantize(case)
        assert not [(x2, case) for x2, case in calls if x2 <= x2_floor(case)]
        assert len(calls) <= 250 * len(cases)

    def test_base_point_is_worked_out_only_when_read(self, monkeypatch):
        # quantizing never enters the complex special functions; reading u0
        # and then C_abs makes one solve_u0 call
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(pi_mod, "solve_u0", counted("solve_u0", pi_mod.solve_u0))
        monkeypatch.setattr(special, "inverse_sn", counted("inverse_sn", special.inverse_sn))
        monkeypatch.setattr(special, "jacobi_complex", counted("jacobi_complex", special.jacobi_complex))
        monkeypatch.setattr(pi_mod, "jacobi_complex", special.jacobi_complex)
        cases = [DimensionlessCase(B=2.0, l=1, s=s, j=j) for s in range(21) for j in (0, 1)]
        cases += [DimensionlessCase(B=B, l=l, s=0, j=j) for B, l, _ in TABLE2_J0 for j in (0, 1)]
        for case in cases:
            res = quantize(case)
            assert calls == [], case
            u0, c_abs = res.u0, res.C_abs
            assert calls.count("solve_u0") == 1, case
            assert (res.u0, res.C_abs) == (u0, c_abs) and calls.count("solve_u0") == 1
            calls.clear()

    @pytest.mark.parametrize("B", [1e7, 1e9])
    def test_scan_brackets_levels_below_1e_6(self, B):
        # the deep Coulomb level sits near x2 = 3.7/B, below the grid's old start at 1e-6
        res = quantize(DimensionlessCase(B=B, l=0, s=0, j=0))
        assert res.x2 < 1e-6 and res.C_abs <= pi_mod.C_TOL

    @pytest.mark.parametrize("B,l,s,j,A,x2", PINNED_LEVELS)
    def test_pinned_levels(self, B, l, s, j, A, x2):
        # Brent stops within xtol + rtol |x2| of the root (xtol = XTOL here,
        # since every pinned x2 exceeds 1), and A = A_from_x2 carries that
        # through dA/dx2 = 1 + B/x2^2 - 2 nu^2/x2^3
        case = DimensionlessCase(B=B, l=l, s=s, j=j)
        res = quantize(case)
        dx2 = pi_mod.XTOL + pi_mod.RTOL * x2
        dA = abs(1.0 + B / x2**2 - 2.0 * case.nu**2 / x2**3) * dx2
        assert res.x2 == pytest.approx(x2, rel=dx2 / x2, abs=0)
        assert res.A == pytest.approx(A, rel=dA / abs(A), abs=0)


def _recording_brentq(monkeypatch):
    """Replace pi_mod.brentq by a wrapper that records each call and its result."""
    real, calls = pi_mod.brentq, []

    def brentq(f, a, b, xtol, rtol, **kwargs):
        root, f_root = real(f, a, b, xtol, rtol, **kwargs)
        calls.append(dict(f=f, a=a, b=b, xtol=xtol, rtol=rtol, root=root, f_root=f_root, **kwargs))
        return root, f_root

    monkeypatch.setattr(pi_mod, "brentq", brentq)
    return calls


def _assert_same_root_as_scipy(call):
    from scipy.optimize import brentq as scipy_brentq

    f, a, b = call["f"], call["a"], call["b"]
    assert call["f_a"] == f(a) and call["f_b"] == f(b)
    expected = scipy_brentq(f, a, b, xtol=call["xtol"], rtol=call["rtol"])
    assert call["root"] == expected  # bitwise, not approximately
    assert call["f_root"] == f(expected)


class TestBracketWalk:
    @given(
        B=st.floats(0.0, 1e3),
        l=st.integers(0, 10),
        s=st.integers(0, 30),
        j=st.sampled_from((0, 1)),
    )
    @settings(max_examples=200, deadline=None)
    def test_phase_sum_below_target_just_above_the_floor(self, B, l, s, j):
        # the walk starts here and relies on the residual being negative
        case = DimensionlessCase(B=B, l=l, s=s, j=j)
        assert pi_mod._phase_sum(x2_floor(case) * (1.0 + 1e-6), case) < (s + 0.5) * math.pi

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("B", [1e7, 1e8, 1e9])
    def test_deep_coulomb_level_meets_the_residual_tolerance(self, monkeypatch, B, j):
        # Brent's tolerance follows x2 ~ 3.7/B
        calls = _recording_brentq(monkeypatch)
        res = quantize(DimensionlessCase(B=B, l=0, s=0, j=j))
        assert res.residual <= pi_mod.RESIDUAL_TOL
        assert res.A == pytest.approx(-(B**2) / 4.0 + 3.0 / B, rel=1e-14)
        assert res.x2 < 1.0 and len(calls) == 1
        _assert_same_root_as_scipy(calls[0])

    @pytest.mark.parametrize("s", [0, 5])
    @pytest.mark.parametrize("B", [0.0, 20.0])
    @pytest.mark.parametrize("l", [30, 100, 1000])
    def test_high_l_levels_far_above_the_floor(self, l, B, s):
        # z* ~ (2 (l+1/2)^2)^(1/3) and the level lie well above x2 = 10
        res = quantize(DimensionlessCase(B=B, l=l, s=s, j=0))
        assert L1_quadrature(res.turning_points) == pytest.approx((s + 0.5) * math.pi, abs=1e-9)

    def test_no_sign_change_raises_bracket_error(self, monkeypatch):
        monkeypatch.setattr(pi_mod, "_phase_sum", lambda x2, case: (case.s + 0.5) * math.pi + 1.0)
        with pytest.raises(CornellboundError) as info:
            quantize(DimensionlessCase(B=2.0, l=1, s=0, j=0))
        assert isinstance(info.value, BracketError)


class TestBrent:
    """The in-module brentq against scipy.optimize.brentq, which it ports."""

    @given(
        B=st.floats(0.0, 1e3),
        l=st.integers(0, 10),
        s=st.integers(0, 30),
        j=st.sampled_from((0, 1)),
    )
    @settings(max_examples=100, deadline=None)
    def test_quantize_root_equals_scipy(self, B, l, s, j):
        with pytest.MonkeyPatch.context() as mp:
            calls = _recording_brentq(mp)
            quantize(DimensionlessCase(B=B, l=l, s=s, j=j))
        assert len(calls) == 1
        _assert_same_root_as_scipy(calls[0])

    def test_each_x2_evaluated_once(self, monkeypatch):
        real = pi_mod._phase_sum
        seen = []

        def counted(x2, case):
            seen.append(x2)
            return real(x2, case)

        monkeypatch.setattr(pi_mod, "_phase_sum", counted)
        cases = [DimensionlessCase(B=2.0, l=1, s=s, j=j) for s in range(21) for j in (0, 1)]
        cases += [DimensionlessCase(B=B, l=l, s=0, j=j) for B, l, _ in TABLE2_J0 for j in (0, 1)]
        for case in cases:
            seen.clear()
            res = quantize(case)
            assert len(seen) == len(set(seen)), case
            assert res.x2 in seen

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: math.tanh(20.0 * (x - 0.3)), 0.0, 1.0),
            (lambda x: x**9 - 0.1, 0.0, 1.5),
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: math.exp(x) - 2.0, -4.0, 10.0),
            (lambda x: math.copysign(abs(x - 0.7) ** (1.0 / 3.0), x - 0.7), 0.0, 3.0),
            (lambda x: x * math.exp(-x) - 0.1, 0.0, 1.0),
            (lambda x: 1.0 / (x - 0.5) - 3.0, 0.51, 4.0),
        ],
    )
    @pytest.mark.parametrize("xtol", [1e-14, 1e-6])
    def test_same_iterates_as_scipy(self, f, a, b, xtol):
        from scipy.optimize import brentq as scipy_brentq

        iterates = []

        def logged(x):
            iterates.append(x)
            return f(x)

        expected = scipy_brentq(logged, a, b, xtol=xtol, rtol=pi_mod.RTOL)
        scipy_iterates, iterates[:] = iterates[2:], []  # scipy evaluates both ends first
        root, f_root = pi_mod.brentq(logged, a, b, xtol, pi_mod.RTOL, f_a=f(a), f_b=f(b))
        assert (root, f_root) == (expected, f(expected))
        assert iterates == scipy_iterates

    def test_zero_at_an_end_returns_that_end(self):
        def f(x):
            raise AssertionError("no evaluation needed")

        assert pi_mod.brentq(f, 1.0, 2.0, 1e-14, pi_mod.RTOL, f_a=0.0, f_b=1.0) == (1.0, 0.0)
        assert pi_mod.brentq(f, 1.0, 2.0, 1e-14, pi_mod.RTOL, f_a=-1.0, f_b=0.0) == (2.0, 0.0)

    @pytest.mark.parametrize("f_a, f_b", [(1.0, 2.0), (-1.0, -2.0), (math.nan, 1.0)])
    def test_ends_without_sign_change_raise_bracket_error(self, f_a, f_b):
        with pytest.raises(BracketError, match="do not differ in sign"):
            pi_mod.brentq(lambda x: x, 1.0, 2.0, 1e-14, pi_mod.RTOL, f_a=f_a, f_b=f_b)

    def test_maxiter_raises_nonconvergence_error(self):
        def f(x):
            return math.tanh(20.0 * (x - 0.3))

        assert pi_mod.brentq(f, 0.0, 1.0, 1e-14, pi_mod.RTOL, f_a=f(0.0), f_b=f(1.0))[0] == pytest.approx(0.3)
        with pytest.raises(NonConvergenceError, match="did not converge in 3 evaluations"):
            pi_mod.brentq(f, 0.0, 1.0, 1e-14, pi_mod.RTOL, f_a=f(0.0), f_b=f(1.0), maxiter=3)


def _bits(level):
    """A level as the bits of its outputs, or a failed level as its error type."""
    if isinstance(level, CornellboundError):
        return type(level)
    return tuple(x.hex() for x in (level.A, level.x2, level.residual, level.u0.re, level.u0.im, level.C_abs))


def _alone(B, l, j, s):
    """The level quantize finds for (B, l, s, j) on its own walk, or its package error."""
    try:
        return quantize(DimensionlessCase(B=B, l=l, s=s, j=j))
    except CornellboundError as exc:
        return exc


class TestLadder:
    """One walk per (B, l, j) ladder gives the levels quantize gives one by one."""

    @given(
        B=st.floats(0.0, 1e9),
        l=st.integers(0, 6),
        j=st.sampled_from((0, 1)),
        s_values=st.lists(st.integers(0, 15), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_ladder_equals_per_level_quantize(self, B, l, j, s_values):
        levels = quantize_ladder(B, l, j, s_values)
        assert [_bits(level) for level in levels] == [_bits(_alone(B, l, j, s)) for s in s_values]
        for s, level in zip(s_values, levels):
            if not isinstance(level, CornellboundError):
                assert level.case == DimensionlessCase(B=B, l=l, s=s, j=j)

    @pytest.mark.parametrize("B,l", [(2.0, 1), (1e6, 2), (1e9, 0)])
    def test_failed_levels_match_quantize(self, monkeypatch, B, l):
        # a double root at sn^2(u0) = 1 leaves no base point; each level keeps its own error
        monkeypatch.setattr(pi_mod, "solve_u0_kappas", lambda m, alpha2: (1.0, -2.0, 1.0))
        levels = quantize_ladder(B, l, 1, [1, 0])
        assert [_bits(level) for level in levels] == [NoValidRootError, NoValidRootError]
        assert [_bits(level) for level in levels] == [_bits(_alone(B, l, 1, s)) for s in (1, 0)]
        assert levels[0] is not levels[1]

    def test_quantize_keeps_the_callers_case(self):
        case = DimensionlessCase(B=2.0, l=1, s=1, j=1)
        assert quantize(case).case is case

    def test_repeated_and_unsorted_s(self):
        levels = quantize_ladder(2.0, 1, 1, [2, 0, 2])
        assert levels[0] is levels[2]
        assert [level.case.s for level in levels] == [2, 0, 2]
        assert [_bits(level) for level in levels] == [_bits(_alone(2.0, 1, 1, s)) for s in (2, 0, 2)]

    def test_invalid_inputs_are_per_level_errors(self):
        good, bad = quantize_ladder(2.0, 1, 1, [1, -1])
        assert _bits(good) == _bits(_alone(2.0, 1, 1, 1))
        assert isinstance(bad, DomainError)
        assert all(isinstance(level, DomainError) for level in quantize_ladder(-1.0, 0, 1, [0, 1]))
        assert quantize_ladder(2.0, 1, 1, []) == []

    def test_each_walk_x2_evaluated_once(self, monkeypatch):
        real_sum, real_brentq = pi_mod._phase_sum, pi_mod.brentq
        walk, refine, in_brent = [], [], []

        def counted(x2, case):
            (refine if in_brent else walk).append(x2)
            return real_sum(x2, case)

        def brentq(*args, **kwargs):
            in_brent.append(True)
            try:
                return real_brentq(*args, **kwargs)
            finally:
                in_brent.pop()

        monkeypatch.setattr(pi_mod, "_phase_sum", counted)
        monkeypatch.setattr(pi_mod, "brentq", brentq)
        for B, l, j in [(2.0, 1, 0), (2.0, 1, 1), (0.0, 0, 1), (200.0, 0, 1)]:
            walk.clear()
            refine.clear()
            levels = quantize_ladder(B, l, j, range(21))
            assert len(walk) == len(set(walk)), (B, l, j)
            assert all(level.x2 in refine or level.x2 in walk for level in levels)
            ladder_walk = list(walk)
            walk.clear()
            quantize(DimensionlessCase(B=B, l=l, s=20, j=j))
            # the ladder walks exactly the points its top level walks alone
            assert ladder_walk == walk, (B, l, j)

    def test_failed_level_leaves_the_rest(self, monkeypatch):
        expected = {s: _bits(_alone(2.0, 1, 1, s)) for s in (0, 2)}
        real, calls = pi_mod.sn2_root, []

        def second_fails(m, alpha2):
            calls.append(m)
            if len(calls) == 2:
                raise NoValidRootError("forced failure")
            return real(m, alpha2)

        monkeypatch.setattr(pi_mod, "sn2_root", second_fails)
        # levels are finished in ascending s, so the second is s = 1
        levels = quantize_ladder(2.0, 1, 1, [2, 0, 1])
        assert [_bits(level) for level in levels] == [expected[2], expected[0], NoValidRootError]
        assert str(levels[2]) == "forced failure"

    def test_non_package_error_escapes(self, monkeypatch):
        def bug(m, alpha2):
            raise TypeError("a bug, not a failed level")

        monkeypatch.setattr(pi_mod, "sn2_root", bug)
        with pytest.raises(TypeError, match="a bug"):
            quantize_ladder(2.0, 1, 1, [0, 1])

    def test_walk_point_error_fails_every_level_not_yet_bracketed(self, monkeypatch):
        first = quantize(DimensionlessCase(B=2.0, l=1, s=0, j=0))
        cutoff = first.x2 * pi_mod.STEP**3  # above the first level's bracket, below the second level
        real_tp = pi_mod.turning_points_from_x2

        def turning_points(x2, case):
            if x2 > cutoff:
                raise OrderingError(f"no ordering at x2={x2}")
            return real_tp(x2, case)

        monkeypatch.setattr(pi_mod, "turning_points_from_x2", turning_points)
        levels = quantize_ladder(2.0, 1, 0, [0, 1, 2])
        assert _bits(levels[0]) == _bits(first)
        assert [_bits(level) for level in levels[1:]] == [OrderingError, OrderingError]
        assert [_bits(_alone(2.0, 1, 0, s)) for s in (1, 2)] == [OrderingError, OrderingError]

    def test_targets_already_passed_at_the_floor_fail_alone(self, monkeypatch):
        # a phase sum of 2 + ln(x2 / z*) starts above pi/2 but below 3 pi/2
        floor = x2_floor(DimensionlessCase(B=2.0, l=1))
        monkeypatch.setattr(pi_mod, "_phase_sum", lambda x2, case: 2.0 + math.log(x2 / floor))
        levels = quantize_ladder(2.0, 1, 0, [0, 1])
        assert isinstance(levels[0], BracketError)
        assert "phase sum not below the target" in str(levels[0])
        assert levels[1].residual <= pi_mod.RESIDUAL_TOL
        assert [_bits(level) for level in levels] == [_bits(_alone(2.0, 1, 0, s)) for s in (0, 1)]


# B from 0 to the hydrogenic end, where sn(u0) ~ m^(-1/2) puts u0 next to the pole at iK'
PROBE_B = [0.0] + [10.0**k for k in (0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6, 7, 8, 8.5, 9)]


class TestCoulombEnd:
    """Every level converges and has its base point up to B = 1e9."""

    @pytest.mark.parametrize("B", PROBE_B)
    def test_probe_grid_levels_converge_and_read_u0(self, B):
        for l in (0, 1, 2, 5):
            for j in (0, 1):
                for s, level in zip((0, 1, 5, 20), quantize_ladder(B, l, j, [0, 1, 5, 20])):
                    assert not isinstance(level, CornellboundError), (B, l, s, j, level)
                    assert level.residual <= pi_mod.RESIDUAL_TOL
                    assert level.C_abs <= pi_mod.C_TOL, (B, l, s, j)

    @pytest.mark.parametrize("B", [1e3, 1e4, 1e6, 1e9])
    def test_hydrogenic_third_order(self, B):
        # -B^2/4 plus the first-order shift <z> = 3/B
        res = quantize(DimensionlessCase(B=B, l=0, s=0, j=1))
        assert res.A == pytest.approx(-(B**2) / 4.0 + 3.0 / B, rel=1e-15, abs=0)


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
