"""Dimensionless reduction: scaling laws and the R / Q^2 functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornellbound.errors import DomainError
from cornellbound.model import (
    DimensionlessCase,
    PhysicalParams,
    Q2_of_z,
    R_of_z,
    energy_from_A,
    reduce,
)


class TestParamsValidation:
    def test_physical_params(self):
        PhysicalParams(mass=1.0, a=1.0, b=0.5)
        with pytest.raises(DomainError):
            PhysicalParams(mass=-1.0, a=1.0)
        with pytest.raises(DomainError):
            PhysicalParams(mass=1.0, a=0.0)
        with pytest.raises(DomainError):
            PhysicalParams(mass=1.0, a=1.0, b=-0.1)

    def test_case_validation(self):
        DimensionlessCase(B=2.0, l=1, s=3, j=0)
        with pytest.raises(DomainError):
            DimensionlessCase(B=-1.0, l=0)
        with pytest.raises(DomainError):
            DimensionlessCase(B=0.0, l=-1)
        with pytest.raises(DomainError):
            DimensionlessCase(B=0.0, l=0, s=-2)
        with pytest.raises(DomainError):
            DimensionlessCase(B=0.0, l=0, j=2)
        for bad in (
            dict(B=math.nan, l=0),
            dict(B=math.inf, l=0),
            dict(B=True, l=0),
            dict(B=0.0, l=True),
            dict(B=0.0, l=0, s=True),
            dict(B=0.0, l=0, j=True),
        ):
            with pytest.raises(DomainError):
                DimensionlessCase(**bad)
        # numpy scalars stay accepted
        DimensionlessCase(B=np.float64(2.0), l=np.int64(1), s=np.int32(3), j=np.int8(0))
        DimensionlessCase(B=np.int64(2), l=1)

    def test_nu(self):
        assert DimensionlessCase(B=0.0, l=2).nu == 2.5


class TestReduce:
    def test_A_linear_in_E(self):
        p = PhysicalParams(mass=1.3, a=0.7, b=0.2)
        _, A1, _ = reduce(p, 1.0)
        _, A2, _ = reduce(p, 2.5)
        assert A2 == pytest.approx(2.5 * A1, rel=1e-14)

    def test_B_independent_of_E(self):
        p = PhysicalParams(mass=1.3, a=0.7, b=0.2)
        assert reduce(p, 1.0)[2] == reduce(p, 17.0)[2]

    def test_unit_case(self):
        # mass = a = hbar = 1: z_scale = 2^(1/3), A = 2^(1/3) E, B = 4^(1/3) b
        p = PhysicalParams(mass=1.0, a=1.0, b=1.0)
        z_scale, A, B = reduce(p, 1.0)
        assert z_scale == pytest.approx(2.0 ** (1 / 3), rel=1e-14)
        assert A == pytest.approx(2.0 ** (1 / 3), rel=1e-14)
        assert B == pytest.approx(4.0 ** (1 / 3), rel=1e-14)

    def test_a_doubling_scaling(self):
        # A scales as a^(-2/3) at fixed E, B as a^(-1/3) at fixed b
        p1 = PhysicalParams(mass=1.0, a=1.0, b=1.0)
        p2 = PhysicalParams(mass=1.0, a=2.0, b=1.0)
        _, A1, B1 = reduce(p1, 3.0)
        _, A2, B2 = reduce(p2, 3.0)
        assert A2 == pytest.approx(A1 * 2.0 ** (-2 / 3), rel=1e-14)
        assert B2 == pytest.approx(B1 * 2.0 ** (-1 / 3), rel=1e-14)

    @given(
        st.floats(min_value=0.1, max_value=10, allow_nan=False),
        st.floats(min_value=0.1, max_value=10, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_energy_round_trip(self, mass, a, E):
        p = PhysicalParams(mass=mass, a=a)
        _, A, _ = reduce(p, E)
        assert energy_from_A(p, A) == pytest.approx(E, abs=1e-12)


class TestRadialFunctions:
    def test_R_formula(self):
        case = DimensionlessCase(B=2.0, l=1)
        z = 1.7
        expected = 3.0 - z + 2.0 / z - 2.0 / z**2
        assert R_of_z(3.0, case, z) == pytest.approx(expected, rel=1e-14)

    def test_Q2_formula(self):
        case = DimensionlessCase(B=2.0, l=1)
        z = 1.7
        expected = 3.0 - z + 2.0 / z - 2.25 / z**2
        assert Q2_of_z(3.0, case, z) == pytest.approx(expected, rel=1e-14)

    def test_array_input(self):
        case = DimensionlessCase(B=1.0, l=0)
        z = np.array([0.5, 1.0, 2.0])
        r = R_of_z(0.0, case, z)
        assert r.shape == (3,)
        assert r[1] == pytest.approx(0.0, abs=1e-14)  # A - z + B/z at z=1, B=1

    def test_rejects_nonpositive_z(self):
        case = DimensionlessCase(B=1.0, l=0)
        with pytest.raises(DomainError):
            R_of_z(0.0, case, 0.0)
        with pytest.raises(DomainError):
            Q2_of_z(0.0, case, np.array([1.0, -0.5]))

    def test_langer_limit(self):
        # z^2 (Q^2 - R) = -1/4 identically, the admissibility condition
        rng = np.random.default_rng(2)
        for _ in range(30):
            case = DimensionlessCase(B=rng.uniform(0, 10), l=int(rng.integers(0, 5)))
            A = rng.uniform(-5, 10)
            z = rng.uniform(1e-6, 20)
            val = z**2 * (Q2_of_z(A, case, z) - R_of_z(A, case, z))
            assert val == pytest.approx(-0.25, abs=1e-9)
