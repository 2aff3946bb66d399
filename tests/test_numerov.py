"""Numerov discretization: assembly, spectrum properties, golden values."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cholesky_banded, eigh
from scipy.sparse.linalg import ArpackNoConvergence

from cornellbound import numerov
from cornellbound.errors import DomainError, NonConvergenceError
from cornellbound.model import DimensionlessCase
from cornellbound.numerov import (
    Grid,
    assemble,
    convergence_table,
    effective_potential,
    solve,
    tracked_level,
)

# mesh-refinement reference domain
REF = dict(z_min=1e-5, z_max=20.0)


class TestGrid:
    def test_delta_and_nodes(self):
        g = Grid(1.0, 2.0, 10)
        assert g.delta == pytest.approx(0.1, rel=1e-15)
        nodes = g.interior_nodes()
        assert len(nodes) == 9
        assert nodes[0] == pytest.approx(1.1, rel=1e-14)
        assert nodes[-1] == pytest.approx(1.9, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 10)
        with pytest.raises(DomainError):
            Grid(2.0, 1.0, 10)
        with pytest.raises(DomainError):
            Grid(1.0, 2.0, 4)


class TestAssembly:
    def test_matrix_structure(self):
        case = DimensionlessCase(B=0.0, l=0)
        g = Grid(1.0, 2.0, 8)
        sys = assemble(case, g)
        assert sys.size == 7
        a = sys.kinetic_matrix()
        d2 = g.delta**2
        assert a[0, 0] == pytest.approx(-2.0 / d2)
        assert a[0, 1] == pytest.approx(1.0 / d2)
        assert a[3, 2] == pytest.approx(1.0 / d2)
        assert a[0, 2] == 0.0
        b = sys.b_matrix()
        # interior rows of Bhat sum to 1, edge rows to 11/12
        sums = b.sum(axis=1)
        assert np.allclose(sums[1:-1], 1.0, atol=1e-14)
        assert sums[0] == pytest.approx(11.0 / 12.0)
        assert sums[-1] == pytest.approx(11.0 / 12.0)

    def test_pencil_bands_match_dense_products(self):
        # K = -Ahat Bhat + Bhat V Bhat and M = Bhat^2, from the dense factors
        case = DimensionlessCase(B=5.0, l=2)
        sys = assemble(case, Grid(0.1, 10.0, 64))
        a, b, v = sys.kinetic_matrix(), sys.b_matrix(), np.diag(sys.potential_values)
        k, m = sys.pencil_bands()
        for bands, dense in ((k, -a @ b + b @ v @ b), (m, b @ b)):
            scale = np.max(np.abs(dense))
            assert np.allclose(np.diag(dense), bands[2], rtol=0, atol=1e-13 * scale)
            assert np.allclose(np.diag(dense, 1), bands[1, 1:], rtol=0, atol=1e-13 * scale)
            assert np.allclose(np.diag(dense, 2), bands[0, 2:], rtol=0, atol=1e-13 * scale)
            assert np.all(np.diag(dense, 3) == 0.0)
            assert np.allclose(dense, dense.T, rtol=0, atol=1e-13 * scale)
        x = np.linspace(-1.0, 1.0, sys.size)
        assert np.allclose(sys.apply_b(x), b @ x, rtol=0, atol=1e-15)

    def test_potential_values(self):
        case = DimensionlessCase(B=2.0, l=1)
        g = Grid(0.5, 2.5, 8)
        sys = assemble(case, g)
        z = g.interior_nodes()
        assert np.allclose(sys.potential_values, z - 2.0 / z + 2.0 / z**2, atol=1e-14)

    def test_effective_potential_scalar(self):
        case = DimensionlessCase(B=2.0, l=1)
        v = effective_potential(case, 2.0)
        assert v == pytest.approx(2.0 - 1.0 + 0.5, rel=1e-14)
        with pytest.raises(DomainError):
            effective_potential(case, -1.0)

    def test_symmetric_operator_is_symmetric(self):
        case = DimensionlessCase(B=5.0, l=2)
        sys = assemble(case, Grid(0.1, 10.0, 64))
        c = sys.symmetric_operator()
        assert np.allclose(c, c.T, atol=1e-12)

    def test_left_matrix_not_symmetric(self):
        # the pencil as written row-by-row is genuinely non-symmetric for a
        # non-constant potential; reality comes from the equivalent form
        case = DimensionlessCase(B=5.0, l=2)
        sys = assemble(case, Grid(0.1, 10.0, 64))
        lm = sys.left_matrix()
        assert np.max(np.abs(lm - lm.T)) > 1e-6


class TestSpectrum:
    def test_real_and_ascending(self):
        case = DimensionlessCase(B=2.0, l=1)
        spec = solve(case, Grid(**REF, n=256), 6)
        w = spec.eigenvalues
        assert w.dtype.kind == "f"
        assert np.all(np.diff(w) > 0)

    def test_banded_solve_matches_dense_operator(self):
        case = DimensionlessCase(B=2.0, l=1)
        g = Grid(**REF, n=300)
        banded = solve(case, g, 5).eigenvalues
        sym = eigh(assemble(case, g).symmetric_operator(), eigvals_only=True)[:5]
        assert np.allclose(banded, sym, rtol=1e-10, atol=1e-10)

    def test_pencil_residual_small(self):
        case = DimensionlessCase(B=5.0, l=0)
        g = Grid(**REF, n=400)
        spec = solve(case, g, 4, eigenvectors=True)
        sys = assemble(case, g)
        scale = np.max(np.abs(sys.left_matrix()))
        for k in range(4):
            r = sys.pencil_residual(float(spec.eigenvalues[k]), spec.eigenvectors[:, k])
            assert r <= 1e-8 * scale

    def test_eigenvector_orthonormality(self):
        # eigenvectors of the symmetric equivalent operator; the raw pencil
        # eigenvectors would only be approximately Bhat-orthogonal
        case = DimensionlessCase(B=2.0, l=2)
        spec = solve(case, Grid(**REF, n=300), 5, eigenvectors=True)
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.allclose(gram, np.eye(5), atol=1e-10)

    def test_centrifugal_monotonicity(self):
        g = Grid(**REF, n=400)
        levels = [float(solve(DimensionlessCase(B=0.0, l=l), g, 1).eigenvalues[0]) for l in (0, 1, 2, 3)]
        assert all(a < b for a, b in zip(levels, levels[1:]))

    def test_coulomb_lowers_levels(self):
        g = Grid(**REF, n=400)
        a0 = solve(DimensionlessCase(B=0.0, l=1), g, 1).eigenvalues[0]
        a2 = solve(DimensionlessCase(B=2.0, l=1), g, 1).eigenvalues[0]
        assert a2 < a0

    def test_repeated_solves_bitwise_equal(self):
        case = DimensionlessCase(B=10.0, l=0)
        g = Grid(**REF, n=512)
        first = solve(case, g, 16, eigenvectors=True)
        second = solve(case, g, 16, eigenvectors=True)
        assert first.diagnostics["solver"] == "lanczos"
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    @pytest.mark.parametrize("B,l,n,count", [(0.0, 0, 512, 4), (10.0, 0, 512, 16), (2.0, 1, 16, 15)])
    def test_certified_shift_below_lowest_level(self, B, l, n, count):
        case = DimensionlessCase(B=B, l=l)
        g = Grid(**REF, n=n)
        spec = solve(case, g, count)
        d = spec.diagnostics
        assert d["size"] == n - 1
        assert d["solver"] == ("dense" if count == n - 1 else "lanczos")
        assert d["sigma"] == d["sigma_lo"]
        k, m = assemble(case, g).pencil_bands()
        cholesky_banded(k - d["sigma"] * m)  # raises unless K - sigma M is positive definite
        assert d["sigma_lo"] < spec.eigenvalues[0] <= d["sigma_hi"]

    def test_solver_failures_raise_package_errors(self, monkeypatch):
        case = DimensionlessCase(B=2.0, l=1)
        g = Grid(**REF, n=256)

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(numerov, "eigsh", no_convergence)
        with pytest.raises(NonConvergenceError):
            solve(case, g, 4)

        def not_positive_definite(*args, **kwargs):
            raise LinAlgError("forced")

        monkeypatch.setattr(numerov, "cholesky_banded", not_positive_definite)
        with pytest.raises(NonConvergenceError):
            solve(case, g, 4)

    def test_count_validation(self):
        case = DimensionlessCase(B=0.0, l=0)
        with pytest.raises(DomainError):
            solve(case, Grid(**REF, n=16), 0)
        with pytest.raises(DomainError):
            solve(case, Grid(**REF, n=16), 16)


@settings(max_examples=60, deadline=None)
@given(
    B=st.floats(0.0, 20.0),
    l=st.integers(0, 3),
    n=st.integers(8, 600),
    frac=st.floats(0.0, 1.0),
)
@example(B=0.0, l=0, n=8, frac=1.0)  # every level requested: the dense pencil solve
@example(B=3.0, l=2, n=16, frac=1.0)
@example(B=10.0, l=0, n=512, frac=15 / 510)  # Coulomb-collapsed row of the mesh table
@example(B=10.0, l=0, n=8, frac=1.0)
def test_solve_matches_dense_symmetric_operator(B, l, n, frac):
    """The lowest `count` levels equal those of a dense eigh of -Bhat^-1 Ahat + V."""
    size = n - 1
    count = 1 + round(frac * (size - 1))
    case = DimensionlessCase(B=B, l=l)
    g = Grid(**REF, n=n)
    spec = solve(case, g, count)
    ref = eigh(assemble(case, g).symmetric_operator(), eigvals_only=True)[:count]
    assert spec.eigenvalues.shape == (count,)
    assert np.all(np.abs(spec.eigenvalues - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
    assert spec.diagnostics["solver"] == ("dense" if count == size else "lanczos")
    assert np.array_equal(spec.eigenvalues, solve(case, g, count).eigenvalues)


class TestGoldenValues:
    """Spot checks against the published mesh-refinement values (5 digits)."""

    @pytest.mark.parametrize(
        "B,l,n,expected",
        [
            (0.0, 0, 8, 2.8858),
            (0.0, 0, 512, 2.3381),
            (0.0, 2, 512, 4.2482),
            (2.0, 0, 512, 0.19676),
            (2.0, 2, 512, 3.43174),
            (5.0, 0, 512, 0.44397),
            (10.0, 1, 512, -0.59819),
            (10.0, 2, 512, -0.94349),
        ],
    )
    def test_tracked_reference_values(self, B, l, n, expected):
        a = tracked_level(DimensionlessCase(B=B, l=l), Grid(**REF, n=n))
        assert a == pytest.approx(expected, abs=6e-4)

    def test_tracked_vs_ground_differ_for_strong_coulomb(self):
        # deep Coulomb-collapsed levels sit far below the tracked one
        g = Grid(**REF, n=512)
        spec = solve(DimensionlessCase(B=10.0, l=0), g, 16)
        assert spec.eigenvalues[0] < -3.0
        assert abs(spec.tracked_value() - (-0.37306)) < 1e-3


class TestConvergenceTable:
    def test_shape_and_monotone_tail(self):
        grids = [Grid(**REF, n=n) for n in (64, 128, 256)]
        table = convergence_table(DimensionlessCase(B=0.0, l=0), grids)
        assert [n for n, _ in table] == [64, 128, 256]
        diffs = [abs(table[i + 1][1] - table[i][1]) for i in range(2)]
        assert diffs[1] < diffs[0]

    def test_needs_three_grids(self):
        grids = [Grid(**REF, n=n) for n in (64, 128)]
        with pytest.raises(DomainError):
            convergence_table(DimensionlessCase(B=0.0, l=0), grids)
