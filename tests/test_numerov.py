"""Numerov discretization: assembly, spectrum properties, golden values."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky_banded, eigh
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

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


def expected_solver(count: int, size: int) -> str:
    """Inverse iteration for one level; for more, dense when size^3 is at most the
    Lanczos cost for ARPACK's default Krylov basis."""
    if count == 1:
        return "inverse"
    ncv = min(size, max(2 * count + 1, 20))
    return "dense" if size**3 <= ncv * (numerov.LANCZOS_OVERHEAD + size * ncv) else "lanczos"


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

    @pytest.mark.parametrize(
        "B,l,n,count",
        [
            (5.0, 0, 64, 4),
            (5.0, 0, 64, 30),
            (5.0, 0, 64, 31),
            (2.0, 2, 300, 4),
            (2.0, 2, 300, 69),
            (2.0, 2, 300, 70),
            (2.0, 2, 300, 148),
            (2.0, 2, 300, 149),
            (10.0, 1, 600, 16),
            (10.0, 1, 600, 242),
            (10.0, 1, 600, 243),
            (10.0, 1, 600, 298),
            (10.0, 1, 600, 299),
        ],
    )
    def test_eigenvectors_solve_pencil_and_are_orthonormal(self, B, l, n, count):
        # counts on both sides of the dense/Lanczos boundary (count 70 at size 299, 243 at
        # size 599) and up to size <= 2 count + 1, where ARPACK's basis spans the space
        case = DimensionlessCase(B=B, l=l)
        g = Grid(**REF, n=n)
        spec = solve(case, g, count, eigenvectors=True)
        assert spec.diagnostics["solver"] == expected_solver(count, n - 1)
        w, psi = spec.eigenvalues, spec.eigenvectors
        sys = assemble(case, g)
        # pencil_residual of every column at once
        residual = np.max(np.abs(sys.left_matrix() @ psi - (sys.b_matrix() @ psi) * w), axis=0)
        assert np.all(residual <= 1e-8 * np.maximum(1.0, np.abs(w)))
        assert np.allclose(psi.T @ psi, np.eye(count), rtol=0, atol=1e-10)

    def test_shift_invert_solves_count_operator_applications(self, monkeypatch):
        # one banded Cholesky solve per application of Bhat (K - sigma M)^{-1} Bhat
        calls = {"cholesky": 0, "operator": 0}
        eigsh = numerov.eigsh

        def counting_solve(*args, **kwargs):
            calls["cholesky"] += 1
            return dpbtrs(*args, **kwargs)

        def counting_eigsh(op, *args, **kwargs):
            def matvec(x):
                calls["operator"] += 1
                return op.matvec(x)

            return eigsh(LinearOperator(op.shape, matvec=matvec, dtype=op.dtype), *args, **kwargs)

        monkeypatch.setattr(numerov, "dpbtrs", counting_solve)
        monkeypatch.setattr(numerov, "eigsh", counting_eigsh)
        spec = solve(DimensionlessCase(B=2.0, l=0), Grid(**REF, n=512), 16)
        assert spec.diagnostics["solver"] == "lanczos"
        assert spec.diagnostics["shift_invert_solves"] == calls["cholesky"] == calls["operator"] > 0

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

    @pytest.mark.parametrize("B,l,n,count", [(0.0, 0, 512, 4), (10.0, 0, 512, 16), (5.0, 2, 64, 1)])
    def test_certified_shift_below_lowest_level(self, B, l, n, count):
        case = DimensionlessCase(B=B, l=l)
        g = Grid(**REF, n=n)
        spec = solve(case, g, count)
        d = spec.diagnostics
        assert d["size"] == n - 1
        assert d["solver"] == expected_solver(count, n - 1)
        if count == 1:
            assert "krylov_basis" not in d
        else:
            assert d["krylov_basis"] == max(2 * count + 1, 20)
        assert d["shift_steps"] > 0 and d["shift_invert_solves"] > 0
        assert d["sigma"] == d["sigma_lo"]
        k, m = assemble(case, g).pencil_bands()
        cholesky_banded(k - d["sigma"] * m)  # raises unless K - sigma M is positive definite
        assert d["sigma_lo"] < spec.eigenvalues[0] <= d["sigma_hi"]

    @pytest.mark.parametrize("B,l,n,count", [(2.0, 1, 16, 15), (10.0, 0, 128, 16), (2.0, 2, 300, 70)])
    def test_dense_path_runs_no_banded_factorization(self, B, l, n, count, monkeypatch):
        factorizations = []

        def counting_factor(*args, **kwargs):
            factorizations.append(args)
            return dpbtrf(*args, **kwargs)

        monkeypatch.setattr(numerov, "dpbtrf", counting_factor)
        spec = solve(DimensionlessCase(B=B, l=l), Grid(**REF, n=n), count)
        ncv = min(n - 1, max(2 * count + 1, 20))
        assert spec.diagnostics == {"solver": "dense", "size": n - 1, "krylov_basis": ncv}
        assert factorizations == []

    def test_solver_failures_raise_package_errors(self, monkeypatch):
        case = DimensionlessCase(B=2.0, l=1)
        g = Grid(**REF, n=256)

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(numerov, "eigsh", no_convergence)
        with pytest.raises(NonConvergenceError):
            solve(case, g, 4)

        def not_positive_definite(ab, *args, **kwargs):
            return ab, 1  # LAPACK's info > 0: the leading minor of order 1 is not positive

        monkeypatch.setattr(numerov, "dpbtrf", not_positive_definite)
        with pytest.raises(NonConvergenceError):
            solve(case, g, 4)

    @pytest.mark.parametrize("n", [8, 64, 512, 2000])
    def test_one_level_runs_neither_eigsh_nor_eigh(self, n, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a one-level solve called a full eigensolver")

        monkeypatch.setattr(numerov, "eigsh", forbidden)
        monkeypatch.setattr(numerov, "eigh", forbidden)
        spec = solve(DimensionlessCase(B=2.0, l=0), Grid(**REF, n=n), 1, eigenvectors=True)
        assert spec.diagnostics["solver"] == "inverse"
        assert spec.eigenvalues.shape == (1,) and spec.eigenvectors.shape == (n - 1, 1)

    def test_inverse_iteration_that_never_settles_raises(self, monkeypatch):
        # every other solve is scaled by 2, so theta = x^T (H - sigma)^{-1} x keeps jumping
        scale = iter([1.0, 2.0] * numerov.INVERSE_MAX_SOLVES)

        def unsettled_solve(*args, **kwargs):
            x, info = dpbtrs(*args, **kwargs)
            return next(scale) * x, info

        monkeypatch.setattr(numerov, "dpbtrs", unsettled_solve)
        with pytest.raises(NonConvergenceError):
            solve(DimensionlessCase(B=5.0, l=2), Grid(**REF, n=64), 1)

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
@example(B=3.0, l=2, n=600, frac=597 / 598)  # count 598 of 599: dense, ARPACK would need ncv = size
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
    assert spec.diagnostics["solver"] == expected_solver(count, size)
    assert np.array_equal(spec.eigenvalues, solve(case, g, count).eigenvalues)


@settings(max_examples=60, deadline=None)
@given(B=st.floats(0.0, 1e3), l=st.integers(0, 6), n=st.integers(8, 600))
@example(B=5.0, l=2, n=64)
@example(B=1e3, l=0, n=8)
@example(B=0.0, l=6, n=600)
def test_one_level_by_inverse_iteration(B, l, n):
    """One level equals the lowest of a two-level solve and of the dense symmetric operator;
    its eigenvector solves the pencil and has unit norm."""
    case = DimensionlessCase(B=B, l=l)
    g = Grid(**REF, n=n)
    spec = solve(case, g, 1, eigenvectors=True)
    a, psi = float(spec.eigenvalues[0]), spec.eigenvectors[:, 0]
    scale = max(1.0, abs(a))
    assert spec.diagnostics["solver"] == "inverse"
    assert abs(a - solve(case, g, 2).eigenvalues[0]) <= 1e-12 * scale
    sys = assemble(case, g)
    assert abs(a - eigh(sys.symmetric_operator(), eigvals_only=True, subset_by_index=[0, 0])[0]) <= 1e-10 * scale
    assert sys.pencil_residual(a, psi) <= 1e-8 * scale
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_one_level_by_inverse_iteration_on_the_default_grid():
    case = DimensionlessCase(B=2.0, l=0)
    g = Grid(numerov.DEFAULT_Z_MIN, numerov.DEFAULT_Z_MAX, numerov.DEFAULT_N)
    spec = solve(case, g, 1)
    a = float(spec.eigenvalues[0])
    assert spec.diagnostics["solver"] == "inverse"
    assert abs(a - solve(case, g, 2).eigenvalues[0]) <= 1e-12 * max(1.0, abs(a))


# tracked levels of the 12 Table 1 rows on N = 8 ... 512, recorded from the
# banded Lanczos engine before small meshes went to the dense pencil solve
TABLE1_NS = (8, 16, 32, 64, 128, 256, 512)
TABLE1_TRACKED = {
    (0.0, 0): [2.8858023466197205, 2.3508729564301443, 2.3379962390556055, 2.3381032955833114, 2.3381164484165176, 2.3381173491590377, 2.338117406610392],
    (0.0, 1): [3.203563052936439, 3.2472251408883324, 3.349915635228114, 3.3599495472760075, 3.361098251714288, 3.3612353991691633, 3.3612521568444405],
    (0.0, 2): [3.8373586219401776, 4.236616990268877, 4.247147306536587, 4.248119762953373, 4.248178391435344, 4.248182016191064, 4.248182242103801],
    (2.0, 0): [2.0887324578092734, 0.9096965449290162, 0.4648195054749837, 0.2860017873781423, 0.22191491269050256, 0.20227808787346635, 0.19683782691232787],
    (2.0, 1): [2.4070765471362296, 1.9878977087455343, 2.1960293513762483, 2.2326445716562993, 2.2374514917144506, 2.238067557506426, 2.238145641254573],
    (2.0, 2): [3.042710240643416, 3.4095485792668634, 3.4299574192921165, 3.4316301435699152, 3.4317336466115727, 3.4317400611911477, 3.431740461124615],
    (5.0, 0): [0.8918989093506224, -1.3704228640288145, 1.1344683980710826, 0.7290000459675907, 0.5398834397404579, 0.46731842800000845, 0.44411026457271774],
    (5.0, 1): [1.2107685251666847, -0.17805091471289827, -0.13661478170889238, 0.042614496076509946, 0.07580518752540918, 0.08047617998209108, 0.08109420866456173],
    (5.0, 2): [1.847937916375794, 1.868530567898518, 2.0218466851563384, 2.0265675763358044, 2.026864617256287, 2.02688320886994, 2.0268843709470925],
    (10.0, 0): [-1.1046693776904088, 0.045224157882324534, 1.0639679762837928, 0.302367101505272, -0.10720110384675507, -0.29941069699954426, -0.37280870783690645],
    (10.0, 1): [-0.785349082066457, 0.37282926456567234, -0.942892338622343, -0.823139869154426, -0.6361108174882295, -0.6028401626854691, -0.5981898716525311],
    (10.0, 2): [-0.14696221552895744, 1.0764784898130972, -0.9966791623592874, -0.945810178539194, -0.9436317652549496, -0.9434966418311512, -0.9434881307473785],
}


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

    @pytest.mark.parametrize("B,l", list(TABLE1_TRACKED))
    def test_table1_tracked_levels_pinned(self, B, l):
        case = DimensionlessCase(B=B, l=l)
        values = [tracked_level(case, Grid(**REF, n=n)) for n in TABLE1_NS]
        assert values == pytest.approx(TABLE1_TRACKED[(B, l)], rel=1e-12, abs=0)

    def test_tracked_vs_ground_differ_for_strong_coulomb(self):
        # deep Coulomb-collapsed levels sit far below the tracked one
        g = Grid(**REF, n=512)
        spec = solve(DimensionlessCase(B=10.0, l=0), g, 16)
        assert spec.eigenvalues[0] < -3.0
        assert abs(spec.tracked_value() - (-0.37306)) < 1e-3


def tracked_counts(case: DimensionlessCase, grid: Grid) -> tuple[float, list[int]]:
    """The tracked level and the level counts it solved its mesh's pencil for, in order."""
    with mock.patch.object(numerov, "_levels", wraps=numerov._levels) as spy:
        value = tracked_level(case, grid)
    return value, [call.args[1] for call in spy.call_args_list]


def k_positive_definite(case: DimensionlessCase, grid: Grid) -> bool:
    """Whether K = Bhat H Bhat has a banded Cholesky factor."""
    return dpbtrf(assemble(case, grid).pencil_bands()[0])[1] == 0


@settings(max_examples=60, deadline=None)
@given(B=st.floats(0.0, 200.0), l=st.integers(0, 3), n=st.integers(8, 600))
@example(B=10.0, l=0, n=512)  # 3 negative levels: 2, then 4
@example(B=100.0, l=0, n=512)  # every window level negative: 2, 4, 8, 16
@example(B=200.0, l=0, n=8)  # window of 7: 2, 4, then the cap
def test_tracked_level_matches_full_window(B, l, n):
    """The solved prefix decides the smallest |A| of the whole window."""
    case = DimensionlessCase(B=B, l=l)
    g = Grid(**REF, n=n)
    window = min(numerov.TRACKED_WINDOW, n - 1)
    value, counts = tracked_counts(case, g)
    full = solve(case, g, window).tracked_value()
    assert abs(value - full) <= 1e-12 * max(1.0, abs(full))
    assert counts[0] == (1 if k_positive_definite(case, g) else 2) and max(counts) <= window
    assert counts[1:] == [min(2 * c, window) for c in counts[:-1]]


class TestTrackedCounts:
    """How many levels `tracked_level` asks `solve` for."""

    def test_row_with_no_negative_level_solves_one_per_mesh(self):
        case = DimensionlessCase(B=2.0, l=0)
        counts = [tracked_counts(case, Grid(**REF, n=n))[1] for n in TABLE1_NS]
        assert counts == [[1]] * len(TABLE1_NS)

    @pytest.mark.parametrize("B,l", list(TABLE1_TRACKED))
    def test_probe_factors_k_exactly_when_every_level_is_positive(self, B, l):
        case = DimensionlessCase(B=B, l=l)
        for n in TABLE1_NS:
            g = Grid(**REF, n=n)
            assert k_positive_definite(case, g) == (solve(case, g, 1).eigenvalues[0] > 0.0)

    @pytest.mark.parametrize(
        "B,n,expected",
        [(10.0, 512, [2, 4]), (100.0, 512, [2, 4, 8, 16]), (200.0, 8, [2, 4, 7])],  # the last stops at the window
    )
    def test_count_doubles_while_the_top_level_is_negative(self, B, n, expected):
        _, counts = tracked_counts(DimensionlessCase(B=B, l=0), Grid(**REF, n=n))
        assert counts == expected


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
