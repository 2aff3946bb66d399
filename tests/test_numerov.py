"""Numerov discretization: assembly, spectrum properties, golden values."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import pencil_bands, pencil_levels_exact, pencil_residual, reference, sturm_count
from scipy.linalg import eigh, eigvalsh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

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


def levels_of(case: DimensionlessCase, grid: Grid) -> "numerov._Levels":
    """A fresh engine for one mesh, to count or find its levels directly."""
    return numerov._Levels(assemble(case, grid))


def dense_levels(case: DimensionlessCase, grid: Grid) -> np.ndarray:
    """Every level of a dense eigh of the symmetric operator."""
    return eigh(assemble(case, grid).symmetric_operator(), eigvals_only=True)


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
        for bad in ((1e-4, 50.0, 8.5), (1e-4, 50.0, True), (1e-4, np.inf, 10), (np.nan, 1.0, 10), (1e-4, np.nan, 10)):
            with pytest.raises(DomainError):
                Grid(*bad)
        # numpy scalars stay accepted
        assert Grid(np.float64(1.0), np.float32(2.0), np.int64(10)).interior_nodes().shape == (9,)


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

    def test_stencil_is_fixed_by_the_scheme_and_the_grid(self):
        g = Grid(1e-4, 20.0, 64)
        sys = assemble(DimensionlessCase(B=2.0, l=1), g)
        assert (sys.a_main, sys.a_off) == (-2.0 / g.delta**2, 1.0 / g.delta**2)
        assert (sys.b_main, sys.b_off) == (10.0 / 12.0, 1.0 / 12.0)
        for coefficient in ("a_main", "a_off", "b_main", "b_off"):
            with pytest.raises(TypeError):
                numerov.NumerovSystem(g, sys.potential_values, **{coefficient: 1.0})

    def test_pencil_bands_match_dense_products(self):
        # K = -Ahat Bhat + Bhat V Bhat and M = Bhat^2, from the dense factors
        case = DimensionlessCase(B=5.0, l=2)
        sys = assemble(case, Grid(0.1, 10.0, 64))
        a, b, v = sys.kinetic_matrix(), sys.b_matrix(), np.diag(sys.potential_values)
        k, m = pencil_bands(sys)
        for bands, dense in ((k, -a @ b + b @ v @ b), (m, b @ b)):
            scale = np.max(np.abs(dense))
            assert np.allclose(np.diag(dense), bands[2], rtol=0, atol=1e-13 * scale)
            assert np.allclose(np.diag(dense, 1), bands[1, 1:], rtol=0, atol=1e-13 * scale)
            assert np.allclose(np.diag(dense, 2), bands[0, 2:], rtol=0, atol=1e-13 * scale)
            assert np.all(np.diag(dense, 3) == 0.0)
            assert np.allclose(dense, dense.T, rtol=0, atol=1e-13 * scale)
        x = np.linspace(-1.0, 1.0, sys.size)
        assert np.allclose(sys.apply_b(x), b @ x, rtol=0, atol=1e-15)
        assert np.allclose(sys.apply_a(x), a @ x, rtol=0, atol=1e-13 * np.max(np.abs(a)))

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
        spec = solve(case, g, 4)
        sys = assemble(case, g)
        scale = np.max(np.abs(sys.left_matrix()))
        for k in range(4):
            r = pencil_residual(sys, float(spec.eigenvalues[k]), spec.eigenvectors[:, k])
            assert r <= 1e-8 * scale

    def test_eigenvector_orthonormality(self):
        # eigenvectors of the symmetric equivalent operator; the raw pencil
        # eigenvectors would only be approximately Bhat-orthogonal
        case = DimensionlessCase(B=2.0, l=2)
        spec = solve(case, Grid(**REF, n=300), 5)
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.allclose(gram, np.eye(5), atol=1e-10)

    @pytest.mark.parametrize(
        "B,l,n,count",
        [
            (5.0, 0, 64, 4),
            (5.0, 0, 64, 30),
            (5.0, 0, 64, 31),
            (2.0, 2, 256, 4),
            (2.0, 2, 258, 4),
            (2.0, 2, 300, 127),
            (2.0, 2, 300, 128),
            (2.0, 2, 300, 149),
            (10.0, 1, 600, 16),
            (10.0, 1, 600, 127),
            (10.0, 1, 600, 128),
            (10.0, 1, 600, 298),
            (10.0, 1, 600, 299),
        ],
    )
    def test_eigenvectors_solve_pencil_and_are_orthonormal(self, B, l, n, count):
        # small and large systems, few levels and up to every level but one
        case = DimensionlessCase(B=B, l=l)
        g = Grid(**REF, n=n)
        spec = solve(case, g, count)
        assert spec.diagnostics["solver"] == "sturm"
        w, psi = spec.eigenvalues, spec.eigenvectors
        sys = assemble(case, g)
        # pencil_residual of every column at once
        residual = np.max(np.abs(sys.left_matrix() @ psi - (sys.b_matrix() @ psi) * w), axis=0)
        assert np.all(residual <= 1e-8 * np.maximum(1.0, np.abs(w)))
        assert np.allclose(psi.T @ psi, np.eye(count), rtol=0, atol=1e-10)

    def test_diagnostics_tally_the_lapack_calls(self, monkeypatch):
        # one dstebz per Sturm count and one dgttrf per factorization
        calls = {"dstebz": 0, "dgttrf": 0}

        def counting(name, routine):
            def call(*args, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)

            return call

        monkeypatch.setattr(numerov, "dstebz", counting("dstebz", dstebz))
        monkeypatch.setattr(numerov, "dgttrf", counting("dgttrf", dgttrf))
        spec = solve(DimensionlessCase(B=2.0, l=0), Grid(**REF, n=512), 16)
        d = spec.diagnostics
        assert d["solver"] == "sturm" and d["size"] == 511
        assert d["sturm_counts"] == calls["dstebz"] > 0
        assert d["factorizations"] == calls["dgttrf"] > 0

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
        # the levels, the vectors and the counts behind them all repeat exactly
        case = DimensionlessCase(B=10.0, l=0)
        g = Grid(**REF, n=512)
        first = solve(case, g, 16)
        second = solve(case, g, 16)
        assert first.diagnostics["solver"] == "sturm"
        assert first.diagnostics == second.diagnostics
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    @pytest.mark.parametrize(
        "B,l,n,count",
        [(0.0, 0, 512, 4), (10.0, 0, 512, 16), (5.0, 2, 64, 1), (2.0, 0, 8, 7), (0.0, 5, 600, 12), (2.0, 0, 5000, 3)],
    )
    def test_each_bracket_holds_its_level_alone(self, B, l, n, count):
        # the diagnostics name every level's 1-based index and a bracket [lo, hi)
        # below which k - 1 and k levels lie; a dense eigh agrees with both counts
        case = DimensionlessCase(B=B, l=l)
        g = Grid(**REF, n=n)
        spec = solve(case, g, count)
        d = spec.diagnostics
        assert d["size"] == n - 1 and d["solver"] == "sturm"
        assert d["sturm_counts"] > 0 and d["factorizations"] >= count
        assert [level["index"] for level in d["levels"]] == list(range(1, count + 1))
        ref = dense_levels(case, g)[: count + 1] if n <= 600 else None
        for k, (level, a) in enumerate(zip(d["levels"], spec.eigenvalues), start=1):
            lo, hi = level["bracket"]
            assert lo <= a < hi
            if ref is not None:
                assert np.sum(ref < lo) == k - 1 and np.sum(ref < hi) == k
            else:
                assert levels_of(case, g).count_below(lo) == k - 1 and levels_of(case, g).count_below(hi) == k

    @pytest.mark.parametrize(
        "B,l,n,count", [(2.0, 1, 16, 15), (10.0, 0, 128, 16), (10.0, 0, 256, 2), (2.0, 2, 300, 149), (2.0, 0, 2000, 1)]
    )
    def test_solve_runs_no_full_eigensolver(self, B, l, n, count, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve called a full eigensolver")

        monkeypatch.setattr(numerov, "eig", forbidden)
        monkeypatch.setattr(numerov, "eigh", forbidden)
        spec = solve(DimensionlessCase(B=B, l=l), Grid(**REF, n=n), count)
        assert spec.diagnostics["solver"] == "sturm"
        assert spec.eigenvalues.shape == (count,) and spec.eigenvectors.shape == (n - 1, count)

    @pytest.mark.parametrize(
        "routine,failing",
        [
            ("dstebz", lambda *args: (*dstebz(*args)[:4], 1)),
            ("dgttrf", lambda *args, **kwargs: (*dgttrf(*args, **kwargs)[:5], -3)),
        ],
    )
    def test_lapack_failures_raise_package_errors(self, routine, failing, monkeypatch):
        # a nonzero LAPACK info from a Sturm count, a negative one from a factorization
        monkeypatch.setattr(numerov, routine, failing)
        with pytest.raises(NonConvergenceError, match=routine):
            solve(DimensionlessCase(B=2.0, l=1), Grid(**REF, n=64), 4)
        with pytest.raises(NonConvergenceError, match=routine):
            tracked_level(DimensionlessCase(B=10.0, l=0), Grid(**REF, n=64))

    def test_iteration_through_an_exact_zero_pivot(self, monkeypatch):
        # dgttrf reports U(n, n) = 0, a shift that is a level of T to working precision;
        # a tiny pivot stands in for the zero one and the levels still settle
        case, g = DimensionlessCase(B=19.755906026997184, l=1), Grid(**REF, n=67)
        reported = []

        def singular(*args, **kwargs):
            *factor, info = dgttrf(*args, **kwargs)
            if not reported:
                factor[1][-1], info = 0.0, len(factor[1])
                reported.append(info)
            return (*factor, info)

        expected = solve(case, g, 66).eigenvalues
        monkeypatch.setattr(numerov, "dgttrf", singular)
        spec = solve(case, g, 66)
        assert reported == [66]
        w, psi = spec.eigenvalues, spec.eigenvectors
        assert np.allclose(w, expected, rtol=1e-12, atol=1e-12)
        sys = assemble(case, g)
        assert pencil_residual(sys, float(w[-1]), psi[:, -1]) <= 1e-8 * abs(w[-1])
        assert np.allclose(psi.T @ psi, np.eye(66), rtol=0, atol=1e-12)

    def test_nonpositive_count_against_dense_eigenvalues(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 7, 64):
            d = rng.normal(0.0, 2.0, n)
            assert numerov.nonpositive_count(d) == int(np.sum(eigvalsh_tridiagonal(d, np.ones(n - 1)) <= 0.0))
        # an infinite diagonal entry splits the matrix there and adds no eigenvalue <= 0
        d = rng.normal(0.0, 2.0, 9)
        d[4] = np.inf
        split = [eigvalsh_tridiagonal(part, np.ones(len(part) - 1)) for part in (d[:4], d[5:])]
        assert numerov.nonpositive_count(d) == sum(int(np.sum(part <= 0.0)) for part in split)
        # beside an entry of exactly 0 it defeats dstebz's split test, and dstebz reports that
        with pytest.raises(NonConvergenceError, match="dstebz"):
            numerov.nonpositive_count(np.array([2.0, 0.0, np.inf]))

    @pytest.mark.parametrize("n", [8, 64, 512, 2000])
    def test_one_level_runs_no_full_eigensolver(self, n, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a one-level solve called a full eigensolver")

        monkeypatch.setattr(numerov, "eig", forbidden)
        monkeypatch.setattr(numerov, "eigh", forbidden)
        spec = solve(DimensionlessCase(B=2.0, l=0), Grid(**REF, n=n), 1)
        assert spec.diagnostics["solver"] == "sturm"
        assert spec.eigenvalues.shape == (1,) and spec.eigenvectors.shape == (n - 1, 1)

    def test_iteration_that_never_settles_raises(self, monkeypatch):
        # every solve returns NaN, so no estimate lies in a bracket: the counts split it
        # down to adjacent floats and then give up
        def broken_solve(*args, **kwargs):
            x, info = dgttrs(*args, **kwargs)
            return np.full_like(x, np.nan), info

        monkeypatch.setattr(numerov, "dgttrs", broken_solve)
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
@example(B=0.0, l=0, n=8, frac=1.0)  # every level requested
@example(B=3.0, l=2, n=16, frac=1.0)
@example(B=10.0, l=0, n=512, frac=15 / 510)  # Coulomb-collapsed row of the mesh table
@example(B=10.0, l=0, n=8, frac=1.0)
@example(B=3.0, l=2, n=600, frac=597 / 598)  # count 598 of 599
@example(B=19.755906026997184, l=1, n=67, frac=1.0)
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
    assert spec.diagnostics["solver"] == "sturm"
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
    spec = solve(case, g, 1)
    a, psi = float(spec.eigenvalues[0]), spec.eigenvectors[:, 0]
    scale = max(1.0, abs(a))
    assert spec.diagnostics["solver"] == "sturm"
    assert abs(a - solve(case, g, 2).eigenvalues[0]) <= 1e-12 * scale
    sys = assemble(case, g)
    assert abs(a - eigh(sys.symmetric_operator(), eigvals_only=True, subset_by_index=[0, 0])[0]) <= 1e-10 * scale
    assert pencil_residual(sys, a, psi) <= 1e-8 * scale
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_one_level_by_inverse_iteration_on_the_default_grid():
    case = DimensionlessCase(B=2.0, l=0)
    g = Grid(numerov.DEFAULT_Z_MIN, numerov.DEFAULT_Z_MAX, numerov.DEFAULT_N)
    spec = solve(case, g, 1)
    a = float(spec.eigenvalues[0])
    assert spec.diagnostics["solver"] == "sturm"
    assert abs(a - solve(case, g, 2).eigenvalues[0]) <= 1e-12 * max(1.0, abs(a))


# tracked levels of the 12 Table 1 rows on N = 8 ... 512, recorded from an
# earlier banded Lanczos engine
TABLE1_NS = reference.TABLE1_NS
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
            (B, l, n, reference.TABLE1[(B, l)][TABLE1_NS.index(n)])
            for B, l, n in [(0.0, 0, 8), (0.0, 0, 512), (0.0, 2, 512), (2.0, 0, 512), (2.0, 2, 512),
                            (5.0, 0, 512), (10.0, 1, 512), (10.0, 2, 512)]
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
        case = DimensionlessCase(B=10.0, l=0)
        assert solve(case, g, 16).eigenvalues[0] < -3.0
        assert abs(tracked_level(case, g) - (-0.37306)) < 1e-3


def window_levels(case: DimensionlessCase, grid: Grid) -> np.ndarray:
    """The lowest `TRACKED_WINDOW` levels of a dense eigh of the symmetric operator."""
    window = min(numerov.TRACKED_WINDOW, grid.n - 1)
    return eigh(assemble(case, grid).symmetric_operator(), eigvals_only=True, subset_by_index=[0, window - 1])


@settings(max_examples=60, deadline=None)
@given(B=st.floats(0.0, 200.0), l=st.integers(0, 3), n=st.integers(8, 600))
@example(B=10.0, l=0, n=512)  # 3 negative levels
@example(B=100.0, l=0, n=512)  # every window level negative
@example(B=200.0, l=0, n=512)
@example(B=10.0, l=0, n=256)  # 3 negative levels: level 3 or 4
@example(B=5.0, l=0, n=16)  # level 1 or 2
@example(B=100.0, l=0, n=256)  # the top of the window, level 16
@example(B=200.0, l=0, n=8)  # window of 7, 5 negative: level 5 or 6
@example(B=500.0, l=0, n=16)  # window of 15, all negative: level 15
@example(B=103.4, l=0, n=283)
@example(B=68.20490194171842, l=0, n=594)  # 2.1e-13 off, inside a rounding floor of 5.9e-13
def test_tracked_level_matches_full_window(B, l, n):
    """The tracked level is the exact smallest-|A| level of the stored pencil's window, within
    2e-13 or the rounding floor of the stored entries, whichever is larger."""
    case = DimensionlessCase(B=B, l=l)
    g = Grid(**REF, n=n)
    w = window_levels(case, g)
    exact, floor = pencil_levels_exact(assemble(case, g), [int(np.argmin(np.abs(w)))])[0]
    assert abs(tracked_level(case, g) - exact) <= max(2e-13 * max(1.0, abs(exact)), floor)


@settings(max_examples=25, deadline=None)
@given(B=st.floats(0.0, 200.0), l=st.integers(0, 3), n=st.integers(8, 600))
@example(B=103.4, l=0, n=283)
@example(B=152.32177498888973, l=1, n=553)  # the rounding floor is 8.1e-12 here
def test_tracked_level_on_a_short_domain_is_within_the_rounding_floor(B, l, n):
    """On [1e-3, 5] fine meshes have 1/delta^2 up to 1.4e4, and rounding the
    stored entries alone can move a level by more than 1e-12."""
    case = DimensionlessCase(B=B, l=l)
    g = Grid(1e-3, 5.0, n)
    w = window_levels(case, g)
    exact, floor = pencil_levels_exact(assemble(case, g), [int(np.argmin(np.abs(w)))])[0]
    assert abs(tracked_level(case, g) - exact) <= max(1e-12 * max(1.0, abs(exact)), floor)


class TestTrackedCounts:
    """How `tracked_level` finds each mesh's level."""

    @pytest.mark.parametrize("B,l", [(0.0, 0), (0.0, 2), (2.0, 0), (2.0, 1), (5.0, 2)])
    def test_row_with_no_negative_level_settles_one_level_per_mesh(self, B, l, monkeypatch):
        # level 1, found from the count at 0 or the potential's minimum: two counts at most
        engines = []
        init = numerov._Levels.__init__

        def spy(self, system):
            init(self, system)
            engines.append(self)

        monkeypatch.setattr(numerov._Levels, "__init__", spy)
        case = DimensionlessCase(B=B, l=l)
        for n in TABLE1_NS:
            tracked_level(case, Grid(**REF, n=n))
        assert [list(e.found) for e in engines] == [[1]] * len(TABLE1_NS)
        assert all(e.counts <= 2 for e in engines)

    @pytest.mark.parametrize("B,l", list(TABLE1_TRACKED))
    def test_count_at_zero_is_the_number_of_negative_levels(self, B, l):
        # exact on every Table 1 mesh, including the N = 8 and 16 meshes that straddle
        # Numerov's stability bound at the far end
        case = DimensionlessCase(B=B, l=l)
        for n in TABLE1_NS:
            g = Grid(**REF, n=n)
            assert levels_of(case, g).count_below(0.0) == int(np.sum(dense_levels(case, g) < 0.0))
            assert (levels_of(case, g).count_below(0.0) == 0) == (solve(case, g, 1).eigenvalues[0] > 0.0)

    @pytest.mark.parametrize("B,l", list(TABLE1_TRACKED))
    def test_table1_counts_repeat_exactly(self, B, l):
        case = DimensionlessCase(B=B, l=l)
        for n in TABLE1_NS:
            first, second = levels_of(case, Grid(**REF, n=n)), levels_of(case, Grid(**REF, n=n))
            window = min(numerov.TRACKED_WINDOW, n - 1)
            assert first.tracked(window) == second.tracked(window)
            assert (first.counts, first.factorizations, first.sigmas) == (second.counts, second.factorizations, second.sigmas)


def straddles(levels: "numerov._Levels", sigma: float) -> bool:
    """Whether w = delta^2 (V - sigma) - 12 takes both signs on the mesh."""
    w = levels.stability - levels.delta2 * sigma
    return bool(np.any(w < 0.0) and np.any(w > 0.0))


@st.composite
def straddling_meshes(draw):
    """A case and grid whose counts straddle Numerov's stability bound: N = 8 or 16 on
    [1e-5, 20] at the far end, or l >= 4 on [1e-4, 50] at the centrifugal wall."""
    if draw(st.booleans()):
        case = DimensionlessCase(B=draw(st.floats(0.0, 20.0)), l=draw(st.integers(0, 3)))
        return case, Grid(**REF, n=draw(st.sampled_from([8, 16])))
    case = DimensionlessCase(B=draw(st.floats(0.0, 1500.0)), l=draw(st.integers(4, 10)))
    return case, Grid(1e-4, 50.0, draw(st.integers(8, 699)))


@settings(max_examples=80, deadline=None)
@given(
    mesh=straddling_meshes(),
    where=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    near=st.sampled_from([None, -1.0, 1.0]),
)
@example(mesh=(DimensionlessCase(B=2.0, l=0), Grid(**REF, n=8)), where=0.5, near=None)
@example(mesh=(DimensionlessCase(B=0.0, l=6), Grid(1e-4, 50.0, 512)), where=0.3, near=1.0)
@example(mesh=(DimensionlessCase(B=1500.0, l=10), Grid(1e-4, 50.0, 699)), where=0.05, near=-1.0)
def test_count_below_equals_dense_count(mesh, where, near):
    """count_below(sigma) is the number of dense-eigh levels below sigma where w changes sign
    along the mesh, also with sigma within 1e-10 (relative) of a level."""
    case, g = mesh
    ref = dense_levels(case, g)
    levels = levels_of(case, g)
    # w = delta^2 (V - sigma) - 12 takes both signs for sigma strictly between these
    lo = max(ref[0] - 1.0, np.min(levels.stability) / levels.delta2)
    hi = min(ref[-1] + 1.0, np.max(levels.stability) / levels.delta2)
    assume(lo < hi)
    if near is None:
        sigma = lo + where * (hi - lo)
    else:
        inside = ref[(ref > lo) & (ref < hi)]
        assume(len(inside))
        level = inside[int(where * len(inside))]
        sigma = level + near * 1e-10 * max(1.0, abs(level))
    assume(straddles(levels, sigma))
    assert levels.count_below(sigma) == int(np.sum(ref < sigma))


@pytest.mark.parametrize("B,l,n", [(0.0, 0, 8), (2.0, 1, 8), (5.0, 0, 16)])
def test_count_on_the_stability_bound(B, l, n):
    """A sigma that puts a node exactly on Numerov's stability bound, w_i = 0, counts the levels
    below it without a division warning."""
    case, g = DimensionlessCase(B=B, l=l), Grid(**REF, n=n)
    levels = levels_of(case, g)
    i = int(np.argmax(levels.system.potential_values))  # the far end, where V is largest
    sigma = levels.stability[i] / levels.delta2
    for _ in range(200):
        w = levels.stability[i] - levels.delta2 * sigma
        if w == 0.0:
            break
        sigma = np.nextafter(sigma, np.inf if w > 0.0 else -np.inf)
    assert levels.stability[i] - levels.delta2 * sigma == 0.0
    assert straddles(levels, sigma - 1e-9)
    ref = dense_levels(case, g)
    assert 0 < np.sum(ref < sigma) < len(ref)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert levels.count_below(sigma) == int(np.sum(ref < sigma))


@settings(max_examples=40, deadline=None)
@given(B=st.floats(0.0, 200.0), l=st.integers(0, 6), n=st.integers(8, 700), frac=st.floats(0.0, 1.0))
@example(B=100.0, l=0, n=512, frac=15 / 510)
@example(B=0.0, l=6, n=700, frac=0.0)
@example(B=2.0, l=0, n=8, frac=1.0)
def test_solve_misses_no_level(B, l, n, frac):
    """No level lies below the first one solve returns, and exactly `count` up to its last."""
    count = 1 + round(frac * (n - 2))
    case, g = DimensionlessCase(B=B, l=l), Grid(**REF, n=n)
    w = solve(case, g, count).eigenvalues
    tol = 1e-9 * np.maximum(1.0, np.abs(w))
    levels = levels_of(case, g)
    assert levels.count_below(w[0] - tol[0]) == 0
    assert levels.count_below(w[-1] + tol[-1]) == count


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# entries of S(sigma)'s diagonal 10 + 144/w: moderate ones, ones near 1e16 (|w| about 1e-14), whose
# products with each other pass dstebz's split test |d_j d_{j+1}| ulp^2 > 1 from about 4.5e15 on,
# and +inf (w = 0).  None is 0 or below the least normal number, which 10 + 144/w never is unless w
# lies within a few ulps of -14.4; there dstebz's 1 x 1 blocks and the recurrence compare with
# pivmin differently, and an entry of 0 beside +inf defeats the split (dstebz then reports it).
STURM_ENTRIES = st.one_of(_signed(st.floats(1e-6, 1e3)), _signed(st.floats(1e15, 1e17)), st.just(np.inf))


@settings(max_examples=200, deadline=None)
@given(d=st.lists(STURM_ENTRIES, min_size=1, max_size=40))
@example(d=[-0.5])
@example(d=[3.0, -2.0])
@example(d=[np.inf])
@example(d=[np.inf, -3.0])
@example(d=[1e16, 1e16, -1e16, 3.0])  # dstebz splits between the two big entries
@example(d=[2.0, np.inf, -1e16, 1e16, 1e15, -5.0])
def test_nonpositive_count_equals_the_sturm_recurrence(d):
    """The dstebz count equals LAPACK's unsplit Sturm recurrence (`dlaebz`, no split test)."""
    assert numerov.nonpositive_count(np.array(d)) == sturm_count(d)


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
