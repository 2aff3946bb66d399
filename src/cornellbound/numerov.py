"""Numerov matrix discretization of the dimensionless radial equation.

The fourth-order three-point scheme

    -(psi_{i-1} - 2 psi_i + psi_{i+1})/delta^2
      + (V_{i-1} psi_{i-1} + 10 V_i psi_i + V_{i+1} psi_{i+1})/12
      = A (psi_{i-1} + 10 psi_i + psi_{i+1})/12

on a uniform lattice over [z_min, z_max] with Dirichlet ends becomes the
pencil (-Ahat + Bhat Vhat, Bhat).  It is not symmetric for a non-constant
potential, but Ahat and Bhat are Toeplitz tridiagonal, so they commute and
-Bhat^{-1} Ahat + Vhat has the same spectrum and is symmetric.  With
psi = Bhat chi the levels solve the pentadiagonal pencil

    K chi = A M chi,   K = -Ahat Bhat + Bhat Vhat Bhat,   M = Bhat^2,

a congruence of the symmetric operator by Bhat: K and M are symmetric,
M is positive definite, and K - sigma M is positive definite exactly when
sigma lies below every level (Sylvester inertia).  `solve` bisects for
such a shift between min V - 1 (valid because -Bhat^{-1} Ahat is positive
definite) and the Rayleigh quotient K_ii/M_ii at argmin V, with
`cholesky_banded` as the test; the last successful factor is the
shift-invert operator of a Lanczos iteration (`eigsh`) for the lowest
`count` levels.  When every level is requested the same (K, M) pencil is
solved densely.  Memory and time per factorization are O(n).

The dense matrices of the original pencil and of the symmetric operator
(`kinetic_matrix`, `b_matrix`, `left_matrix`, `symmetric_operator`) and
the `eig` import have no production caller.  They stay because the tests
use the matrices as an independent reference (`pencil_residual` checks
eigenvectors against them) and the benchmark tracer wraps all of them by
name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, eigh, solve_banded
from scipy.linalg import eig  # noqa: F401  (benchmark traces wrap numerov.eig by name)
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import DomainError, NonConvergenceError
from .model import DimensionlessCase

#: the shift bisection stops once the bracket around the lowest level is
#: narrower than this fraction of max(1, |upper end|)
SHIFT_RTOL = 1e-2

#: default production domain (any domain is accepted via Grid)
DEFAULT_Z_MIN = 1e-4
DEFAULT_Z_MAX = 50.0
DEFAULT_N = 5000
#: domain of the reference convergence tables and of the CLI mesh sweeps
SWEEP_Z_MIN = 1e-5
SWEEP_Z_MAX = 20.0
#: the tracked level is the smallest-|A| one among this many lowest levels
TRACKED_WINDOW = 16


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on [z_min, z_max] with n subintervals.

    The lattice has n+1 nodes spaced by delta = (z_max - z_min)/n; the
    Dirichlet conditions sit on the two end nodes and the eigenproblem
    lives on the n-1 interior nodes.  z_min must be strictly positive
    because of the 1/z and 1/z^2 singularities.
    """

    z_min: float
    z_max: float
    n: int

    def __post_init__(self):
        if self.z_min <= 0.0:
            raise DomainError("z_min must be strictly positive")
        if self.z_max <= self.z_min:
            raise DomainError("z_max must exceed z_min")
        if self.n < 8:
            raise DomainError("need at least 8 subintervals")

    @property
    def delta(self) -> float:
        return (self.z_max - self.z_min) / self.n

    def interior_nodes(self) -> np.ndarray:
        return self.z_min + self.delta * np.arange(1, self.n)


@dataclass
class NumerovSystem:
    """Assembled coefficient data for the Numerov pencil on a grid."""

    grid: Grid
    potential_values: np.ndarray  # V at interior nodes
    a_main: float  # -2/delta^2
    a_off: float  # 1/delta^2
    b_main: float = 10.0 / 12.0
    b_off: float = 1.0 / 12.0

    @property
    def size(self) -> int:
        return len(self.potential_values)

    def pencil_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """K = -Ahat Bhat + Bhat Vhat Bhat and M = Bhat^2 in upper banded storage.

        Row 2 holds the diagonal and rows 1 and 0 the first and second
        superdiagonals (their leading entries unused), the layout
        `cholesky_banded` takes.  With S the matrix of ones on the first
        off-diagonals, Ahat = a_main I + a_off S and Bhat = b_main I + b_off S,
        and S^2 has 2 on the diagonal (1 in the two end rows) and 1 on the
        second off-diagonals.
        """
        v = self.potential_values
        am, ao, bm, bo = self.a_main, self.a_off, self.b_main, self.b_off
        s2 = np.full(self.size, 2.0)
        s2[[0, -1]] = 1.0
        k = np.zeros((3, self.size))
        k[2] = bm * bm * v - (am * bm + ao * bo * s2)
        k[2, 1:] += bo * bo * v[:-1]
        k[2, :-1] += bo * bo * v[1:]
        k[1, 1:] = bm * bo * (v[:-1] + v[1:]) - (ao * bm + am * bo)
        k[0, 2:] = bo * bo * v[1:-1] - ao * bo
        m = np.zeros((3, self.size))
        m[2] = bm * bm + bo * bo * s2
        m[1, 1:] = 2.0 * bm * bo
        m[0, 2:] = bo * bo
        return k, m

    def apply_b(self, x: np.ndarray) -> np.ndarray:
        """Bhat x, for a vector or for vectors stored as columns."""
        y = self.b_main * x
        y[1:] += self.b_off * x[:-1]
        y[:-1] += self.b_off * x[1:]
        return y

    def kinetic_matrix(self) -> np.ndarray:
        """Dense Ahat = (I_{-1} - 2 I_0 + I_{+1}) / delta^2."""
        n = self.size
        return (
            np.diag(np.full(n, self.a_main))
            + np.diag(np.full(n - 1, self.a_off), 1)
            + np.diag(np.full(n - 1, self.a_off), -1)
        )

    def b_matrix(self) -> np.ndarray:
        """Dense Bhat = (I_{-1} + 10 I_0 + I_{+1}) / 12."""
        n = self.size
        return (
            np.diag(np.full(n, self.b_main))
            + np.diag(np.full(n - 1, self.b_off), 1)
            + np.diag(np.full(n - 1, self.b_off), -1)
        )

    def left_matrix(self) -> np.ndarray:
        """Dense -Ahat + Bhat Vhat: the left side of the pencil."""
        return -self.kinetic_matrix() + self.b_matrix() @ np.diag(self.potential_values)

    def symmetric_operator(self) -> np.ndarray:
        """-Bhat^{-1} Ahat + Vhat, symmetrized against rounding noise."""
        n = self.size
        ab = np.zeros((3, n))
        ab[0, 1:] = self.b_off
        ab[1, :] = self.b_main
        ab[2, :-1] = self.b_off
        binv_a = solve_banded((1, 1), ab, self.kinetic_matrix())
        c = -binv_a + np.diag(self.potential_values)
        return 0.5 * (c + c.T)

    def pencil_residual(self, eigenvalue: float, vector: np.ndarray) -> float:
        """Max row residual of (-Ahat + Bhat Vhat) psi = A Bhat psi."""
        r = self.left_matrix() @ vector - eigenvalue * (self.b_matrix() @ vector)
        return float(np.max(np.abs(r)))


@dataclass
class Spectrum:
    """Ascending eigenvalues (and optional eigenvectors) of one case."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    case: DimensionlessCase | None = None
    grid: Grid | None = None
    diagnostics: dict = field(default_factory=dict)

    def tracked_value(self) -> float:
        """The level the reference tables track: smallest |A|.

        With a strong Coulomb term and small l, levels collapse toward the
        origin and drop far below the linear-regime states; the published
        convergence tables follow the state of smallest magnitude instead
        of the absolute ground state.
        """
        w = self.eigenvalues
        return float(w[np.argmin(np.abs(w))])


def effective_potential(case: DimensionlessCase, z):
    """V_eff(z) = z - B/z + l(l+1)/z^2, so that R(z) = A - V_eff(z)."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise DomainError("z must be positive")
    out = z - case.B / z + case.l * (case.l + 1) / z**2
    return float(out) if out.ndim == 0 else out


def assemble(case: DimensionlessCase, grid: Grid) -> NumerovSystem:
    """Evaluate the potential on the interior nodes and fix the pencil rows."""
    z = grid.interior_nodes()
    v = effective_potential(case, z)
    d2 = grid.delta**2
    return NumerovSystem(grid=grid, potential_values=v, a_main=-2.0 / d2, a_off=1.0 / d2)


def _symmetric_sparse(ab: np.ndarray):
    """The symmetric sparse matrix held in upper banded storage `ab`."""
    return sparse.diags(
        [ab[0, 2:], ab[1, 1:], ab[2], ab[1, 1:], ab[0, 2:]], [-2, -1, 0, 1, 2], format="csr"
    )


def _certified_shift(k: np.ndarray, m: np.ndarray, v: np.ndarray) -> tuple[float, float, np.ndarray, int]:
    """A shift sigma below every level of (K, M), proven by a banded Cholesky factor.

    `k` and `m` are the upper banded pencil, `v` the potential on the nodes.
    Returns (sigma, upper, factor, steps): K - sigma M = U^T U with U the
    returned upper banded factor, the lowest level lies in (sigma, upper],
    and `steps` bisection steps narrowed that bracket.
    """
    i = int(np.argmin(v))
    lo, hi = float(v[i]) - 1.0, float(k[2, i] / m[2, i])
    try:
        factor = cholesky_banded(k - lo * m)
    except LinAlgError as exc:
        raise NonConvergenceError(f"K - sigma M is not positive definite at sigma = {lo:g}") from exc
    steps = 0
    while hi - lo > SHIFT_RTOL * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        steps += 1
        try:
            factor = cholesky_banded(k - mid * m)
            lo = mid
        except LinAlgError:
            hi = mid
    return lo, hi, factor, steps


def solve(case: DimensionlessCase, grid: Grid, count: int, eigenvectors: bool = False) -> Spectrum:
    """The `count` smallest dimensionless levels A on the given grid.

    Shift-invert Lanczos on the pentadiagonal pencil (K, M) from a certified
    shift below the whole spectrum, or a dense solve of the same pencil when
    every level is requested (ARPACK needs count < size).  Eigenvectors are
    psi = Bhat chi, orthonormal because chi is M-orthonormal.  The
    diagnostics record the solver, the system size, the shift `sigma` and
    the bracket (`sigma_lo`, `sigma_hi`] of the lowest level.
    """
    system = assemble(case, grid)
    n = system.size
    if not (1 <= count <= n):
        raise DomainError(f"count must be between 1 and {n}")

    k_bands, m_bands = system.pencil_bands()
    sigma, upper, factor, steps = _certified_shift(k_bands, m_bands, system.potential_values)
    k, m = _symmetric_sparse(k_bands), _symmetric_sparse(m_bands)
    diagnostics = {
        "solver": "dense" if count == n else "lanczos",
        "size": n,
        "sigma": sigma,
        "sigma_lo": sigma,
        "sigma_hi": upper,
        "shift_steps": steps,
    }
    if count == n:
        w, chi = eigh(k.toarray(), m.toarray())
    else:
        solves = 0

        def shift_invert(x):
            nonlocal solves
            solves += 1
            return cho_solve_banded((factor, False), x)

        # a fixed start vector makes repeated solves bitwise reproducible
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            op_inv = LinearOperator((n, n), matvec=shift_invert, dtype=float)
            w, chi = eigsh(k, k=count, M=m, sigma=sigma, which="LM", v0=v0, OPinv=op_inv)
        except ArpackNoConvergence as exc:
            raise NonConvergenceError(f"shift-invert Lanczos did not converge for {case}") from exc
        order = np.argsort(w)
        w, chi = w[order], chi[:, order]
        diagnostics["shift_invert_solves"] = solves
    return Spectrum(
        eigenvalues=w,
        eigenvectors=system.apply_b(chi) if eigenvectors else None,
        case=case,
        grid=grid,
        diagnostics=diagnostics,
    )


def tracked_level(case: DimensionlessCase, grid: Grid) -> float:
    """Smallest-|A| level among the lowest `TRACKED_WINDOW` eigenvalues."""
    return solve(case, grid, min(TRACKED_WINDOW, grid.n - 1)).tracked_value()


def convergence_table(case: DimensionlessCase, grids: list[Grid]) -> list[tuple[int, float]]:
    """Per-grid tracked level (the reference-table convention), for
    mesh-refinement studies."""
    if len(grids) < 3:
        raise DomainError("need at least 3 grids for a convergence table")
    return [(g.n, tracked_level(case, g)) for g in grids]
