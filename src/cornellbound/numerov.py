"""Numerov matrix discretization of the dimensionless radial equation.

The fourth-order three-point scheme

    -(psi_{i-1} - 2 psi_i + psi_{i+1})/delta^2
      + (V_{i-1} psi_{i-1} + 10 V_i psi_i + V_{i+1} psi_{i+1})/12
      = A (psi_{i-1} + 10 psi_i + psi_{i+1})/12

on a uniform lattice over [z_min, z_max] with Dirichlet ends becomes the
pencil (-Ahat + Bhat Vhat, Bhat).  It is not symmetric for a non-constant
potential, but Ahat and Bhat are Toeplitz tridiagonal, so they commute and
H = -Bhat^{-1} Ahat + Vhat has the same spectrum and is symmetric.  H is
dense, yet one engine reaches its levels through two tridiagonal matrices.

Counting.  Ahat = 12 (Bhat - I)/delta^2, so with w_i = delta^2 (V_i - sigma) - 12

    H - sigma = 12 (C + delta^{-2} Bhat^{-1}),   C = diag(w) / (12 delta^2).

Haynsworth inertia additivity on [[C, I], [I, -delta^2 Bhat]], taken about
each diagonal block in turn, counts the levels below sigma exactly on every
mesh, also where w changes sign along it:

    count_below(sigma) = #{w_i < 0} - #{eigenvalues <= 0 of S(sigma)},

where S(sigma) is symmetric tridiagonal with diagonal 10 + 144/w_i and
off-diagonal 1 (delta^2 Bhat + C^{-1} = delta^2 S(sigma) / 12).  One Sturm
count of S(sigma), LAPACK `dstebz`, costs O(n) (Barth, Martin & Wilkinson,
Numer. Math. 9, 386 (1967)).  A node on Numerov's stability bound, w_i = 0,
gets the diagonal entry +inf: the limit w_i -> 0+, that is sigma approached
from below, which is what a count of the levels below sigma needs.
`dstebz` splits the matrix there, as the recurrence drops the next pivot's
1/inf term.

Settling.  T(a) = -Ahat + Bhat (V - a) = Bhat (H - a) is tridiagonal, so
(H - a)^{-1} x = T(a)^{-1} Bhat x costs one `dgttrf` and one `dgttrs`.
Counts bisect a bracket [lo, hi) until it holds the wanted level alone; or,
with the levels below it known, inverse iteration at lo with the nearest of
their psi projected off gives a Rayleigh quotient just above the wanted
level, and one count there closes the bracket.  Inverse iteration and then
Rayleigh-quotient iteration, kept inside the bracket, settle the level and
give its unit psi: once 1/||(H - a)^{-1} x|| is small, some level lies that
close to the shift a, and the bracket says which one.  The level returned
is psi^T H psi, with Bhat^{-1} by one `dpttrs` solve.

Every level lies in (min V, max V + 6/delta^2), because -Bhat^{-1} Ahat has
its spectrum in (0, 6/delta^2).

The dense matrices of the original pencil and of the symmetric operator
(`kinetic_matrix`, `b_matrix`, `left_matrix`, `symmetric_operator`) and
the `eig` and `eigh` imports have no production caller.  They stay because
the tests use the matrices as an independent reference (the pencil
residual in `tests/oracles.py` checks eigenvectors against them) and the
benchmark tracer wraps all of them by name.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg import eig, eigh  # noqa: F401  (benchmark traces wrap numerov.eig and numerov.eigh by name)
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs, dstebz

from .errors import DomainError, NonConvergenceError
from .model import DimensionlessCase, R_of_z, is_int, is_real

#: inverse-iteration solves at a fixed shift before Rayleigh-quotient iteration moves it
FIXED_SHIFT_SOLVES = 3
#: inverse iteration at a shift just above level k - 1 projects off the psi of
#: this many levels below it: level j grows against level k by about
#: ((A_k - shift)/(shift - A_j))^FIXED_SHIFT_SOLVES, which for evenly spaced
#: levels is 1/64 or less from the fifth one down
PROJECTED_LEVELS = 4
#: Rayleigh-quotient iteration stops once 1/||(H - a)^{-1} x||, the distance
#: from the shift a to some level, is at most this fraction of the level; the
#: Rayleigh quotient of its vector is then off by about the square of that
SETTLE_RTOL = 1e-8
#: and gives up after this many factorizations, and counts split the bracket instead
SETTLE_MAX_STEPS = 8

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
        if not (is_real(self.z_min) and is_real(self.z_max) and is_int(self.n)):
            raise DomainError(f"need finite z_min, z_max and an integer n, got {self.z_min!r}, {self.z_max!r}, {self.n!r}")
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
    """Assembled coefficient data for the Numerov pencil on a grid.

    Bhat = (1, 10, 1)/12 is the scheme's, not the caller's: the Sturm count
    in `_Levels` is derived for it.  Ahat's coefficients follow from the grid.
    """

    grid: Grid
    potential_values: np.ndarray  # V at interior nodes
    b_main: ClassVar[float] = 10.0 / 12.0
    b_off: ClassVar[float] = 1.0 / 12.0

    @property
    def a_main(self) -> float:
        return -2.0 / self.grid.delta**2

    @property
    def a_off(self) -> float:
        return 1.0 / self.grid.delta**2

    @property
    def size(self) -> int:
        return len(self.potential_values)

    def apply_a(self, x: np.ndarray) -> np.ndarray:
        """Ahat x for a vector x."""
        return np.convolve(x, (self.a_off, self.a_main, self.a_off), "same")

    def apply_b(self, x: np.ndarray) -> np.ndarray:
        """Bhat x for a vector x."""
        return np.convolve(x, (self.b_off, self.b_main, self.b_off), "same")

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


@dataclass
class Spectrum:
    """Ascending eigenvalues of one case, their orthonormal eigenvectors as columns, and diagnostics."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def effective_potential(case: DimensionlessCase, z):
    """V_eff(z) = z - B/z + l(l+1)/z^2 = -R(z) at A = 0."""
    return -R_of_z(0.0, case, z)


def assemble(case: DimensionlessCase, grid: Grid) -> NumerovSystem:
    """Evaluate the potential on the interior nodes and fix the pencil rows."""
    return NumerovSystem(grid, effective_potential(case, grid.interior_nodes()))


def _check_info(routine: str, info: int) -> None:
    if info:
        raise NonConvergenceError(f"LAPACK {routine} failed with info = {info}")


@lru_cache(maxsize=16)
def _ones(n: int) -> np.ndarray:
    out = np.ones(n)
    out.flags.writeable = False
    return out


def nonpositive_count(d: np.ndarray) -> int:
    """The number of eigenvalues <= 0 of the symmetric tridiagonal matrix with
    diagonal `d` and off-diagonal 1, by one Sturm count.

    LAPACK's `dstebz` counts the eigenvalues in (0, inf]; with an infinite
    tolerance every interval has converged at the first count, so no
    bisection step runs.  A pivot smaller than the least normal number
    counts as negative, and an infinite diagonal entry splits the matrix
    there, unless a neighbour is exactly 0 (in S(sigma), w within a few ulps
    of -14.4): `dstebz` then fails, a NonConvergenceError.  Eigenvalues are
    ordered by block (`B`): only their number is read, and the full sort
    (`E`) is quadratic in it once the matrix splits.
    """
    n = d.shape[0]
    positive, *_, info = dstebz(d, _ones(max(n - 1, 1)), 1, 0.0, math.inf, 0, 0, math.inf, b"B")
    _check_info("dstebz", info)
    return n - positive


@lru_cache(maxsize=16)
def _bhat_factor(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The `dpttrf` factors of the positive definite Bhat of n nodes."""
    d, e, info = dpttrf(np.full(n, NumerovSystem.b_main), np.full(n - 1, NumerovSystem.b_off))
    _check_info("dpttrf", info)
    d.flags.writeable = e.flags.writeable = False
    return d, e


@lru_cache(maxsize=16)
def _start_vector(n: int) -> np.ndarray:
    """The fixed start vector of inverse iteration, which makes repeated solves bitwise reproducible.

    A constant, which overlaps the smooth psi of the low levels well, plus a
    seeded normal vector, which overlaps every psi, both of unit length.  It
    is read-only: the iteration's first step divides it into a new array.
    """
    normal = np.random.default_rng(0).standard_normal(n)
    out = normal / np.linalg.norm(normal) + 1.0 / np.sqrt(n)
    out.flags.writeable = False
    return out


class _Levels:
    """The levels of one assembled mesh, each found on first use.

    Sturm counts bracket a level and Rayleigh-quotient iteration settles it;
    `counts` and `factorizations` tally the two kinds of O(n) work.  Every
    count is kept as a probe, so later levels start from the brackets that
    earlier ones left.
    """

    def __init__(self, system: NumerovSystem):
        self.system = system
        v = system.potential_values
        self.delta2 = system.grid.delta**2
        self.floor, self.ceiling = float(np.min(v)), float(np.max(v)) + 6.0 / self.delta2
        # w = stability - delta^2 sigma, and T(a) = (lower, diagonal, upper) - a Bhat
        self.stability = self.delta2 * v - 12.0
        self.diagonal = system.b_main * v - system.a_main
        off = system.b_off * v - system.a_off
        self.lower, self.upper = off[:-1], off[1:]
        self.bhat = _bhat_factor(system.size)
        # rounding a count or a solve moves a level by about eps times the extent of the spectrum
        self.noise = 16.0 * np.finfo(float).eps * max(abs(self.floor), abs(self.ceiling))
        # probes sigma -> count_below(sigma), both ascending; the two ends hold by the bound, not by a count
        self.sigmas, self.below = [self.floor, self.ceiling], [0, system.size]
        self.counts = self.factorizations = 0
        self.found: dict[int, tuple[float, np.ndarray, tuple[float, float]]] = {}

    def _bounds(self, sigma: float) -> tuple[int, int]:
        """Lower and upper bounds on count_below(sigma) from the probes on either side."""
        i = bisect.bisect_left(self.sigmas, sigma)
        if i < len(self.sigmas) and self.sigmas[i] == sigma:
            return self.below[i], self.below[i]
        return (self.below[i - 1] if i else 0), (self.below[i] if i < len(self.below) else self.system.size)

    def count_below(self, sigma: float) -> int:
        """The number of levels below sigma: from the probes when they pin it, else one Sturm count."""
        low, high = self._bounds(sigma)
        if low == high:
            return low
        w = self.stability - self.delta2 * sigma
        with np.errstate(divide="ignore"):  # w_i = 0 gives +inf, sigma's limit from below
            d = 144.0 / w
        d += 10.0
        nonpositive = nonpositive_count(d)
        self.counts += 1
        # within rounding of a level a count can fall out of order with its neighbours; keep the probes ascending
        count = min(max(int(np.count_nonzero(w < 0.0)) - nonpositive, low), high)
        i = bisect.bisect_left(self.sigmas, sigma)
        self.sigmas.insert(i, sigma)
        self.below.insert(i, count)
        return count

    def _bracket(self, k: int) -> tuple[float, float]:
        """The probes lo < hi nearest level k: fewer than k levels lie below lo, at least k below hi."""
        i = bisect.bisect_left(self.below, k)
        return self.sigmas[i - 1], self.sigmas[i]

    def _certify(self, k: int, a: float, tau: float) -> bool:
        """Whether a level within tau of a is level k: at most k levels lie below a + tau and at
        least k - 1 below a - tau, as the probes show or one count each decides."""
        above, below = a + tau, a - tau
        if self._bounds(above)[1] > k and self.count_below(above) > k:
            return False
        return self._bounds(below)[0] >= k - 1 or self.count_below(below) >= k - 1

    def _factor(self, a: float) -> list:
        """The `dgttrf` factors of T(a) = -Ahat + Bhat (V - a) = Bhat (H - a)."""
        off = self.system.b_off * a
        diagonal = self.diagonal - self.system.b_main * a
        lower, upper = self.lower - off, self.upper - off
        *factor, info = dgttrf(lower, diagonal, upper, overwrite_dl=True, overwrite_d=True, overwrite_du=True)
        self.factorizations += 1
        if info > 0:
            # `a` is a level of T to working precision; as in LAPACK's inverse
            # iteration (dstein), a tiny pivot stands in for the zero one
            factor[1][factor[1] == 0.0] = np.finfo(float).eps * np.max(np.abs(self.diagonal - self.system.b_main * a))
        else:
            _check_info("dgttrf", info)
        return factor

    def _inverse(self, a: float, lower: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """FIXED_SHIFT_SOLVES steps of inverse iteration x <- (H - a)^{-1} x at the fixed shift a
        from the fixed start vector: the Rayleigh quotient of the last x, and x.

        y = (H - a)^{-1} x = T(a)^{-1} Bhat x is one `dgttrs` solve, and the
        Rayleigh quotient of y is a + x^T y / y^T y.  Each solve draws x toward
        the psi of the level nearest a.  The columns of `lower`, if given, are
        the psi of levels to leave out: each solve is projected off them.
        With every level below a projected off, the Rayleigh quotient bounds
        the lowest level left from above.
        """
        factor = self._factor(a)
        x = _start_vector(self.system.size)
        for _ in range(FIXED_SHIFT_SOLVES):
            x = x / math.sqrt(x @ x)
            y = dgttrs(*factor, self.system.apply_b(x), overwrite_b=True)[0]
            if lower is not None:
                y -= lower @ (lower.T @ y)
            quotient, x = a + (x @ y) / (y @ y), y
        return float(quotient), x

    def _rayleigh(self, psi: np.ndarray) -> float:
        """psi^T H psi = psi^T V psi - psi^T Bhat^{-1} Ahat psi for a unit psi; Bhat^{-1} is one `dpttrs` solve."""
        system = self.system
        return float(psi @ (system.potential_values * psi) - psi @ dpttrs(*self.bhat, system.apply_a(psi))[0])

    def _settle(self, lo: float, hi: float, a: float, x: np.ndarray) -> tuple[float, np.ndarray, float] | None:
        """Rayleigh-quotient iteration from the shift a and the vector x: (level, unit psi, tau)
        with a level of H within tau of the one returned, or None once an estimate
        leaves [lo, hi] (give or take the rounding floor) or SETTLE_MAX_STEPS
        factorizations pass.

        Each solve y = (H - a)^{-1} x gives the next shift, the Rayleigh
        quotient a + x^T y / y^T y of y.  1/||y|| = ||(H - a) psi|| for
        psi = y/||y|| bounds the distance from a to some level, and the
        iteration stops once that is below SETTLE_RTOL of the level or the
        rounding floor; one more solve on the same factors then leaves psi's
        error at about the square of that.  The level returned is psi^T H psi,
        taken with H itself: the solve's rounding, about eps ||T(a)||, moves
        the quotient a + x^T y / y^T y by as much, but psi^T H psi only by the
        square of psi's error.
        """
        apply_b = self.system.apply_b
        for _ in range(SETTLE_MAX_STEPS):
            x /= math.sqrt(x @ x)
            factor = self._factor(a)
            y = dgttrs(*factor, apply_b(x), overwrite_b=True)[0]
            norm = math.sqrt(y @ y)
            estimate, x = a + (x @ y) / norm**2, y
            if not lo - self.noise <= estimate <= hi + self.noise:
                return None
            if norm * max(SETTLE_RTOL * abs(estimate), self.noise) >= 1.0:
                psi = dgttrs(*factor, apply_b(y / norm), overwrite_b=True)[0]
                psi /= math.sqrt(psi @ psi)
                level = self._rayleigh(psi)
                return level, psi, float(abs(level - a) + 1.0 / norm + self.noise)
            a = estimate
        return None

    def level(self, k: int) -> tuple[float, np.ndarray, tuple[float, float]]:
        """Level k (1-based, ascending), its unit psi and a bracket [lo, hi) that holds it alone.

        Once the bracket holds level k alone, inverse iteration from its
        midpoint, the point to which level k is nearest, and then
        Rayleigh-quotient iteration settle the level, unless an estimate
        leaves the bracket.  Before that, once per level, with the k - 1
        lower levels known and fewer than k levels below lo, inverse
        iteration at lo with the nearest PROJECTED_LEVELS of them projected
        off gives a Rayleigh quotient that lies above level k unless a
        farther level has grown in: a count there either closes the
        bracket, and the level settles from that bound, or splits the
        bracket.  Otherwise, and whenever an iteration fails, a count at the
        midpoint splits the bracket.
        """
        try_bound = all(j in self.found for j in range(1, k))
        while k not in self.found:
            lo, hi = self._bracket(k)
            counts, settled = self.counts, None
            if self.count_below(lo) == k - 1 and self.count_below(hi) == k:
                estimate, x = self._inverse(0.5 * (lo + hi))
                settled = self._settle(lo, hi, min(max(estimate, lo), hi), x)
            elif self.count_below(lo) == k - 1 and try_bound:
                try_bound = False
                nearest = [self.found[j][1] for j in range(max(1, k - PROJECTED_LEVELS), k)]
                bound, x = self._inverse(lo, np.column_stack(nearest) if nearest else None)
                if lo < bound < hi and self.count_below(bound) == k:
                    settled = self._settle(lo, bound, bound, x)
            if settled is not None and self._certify(k, settled[0], settled[2]):
                self.found[k] = (settled[0], settled[1], self._bracket(k))
            elif self.counts == counts:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    raise NonConvergenceError(f"level {k} did not settle in [{lo!r}, {hi!r})")
                self.count_below(mid)
        return self.found[k]

    def tracked(self, window: int) -> float:
        """The smallest-|A| level among the lowest `window`.

        With m = count_below(0), it is level 1 when m = 0, the top of the
        window when m >= window, and else level m or m + 1.  In that last case
        inverse iteration and then Rayleigh-quotient iteration from the shift
        0 find the level nearest 0; counts then prove its index (m + 1 at or
        above 0, m below) and that the level on the other side of 0 lies
        farther out.  When the proof fails, both candidates are found by
        `level`.  The proof is kept for speed: finding both candidates every
        time gives the same levels to within 4e-15 but made the slow rows of
        the Table 1 mesh sweep (p90 time per row) 1.6 to 1.9 times slower on
        a shared 2-core host.
        """
        m = self.count_below(0.0)
        if m == 0 or m >= window:
            return self.level(max(1, min(m, window)))[0]
        settled = self._settle(self.floor, self.ceiling, *self._inverse(0.0))
        if settled is not None:
            a, psi, tau = settled
            # a level at or above 0 is level m + 1, and level m must lie below -(a + tau);
            # a level below 0 is level m, and level m + 1 must lie at or above -a + tau
            k, far = (m + 1, -a - tau) if a >= 0.0 else (m, -a + tau)
            if self._certify(k, a, tau):
                self.found[k] = (a, psi, self._bracket(k))
                if self.count_below(far) == m:
                    return a
        return min((self.level(k)[0] for k in (m, m + 1)), key=abs)

    def diagnostics(self, count: int) -> dict:
        levels = [{"index": k, "bracket": self.found[k][2]} for k in range(1, count + 1)]
        return {
            "solver": "sturm",
            "size": self.system.size,
            "sturm_counts": self.counts,
            "factorizations": self.factorizations,
            "levels": levels,
        }


def solve(case: DimensionlessCase, grid: Grid, count: int) -> Spectrum:
    """The `count` smallest dimensionless levels A on the given grid.

    Levels come in ascending order from `_Levels.level`: Sturm counts
    bracket level k alone, and inverse and Rayleigh-quotient iteration on
    the tridiagonal Bhat (H - a) settle it inside the bracket and give its
    psi; the counts for one level are kept for the next.  Eigenvectors are
    the orthonormal psi.  The diagnostics hold the solver (`sturm`), the
    size, the number of Sturm counts (`sturm_counts`) and of `dgttrf`
    factorizations, and for each level its 1-based `index` and its
    `bracket` [lo, hi), below whose ends k - 1 and k levels lie.
    """
    n = grid.n - 1
    if not (1 <= count <= n):
        raise DomainError(f"count must be between 1 and {n}")
    levels = _Levels(assemble(case, grid))
    w, psi, _ = zip(*(levels.level(k) for k in range(1, count + 1)))
    return Spectrum(np.array(w), np.column_stack(psi), levels.diagnostics(count))


def tracked_level(case: DimensionlessCase, grid: Grid) -> float:
    """Smallest-|A| level among the lowest `TRACKED_WINDOW` eigenvalues.

    The published convergence tables track this level, not the ground
    state: with a strong Coulomb term and small l, levels collapse toward
    the origin and drop far below the linear-regime states.

    One Sturm count at 0 gives m, the number of negative levels; the window
    caps the answer at its top level, and otherwise it is level m or m + 1.
    Rayleigh-quotient iteration from the shift 0 finds the level nearest 0,
    and two or three counts prove which one it is (see `_Levels.tracked`).
    """
    return _Levels(assemble(case, grid)).tracked(min(TRACKED_WINDOW, grid.n - 1))


def convergence_table(case: DimensionlessCase, grids: list[Grid]) -> list[tuple[int, float]]:
    """Per-grid tracked level (the reference-table convention), for
    mesh-refinement studies."""
    if len(grids) < 3:
        raise DomainError("need at least 3 grids for a convergence table")
    return [(g.n, tracked_level(case, g)) for g in grids]
