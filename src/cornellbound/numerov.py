"""Numerov matrix discretization of the dimensionless radial equation.

The fourth-order three-point scheme

    -(psi_{i-1} - 2 psi_i + psi_{i+1})/delta^2
      + (V_{i-1} psi_{i-1} + 10 V_i psi_i + V_{i+1} psi_{i+1})/12
      = A (psi_{i-1} + 10 psi_i + psi_{i+1})/12

on a uniform lattice over [z_min, z_max] with Dirichlet ends becomes the
pencil (-Ahat + Bhat Vhat, Bhat).  It is not symmetric for a non-constant
potential, but Ahat and Bhat are Toeplitz tridiagonal, so they commute and
H = -Bhat^{-1} Ahat + Vhat has the same spectrum and is symmetric.  H is
dense; its congruence by Bhat is the pentadiagonal pencil

    K chi = A M chi,   K = Bhat H Bhat = -Ahat Bhat + Bhat Vhat Bhat,   M = Bhat^2,

with psi = Bhat chi.  K and M are symmetric, M is positive definite, and
K - sigma M = Bhat (H - sigma) Bhat is positive definite exactly when
sigma lies below every level (Sylvester inertia).  `solve` bisects for
such a shift between min V - 1 (valid because -Bhat^{-1} Ahat is positive
definite) and the Rayleigh quotient K_ii/M_ii at argmin V, with LAPACK's
banded Cholesky `dpbtrf` as the test.  With U the last successful factor,

    x -> Bhat U^{-1} U^{-T} Bhat x = Bhat (K - sigma M)^{-1} Bhat x = (H - sigma)^{-1} x

is symmetric positive definite and costs one `dpbtrs` solve.  Its largest
eigenvalues theta give the levels A = sigma + 1/theta, and its eigenvectors
are the orthonormal psi.  The levels come by one of three paths:

* inverse iteration with that operator, for the lowest level alone: sigma
  lies within SHIFT_RTOL of it, so a few solves settle theta;
* the tridiagonal path, for more levels of a system of at most
  TRIDIAGONAL_MAX_SIZE nodes, or at least TRIDIAGONAL_MIN_COUNT levels of
  any: Crawford's split-Cholesky reduction (LAPACK `dpbstf`, `dsbgst`) and
  `dsbtrd` bring (K, M) once to a symmetric tridiagonal T with the same
  levels, Sturm-sequence bisection (`dstebz`) counts and finds them, and one
  inverse-iteration pass on the tridiagonal Bhat (H - A) = -Ahat + Bhat (V - A)
  polishes each level and gives its psi;
* standard-mode Lanczos (`eigsh`) with that operator, for the rest.

The dense matrices of the original pencil and of the symmetric operator
(`kinetic_matrix`, `b_matrix`, `left_matrix`, `symmetric_operator`) and
the `eig` and `eigh` imports have no production caller.  They stay because
the tests use the matrices as an independent reference (`pencil_residual`
checks eigenvectors against them) and the benchmark tracer wraps all of
them by name.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import cython_lapack, solve_banded
from scipy.linalg import eig, eigh  # noqa: F401  (benchmark traces wrap numerov.eig and numerov.eigh by name)
from scipy.linalg.lapack import dgttrf, dgttrs, dpbtrf, dpbtrs, dstebz

from .errors import DomainError, NonConvergenceError
from .model import DimensionlessCase, R_of_z

#: the shift bisection stops once the bracket around the lowest level is
#: narrower than this fraction of max(1, |upper end|)
SHIFT_RTOL = 1e-2
#: inverse iteration stops once theta = x^T (H - sigma)^{-1} x changes by at most
#: this fraction of itself; at machine epsilon rounding noise keeps it from firing
INVERSE_RTOL = 1e-14
#: inverse iteration raises NonConvergenceError after this many solves
INVERSE_MAX_SOLVES = 100
#: more than one level of a system of at most this many nodes, or at least this
#: many levels of any system, come from the tridiagonal form; the rest from Lanczos
TRIDIAGONAL_MAX_SIZE = 255
TRIDIAGONAL_MIN_COUNT = 128

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
    """V_eff(z) = z - B/z + l(l+1)/z^2 = -R(z) at A = 0."""
    return -R_of_z(0.0, case, z)


def assemble(case: DimensionlessCase, grid: Grid) -> NumerovSystem:
    """Evaluate the potential on the interior nodes and fix the pencil rows."""
    z = grid.interior_nodes()
    v = effective_potential(case, z)
    d2 = grid.delta**2
    return NumerovSystem(grid=grid, potential_values=v, a_main=-2.0 / d2, a_off=1.0 / d2)


def _bind_lapack(name: str, *argtypes):
    """A LAPACK routine that scipy.linalg.lapack does not wrap, called through ctypes.

    scipy exports every LAPACK routine it links as a C function pointer in
    `cython_lapack.__pyx_capi__` (plain C arguments, no hidden string lengths).
    """
    capsule = cython_lapack.__pyx_capi__[name]
    # own prototypes, so the shared ctypes.pythonapi functions keep their argtypes
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_CHAR, _INT, _ARRAY = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
_DPBSTF = _bind_lapack("dpbstf", _CHAR, _INT, _INT, _ARRAY, _INT, _INT)
_DSBGST = _bind_lapack("dsbgst", _CHAR, _CHAR, _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT)
_DSBTRD = _bind_lapack("dsbtrd", _CHAR, _CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _ARRAY, _ARRAY, _INT, _ARRAY, _INT)


def _band_pointer(ab: np.ndarray) -> int:
    """The data address of an upper banded matrix with two superdiagonals, checked for LAPACK."""
    if ab.dtype != np.float64 or ab.ndim != 2 or ab.shape[0] != 3 or not ab.flags.f_contiguous:
        raise ValueError("expected a Fortran-ordered float64 band array of shape (3, n)")
    return ab.ctypes.data


def dpbstf(bb: np.ndarray) -> int:
    """Split Cholesky factor M = S^T S of the banded `bb`, in place; LAPACK's info."""
    n, info = ctypes.c_int(bb.shape[1]), ctypes.c_int(0)
    _DPBSTF(b"U", n, ctypes.c_int(2), _band_pointer(bb), ctypes.c_int(3), info)
    return info.value


def dsbgst(ab: np.ndarray, bb: np.ndarray) -> int:
    """Crawford's reduction of the banded pencil (ab, S^T S) to standard form in `ab`; LAPACK's info.

    `bb` holds the split Cholesky factor S from `dpbstf`; the result
    X^T ab X, with X^T M X = I, keeps two superdiagonals.
    """
    if bb.shape != ab.shape:
        raise ValueError("the two band arrays differ in shape")
    n, two, three, one, info = (ctypes.c_int(v) for v in (ab.shape[1], 2, 3, 1, 0))
    unused, work = np.zeros(1), np.empty(2 * ab.shape[1])
    _DSBGST(b"N", b"U", n, two, two, _band_pointer(ab), three, _band_pointer(bb), three, unused.ctypes.data, one, work.ctypes.data, info)
    return info.value


def dsbtrd(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The symmetric tridiagonal (d, e) orthogonally similar to banded `ab` (overwritten); LAPACK's info."""
    size = ab.shape[1]
    n, two, three, one, info = (ctypes.c_int(v) for v in (size, 2, 3, 1, 0))
    d, e, unused, work = np.empty(size), np.empty(size - 1), np.zeros(1), np.empty(size)
    _DSBTRD(b"N", b"U", n, two, _band_pointer(ab), three, d.ctypes.data, e.ctypes.data, unused.ctypes.data, one, work.ctypes.data, info)
    return d, e, info.value


def _tridiagonal_form(k: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a symmetric tridiagonal T with the levels of (K, M)."""
    ab, bb = np.array(k, order="F"), np.array(m, order="F")  # both are overwritten
    _check_info("dpbstf", dpbstf(bb))
    _check_info("dsbgst", dsbgst(ab, bb))
    d, e, info = dsbtrd(ab)
    _check_info("dsbtrd", info)
    return d, e


def _check_info(routine: str, info: int) -> None:
    if info:
        raise NonConvergenceError(f"LAPACK {routine} failed with info = {info}")


def _certified_shift(k: np.ndarray, m: np.ndarray, v: np.ndarray) -> tuple[float, float, np.ndarray, int]:
    """A shift sigma below every level of (K, M), proven by a banded Cholesky factor.

    `k` and `m` are the upper banded pencil, `v` the potential on the nodes.
    Returns (sigma, upper, factor, steps): K - sigma M = U^T U with U the
    returned upper banded factor, the lowest level lies in (sigma, upper],
    and `steps` bisection steps narrowed that bracket.
    """
    i = int(np.argmin(v))
    lo, hi = float(v[i]) - 1.0, float(k[2, i] / m[2, i])
    factor, info = dpbtrf(k - lo * m)
    if info:
        raise NonConvergenceError(f"K - sigma M is not positive definite at sigma = {lo:g}")
    steps = 0
    while hi - lo > SHIFT_RTOL * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        steps += 1
        trial, info = dpbtrf(k - mid * m)
        if info:
            hi = mid
        else:
            lo, factor = mid, trial
    return lo, hi, factor, steps


class _Pencil:
    """The banded pencil (K, M) of one mesh; its certified shift and its
    tridiagonal form are each found once, on first use."""

    def __init__(self, system: NumerovSystem):
        self.system = system
        self.k, self.m = system.pencil_bands()

    @cached_property
    def shift(self) -> tuple[float, float, np.ndarray, int]:
        return _certified_shift(self.k, self.m, self.system.potential_values)

    @cached_property
    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        return _tridiagonal_form(self.k, self.m)

    def shift_invert(self, x: np.ndarray) -> np.ndarray:
        """(H - sigma)^{-1} x = Bhat (K - sigma M)^{-1} Bhat x: one `dpbtrs` solve."""
        apply_b = self.system.apply_b
        return apply_b(dpbtrs(self.shift[2], apply_b(x))[0])

    def count_nonpositive(self) -> int:
        """The number of levels <= 0: a Sturm count of the tridiagonal form at 0."""
        d, e = self.tridiagonal
        below = float(np.min(d) - 2.0 * np.max(np.abs(e))) - 1.0  # under every Gershgorin disc
        # an absolute tolerance as wide as (below, 0] ends the bisection at once: only the count is used
        count, _, _, _, info = dstebz(d, e, 1, below, 0.0, 0, 0, -below, b"E")
        _check_info("dstebz", info)
        return count

    def bisect(self, first: int, last: int) -> np.ndarray:
        """Levels `first` ... `last` (1-based, ascending) by bisection on the tridiagonal form."""
        d, e = self.tridiagonal
        found, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, first, last, 0.0, b"E")
        _check_info("dstebz", info)
        if found != last - first + 1:
            raise NonConvergenceError(f"dstebz found {found} of levels {first}..{last}")
        return w[:found]

    def polish(self, a: float) -> tuple[float, np.ndarray]:
        """One inverse-iteration pass on H from the shift `a` next to a level: the level and its unit psi.

        T(a) = -Ahat + Bhat (V - a) = Bhat (H - a) is tridiagonal, so
        (H - a)^{-1} x = T(a)^{-1} Bhat x costs one `dgttrs` solve after one
        `dgttrf`.  The first solve turns the fixed start vector into the
        level's eigenvector, the second gives theta = x^T (H - a)^{-1} x, and
        the level is a + 1/theta.
        """
        system = self.system
        u = system.potential_values - a
        off = system.b_off * u
        diagonal = system.b_main * u - system.a_main
        *factor, info = dgttrf(off[:-1] - system.a_off, diagonal, off[1:] - system.a_off)
        if info > 0:
            # `a` is a level of T to working precision; as in LAPACK's inverse
            # iteration (dstein), a tiny pivot stands in for the zero one
            factor[1][factor[1] == 0.0] = np.finfo(float).eps * np.max(np.abs(diagonal))
        else:
            _check_info("dgttrf", info)
        x = _start_vector(system.size)
        for _ in range(2):
            x /= np.linalg.norm(x)
            y = dgttrs(*factor, system.apply_b(x))[0]
            theta, x = float(x @ y), y
        return a + 1.0 / theta, x / np.linalg.norm(x)


@lru_cache(maxsize=16)
def _seeded_normal(n: int) -> np.ndarray:
    out = np.random.default_rng(0).standard_normal(n)
    out.flags.writeable = False
    return out


def _start_vector(n: int) -> np.ndarray:
    # a fixed start vector makes repeated solves bitwise reproducible; the
    # caller owns the copy (inverse iteration normalizes it in place)
    return _seeded_normal(n).copy()


def _lowest_level(pencil: _Pencil, eigenvectors: bool) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """The lowest level by inverse iteration x <- (H - sigma)^{-1} x from the certified shift."""
    sigma, upper, _, steps = pencil.shift
    x = _start_vector(pencil.system.size)
    x /= np.linalg.norm(x)
    theta = 0.0
    for solves in range(1, INVERSE_MAX_SOLVES + 1):
        y = pencil.shift_invert(x)
        theta, previous = float(x @ y), theta
        x = y / np.linalg.norm(y)
        if abs(theta - previous) <= INVERSE_RTOL * theta:
            break
    else:
        raise NonConvergenceError(f"inverse iteration did not settle in {INVERSE_MAX_SOLVES} solves")
    diagnostics = {"solver": "inverse", "size": pencil.system.size, "sigma": sigma, "sigma_lo": sigma}
    diagnostics.update(sigma_hi=upper, shift_steps=steps, shift_invert_solves=solves)
    return np.array([sigma + 1.0 / theta]), x[:, None] if eigenvectors else None, diagnostics


def _tridiagonal_levels(pencil: _Pencil, count: int, eigenvectors: bool) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """The lowest `count` levels by bisection on the tridiagonal form, each polished by one pass."""
    pairs = [pencil.polish(a) for a in pencil.bisect(1, count)]
    w = np.array([a for a, _ in pairs])
    psi = np.column_stack([x for _, x in pairs]) if eigenvectors else None
    return w, psi, {"solver": "tridiagonal", "size": pencil.system.size}


def _lanczos_levels(pencil: _Pencil, count: int, eigenvectors: bool) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """The lowest `count` levels by standard-mode Lanczos on (H - sigma)^{-1} from the certified shift."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

    n = pencil.system.size
    sigma, upper, _, steps = pencil.shift
    solves = 0

    def shift_invert(x):
        nonlocal solves
        solves += 1
        return pencil.shift_invert(x)

    try:
        op = LinearOperator((n, n), matvec=shift_invert, dtype=float)
        theta, psi = eigsh(op, k=count, which="LA", v0=_start_vector(n))
    except ArpackNoConvergence as exc:
        raise NonConvergenceError("shift-invert Lanczos did not converge") from exc
    order = np.argsort(theta)[::-1]
    diagnostics = {"solver": "lanczos", "size": n, "krylov_basis": min(n, max(2 * count + 1, 20))}
    diagnostics.update(sigma=sigma, sigma_lo=sigma, sigma_hi=upper, shift_steps=steps, shift_invert_solves=solves)
    return sigma + 1.0 / theta[order], psi[:, order] if eigenvectors else None, diagnostics


def eigsh(*args, **kwargs):
    """scipy.sparse.linalg.eigsh, imported on first use: ARPACK takes about 20 ms to
    import, and only the Lanczos path needs it."""
    from scipy.sparse.linalg import eigsh as arpack_eigsh

    return arpack_eigsh(*args, **kwargs)


def _takes_tridiagonal(size: int, count: int) -> bool:
    """Whether `count` > 1 levels of a system of `size` nodes come from the tridiagonal form.

    The reduction costs O(size^2) and each level O(size) more, while Lanczos
    orthogonalizes against ARPACK's basis of ncv = max(2 count + 1, 20)
    vectors; the two thresholds are where they cost the same (at count 2 and
    at size 600 to 5000).  Every system whose basis would span the space,
    size <= 2 count + 1, falls under one of them.
    """
    return size <= TRIDIAGONAL_MAX_SIZE or count >= TRIDIAGONAL_MIN_COUNT


def _levels(pencil: _Pencil, count: int, eigenvectors: bool) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """Levels, eigenvectors (or None) and diagnostics of `solve`, on an assembled pencil."""
    if count == 1:
        return _lowest_level(pencil, eigenvectors)
    if _takes_tridiagonal(pencil.system.size, count):
        return _tridiagonal_levels(pencil, count, eigenvectors)
    return _lanczos_levels(pencil, count, eigenvectors)


def solve(case: DimensionlessCase, grid: Grid, count: int, eigenvectors: bool = False) -> Spectrum:
    """The `count` smallest dimensionless levels A on the given grid, by one of three paths.

    Inverse iteration, for one level: on (H - sigma)^{-1} from the certified
    shift.  sigma lies within SHIFT_RTOL of the lowest level and every other
    level is farther off, so each `dpbtrs` solve shrinks the error of
    theta = x^T (H - sigma)^{-1} x by the square of their distance ratio, and
    it stops once theta changes by at most INVERSE_RTOL.
    Tridiagonal, for more levels on systems of at most TRIDIAGONAL_MAX_SIZE
    nodes and for at least TRIDIAGONAL_MIN_COUNT levels of any system (which
    takes in every count whose ARPACK basis would span the space): the pencil is
    reduced once to a symmetric tridiagonal T with the same levels
    (`dpbstf`, `dsbgst`, `dsbtrd`), `dstebz` bisects T for the lowest
    `count`, and each is polished by one inverse-iteration pass on the
    tridiagonal Bhat (H - A), which also gives its psi.
    Lanczos, for more levels on larger systems: standard mode on
    (H - sigma)^{-1} = Bhat (K - sigma M)^{-1} Bhat from the certified shift.
    Eigenvectors are the orthonormal psi.  The diagnostics hold the solver
    (`inverse`, `tridiagonal` or `lanczos`) and the size; the Lanczos path
    adds `krylov_basis` (ncv), and the two shifted ones add `sigma`, the
    bracket (`sigma_lo`, `sigma_hi`] of the lowest level, the bisection
    steps and the operator applications (one `dpbtrs` each).
    """
    pencil = _Pencil(assemble(case, grid))
    n = pencil.system.size
    if not (1 <= count <= n):
        raise DomainError(f"count must be between 1 and {n}")
    w, psi, diagnostics = _levels(pencil, count, eigenvectors)
    return Spectrum(w, psi, case, grid, diagnostics)


def tracked_level(case: DimensionlessCase, grid: Grid) -> float:
    """Smallest-|A| level among the lowest `TRACKED_WINDOW` eigenvalues.

    The mesh is assembled once and every solve below reuses its pencil.
    One `dpbtrf` of K is a Sylvester probe: K = Bhat H Bhat is positive
    definite exactly when every level is positive, and then the lowest level
    is the tracked one, found alone by inverse iteration.  Otherwise the
    levels ascend, so the smallest |A| in the window is the last level <= 0
    or the first one above it.  On systems of at most TRIDIAGONAL_MAX_SIZE
    nodes a Sturm count of the tridiagonal form gives m, the number of
    levels <= 0, exactly; bisection finds levels m and m + 1 (capped at the
    window).  On larger ones Lanczos starts at 2 levels and doubles the
    count, capped at the window, while its highest level is negative: once
    it is >= 0 no later level is closer to zero and the solved prefix
    decides.  Either way the level returned is polished by one
    inverse-iteration pass on the tridiagonal Bhat (H - A).
    """
    pencil = _Pencil(assemble(case, grid))
    window = min(TRACKED_WINDOW, grid.n - 1)
    if dpbtrf(pencil.k)[1] == 0:
        return float(_lowest_level(pencil, False)[0][0])
    if pencil.system.size <= TRIDIAGONAL_MAX_SIZE:
        m = pencil.count_nonpositive()
        levels = pencil.bisect(max(1, min(m, window)), min(m + 1, window))
    else:
        count = 2
        levels = _lanczos_levels(pencil, count, False)[0]
        while levels[-1] < 0.0 and count < window:
            count = min(2 * count, window)
            levels = _lanczos_levels(pencil, count, False)[0]
    return pencil.polish(Spectrum(levels).tracked_value())[0]


def convergence_table(case: DimensionlessCase, grids: list[Grid]) -> list[tuple[int, float]]:
    """Per-grid tracked level (the reference-table convention), for
    mesh-refinement studies."""
    if len(grids) < 3:
        raise DomainError("need at least 3 grids for a convergence table")
    return [(g.n, tracked_level(case, g)) for g in grids]
