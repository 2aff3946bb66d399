"""Exception types shared across the solver modules.

Every error the package raises on purpose derives from
:class:`CornellboundError`, so a caller that must keep going after one
failed case catches that class and lets real bugs (``TypeError`` and the
like) surface.  Each error also keeps its stdlib base, so ``except
ValueError`` and friends still match.
"""


class CornellboundError(Exception):
    """Base of every error the package raises on purpose."""


class DomainError(CornellboundError, ValueError):
    """Input outside the mathematical domain of an operation."""


class SingularPointError(CornellboundError, ArithmeticError):
    """Evaluation requested at (or too close to) a pole or zero."""


class OrderingError(CornellboundError, ValueError):
    """No valid turning-point ordering 0 < x1 < x2 at the given x2."""


class BracketError(CornellboundError, RuntimeError):
    """Root bracketing failed: no sign change from the bracket start, or the root misses its tolerance."""


class NonConvergenceError(CornellboundError, RuntimeError):
    """An iterative scheme failed to reach its tolerance."""


class NoValidRootError(CornellboundError, RuntimeError):
    """Every candidate branch failed the post-condition checks."""


class DegenerateDifferenceError(CornellboundError, ValueError):
    """Consecutive values coincide; a convergence rate is undefined."""
