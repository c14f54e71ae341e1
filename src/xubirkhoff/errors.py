"""Exception types shared across the package."""


class XUBirkhoffError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(XUBirkhoffError):
    """Invalid matrix dimension, index out of range, or dimension mismatch."""


class UnsupportedDimensionError(XUBirkhoffError):
    """Dimension outside the range an engine supports (e.g. composite n
    requested from the prime-dimension construction)."""


class NotAPermutationError(XUBirkhoffError):
    """A claimed permutation is not a bijection on {1..n}."""


class MembershipError(XUBirkhoffError):
    """Input fails a required matrix-class predicate (unitary, XU, ZU,
    circulant) at the requested tolerance."""


class StructureError(XUBirkhoffError):
    """A structural identity that should hold numerically does not, e.g.
    off-block leakage after Fourier conjugation exceeds tolerance."""


class ConvergenceError(XUBirkhoffError):
    """Iterative scaling failed to converge.

    Carries the best line-sum spread achieved so callers can report how
    close the run came, and ``attempts``: one ``(iterations,
    best_spread)`` tuple per attempt, in order. Each attempt ended when
    ``scaling.POLISH_STEPS`` of its Gauss-Newton steps failed to halve the
    best spread, within ``scaling.attempt_bound(n, tol)`` iterations.
    """

    def __init__(self, message, best_spread=None, attempts=()):
        super().__init__(message)
        self.best_spread = best_spread
        self.attempts = tuple(attempts)
