"""Exception types shared across the package."""


class GlddError(Exception):
    """Base class for all package errors."""


class NonDivisibleSpacing(GlddError):
    """Requested spacing does not tile the domain extent."""


class OutOfDomain(GlddError):
    """Point lies outside the mesh bounding box."""


class UnsupportedDegree(GlddError):
    """Polynomial degree other than 1 or 2."""


class NonpositiveCoefficient(GlddError):
    """Diffusion coefficient must be strictly positive."""


class ForeignFacet(GlddError):
    """Facet is not part of the mesh boundary."""


class IndexOutOfRange(GlddError, IndexError):
    """Dof index outside the valid range."""


class OrphanInterfaceFacet(GlddError):
    """Interface facet without an adjacent cell."""


class SingularMatrix(GlddError):
    """Direct solve hit a singular or numerically singular matrix."""


class IterationFailure(GlddError):
    """An iteration stopped before its tolerance: it diverged, ran out of
    iterations or stalled.  report is the stopped run's partial report, or
    None.  The studies record such a run as not converged; the CLI exits 1."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class NoConvergence(IterationFailure):
    """Iterative method exhausted its budget without meeting the tolerance.

    report is the partial DDReport when an inner solve of the alternating
    iteration (its start solve or a sweep) stalled."""

    def __init__(self, msg, estimate=None, iterations=None):
        super().__init__(msg)
        self.estimate = estimate
        self.iterations = iterations


class TooLarge(GlddError):
    """Problem size exceeds the guard for a dense code path."""


class RankDeficient(GlddError):
    """Least-squares system does not determine the requested coefficients."""


class Diverged(IterationFailure):
    """Fixed-point iteration blew past the divergence guard."""


class MaxItersExceeded(IterationFailure):
    """Fixed-point iteration hit the iteration cap before the tolerance."""


class InsufficientRatios(GlddError):
    """Growth study needs at least three mesh ratios."""


class NonpositiveConstant(GlddError):
    """Fitted constant is nonpositive, derived quantity undefined."""


class PicardNoConvergence(IterationFailure):
    """Outer Picard loop exhausted its budget; report is the partial
    NonlinearReport of the steps made (converged False)."""
