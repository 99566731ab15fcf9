"""Exception types shared across the package, and the tests and rules of
the config values that InvalidConfig refuses."""

import math
import numbers


class GlddError(Exception):
    """Base class for all package errors."""


class NonDivisibleSpacing(GlddError):
    """Requested spacing does not tile the domain extent."""


class InvalidConfig(GlddError, ValueError):
    """A config value outside what the package accepts."""


class UnknownConfigKey(GlddError, TypeError):
    """A config file key that names no config field."""


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
    """Strip mesh with no interface (gamma) facets to couple through."""


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


# the exact built-in types first: an ABC isinstance test costs a few
# microseconds, and a study builds its configs per point
def is_number(value):
    """Whether value is a real number, bool excluded."""
    return type(value) is float or type(value) is int or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def is_integer(value):
    """Whether value is an integer, bool excluded."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool))


def check_positive(name, value):
    """The rule of a positive config number: positive and finite, NaN
    failing the comparison.  Raises InvalidConfig naming the field."""
    if not (is_number(value) and 0 < value < math.inf):
        raise InvalidConfig(f"{name} must be positive and finite, got "
                            f"{value!r}")


def check_count(name, value):
    """The rule of a config budget: an integer of at least 1.  Raises
    InvalidConfig naming the field."""
    if not (is_integer(value) and value >= 1):
        raise InvalidConfig(f"{name} must be at least 1 and an integer, got "
                            f"{value!r}")


def check_choice(name, value, choices):
    """The rule of a config name: a str among choices, tested without
    hashing value.  Raises InvalidConfig naming the field."""
    if not (isinstance(value, str) and value in choices):
        raise InvalidConfig(f"unknown {name} {value!r}, expected one of "
                            f"{', '.join(choices)}")


def check_type(name, value, kind):
    """The rule of a config field of one type: an instance of kind (bool
    for a flag, so no truthy stand-in passes).  Raises InvalidConfig
    naming the field."""
    if not isinstance(value, kind):
        raise InvalidConfig(f"{name} must be a {kind.__name__}, got "
                            f"{value!r}")
