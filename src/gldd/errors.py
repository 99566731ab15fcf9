"""Exception types shared across the package, and the one copy of each
rule that config fields, builder arguments and table entries keep."""

import math
import numbers
import sys
from typing import Callable, NamedTuple

import numpy as np


class GlddError(Exception):
    """Base class for all package errors."""


class InvalidConfig(GlddError, ValueError):
    """A config value outside what the package accepts."""


class NonDivisibleSpacing(InvalidConfig):
    """Requested spacing does not tile the domain extent."""


class UnknownConfigKey(GlddError, TypeError):
    """A config file key that names no config field."""


class OutOfDomain(GlddError):
    """Point lies outside the mesh bounding box."""


class UnsupportedDegree(InvalidConfig):
    """Polynomial degree other than 1 or 2."""


class NonpositiveCoefficient(InvalidConfig):
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


def in_double_range(value):
    """Whether a double holds value, or each item of a list or tuple: any
    float, and no integer or fraction that overflows float arithmetic."""
    if type(value) is tuple or type(value) is list:
        return all(map(in_double_range, value))
    return type(value) is float or not (
        type(value) is int or isinstance(value, numbers.Rational)) \
        or abs(value) <= sys.float_info.max


def shown(value):
    """repr(value), or a stand-in past Python's 4,300-digit repr limit."""
    try:
        return repr(value)
    except ValueError:
        return "a value too large to show"


# what a number rule asks, and its test, which a NaN fails; the tests of
# POSITIVE, NONNEGATIVE and FINITE run entrywise on an array
Rule = NamedTuple("Rule", [("what", str), ("test", Callable)])
POSITIVE = Rule("positive and finite", lambda v: (0 < v) & (v < math.inf))
NONNEGATIVE = Rule("nonnegative and finite",
                   lambda v: (0 <= v) & (v < math.inf))
FINITE = Rule("finite", lambda v: (-math.inf < v) & (v < math.inf))
COUNT = Rule("at least 1 and an integer", lambda v: is_integer(v) and v >= 1)
WHOLE = Rule("at least 0 and an integer", lambda v: is_integer(v) and v >= 0)


def check_number(name, value, rule, error=InvalidConfig):
    """value under rule: a number (bool excluded) that a double holds and
    that passes the rule's test.  Raises error naming the field."""
    if type(value) is not float:
        if not is_number(value):
            raise error(f"{name} must be a number, got {shown(value)}")
        if not in_double_range(value):
            raise error(f"{name} holds a number too large for a double")
    if not rule.test(value):
        raise error(f"{name} must be {rule.what}, got {value!r}")


def check_entries(name, values, rule, error=InvalidConfig):
    """The array form of check_number: values as a float array, each entry
    passing the rule's test; raises error naming the field (and its first
    failing entry)."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must hold numbers a double holds") from None
    passed = rule.test(array)
    if not passed.all():
        raise error(f"{name} entry {array[~passed].flat[0]} is not "
                    f"{rule.what}")
    return array


def check_one_per(name, values, n, item):
    """The rule of an array of one value per item: shape (n,).  Raises
    InvalidConfig naming the field, the item and n."""
    if np.shape(values) != (n,):
        raise InvalidConfig(f"{name} must hold one value per {item} ({n}), "
                            f"got shape {np.shape(values)}")


def check_choice(name, value, choices, error=InvalidConfig):
    """The rule of a config name or small integer: a str or an integer
    (bool excluded) among choices.  Raises error naming both."""
    if not ((isinstance(value, str) or is_integer(value))
            and value in choices):
        *rest, last = map(str, choices)
        raise error(f"{name} must be {', '.join(rest)} or {last}, "
                    f"got {shown(value)}")


def check_type(name, value, kind):
    """The rule of a config field of one type: an instance of kind (bool
    for a flag, so no truthy stand-in passes).  Raises InvalidConfig
    naming the field."""
    if not isinstance(value, kind):
        raise InvalidConfig(f"{name} must be a {kind.__name__}, got "
                            f"{shown(value)}")
