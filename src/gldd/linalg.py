"""Linear solvers, spectral-radius estimation and least-squares fits.

The iteration operator of the two-level scheme is never formed explicitly:
the exact radius and the direct sweep need only its block on the interface
columns (InterfaceBlock), and the power-iteration path only needs a
callable that applies it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (COUNT, FINITE, POSITIVE, WHOLE, InvalidConfig,
                     NoConvergence, NonpositiveConstant, RankDeficient,
                     SingularMatrix, TooLarge, check_choice, check_entries,
                     check_number)

# the solver methods a SolverConfig takes, each mapped to its kind
METHODS = {
    "conjugate-gradient": "cg",
    "cg": "cg",
    "restarted-minimal-residual": "gmres",
    "gmres": "gmres",
    "dense-direct": "direct",
    "direct": "direct",
}

PRECONDITIONERS = ("none", "diagonal")


# Krylov vectors kept between GMRES restarts (scipy's own default is 20).
_GMRES_RESTART = 50

# Largest |J| an InterfaceBlock accepts: Y is dense, n_plus x |J|.
_DENSE_GUARD = 2000


@dataclass(frozen=True)
class SolverConfig:
    """How linear systems are solved.

    method: 'conjugate-gradient', 'restarted-minimal-residual' or
    'dense-direct' (short aliases cg/gmres/direct accepted), held as its
    kind (cg, gmres or direct), so configs that differ only by an alias
    are equal; an unknown method or preconditioner raises here.  The
    direct method factorizes once, reports zero iterations and uses no
    preconditioner.
    """

    method: str = "dense-direct"
    rel_tol: float = 1e-12
    preconditioner: str = "none"
    max_iters: int = 20000

    def __post_init__(self):
        # a tolerance at or below 0 is never met
        check_number("rel_tol", self.rel_tol, POSITIVE)
        check_number("max_iters", self.max_iters, COUNT)
        check_choice("solver method", self.method, METHODS)
        object.__setattr__(self, "method", METHODS[self.method])
        check_choice("preconditioner", self.preconditioner, PRECONDITIONERS)


class LinearSolver:
    """A CSR matrix bound to a SolverConfig; factorization is cached,
    iteration counts accumulate across solves."""

    def __init__(self, A, config: SolverConfig | None = None):
        self.A = A
        self.config = config or SolverConfig()
        self.total_iterations = 0
        self._lu = None
        self._precond = None
        if self.config.preconditioner == "diagonal" and \
                self.config.method != "direct":
            d = self.A.diagonal()
            if np.any(d == 0):
                raise SingularMatrix("zero diagonal entry, cannot precondition")
            inv = 1.0 / d
            self._precond = spla.LinearOperator(self.A.shape,
                                                matvec=lambda v: inv * v)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if not np.any(b):
            return np.zeros_like(b)
        kind = self.config.method
        if kind == "direct":
            if self._lu is None:
                try:
                    # minimum degree on A^T + A with diagonal pivots
                    # preferred suits the SPD blocks; SuperLU's default
                    # threshold still pivots off a weak diagonal
                    self._lu = spla.splu(
                        self.A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                        options=dict(SymmetricMode=True))
                except RuntimeError as exc:
                    raise SingularMatrix(str(exc)) from exc
            x = self._lu.solve(b)
            if not np.all(np.isfinite(x)):
                raise SingularMatrix("direct solve produced non-finite values")
            return x
        count = [0]

        def cb(_):
            count[0] += 1

        if kind == "cg":
            x, info = spla.cg(self.A, b, rtol=self.config.rel_tol, atol=0.0,
                              maxiter=self.config.max_iters, M=self._precond,
                              callback=cb)
        else:
            x, info = spla.gmres(self.A, b, rtol=self.config.rel_tol, atol=0.0,
                                 restart=_GMRES_RESTART,
                                 maxiter=self.config.max_iters, M=self._precond,
                                 callback=cb, callback_type="pr_norm")
        self.total_iterations += count[0]
        if info != 0:
            raise NoConvergence(
                f"{kind} did not reach rel_tol={self.config.rel_tol}",
                estimate=x, iterations=count[0])
        return x


class ScaledSolver:
    """A solver of unit.A with every row but the rows fixed (identity rows,
    such as eliminated Dirichlet rows) multiplied by the scalar scale, on
    the LinearSolver unit and so on its one factorization: a solve scales
    b by 1/scale off the fixed rows and passes them through.  Its inner
    iterations are unit's."""

    def __init__(self, unit, scale, fixed):
        self.unit = unit
        self.config = unit.config
        self.inverse = np.full(unit.A.shape[0], 1.0 / scale)
        self.inverse[fixed] = 1.0

    @property
    def total_iterations(self):
        return self.unit.total_iterations

    def solve(self, b):
        # rows scale; the columns of a 2-D b are right-hand sides
        return self.unit.solve((np.asarray(b, dtype=float).T *
                                self.inverse).T)


# ----------------------------------------------------------------------
# spectral radius
# ----------------------------------------------------------------------

def power_iteration_rho(operator, n, theta=1.0, tol=1e-10, max_iters=5000,
                        seed=0):
    """Estimate the spectral radius of (1-theta) I + theta M.

    Parameters
    ----------
    operator : callable applying M to a vector
    n : dimension of the iteration space
    tol : stop when successive radius estimates differ by less than
        tol * max(1, estimate), positive
    max_iters : the budget of operator applications, at least 1
    seed : seed for the random start vector, a nonnegative integer

    Returns
    -------
    (rho, rayleigh) : magnitude estimate and the signed Rayleigh quotient
    """
    check_number("tol", tol, POSITIVE)
    check_number("max_iters", max_iters, COUNT)
    check_number("seed", seed, WHOLE)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    rho_prev = np.inf
    for k in range(max_iters):
        y = (1.0 - theta) * v + theta * np.asarray(operator(v))
        norm_y = np.linalg.norm(y)
        if norm_y < 1e-300:
            return 0.0, 0.0
        rho = norm_y
        rayleigh = float(v @ y)
        if abs(rho - rho_prev) < tol * max(1.0, rho):
            return float(rho), rayleigh
        rho_prev = rho
        v = y / norm_y
    raise NoConvergence("power iteration did not settle",
                        estimate=float(rho_prev), iterations=max_iters)


class InterfaceBlock:
    """The iteration operator M = K_plus^{-1} S K_minus^{-1} D on its
    interface columns.

    D is nonzero only in its columns J, the box dofs whose basis touches
    the interface, so M v = Y v[J] with Y = K_plus^{-1} S K_minus^{-1}
    D[:, J] (n_plus x |J|), and the nonzero eigenvalues of M are those of
    Y[J] (eig(AB) and eig(BA) agree away from zero; Horn & Johnson, Matrix
    Analysis, Thm 1.3.22).  lam holds them, with a 0 appended when
    |J| < n_plus, where M is singular.  _DENSE_GUARD bounds |J|.

    plus and minus are direct LinearSolvers on K_plus and K_minus, D a CSR
    matrix: their factorizations serve the 2|J| column solves of Y and are
    kept for later solves, such as the sweep's.  CoupledOperators.interface
    builds the one block of a set of operators, or, for a scalar build,
    scales the unit block of its mesh pair (scaled).
    """

    def __init__(self, plus, S, minus, D):
        self.J = np.unique(D.indices)
        if self.J.size > _DENSE_GUARD:
            raise TooLarge(f"|J| = {self.J.size} exceeds dense guard "
                           f"{_DENSE_GUARD}")
        D_J = np.zeros((D.shape[0], self.J.size))
        np.add.at(D_J, (np.repeat(np.arange(D.shape[0]), np.diff(D.indptr)),
                        np.searchsorted(self.J, D.indices)), D.data)
        self.Y = plus.solve(S @ minus.solve(D_J))
        lam = np.linalg.eigvals(self.Y[self.J])
        self.lam = np.append(lam, 0.0) if self.J.size < S.shape[0] else lam

    def scaled(self, factor):
        """The block of factor * M: Y and lam times factor, the same J."""
        block = copy.copy(self)
        block.Y = factor * self.Y
        block.lam = factor * self.lam
        return block

    def rho(self, theta=1.0):
        """Spectral radius of (1 - theta) I + theta M."""
        return float(np.abs((1.0 - theta) + theta * self.lam).max())


# ----------------------------------------------------------------------
# least squares
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralFit:
    """Linear and quadratic fits of the measured radius against the
    coefficient ratio, plus the derived slope constant."""

    a0: float
    a1: float
    b0: float
    b1: float
    b2: float
    C_tilde: float
    r2_linear: float = float("nan")

    def predict_linear(self, ratio):
        return np.abs(self.a0 + self.a1 * np.asarray(ratio))

    def divergence_threshold(self):
        if self.C_tilde <= 0:
            raise NonpositiveConstant(
                f"slope constant {self.C_tilde} is not positive")
        return 1.0 / self.C_tilde + 1.0


def least_squares_fit(xs, ys, degree):
    """Polynomial least squares, coefficients in ascending order; xs and
    ys finite."""
    xs = check_entries("xs", xs, FINITE)
    ys = check_entries("ys", ys, FINITE)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InvalidConfig("xs and ys must be 1-d arrays of equal length")
    if len(np.unique(xs)) < degree + 1:
        raise RankDeficient(
            f"need at least {degree + 1} distinct abscissae for degree {degree}")
    return np.polynomial.polynomial.polyfit(xs, ys, degree)


def fit_rho_law(ratios, rhos) -> SpectralFit:
    """Fit rho against kappa ratio with both a line and a parabola."""
    a0, a1 = least_squares_fit(ratios, rhos, 1)
    b0, b1, b2 = least_squares_fit(ratios, rhos, 2)
    ys = np.asarray(rhos, dtype=float)
    pred = a0 + a1 * np.asarray(ratios, dtype=float)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return SpectralFit(a0=float(a0), a1=float(a1), b0=float(b0), b1=float(b1),
                       b2=float(b2), C_tilde=float(-a1), r2_linear=r2)
