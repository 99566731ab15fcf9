"""Linear solvers, spectral-radius estimation and least-squares fits.

The iteration operator of the two-level scheme is never formed explicitly:
the exact radius needs only its block on the interface columns, and the
power-iteration path only needs a callable that applies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (NoConvergence, NonpositiveConstant, RankDeficient,
                     SingularMatrix, TooLarge)

_METHOD_ALIASES = {
    "conjugate-gradient": "cg",
    "cg": "cg",
    "restarted-minimal-residual": "gmres",
    "gmres": "gmres",
    "dense-direct": "direct",
    "direct": "direct",
}


@dataclass(frozen=True)
class SolverConfig:
    """How linear systems are solved.

    method: 'conjugate-gradient', 'restarted-minimal-residual' or
    'dense-direct' (short aliases cg/gmres/direct accepted).  The direct
    method factorizes once and reports zero iterations.
    """

    method: str = "dense-direct"
    rel_tol: float = 1e-12
    restart: int = 50
    preconditioner: str = "none"
    max_iters: int = 20000

    def kind(self):
        try:
            return _METHOD_ALIASES[self.method]
        except KeyError:
            raise ValueError(f"unknown solver method {self.method!r}") from None


class LinearSolver:
    """A matrix bound to a SolverConfig; factorization is cached, iteration
    counts accumulate across solves."""

    def __init__(self, A, config: SolverConfig | None = None):
        self.A = sp.csr_matrix(A)
        self.config = config or SolverConfig()
        self.total_iterations = 0
        self._lu = None
        self._precond = None
        if self.config.preconditioner == "diagonal":
            d = self.A.diagonal()
            if np.any(d == 0):
                raise SingularMatrix("zero diagonal entry, cannot precondition")
            inv = 1.0 / d
            self._precond = spla.LinearOperator(self.A.shape,
                                                matvec=lambda v: inv * v)
        elif self.config.preconditioner != "none":
            raise ValueError(
                f"unknown preconditioner {self.config.preconditioner!r}")

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if not np.any(b):
            return np.zeros_like(b)
        kind = self.config.kind()
        if kind == "direct":
            if self._lu is None:
                try:
                    self._lu = spla.splu(self.A.tocsc())
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
                                 restart=self.config.restart,
                                 maxiter=self.config.max_iters, M=self._precond,
                                 callback=cb, callback_type="pr_norm")
        self.total_iterations += count[0]
        if info != 0:
            raise NoConvergence(
                f"{kind} did not reach rel_tol={self.config.rel_tol}",
                estimate=x, iterations=count[0])
        return x


# ----------------------------------------------------------------------
# spectral radius
# ----------------------------------------------------------------------

def power_iteration_rho(operator, n, theta=1.0, tol=1e-10, max_iters=2000,
                        seed=0):
    """Estimate the spectral radius of (1-theta) I + theta M.

    Parameters
    ----------
    operator : callable applying M to a vector
    n : dimension of the iteration space
    tol : stop when successive radius estimates differ by less than
        tol * max(1, estimate)
    seed : seed for the random start vector

    Returns
    -------
    (rho, rayleigh) : magnitude estimate and the signed Rayleigh quotient
    """
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


def dense_spectral_radius(K_plus, S, K_minus, D, theta=1.0, size_guard=2000):
    """Exact spectral radius of (1 - theta) I + theta M, where
    M = K_plus^{-1} S K_minus^{-1} D.

    D is nonzero only in its columns J, the box dofs whose basis touches
    the interface, so the nonzero eigenvalues of M are those of the block
    M[J, J] (eig(AB) and eig(BA) agree away from zero; Horn & Johnson,
    Matrix Analysis, Thm 1.3.22).  size_guard bounds |J|.

    K_plus and K_minus are the blocks, or LinearSolvers bound to them: a
    direct solver's factorization is used for the block solves and kept
    for later ones, such as the sweep's.
    """
    D = sp.csc_matrix(D)
    J = np.flatnonzero(np.diff(D.indptr))
    if J.size > size_guard:
        raise TooLarge(f"|J| = {J.size} exceeds dense guard {size_guard}")
    X = _direct(K_minus).solve(D[:, J].toarray())
    Y = _direct(K_plus).solve(S @ X)
    lam = np.linalg.eigvals(Y[J])
    if J.size < S.shape[0]:
        lam = np.append(lam, 0.0)  # M has rank at most |J| < n
    return float(np.abs((1.0 - theta) + theta * lam).max())


def _direct(K):
    """K when it is a direct LinearSolver, else a direct one for its matrix."""
    if isinstance(K, LinearSolver):
        return K if K.config.kind() == "direct" else LinearSolver(K.A)
    return LinearSolver(K)


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
    """Polynomial least squares, coefficients in ascending order."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
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
