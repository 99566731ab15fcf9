"""The alternating two-mesh iteration and its algebraic equivalents.

One sweep solves the strip problem with the current box trace data, then
the box problem with the strip's conormal-derivative jump, and relaxes:

    K_minus T_minus = f_minus - D T_plus
    K_plus  T_tilde = f_plus  - S T_minus
    T_plus <- theta T_tilde + (1 - theta) T_plus

The same sweep is a relaxed block Gauss-Seidel splitting of the coupled
system, and for theta = 1 the iterates admit a closed-form partial
geometric series in M = K_plus^{-1} S K_minus^{-1} D; both forms are
implemented and cross-checked in the tests.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coupling import CoupledOperators, ProblemData, build_coupled_operators
from .errors import Diverged, MaxItersExceeded, SingularMatrix
from .fem import (apply_dirichlet, assemble_load, assemble_stiffness,
                  build_dofmap, dirichlet_dofs)
from .linalg import LinearSolver, SolverConfig
from .mesh import (GeometryConfig, build_fitted_mesh, build_global_mesh,
                   build_local_mesh, strip_cells)


@dataclass(frozen=True)
class DDConfig:
    """Knobs of the alternating iteration."""

    theta: float = 1.0
    tol: float = 1e-8
    max_iters: int = 5000
    divergence_guard: float = 1e6
    solver: SolverConfig = field(default_factory=SolverConfig)
    store_iterates: bool = False

    def __post_init__(self):
        # at theta = 0 every step is zero, which reads as convergence
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")


@dataclass
class DDReport:
    """One alternating run.  rho_estimate is a heuristic, the geometric mean
    of the last three step ratios, not a spectral radius."""

    converged: bool
    iterations: int
    residual_history: np.ndarray
    T_plus: np.ndarray
    T_minus: np.ndarray
    theta: float
    rho_estimate: Optional[float] = None
    wall_time: float = 0.0
    inner_iterations: dict = field(default_factory=dict)
    iterates: Optional[list] = None

    def to_json(self, path=None):
        payload = {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "theta": float(self.theta),
            "rho_estimate": None if self.rho_estimate is None
            else float(self.rho_estimate),
            "wall_time": float(self.wall_time),
            "inner_iterations": {k: int(v)
                                 for k, v in self.inner_iterations.items()},
            "residual_history": [float(r) for r in self.residual_history],
            "n_plus": int(self.T_plus.shape[0]),
            "n_minus": int(self.T_minus.shape[0]),
        }
        text = json.dumps(payload, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


class _Steppers:
    """Cached factorizations/solvers for the two blocks: new ones for the
    config, or the (plus, minus) pair given."""

    def __init__(self, ops: CoupledOperators, config: SolverConfig,
                 solvers=None):
        self.ops = ops
        self.plus, self.minus = solvers or (LinearSolver(ops.K_plus, config),
                                            LinearSolver(ops.K_minus, config))

    def step0(self):
        return self.plus.solve(self.ops.f_plus)

    def local(self, T_plus):
        return self.minus.solve(self.ops.f_minus - self.ops.D @ T_plus)

    def global_(self, T_minus):
        return self.plus.solve(self.ops.f_plus - self.ops.S @ T_minus)

    def apply_M(self, v):
        return self.plus.solve(self.ops.S @ self.minus.solve(self.ops.D @ v))


def make_iteration_operator(ops: CoupledOperators,
                            solver: SolverConfig | None = None):
    """Callable applying M = K_plus^{-1} S K_minus^{-1} D (for spectral
    estimation); inner solves follow the given config."""
    steppers = _Steppers(ops, solver or SolverConfig())
    return steppers.apply_M


def run_two_level_dd(ops: CoupledOperators, config: DDConfig | None = None,
                     initial=None, solvers=None) -> DDReport:
    """Run the alternating iteration until the relative change of the box
    iterate drops below config.tol.

    solvers, a (plus, minus) pair of LinearSolvers bound to ops.K_plus and
    ops.K_minus, replaces the pair config.solver would make, so that runs
    and radius computations on the same operators share one factorization
    pair; the report counts only this run's inner iterations.

    The residual history holds ||T^k - T^{k-1}|| / ||T^k|| per sweep.
    Divergence is detected on the unnormalized step ||T^k - T^{k-1}||,
    which keeps growing geometrically when the radius exceeds one while
    the normalized quantity saturates; Diverged is raised when the step
    exceeds divergence_guard times its first value (or stops being
    finite), MaxItersExceeded when the sweep budget runs out.  Every exit
    builds one report, with the tail heuristic rho_estimate and the inner
    iterations; the errors carry it as the partial report.
    """
    config = config or DDConfig()
    t0 = time.perf_counter()
    steppers = _Steppers(ops, config.solver, solvers)
    inner0 = (steppers.minus.total_iterations, steppers.plus.total_iterations)
    T_plus = steppers.step0() if initial is None else np.array(initial, dtype=float)
    history = []
    iterates = [T_plus.copy()] if config.store_iterates else None
    T_minus = None
    first_step = None
    failure = None
    k = 0
    for k in range(1, config.max_iters + 1):
        T_minus = steppers.local(T_plus)
        T_tilde = steppers.global_(T_minus)
        T_next = config.theta * T_tilde + (1.0 - config.theta) * T_plus
        step = np.linalg.norm(T_next - T_plus)
        denom = np.linalg.norm(T_next)
        diff = step / (denom if denom > 0 else 1.0)
        history.append(diff)
        if iterates is not None:
            iterates.append(T_next.copy())
        T_plus = T_next
        if diff < config.tol:
            T_minus = steppers.local(T_plus)
            break
        if first_step is None:
            first_step = step if step > 0 else None
        elif not np.isfinite(step) or \
                step > config.divergence_guard * first_step:
            failure = Diverged(
                f"step grew {config.divergence_guard}x after {k} sweeps")
            break
    else:
        failure = MaxItersExceeded(
            f"no convergence in {config.max_iters} sweeps")
    rho = None
    if len(history) >= 4:
        tail = [history[-i] / history[-i - 1] for i in (1, 2, 3)
                if history[-i - 1] > 0]
        rho = float(np.exp(np.mean(np.log(tail)))) if tail else None
    inner = {"local": steppers.minus.total_iterations - inner0[0],
             "global": steppers.plus.total_iterations - inner0[1]}
    report = DDReport(converged=failure is None, iterations=k,
                      residual_history=np.asarray(history),
                      T_plus=T_plus, T_minus=T_minus, theta=config.theta,
                      rho_estimate=rho, wall_time=time.perf_counter() - t0,
                      inner_iterations=inner, iterates=iterates)
    if failure is None:
        return report
    failure.report = report
    raise failure


def neumann_partial_sum(ops: CoupledOperators, k: int, T_plus_0,
                        solver: SolverConfig | None = None):
    """Closed-form iterate for theta = 1:

        (sum_{j<k} M^j) K_plus^{-1}(f_plus - S K_minus^{-1} f_minus) + M^k T0

    evaluated matrix-free, accumulating the powers term by term.
    """
    steppers = _Steppers(ops, solver or SolverConfig())
    c = steppers.plus.solve(ops.f_plus - ops.S @ steppers.minus.solve(ops.f_minus))
    T_plus_0 = np.asarray(T_plus_0, dtype=float)
    if k == 0:
        return T_plus_0.copy()
    total = c.copy()
    term = c
    for _ in range(1, k):
        term = steppers.apply_M(term)
        total += term
    tail = T_plus_0
    for _ in range(k):
        tail = steppers.apply_M(tail)
    return total + tail


def run_coupled_direct(ops: CoupledOperators):
    """Solve the full block system with one sparse LU; the fixed-point
    oracle."""
    A = sp.bmat([[ops.K_plus, ops.S], [ops.D, ops.K_minus]], format="csc")
    b = np.concatenate([ops.f_plus, ops.f_minus])
    try:
        x = spla.splu(A).solve(b)
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from exc
    return x[:ops.n_plus], x[ops.n_plus:]


def block_residual(ops: CoupledOperators, T_plus, T_minus):
    """Relative residual of the coupled system at a given iterate pair."""
    r_plus = ops.K_plus @ T_plus + ops.S @ T_minus - ops.f_plus
    r_minus = ops.D @ T_plus + ops.K_minus @ T_minus - ops.f_minus
    num = np.sqrt(np.linalg.norm(r_plus) ** 2 + np.linalg.norm(r_minus) ** 2)
    den = np.sqrt(np.linalg.norm(ops.f_plus) ** 2 +
                  np.linalg.norm(ops.f_minus) ** 2)
    return num / (den if den > 0 else 1.0)


# ----------------------------------------------------------------------
# single-mesh reference
# ----------------------------------------------------------------------

@dataclass
class FittedSolution:
    mesh: object
    dofmap: object
    T: np.ndarray
    iterations: int
    wall_time: float
    n_dofs: int


def run_fitted_reference(geom: GeometryConfig, h_plus, h_minus,
                         kappa_A, kappa_B, m,
                         refinement_mode: str = "uniform-fine",
                         problem: ProblemData | None = None,
                         solver: SolverConfig | None = None) -> FittedSolution:
    """Solve the piecewise-coefficient problem on one conforming mesh.

    The mesh resolves the strip at h_minus ('uniform-fine' everywhere, or
    'graded' coarsening toward the bottom); each cell gets kappa_B above
    the strip floor and kappa_A below it.
    """
    problem = problem or ProblemData()
    t0 = time.perf_counter()
    mesh = build_fitted_mesh(geom, h_plus, h_minus, refinement_mode)
    dofmap = build_dofmap(mesh, m)
    kappa_cells = np.where(strip_cells(mesh, geom), kappa_B, kappa_A)
    A = assemble_stiffness(mesh, dofmap, kappa_cells)
    b = assemble_load(mesh, dofmap, problem.f, problem.flux(geom),
                      q_panel=problem.flux_panel)
    A, b = apply_dirichlet(A, b, dirichlet_dofs(mesh, dofmap), problem.T_D)
    lin = LinearSolver(A, solver or SolverConfig())
    T = lin.solve(b)
    return FittedSolution(mesh=mesh, dofmap=dofmap, T=T,
                          iterations=lin.total_iterations,
                          wall_time=time.perf_counter() - t0,
                          n_dofs=dofmap.n_dofs)


def export_solution_csv(mesh, dofmap, coeffs, path):
    """Per-dof CSV: index, coordinates, value."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        cols = ["dof", "x", "y", "z"][:1 + mesh.dim] + ["value"]
        writer.writerow(cols)
        for i, (xy, v) in enumerate(zip(dofmap.dof_coords, coeffs)):
            writer.writerow([i, *(f"{c:.17g}" for c in xy), f"{v:.17g}"])


def build_mesh_pair(geom: GeometryConfig, h_plus, h_minus, m):
    """Box and strip meshes with their dof maps, in the argument order of
    build_coupled_operators: (global mesh, global dofmap, local mesh,
    local dofmap).  Coupled operators built again on the same four objects
    reuse their coefficient-free terms."""
    gmesh = build_global_mesh(geom, h_plus)
    lmesh = build_local_mesh(geom, h_minus)
    return gmesh, build_dofmap(gmesh, m), lmesh, build_dofmap(lmesh, m)


def setup_case(geom: GeometryConfig, h_plus, h_minus, m,
               kappa_plus, kappa_minus, alpha=None,
               problem: ProblemData | None = None) -> CoupledOperators:
    """Meshes, dof maps and coupled operators for one parameter point.

    Every call builds new meshes, so it also builds their coefficient-free
    terms; a study on one mesh pair should build the pair once
    (build_mesh_pair) and call build_coupled_operators per coefficient.
    """
    return build_coupled_operators(
        geom, *build_mesh_pair(geom, h_plus, h_minus, m), kappa_plus,
        kappa_minus, alpha=alpha, problem=problem)
