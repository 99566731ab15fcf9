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

D is nonzero only on the box columns J that touch gamma, so
T_tilde = c + M T_plus = c + Y T_plus[J], with
c = K_plus^{-1}(f_plus - S K_minus^{-1} f_minus) and the interface block
Y = K_plus^{-1} S K_minus^{-1} D[:, J] that the exact radius forms.  The
block solves are ops.solvers: on a scalar build, the unit pair its mesh
pair keeps, scaled by the coefficients, and its block the unit block
times 1 - kappa_minus / kappa_plus (see coupling), so at the default
penalty a run at a new strip coefficient on a mesh pair factors nothing.

One rule picks the route: a direct run on operators that hold their
block (made by ops.interface, which every study that records a radius
has called) takes it, with two solves for c per run, then one
n_plus x |J| product per sweep, and the strip solve only where T_minus
is reported.  Any other run (a bare set-up, each Picard step, every
Krylov solver) makes the two block solves per sweep, since building the
block costs 2|J| column solves, more than a few sweeps save.  M and the
partial sums keep their two solves as the independent reference of both.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coupling import CoupledOperators, ProblemData, build_coupled_operators
from .errors import (COUNT, FINITE, POSITIVE, WHOLE, Diverged,
                     IterationFailure, MaxItersExceeded, SingularMatrix,
                     check_entries, check_number, check_one_per, check_type)
from .fem import (_elimination, assemble_load, assemble_stiffness,
                  build_dofmap)
from .linalg import LinearSolver, SolverConfig
from .mesh import (GeometryConfig, build_fitted_mesh, build_global_mesh,
                   build_local_mesh, strip_cells)


# Diverged is raised once the sweep's step exceeds this multiple of its
# first value.
_DIVERGENCE_GUARD = 1e6


@dataclass(frozen=True)
class DDConfig:
    """Knobs of the alternating iteration."""

    theta: float = 1.0
    tol: float = 1e-8
    max_iters: int = 5000
    solver: SolverConfig = field(default_factory=SolverConfig)
    store_iterates: bool = False

    def __post_init__(self):
        # at theta = 0 every step is zero, which reads as convergence; at
        # theta = inf the first step is non-finite
        check_number("theta", self.theta, POSITIVE)
        # a NaN tolerance is never met; without a sweep nothing is solved
        check_number("tol", self.tol, POSITIVE)
        check_number("max_iters", self.max_iters, COUNT)
        check_type("solver", self.solver, SolverConfig)
        check_type("store_iterates", self.store_iterates, bool)


@dataclass
class DDReport:
    """One alternating run.  rho_estimate is a heuristic, the geometric mean
    of the last three step ratios, not a spectral radius.  A partial
    report holds None for an iterate its run never reached."""

    converged: bool
    iterations: int
    residual_history: np.ndarray
    T_plus: Optional[np.ndarray]
    T_minus: Optional[np.ndarray]
    theta: float
    rho_estimate: Optional[float] = None
    wall_time: float = 0.0
    inner_iterations: dict = field(default_factory=dict)
    iterates: Optional[list] = None

    def to_json(self):
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
            "n_plus": None if self.T_plus is None else len(self.T_plus),
            "n_minus": None if self.T_minus is None else len(self.T_minus),
        }
        return json.dumps(payload, indent=2)


def make_iteration_operator(ops: CoupledOperators,
                            solver: SolverConfig | None = None):
    """Callable applying M = K_plus^{-1} S K_minus^{-1} D (for spectral
    estimation); inner solves use ops.solvers for the given config."""
    plus, minus = ops.solvers(solver or SolverConfig())
    return lambda v: plus.solve(ops.S @ minus.solve(ops.D @ v))


def run_two_level_dd(ops: CoupledOperators, config: DDConfig | None = None,
                     initial=None) -> DDReport:
    """Run the alternating iteration until the relative change of the box
    iterate drops below config.tol.

    The block solves are ops.solvers(config.solver): for a direct config
    the one pair that every run, radius and partial sum on ops shares and
    that counts no inner iterations, for a Krylov config a pair of this
    run's own, whose counts the report carries.  A direct run on
    operators that hold their interface block (made by ops.interface)
    sweeps T_tilde = c + Y T_plus[J]; any other makes the two block
    solves (see the module docstring).

    The residual history holds ||T^k - T^{k-1}|| / ||T^k|| per sweep.
    Divergence is detected on the unnormalized step ||T^k - T^{k-1}||,
    which keeps growing geometrically when the radius exceeds one while
    the normalized quantity saturates; Diverged is raised when the step
    exceeds _DIVERGENCE_GUARD times its first value (or stops being
    finite), MaxItersExceeded when the sweep budget runs out, and an inner
    solve's NoConvergence when an iterative solver stalls, in the start
    solve or in a sweep.  Every exit builds one report, with the sweeps
    completed, the strip solve of the last one, the tail heuristic
    rho_estimate and the inner iterations; each of these
    IterationFailures carries it as the partial report.  An initial box
    iterate other than one finite value per box dof raises InvalidConfig
    naming it.
    """
    config = config or DDConfig()
    if initial is not None:
        check_one_per("initial", initial, ops.n_plus, "box dof")
        initial = check_entries("initial", initial, FINITE)
    t0 = time.perf_counter()
    plus, minus = ops.solvers(config.solver)
    block = ops._state.get("block") if config.solver.method == "direct" \
        else None

    def strip(T_plus):
        return minus.solve(ops.f_minus - ops.D @ T_plus)

    history = []
    T_plus = None
    iterates = None
    T_minus = None
    T_prev = None
    first_step = None
    failure = None
    try:
        T_plus = plus.solve(ops.f_plus) if initial is None else initial.copy()
        iterates = [T_plus.copy()] if config.store_iterates else None
        if block is not None:
            c = _affine_term(ops, plus, minus)
        for k in range(1, config.max_iters + 1):
            if block is None:
                T_minus = strip(T_plus)
                T_tilde = plus.solve(ops.f_plus - ops.S @ T_minus)
            else:
                T_tilde = c + block.Y @ T_plus[block.J]
            T_next = T_tilde if config.theta == 1.0 else \
                config.theta * T_tilde + (1.0 - config.theta) * T_plus
            # np.linalg.norm's own sum for a real vector, without its
            # wrapper, which costs more than the sum at these sizes
            delta = T_next - T_plus
            step = math.sqrt(delta @ delta)
            denom = math.sqrt(T_next @ T_next)
            diff = step / (denom if denom > 0 else 1.0)
            history.append(diff)
            if iterates is not None:
                iterates.append(T_next.copy())
            T_prev, T_plus = T_plus, T_next
            if diff < config.tol:
                T_minus = strip(T_plus)
                break
            if first_step is None:
                first_step = step if step > 0 else None
            elif not math.isfinite(step) or \
                    step > _DIVERGENCE_GUARD * first_step:
                failure = Diverged(
                    f"step grew {_DIVERGENCE_GUARD}x after {k} sweeps")
                break
        else:
            failure = MaxItersExceeded(
                f"no convergence in {config.max_iters} sweeps")
        if T_minus is None and T_prev is not None:
            T_minus = strip(T_prev)  # the block route's last strip solve
    except IterationFailure as exc:
        failure = exc
    rho = None
    if len(history) >= 4:
        tail = [history[-i] / history[-i - 1] for i in (1, 2, 3)
                if history[-i - 1] > 0]
        rho = float(np.exp(np.mean(np.log(tail)))) if tail else None
    inner = {"local": minus.total_iterations,
             "global": plus.total_iterations}
    report = DDReport(converged=failure is None, iterations=len(history),
                      residual_history=np.asarray(history),
                      T_plus=T_plus, T_minus=T_minus, theta=config.theta,
                      rho_estimate=rho, wall_time=time.perf_counter() - t0,
                      inner_iterations=inner, iterates=iterates)
    if failure is None:
        return report
    failure.report = report
    raise failure


def _affine_term(ops: CoupledOperators, plus, minus):
    """c = K_plus^{-1}(f_plus - S K_minus^{-1} f_minus), the sweep's
    constant term: T_tilde = c + M T_plus."""
    return plus.solve(ops.f_plus - ops.S @ minus.solve(ops.f_minus))


def neumann_partial_sum(ops: CoupledOperators, k: int, T_plus_0):
    """Closed-form iterate for theta = 1:

        (sum_{j<k} M^j) K_plus^{-1}(f_plus - S K_minus^{-1} f_minus) + M^k T0

    evaluated matrix-free, accumulating the powers term by term, on
    ops.solvers(SolverConfig()), the pair make_iteration_operator(ops) uses.
    k is a nonnegative integer (errors.WHOLE), else InvalidConfig.
    """
    check_number("k", k, WHOLE)
    apply_M = make_iteration_operator(ops)
    c = _affine_term(ops, *ops.solvers(SolverConfig()))
    T_plus_0 = np.asarray(T_plus_0, dtype=float)
    if k == 0:
        return T_plus_0.copy()
    total = c.copy()
    term = c
    for _ in range(1, k):
        term = apply_M(term)
        total += term
    tail = T_plus_0
    for _ in range(k):
        tail = apply_M(tail)
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
    dofmap: object
    T: np.ndarray
    iterations: int
    wall_time: float

    mesh = property(lambda self: self.dofmap.mesh)
    n_dofs = property(lambda self: self.dofmap.n_dofs)


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
    load = assemble_load(mesh, dofmap, problem.f, problem.flux(geom),
                         q_panel=problem.flux_panel)
    T, iterations = solve_fitted(dofmap, kappa_cells, load, problem.T_D,
                                 solver)
    return FittedSolution(dofmap=dofmap, T=T, iterations=iterations,
                          wall_time=time.perf_counter() - t0)


def solve_fitted(dofmap, kappa_cells, load, T_D,
                 solver: SolverConfig | None = None):
    """One solve on a fitted dof map at per-cell conductivities kappa_cells:
    the stiffness, the outer Dirichlet dofs eliminated at T_D (load itself
    is left unchanged) and a LinearSolver.  Returns (T, inner iterations).

    The elimination is the one kept on the dof map (fem._elimination), so a
    Picard loop finds it once."""
    A, b = _elimination(dofmap).apply(
        assemble_stiffness(dofmap, kappa_cells), load, T_D)
    lin = LinearSolver(A, solver or SolverConfig())
    return lin.solve(b), lin.total_iterations


def export_solution_csv(dofmap, coeffs, path):
    """Per-dof CSV: index, coordinates, value; coeffs one value per dof,
    else InvalidConfig naming it."""
    check_one_per("coeffs", coeffs, dofmap.n_dofs, "dof")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        cols = ["dof", "x", "y", "z"][:1 + dofmap.mesh.dim] + ["value"]
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
    terms and unit blocks and, for its direct solves, factors the unit
    pair; a study on
    one mesh pair should build the pair once (build_mesh_pair) and call
    build_coupled_operators per coefficient.
    """
    return build_coupled_operators(
        geom, *build_mesh_pair(geom, h_plus, h_minus, m), kappa_plus,
        kappa_minus, alpha=alpha, problem=problem)
