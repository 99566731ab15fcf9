"""Temperature-dependent conductivity via Picard freezing.

Each outer iteration evaluates the material curves at the previous
iterate's cell-midpoint temperatures, rebuilds the operators with those
frozen coefficients and solves the resulting linear problem (either with
the two-mesh iteration or monolithically on a fitted mesh).  Inside the
strip footprint the box problem always keeps the constant extension value
kappa_plus_B; the jump weight on each coupling facet is the current
(kappa_plus_B - kappa_B(T)) there.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coupling import ProblemData, build_coupled_operators, default_alpha
from .dd_solver import DDConfig, build_mesh_pair, run_two_level_dd
from .errors import (Diverged, MaxItersExceeded, NonpositiveCoefficient,
                     PicardNoConvergence)
from .fem import (apply_dirichlet, assemble_load, assemble_stiffness,
                  build_dofmap, dirichlet_dofs, evaluate_field, shape_values)
from .linalg import LinearSolver, SolverConfig
from .mesh import FacetTag, GeometryConfig, build_fitted_mesh, strip_cells


class MaterialCurve:
    """Piecewise-linear conductivity versus temperature, constant beyond
    the tabulated range."""

    def __init__(self, temperatures, kappas):
        T = np.asarray(temperatures, dtype=float)
        k = np.asarray(kappas, dtype=float)
        if T.ndim != 1 or T.shape != k.shape or T.size < 1:
            raise ValueError("curve needs matching 1-d T and kappa arrays")
        if T.size > 1 and np.any(np.diff(T) <= 0):
            raise ValueError("curve temperatures must be strictly increasing")
        if np.any(k <= 0):
            raise NonpositiveCoefficient("curve conductivities must be positive")
        self.T = T
        self.k = k

    def __call__(self, temperature):
        return np.interp(np.asarray(temperature, dtype=float), self.T, self.k)

    @classmethod
    def constant(cls, value):
        return cls([0.0], [value])

    @classmethod
    def from_csv(cls, path):
        """Read a curve from a CSV file with header 'T,kappa'."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if [h.strip() for h in header[:2]] != ["T", "kappa"]:
                raise ValueError(f"expected header 'T,kappa', got {header!r}")
            rows = [(float(r[0]), float(r[1])) for r in reader if r]
        rows.sort()
        return cls([r[0] for r in rows], [r[1] for r in rows])


@dataclass(frozen=True)
class NonlinearConfig:
    kappa_plus_B: float = 1.0
    picard_tol: float = 1e-6
    picard_max: int = 100
    damping: float = 1.0


@dataclass
class NonlinearReport:
    converged: bool
    picard_iterations: int
    history: np.ndarray
    T_plus: Optional[np.ndarray] = None
    T_minus: Optional[np.ndarray] = None
    T: Optional[np.ndarray] = None
    kappa_B_mean: float = float("nan")
    inner_dd_iterations: list = field(default_factory=list)
    inner_linear_iterations: list = field(default_factory=list)
    wall_time: float = 0.0
    mesh: object = None
    dofmap: object = None
    local_mesh: object = None
    local_dofmap: object = None
    global_mesh: object = None
    global_dofmap: object = None


def cell_midpoint_values(mesh, dofmap, coeffs):
    """Field value at every cell centroid (uniform barycentric point)."""
    lam = np.full((1, mesh.dim + 1), 1.0 / (mesh.dim + 1))
    phi = shape_values(mesh.dim, dofmap.m, lam)[0]
    return coeffs[dofmap.cell_dofs] @ phi


def picard_two_level(geom: GeometryConfig, h_plus, h_minus, m,
                     curve_A: MaterialCurve, curve_B: MaterialCurve,
                     nl: NonlinearConfig, dd: DDConfig | None = None,
                     problem: ProblemData | None = None) -> NonlinearReport:
    """Outer Picard loop around the two-mesh solver.

    The box coefficient is curve_A at the frozen temperature outside the
    strip footprint and the constant kappa_plus_B inside it; the strip
    coefficient is curve_B at the frozen temperature.  The top-flux scaling
    and the jump weights follow the same frozen values.  Warm-starts each
    inner run from the previous outer iterate.
    """
    dd = dd or DDConfig()
    problem = problem or ProblemData()
    t0 = time.perf_counter()
    gmesh, gdof, lmesh, ldof = build_mesh_pair(geom, h_plus, h_minus, m)
    in_strip = strip_cells(gmesh, geom)
    # facet midpoints in the S assembler's facet order
    gamma = lmesh.facet_vertices[
        lmesh.facet_tags == FacetTag.INTERFACE_GAMMA.value]
    gamma_mids = lmesh.vertices[gamma].mean(axis=1)

    T_plus = np.full(gdof.n_dofs, problem.T_D)
    T_minus = np.full(ldof.n_dofs, problem.T_D)
    history = []
    dd_iters = []
    lin_iters = []
    for it in range(1, nl.picard_max + 1):
        Tg = cell_midpoint_values(gmesh, gdof, T_plus)
        Tl = cell_midpoint_values(lmesh, ldof, T_minus)
        kp_cells = np.where(in_strip, nl.kappa_plus_B, curve_A(Tg))
        km_cells = np.asarray(curve_B(Tl))
        T_gamma = evaluate_field(lmesh, ldof, T_minus, gamma_mids)
        jump_weights = nl.kappa_plus_B - np.asarray(curve_B(T_gamma))

        frozen_minus = T_minus.copy()

        def flux_scale(x, _frozen=frozen_minus):
            vals = evaluate_field(lmesh, ldof, _frozen, x)
            return nl.kappa_plus_B / np.asarray(curve_B(vals))

        ops = build_coupled_operators(
            geom, gmesh, gdof, lmesh, ldof,
            kappa_plus=nl.kappa_plus_B, kappa_minus=float(np.mean(km_cells)),
            alpha=default_alpha(km_cells, lmesh.h), problem=problem,
            kappa_plus_cells=kp_cells, kappa_minus_cells=km_cells,
            jump_facet_weights=jump_weights, flux_scale=flux_scale)

        report = run_two_level_dd(ops, dd, initial=None if it == 1 else T_plus)
        dd_iters.append(report.iterations)
        lin_iters.append(report.inner_iterations.get("local", 0) +
                         report.inner_iterations.get("global", 0))
        new_plus = nl.damping * report.T_plus + (1 - nl.damping) * T_plus
        new_minus = nl.damping * report.T_minus + (1 - nl.damping) * T_minus
        num = np.sqrt(np.linalg.norm(new_plus - T_plus) ** 2 +
                      np.linalg.norm(new_minus - T_minus) ** 2)
        den = np.sqrt(np.linalg.norm(new_plus) ** 2 +
                      np.linalg.norm(new_minus) ** 2)
        change = num / (den if den > 0 else 1.0)
        history.append(change)
        T_plus, T_minus = new_plus, new_minus
        if change < nl.picard_tol:
            Tl = cell_midpoint_values(lmesh, ldof, T_minus)
            return NonlinearReport(
                converged=True, picard_iterations=it,
                history=np.asarray(history), T_plus=T_plus, T_minus=T_minus,
                kappa_B_mean=float(np.mean(curve_B(Tl))),
                inner_dd_iterations=dd_iters,
                inner_linear_iterations=lin_iters,
                wall_time=time.perf_counter() - t0,
                local_mesh=lmesh, local_dofmap=ldof,
                global_mesh=gmesh, global_dofmap=gdof)
    raise PicardNoConvergence(
        f"no outer convergence in {nl.picard_max} iterations",
        history=np.asarray(history))


def picard_monolithic(geom: GeometryConfig, h_plus, h_minus, m,
                      curve_A: MaterialCurve, curve_B: MaterialCurve,
                      nl: NonlinearConfig,
                      problem: ProblemData | None = None,
                      solver: SolverConfig | None = None,
                      refinement_mode: str = "uniform-fine") -> NonlinearReport:
    """Picard loop around a single fitted-mesh solve; the comparison
    baseline for the two-mesh nonlinear driver."""
    problem = problem or ProblemData()
    t0 = time.perf_counter()
    mesh = build_fitted_mesh(geom, h_plus, h_minus, refinement_mode)
    dofmap = build_dofmap(mesh, m)
    in_strip = strip_cells(mesh, geom)
    ddofs = dirichlet_dofs(mesh, dofmap)
    load = assemble_load(mesh, dofmap, problem.f, problem.flux(geom),
                         q_panel=problem.flux_panel)
    T = np.full(dofmap.n_dofs, problem.T_D)
    history = []
    lin_iters = []
    for it in range(1, nl.picard_max + 1):
        Tc = cell_midpoint_values(mesh, dofmap, T)
        kappa_cells = np.where(in_strip, curve_B(Tc), curve_A(Tc))
        A = assemble_stiffness(mesh, dofmap, kappa_cells)
        A, b = apply_dirichlet(A, load.copy(), ddofs, problem.T_D)
        lin = LinearSolver(A, solver or SolverConfig())
        T_new = lin.solve(b)
        lin_iters.append(lin.total_iterations)
        T_new = nl.damping * T_new + (1 - nl.damping) * T
        change = np.linalg.norm(T_new - T) / np.linalg.norm(T_new)
        history.append(change)
        T = T_new
        if change < nl.picard_tol:
            Tc = cell_midpoint_values(mesh, dofmap, T)
            return NonlinearReport(
                converged=True, picard_iterations=it,
                history=np.asarray(history), T=T,
                kappa_B_mean=float(np.mean(curve_B(Tc[in_strip]))),
                inner_linear_iterations=lin_iters,
                wall_time=time.perf_counter() - t0,
                mesh=mesh, dofmap=dofmap)
    raise PicardNoConvergence(
        f"no outer convergence in {nl.picard_max} iterations",
        history=np.asarray(history))


def sweep_kappa_plus_B(geom, h_plus, h_minus, m, curve_A, curve_B,
                       values, nl_base: NonlinearConfig,
                       dd: DDConfig | None = None,
                       problem: ProblemData | None = None):
    """Re-run the nonlinear solve over a grid of extension constants.

    Returns a list of dicts (kappa_plus_B, picard_iterations, converged,
    mean inner iterations, kappa_B_mean, time).
    """
    from dataclasses import replace

    rows = []
    for v in values:
        nl = replace(nl_base, kappa_plus_B=float(v))
        try:
            rep = picard_two_level(geom, h_plus, h_minus, m, curve_A, curve_B,
                                   nl, dd, problem)
            rows.append({
                "kappa_plus_B": float(v),
                "picard_iterations": rep.picard_iterations,
                "converged": True,
                "mean_dd_iterations": float(np.mean(rep.inner_dd_iterations)),
                "mean_linear_iterations": float(np.mean(rep.inner_linear_iterations)),
                "kappa_B_mean": rep.kappa_B_mean,
                "time_s": rep.wall_time,
            })
        except (Diverged, MaxItersExceeded, PicardNoConvergence):
            rows.append({
                "kappa_plus_B": float(v),
                "picard_iterations": -1,
                "converged": False,
                "mean_dd_iterations": float("nan"),
                "mean_linear_iterations": float("nan"),
                "kappa_B_mean": float("nan"),
                "time_s": float("nan"),
            })
    return rows
