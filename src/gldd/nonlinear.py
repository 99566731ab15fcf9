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
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .coupling import ProblemData, _interface, build_coupled_operators
from .dd_solver import (DDConfig, build_mesh_pair, run_two_level_dd,
                        solve_fitted)
from .errors import (COUNT, FINITE, POSITIVE, InvalidConfig, IterationFailure,
                     NonpositiveCoefficient, PicardNoConvergence,
                     check_entries, check_number)
from .fem import (_basis_at_points, _field_at, assemble_load, build_dofmap,
                  shape_values)
from .linalg import SolverConfig
from .mesh import GeometryConfig, build_fitted_mesh, strip_cells


class MaterialCurve:
    """Piecewise-linear conductivity versus temperature, constant beyond
    the tabulated range."""

    def __init__(self, temperatures, kappas):
        T = check_entries("temperatures", temperatures, FINITE)
        k = check_entries("kappas", kappas, POSITIVE, NonpositiveCoefficient)
        if T.ndim != 1 or T.shape != k.shape or T.size < 1:
            raise InvalidConfig("curve needs matching 1-d T and kappa arrays")
        if not np.all(np.diff(T) > 0):
            raise InvalidConfig("curve temperatures must be strictly "
                                "increasing")
        self.T = T
        self.k = k

    def __call__(self, temperature):
        return np.interp(np.asarray(temperature, dtype=float), self.T, self.k)

    @classmethod
    def constant(cls, value):
        return cls([0.0], [value])

    @classmethod
    def from_csv(cls, path):
        """Read a curve from a CSV file with header 'T,kappa'; InvalidConfig,
        naming the file, when it cannot be read as such a curve."""
        try:
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh)) or [[]]
            if [h.strip() for h in header[:2]] != ["T", "kappa"]:
                raise ValueError(f"expected header 'T,kappa', got {header!r}")
            rows = sorted((float(r[0]), float(r[1])) for r in rows if r)
            return cls([r[0] for r in rows], [r[1] for r in rows])
        except InvalidConfig as exc:
            raise type(exc)(f"curve file {path}: {exc}") from None
        except (OSError, ValueError, IndexError) as exc:
            raise InvalidConfig(f"curve file {path}: {exc}") from None


@dataclass(frozen=True)
class NonlinearConfig:
    kappa_plus_B: float = 1.0
    picard_tol: float = 1e-6
    picard_max: int = 100

    def __post_init__(self):
        check_number("kappa_plus_B", self.kappa_plus_B, POSITIVE)
        check_number("picard_tol", self.picard_tol, POSITIVE)
        check_number("picard_max", self.picard_max, COUNT)


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
    dofmap: object = None
    local_dofmap: object = None
    global_dofmap: object = None

    mesh = property(lambda self: getattr(self.dofmap, "mesh", None))
    local_mesh = property(
        lambda self: getattr(self.local_dofmap, "mesh", None))
    global_mesh = property(
        lambda self: getattr(self.global_dofmap, "mesh", None))


def cell_midpoint_values(mesh, dofmap, coeffs):
    """Field value at every cell centroid (uniform barycentric point);
    mesh must be the dof map's, else InvalidConfig."""
    dofmap.check_mesh("mesh", mesh)
    lam = np.full((1, mesh.dim + 1), 1.0 / (mesh.dim + 1))
    phi = shape_values(mesh.dim, dofmap.m, lam)[0]
    return coeffs[dofmap.cell_dofs] @ phi


def _picard(step, iterates, nl: NonlinearConfig, fields):
    """The outer loop of both routes: step(iterates, first) solves the
    problem frozen at the iterates, a tuple of arrays, and returns the next
    ones.  The change is ||new - old|| / ||new|| over all iterates
    together, ||new|| = 0 read as 1 so that zero data converge.
    Returns the NonlinearReport with the route's fields(*iterates), or
    raises PicardNoConvergence with that report of the steps made."""
    history = []
    for it in range(1, nl.picard_max + 1):
        new = step(iterates, it == 1)
        num = np.sqrt(sum(np.linalg.norm(x - old) ** 2
                          for x, old in zip(new, iterates)))
        den = np.sqrt(sum(np.linalg.norm(x) ** 2 for x in new))
        change = num / (den if den > 0 else 1.0)
        history.append(change)
        iterates = new
        if change < nl.picard_tol:
            return NonlinearReport(True, it, np.asarray(history),
                                   **fields(*iterates))
    raise PicardNoConvergence(
        f"no outer convergence in {nl.picard_max} iterations",
        NonlinearReport(False, nl.picard_max, np.asarray(history),
                        **fields(*iterates)))


def picard_two_level(geom: GeometryConfig, h_plus, h_minus, m,
                     curve_A: MaterialCurve, curve_B: MaterialCurve,
                     nl: NonlinearConfig, dd: DDConfig | None = None,
                     problem: ProblemData | None = None) -> NonlinearReport:
    """Outer Picard loop around the two-mesh solver.

    The box coefficient is curve_A at the frozen temperature outside the
    strip footprint and the constant kappa_plus_B inside it; the strip
    coefficient is curve_B at the frozen temperature.  The top-flux scaling,
    the jump weights and the builder's default penalty follow the same
    frozen values; the jump weights read the strip iterate at the gamma
    facet midpoints through the kept interface terms.  The flux scale
    keeps, for the run, the strip basis at each point array it is handed,
    matched by identity: the read-only footprint and box-top flux points
    the box dof map keeps come back at every step and are located once per
    run.  Warm-starts each inner run from the previous outer iterate.
    """
    dd = dd or DDConfig()
    problem = problem or ProblemData()
    t0 = time.perf_counter()
    gmesh, gdof, lmesh, ldof = build_mesh_pair(geom, h_plus, h_minus, m)
    in_strip = strip_cells(gmesh, geom)
    gamma = _interface(gdof, ldof)
    dd_iters = []
    lin_iters = []
    # id(x) -> (x, strip basis at x) for the kept footprint and flux
    # points; holding x keeps its id from reuse
    located = {}

    def step(iterates, first):
        T_plus, T_minus = iterates
        Tg = cell_midpoint_values(gmesh, gdof, T_plus)
        Tl = cell_midpoint_values(lmesh, ldof, T_minus)
        kp_cells = np.where(in_strip, nl.kappa_plus_B, curve_A(Tg))
        km_cells = np.asarray(curve_B(Tl))
        # the strip iterate at the gamma facet midpoints, in facet order
        T_gamma = T_minus[gamma.ldofs] @ gamma.mid
        jump_weights = nl.kappa_plus_B - np.asarray(curve_B(T_gamma))

        def flux_scale(x):
            if id(x) not in located:
                located[id(x)] = x, _basis_at_points(ldof, x)
            return nl.kappa_plus_B / np.asarray(
                curve_B(_field_at(T_minus, located[id(x)][1])))

        ops = build_coupled_operators(
            geom, gmesh, gdof, lmesh, ldof,
            kappa_plus=nl.kappa_plus_B, kappa_minus=float(np.mean(km_cells)),
            problem=problem, kappa_plus_cells=kp_cells,
            kappa_minus_cells=km_cells, jump_facet_weights=jump_weights,
            flux_scale=flux_scale)

        report = run_two_level_dd(ops, dd, initial=None if first else T_plus)
        dd_iters.append(report.iterations)
        lin_iters.append(sum(report.inner_iterations.values()))
        return report.T_plus, report.T_minus

    def fields(T_plus, T_minus):
        Tl = cell_midpoint_values(lmesh, ldof, T_minus)
        return dict(T_plus=T_plus, T_minus=T_minus,
                    kappa_B_mean=float(np.mean(curve_B(Tl))),
                    inner_dd_iterations=dd_iters,
                    inner_linear_iterations=lin_iters,
                    wall_time=time.perf_counter() - t0,
                    local_dofmap=ldof, global_dofmap=gdof)

    return _picard(step, (np.full(gdof.n_dofs, problem.T_D),
                          np.full(ldof.n_dofs, problem.T_D)), nl, fields)


def picard_monolithic(geom: GeometryConfig, h_plus, h_minus, m,
                      curve_A: MaterialCurve, curve_B: MaterialCurve,
                      nl: NonlinearConfig,
                      problem: ProblemData | None = None,
                      solver: SolverConfig | None = None) -> NonlinearReport:
    """Picard loop around a single fitted-mesh solve on the uniform fine
    mesh; the comparison baseline for the two-mesh nonlinear driver."""
    problem = problem or ProblemData()
    t0 = time.perf_counter()
    mesh = build_fitted_mesh(geom, h_plus, h_minus)
    dofmap = build_dofmap(mesh, m)
    in_strip = strip_cells(mesh, geom)
    load = assemble_load(mesh, dofmap, problem.f, problem.flux(geom),
                         q_panel=problem.flux_panel)
    lin_iters = []

    def step(iterates, first):
        Tc = cell_midpoint_values(mesh, dofmap, iterates[0])
        kappa_cells = np.where(in_strip, curve_B(Tc), curve_A(Tc))
        T, iterations = solve_fitted(dofmap, kappa_cells, load, problem.T_D,
                                     solver)
        lin_iters.append(iterations)
        return (T,)

    def fields(T):
        Tc = cell_midpoint_values(mesh, dofmap, T)
        return dict(T=T, kappa_B_mean=float(np.mean(curve_B(Tc[in_strip]))),
                    inner_linear_iterations=lin_iters,
                    wall_time=time.perf_counter() - t0, dofmap=dofmap)

    return _picard(step, (np.full(dofmap.n_dofs, problem.T_D),), nl, fields)


def sweep_kappa_plus_B(geom, h_plus, h_minus, m, curve_A, curve_B,
                       values, nl_base: NonlinearConfig,
                       dd: DDConfig | None = None,
                       problem: ProblemData | None = None):
    """Re-run the nonlinear solve over a grid of extension constants.

    Returns a list of dicts (kappa_plus_B, picard_iterations, converged,
    mean inner iterations, kappa_B_mean, time).
    """
    rows = []
    for v in values:
        nl = replace(nl_base, kappa_plus_B=float(v))
        try:
            rep = picard_two_level(geom, h_plus, h_minus, m, curve_A, curve_B,
                                   nl, dd, problem)
        except IterationFailure as exc:
            # an exhausted outer budget carries its partial NonlinearReport
            rep = exc.report if isinstance(exc, PicardNoConvergence) else None
        rows.append(_sweep_row(float(v), rep))
    return rows


def _sweep_row(kappa_plus_B, rep: NonlinearReport | None):
    """One sweep row; an inner stall (rep None) gets -1 and NaNs."""
    return {
        "kappa_plus_B": kappa_plus_B,
        "picard_iterations": -1 if rep is None else rep.picard_iterations,
        "converged": rep is not None and rep.converged,
        "mean_dd_iterations": np.nan if rep is None
        else float(np.mean(rep.inner_dd_iterations)),
        "mean_linear_iterations": np.nan if rep is None
        else float(np.mean(rep.inner_linear_iterations)),
        "kappa_B_mean": np.nan if rep is None else rep.kappa_B_mean,
        "time_s": np.nan if rep is None else rep.wall_time,
    }
