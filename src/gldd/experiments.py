"""Parameter studies: coefficient sweeps, mesh-ratio growth, relaxation,
and the comparison against a single fitted-mesh solve.

Every study produces SweepRecord rows and optionally a SpectralFit; both
can be written out as CSV plus a manifest with enough metadata to rerun.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .coupling import ProblemData, build_coupled_operators
from .dd_solver import (DDConfig, build_mesh_pair, run_fitted_reference,
                        run_two_level_dd, setup_case)
from .errors import (Diverged, InsufficientRatios, MaxItersExceeded,
                     NoConvergence, RankDeficient)
from .linalg import (LinearSolver, SolverConfig, dense_spectral_radius,
                     fit_rho_law, least_squares_fit)
from .mesh import GeometryConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """One declarative bundle of geometry, discretization, physics and
    study parameters; JSON files mirror these field names."""

    dim: int = 2
    m: int = 1
    L: float = 1.0 / 40.0
    H: float = 1.0 / 40.0
    W: float = 1.0 / 40.0
    H_minus: float = 1.0 / 160.0
    h_plus: float = 1.0 / 160.0
    h_minus: float = 1.0 / 320.0
    kappa_plus: float = 1.0
    kappa_minus: float = 0.5
    kappa_list: tuple = tuple(0.5 ** l for l in range(1, 9))
    mesh_ratios: tuple = (2, 4, 8, 16)
    theta: float = 1.0
    theta_list: tuple = (1.0, 0.8, 0.67, 0.5)
    alpha: Optional[float] = None
    T_0: float = 293.15
    tol: float = 1e-8
    max_iters: int = 5000
    divergence_guard: float = 1e6
    solver_method: str = "dense-direct"
    solver_rel_tol: float = 1e-12
    restart: int = 50
    preconditioner: str = "none"
    power_tol: float = 1e-10
    power_max_iters: int = 5000
    seed: int = 0
    outdir: str = "out"

    def geometry(self) -> GeometryConfig:
        return GeometryConfig(dim=self.dim, L=self.L, H=self.H, W=self.W,
                              H_minus=self.H_minus)

    def problem(self) -> ProblemData:
        return ProblemData(T_D=self.T_0)

    def solver(self) -> SolverConfig:
        return SolverConfig(method=self.solver_method,
                            rel_tol=self.solver_rel_tol,
                            restart=self.restart,
                            preconditioner=self.preconditioner)

    def dd(self, theta=None) -> DDConfig:
        return DDConfig(theta=self.theta if theta is None else theta,
                        tol=self.tol, max_iters=self.max_iters,
                        divergence_guard=self.divergence_guard,
                        solver=self.solver())

    @classmethod
    def from_json(cls, path, **overrides):
        with open(path) as fh:
            data = json.load(fh)
        data.update({k: v for k, v in overrides.items() if v is not None})
        for key in ("kappa_list", "mesh_ratios", "theta_list"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)


@dataclass
class SweepRecord:
    """One parameter point; rho_measured is the exact dense_spectral_radius.

    time_s is the wall time the record's own call spent.  Studies that
    share work between records (sweep_kappa's meshes and cross-mesh terms,
    relaxation_study's operators and factorizations) charge the shared
    part to the record that paid for it, the first one.
    """

    case_id: str
    dim: int
    m: int
    h_ratio: float
    kappa_ratio: float
    theta: float
    rho_measured: float
    rho_predicted: float
    iterations: int
    converged: bool
    time_s: float


def _case_id(cfg, kappa_minus, h_minus, theta):
    ratio = cfg.h_plus / h_minus
    return (f"d{cfg.dim}m{cfg.m}r{ratio:g}"
            f"k{kappa_minus / cfg.kappa_plus:g}t{theta:g}")


def run_case(cfg: ExperimentConfig, kappa_minus=None, h_minus=None,
             theta=None):
    """One parameter point: assemble, compute the radius, run the sweep.

    Returns (record, ops); divergent or stalled runs are recorded with
    converged=False rather than raised.  The radius and the sweep share one
    factorization of each block.  The record's time_s covers all three
    steps: set-up, radius and sweep.
    """
    kappa_minus = cfg.kappa_minus if kappa_minus is None else kappa_minus
    h_minus = cfg.h_minus if h_minus is None else h_minus
    theta = cfg.theta if theta is None else theta
    t0 = time.perf_counter()
    ops = setup_case(cfg.geometry(), cfg.h_plus, h_minus, cfg.m,
                     cfg.kappa_plus, kappa_minus, alpha=cfg.alpha,
                     problem=cfg.problem())
    [rec] = _run_thetas(cfg, ops, kappa_minus, h_minus, [theta], t0)
    return rec, ops


def _run_thetas(cfg, ops, kappa_minus, h_minus, thetas, t0):
    """One record per relaxation weight: radius and sweep on ops, all on
    one factorization pair.  The first record's time runs from t0, each
    later one from the end of the record before it."""
    solvers = (LinearSolver(ops.K_plus, cfg.solver()),
               LinearSolver(ops.K_minus, cfg.solver()))
    records = []
    for theta in thetas:
        rho = dense_spectral_radius(solvers[0], ops.S, solvers[1], ops.D,
                                    theta=theta)
        try:
            report = run_two_level_dd(ops, cfg.dd(theta), solvers=solvers)
            iterations, converged = report.iterations, True
        except (Diverged, MaxItersExceeded) as exc:
            iterations, converged = exc.report.iterations, False
        t1 = time.perf_counter()
        records.append(SweepRecord(
            case_id=_case_id(cfg, kappa_minus, h_minus, theta), dim=cfg.dim,
            m=cfg.m, h_ratio=cfg.h_plus / h_minus,
            kappa_ratio=kappa_minus / cfg.kappa_plus, theta=theta,
            rho_measured=rho, rho_predicted=float("nan"),
            iterations=iterations, converged=converged, time_s=t1 - t0))
        t0 = t1
    return records


def sweep_kappa(cfg: ExperimentConfig, h_minus=None):
    """Sweep the strip coefficient, then fit the radius-vs-ratio law.

    The meshes, dof maps and coefficient-free coupling terms are built
    once and every coefficient runs on them; the first record's time_s
    includes that build.  Returns (records, fit, warnings); fit is None if
    the data are degenerate, with the reason appended to warnings.
    """
    h_minus = cfg.h_minus if h_minus is None else h_minus
    geom = cfg.geometry()
    records = []
    warnings = []
    t0 = time.perf_counter()
    pair = build_mesh_pair(geom, cfg.h_plus, h_minus, cfg.m)
    for km in cfg.kappa_list:
        ops = build_coupled_operators(geom, *pair, cfg.kappa_plus, km,
                                      alpha=cfg.alpha, problem=cfg.problem())
        records += _run_thetas(cfg, ops, km, h_minus, [cfg.theta], t0)
        t0 = time.perf_counter()
    ratios = [r.kappa_ratio for r in records]
    rhos = [r.rho_measured for r in records]
    fit = None
    try:
        fit = fit_rho_law(ratios, rhos)
        for r in records:
            r.rho_predicted = float(fit.predict_linear(r.kappa_ratio))
    except RankDeficient as exc:
        warnings.append(f"radius fit skipped: {exc}")
    return records, fit, warnings


@dataclass
class MeshRatioStudy:
    ratios: list
    c_tildes: list
    increments: list
    slope_per_doubling: float
    records: list
    fits: dict
    warnings: list = field(default_factory=list)


def log2_growth_slope(ratios, c_tildes) -> float:
    """Slope of C against log2(ratio), by linear least squares."""
    coeffs = least_squares_fit(np.log2(np.asarray(ratios, dtype=float)),
                               np.asarray(c_tildes, dtype=float), 1)
    return float(coeffs[1])


def sweep_mesh_ratio(cfg: ExperimentConfig) -> MeshRatioStudy:
    """Track the fitted slope constant as the spacing ratio doubles."""
    ratios = sorted(cfg.mesh_ratios)
    if len(ratios) < 3:
        raise InsufficientRatios("need at least three spacing ratios")
    c_tildes, all_records, fits, warnings = [], [], {}, []
    for r in ratios:
        h_minus = cfg.h_plus / r
        records, fit, warns = sweep_kappa(cfg, h_minus=h_minus)
        warnings.extend(warns)
        all_records.extend(records)
        if fit is None:
            raise RankDeficient(f"no usable fit at spacing ratio {r}")
        fits[r] = fit
        c_tildes.append(fit.C_tilde)
    increments = [c_tildes[i + 1] - c_tildes[i] for i in range(len(ratios) - 1)]
    slope = log2_growth_slope(ratios, c_tildes)
    return MeshRatioStudy(ratios=ratios, c_tildes=c_tildes,
                          increments=increments, slope_per_doubling=slope,
                          records=all_records, fits=fits, warnings=warnings)


def theta_parabola_minimizer(kappa_plus, kappa_minus) -> float:
    """Relaxation weight minimizing the model parabola of the relaxed radius."""
    jump = (kappa_minus - kappa_plus) / kappa_plus
    return 1.0 / (jump * jump + 1.0)


def theta_coefficient_ratio(kappa_plus, kappa_minus) -> float:
    """Relaxation weight equal to the coefficient ratio; the practical pick
    once the strip coefficient dominates."""
    return kappa_plus / kappa_minus


@dataclass
class RelaxationStudy:
    records: list
    best_theta: float
    presets: dict


def relaxation_study(cfg: ExperimentConfig) -> RelaxationStudy:
    """Run the iteration across relaxation weights and report the winner.

    The weights share one set-up and one factorization pair; the first
    record's time_s includes them.
    """
    t0 = time.perf_counter()
    ops = setup_case(cfg.geometry(), cfg.h_plus, cfg.h_minus, cfg.m,
                     cfg.kappa_plus, cfg.kappa_minus, alpha=cfg.alpha,
                     problem=cfg.problem())
    records = _run_thetas(cfg, ops, cfg.kappa_minus, cfg.h_minus,
                          cfg.theta_list, t0)
    converged = [r for r in records if r.converged]
    best = min(converged, key=lambda r: r.iterations).theta if converged \
        else float("nan")
    presets = {
        "parabola": theta_parabola_minimizer(cfg.kappa_plus, cfg.kappa_minus),
        "coefficient-ratio": theta_coefficient_ratio(cfg.kappa_plus,
                                                     cfg.kappa_minus),
    }
    return RelaxationStudy(records=records, best_theta=best, presets=presets)


def compare_monolithic(cfg: ExperimentConfig, kappa_ratios=None,
                       mesh_ratios=None, refinement_mode="uniform-fine"):
    """Two-mesh run vs single fitted-mesh solve, preconditioned GMRES
    everywhere; returns comparison rows."""
    kappa_ratios = kappa_ratios or [2.0, 2.5, 3.0]
    mesh_ratios = mesh_ratios or list(cfg.mesh_ratios)
    gmres = SolverConfig(method="restarted-minimal-residual",
                         rel_tol=cfg.solver_rel_tol, restart=cfg.restart,
                         preconditioner="diagonal")
    rows = []
    for x in kappa_ratios:
        km = x * cfg.kappa_plus
        for r in mesh_ratios:
            h_minus = cfg.h_plus / r
            theta = theta_coefficient_ratio(cfg.kappa_plus, km) if x >= 2 \
                else cfg.theta
            # both sides time set-up plus solve, as the fitted side's
            # wall_time includes its mesh build and assembly
            t0 = time.perf_counter()
            ops = setup_case(cfg.geometry(), cfg.h_plus, h_minus, cfg.m,
                             cfg.kappa_plus, km, alpha=cfg.alpha,
                             problem=cfg.problem())
            dd = DDConfig(theta=theta, tol=cfg.tol, max_iters=cfg.max_iters,
                          divergence_guard=cfg.divergence_guard, solver=gmres)
            row = {"kappa_ratio": x, "h_ratio": r, "theta": theta}
            try:
                rep = run_two_level_dd(ops, dd)
                row.update(dd_converged=True, dd_iterations=rep.iterations,
                           dd_local_gmres=rep.inner_iterations["local"],
                           dd_global_gmres=rep.inner_iterations["global"],
                           dd_time_s=time.perf_counter() - t0)
            except (Diverged, MaxItersExceeded, NoConvergence) as exc:
                its = getattr(getattr(exc, "report", None), "iterations", -1)
                row.update(dd_converged=False, dd_iterations=its,
                           dd_local_gmres=-1, dd_global_gmres=-1,
                           dd_time_s=time.perf_counter() - t0)
            fitted = run_fitted_reference(cfg.geometry(), cfg.h_plus, h_minus,
                                          cfg.kappa_plus, km, cfg.m,
                                          refinement_mode=refinement_mode,
                                          problem=cfg.problem(), solver=gmres)
            row.update(fitted_gmres=fitted.iterations,
                       fitted_time_s=fitted.wall_time,
                       fitted_dofs=fitted.n_dofs)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

RECORD_COLUMNS = ["case_id", "dim", "m", "h_ratio", "kappa_ratio", "theta",
                  "rho_measured", "rho_predicted", "iterations", "converged",
                  "time_s"]
FIT_COLUMNS = ["case_id", "a0", "a1", "b0", "b1", "b2", "C_tilde"]


def emit_reports(records, fits, outdir, config: ExperimentConfig | None = None,
                 warnings=(), extra_tables=None):
    """Write records.csv, fits.csv and manifest.json into outdir.

    fits maps case-id prefixes to SpectralFit objects; extra_tables maps
    file stems to lists of dicts.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "records.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            d = asdict(r)
            writer.writerow([d[c] for c in RECORD_COLUMNS])
    with open(out / "fits.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIT_COLUMNS)
        for case_id, fit in (fits or {}).items():
            if fit is None:
                continue
            writer.writerow([case_id, fit.a0, fit.a1, fit.b0, fit.b1, fit.b2,
                             fit.C_tilde])
    manifest = {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "seed": getattr(config, "seed", None),
        "config": asdict(config) if config is not None else None,
        "warnings": list(warnings),
        "records": len(records),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    for stem, rows in (extra_tables or {}).items():
        if not rows:
            continue
        with open(out / f"{stem}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return out
