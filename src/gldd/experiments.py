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
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .coupling import ProblemData, build_coupled_operators
from .dd_solver import (DDConfig, build_mesh_pair, run_fitted_reference,
                        run_two_level_dd, setup_case)
from .errors import (COUNT, FINITE, NONNEGATIVE, POSITIVE, WHOLE,
                     InsufficientRatios, InvalidConfig, IterationFailure,
                     NonDivisibleSpacing, NonpositiveCoefficient,
                     RankDeficient, UnknownConfigKey, check_choice,
                     check_entries, check_number, in_double_range,
                     is_integer, is_number, shown)
from .fem import DEGREES, build_dofmap
from .linalg import SolverConfig, fit_rho_law, least_squares_fit
from .mesh import GeometryConfig, build_global_mesh, build_local_mesh


def _tuple_of(test):
    return lambda value: (isinstance(value, (list, tuple))
                          and all(map(test, value)))


# what a field of each annotation but a number takes: its name and test
_KINDS = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[float, ...]": ("a list of numbers", _tuple_of(is_number)),
    "tuple[int, ...]": ("a list of integers", _tuple_of(is_integer)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One declarative bundle of geometry, discretization, physics and
    study parameters; JSON files mirror these field names.  Every study
    point is one: a study varies a field through dataclasses.replace, never
    through an argument of its own.  seed feeds only
    ``gldd spectrum --power``."""

    dim: int = GeometryConfig.dim
    m: int = 1
    L: float = GeometryConfig.L
    H: float = GeometryConfig.H
    W: float = GeometryConfig.W
    H_minus: float = GeometryConfig.H_minus
    h_plus: float = 1.0 / 160.0
    h_minus: float = 1.0 / 320.0
    kappa_plus: float = 1.0
    kappa_minus: float = 0.5
    kappa_list: tuple[float, ...] = tuple(0.5 ** l for l in range(1, 9))
    mesh_ratios: tuple[int, ...] = (2, 4, 8, 16)
    theta: float = DDConfig.theta
    theta_list: tuple[float, ...] = (1.0, 0.8, 0.67, 0.5)
    alpha: Optional[float] = None
    T_0: float = ProblemData.T_D
    tol: float = DDConfig.tol
    max_iters: int = DDConfig.max_iters
    solver_method: str = SolverConfig.method
    preconditioner: str = SolverConfig.preconditioner
    seed: int = 0
    outdir: str = "out"

    def __post_init__(self):
        # checked before any work: each number by its rule in errors, here
        # or in the derived object that reads it, each other field by its
        # kind (a list is held as a tuple); the derived objects built once
        for name, kind, fits in _FIELD_KINDS:
            value = getattr(self, name)
            if not fits(value):
                raise InvalidConfig(f"{name} must be {kind}, got "
                                    f"{shown(value)}")
            if not in_double_range(value):
                raise InvalidConfig(f"{name} holds a number too large "
                                    "for a double")
            if type(value) is list:
                object.__setattr__(self, name, tuple(value))
        check_choice("m", self.m, DEGREES)
        for i, r in enumerate(self.mesh_ratios):
            check_number("spacing ratio", r, COUNT)
            if r in self.mesh_ratios[:i]:
                raise InvalidConfig(f"spacing ratio {r} is repeated")
        for name in ("kappa_list", "theta_list"):
            # entry by entry is cheaper than an array, which tells a failure
            if not all(map(POSITIVE.test, getattr(self, name))):
                check_entries(name, getattr(self, name), POSITIVE)
        check_number("seed", self.seed, WHOLE)
        check_number("T_0", self.T_0, FINITE)
        for name, error in (("kappa_plus", NonpositiveCoefficient),
                            ("kappa_minus", NonpositiveCoefficient),
                            ("h_plus", NonDivisibleSpacing),
                            ("h_minus", NonDivisibleSpacing)):
            check_number(name, getattr(self, name), POSITIVE, error)
        if self.alpha is not None:
            check_number("alpha", self.alpha, NONNEGATIVE,
                         NonpositiveCoefficient)
        derived = {
            "_geometry": GeometryConfig(dim=self.dim, L=self.L, H=self.H,
                                        W=self.W, H_minus=self.H_minus),
            "_problem": ProblemData(T_D=self.T_0),
            "_dd": DDConfig(theta=self.theta, tol=self.tol,
                            max_iters=self.max_iters,
                            solver=SolverConfig(
                                method=self.solver_method,
                                preconditioner=self.preconditioner))}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def geometry(self) -> GeometryConfig:
        return self._geometry

    def problem(self) -> ProblemData:
        return self._problem

    def solver(self) -> SolverConfig:
        return self._dd.solver

    def dd(self) -> DDConfig:
        return self._dd

    def operators(self):
        """The point's coupled operators, freshly built on every call."""
        return setup_case(self.geometry(), self.h_plus, self.h_minus, self.m,
                          self.kappa_plus, self.kappa_minus, alpha=self.alpha,
                          problem=self.problem())

    @classmethod
    def from_json(cls, path, **overrides):
        data = _json_object(path)
        data.update({k: v for k, v in overrides.items() if v is not None})
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise UnknownConfigKey(f"{path}: unknown config keys "
                                   f"{', '.join(unknown)}")
        try:
            return cls(**data)
        except InvalidConfig as exc:
            raise InvalidConfig(f"config file {path}: {exc}") from None


# (name, kind, test) of every field that is no number
_FIELD_KINDS = tuple((f.name, *_KINDS[f.type])
                     for f in fields(ExperimentConfig) if f.type in _KINDS)


def _json_object(path) -> dict:
    """The JSON object a config file holds; InvalidConfig, naming the
    file, if it cannot be read or holds anything else."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidConfig(f"config file {path} holds no JSON object")
    return data


@dataclass
class SweepRecord:
    """One parameter point; rho_measured is the exact radius of the
    operators' interface block.

    time_s is the wall time the record's own call spent.  Studies that
    share work between records (sweep_kappa's meshes, cross-mesh terms,
    unit factorization pair and unit interface block, relaxation_study's
    operators, factorizations and block) charge the shared part to the
    record that paid for it, the first one of its mesh pair;
    sweep_mesh_ratio's one box (its mesh, dof map, unit block with its
    factorization, and loads) is paid by the study's first record, each
    ratio's strip and the terms on it by that ratio's first record.
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


def run_case(cfg: ExperimentConfig):
    """One parameter point: assemble, compute the radius, run the sweep.

    Returns (record, ops); divergent or stalled runs are recorded with
    converged=False rather than raised.  The radius and the sweep share one
    factorization of each block.  The record's time_s covers all three
    steps: set-up, radius and sweep.
    """
    t0 = time.perf_counter()
    ops = cfg.operators()
    [rec] = _run_points(ops, [cfg], t0)
    return rec, ops


def _run_points(ops, points, t0):
    """One record per point, each a config of ops's case that may differ
    in its relaxation weight: radius and sweep on ops, with the radii from
    its one interface block, which a direct sweep then runs on.  The first
    record's time runs from t0, each later one from the end of the record
    before it."""
    block = ops.interface()
    records = []
    for point in points:
        rho = block.rho(point.theta)
        try:
            report = run_two_level_dd(ops, point.dd())
        except IterationFailure as exc:
            report = exc.report
        t1 = time.perf_counter()
        h_ratio = point.h_plus / point.h_minus
        kappa_ratio = point.kappa_minus / point.kappa_plus
        records.append(SweepRecord(
            case_id=f"d{point.dim}m{point.m}r{h_ratio:g}k{kappa_ratio:g}"
                    f"t{point.theta:g}",
            dim=point.dim, m=point.m, h_ratio=h_ratio,
            kappa_ratio=kappa_ratio, theta=point.theta, rho_measured=rho,
            rho_predicted=float("nan"), iterations=report.iterations,
            converged=report.converged, time_s=t1 - t0))
        t0 = t1
    return records


def sweep_kappa(cfg: ExperimentConfig):
    """Sweep the strip coefficient, then fit the radius-vs-ratio law.

    The meshes, dof maps and coefficient-free coupling terms are built
    once and every coefficient runs on them: its blocks are the unit
    blocks of the mesh pair scaled, and its radius and direct sweeps run
    on the one unit factorization pair and unit interface block (see
    coupling); the first record's time_s includes their build.
    sweep_mesh_ratio runs the same coefficients on each ratio's strip and
    its one box.  Returns (records, fit, warnings); fit is None if the
    data are degenerate, with the reason appended to warnings.
    """
    t0 = time.perf_counter()
    pair = build_mesh_pair(cfg.geometry(), cfg.h_plus, cfg.h_minus, cfg.m)
    return _sweep_pair(cfg, pair, t0)


def _sweep_pair(cfg, pair, t0):
    """sweep_kappa on a mesh pair already built at cfg's spacings, its
    first record's time running from t0."""
    geom, problem = cfg.geometry(), cfg.problem()
    records = []
    warnings = []
    for km in cfg.kappa_list:
        ops = build_coupled_operators(geom, *pair, cfg.kappa_plus, km,
                                      alpha=cfg.alpha, problem=problem)
        records += _run_points(ops, [replace(cfg, kappa_minus=km)], t0)
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


def _at_spacing_ratio(cfg, r):
    """cfg with the strip spacing h+ / r, r one of its spacing ratios."""
    return replace(cfg, h_minus=cfg.h_plus / r)


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
    """Track the fitted slope constant as the spacing ratio doubles.

    The box mesh and dof map, at cfg's h_plus and m, are built once for
    the study, and with them whatever is kept on the box dof map (its
    stiffness pattern and Dirichlet elimination, the unit box block and
    its factorization, the unscaled box loads); each spacing ratio builds
    only its strip mesh and dof map and runs sweep_kappa's coefficients on
    the pair.  The study's first record's time_s includes the box build,
    the first record of each ratio its strip build.
    """
    ratios = sorted(cfg.mesh_ratios)
    if len(ratios) < 3:
        raise InsufficientRatios("need at least three spacing ratios")
    geom = cfg.geometry()
    c_tildes, all_records, fits, warnings = [], [], {}, []
    t0 = time.perf_counter()
    gmesh = build_global_mesh(geom, cfg.h_plus)
    box = (gmesh, build_dofmap(gmesh, cfg.m))
    for r in ratios:
        point = _at_spacing_ratio(cfg, r)
        lmesh = build_local_mesh(geom, point.h_minus)
        records, fit, warns = _sweep_pair(
            point, (*box, lmesh, build_dofmap(lmesh, cfg.m)), t0)
        t0 = time.perf_counter()
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
    points = [replace(cfg, theta=theta) for theta in cfg.theta_list]
    t0 = time.perf_counter()
    records = _run_points(cfg.operators(), points, t0)
    converged = [r for r in records if r.converged]
    best = min(converged, key=lambda r: r.iterations).theta if converged \
        else float("nan")
    presets = {
        "parabola": theta_parabola_minimizer(cfg.kappa_plus, cfg.kappa_minus),
        "coefficient-ratio": theta_coefficient_ratio(cfg.kappa_plus,
                                                     cfg.kappa_minus),
    }
    return RelaxationStudy(records=records, best_theta=best, presets=presets)


def compare_monolithic(cfg: ExperimentConfig, kappa_ratios=None):
    """Two-mesh run vs one solve on the uniform fine fitted mesh,
    preconditioned GMRES everywhere, at each coefficient ratio (default 2
    and 3) and each of cfg's spacing ratios; returns comparison rows.  A
    two-mesh run that stops early is recorded from its partial report; a
    stalled fitted solve raises."""
    kappa_ratios = (2.0, 3.0) if kappa_ratios is None else kappa_ratios
    # every point is made, and so checked, before any work
    points = [(x, r, replace(
        _at_spacing_ratio(cfg, r), kappa_minus=x * cfg.kappa_plus,
        theta=(theta_coefficient_ratio(cfg.kappa_plus, x * cfg.kappa_plus)
               if x >= 2 else cfg.theta),
        solver_method="restarted-minimal-residual", preconditioner="diagonal"))
        for x in kappa_ratios for r in cfg.mesh_ratios]
    rows = []
    for x, r, point in points:
        # both sides time set-up plus solve, as the fitted side's
        # wall_time includes its mesh build and assembly
        t0 = time.perf_counter()
        ops = point.operators()
        try:
            rep = run_two_level_dd(ops, point.dd())
        except IterationFailure as exc:
            rep = exc.report
        row = {"kappa_ratio": x, "h_ratio": r, "theta": point.theta,
               "dd_converged": rep.converged,
               "dd_iterations": rep.iterations,
               "dd_local_gmres": rep.inner_iterations["local"],
               "dd_global_gmres": rep.inner_iterations["global"],
               "dd_time_s": time.perf_counter() - t0}
        fitted = run_fitted_reference(
            point.geometry(), point.h_plus, point.h_minus,
            point.kappa_plus, point.kappa_minus, point.m,
            problem=point.problem(), solver=point.solver())
        row.update(fitted_gmres=fitted.iterations,
                   fitted_time_s=fitted.wall_time,
                   fitted_dofs=fitted.n_dofs)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

RECORD_COLUMNS = [f.name for f in fields(SweepRecord)]
FIT_COLUMNS = ["case_id", "a0", "a1", "b0", "b1", "b2", "C_tilde"]


def _write_table(path, columns, rows):
    """One CSV table: a header of columns, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def emit_reports(records, fits, outdir, config: ExperimentConfig | None = None,
                 warnings=(), extra_tables=None):
    """Write records.csv, fits.csv and manifest.json into outdir.

    fits maps case-id prefixes to SpectralFit objects; extra_tables maps
    file stems to lists of dicts, each written only when it has rows.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / "records.csv", RECORD_COLUMNS,
                 [astuple(r) for r in records])
    _write_table(out / "fits.csv", FIT_COLUMNS,
                 [[case_id, fit.a0, fit.a1, fit.b0, fit.b1, fit.b2,
                   fit.C_tilde]
                  for case_id, fit in (fits or {}).items() if fit is not None])
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
        if rows:
            columns = list(rows[0])
            _write_table(out / f"{stem}.csv", columns,
                         [[row[c] for c in columns] for row in rows])
    return out
