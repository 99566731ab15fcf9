"""Command line front end.

Subcommands map one-to-one onto the study functions; a JSON config can
seed any run and individual flags override it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .coupling import interface_trace_gap
from .dd_solver import (export_solution_csv, make_iteration_operator,
                        run_two_level_dd, setup_case)
from .errors import Diverged, GlddError, MaxItersExceeded, NoConvergence
from .experiments import (ExperimentConfig, compare_monolithic, emit_reports,
                          relaxation_study, run_case, sweep_kappa,
                          sweep_mesh_ratio)
from .fem import export_matrix
from .linalg import power_iteration_rho
from .nonlinear import (MaterialCurve, NonlinearConfig, picard_two_level,
                        sweep_kappa_plus_B)


def fraction(text: str) -> float:
    """Parse '1/160' or '0.00625' into a float."""
    return float(Fraction(text))


def _ratio_list(text: str):
    return tuple(int(tok) for tok in text.split(","))


def _float_list(text: str):
    return tuple(fraction(tok) for tok in text.split(","))


def _range_spec(text: str):
    """lo:hi:n geometric grid, e.g. '0.5:8:7'."""
    lo, hi, n = text.split(":")
    import numpy as np
    return np.geomspace(float(lo), float(hi), int(n))


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, default=None,
                   help="JSON file with ExperimentConfig fields")
    p.add_argument("--dim", type=int, choices=(2, 3), default=None)
    p.add_argument("--degree", dest="m", type=int, choices=(1, 2), default=None)
    p.add_argument("--h-plus", type=fraction, default=None)
    p.add_argument("--h-minus", type=fraction, default=None)
    p.add_argument("--kappa-plus", type=float, default=None)
    p.add_argument("--kappa-minus", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--solver", dest="solver_method", default=None,
                   choices=("dense-direct", "direct", "conjugate-gradient",
                            "cg", "restarted-minimal-residual", "gmres"))
    p.add_argument("--preconditioner", default=None,
                   choices=("none", "diagonal"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--outdir", default=None)


def _config_from(args) -> ExperimentConfig:
    overrides = {k: getattr(args, k, None) for k in (
        "dim", "m", "h_plus", "h_minus", "kappa_plus", "kappa_minus",
        "theta", "alpha", "tol", "max_iters", "solver_method",
        "preconditioner", "seed", "outdir")}
    if getattr(args, "kappa_list", None) is not None:
        overrides["kappa_list"] = args.kappa_list
    if getattr(args, "mesh_ratios", None) is not None:
        overrides["mesh_ratios"] = args.mesh_ratios
    if getattr(args, "theta_list", None) is not None:
        overrides["theta_list"] = args.theta_list
    if args.config is not None:
        return ExperimentConfig.from_json(args.config, **overrides)
    return ExperimentConfig(**{k: v for k, v in overrides.items()
                               if v is not None})


def _cmd_solve(args) -> int:
    cfg = _config_from(args)
    ops = setup_case(cfg.geometry(), cfg.h_plus, cfg.h_minus, cfg.m,
                     cfg.kappa_plus, cfg.kappa_minus, alpha=cfg.alpha,
                     problem=cfg.problem())
    try:
        report = run_two_level_dd(ops, cfg.dd())
    except (Diverged, MaxItersExceeded) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    gap = interface_trace_gap(ops, report.T_plus, report.T_minus)
    rho = "n/a" if report.rho_estimate is None else f"{report.rho_estimate:.4f}"
    print(f"converged in {report.iterations} sweeps "
          f"(rho~{rho}, trace gap {gap:.3e}, {report.wall_time:.3f}s)")
    print(f"T range: [{report.T_plus.min():.2f}, {report.T_plus.max():.2f}] K")
    out = Path(cfg.outdir)
    if args.export_operators:
        out.mkdir(parents=True, exist_ok=True)
        for name in ("K_plus", "K_minus", "S", "D"):
            export_matrix(getattr(ops, name), out / f"{name}.mtx")
        print(f"operators written to {out}")
    if args.export_solution:
        out.mkdir(parents=True, exist_ok=True)
        export_solution_csv(ops.global_mesh, ops.global_dofmap,
                            report.T_plus, out / "T_plus.csv")
        export_solution_csv(ops.local_mesh, ops.local_dofmap,
                            report.T_minus, out / "T_minus.csv")
        print(f"solutions written to {out}")
    if args.json:
        print(report.to_json())
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _config_from(args)
    rec, ops = run_case(cfg)
    line = (f"{rec.case_id}: rho={rec.rho_measured:.6f} "
            f"iterations={rec.iterations} converged={rec.converged}")
    if args.power:
        op = make_iteration_operator(ops, cfg.solver())
        try:
            rho_p, _ = power_iteration_rho(op, ops.n_plus, theta=cfg.theta,
                                           tol=cfg.power_tol,
                                           max_iters=cfg.power_max_iters,
                                           seed=cfg.seed)
            line += f" power_rho={rho_p:.6f} power_converged=True"
        except NoConvergence as exc:
            line += f" power_rho={exc.estimate:.6f} power_converged=False"
    print(line)
    return 0


def _cmd_sweep_kappa(args) -> int:
    cfg = _config_from(args)
    records, fit, warnings = sweep_kappa(cfg)
    for r in records:
        print(f"{r.case_id}: ratio={r.kappa_ratio:g} rho={r.rho_measured:.4f}"
              f" iters={r.iterations} converged={r.converged}")
    fits = {}
    if fit is not None:
        fits["kappa-sweep"] = fit
        print(f"C={fit.C_tilde:.4f} (linear fit r2={fit.r2_linear:.5f}); "
              f"predicted divergence beyond ratio "
              f"{fit.divergence_threshold():.3f}")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    emit_reports(records, fits, cfg.outdir, config=cfg, warnings=warnings)
    print(f"reports written to {cfg.outdir}")
    return 0


def _cmd_sweep_mesh(args) -> int:
    cfg = _config_from(args)
    study = sweep_mesh_ratio(cfg)
    for r, c in zip(study.ratios, study.c_tildes):
        print(f"spacing ratio {r}: C={c:.4f}")
    print(f"increments per doubling: "
          f"{', '.join(f'{d:.4f}' for d in study.increments)}")
    print(f"slope per doubling: {study.slope_per_doubling:.4f}")
    fits = {f"ratio-{r}": study.fits[r] for r in study.ratios}
    emit_reports(study.records, fits, cfg.outdir, config=cfg,
                 warnings=study.warnings)
    print(f"reports written to {cfg.outdir}")
    return 0


def _cmd_relax(args) -> int:
    cfg = _config_from(args)
    study = relaxation_study(cfg)
    for r in study.records:
        print(f"theta={r.theta:g}: rho={r.rho_measured:.4f} "
              f"iters={r.iterations} converged={r.converged}")
    print(f"best theta: {study.best_theta:g}")
    for name, value in study.presets.items():
        print(f"preset {name}: theta={value:.4f}")
    emit_reports(study.records, {}, cfg.outdir, config=cfg)
    return 0


def _cmd_compare(args) -> int:
    cfg = _config_from(args)
    rows = compare_monolithic(cfg, kappa_ratios=list(args.kappa_ratios),
                              mesh_ratios=list(args.mesh_ratios_cmp)
                              if args.mesh_ratios_cmp else None)
    for row in rows:
        print(f"ratio={row['kappa_ratio']:g} h_ratio={row['h_ratio']:g}: "
              f"dd iters={row['dd_iterations']} "
              f"(local {row['dd_local_gmres']}, global {row['dd_global_gmres']})"
              f" vs fitted {row['fitted_gmres']} "
              f"on {row['fitted_dofs']} dofs")
    emit_reports([], {}, cfg.outdir, config=cfg,
                 extra_tables={"monolithic": rows})
    print(f"reports written to {cfg.outdir}")
    return 0


def _curve(spec, fallback):
    # numeric literal means a constant conductivity, anything else is a CSV
    if spec is None:
        return MaterialCurve.constant(fallback)
    try:
        return MaterialCurve.constant(float(spec))
    except ValueError:
        return MaterialCurve.from_csv(spec)


def _cmd_nonlinear(args) -> int:
    cfg = _config_from(args)
    curve_a = _curve(args.curve_a, cfg.kappa_plus)
    curve_b = _curve(args.curve_b, cfg.kappa_minus)
    nl = NonlinearConfig(kappa_plus_B=args.kappa_plus_b,
                         picard_tol=args.picard_tol,
                         picard_max=args.picard_max)
    if args.sweep_kappa_plus_b:
        values = _range_spec(args.sweep_kappa_plus_b)
        rows = sweep_kappa_plus_B(cfg.geometry(), cfg.h_plus, cfg.h_minus,
                                  cfg.m, curve_a, curve_b, values, nl,
                                  cfg.dd(), problem=cfg.problem())
        for row in rows:
            print(f"kappa_plus_B={row['kappa_plus_B']:.4f}: "
                  f"picard={row['picard_iterations']} "
                  f"mean_dd={row['mean_dd_iterations']:.1f} "
                  f"converged={row['converged']}")
        best = min((r for r in rows if r["converged"]),
                   key=lambda r: r["mean_dd_iterations"], default=None)
        if best is not None:
            print(f"fastest at kappa_plus_B={best['kappa_plus_B']:.4f} "
                  f"(strip mean conductivity {best['kappa_B_mean']:.4f})")
        emit_reports([], {}, cfg.outdir, config=cfg,
                     extra_tables={"kappa_plus_B_sweep": rows})
        print(f"reports written to {cfg.outdir}")
        return 0
    report = picard_two_level(cfg.geometry(), cfg.h_plus, cfg.h_minus, cfg.m,
                              curve_a, curve_b, nl, cfg.dd(),
                              problem=cfg.problem())
    print(f"picard converged={report.converged} in "
          f"{report.picard_iterations} updates "
          f"(dd sweeps {report.inner_dd_iterations}, "
          f"strip mean conductivity {report.kappa_B_mean:.4f}, "
          f"{report.wall_time:.2f}s)")
    print(f"T range: [{report.T_plus.min():.2f}, {report.T_plus.max():.2f}] K")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gldd",
        description="Two-mesh overlapping solver for layered diffusion "
                    "with strong coefficient contrast.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one coupled solve")
    _add_common(p)
    p.add_argument("--export-operators", action="store_true")
    p.add_argument("--export-solution", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="dump the full iteration report as JSON")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("spectrum", help="compute the iteration radius")
    _add_common(p)
    p.add_argument("--power", action="store_true",
                   help="also print the power-iteration estimate")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sweep-kappa", help="sweep the strip coefficient")
    _add_common(p)
    p.add_argument("--kappa-list", type=_float_list, default=None,
                   help="comma separated strip coefficients")
    p.set_defaults(func=_cmd_sweep_kappa)

    p = sub.add_parser("sweep-mesh", help="sweep the spacing ratio")
    _add_common(p)
    p.add_argument("--kappa-list", type=_float_list, default=None)
    p.add_argument("--mesh-ratios", type=_ratio_list, default=None,
                   help="comma separated spacing ratios, e.g. 2,4,8,16")
    p.set_defaults(func=_cmd_sweep_mesh)

    p = sub.add_parser("relax-study", help="compare relaxation weights")
    _add_common(p)
    p.add_argument("--theta-list", type=_float_list, default=None)
    p.set_defaults(func=_cmd_relax)

    p = sub.add_parser("compare-monolithic",
                       help="two-mesh solver vs one fitted mesh")
    _add_common(p)
    p.add_argument("--kappa-ratios", type=_float_list, default=(2.0, 3.0))
    p.add_argument("--mesh-ratios", dest="mesh_ratios_cmp",
                   type=_ratio_list, default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("nonlinear",
                       help="temperature dependent conductivities")
    _add_common(p)
    p.add_argument("--curve-a", default=None,
                   help="bulk conductivity: constant or CSV with columns "
                        "T,kappa")
    p.add_argument("--curve-b", default=None,
                   help="strip conductivity: constant or CSV with columns "
                        "T,kappa")
    p.add_argument("--kappa-plus-b", type=float, default=1.0,
                   help="frozen background coefficient inside the strip")
    p.add_argument("--picard-tol", type=float, default=1e-6)
    p.add_argument("--picard-max", type=int, default=100)
    p.add_argument("--sweep-kappa-plus-b", default=None, metavar="LO:HI:N",
                   help="geometric grid of background coefficients")
    p.set_defaults(func=_cmd_nonlinear)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GlddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
