"""Command line front end.

Subcommands map one-to-one onto the study functions; a JSON config can
seed any run and individual flags override it.  Each subcommand takes
only the shared flags that its run reads.  Exits 1 when a run stops
early (an IterationFailure) and 2 on a usage error or any other package
error, invalid config values and keys included.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from .coupling import interface_trace_gap
from .dd_solver import (export_solution_csv, make_iteration_operator,
                        run_two_level_dd)
from .errors import (COUNT, GlddError, InvalidConfig, IterationFailure,
                     NoConvergence, check_number)
from .experiments import (ExperimentConfig, _json_object, compare_monolithic,
                          emit_reports, relaxation_study, run_case,
                          sweep_kappa, sweep_mesh_ratio)
from .fem import DEGREES, export_matrix
from .linalg import METHODS, PRECONDITIONERS, power_iteration_rho
from .mesh import DIMS
from .nonlinear import (MaterialCurve, NonlinearConfig, picard_two_level,
                        sweep_kappa_plus_B)


def fraction(text: str) -> float:
    """Parse '1/160' or '0.00625' into a float; a ValueError, which argparse
    reports as a usage error, for anything else, '1/0' included."""
    try:
        return float(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _ratio_list(text: str):
    return tuple(int(tok) for tok in text.split(","))


def _float_list(text: str):
    return tuple(fraction(tok) for tok in text.split(","))


def _range_spec(text: str):
    """lo:hi:n geometric grid of n >= 1 points, e.g. '0.5:8:7'; a
    ValueError, a usage error to argparse, for anything else."""
    lo, hi, n = text.split(":")
    check_number("N", int(n), COUNT)
    return np.geomspace(float(lo), float(hi), int(n))


# the flags the subcommands share
_COMMON = (
    ("--config", dict(type=Path,
                      help="JSON file with ExperimentConfig fields")),
    ("--dim", dict(type=int, choices=DIMS)),
    ("--degree", dict(dest="m", type=int, choices=DEGREES)),
    ("--h-plus", dict(type=fraction)),
    ("--h-minus", dict(type=fraction)),
    ("--kappa-plus", dict(type=float)),
    ("--kappa-minus", dict(type=float)),
    ("--theta", dict(type=float)),
    ("--alpha", dict(type=float)),
    ("--tol", dict(type=float)),
    ("--max-iters", dict(type=int)),
    ("--solver", dict(dest="solver_method", choices=tuple(METHODS))),
    ("--preconditioner", dict(choices=PRECONDITIONERS)),
    ("--outdir", {}),
)


def _add_common(p: argparse.ArgumentParser, unread=()):
    """The shared flags but those in unread, which the subcommand's run
    does not read, so that passing one is a usage error."""
    for flag, kwargs in _COMMON:
        if flag not in unread:
            p.add_argument(flag, default=None, **kwargs)


# the config field each shared flag sets, and the seed, which only the
# subcommand that registers --seed reads
_FLAG_FIELDS = tuple(kwargs.get("dest", flag[2:].replace("-", "_"))
                     for flag, kwargs in _COMMON
                     if flag != "--config") + ("seed",)


def _config_from(args) -> ExperimentConfig:
    # a flag overrides the config field its destination is named after
    overrides = {f.name: getattr(args, f.name, None)
                 for f in fields(ExperimentConfig)}
    if args.config is None:
        return ExperimentConfig(**{k: v for k, v in overrides.items()
                                   if v is not None})
    # a flag the subcommand does not register sets a field its run does
    # not read, and a config file may not set that field either
    keys = _json_object(args.config)
    unread = [name for name in _FLAG_FIELDS
              if name in keys and not hasattr(args, name)]
    if unread:
        note = getattr(args, "unread_note", None)
        raise InvalidConfig(
            f"config file {args.config}: {args.command} reads no "
            f"{', '.join(unread)}" + (f"; {note}" if note else ""))
    return ExperimentConfig.from_json(args.config, **overrides)


def _cmd_solve(args) -> int:
    cfg = _config_from(args)
    ops = cfg.operators()
    report = run_two_level_dd(ops, cfg.dd())
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
        export_solution_csv(ops.global_dofmap, report.T_plus,
                            out / "T_plus.csv")
        export_solution_csv(ops.local_dofmap, report.T_minus,
                            out / "T_minus.csv")
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
        line = f"C={fit.C_tilde:.4f} (linear fit r2={fit.r2_linear:.5f})"
        if fit.C_tilde > 0:
            print(f"{line}; predicted divergence beyond ratio "
                  f"{fit.divergence_threshold():.3f}")
        else:
            warnings.append(f"{line}: the slope constant is not positive, "
                            "so no divergence threshold is predicted")
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
    print(f"reports written to {cfg.outdir}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _config_from(args)
    rows = compare_monolithic(cfg, kappa_ratios=args.kappa_ratios)
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
    try:
        value = float(fallback if spec is None else spec)
    except ValueError:
        return MaterialCurve.from_csv(spec)
    return MaterialCurve.constant(value)


def _cmd_nonlinear(args) -> int:
    cfg = _config_from(args)
    curve_a = _curve(args.curve_a, cfg.kappa_plus)
    curve_b = _curve(args.curve_b, cfg.kappa_minus)
    # NonlinearConfig owns the defaults; only the flags given override them
    given = {"kappa_plus_B": args.kappa_plus_b, "picard_tol": args.picard_tol,
             "picard_max": args.picard_max}
    nl = NonlinearConfig(**{k: v for k, v in given.items() if v is not None})
    if args.sweep_kappa_plus_b is not None:
        rows = sweep_kappa_plus_B(cfg.geometry(), cfg.h_plus, cfg.h_minus,
                                  cfg.m, curve_a, curve_b,
                                  args.sweep_kappa_plus_b, nl, cfg.dd(),
                                  problem=cfg.problem())
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
    print(f"picard converged in {report.picard_iterations} updates "
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
    # flags are spelled out: an abbreviation would let an unregistered
    # flag through as another one (relax-study --theta as --theta-list)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("solve", help="run one coupled solve")
    _add_common(p)
    p.add_argument("--export-operators", action="store_true")
    p.add_argument("--export-solution", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="dump the full iteration report as JSON")
    p.set_defaults(func=_cmd_solve)

    p = add_parser("spectrum", help="compute the iteration radius")
    _add_common(p, unread=("--outdir",))
    p.add_argument("--power", action="store_true",
                   help="also print the power-iteration estimate")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the power iteration's start vector")
    p.set_defaults(func=_cmd_spectrum)

    p = add_parser("sweep-kappa", help="sweep the strip coefficient")
    _add_common(p, unread=("--kappa-minus",))
    p.add_argument("--kappa-list", type=_float_list, default=None,
                   help="comma separated strip coefficients")
    p.set_defaults(func=_cmd_sweep_kappa)

    p = add_parser("sweep-mesh", help="sweep the spacing ratio")
    _add_common(p, unread=("--kappa-minus", "--h-minus"))
    p.add_argument("--kappa-list", type=_float_list, default=None)
    p.add_argument("--mesh-ratios", type=_ratio_list, default=None,
                   help="comma separated spacing ratios, e.g. 2,4,8,16")
    p.set_defaults(func=_cmd_sweep_mesh)

    p = add_parser("relax-study", help="compare relaxation weights")
    _add_common(p, unread=("--theta",))
    p.add_argument("--theta-list", type=_float_list, default=None)
    p.set_defaults(func=_cmd_relax)

    p = add_parser("compare-monolithic",
                   help="two-mesh solver vs one fitted mesh")
    _add_common(p, unread=("--kappa-minus", "--h-minus", "--solver",
                           "--preconditioner"))
    p.add_argument("--kappa-ratios", type=_float_list, default=None,
                   help="comma separated coefficient ratios (default 2,3)")
    p.add_argument("--mesh-ratios", type=_ratio_list, default=None)
    p.set_defaults(func=_cmd_compare)

    p = add_parser("nonlinear", help="temperature dependent conductivities")
    _add_common(p, unread=("--alpha",))
    p.add_argument("--curve-a", default=None,
                   help="bulk conductivity: constant or CSV with columns "
                        "T,kappa")
    p.add_argument("--curve-b", default=None,
                   help="strip conductivity: constant or CSV with columns "
                        "T,kappa")
    p.add_argument("--kappa-plus-b", type=float, default=None,
                   help="frozen background coefficient inside the strip")
    p.add_argument("--picard-tol", type=float, default=None)
    p.add_argument("--picard-max", type=int, default=None)
    p.add_argument("--sweep-kappa-plus-b", type=_range_spec, metavar="LO:HI:N",
                   help="geometric grid of background coefficients")
    p.set_defaults(func=_cmd_nonlinear,
                   unread_note="Picard steps use the per-cell default "
                               "penalty 1e6 * max(kappa_minus) / h_minus")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IterationFailure as exc:
        # a run that stopped early: diverged, out of sweeps or stalled
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except GlddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
