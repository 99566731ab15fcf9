"""End-to-end acceptance checklist for the shipped solver.

Each test covers one numbered gate and prints a single verdict line
("[criterion NN] PASS/FAIL - detail") before asserting, so a plain
``pytest -v`` run doubles as a release checklist.  Gates that depend on
measured constants reuse the module-scoped kappa sweeps below instead of
re-running them per test.
"""

import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gldd.coupling import ProblemData
from gldd.dd_solver import (DDConfig, block_residual, make_iteration_operator,
                            neumann_partial_sum, run_two_level_dd, setup_case)
from gldd.errors import Diverged, MaxItersExceeded
from gldd.experiments import ExperimentConfig, sweep_kappa
from gldd.fem import (apply_dirichlet, assemble_load, assemble_stiffness,
                      build_dofmap, l2_error)
from gldd.linalg import SolverConfig, power_iteration_rho
from gldd.mesh import GeometryConfig, build_global_mesh
from gldd.nonlinear import (MaterialCurve, NonlinearConfig, picard_monolithic,
                            picard_two_level, sweep_kappa_plus_B)

GEOM = GeometryConfig()
H_PLUS = 1 / 160
T_D = 293.15
DIRECT = SolverConfig(method="direct")


def _verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _collect(ops, cfg, initial=None):
    # run to the iteration budget, keeping the partial report either way
    try:
        return run_two_level_dd(ops, cfg, initial=initial)
    except MaxItersExceeded as exc:
        return exc.report


def _case(kappa_minus, m=1, ratio=2, dim=2, problem=None):
    geom = GEOM if dim == 2 else GeometryConfig(dim=3)
    return setup_case(geom, H_PLUS, H_PLUS / ratio, m, 1.0, kappa_minus,
                      problem=problem)


@pytest.fixture(scope="module")
def m1_fits():
    out = {}
    for ratio in (2, 4, 8, 16):
        t0 = time.perf_counter()
        records, fit, _ = sweep_kappa(ExperimentConfig(
            m=1, h_minus=H_PLUS / ratio))
        out[ratio] = (records, fit, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def m2_fits():
    out = {}
    for ratio in (2, 4, 8):
        t0 = time.perf_counter()
        records, fit, _ = sweep_kappa(ExperimentConfig(
            m=2, h_minus=H_PLUS / ratio))
        out[ratio] = (records, fit, time.perf_counter() - t0)
    return out


def test_01_sweep_matches_gauss_seidel_recurrence():
    # ten relaxed sweeps against the raw factorized recurrence
    t0 = time.perf_counter()
    ops = _case(0.5)
    theta = 0.8
    report = _collect(ops, DDConfig(theta=theta, tol=1e-15, max_iters=10,
                                    store_iterates=True, solver=DIRECT))
    lu_p = spla.splu(ops.K_plus.tocsc())
    lu_m = spla.splu(ops.K_minus.tocsc())
    T = lu_p.solve(ops.f_plus)
    worst = np.abs(report.iterates[0] - T).max()
    for k in range(1, len(report.iterates)):
        T_m = lu_m.solve(ops.f_minus - ops.D @ T)
        T_t = lu_p.solve(ops.f_plus - ops.S @ T_m)
        T = theta * T_t + (1.0 - theta) * T
        worst = max(worst, np.abs(report.iterates[k] - T).max())
    elapsed = time.perf_counter() - t0
    ok = len(report.iterates) == 11 and worst <= 1e-12 and elapsed < 10.0
    _verdict(1, ok, f"10 iterates at theta=0.8, max componentwise "
                    f"deviation {worst:.2e} <= 1e-12, {elapsed:.1f}s")


def test_02_partial_sums_match_unrelaxed_iterates():
    t0 = time.perf_counter()
    ops = _case(0.5)
    report = _collect(ops, DDConfig(theta=1.0, tol=1e-15, max_iters=6,
                                    store_iterates=True, solver=DIRECT))
    worst = 0.0
    for k in range(1, 6):
        partial = neumann_partial_sum(ops, k, report.iterates[0])
        iterate = report.iterates[k]
        worst = max(worst, np.linalg.norm(partial - iterate)
                    / np.linalg.norm(iterate))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(2, ok, f"series partial sums k=1..5, max relative L2 "
                    f"deviation {worst:.2e} <= 1e-10, {elapsed:.1f}s")


def test_03_converged_points_satisfy_block_system():
    worst, n_checked = 0.0, 0
    for kappa_minus in ExperimentConfig().kappa_list:
        ops = _case(kappa_minus)
        try:
            report = run_two_level_dd(ops, DDConfig(tol=1e-8))
        except (Diverged, MaxItersExceeded):
            continue
        worst = max(worst, block_residual(ops, report.T_plus, report.T_minus))
        n_checked += 1
    ok = n_checked > 0 and worst <= 1e-7
    _verdict(3, ok, f"{n_checked} converged sweep points, worst relative "
                    f"block residual {worst:.2e} <= 1e-7")


def test_04_power_iteration_matches_dense_radius():
    worst, n_checked = 0.0, 0
    for dim, m in ((2, 1), (2, 2), (3, 1)):
        for kappa_minus in (0.5, 0.25, 2.0):
            ops = _case(kappa_minus, m=m, dim=dim)
            assert ops.n_plus <= 500
            for theta in (1.0, 0.5):
                rho_p, _ = power_iteration_rho(make_iteration_operator(ops),
                                               ops.n_plus, theta=theta,
                                               tol=1e-12, max_iters=5000)
                rho_d = ops.interface().rho(theta)
                worst = max(worst, abs(rho_p - rho_d) / rho_d)
                n_checked += 1
    ok = n_checked == 18 and worst <= 1e-6
    _verdict(4, ok, f"{n_checked} (mesh, ratio, theta) combinations, worst "
                    f"relative radius deviation {worst:.2e} <= 1e-6")


def test_05_radius_is_linear_in_coefficient_ratio(m1_fits, m2_fits):
    details, ok = [], True
    for m, table in ((1, m1_fits), (2, m2_fits)):
        for ratio in (2, 4, 8):
            _, fit, seconds = table[ratio]
            good = (abs(fit.b2) <= 1e-2 * abs(fit.b1)
                    and abs(fit.a0 + fit.a1) <= 1e-2 * abs(fit.a1)
                    and fit.r2_linear >= 0.999
                    and seconds < 300.0)
            ok = ok and good
            details.append(f"m{m}/r{ratio}: |b2/b1|={abs(fit.b2 / fit.b1):.1e}"
                           f" |a0+a1|/|a1|={abs(fit.a0 + fit.a1) / abs(fit.a1):.1e}"
                           f" R2={fit.r2_linear:.6f} {seconds:.1f}s")
    _verdict(5, ok, "; ".join(details))


def test_06_fit_predicts_iterations_and_divergence(m1_fits):
    _, fit, _ = m1_fits[2]
    c = fit.C_tilde
    counts, windows = [], []
    for rho_target in (0.25, 0.5, 0.75, 0.95):
        ops = _case(1.0 + rho_target / c)
        rho_measured, _ = power_iteration_rho(make_iteration_operator(ops),
                                              ops.n_plus, tol=1e-10,
                                              max_iters=5000)
        report = run_two_level_dd(ops, DDConfig(tol=1e-8))
        counts.append(report.iterations)
        if 0.2 <= rho_measured <= 0.97:
            predicted = np.log(1e-8) / np.log(rho_measured)
            windows.append(abs(report.iterations / predicted - 1.0) <= 0.30)
    increasing = all(a < b for a, b in zip(counts, counts[1:]))
    try:
        run_two_level_dd(_case(1.0 + 1.05 / c), DDConfig(tol=1e-8))
        flagged = False
    except Diverged:
        flagged = True
    ok = increasing and windows and all(windows) and flagged
    _verdict(6, ok, f"iterations {counts} strictly increasing, "
                    f"{sum(windows)}/{len(windows)} counts within 30% of "
                    f"log(1e-8)/log(rho), divergence flagged at predicted "
                    f"rho=1.05")


def test_07_relaxation_restores_convergence(m2_fits):
    _, fit, _ = m2_fits[8]
    x = 1.0 + 1.02 / fit.C_tilde
    ops = _case(x, m=2, ratio=8)
    with pytest.raises((Diverged, MaxItersExceeded)):
        run_two_level_dd(ops, DDConfig(tol=1e-8))
    theta = 1.0 / x
    report = run_two_level_dd(ops, DDConfig(theta=theta, tol=1e-8))
    ok = report.converged and report.iterations <= 50
    _verdict(7, ok, f"ratio {x:.3f} (predicted rho 1.02) diverges unrelaxed, "
                    f"converges in {report.iterations} <= 50 iterations at "
                    f"theta={theta:.3f}")


def test_08_fitted_constant_growth_per_doubling(m1_fits):
    # Gate expects near-constant per-doubling increments of the fitted
    # constant (logarithmic growth in the mesh ratio).  The measured
    # increments keep shrinking instead: with both coarse spaces held
    # fixed, refining only the strip saturates the coupling, so this
    # build fails the spread gate honestly rather than relaxing it.
    cs = {r: m1_fits[r][1].C_tilde for r in (2, 4, 8, 16)}
    seconds = sum(m1_fits[r][2] for r in (2, 4, 8, 16))
    increments = np.diff([cs[r] for r in (2, 4, 8, 16)])
    spread = increments[1:].max() / increments[1:].min()
    ok = bool(spread <= 1.25) and seconds < 900.0
    _verdict(8, ok, f"C across ratios 2..16 = "
                    f"{[round(cs[r], 4) for r in (2, 4, 8, 16)]}, "
                    f"increments {np.round(increments, 4).tolist()}, "
                    f"spread after first doubling {spread:.2f} <= 1.25, "
                    f"{seconds:.0f}s")


def test_09_energy_seminorm_contracts_from_random_start():
    worst = 0.0
    problem = ProblemData(f=0.0, q=0.0, T_D=0.0)
    for kappa_minus in (0.5, 1.5):
        ops = _case(kappa_minus, problem=problem)
        rng = np.random.default_rng(0)
        start = rng.standard_normal(ops.n_plus)
        start[ops.global_dirichlet] = 0.0
        report = _collect(ops, DDConfig(max_iters=10, store_iterates=True),
                          initial=start)
        energies = [np.sqrt(v @ (ops.K_plus @ v)) for v in report.iterates]
        ratios = np.array(energies[1:]) / np.array(energies[:-1])
        worst = max(worst, ratios.max())
    ok = worst < 1.0
    _verdict(9, ok, f"homogeneous-data runs from a random start, worst "
                    f"energy ratio of consecutive iterates {worst:.4f} < 1")


def test_10_manufactured_solution_order():
    t0 = time.perf_counter()
    slopes, ok = {}, True
    for m in (1, 2):
        errs, hs = [], []
        for n in (4, 8, 16):
            mesh = build_global_mesh(GEOM, GEOM.L / n)
            dof = build_dofmap(mesh, m)
            exact = lambda x: np.sin(np.pi * x[..., 0] / GEOM.L) * \
                np.sin(np.pi * x[..., 1] / GEOM.H)
            f = lambda x: np.pi ** 2 * (1 / GEOM.L ** 2
                                        + 1 / GEOM.H ** 2) * exact(x)
            K = assemble_stiffness(dof, 1.0)
            b = assemble_load(mesh, dof, f=f)
            walls = np.unique(np.concatenate(
                [dof.facet_dofs(facet) for facet in mesh.facet_vertices]))
            K, b = apply_dirichlet(K, b, walls, 0.0)
            T = spla.spsolve(K.tocsc(), b)
            errs.append(l2_error(dof, T, exact))
            hs.append(GEOM.L / n)
        slopes[m] = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        ok = ok and slopes[m] >= m + 0.9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _verdict(10, ok, f"L2 orders m=1: {slopes[1]:.2f} >= 1.9, "
                     f"m=2: {slopes[2]:.2f} >= 2.9, {elapsed:.1f}s")


def test_11_nonlinear_routes_agree_and_sweep_minimum():
    curve_a = MaterialCurve.constant(1.0)
    curve_b = MaterialCurve([290.0, 430.0], [0.65, 0.35])
    nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-8)

    # route agreement on a smooth interior source both meshes resolve
    sigma = GEOM.L / 6.0

    def f_src(x):
        r2 = (x[..., 0] - GEOM.L / 2) ** 2 + (x[..., 1] - 0.75 * GEOM.H) ** 2
        return 4e5 * np.exp(-r2 / (2 * sigma ** 2))

    problem = ProblemData(f=f_src, q=0.0)
    dd = picard_two_level(GEOM, H_PLUS, H_PLUS / 2, 1, curve_a, curve_b, nl,
                          problem=problem)
    mono = picard_monolithic(GEOM, H_PLUS, H_PLUS / 2, 1, curve_a, curve_b,
                             nl, problem=problem)
    gap = abs(dd.T_minus.max() - mono.T.max())
    # discretization part of the budget: the same two routes at the frozen
    # mean coefficient differ purely by mesh, 3x covers feedback through
    # the temperature-dependent coefficient
    frozen = MaterialCurve.constant(dd.kappa_B_mean)
    dd_lin = picard_two_level(GEOM, H_PLUS, H_PLUS / 2, 1, curve_a, frozen,
                              nl, problem=problem)
    mono_lin = picard_monolithic(GEOM, H_PLUS, H_PLUS / 2, 1, curve_a,
                                 frozen, nl, problem=problem)
    gap_lin = abs(dd_lin.T_minus.max() - mono_lin.T.max())
    scale = dd.T_minus.max() - T_D
    budget = 10 * nl.picard_tol * scale + 3.0 * gap_lin
    agree = gap <= budget

    # sweep of the extension coefficient: fastest run sits at the grid
    # value nearest the mean strip conductivity
    values = np.geomspace(0.3, 0.8, 6)
    rows = sweep_kappa_plus_B(GEOM, H_PLUS, H_PLUS / 2, 1, curve_a, curve_b,
                              values, nl_base=NonlinearConfig(picard_tol=1e-8))
    converged = [r for r in rows if r["converged"]]
    mean_kb = np.mean([r["kappa_B_mean"] for r in converged])
    argmin = int(np.argmin([r["mean_dd_iterations"] for r in rows]))
    nearest = int(np.argmin(np.abs(values - mean_kb)))
    minimum_ok = (len(converged) == len(rows)
                  and abs(argmin - nearest) <= 1)

    ok = agree and minimum_ok
    _verdict(11, ok, f"route gap {gap:.3f}K <= budget {budget:.3f}K "
                     f"(frozen-coefficient gap {gap_lin:.3f}K); sweep "
                     f"minimum at {values[argmin]:.3f}, mean strip "
                     f"conductivity {mean_kb:.3f} nearest {values[nearest]:.3f}")


def test_12_three_dimensional_case():
    t0 = time.perf_counter()
    ops = _case(0.5, dim=3)
    report = run_two_level_dd(ops, DDConfig(tol=1e-8))
    residual = block_residual(ops, report.T_plus, report.T_minus)
    elapsed = time.perf_counter() - t0
    ok = report.converged and residual <= 1e-7 and elapsed < 300.0
    _verdict(12, ok, f"3D case converged in {report.iterations} iterations, "
                     f"relative block residual {residual:.2e} <= 1e-7, "
                     f"{elapsed:.1f}s")
