"""Alternating iteration, closed-form equivalents and the fitted reference."""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from gldd.coupling import ProblemData
from gldd.dd_solver import (DDConfig, DDReport, block_residual,
                            export_solution_csv, make_iteration_operator,
                            neumann_partial_sum, run_coupled_direct,
                            run_fitted_reference, run_two_level_dd,
                            setup_case)
from gldd.errors import Diverged, MaxItersExceeded
from gldd.fem import evaluate_field
from gldd.linalg import LinearSolver, SolverConfig
from gldd.mesh import GeometryConfig

GEOM = GeometryConfig()
T_D = 293.15


def make_ops(kappa_minus=0.5, kappa_plus=1.0, m=1, problem=None, dim=2):
    geom = GEOM if dim == 2 else GeometryConfig(dim=3)
    return setup_case(geom, 1 / 160, 1 / 320, m, kappa_plus, kappa_minus,
                      problem=problem)


class TestSweepBasics:
    def test_step0_homogeneous_data_is_wall_temperature(self):
        ops = make_ops(problem=ProblemData(f=0.0, q=0.0))
        T0 = run_two_level_dd(ops, DDConfig(store_iterates=True)).iterates[0]
        np.testing.assert_allclose(T0, T_D, rtol=1e-12)

    def test_matching_coefficients_converge_immediately(self):
        # S vanishes, so the first sweep reproduces the start iterate
        report = run_two_level_dd(make_ops(kappa_minus=1.0))
        assert report.converged and report.iterations == 1

    def test_matches_explicit_gauss_seidel(self):
        # mirror the sweep with raw factorizations, theta = 0.6
        ops = make_ops()
        theta = 0.6
        report = run_two_level_dd(ops, DDConfig(theta=theta, tol=1e-10,
                                                store_iterates=True))
        lu_p = spla.splu(ops.K_plus.tocsc())
        lu_m = spla.splu(ops.K_minus.tocsc())
        T = lu_p.solve(ops.f_plus)
        np.testing.assert_allclose(report.iterates[0], T, rtol=0, atol=1e-12)
        for k in range(1, 4):
            Tm = lu_m.solve(ops.f_minus - ops.D @ T)
            Tt = lu_p.solve(ops.f_plus - ops.S @ Tm)
            T = theta * Tt + (1.0 - theta) * T
            np.testing.assert_allclose(report.iterates[k], T, rtol=0,
                                       atol=1e-9 * np.abs(T).max())

    def test_matches_partial_geometric_series(self):
        ops = make_ops()
        report = run_two_level_dd(ops, DDConfig(tol=1e-10,
                                                store_iterates=True))
        T0 = report.iterates[0]
        for k in range(4):
            closed = neumann_partial_sum(ops, k, T0)
            np.testing.assert_allclose(report.iterates[k], closed,
                                       rtol=1e-10,
                                       atol=1e-9 * np.abs(closed).max())

    def test_iterate_bookkeeping(self):
        report = run_two_level_dd(make_ops(), DDConfig(store_iterates=True))
        assert len(report.iterates) == report.iterations + 1
        assert report.residual_history.shape == (report.iterations,)
        assert report.rho_estimate is not None
        assert report.inner_iterations == {"local": 0, "global": 0}


@settings(max_examples=15, deadline=None, database=None)
@given(kappa_minus=st.floats(1 / 256, 16.0), m=st.sampled_from([1, 2]),
       ratio=st.integers(2, 8))
def test_blocks_symmetric_with_positive_diagonal(kappa_minus, m, ratio):
    ops = setup_case(GEOM, 1 / 160, 1 / (160 * ratio), m, 1.0, kappa_minus)
    for K in (ops.K_plus, ops.K_minus):
        assert abs(K - K.T).max() <= 1e-14 * abs(K).max()
        assert K.diagonal().min() > 0


def test_shared_solvers_count_own_inner_iterations():
    # runs that share a solver pair report what each run spent, the same
    # as a run on solvers of its own
    ops = make_ops()
    config = DDConfig(solver=SolverConfig(method="cg"))
    alone = run_two_level_dd(ops, config)
    solvers = (LinearSolver(ops.K_plus, config.solver),
               LinearSolver(ops.K_minus, config.solver))
    for _ in range(2):
        shared = run_two_level_dd(ops, config, solvers=solvers)
        assert shared.inner_iterations == alone.inner_iterations
        np.testing.assert_array_equal(shared.T_plus, alone.T_plus)


class TestFixedPoint:
    def test_direct_solution_is_stationary(self):
        ops = make_ops()
        Tp, Tm = run_coupled_direct(ops)
        assert block_residual(ops, Tp, Tm) < 1e-10
        report = run_two_level_dd(ops, DDConfig(tol=1e-6), initial=Tp)
        assert report.iterations == 1
        np.testing.assert_allclose(report.T_plus, Tp,
                                   rtol=0, atol=1e-8 * np.abs(Tp).max())

    def test_converged_sweep_agrees_with_direct(self):
        ops = make_ops()
        report = run_two_level_dd(ops, DDConfig(tol=1e-10))
        Tp, Tm = run_coupled_direct(ops)
        np.testing.assert_allclose(report.T_plus, Tp, rtol=1e-8)
        np.testing.assert_allclose(report.T_minus, Tm, rtol=1e-8)
        assert block_residual(ops, report.T_plus, report.T_minus) < 1e-9

    def test_arbitrary_start_reaches_same_fixed_point(self):
        ops = make_ops()
        report = run_two_level_dd(ops, DDConfig(tol=1e-10),
                                  initial=np.zeros(ops.n_plus))
        Tp, _ = run_coupled_direct(ops)
        np.testing.assert_allclose(report.T_plus, Tp, rtol=1e-7)

    def test_iteration_operator_matches_factorized_product(self):
        ops = make_ops()
        apply_M = make_iteration_operator(ops)
        lu_p = spla.splu(ops.K_plus.tocsc())
        lu_m = spla.splu(ops.K_minus.tocsc())
        rng = np.random.default_rng(5)
        v = rng.standard_normal(ops.n_plus)
        want = lu_p.solve(ops.S @ lu_m.solve(ops.D @ v))
        np.testing.assert_allclose(apply_M(v), want, rtol=1e-12,
                                   atol=1e-15)


class TestFailureModes:
    def test_divergence_raises_with_partial_report(self):
        # far beyond the stability limit of the unrelaxed sweep
        ops = make_ops(kappa_minus=12.0)
        with pytest.raises(Diverged) as info:
            run_two_level_dd(ops, DDConfig(max_iters=500))
        report = info.value.report
        assert report is not None and not report.converged
        assert report.iterations < 500

    def test_relaxation_rescues_divergent_ratio(self):
        ops = make_ops(kappa_minus=12.0)
        report = run_two_level_dd(ops, DDConfig(theta=0.25, max_iters=300))
        assert report.converged
        Tp, _ = run_coupled_direct(ops)
        np.testing.assert_allclose(report.T_plus, Tp, rtol=1e-6)

    def test_max_iters_raises_with_partial_report(self):
        ops = make_ops()
        with pytest.raises(MaxItersExceeded) as info:
            run_two_level_dd(ops, DDConfig(tol=1e-16, max_iters=3))
        assert info.value.report.iterations == 3
        assert len(info.value.report.residual_history) == 3

    @pytest.mark.parametrize("error,kappa_minus,config", [
        (Diverged, 12.0, DDConfig(max_iters=500)),
        (MaxItersExceeded, 0.5, DDConfig(tol=1e-16, max_iters=3))])
    def test_failed_reports_carry_inner_iterations(self, error, kappa_minus,
                                                   config):
        ops = make_ops(kappa_minus=kappa_minus)
        cg = SolverConfig(method="cg")
        solvers = (LinearSolver(ops.K_plus, cg), LinearSolver(ops.K_minus, cg))
        with pytest.raises(error) as info:
            run_two_level_dd(ops, config, solvers=solvers)
        assert info.value.report.inner_iterations == {
            "local": solvers[1].total_iterations,
            "global": solvers[0].total_iterations}
        assert solvers[1].total_iterations > 0

    @pytest.mark.parametrize("theta", [0.0, -0.5, float("nan")])
    def test_nonpositive_theta_rejected(self, theta):
        # at theta = 0 every step is zero, and the first sweep would report
        # convergence on the initial iterate
        with pytest.raises(ValueError, match="theta"):
            DDConfig(theta=theta)


class TestFittedReference:
    def test_agrees_with_coupled_fields(self):
        # same physics, two different discretizations; compare the excess
        # over the wall temperature at interior points of both regions
        ops = make_ops()
        report = run_two_level_dd(ops)
        fitted = run_fitted_reference(GEOM, 1 / 160, 1 / 320, 1.0, 0.5, 1)
        L, H, Hm = GEOM.L, GEOM.H, GEOM.H_minus
        bulk = np.array([[L / 2, H / 2], [L / 2, H / 4], [L / 4, H / 2]])
        strip = np.array([[L / 2, H - Hm / 2], [L / 4, H - Hm / 2]])
        f_bulk = evaluate_field(fitted.mesh, fitted.dofmap, fitted.T, bulk) - T_D
        g_bulk = evaluate_field(ops.global_mesh, ops.global_dofmap,
                                report.T_plus, bulk) - T_D
        np.testing.assert_allclose(g_bulk, f_bulk, rtol=0.15)
        f_strip = evaluate_field(fitted.mesh, fitted.dofmap, fitted.T, strip) - T_D
        l_strip = evaluate_field(ops.local_mesh, ops.local_dofmap,
                                 report.T_minus, strip) - T_D
        np.testing.assert_allclose(l_strip, f_strip, rtol=0.15)
        # hottest point sits in the strip under the beam on both meshes
        assert (report.T_minus.max() - T_D) == pytest.approx(
            fitted.T.max() - T_D, rel=0.05)

    def test_graded_mode_matches_uniform_field(self):
        uni = run_fitted_reference(GEOM, 1 / 160, 1 / 320, 1.0, 0.5, 1,
                                   refinement_mode="uniform-fine")
        gra = run_fitted_reference(GEOM, 1 / 160, 1 / 320, 1.0, 0.5, 1,
                                   refinement_mode="graded")
        assert gra.n_dofs < uni.n_dofs
        pts = np.array([[GEOM.L / 2, GEOM.H - GEOM.H_minus / 2],
                        [GEOM.L / 2, GEOM.H / 2]])
        u = evaluate_field(uni.mesh, uni.dofmap, uni.T, pts) - T_D
        g = evaluate_field(gra.mesh, gra.dofmap, gra.T, pts) - T_D
        np.testing.assert_allclose(g, u, rtol=0.1)


class TestReporting:
    def test_report_json_roundtrip(self, tmp_path):
        report = run_two_level_dd(make_ops())
        path = tmp_path / "report.json"
        text = report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload == json.loads(text)
        assert payload["converged"] is True
        assert payload["iterations"] == report.iterations
        assert payload["n_plus"] == report.T_plus.shape[0]
        assert len(payload["residual_history"]) == report.iterations

    def test_export_solution_csv(self, tmp_path):
        ops = make_ops()
        report = run_two_level_dd(ops)
        path = tmp_path / "T_plus.csv"
        export_solution_csv(ops.global_mesh, ops.global_dofmap,
                            report.T_plus, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dof,x,y,value"
        assert len(lines) == ops.global_dofmap.n_dofs + 1
        k = 7
        cells = lines[k + 1].split(",")
        assert int(cells[0]) == k
        np.testing.assert_allclose(
            [float(cells[1]), float(cells[2])],
            ops.global_dofmap.dof_coords[k])
        assert float(cells[3]) == report.T_plus[k]
