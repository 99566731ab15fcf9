"""Temperature-dependent conductivity and the outer Picard loop."""

import numpy as np
import pytest

import gldd.coupling as coupling
import gldd.dd_solver as dd_solver
import gldd.nonlinear as nonlinear
from gldd.coupling import ProblemData
from gldd.dd_solver import DDConfig, run_two_level_dd, setup_case
from gldd.errors import NonpositiveCoefficient, PicardNoConvergence
from gldd.linalg import SolverConfig
from gldd.fem import build_dofmap, evaluate_field
from gldd.mesh import GeometryConfig, build_global_mesh, interface_facets
from gldd.nonlinear import (MaterialCurve, NonlinearConfig,
                            cell_midpoint_values, picard_monolithic,
                            picard_two_level, sweep_kappa_plus_B)

GEOM = GeometryConfig()
T_D = 293.15


class TestMaterialCurve:
    def test_interpolation_and_clamping(self):
        curve = MaterialCurve([300.0, 400.0, 500.0], [1.0, 0.8, 0.7])
        assert curve(300.0) == 1.0
        assert curve(350.0) == pytest.approx(0.9)
        assert curve(450.0) == pytest.approx(0.75)
        # constant extrapolation outside the table
        assert curve(100.0) == 1.0
        assert curve(1e4) == 0.7
        np.testing.assert_allclose(curve([250.0, 400.0, 600.0]),
                                   [1.0, 0.8, 0.7])

    def test_constant(self):
        curve = MaterialCurve.constant(0.45)
        np.testing.assert_allclose(curve([0.0, 293.15, 1e5]), 0.45)

    def test_from_csv_roundtrip(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("T,kappa\n400,0.8\n300,1.0\n500,0.7\n")
        curve = MaterialCurve.from_csv(path)
        np.testing.assert_array_equal(curve.T, [300.0, 400.0, 500.0])
        np.testing.assert_array_equal(curve.k, [1.0, 0.8, 0.7])

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            MaterialCurve([300.0, 300.0], [1.0, 0.9])
        with pytest.raises(ValueError):
            MaterialCurve([300.0], [1.0, 0.9])
        with pytest.raises(NonpositiveCoefficient):
            MaterialCurve([300.0, 400.0], [1.0, 0.0])

    def test_from_csv_header_check(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("temp,k\n300,1.0\n")
        with pytest.raises(ValueError):
            MaterialCurve.from_csv(path)


class TestMidpointValues:
    def test_linear_field_exact_at_centroids(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dofmap = build_dofmap(mesh, 1)
        coeffs = 2.0 + 3.0 * dofmap.dof_coords[:, 0] - dofmap.dof_coords[:, 1]
        centroids = mesh.vertices[mesh.cells].mean(axis=1)
        want = 2.0 + 3.0 * centroids[:, 0] - centroids[:, 1]
        np.testing.assert_allclose(cell_midpoint_values(mesh, dofmap, coeffs),
                                   want, rtol=1e-13)


CURVE_B = MaterialCurve([290.0, 430.0], [0.65, 0.35])


class TestPicardTwoLevel:
    def test_constant_curves_reduce_to_linear_solve(self):
        # frozen coefficients never change, so the loop must settle on the
        # plain piecewise-constant solution in exactly two outer steps
        nl = NonlinearConfig(kappa_plus_B=1.0, picard_tol=1e-8)
        rep = picard_two_level(GEOM, 1 / 160, 1 / 320, 1,
                               MaterialCurve.constant(1.0),
                               MaterialCurve.constant(0.5), nl)
        assert rep.converged and rep.picard_iterations == 2
        ops = setup_case(GEOM, 1 / 160, 1 / 320, 1, 1.0, 0.5)
        linear = run_two_level_dd(ops, DDConfig(tol=1e-10))
        np.testing.assert_allclose(rep.T_plus, linear.T_plus, rtol=1e-7)
        np.testing.assert_allclose(rep.T_minus, linear.T_minus, rtol=1e-7)
        assert rep.kappa_B_mean == pytest.approx(0.5)

    def test_matching_extension_makes_inner_trivial(self):
        # kappa_plus_B equal to the (constant) strip conductivity clears
        # every jump weight, so each inner run stops after one sweep
        nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-8)
        rep = picard_two_level(GEOM, 1 / 160, 1 / 320, 1,
                               MaterialCurve.constant(1.0),
                               MaterialCurve.constant(0.5), nl)
        assert rep.converged
        assert all(n == 1 for n in rep.inner_dd_iterations)

    def test_temperature_dependent_strip(self):
        nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-8)
        rep = picard_two_level(GEOM, 1 / 160, 1 / 320, 1,
                               MaterialCurve.constant(1.0), CURVE_B, nl)
        assert rep.converged and rep.picard_iterations > 2
        assert 0.35 < rep.kappa_B_mean < 0.65
        # self-consistency: the reported mean matches the curve at the
        # final strip temperatures
        Tl = cell_midpoint_values(rep.local_mesh, rep.local_dofmap,
                                  rep.T_minus)
        assert rep.kappa_B_mean == pytest.approx(float(np.mean(CURVE_B(Tl))))

    def test_one_geometry_build_per_run(self, monkeypatch):
        # every outer step rebuilds the operators on the same meshes, which
        # keep the coefficient-free terms of the first step
        counts = {"mesh": 0, "interface": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(dd_solver, "build_global_mesh",
                            counting("mesh", dd_solver.build_global_mesh))
        monkeypatch.setattr(coupling, "_Interface",
                            counting("interface", coupling._Interface))
        nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-8)
        rep = picard_two_level(GEOM, 1 / 160, 1 / 320, 1,
                               MaterialCurve.constant(1.0), CURVE_B, nl)
        assert rep.picard_iterations > 2
        assert counts == {"mesh": 1, "interface": 1}

    def test_gamma_temperatures_match_field_at_facet_midpoints(
            self, monkeypatch):
        # each step's jump weights read the previous strip iterate at the
        # gamma facet midpoints, from the facet dofs without locating them
        weights, reports = [], []
        build, run = (nonlinear.build_coupled_operators,
                      nonlinear.run_two_level_dd)

        def recording_build(*args, **kwargs):
            weights.append(kwargs["jump_facet_weights"])
            return build(*args, **kwargs)

        def recording_run(*args, **kwargs):
            reports.append(run(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(nonlinear, "build_coupled_operators",
                            recording_build)
        monkeypatch.setattr(nonlinear, "run_two_level_dd", recording_run)
        nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-8)
        rep = picard_two_level(GEOM, 1 / 160, 1 / 320, 2,
                               MaterialCurve.constant(1.0), CURVE_B, nl)
        lm, ld = rep.local_mesh, rep.local_dofmap
        mids = np.array([lm.vertices[list(f)].mean(axis=0)
                         for f, _n in interface_facets(lm)])
        assert len(weights) > 2
        # without damping each step starts from the last report's iterate
        for w, prev in zip(weights[1:], reports):
            want = 0.5 - CURVE_B(evaluate_field(lm, ld, prev.T_minus, mids))
            np.testing.assert_allclose(w, want, rtol=1e-13, atol=1e-15)

    def test_damping_reaches_same_fixed_point(self):
        nl_full = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-10)
        nl_damped = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-10,
                                    damping=0.5)
        a = picard_two_level(GEOM, 1 / 160, 1 / 320, 1,
                             MaterialCurve.constant(1.0), CURVE_B, nl_full)
        b = picard_two_level(GEOM, 1 / 160, 1 / 320, 1,
                             MaterialCurve.constant(1.0), CURVE_B, nl_damped)
        assert b.picard_iterations >= a.picard_iterations
        np.testing.assert_allclose(b.T_plus, a.T_plus, rtol=1e-6)

    @pytest.mark.parametrize("damping", [0.0, -0.5, float("nan")])
    def test_nonpositive_damping_rejected(self, damping):
        # at damping = 0 the first step leaves the start iterate in place,
        # a change of 0 that would read as convergence at the wall value
        with pytest.raises(ValueError, match="damping"):
            NonlinearConfig(damping=damping)

    def test_budget_exhaustion_raises(self):
        nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-6, picard_max=1)
        with pytest.raises(PicardNoConvergence) as info:
            picard_two_level(GEOM, 1 / 160, 1 / 320, 1,
                             MaterialCurve.constant(1.0), CURVE_B, nl)
        report = info.value.report
        assert not report.converged and report.picard_iterations == 1
        assert len(report.history) == 1 and report.T_plus is not None


class TestPicardMonolithic:
    def test_agrees_with_two_level_in_excess_units(self):
        nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-8)
        dd_rep = picard_two_level(GEOM, 1 / 160, 1 / 320, 1,
                                  MaterialCurve.constant(1.0), CURVE_B, nl)
        mono = picard_monolithic(GEOM, 1 / 160, 1 / 320, 1,
                                 MaterialCurve.constant(1.0), CURVE_B, nl)
        assert mono.converged
        # two discretizations of the same nonlinear problem
        assert (dd_rep.T_minus.max() - T_D) == pytest.approx(
            mono.T.max() - T_D, rel=0.1)
        assert dd_rep.kappa_B_mean == pytest.approx(mono.kappa_B_mean,
                                                    rel=0.05)

    def test_budget_exhaustion_carries_report(self):
        nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-12, picard_max=2)
        with pytest.raises(PicardNoConvergence) as info:
            picard_monolithic(GEOM, 1 / 160, 1 / 320, 1,
                              MaterialCurve.constant(1.0), CURVE_B, nl)
        report = info.value.report
        assert not report.converged and report.picard_iterations == 2
        assert len(report.inner_linear_iterations) == 2
        assert np.isfinite(report.kappa_B_mean)


@pytest.mark.parametrize("route", [picard_two_level, picard_monolithic])
def test_zero_data_converge_in_one_step(route):
    # zero source, flux and wall temperature give the zero solution: the
    # first step changes nothing, which reads as a change of 0, not 0/0
    rep = route(GEOM, 1 / 160, 1 / 320, 1, MaterialCurve.constant(1.0),
                MaterialCurve.constant(0.5), NonlinearConfig(),
                problem=ProblemData(f=0.0, q=0.0, T_D=0.0))
    assert rep.converged and rep.picard_iterations == 1
    np.testing.assert_array_equal(rep.history, [0.0])


class TestSweep:
    def test_iteration_cost_dips_at_matched_extension(self):
        nl = NonlinearConfig(picard_tol=1e-8)
        rows = sweep_kappa_plus_B(GEOM, 1 / 160, 1 / 320, 1,
                                  MaterialCurve.constant(1.0), CURVE_B,
                                  [0.25, 0.5, 1.0], nl)
        assert [r["converged"] for r in rows] == [True, True, True]
        costs = [r["mean_dd_iterations"] for r in rows]
        # the strip runs near kappa_B ~ 0.5, so the middle grid point wins
        assert np.argmin(costs) == 1
        assert set(rows[0]) == {"kappa_plus_B", "picard_iterations",
                                "converged", "mean_dd_iterations",
                                "mean_linear_iterations", "kappa_B_mean",
                                "time_s"}

    def test_failed_case_recorded_not_raised(self):
        # an exhausted outer budget becomes a non-converged row, it must
        # not abort the rest of the sweep; the row reads the partial report
        # of the steps made
        nl = NonlinearConfig(picard_tol=1e-12, picard_max=2)
        rows = sweep_kappa_plus_B(GEOM, 1 / 160, 1 / 320, 1,
                                  MaterialCurve.constant(1.0), CURVE_B,
                                  [0.5], nl)
        assert rows[0]["converged"] is False
        assert rows[0]["picard_iterations"] == 2
        assert np.isfinite(rows[0]["mean_dd_iterations"])

    def test_inner_stall_recorded_not_raised(self):
        # a 3-step CG budget stalls the first inner start solve of every
        # run; each becomes a non-converged row instead of aborting the sweep
        dd = DDConfig(solver=SolverConfig(method="cg", max_iters=3))
        rows = sweep_kappa_plus_B(GEOM, 1 / 160, 1 / 320, 1,
                                  MaterialCurve.constant(1.0), CURVE_B,
                                  [0.5, 1.0], NonlinearConfig(), dd)
        assert [r["converged"] for r in rows] == [False, False]
        assert [r["picard_iterations"] for r in rows] == [-1, -1]
        assert all(np.isnan(r["kappa_B_mean"]) for r in rows)
