"""Temperature-dependent conductivity and the outer Picard loop."""

import dataclasses

import numpy as np
import pytest

import gldd.coupling as coupling
import gldd.dd_solver as dd_solver
import gldd.fem as fem
import gldd.mesh as mesh_module
import gldd.nonlinear as nonlinear
from gldd.coupling import ProblemData
from gldd.dd_solver import DDConfig, run_two_level_dd, setup_case
from gldd.errors import (InvalidConfig, NonpositiveCoefficient,
                         PicardNoConvergence)
from gldd.linalg import SolverConfig
from gldd.fem import build_dofmap, evaluate_field
from gldd.mesh import (GeometryConfig, build_global_mesh, build_local_mesh,
                       interface_facets)
from gldd.nonlinear import (MaterialCurve, NonlinearConfig, NonlinearReport,
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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tables(self, value):
        with pytest.raises(NonpositiveCoefficient, match="finite"):
            MaterialCurve([300.0, 400.0], [1.0, value])
        with pytest.raises(NonpositiveCoefficient, match="finite"):
            MaterialCurve.constant(value)
        with pytest.raises(InvalidConfig, match="finite"):
            MaterialCurve([300.0, value], [1.0, 0.9])
        with pytest.raises(InvalidConfig, match="finite"):
            MaterialCurve([value], [1.0])

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

    def test_mesh_not_of_its_dofmap_rejected(self):
        # the 1/160 box and the 1/320 strip both have 32 cells, so the box
        # mesh beside the strip dof map would give 32 values without a word
        box = build_global_mesh(GEOM, 1 / 160)
        strip = build_dofmap(build_local_mesh(GEOM, 1 / 320), 1)
        assert box.num_cells == strip.mesh.num_cells == 32
        with pytest.raises(InvalidConfig, match="mesh must be the mesh of "
                                                "its dof map"):
            cell_midpoint_values(box, strip, np.zeros(strip.n_dofs))


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
        # each step starts from the last report's iterate
        for w, prev in zip(weights[1:], reports):
            want = 0.5 - CURVE_B(evaluate_field(lm, ld, prev.T_minus, mids))
            np.testing.assert_allclose(w, want, rtol=1e-13, atol=1e-15)

    def test_two_point_locations_per_run(self, monkeypatch):
        # the criterion-11 curves under the laser: the gamma points once,
        # and the box-top points where the flux is nonzero once, the one
        # read-only array every step's flux scale is handed
        located, handed = [], []
        locate, build = mesh_module.locate_point, \
            nonlinear.build_coupled_operators

        def counting_locate(mesh, points):
            located.append(len(points))
            return locate(mesh, points)

        def recording_build(*args, flux_scale, **kwargs):
            def scale(x):
                handed.append(x)
                return flux_scale(x)
            return build(*args, flux_scale=scale, **kwargs)

        for module in (fem, coupling, mesh_module):
            if getattr(module, "locate_point", None) is locate:
                monkeypatch.setattr(module, "locate_point", counting_locate)
        monkeypatch.setattr(nonlinear, "build_coupled_operators",
                            recording_build)
        nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-8)
        rep = picard_two_level(GEOM, 1 / 160, 1 / 320, 1,
                               MaterialCurve.constant(1.0), CURVE_B, nl)
        assert rep.converged and rep.picard_iterations > 2
        assert len(located) == 2
        assert len(handed) == rep.picard_iterations
        assert all(x is handed[0] for x in handed)
        assert not handed[0].flags.writeable

    @pytest.mark.parametrize("q,panel,locations", [
        (0.0, 1e-4, 2), (None, 1e-3, 3)], ids=["q0", "laser"])
    def test_kept_load_points_located_once(self, monkeypatch, q, panel,
                                           locations):
        # a volume source's footprint points are kept with the flux points:
        # every build hands the scale the same read-only arrays, so a run
        # locates the gamma points, the footprint points and, under the
        # laser, the flux points once each
        located, handed = [], []
        locate, build = mesh_module.locate_point, \
            nonlinear.build_coupled_operators

        def counting_locate(mesh, points):
            located.append(len(points))
            return locate(mesh, points)

        def recording_build(*args, flux_scale, **kwargs):
            handed.append([])

            def scale(x):
                handed[-1].append(x)
                return flux_scale(x)
            return build(*args, flux_scale=scale, **kwargs)

        for module in (fem, coupling, mesh_module):
            if getattr(module, "locate_point", None) is locate:
                monkeypatch.setattr(module, "locate_point", counting_locate)
        monkeypatch.setattr(nonlinear, "build_coupled_operators",
                            recording_build)
        sigma = GEOM.L / 6.0

        def source(x):
            r2 = (x[..., 0] - GEOM.L / 2) ** 2 \
                + (x[..., 1] - 0.75 * GEOM.H) ** 2
            return 4e5 * np.exp(-r2 / (2 * sigma ** 2))

        nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-8)
        rep = picard_two_level(GEOM, 1 / 160, 1 / 320, 1,
                               MaterialCurve.constant(1.0), CURVE_B, nl,
                               problem=ProblemData(f=source, q=q,
                                                   flux_panel=panel))
        assert rep.converged and rep.picard_iterations > 2
        assert len(handed) == rep.picard_iterations
        assert len(handed[0]) == locations - 1
        for arrays in handed:
            assert len(arrays) == len(handed[0])
            assert all(x is y for x, y in zip(arrays, handed[0]))
            assert not any(x.flags.writeable for x in arrays)
        assert len(located) == locations

    @pytest.mark.parametrize("field,value", [
        ("picard_tol", 0.0), ("picard_tol", float("nan")),
        ("picard_tol", float("inf")), ("picard_max", 0),
        ("picard_max", -3), ("picard_max", 2.5), ("picard_max", 1.0),
        ("picard_max", True), ("picard_max", "5"), ("picard_max", None)])
    def test_malformed_budget_rejected(self, field, value):
        # a NaN tolerance is never met, so the loop would spend its whole
        # budget; a budget below one step solves nothing, and one that is
        # no integer (bool excluded) ends the loop in a TypeError from range
        with pytest.raises(InvalidConfig, match=field):
            NonlinearConfig(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_kappa_plus_B_checked_when_built(self, value):
        # the box coefficient inside the strip footprint, named as the
        # field it is, not as the builder's kappa_plus at the first build
        with pytest.raises(InvalidConfig,
                           match="kappa_plus_B must be positive and finite"):
            NonlinearConfig(kappa_plus_B=value)

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

    def test_one_dirichlet_elimination_per_run(self, monkeypatch):
        # every step solves on the same dof map with the same Dirichlet
        # dofs, so the elimination is found once and only applied after
        found = []
        real = fem._Elimination

        def counting(*args):
            found.append(1)
            return real(*args)

        monkeypatch.setattr(fem, "_Elimination", counting)
        nl = NonlinearConfig(kappa_plus_B=0.5, picard_tol=1e-8)
        for _ in range(2):
            found.clear()
            rep = picard_monolithic(GEOM, 1 / 160, 1 / 320, 1,
                                    MaterialCurve.constant(1.0), CURVE_B, nl)
            assert rep.converged and rep.picard_iterations > 2
            assert len(found) == 1


@pytest.mark.parametrize("route", [picard_two_level, picard_monolithic])
def test_report_meshes_are_its_dof_maps(route):
    # a report keeps dof maps only: each mesh is read from its dof map, and
    # is None where the route has no such dof map
    assert not {f.name for f in dataclasses.fields(NonlinearReport)} & {
        "mesh", "local_mesh", "global_mesh"}
    rep = route(GEOM, 1 / 160, 1 / 320, 1, MaterialCurve.constant(1.0),
                MaterialCurve.constant(0.5), NonlinearConfig(),
                problem=ProblemData(f=0.0, q=0.0, T_D=0.0))
    assert (rep.dofmap is None) == (route is picard_two_level)
    for mesh, dofmap in ((rep.mesh, rep.dofmap),
                         (rep.local_mesh, rep.local_dofmap),
                         (rep.global_mesh, rep.global_dofmap)):
        assert mesh is getattr(dofmap, "mesh", None)
        assert (mesh is None) == (dofmap is None)


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
