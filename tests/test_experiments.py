"""Study drivers, report emission and the command line front end."""

import csv
import json
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import gldd.coupling as coupling
import gldd.dd_solver as dd_solver
import gldd.experiments as experiments
from gldd.cli import _config_from, build_parser, fraction, main
from gldd.errors import Diverged, InsufficientRatios, IterationFailure
from gldd.experiments import (FIT_COLUMNS, RECORD_COLUMNS, ExperimentConfig,
                              SweepRecord, compare_monolithic, emit_reports,
                              log2_growth_slope, relaxation_study, run_case,
                              sweep_kappa, sweep_mesh_ratio,
                              theta_coefficient_ratio,
                              theta_parabola_minimizer)
from gldd.linalg import SolverConfig, fit_rho_law
from gldd.mesh import GeometryConfig


def slow_setup(monkeypatch, delay=0.05):
    """Make every set-up in the study drivers take at least `delay` s."""
    real = experiments.setup_case

    def slow(*args, **kwargs):
        time.sleep(delay)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "setup_case", slow)
    return delay


def count_factorizations(monkeypatch):
    """Count sparse LU factorizations from here on."""
    calls = []
    real = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


def count_builds(monkeypatch):
    """Count mesh builds and builds of coefficient-free operator terms."""
    counts = {"global": 0, "local": 0, "interface": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dd_solver, "build_global_mesh",
                        counting("global", dd_solver.build_global_mesh))
    monkeypatch.setattr(dd_solver, "build_local_mesh",
                        counting("local", dd_solver.build_local_mesh))
    monkeypatch.setattr(coupling, "_Interface",
                        counting("interface", coupling._Interface))
    return counts


def stalling_solver(monkeypatch):
    """Give every study's sweep a 40-step CG budget, which stalls an inner
    solve of the first sweeps at the default case; the radius stays exact,
    as it takes direct solves of its own."""
    cg = SolverConfig(method="cg", max_iters=40)
    monkeypatch.setattr(ExperimentConfig, "solver", lambda self: cg)
    return cg


def stopped_report(cfg, theta):
    """The partial report of a fresh run of cfg's case at theta."""
    ops = dd_solver.setup_case(cfg.geometry(), cfg.h_plus, cfg.h_minus,
                               cfg.m, cfg.kappa_plus, cfg.kappa_minus)
    with pytest.raises(IterationFailure) as info:
        dd_solver.run_two_level_dd(ops, cfg.dd(theta))
    return info.value.report


def full_matrix_radius(ops):
    """Spectral radius of K_plus^-1 S K_minus^-1 D from the dense n+ x n+
    matrix, built with n+ solves per block."""
    X = spla.splu(sp.csc_matrix(ops.K_minus)).solve(ops.D.toarray())
    M = spla.splu(sp.csc_matrix(ops.K_plus)).solve(ops.S @ X)
    return float(np.abs(np.linalg.eigvals(M)).max())


class TestConfig:
    def test_from_json_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m": 2, "kappa_list": [0.5, 0.25, 0.125],
                                    "theta": 0.8}))
        cfg = ExperimentConfig.from_json(path, theta=0.5, h_minus=None)
        assert cfg.m == 2
        assert cfg.theta == 0.5  # explicit override wins
        assert cfg.h_minus == 1 / 320  # None override is ignored
        assert cfg.kappa_list == (0.5, 0.25, 0.125)
        assert isinstance(cfg.kappa_list, tuple)

    @pytest.mark.parametrize("key", ["export_operators", "export_solutions"])
    def test_from_json_rejects_unknown_field(self, tmp_path, key):
        # exports are CLI flags; a config field for them would do nothing
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m": 2, key: True}))
        with pytest.raises(TypeError, match=key):
            ExperimentConfig.from_json(path)

    def test_derived_objects(self):
        cfg = ExperimentConfig(dim=3, theta=0.7, tol=1e-6,
                               solver_method="cg", preconditioner="diagonal")
        assert cfg.geometry().dim == 3
        assert cfg.problem().T_D == cfg.T_0
        assert cfg.dd().theta == 0.7
        assert cfg.dd(0.4).theta == 0.4
        assert cfg.dd().tol == 1e-6
        assert cfg.solver().kind() == "cg"


class TestRunCase:
    def test_record_fields(self):
        cfg = ExperimentConfig()
        rec, ops = run_case(cfg)
        assert rec.case_id == "d2m1r2k0.5t1"
        assert rec.dim == 2 and rec.m == 1
        assert rec.h_ratio == pytest.approx(2.0)
        assert rec.kappa_ratio == pytest.approx(0.5)
        assert rec.converged and rec.iterations > 0
        assert 0.0 < rec.rho_measured < 1.0
        assert np.isnan(rec.rho_predicted)
        assert ops.n_plus == 25

    def test_time_covers_setup(self, monkeypatch):
        delay = slow_setup(monkeypatch)
        rec, _ = run_case(ExperimentConfig())
        assert rec.time_s >= delay

    def test_one_factorization_pair(self, monkeypatch):
        # the radius uses the factorizations the sweep then reuses
        calls = count_factorizations(monkeypatch)
        rec, _ = run_case(ExperimentConfig())
        assert rec.converged
        assert len(calls) == 2

    def test_divergent_case_recorded(self):
        rec, _ = run_case(ExperimentConfig(kappa_minus=12.0))
        assert not rec.converged
        assert rec.iterations > 0
        assert rec.rho_measured > 1.0

    def test_inner_stall_recorded(self, monkeypatch):
        # a stalled inner solve is a data point, like a divergent sweep
        stalling_solver(monkeypatch)
        cfg = ExperimentConfig()
        rec, _ = run_case(cfg)
        assert not rec.converged
        assert rec.iterations == stopped_report(cfg, 1.0).iterations == 1
        assert 0.0 < rec.rho_measured < 1.0

    @pytest.mark.parametrize("kappa_minus, rho", [(0.5, 0.22095),
                                                  (0.0625, 0.41428)])
    def test_radius_exact_where_power_iteration_stalls(self, kappa_minus, rho):
        # the dominant eigenvalues are a complex pair here, so a norm-ratio
        # power iteration oscillates and never settles
        cfg = ExperimentConfig(h_plus=1 / 640, h_minus=1 / 5120,
                               kappa_minus=kappa_minus)
        rec, ops = run_case(cfg)
        want = full_matrix_radius(ops)
        assert want == pytest.approx(rho, abs=1e-5)
        assert abs(rec.rho_measured - want) <= 1e-6


class TestSweepKappa:
    def test_fit_recovers_linear_radius_law(self):
        cfg = ExperimentConfig(kappa_list=(0.5, 0.25, 0.125, 0.0625))
        records, fit, warnings = sweep_kappa(cfg)
        assert warnings == []
        assert all(r.converged for r in records)
        # the measured radius is linear in the coefficient ratio to high
        # accuracy on a fixed mesh pair
        assert fit.r2_linear > 0.999
        assert abs(fit.b2) < 1e-2 * abs(fit.b1)
        assert fit.C_tilde == pytest.approx(0.2172, rel=0.02)
        assert fit.divergence_threshold() == pytest.approx(5.60, rel=0.02)
        for r in records:
            assert r.rho_predicted == pytest.approx(r.rho_measured, rel=0.02)

    def test_degenerate_data_warns_instead_of_raising(self):
        cfg = ExperimentConfig(kappa_list=(0.5, 0.25))
        records, fit, warnings = sweep_kappa(cfg)
        assert fit is None
        assert len(records) == 2
        assert any("fit skipped" in w for w in warnings)

    def test_strip_load_built_once(self, monkeypatch):
        # neither load depends on a coefficient but the ratio, so the eight
        # builds on one mesh pair integrate the strip's flux once and the
        # box's once (every 2D top facet fits in one flux call)
        pairs, loading, calls = [], [], []
        real_pair, real_load = experiments.build_mesh_pair, \
            coupling.assemble_load

        def pair(*args):
            pairs.append(real_pair(*args))
            return pairs[-1]

        def load(mesh, *args, **kwargs):
            loading.append(mesh)
            return real_load(mesh, *args, **kwargs)

        def q(x):
            calls.append(loading[-1])
            return np.full(x.shape[:-1], 1e3)

        monkeypatch.setattr(experiments, "build_mesh_pair", pair)
        monkeypatch.setattr(coupling, "assemble_load", load)
        monkeypatch.setattr(ExperimentConfig, "problem",
                            lambda cfg: coupling.ProblemData(T_D=cfg.T_0, q=q))
        records, _, _ = sweep_kappa(ExperimentConfig())
        assert len(records) == 8
        gmesh, _, lmesh, _ = pairs[0]
        assert sum(mesh is lmesh for mesh in calls) == 1
        assert sum(mesh is gmesh for mesh in calls) == 1


class TestMeshRatioStudy:
    def test_slope_helper_exact(self):
        ratios = [2, 4, 8, 16]
        c = [1.0 + 0.1 * np.log2(r) for r in ratios]
        assert log2_growth_slope(ratios, c) == pytest.approx(0.1, abs=1e-8)

    def test_needs_three_ratios(self):
        with pytest.raises(InsufficientRatios):
            sweep_mesh_ratio(ExperimentConfig(mesh_ratios=(2, 4)))

    def test_constant_grows_with_refinement(self):
        cfg = ExperimentConfig(kappa_list=(0.5, 0.25, 0.125),
                               mesh_ratios=(2, 4, 8))
        study = sweep_mesh_ratio(cfg)
        assert study.ratios == [2, 4, 8]
        assert len(study.c_tildes) == 3
        assert np.all(np.diff(study.c_tildes) > 0)
        assert study.slope_per_doubling > 0
        assert len(study.increments) == 2
        assert set(study.fits) == {2, 4, 8}
        assert len(study.records) == 9


    def test_records_match_fresh_setups(self):
        cfg = ExperimentConfig(kappa_list=(0.5, 0.125, 0.03125),
                               mesh_ratios=(2, 4, 8))
        study = sweep_mesh_ratio(cfg)
        for rec in study.records:
            fresh, _ = run_case(cfg, kappa_minus=rec.kappa_ratio,
                                h_minus=cfg.h_plus / rec.h_ratio)
            assert rec.case_id == fresh.case_id
            assert abs(rec.rho_measured - fresh.rho_measured) <= \
                1e-12 * fresh.rho_measured
            assert (rec.iterations, rec.converged) == \
                (fresh.iterations, fresh.converged)

    def test_one_build_per_mesh_pair(self, monkeypatch):
        counts = count_builds(monkeypatch)
        cfg = ExperimentConfig(kappa_list=(0.5, 0.25, 0.125),
                               mesh_ratios=(2, 4, 8))
        study = sweep_mesh_ratio(cfg)
        assert len(study.records) == 9
        assert counts == {"global": 3, "local": 3, "interface": 3}

    def test_time_charged_to_first_record(self, monkeypatch):
        # the shared mesh build is paid once, by the first coefficient
        delay = 0.2
        real = experiments.build_mesh_pair

        def slow(*args, **kwargs):
            time.sleep(delay)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "build_mesh_pair", slow)
        records, _, _ = sweep_kappa(ExperimentConfig(
            kappa_list=(0.5, 0.25, 0.125)))
        assert records[0].time_s >= delay
        assert all(r.time_s < delay for r in records[1:])


class TestSetupCase:
    def test_each_call_builds(self, monkeypatch):
        counts = count_builds(monkeypatch)
        for _ in range(2):
            experiments.setup_case(GeometryConfig(), 1 / 160, 1 / 320, 1,
                                   1.0, 0.5)
        assert counts == {"global": 2, "local": 2, "interface": 2}


class TestRelaxation:
    def test_presets(self):
        assert theta_parabola_minimizer(1.0, 3.0) == pytest.approx(0.2)
        assert theta_parabola_minimizer(1.0, 1.0) == pytest.approx(1.0)
        assert theta_coefficient_ratio(1.0, 4.0) == pytest.approx(0.25)

    def test_study_picks_fastest_weight(self):
        cfg = ExperimentConfig(kappa_minus=3.0, theta_list=(1.0, 0.7, 0.5))
        study = relaxation_study(cfg)
        assert len(study.records) == 3
        assert all(r.converged for r in study.records)
        fastest = min(study.records, key=lambda r: r.iterations)
        assert study.best_theta == fastest.theta
        assert set(study.presets) == {"parabola", "coefficient-ratio"}

    def test_one_setup_and_factorization_pair(self, monkeypatch):
        cfg = ExperimentConfig(kappa_minus=3.0, theta_list=(1.0, 0.7, 0.5))
        want = [run_case(cfg, theta=t)[0] for t in cfg.theta_list]
        counts = count_builds(monkeypatch)
        calls = count_factorizations(monkeypatch)
        study = relaxation_study(cfg)
        assert counts == {"global": 1, "local": 1, "interface": 1}
        assert len(calls) == 2
        for rec, ref in zip(study.records, want):
            # records agree apart from time_s; rho_predicted is NaN in both
            np.testing.assert_equal(asdict(replace(rec, time_s=0.0)),
                                    asdict(replace(ref, time_s=0.0)))


    def test_inner_stall_recorded(self, monkeypatch):
        stalling_solver(monkeypatch)
        cfg = ExperimentConfig(theta_list=(1.0, 0.5))
        study = relaxation_study(cfg)
        assert [r.converged for r in study.records] == [False, False]
        assert [r.iterations for r in study.records] == [
            stopped_report(cfg, t).iterations for t in cfg.theta_list]
        assert np.isnan(study.best_theta)


class TestCompareMonolithic:
    def test_row_contents(self):
        cfg = ExperimentConfig()
        rows = compare_monolithic(cfg, kappa_ratios=[2.0], mesh_ratios=[2])
        assert len(rows) == 1
        row = rows[0]
        assert row["dd_converged"] is True
        assert row["dd_iterations"] > 0
        assert row["dd_local_gmres"] > 0 and row["dd_global_gmres"] > 0
        assert row["fitted_gmres"] > 0
        assert row["fitted_dofs"] > 0
        assert row["theta"] == pytest.approx(0.5)  # kappa ratio 2 preset

    def test_stopped_run_row_carries_partial_report(self):
        # theta = 3 over-relaxes the sweep past its stability limit; the
        # row reads the sweeps and inner GMRES steps of the partial report
        cfg = ExperimentConfig(theta=3.0)
        [row] = compare_monolithic(cfg, kappa_ratios=[1.5], mesh_ratios=[2])
        gmres = SolverConfig(method="restarted-minimal-residual",
                             rel_tol=cfg.solver_rel_tol,
                             preconditioner="diagonal")
        ops = dd_solver.setup_case(cfg.geometry(), cfg.h_plus,
                                   cfg.h_plus / 2, cfg.m, cfg.kappa_plus, 1.5)
        with pytest.raises(Diverged) as info:
            dd_solver.run_two_level_dd(ops, replace(cfg.dd(), solver=gmres))
        report = info.value.report
        assert row["dd_converged"] is False
        assert row["dd_iterations"] == report.iterations > 0
        assert (row["dd_local_gmres"], row["dd_global_gmres"]) == (
            report.inner_iterations["local"],
            report.inner_iterations["global"])
        assert row["dd_local_gmres"] > 0
        assert row["fitted_gmres"] > 0

    def test_dd_time_covers_setup(self, monkeypatch):
        delay = slow_setup(monkeypatch)
        rows = compare_monolithic(ExperimentConfig(), kappa_ratios=[2.0],
                                  mesh_ratios=[2])
        assert rows[0]["dd_time_s"] >= delay


class TestEmitReports:
    def test_files_and_manifest(self, tmp_path):
        records = [SweepRecord("caseA", 2, 1, 2.0, 0.5, 1.0, 0.1, 0.11, 7,
                               True, 0.01),
                   SweepRecord("caseB", 2, 1, 2.0, 0.25, 1.0, 0.16, 0.163,
                               9, True, 0.01)]
        fit = fit_rho_law([0.5, 0.25, 0.125], [0.11, 0.163, 0.19])
        cfg = ExperimentConfig(seed=42)
        out = emit_reports(records, {"d2m1r2": fit, "skipped": None},
                           tmp_path / "out", config=cfg,
                           warnings=["w1"],
                           extra_tables={"compare": [{"a": 1, "b": 2.5}]})
        with open(out / "records.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RECORD_COLUMNS
        assert len(rows) == 3 and rows[1][0] == "caseA"
        with open(out / "fits.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == FIT_COLUMNS
        assert len(rows) == 2  # the None fit is skipped
        assert float(rows[1][6]) == pytest.approx(fit.C_tilde)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["config"]["kappa_plus"] == 1.0
        assert manifest["warnings"] == ["w1"]
        assert manifest["records"] == 2
        assert set(manifest["versions"]) == {"package", "python", "numpy",
                                             "scipy"}
        with open(out / "compare.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2.5"]]


class TestCli:
    def test_fraction(self):
        assert fraction("1/160") == pytest.approx(1 / 160)
        assert fraction("0.5") == 0.5

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["solve", "--kappa-minus", "0.25",
                                  "--degree", "2"])
        assert args.kappa_minus == 0.25 and args.m == 2
        with pytest.raises(SystemExit):
            parser.parse_args(["unknown-command"])

    @pytest.mark.parametrize("argv,field,value", [
        (["solve", "--degree", "2"], "m", 2),
        (["sweep-kappa", "--kappa-list", "0.5,1/4"], "kappa_list",
         (0.5, 0.25)),
        (["sweep-mesh", "--mesh-ratios", "2,4,8"], "mesh_ratios", (2, 4, 8)),
        (["relax-study", "--theta-list", "1,0.5"], "theta_list", (1.0, 0.5)),
        (["solve", "--preconditioner", "diagonal"], "preconditioner",
         "diagonal"),
        (["compare-monolithic", "--mesh-ratios", "2,4"], "mesh_ratios",
         (2, 4))])
    def test_flags_reach_config(self, argv, field, value):
        cfg = _config_from(build_parser().parse_args(argv))
        assert getattr(cfg, field) == value
        assert cfg == replace(ExperimentConfig(), **{field: value})

    def test_solve(self, capsys):
        assert main(["solve", "--kappa-minus", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "converged in" in out
        assert "T range" in out

    def test_solve_json_and_exports(self, tmp_path, capsys):
        rc = main(["solve", "--kappa-minus", "0.5", "--json",
                   "--export-solution", "--export-operators",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["converged"] is True
        for name in ("T_plus.csv", "T_minus.csv", "K_plus.mtx", "S.mtx",
                     "D.mtx", "K_minus.mtx"):
            assert (tmp_path / name).exists()

    def test_solve_failure_exit_codes(self, capsys):
        assert main(["solve", "--kappa-minus", "12.0"]) == 1
        assert "failed" in capsys.readouterr().err
        assert main(["solve", "--kappa-minus", "-1.0"]) == 2

    def test_nonlinear_budget_exhaustion_exits_1(self, capsys):
        # an outer loop out of iterations stopped early; it is no input error
        assert main(["nonlinear", "--picard-max", "1"]) == 1
        assert "failed" in capsys.readouterr().err

    def test_spectrum(self, capsys):
        assert main(["spectrum", "--kappa-minus", "0.5", "--power"]) == 0
        out = capsys.readouterr().out
        assert "rho" in out

    def test_sweep_kappa_writes_reports(self, tmp_path, capsys):
        rc = main(["sweep-kappa", "--kappa-list", "0.5,0.25,0.125",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "C=" in out and "predicted divergence" in out
        for name in ("records.csv", "fits.csv", "manifest.json"):
            assert (tmp_path / name).exists()

    def test_sweep_kappa_nonpositive_constant_still_reports(self, tmp_path,
                                                             capsys):
        # kappa_minus > kappa_plus: the fitted slope constant is negative
        rc = main(["sweep-kappa", "--kappa-list", "2,3,4",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "predicted divergence" not in captured.out
        assert "not positive" in captured.err
        for name in ("records.csv", "fits.csv", "manifest.json"):
            assert (tmp_path / name).exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert any("not positive" in w for w in manifest["warnings"])

    def test_config_file_plus_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kappa_minus": 0.25}))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        assert main(["solve", "--config", str(cfg_path),
                     "--kappa-minus", "1.0"]) == 0
        # ratio one converges in a single sweep
        out = capsys.readouterr().out
        assert "converged in 1 sweeps" in out.splitlines()[-2] \
            or "converged in 1" in out