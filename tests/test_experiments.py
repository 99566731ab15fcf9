"""Study drivers, report emission and the command line front end."""

import csv
import json
import numbers
import re
import sys
import time
from dataclasses import asdict, fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import gldd.cli as cli
import gldd.coupling as coupling
import gldd.dd_solver as dd_solver
import gldd.errors as errors
import gldd.experiments as experiments
import gldd.linalg as gldd_linalg
from gldd.cli import _config_from, build_parser, fraction, main
from gldd.errors import (Diverged, InsufficientRatios, InvalidConfig,
                         IterationFailure, RankDeficient, UnknownConfigKey)
from gldd.experiments import (FIT_COLUMNS, RECORD_COLUMNS, ExperimentConfig,
                              SweepRecord, compare_monolithic, emit_reports,
                              log2_growth_slope, relaxation_study, run_case,
                              sweep_kappa, sweep_mesh_ratio,
                              theta_coefficient_ratio,
                              theta_parabola_minimizer)
from gldd.linalg import LinearSolver, SolverConfig, fit_rho_law
import gldd.mesh as mesh_module
from gldd.mesh import GeometryConfig
from gldd.nonlinear import MaterialCurve, NonlinearConfig

# values of the wrong type for a config field of each annotation
WRONG_TYPE = {"float": ["1", None, True, [1.0]],
              "int": [2.0, "2", None, True, np.bool_(True)]}
COMPONENT_CONFIGS = (GeometryConfig, coupling.ProblemData,
                     dd_solver.DDConfig, NonlinearConfig, SolverConfig)


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

    for module in (dd_solver, experiments):
        monkeypatch.setattr(module, "build_global_mesh",
                            counting("global", module.build_global_mesh))
        monkeypatch.setattr(module, "build_local_mesh",
                            counting("local", module.build_local_mesh))
    monkeypatch.setattr(coupling, "_Interface",
                        counting("interface", coupling._Interface))
    return counts


def stalling_solver(monkeypatch):
    """Give every study's sweep a 40-step CG budget, which stalls an inner
    solve of the first sweeps at the default case; the radius stays exact,
    as it takes direct solves of its own."""
    cg = SolverConfig(method="cg", max_iters=40)
    dd = ExperimentConfig.dd
    monkeypatch.setattr(ExperimentConfig, "dd",
                        lambda self: replace(dd(self), solver=cg))
    return cg


def stopped_report(cfg, theta):
    """The partial report of a fresh run of cfg's case at theta."""
    ops = dd_solver.setup_case(cfg.geometry(), cfg.h_plus, cfg.h_minus,
                               cfg.m, cfg.kappa_plus, cfg.kappa_minus)
    with pytest.raises(IterationFailure) as info:
        dd_solver.run_two_level_dd(ops, replace(cfg, theta=theta).dd())
    return info.value.report


def full_matrix_radius(ops):
    """Spectral radius of K_plus^-1 S K_minus^-1 D from the dense n+ x n+
    matrix, built with n+ solves per block."""
    X = spla.splu(sp.csc_matrix(ops.K_minus)).solve(ops.D.toarray())
    M = spla.splu(sp.csc_matrix(ops.K_plus)).solve(ops.S @ X)
    return float(np.abs(np.linalg.eigvals(M)).max())


# JSON values by kind; a draw leaves out the kinds a field takes
JSON_VALUES = {
    "string": st.text(max_size=4),
    "bool": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}


# a 401-digit integer in each number field, given to a subcommand that
# reads that field
PAST_A_DOUBLE = [
    ("sweep-kappa", "kappa_list", [0.5, 10 ** 400]),
    ("sweep-mesh", "mesh_ratios", [2, 4, 10 ** 400]),
    ("relax-study", "theta_list", [1.0, -10 ** 400]),
    *(("solve", field, 10 ** 400) for field in (
        "h_plus", "h_minus", "L", "H", "kappa_plus", "kappa_minus", "alpha",
        "T_0", "theta", "tol"))]


def json_kinds_taken(f):
    """The kinds of JSON_VALUES a config field takes, read off its default:
    alpha (default None) takes null, a tuple field a list, a str field a
    string, and the number fields none of them."""
    if f.default is None:
        return {"null"}
    if isinstance(f.default, tuple):
        return {"list"}
    return {"string"} if isinstance(f.default, str) else set()


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

    @pytest.mark.parametrize("key", ["solver_rel_tol", "power_tol",
                                     "power_max_iters"])
    def test_from_json_rejects_removed_field(self, tmp_path, key):
        # fields no command read; a config naming one is told it does nothing
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: 1}))
        with pytest.raises(UnknownConfigKey, match=key):
            ExperimentConfig.from_json(path)

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_from_json_rejects_a_value_of_the_wrong_type(
            self, tmp_path_factory, data):
        f = data.draw(st.sampled_from(fields(ExperimentConfig)))
        kind = data.draw(st.sampled_from(
            sorted(set(JSON_VALUES) - json_kinds_taken(f))))
        value = data.draw(JSON_VALUES[kind])
        path = tmp_path_factory.getbasetemp() / "typed.json"
        path.write_text(json.dumps({f.name: value}))
        with pytest.raises(InvalidConfig, match=f"typed.json: {f.name} must"):
            ExperimentConfig.from_json(path)

    @settings(max_examples=300, deadline=None, database=None)
    @given(value=st.one_of(
        st.integers(), st.floats(), st.booleans(),
        st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
        st.integers(0, 255).map(np.uint8), st.floats().map(np.float64),
        st.floats(width=32).map(np.float32), st.booleans().map(np.bool_),
        st.fractions(), st.decimals(), st.just(Fraction(1, 3)),
        st.just(Decimal("0.5")), st.text(max_size=3), st.none()))
    def test_type_tests_take_what_the_number_abcs_take(self, value):
        # the exact-type shortcut changes no verdict: floats (nan and inf
        # too) and ints pass, bools fail, numpy scalars and fractions
        # still reach the ABC test, decimals are no Real
        assert errors.is_number(value) == (
            isinstance(value, numbers.Real) and not isinstance(value, bool))
        assert errors.is_integer(value) == (
            isinstance(value, numbers.Integral)
            and not isinstance(value, bool))

    @pytest.mark.parametrize("field", [
        "kappa_plus", "kappa_minus", "alpha", "T_0", "theta", "tol"])
    def test_an_integer_a_double_holds_is_a_number(self, field):
        # 2**70 is past numpy's integer types but not past a double: the
        # finiteness checks compare it as the number it is
        cfg = ExperimentConfig(**{field: 2 ** 70})
        assert getattr(cfg, field) == 2 ** 70

    @pytest.mark.parametrize("value,held", [
        (int(sys.float_info.max), True), (-int(sys.float_info.max), True),
        (int(sys.float_info.max) + 1, False), (-10 ** 400, False),
        (Fraction(10 ** 400, 3), False), (Fraction(1, 3), True),
        (float("inf"), True), (float("nan"), True), (np.float64("inf"), True),
        (np.int64(-7), True), (True, True), ("out", True), (None, True),
        ((2, 4, 8), True), ([0.5, float("nan")], True), ((2, 10 ** 400), False),
        ([0.5, Fraction(-10 ** 400)], False)])
    def test_double_range_test(self, value, held):
        # a non-finite float is in range, and left to the finiteness
        # checks that name it
        assert errors.in_double_range(value) == held

    def test_a_fraction_past_a_double_is_rejected(self):
        with pytest.raises(InvalidConfig, match="theta holds a number too "
                                                "large for a double"):
            ExperimentConfig(theta=Fraction(10 ** 400, 3))

    def test_theta_list_checked_when_built(self):
        # every weight of a relaxation study is checked by the theta rule
        # before the study starts, as the strip coefficients are
        with pytest.raises(InvalidConfig, match="theta_list entry -0.5 is "
                                                "not positive and finite"):
            ExperimentConfig(theta_list=(1.0, -0.5))

    @pytest.mark.parametrize("name,value", [
        ("f", "abc"), ("f", float("inf")), ("q", float("nan")),
        ("q", [1.0]), ("f", None)])
    def test_constant_source_and_flux_are_finite_numbers(self, name, value):
        with pytest.raises(InvalidConfig, match=f"^{name} must be"):
            coupling.ProblemData(**{name: value})

    def test_callable_source_and_flux_accepted(self):
        problem = coupling.ProblemData(f=lambda x: 1.0, q=lambda x: 0.0)
        assert problem.f(np.zeros(2)) == 1.0
        assert coupling.ProblemData(q=None).q is None

    @pytest.mark.parametrize("key", ["kappa_list", "mesh_ratios",
                                     "theta_list"])
    def test_from_json_rejects_a_list_field_given_a_number(self, tmp_path,
                                                           key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: 0.5}))
        with pytest.raises(InvalidConfig, match=f"cfg.json: {key}"):
            ExperimentConfig.from_json(path)

    def test_derived_objects(self):
        cfg = ExperimentConfig(dim=3, theta=0.7, tol=1e-6,
                               solver_method="cg", preconditioner="diagonal")
        assert cfg.geometry().dim == 3
        assert cfg.problem().T_D == cfg.T_0
        assert cfg.dd().theta == 0.7
        assert replace(cfg, theta=0.4).dd().theta == 0.4
        assert cfg.dd().tol == 1e-6
        assert cfg.solver().method == "cg"
        # built once, with the config
        assert cfg.geometry() is cfg.geometry()
        assert cfg.dd() is cfg.dd() and cfg.solver() is cfg.dd().solver

    def test_defaults_are_the_owners(self):
        # each default ExperimentConfig mirrors is read from its owner
        cfg = ExperimentConfig()
        assert cfg.geometry() == GeometryConfig()
        assert cfg.problem() == coupling.ProblemData()
        assert cfg.dd() == dd_solver.DDConfig()

    @pytest.mark.parametrize("config,name,value", [
        pytest.param(config, f.name, value,
                     id=f"{config.__name__}.{f.name}={value!r}")
        for config in COMPONENT_CONFIGS for f in fields(config)
        if f.type in WRONG_TYPE for value in WRONG_TYPE[f.type]])
    def test_component_config_types_checked_when_built(self, config, name,
                                                       value):
        # every number and integer field of the configs a study builds,
        # bool excluded, as the shared type tests take them
        with pytest.raises(InvalidConfig, match=name):
            config(**{name: value})

    @pytest.mark.parametrize("config,name,value", [
        (SolverConfig, "rel_tol", -1.0), (SolverConfig, "rel_tol", 0.0),
        (SolverConfig, "rel_tol", float("nan")),
        (SolverConfig, "rel_tol", float("inf")),
        (SolverConfig, "max_iters", 0), (SolverConfig, "max_iters", 2.5),
        (coupling.ProblemData, "flux_panel", -1.0),
        (coupling.ProblemData, "flux_panel", 0.0),
        (coupling.ProblemData, "flux_panel", float("nan")),
        (coupling.ProblemData, "flux_panel", float("inf"))])
    def test_component_config_values_checked_when_built(self, config, name,
                                                        value):
        with pytest.raises(InvalidConfig, match=name):
            config(**{name: value})

    @pytest.mark.parametrize("config,name,value", [
        (dd_solver.DDConfig, "solver", "direct"),
        (dd_solver.DDConfig, "solver", None),
        (dd_solver.DDConfig, "store_iterates", "no"),
        (dd_solver.DDConfig, "store_iterates", 1),
        (SolverConfig, "method", []),
        (SolverConfig, "preconditioner", ["none"])])
    def test_component_config_kinds_checked_when_built(self, config, name,
                                                       value):
        # a solver that is no SolverConfig, a flag that is no bool and a
        # name that is no str or not a known one, each refused as built
        with pytest.raises(InvalidConfig, match=name):
            config(**{name: value})

    @pytest.mark.parametrize("ratios,bad", [
        ((0, 2, 4), "must be at least 1 and an integer, got 0"),
        ((2, 4, -8), "must be at least 1 and an integer, got -8"),
        ((2, 2, 2), "2 is repeated"), ((2, 4, 2), "2 is repeated")])
    def test_spacing_ratios_checked_when_built(self, ratios, bad):
        with pytest.raises(InvalidConfig, match=f"spacing ratio {bad}"):
            ExperimentConfig(mesh_ratios=ratios)

    @pytest.mark.parametrize("m", [0, 3, -1, np.int64(4)])
    def test_degree_checked_when_built(self, m):
        # the elements have degree 1 or 2; any other fails before a mesh
        with pytest.raises(InvalidConfig,
                           match=re.escape(f"m must be 1 or 2, got {m!r}")):
            ExperimentConfig(m=m)


# a number no double holds, of each sign, a fraction past one and an
# integer past the 4,300 digits that Python turns into a string
NO_DOUBLE = [10 ** 400, -10 ** 400, Fraction(10 ** 400, 3), 10 ** 5000]
NO_DOUBLE_IDS = ["1e400", "-1e400", "1e400/3", "1e5000"]

# every number and integer field of the six configs, and ProblemData's
# constant source and flux
NUMBER_FIELDS = [
    (config, f.name) for config in (*COMPONENT_CONFIGS, ExperimentConfig)
    for f in fields(config) if f.type in ("float", "int", "Optional[float]")
] + [(coupling.ProblemData, "f"), (coupling.ProblemData, "q")]


def record_builds(monkeypatch):
    """The meshes built and the loads and unit pairs assembled from here
    on, each recorded by name instead of made."""
    calls = []
    for module, name in ((mesh_module, "StructuredMesh"),
                         (mesh_module, "SimplicialMesh"),
                         (coupling, "_load"), (coupling, "_unit_pair")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs:
                            calls.append(name))
    return calls


class TestNumberPastADouble:
    """A number no double holds is refused by the shared rules wherever it
    enters: a config field, a builder argument or a curve table, each
    naming the field, before any mesh is built."""

    def test_number_fields_cover_the_six_configs(self):
        assert {config for config, _ in NUMBER_FIELDS} == {
            *COMPONENT_CONFIGS, ExperimentConfig}
        assert len(NUMBER_FIELDS) == 33

    @pytest.mark.parametrize("value", NO_DOUBLE, ids=NO_DOUBLE_IDS)
    @pytest.mark.parametrize("config,name", NUMBER_FIELDS,
                             ids=[f"{c.__name__}.{n}"
                                  for c, n in NUMBER_FIELDS])
    def test_config_field(self, config, name, value, monkeypatch):
        calls = record_builds(monkeypatch)
        with pytest.raises(errors.GlddError, match=f"^{name} "):
            config(**{name: value})
        assert calls == []

    @pytest.mark.parametrize("value", NO_DOUBLE, ids=NO_DOUBLE_IDS)
    @pytest.mark.parametrize("name", ["kappa_plus", "kappa_minus", "alpha"])
    def test_builder_argument(self, name, value, monkeypatch):
        geom = GeometryConfig()
        pair = dd_solver.build_mesh_pair(geom, 1 / 160, 1 / 320, 1)
        calls = record_builds(monkeypatch)
        args = {"kappa_plus": 1.0, "kappa_minus": 0.5, name: value}
        with pytest.raises(errors.NonpositiveCoefficient, match=f"^{name} "):
            coupling.build_coupled_operators(geom, *pair, **args)
        assert calls == []

    @pytest.mark.parametrize("value", NO_DOUBLE, ids=NO_DOUBLE_IDS)
    @pytest.mark.parametrize("name", ["temperatures", "kappas"])
    def test_curve_table(self, name, value):
        table = {"temperatures": [300.0], "kappas": [1.0], name: [value]}
        with pytest.raises(errors.GlddError, match=f"^{name} "):
            MaterialCurve(**table)

    @pytest.mark.parametrize("refuse,name", [
        (lambda v: errors.check_choice("dim", v, (2, 3)), "dim"),
        (lambda v: errors.check_type("store_iterates", v, bool),
         "store_iterates"),
        (lambda v: errors.check_number("theta", v, errors.POSITIVE), "theta"),
        (lambda v: ExperimentConfig(kappa_list=v), "kappa_list"),
        (lambda v: ExperimentConfig(outdir=v), "outdir")],
        ids=["choice", "type", "number", "list-kind", "str-kind"])
    def test_refused_value_past_the_digit_limit(self, refuse, name):
        # a typed error naming the field, whose message does not try to
        # show such an integer, alone or inside a list, set or dict
        for value in (10 ** 5000, ["a", -10 ** 5000], {10 ** 5000},
                      {"a": 10 ** 5000}):
            with pytest.raises(InvalidConfig, match=f"^{name} "):
                refuse(value)

    def test_coefficient_spacing_and_degree_errors_are_config_errors(self):
        # a rule raises them directly, and a config file names them
        assert issubclass(errors.NonpositiveCoefficient, InvalidConfig)
        assert issubclass(errors.NonDivisibleSpacing, InvalidConfig)
        assert issubclass(errors.UnsupportedDegree, InvalidConfig)


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

    @pytest.mark.parametrize("solver", [
        SolverConfig(rel_tol=1e-10),
        ExperimentConfig(preconditioner="diagonal").solver()],
        ids=["rel_tol", "diagonal"])
    def test_direct_configs_share_one_pair(self, monkeypatch, solver):
        # a direct solve reads no tolerance or preconditioner, so the sweep
        # under a DDConfig with any direct solver reuses the radius's pair
        default, _ = run_case(ExperimentConfig())
        dd = ExperimentConfig.dd
        monkeypatch.setattr(ExperimentConfig, "dd",
                            lambda self: replace(dd(self), solver=solver))
        calls = count_factorizations(monkeypatch)
        rec, _ = run_case(ExperimentConfig())
        assert len(calls) == 2
        np.testing.assert_equal(asdict(replace(rec, time_s=0.0)),
                                asdict(replace(default, time_s=0.0)))

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
        # neither load depends on a coefficient but the ratio, and each is
        # kept on its dof map for geometry and problem data compared by
        # value, so the eight builds on one mesh pair integrate the strip's
        # flux once and the box's once (every 2D top facet fits in one flux
        # call)
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


    def test_equal_configs_share_the_kept_state(self, monkeypatch):
        # kept state compares configs by value, so a second fresh config
        # on the same mesh pair assembles and factors nothing
        calls = {"assemble_load": [], "assemble_stiffness": []}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(coupling, name,
                                counting(name, getattr(coupling, name)))
        factorizations = count_factorizations(monkeypatch)
        first = ExperimentConfig()
        pair = dd_solver.build_mesh_pair(first.geometry(), first.h_plus,
                                         first.h_minus, first.m)

        def run(cfg):
            ops = coupling.build_coupled_operators(
                cfg.geometry(), *pair, cfg.kappa_plus, cfg.kappa_minus,
                alpha=cfg.alpha, problem=cfg.problem())
            return (ops.interface().rho(cfg.theta),
                    dd_solver.run_two_level_dd(ops, cfg.dd()).iterations)

        want = run(first)
        assert all(calls.values()) and factorizations
        for seen in (*calls.values(), factorizations):
            seen.clear()
        second = ExperimentConfig()
        assert second.geometry() is not first.geometry()
        assert second.problem() is not first.problem()
        assert run(second) == want
        assert calls == {"assemble_load": [], "assemble_stiffness": []}
        assert factorizations == []


class TestMeshRatioStudy:
    def test_slope_helper_exact(self):
        ratios = [2, 4, 8, 16]
        c = [1.0 + 0.1 * np.log2(r) for r in ratios]
        assert log2_growth_slope(ratios, c) == pytest.approx(0.1, abs=1e-8)

    def test_needs_three_ratios(self):
        with pytest.raises(InsufficientRatios):
            sweep_mesh_ratio(ExperimentConfig(mesh_ratios=(2, 4)))

    def test_unusable_fit_raises(self):
        # two coefficients leave the parabola of the radius law undetermined
        cfg = ExperimentConfig(kappa_list=(0.5, 0.25), mesh_ratios=(2, 4, 8))
        with pytest.raises(RankDeficient, match="spacing ratio 2"):
            sweep_mesh_ratio(cfg)

    @pytest.mark.parametrize("ratios", [(0, 2, 4), (-2, 2, 4)])
    def test_nonpositive_ratio_rejected(self, ratios):
        with pytest.raises(InvalidConfig, match="spacing ratio must be at "
                           f"least 1 and an integer, got {ratios[0]}"):
            sweep_mesh_ratio(ExperimentConfig(mesh_ratios=ratios))

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
            fresh, _ = run_case(replace(cfg, kappa_minus=rec.kappa_ratio,
                                        h_minus=cfg.h_plus / rec.h_ratio))
            assert rec.case_id == fresh.case_id
            assert abs(rec.rho_measured - fresh.rho_measured) <= \
                1e-12 * fresh.rho_measured
            assert (rec.iterations, rec.converged) == \
                (fresh.iterations, fresh.converged)

    def test_one_box_factorization_and_one_per_strip(self, monkeypatch):
        # the benchmark's study: every strip coefficient of a spacing ratio
        # solves on the one unit pair of its mesh pair, and the ratios
        # share the unit box block of the study's one box
        factored = []

        class CountingSpla:
            def __getattr__(self, name):
                return getattr(spla, name)

            def splu(self, A, *args, **kwargs):
                factored.append(A.shape[0])
                return spla.splu(A, *args, **kwargs)

        monkeypatch.setattr(gldd_linalg, "spla", CountingSpla())
        cfg = ExperimentConfig(m=1, h_plus=1 / 160, mesh_ratios=(2, 4, 8, 16))
        study = sweep_mesh_ratio(cfg)
        assert len(study.records) == 32 and len(factored) == 5
        # the box block once, one strip block per ratio
        pairs = [dd_solver.build_mesh_pair(cfg.geometry(), cfg.h_plus,
                                           cfg.h_plus / r, 1)
                 for r in cfg.mesh_ratios]
        assert sorted(factored) == sorted(
            [pairs[0][1].n_dofs] + [ld.n_dofs for _, _, _, ld in pairs])

    def test_one_build_per_mesh_pair(self, monkeypatch):
        # one box per study, one strip and one set of interface terms per
        # spacing ratio
        counts = count_builds(monkeypatch)
        cfg = ExperimentConfig(kappa_list=(0.5, 0.25, 0.125),
                               mesh_ratios=(2, 4, 8))
        study = sweep_mesh_ratio(cfg)
        assert len(study.records) == 9
        assert counts == {"global": 1, "local": 3, "interface": 3}

    def test_box_terms_built_once_per_study(self, monkeypatch):
        # the box's stiffness and its two unscaled loads are kept on its
        # dof map, which every ratio's builds find: the loads keyed by
        # geometry and problem data, which each ratio's config holds equal
        # by value
        boxes, stiffness, loads = [], [], []

        def recording(calls, real):
            return lambda first, *a, **k: calls.append(first) or \
                real(first, *a, **k)

        monkeypatch.setattr(experiments, "build_global_mesh", lambda *a:
                            boxes.append(dd_solver.build_global_mesh(*a))
                            or boxes[-1])
        monkeypatch.setattr(coupling, "assemble_stiffness",
                            recording(stiffness, coupling.assemble_stiffness))
        monkeypatch.setattr(coupling, "assemble_load",
                            recording(loads, coupling.assemble_load))
        cfg = ExperimentConfig(kappa_list=(0.5, 0.25, 0.125),
                               mesh_ratios=(2, 4, 8))
        sweep_mesh_ratio(cfg)
        [box] = boxes
        # the box's unit block once (the stiffness takes the dof map, the
        # load the mesh beside it) and its loads (outside and inside the
        # footprint) once, and the same for each ratio's strip
        assert sum(dofmap.mesh is box for dofmap in stiffness) == 1
        assert sum(mesh is box for mesh in loads) == 2
        assert len(stiffness) == len(loads) / 2 == 1 + len(cfg.mesh_ratios)

    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1)])
    def test_records_equal_a_fresh_pair_per_ratio(self, dim, m):
        # sharing the box changes no number: each ratio's records (but
        # time_s), fit and slope constant are those of sweep_kappa on a
        # pair of its own
        cfg = ExperimentConfig(dim=dim, m=m, kappa_list=(0.5, 0.25, 0.125),
                               mesh_ratios=(2, 4, 8))
        study = sweep_mesh_ratio(cfg)
        for i, r in enumerate(study.ratios):
            records, fit, _ = sweep_kappa(replace(cfg,
                                                  h_minus=cfg.h_plus / r))
            got = study.records[3 * i:3 * i + 3]
            np.testing.assert_equal(
                [asdict(replace(rec, time_s=0.0)) for rec in got],
                [asdict(replace(rec, time_s=0.0)) for rec in records])
            np.testing.assert_equal(asdict(study.fits[r]), asdict(fit))
            assert study.c_tildes[i] == fit.C_tilde

    def test_box_time_charged_to_first_record(self, monkeypatch):
        # the study's one box build is paid by its first record only
        delay = 0.2
        real = experiments.build_global_mesh

        def slow(*args, **kwargs):
            time.sleep(delay)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "build_global_mesh", slow)
        study = sweep_mesh_ratio(ExperimentConfig(
            kappa_list=(0.5, 0.25, 0.125), mesh_ratios=(2, 4, 8)))
        assert study.records[0].time_s >= delay
        assert all(r.time_s < delay for r in study.records[1:])

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
        want = [run_case(replace(cfg, theta=t))[0] for t in cfg.theta_list]
        counts = count_builds(monkeypatch)
        calls = count_factorizations(monkeypatch)
        study = relaxation_study(cfg)
        assert counts == {"global": 1, "local": 1, "interface": 1}
        assert len(calls) == 2
        for rec, ref in zip(study.records, want):
            # records agree apart from time_s; rho_predicted is NaN in both
            np.testing.assert_equal(asdict(replace(rec, time_s=0.0)),
                                    asdict(replace(ref, time_s=0.0)))

    @pytest.mark.parametrize("method", ["dense-direct", "cg"])
    def test_interface_block_solved_once(self, monkeypatch, method):
        # X = K_minus^{-1} D[:, J] and Y = K_plus^{-1} S X, the only solves
        # with a 2-D right-hand side, are made once for all weights; every
        # weight's direct sweep then runs on that block, a Krylov sweep
        # makes its two block solves
        cfg = ExperimentConfig(kappa_minus=3.0, solver_method=method,
                               theta_list=(1.0, 0.8, 0.67, 0.5))
        blocks = []
        real = experiments.setup_case
        monkeypatch.setattr(experiments, "setup_case", lambda *a, **k:
                            blocks.append(real(*a, **k)) or blocks[-1])
        solves = []
        real_solve = LinearSolver.solve
        monkeypatch.setattr(LinearSolver, "solve", lambda self, b:
                            solves.append(np.ndim(b)) or real_solve(self, b))
        study = relaxation_study(cfg)
        assert solves.count(2) == 2
        if method == "cg":
            # the start, two per sweep and, on convergence, the strip
            assert solves.count(1) == sum(2 * r.iterations + 1 + r.converged
                                          for r in study.records)
        else:
            # per weight: the start, the two of c and the final strip
            assert solves.count(1) == 4 * len(cfg.theta_list)
        [ops] = blocks
        block = ops.interface()
        assert [r.rho_measured for r in study.records] == [
            block.rho(t) for t in cfg.theta_list]

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
        cfg = ExperimentConfig(mesh_ratios=(2,))
        rows = compare_monolithic(cfg, kappa_ratios=[2.0])
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
        cfg = ExperimentConfig(theta=3.0, mesh_ratios=(2,))
        [row] = compare_monolithic(cfg, kappa_ratios=[1.5])
        gmres = SolverConfig(method="restarted-minimal-residual",
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

    def test_default_and_empty_coefficient_ratios(self):
        cfg = ExperimentConfig(mesh_ratios=(2,))
        assert [row["kappa_ratio"] for row in compare_monolithic(cfg)] == [
            2.0, 3.0]
        # an empty grid is an empty comparison, not the default one
        assert compare_monolithic(cfg, kappa_ratios=[]) == []

    def test_zero_ratio_rejected(self):
        with pytest.raises(InvalidConfig, match="spacing ratio must be at "
                           "least 1 and an integer, got 0"):
            compare_monolithic(ExperimentConfig(mesh_ratios=(0,)),
                               kappa_ratios=[2.0])

    def test_every_point_checked_before_any_work(self, monkeypatch, capsys,
                                                 tmp_path):
        # a bad last coefficient ratio stops the command before the first
        # ratio's two-mesh run and fitted solve, and writes no report
        calls = []
        for name in ("setup_case", "run_fitted_reference"):
            monkeypatch.setattr(experiments, name,
                                lambda *args, name=name, **kwargs:
                                calls.append(name))
        out = tmp_path / "out"
        assert main(["compare-monolithic", "--kappa-ratios", "2,-1",
                     "--mesh-ratios", "2", "--outdir", str(out)]) == 2
        assert calls == []
        assert not out.exists()
        assert "kappa_minus must be positive and finite, got -1.0" in \
            capsys.readouterr().err

    def test_dd_time_covers_setup(self, monkeypatch):
        delay = slow_setup(monkeypatch)
        rows = compare_monolithic(ExperimentConfig(mesh_ratios=(2,)),
                                  kappa_ratios=[2.0])
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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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

    @pytest.mark.parametrize("command,flag,value", [
        ("solve", "--seed", "1"), ("spectrum", "--outdir", "out"),
        ("sweep-kappa", "--kappa-minus", "0.25"),
        ("sweep-kappa", "--seed", "1"),
        ("sweep-mesh", "--kappa-minus", "0.25"),
        ("sweep-mesh", "--h-minus", "1/7"), ("sweep-mesh", "--seed", "1"),
        ("relax-study", "--theta", "0.5"), ("relax-study", "--seed", "1"),
        ("compare-monolithic", "--kappa-minus", "0.25"),
        ("compare-monolithic", "--h-minus", "1/640"),
        ("compare-monolithic", "--solver", "cg"),
        ("compare-monolithic", "--preconditioner", "diagonal"),
        ("compare-monolithic", "--seed", "1"),
        ("nonlinear", "--alpha", "5"), ("nonlinear", "--seed", "1")])
    def test_unread_flag_is_a_usage_error(self, command, flag, value,
                                          capsys):
        # a subcommand registers only the flags its run reads: sweep-kappa
        # sweeps kappa_list, sweep-mesh sets h_minus to h_plus / ratio,
        # relax-study sweeps theta_list, compare-monolithic sets kappa_minus
        # from its ratios and forces diagonally preconditioned GMRES,
        # nonlinear's Picard steps use the default penalty, and only
        # spectrum --power draws from the seed
        with pytest.raises(SystemExit) as info:
            main([command, flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("sweep-mesh", "h_minus", 0.142857142857),
        ("sweep-kappa", "kappa_minus", 3.0), ("relax-study", "theta", 0.5),
        ("compare-monolithic", "solver_method", "cg"),
        ("compare-monolithic", "preconditioner", "diagonal"),
        ("solve", "seed", 1)])
    def test_config_file_sets_an_unread_field(self, command, key, value,
                                              tmp_path, monkeypatch, capsys):
        # the flag rule holds for config files: a field the subcommand's
        # run does not read is rejected, naming the file and the field,
        # before any mesh is built
        calls = []
        for name in ("build_mesh_pair", "build_global_mesh", "setup_case"):
            monkeypatch.setattr(experiments, name,
                                lambda *args, **kwargs: calls.append(args))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m": 1, key: value}))
        assert main([command, "--config", str(path)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.count("error: ") == 1
        assert f"config file {path}: {command} reads no {key}" in err

    def test_config_file_seed_reaches_spectrum(self, tmp_path):
        # spectrum --power draws from the seed, so its config may set it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        args = build_parser().parse_args(["spectrum", "--config", str(path)])
        assert _config_from(args).seed == 7

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

    @pytest.mark.parametrize("argv,files,named", [
        (["solve", "--h-plus", "0"], {}, None),
        (["solve", "--h-plus", "1/0"], {}, None),
        (["solve", "--theta", "0"], {}, None),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"H_minus": 1 / 40})}, None),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"m": 2, "export_operators": True})},
         "cfg.json"),
        (["nonlinear", "--curve-b", "bad.csv"],
         {"bad.csv": "T,kappa\n300,abc\n"}, "bad.csv"),
        (["solve", "--config", "missing.json"], {}, "missing.json"),
        (["solve", "--config", "cfg.json"], {"cfg.json": "[1, 2]"},
         "cfg.json"),
        (["spectrum", "--kappa-minus", "nan"], {},
         "kappa_minus must be positive and finite, got nan"),
        (["spectrum", "--kappa-minus", "inf"], {},
         "kappa_minus must be positive and finite, got inf"),
        (["spectrum", "--kappa-plus", "nan"], {},
         "kappa_plus must be positive and finite, got nan"),
        (["solve", "--alpha", "inf"], {},
         "alpha must be nonnegative and finite, got inf"),
        (["solve", "--theta", "inf"], {}, "theta must be positive and finite"),
        (["nonlinear", "--curve-b", "bad.csv"],
         {"bad.csv": "T,kappa\n300,inf\n400,1\n"},
         "bad.csv: kappas entry inf is not positive and finite"),
        (["nonlinear", "--kappa-minus", "inf"], {},
         "kappa_minus must be positive and finite, got inf"),
        (["sweep-mesh", "--mesh-ratios", "0,2,4"], {},
         "spacing ratio must be at least 1 and an integer, got 0"),
        (["compare-monolithic", "--mesh-ratios", "0"], {},
         "spacing ratio must be at least 1 and an integer, got 0"),
        (["sweep-kappa", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"kappa_list": 0.5})}, "cfg.json: kappa_list"),
        (["sweep-mesh", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"mesh_ratios": 4})}, "cfg.json: mesh_ratios"),
        (["relax-study", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"theta_list": 0.5})},
         "cfg.json: theta_list"),
        (["solve", "--tol", "nan"], {}, "tol must be positive and finite"),
        (["solve", "--tol", "-1"], {}, "tol must be positive and finite"),
        (["solve", "--max-iters", "-3"], {}, "max_iters must be at least 1"),
        (["nonlinear", "--picard-tol", "nan"], {},
         "picard_tol must be positive and finite"),
        (["nonlinear", "--picard-max", "0"], {},
         "picard_max must be at least 1"),
        (["spectrum", "--power", "--seed", "-1"], {},
         "seed must be at least 0 and an integer, got -1"),
        (["spectrum", "--power", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"seed": 1.5})},
         "seed must be at least 0 and an integer, got 1.5"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"max_iters": "5"})}, "cfg.json: max_iters"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"h_plus": "0.01"})}, "cfg.json: h_plus"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"dim": 2.0})}, "cfg.json: dim"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"max_iters": 5.5})}, "cfg.json: max_iters"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"h_minus": None})}, "cfg.json: h_minus"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"T_0": "293"})}, "cfg.json: T_0"),
        (["sweep-kappa", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"kappa_list": ["a", 0.5, 0.25]})},
         "cfg.json: kappa_list"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"outdir": 5})}, "cfg.json: outdir"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"theta": True})}, "cfg.json: theta"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"kappa_minus": [0.5, 0.5]})},
         "cfg.json: kappa_minus"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"L": float("nan")})},
         "cfg.json: L must be positive and finite, got nan"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"dim": 3, "W": float("nan")})},
         "cfg.json: W must be positive and finite, got nan"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"H": 1e308, "L": 1e308})},
         "not a finite multiple"),
        (["solve", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"T_0": float("nan")})},
         "cfg.json: T_0 must be finite, got nan"),
        (["sweep-mesh", "--mesh-ratios", "2,2,2", "--kappa-list",
          "0.5,0.25,0.125"], {}, "spacing ratio 2 is repeated"),
        (["nonlinear", "--sweep-kappa-plus-b", "0.3:0.8:0"], {},
         "sweep-kappa-plus-b"),
        (["sweep-kappa", "--kappa-list", "0.5,0.25,-1"], {},
         "kappa_list entry -1.0 is not positive"),
        (["sweep-kappa", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"kappa_list": [0.5, float("nan")]})},
         "cfg.json: kappa_list entry nan"),
        (["nonlinear", "--alpha", "5"], {}, "unrecognized arguments: --alpha"),
        (["nonlinear", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"alpha": 5.0})},
         "Picard steps use the per-cell default penalty"),
        (["relax-study", "--config", "cfg.json"],
         {"cfg.json": json.dumps({"theta_list": [1.0, -0.5]})},
         "cfg.json: theta_list entry -0.5 is not positive and finite")],
        ids=["zero-spacing", "zero-denominator", "zero-theta",
             "strip-too-thick", "unknown-key", "curve-not-a-number",
             "config-missing", "config-not-an-object", "kappa-minus-nan",
             "kappa-minus-inf", "kappa-plus-nan", "alpha-inf", "theta-inf",
             "curve-kappa-inf", "nonlinear-kappa-minus-inf",
             "sweep-mesh-zero-ratio",
             "compare-zero-ratio", "kappa-list-not-a-list",
             "mesh-ratios-not-a-list", "theta-list-not-a-list", "tol-nan",
             "tol-negative", "max-iters-negative", "picard-tol-nan",
             "picard-max-zero", "seed-negative", "seed-not-an-integer",
             "max-iters-a-string", "h-plus-a-string", "dim-a-float",
             "max-iters-a-fraction", "h-minus-null",
             "wall-temperature-a-string", "kappa-list-holds-a-string",
             "outdir-a-number", "theta-a-bool", "kappa-minus-a-list",
             "length-nan", "width-nan-3d", "extent-over-spacing-overflows",
             "wall-temperature-nan", "sweep-mesh-repeated-ratio",
             "kappa-plus-b-grid-empty", "kappa-list-negative-entry",
             "kappa-list-nan-entry", "nonlinear-alpha-flag",
             "nonlinear-alpha-in-config", "theta-list-negative-entry"])
    def test_invalid_input_exits_2(self, argv, files, named, tmp_path,
                                   capsys, monkeypatch):
        # an input the package rejects is a usage error, not a traceback,
        # and a file that holds the bad input is named
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed value
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and "Traceback" not in err
        assert named is None or named in err

    @pytest.mark.parametrize("values", [
        {"L": float("nan")}, {"dim": 4}, {"H_minus": 1.0}, {"T_0": float("inf")},
        {"theta": -1}, {"tol": 0}, {"max_iters": 0}, {"solver_method": "lu"},
        {"preconditioner": "ilu"}, {"mesh_ratios": [2, 4, 4]},
        {"kappa_list": [0.5, 0.25, -1.0]}, {"kappa_minus": float("inf")},
        {"kappa_plus": float("nan")}, {"alpha": float("inf")},
        {"h_plus": 0.0}, {"h_minus": float("nan")}],
        ids=lambda values: next(iter(values)))
    def test_config_values_checked_when_built(self, values, tmp_path,
                                              monkeypatch, capsys):
        # every value a derived object rejects fails as the config is
        # built, naming its file, before any operator is assembled
        calls = []
        monkeypatch.setattr(experiments, "setup_case",
                            lambda *args, **kwargs: calls.append(args))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        assert main(["solve", "--config", str(path)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.count("error: ") == 1
        assert f"error: config file {path}: " in err

    @pytest.mark.parametrize("command,field,value", PAST_A_DOUBLE,
                             ids=[field for _, field, _ in PAST_A_DOUBLE])
    def test_number_past_a_double_exits_2(self, command, field, value,
                                          tmp_path, capsys):
        # a 401-digit integer overflows the float arithmetic of its field,
        # so it is rejected, naming the field, as the config is built
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and "Traceback" not in err
        assert (f"error: config file {path}: {field} holds a number too "
                "large for a double") in err

    def test_kappa_list_checked_before_any_case(self, monkeypatch, capsys):
        # a bad last entry stops the sweep before its first case is set up
        calls = []
        for name in ("setup_case", "build_mesh_pair"):
            monkeypatch.setattr(experiments, name,
                                lambda *args, **kwargs: calls.append(args))
        assert main(["sweep-kappa", "--kappa-list", "0.5,0.25,-1"]) == 2
        assert calls == []
        assert "kappa_list entry -1.0" in capsys.readouterr().err

    def test_degree_in_config_file_exits_2(self, tmp_path, monkeypatch,
                                           capsys):
        # a degree the elements lack is told with its file and field, as
        # the config is built, before any mesh is
        calls = []
        for name in ("setup_case", "build_mesh_pair"):
            monkeypatch.setattr(experiments, name,
                                lambda *args, **kwargs: calls.append(args))
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"m": 3}))
        assert main(["solve", "--config", str(path)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and "Traceback" not in err
        assert f"error: config file {path}: m must be 1 or 2, got 3" in err

    def test_seed_checked_before_any_work(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(experiments, "setup_case",
                            lambda *args, **kwargs: calls.append(args))
        assert main(["spectrum", "--power", "--seed", "-1"]) == 2
        assert calls == []
        assert "seed must be at least 0 and an integer, got -1" in \
            capsys.readouterr().err

    def test_nonlinear_budget_exhaustion_exits_1(self, capsys):
        # an outer loop out of iterations stopped early; it is no input error
        assert main(["nonlinear", "--picard-max", "1"]) == 1
        assert "failed" in capsys.readouterr().err

    def test_spectrum(self, capsys):
        assert main(["spectrum", "--kappa-minus", "0.5", "--power"]) == 0
        out = capsys.readouterr().out
        assert "rho" in out

    def test_spectrum_unconverged_power_iteration(self, monkeypatch, capsys):
        # a power iteration out of steps is reported with its last
        # estimate; the exact radius was found, so the command succeeds
        def stalled(*args, **kwargs):
            raise errors.NoConvergence("no convergence", estimate=0.1234567)

        monkeypatch.setattr(cli, "power_iteration_rho", stalled)
        assert main(["spectrum", "--power"]) == 0
        assert "power_rho=0.123457 power_converged=False" in \
            capsys.readouterr().out

    def test_sweep_kappa_writes_reports(self, tmp_path, capsys):
        rc = main(["sweep-kappa", "--kappa-list", "0.5,0.25,0.125",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "C=" in out and "predicted divergence" in out
        for name in ("records.csv", "fits.csv", "manifest.json"):
            assert (tmp_path / name).exists()

    def test_sweep_mesh_writes_reports(self, tmp_path, capsys):
        rc = main(["sweep-mesh", "--mesh-ratios", "2,4,8", "--kappa-list",
                   "0.5,0.25,0.125", "--outdir", str(tmp_path)])
        assert rc == 0
        assert "slope per doubling" in capsys.readouterr().out
        assert [r["h_ratio"] for r in read_csv(tmp_path / "records.csv")] \
            == ["2.0"] * 3 + ["4.0"] * 3 + ["8.0"] * 3
        assert [r["case_id"] for r in read_csv(tmp_path / "fits.csv")] == [
            "ratio-2", "ratio-4", "ratio-8"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["records"] == 9
        assert manifest["config"]["mesh_ratios"] == [2, 4, 8]

    def test_relax_study_writes_reports(self, tmp_path, capsys):
        rc = main(["relax-study", "--theta-list", "1,0.5",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best theta" in out
        assert f"reports written to {tmp_path}" in out.splitlines()
        assert [r["theta"] for r in read_csv(tmp_path / "records.csv")] == [
            "1.0", "0.5"]
        assert read_csv(tmp_path / "fits.csv") == []
        assert (tmp_path / "manifest.json").exists()

    def test_compare_monolithic_writes_table(self, tmp_path, capsys):
        rc = main(["compare-monolithic", "--kappa-ratios", "2",
                   "--mesh-ratios", "2", "--outdir", str(tmp_path)])
        assert rc == 0
        assert "vs fitted" in capsys.readouterr().out
        rows = read_csv(tmp_path / "monolithic.csv")
        assert [(r["kappa_ratio"], r["h_ratio"], r["dd_converged"])
                for r in rows] == [("2.0", "2", "True")]
        assert read_csv(tmp_path / "records.csv") == []
        assert (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("curve", ["constant", "csv"])
    def test_nonlinear_single_run(self, curve, tmp_path, capsys):
        spec = "0.5"
        if curve == "csv":
            spec = str(tmp_path / "curve.csv")
            (tmp_path / "curve.csv").write_text(
                "T,kappa\n430,0.35\n290,0.65\n")
        out = tmp_path / "out"
        rc = main(["nonlinear", "--curve-b", spec, "--kappa-plus-b", "0.5",
                   "--outdir", str(out)])
        assert rc == 0
        assert "picard converged" in capsys.readouterr().out
        # one run prints its summary and writes no report
        assert not out.exists()

    def test_nonlinear_sweep_writes_table(self, tmp_path, capsys):
        rc = main(["nonlinear", "--sweep-kappa-plus-b", "0.3:0.8:3",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert "fastest at" in capsys.readouterr().out
        rows = read_csv(tmp_path / "kappa_plus_B_sweep.csv")
        np.testing.assert_allclose(
            [float(r["kappa_plus_B"]) for r in rows],
            np.geomspace(0.3, 0.8, 3), rtol=1e-15)
        assert {r["converged"] for r in rows} == {"True"}
        assert (tmp_path / "manifest.json").exists()

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