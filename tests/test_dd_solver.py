"""Alternating iteration, closed-form equivalents and the fitted reference."""

import json
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gldd.coupling import (CoupledOperators, ProblemData,
                           build_coupled_operators)
from gldd.dd_solver import (DDConfig, DDReport, FittedSolution,
                            block_residual, build_mesh_pair,
                            export_solution_csv,
                            make_iteration_operator, neumann_partial_sum,
                            run_coupled_direct, run_fitted_reference,
                            run_two_level_dd, setup_case)
from gldd.errors import (Diverged, InvalidConfig, IterationFailure,
                         MaxItersExceeded, NoConvergence, SingularMatrix)
from gldd.fem import evaluate_field
from gldd.linalg import InterfaceBlock, LinearSolver, SolverConfig
from gldd.mesh import FacetTag, GeometryConfig

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


@pytest.mark.parametrize("dim", [2, 3])
def test_scalar_callable_data_match_constants(dim):
    # a callable source or flux that returns one value for all its points
    # builds the operators of the constant
    want = make_ops(problem=ProblemData(f=2.5, q=1e5), dim=dim)
    got = make_ops(problem=ProblemData(f=lambda x: 2.5, q=lambda x: 1e5),
                   dim=dim)
    for name in ("f_plus", "f_minus"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    for name in ("K_plus", "K_minus", "S", "D"):
        a, b = getattr(got, name), getattr(want, name)
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))


def test_shared_solvers_count_own_inner_iterations():
    # runs on one operators object share its solver pair and report what
    # each run spent, the same as a run on operators of its own
    config = DDConfig(solver=SolverConfig(method="cg"))
    alone = run_two_level_dd(make_ops(), config)
    ops = make_ops()
    for _ in range(2):
        shared = run_two_level_dd(ops, config)
        assert shared.inner_iterations == alone.inner_iterations
        np.testing.assert_array_equal(shared.T_plus, alone.T_plus)


def count_factorizations(monkeypatch):
    """The shape of every matrix splu factors from here on."""
    factored = []
    real = spla.splu

    def counting(A, *args, **kwargs):
        factored.append(A.shape)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return factored


class TestSolverPair:
    def test_one_factorization_per_block(self, monkeypatch):
        # the radius, the sweep, M and the partial sums on one operators
        # object all solve on its one pair
        ops = make_ops()
        factored = count_factorizations(monkeypatch)
        ops.interface()
        report = run_two_level_dd(ops)
        make_iteration_operator(ops)(report.T_plus)
        neumann_partial_sum(ops, 2, report.T_plus)
        assert sorted(factored) == sorted([ops.K_plus.shape,
                                           ops.K_minus.shape])

    def test_alias_shares_the_pair(self, monkeypatch):
        # a sweep asking for "direct" and partial sums on the default
        # config ("dense-direct") solve on one pair
        ops = make_ops()
        factored = count_factorizations(monkeypatch)
        report = run_two_level_dd(ops, DDConfig(
            solver=SolverConfig(method="direct")))
        neumann_partial_sum(ops, 2, report.T_plus)
        assert sorted(factored) == sorted([ops.K_plus.shape,
                                           ops.K_minus.shape])

    def test_one_direct_pair_new_krylov_pair_per_call(self):
        # a direct solve reads only its method, so every direct config
        # gets the one direct pair; a Krylov pair factors nothing, so each
        # call makes its own
        ops = make_ops()
        direct = ops.solvers(SolverConfig())
        for config in (SolverConfig(method="direct"),
                       SolverConfig(method="dense-direct", rel_tol=1e-6),
                       SolverConfig(preconditioner="diagonal")):
            assert ops.solvers(config) is direct
        cg = SolverConfig(method="cg")
        plus, minus = ops.solvers(cg)
        again = ops.solvers(cg)
        assert again[0] is not plus and again[1] is not minus
        assert plus.config == cg and minus.config == cg

    def test_new_block_gets_new_pair(self):
        # blocks are fixed when built: replace makes operators with other
        # blocks, which factor a pair of their own, and ops keeps its pair
        ops = make_ops()
        plus, minus = ops.solvers(SolverConfig())
        T = plus.solve(ops.f_plus)
        doubled = replace(ops, K_plus=2.0 * ops.K_plus)
        new_plus, new_minus = doubled.solvers(SolverConfig())
        assert new_plus is not plus and new_minus is not minus
        np.testing.assert_allclose(new_plus.solve(ops.f_plus), 0.5 * T,
                                   rtol=1e-12)
        assert ops.solvers(SolverConfig()) == (plus, minus)
        with pytest.raises(FrozenInstanceError):
            ops.K_plus = 2.0 * ops.K_plus


def capture_pairs(monkeypatch):
    """Every solver pair CoupledOperators.solvers hands out from here on."""
    pairs = []
    real = CoupledOperators.solvers

    def capturing(self, config):
        pairs.append(real(self, config))
        return pairs[-1]

    monkeypatch.setattr(CoupledOperators, "solvers", capturing)
    return pairs


def count_solves(monkeypatch):
    """The right-hand side of every LinearSolver.solve call from here on."""
    calls = []
    real = LinearSolver.solve

    def counting(self, b):
        calls.append(np.asarray(b))
        return real(self, b)

    monkeypatch.setattr(LinearSolver, "solve", counting)
    return calls


def run_or_stop(ops, config, **kwargs):
    """(error class or None, report) of one run."""
    try:
        return None, run_two_level_dd(ops, config, **kwargs)
    except IterationFailure as exc:
        return type(exc), exc.report


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestInterfaceBlockRoute:
    """A direct sweep on operators that keep their interface block forms
    each box iterate as c + Y T_plus[J]; any other sweep makes the two
    block solves."""

    @settings(max_examples=12, deadline=None, database=None)
    @given(kappa_minus=st.floats(0.05, 16.0), dim=st.sampled_from([2, 3]),
           m=st.sampled_from([1, 2]),
           theta=st.floats(0.0, 1.2, exclude_min=True))
    def test_block_route_matches_two_solves(self, kappa_minus, dim, m, theta):
        # kappa_minus up to 16 puts rho well above 1 at theta near 1; the
        # same operators run before and after their block is kept
        ops = make_ops(kappa_minus=kappa_minus, m=m, dim=dim)
        config = DDConfig(theta=theta, max_iters=200)
        error, two = run_or_stop(ops, config)
        ops.interface()
        block_error, block = run_or_stop(ops, config)
        assert block_error is error
        assert block.iterations == two.iterations
        tol = 1e-12
        if error is not None:
            # the looser check of stopped runs: a diverging run amplifies
            # the rounding of its first sweeps as it amplifies its step;
            # perturbing the start by 1e-16 relative moves the two-solve
            # route's stopped iterate by up to 6e-12 relative
            first, last = two.residual_history[[0, -1]]
            tol *= max(1.0, last / first) if first > 0 else 1.0
        assert relative_gap(block.T_plus, two.T_plus) <= tol
        assert relative_gap(block.T_minus, two.T_minus) <= tol

    @pytest.mark.parametrize("error,kappa_minus,config", [
        (None, 0.5, DDConfig(store_iterates=True)),
        (Diverged, 12.0, DDConfig(max_iters=500, store_iterates=True)),
        (MaxItersExceeded, 0.5, DDConfig(tol=1e-16, max_iters=3,
                                         store_iterates=True))])
    def test_strip_iterate_of_the_last_sweep(self, monkeypatch, error,
                                             kappa_minus, config):
        # on the block the start, c and the strip solve of T_minus are the
        # only solves, whatever the sweep count; a stopped run reports the
        # strip solve of its last sweep, a converged one that of its final
        # iterate
        ops = make_ops(kappa_minus=kappa_minus)
        ops.interface()
        solves = count_solves(monkeypatch)
        got, report = run_or_stop(ops, config)
        assert got is error and report.iterations > 1
        assert len(solves) == 4
        last = report.iterates[-1 if error is None else -2]
        _, minus = ops.solvers(config.solver)
        np.testing.assert_array_equal(
            report.T_minus, minus.solve(ops.f_minus - ops.D @ last))

    @pytest.mark.parametrize("solver", [SolverConfig(),
                                        SolverConfig(method="cg")])
    def test_sweep_without_block_makes_two_solves(self, monkeypatch, solver):
        # a direct run on operators that keep no block builds none, and a
        # cg run solves on its own pair although the operators keep one:
        # both make two one-column solves per sweep and no 2-D solve
        ops = make_ops()
        if solver.method == "cg":
            ops.interface()
        solves = count_solves(monkeypatch)
        built = []
        monkeypatch.setattr(InterfaceBlock, "__init__",
                            lambda *a, **k: built.append(1))
        report = run_two_level_dd(ops, DDConfig(solver=solver))
        assert report.iterations > 1
        assert len(solves) == 2 * report.iterations + 2
        assert all(b.ndim == 1 for b in solves)
        assert built == []
        assert ("block" in ops._state) == (solver.method == "cg")

    def test_iteration_operator_keeps_two_solves(self, monkeypatch):
        # M stays the independent two-solve reference of the series and
        # of the radius once a block is kept
        ops = make_ops()
        ops.interface()
        solves = count_solves(monkeypatch)
        apply_M = make_iteration_operator(ops)
        v = np.random.default_rng(3).standard_normal(ops.n_plus)
        for k in range(1, 4):
            v = apply_M(v)
            assert len(solves) == 2 * k

    def test_block_kept_per_blocks(self):
        # one block per operators, on the default direct pair; operators
        # with a block replaced hold none until they make their own, on a
        # pair of their own
        ops = make_ops()
        block = ops.interface()
        assert ops.interface() is block
        # a scalar build's direct pair scales the kept unit pair
        plus, minus = ops.solvers(SolverConfig())
        assert plus.unit._lu is not None and minus.unit._lu is not None
        other = replace(ops, D=ops.D.copy())
        assert "block" not in other._state
        new_plus, new_minus = other.solvers(SolverConfig())
        assert new_plus is not plus and new_minus is not minus
        new_block = other.interface()
        assert new_block is not block and ops.interface() is block
        assert new_block.rho() == pytest.approx(block.rho(), rel=1e-12)
        with pytest.raises(FrozenInstanceError):
            ops.D = ops.D.copy()


def reference_sweep(ops, config, block):
    """The alternating iteration as written in the module docstring, with
    np.linalg.norm and the relaxation formed at every theta, on ops's
    direct pair (and its interface block, when block): (error class or
    None, sweep count, residual history, T_plus, T_minus)."""
    plus, minus = ops.solvers(config.solver)

    def strip(T_plus):
        return minus.solve(ops.f_minus - ops.D @ T_plus)

    T_plus = plus.solve(ops.f_plus)
    if block:
        Y, J = ops.interface().Y, ops.interface().J
        c = plus.solve(ops.f_plus - ops.S @ minus.solve(ops.f_minus))
    history, first = [], None
    for _ in range(config.max_iters):
        T_tilde = c + Y @ T_plus[J] if block else \
            plus.solve(ops.f_plus - ops.S @ strip(T_plus))
        T_next = config.theta * T_tilde + (1.0 - config.theta) * T_plus
        step = np.linalg.norm(T_next - T_plus)
        denom = np.linalg.norm(T_next)
        history.append(step / (denom if denom > 0 else 1.0))
        T_prev, T_plus = T_plus, T_next
        if history[-1] < config.tol:
            return None, len(history), history, T_plus, strip(T_plus)
        if first is None:
            first = step if step > 0 else None
        elif not np.isfinite(step) or step > 1e6 * first:
            return Diverged, len(history), history, T_plus, strip(T_prev)
    return MaxItersExceeded, len(history), history, T_plus, strip(T_prev)


class TestSweepParity:
    """The sweep's bookkeeping (the norms, the finiteness test, the
    unrelaxed iterate taken as is at theta = 1) leaves every number of the
    run as the reference loop has it, bitwise, on both routes."""

    @pytest.mark.parametrize("block", [True, False],
                             ids=["block", "two-solve"])
    @pytest.mark.parametrize("kappa_minus,theta", [
        (0.5, 1.0), (0.5, 0.67), (3.0, 0.67), (10.0, 1.0)])
    def test_run_matches_reference_loop(self, block, kappa_minus, theta):
        config = DDConfig(theta=theta, max_iters=500)
        ops = make_ops(kappa_minus=kappa_minus, m=2)
        if block:
            ops.interface()
        error, report = run_or_stop(ops, config)
        want = reference_sweep(make_ops(kappa_minus=kappa_minus, m=2),
                               config, block)
        # kappa_minus = 10 diverges unrelaxed, the others converge
        assert error is want[0] is (Diverged if kappa_minus == 10.0
                                    else None)
        assert report.iterations == want[1]
        np.testing.assert_array_equal(report.residual_history, want[2])
        np.testing.assert_array_equal(report.T_plus, want[3])
        np.testing.assert_array_equal(report.T_minus, want[4])


def per_cell(pair, kappa_plus, kappa_minus):
    """The per-cell arguments, flux scale included, of a build at scalar
    kappa_plus and kappa_minus on pair (box mesh, its dof map, strip mesh,
    its dof map)."""
    gm, _, lm, _ = pair
    n_gamma = np.count_nonzero(
        lm.facet_tags == FacetTag.INTERFACE_GAMMA.value)
    return dict(kappa_plus_cells=np.full(gm.num_cells, kappa_plus),
                kappa_minus_cells=np.full(lm.num_cells, kappa_minus),
                jump_facet_weights=np.full(n_gamma, kappa_plus - kappa_minus),
                flux_scale=lambda x: np.full(len(x), kappa_plus / kappa_minus))


class TestUnitPair:
    """A scalar build solves on the unit pair its mesh pair keeps, scaled by
    its coefficients, and its interface block is the unit block scaled by
    1 - kappa_minus / kappa_plus."""

    @settings(max_examples=12, deadline=None, database=None)
    @given(ratio=st.floats(1e-3, 4.0), kappa_plus=st.sampled_from([1.0, 3.0]),
           dim=st.sampled_from([2, 3]), penalty=st.sampled_from([None, 4e5]))
    @example(ratio=4.0, kappa_plus=1.0, dim=2, penalty=None)  # rho 1.28
    @example(ratio=4.0, kappa_plus=3.0, dim=2, penalty=4e5)
    @example(ratio=1.0, kappa_plus=1.0, dim=3, penalty=None)  # S = 0
    @example(ratio=1.0, kappa_plus=3.0, dim=2, penalty=4e5)
    @example(ratio=1.0 - 1e-9, kappa_plus=3.0, dim=2, penalty=None)
    def test_matches_own_factorizations(self, ratio, kappa_plus, dim,
                                        penalty):
        # kappa_minus = ratio * kappa_plus on a mesh pair whose unit pair a
        # build at kappa_plus / 2 made, against the same blocks built with
        # per-cell strip values, which factor their own pair; both sweep
        # first on solves alone, then on their blocks.  The explicit
        # penalty is penalty * kappa_minus.  In 2D P2 the unit radius is
        # 0.43, so ratio 4 diverges
        geom = GEOM if dim == 2 else GeometryConfig(dim=3)
        pair = build_mesh_pair(geom, 1 / 160, 1 / 320, 2 if dim == 2 else 1)

        def build(kappa_minus, **cells):
            alpha = None if penalty is None else penalty * kappa_minus
            return build_coupled_operators(geom, *pair, kappa_plus,
                                           kappa_minus, alpha=alpha, **cells)

        build(kappa_plus / 2)
        kappa_minus = ratio * kappa_plus
        ops = build(kappa_minus)
        own = build(kappa_minus, **per_cell(pair, kappa_plus, kappa_minus))
        assert "unit" in ops._state and "unit" not in own._state
        config = DDConfig(max_iters=300)
        runs = [run_or_stop(o, config) for o in (ops, own)]
        rho, rho_own = ops.interface().rho(), own.interface().rho()
        assert abs(rho - rho_own) <= 1e-12 * rho_own
        runs += [run_or_stop(o, config) for o in (ops, own)]
        for (error, report), (error_own, report_own) in (runs[:2],
                                                         runs[2:]):
            assert error is error_own
            assert report.iterations == report_own.iterations

    def test_two_builds_share_per_penalty_ratio(self):
        # the box factorization is kept per box dof map, the strip's per
        # penalty ratio alpha / kappa_minus, compared by value
        pair = build_mesh_pair(GEOM, 1 / 160, 1 / 320, 1)
        a, b, c, d = (build_coupled_operators(GEOM, *pair, 1.0, km,
                                              alpha=alpha)
                      for km, alpha in ((0.5, None), (0.25, None),
                                        (0.25, 1e5), (0.5, 2e5)))
        units = [ops._state["unit"][0] for ops in (a, b, c, d)]
        assert units[0] is units[1] and units[2] is units[3]
        assert units[1] is not units[2] and units[0].plus is units[2].plus
        assert a.solvers(SolverConfig())[1].unit is units[0].minus.solver

    def test_builds_cannot_change_the_unit_pair(self):
        # every block of a scalar build has arrays of its own: a caller
        # that changes a build's blocks in place leaves the kept unit
        # blocks, and so the next build and its sweep, as they were
        pair = build_mesh_pair(GEOM, 1 / 160, 1 / 320, 1)
        ops = build_coupled_operators(GEOM, *pair, 1.0, 1.0)
        assert ops.S.nnz == 0
        ops.K_plus.data *= 2.0
        ops.K_minus.data[::2] = 0.0
        ops.D.data[::3] = 0.0
        ops.f_plus[:] = 0.0
        for block in (ops.K_plus, ops.K_minus, ops.S, ops.D):
            block.eliminate_zeros()
            block.has_sorted_indices = False
            block.sort_indices()
        ops = build_coupled_operators(GEOM, *pair, 1.0, 2.7)
        ops.S.data[:] = 0.0
        ops.S.eliminate_zeros()
        ops = build_coupled_operators(GEOM, *pair, 1.0, 2.7)
        fresh = build_coupled_operators(
            GEOM, *build_mesh_pair(GEOM, 1 / 160, 1 / 320, 1), 1.0, 2.7)
        for name in ("K_plus", "K_minus", "S", "D"):
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(getattr(ops, name), part),
                    getattr(getattr(fresh, name), part), err_msg=name)
        np.testing.assert_array_equal(ops.f_plus, fresh.f_plus)
        np.testing.assert_array_equal(ops.f_minus, fresh.f_minus)
        assert run_two_level_dd(ops).iterations == 16

    def test_per_cell_or_changed_blocks_factor_their_own(self):
        pair = build_mesh_pair(GEOM, 1 / 160, 1 / 320, 1)
        cells = build_coupled_operators(GEOM, *pair, 1.0, 0.5,
                                        **per_cell(pair, 1.0, 0.5))
        scalar = build_coupled_operators(GEOM, *pair, 1.0, 0.5)
        changed = replace(scalar, K_minus=scalar.K_minus.copy())
        for ops in (cells, changed):
            assert "unit" not in ops._state
            assert all(isinstance(s, LinearSolver)
                       for s in ops.solvers(SolverConfig()))


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

    def test_coupled_direct_singular_raises(self):
        # a zero box block leaves the first block column of the system zero
        ops = make_ops()
        with pytest.raises(SingularMatrix, match="singular"):
            run_coupled_direct(replace(ops, K_plus=0.0 * ops.K_plus))

    def test_max_iters_raises_with_partial_report(self):
        ops = make_ops()
        with pytest.raises(MaxItersExceeded) as info:
            run_two_level_dd(ops, DDConfig(tol=1e-16, max_iters=3))
        assert info.value.report.iterations == 3
        assert len(info.value.report.residual_history) == 3

    @pytest.mark.parametrize("error,kappa_minus,config", [
        (Diverged, 12.0, DDConfig(max_iters=500)),
        (MaxItersExceeded, 0.5, DDConfig(tol=1e-16, max_iters=3))])
    def test_failed_reports_carry_inner_iterations(self, monkeypatch, error,
                                                   kappa_minus, config):
        ops = make_ops(kappa_minus=kappa_minus)
        cg = SolverConfig(method="cg")
        pairs = capture_pairs(monkeypatch)
        with pytest.raises(error) as info:
            run_two_level_dd(ops, replace(config, solver=cg))
        [(plus, minus)] = pairs
        assert info.value.report.inner_iterations == {
            "local": minus.total_iterations,
            "global": plus.total_iterations}
        assert minus.total_iterations > 0

    def test_inner_stall_raises_with_partial_report(self, monkeypatch):
        # a 40-step CG budget stalls the strip solve of the second sweep
        ops = make_ops()
        cg = SolverConfig(method="cg", max_iters=40)
        pairs = capture_pairs(monkeypatch)
        with pytest.raises(NoConvergence) as info:
            run_two_level_dd(ops, DDConfig(solver=cg),
                             initial=np.zeros(ops.n_plus))
        report = info.value.report
        assert isinstance(report, DDReport) and not report.converged
        assert report.iterations == len(report.residual_history) == 1
        [(plus, minus)] = pairs
        assert report.inner_iterations == {
            "local": minus.total_iterations,
            "global": plus.total_iterations}
        assert report.inner_iterations["local"] >= cg.max_iters

    @pytest.mark.parametrize("config,start,sizes", [
        (DDConfig(solver=SolverConfig(method="cg", max_iters=3)), "zeros",
         (True, False)),
        (DDConfig(solver=SolverConfig(method="cg", max_iters=3)), None,
         (False, False))], ids=["strip-stall", "start-stall"])
    def test_partial_report_without_iterates_to_json(self, config, start,
                                                     sizes):
        # a run that stops before its first strip (or start) solve returns
        # holds no such iterate, and the JSON says so with null sizes
        ops = make_ops()
        initial = np.zeros(ops.n_plus) if start == "zeros" else None
        with pytest.raises((MaxItersExceeded, NoConvergence)) as info:
            run_two_level_dd(ops, config, initial=initial)
        report = info.value.report
        assert report.iterations == 0
        payload = json.loads(report.to_json())
        assert (payload["n_plus"], payload["n_minus"]) == tuple(
            n if present else None
            for n, present in zip((ops.n_plus, ops.n_minus), sizes))

    @pytest.mark.parametrize("theta", [0.0, -0.5, float("nan"),
                                       float("inf")])
    def test_nonpositive_theta_rejected(self, theta):
        # at theta = 0 every step is zero, and the first sweep would report
        # convergence on the initial iterate; at theta = inf the first step
        # is inf - inf
        with pytest.raises(ValueError, match="theta"):
            DDConfig(theta=theta)

    @pytest.mark.parametrize("field,value", [
        ("tol", 0.0), ("tol", -1.0), ("tol", float("nan")),
        ("tol", float("inf")), ("max_iters", 0), ("max_iters", -3),
        ("max_iters", 2.5), ("max_iters", 1.0), ("max_iters", True),
        ("max_iters", "5"), ("max_iters", None)])
    def test_malformed_budget_rejected(self, field, value):
        # a NaN or negative tolerance is never met, so the run would spend
        # its whole budget; a budget below one sweep solves nothing, and
        # one that is no integer (bool excluded) ends the run in a
        # TypeError from range
        with pytest.raises(InvalidConfig, match=field):
            DDConfig(**{field: value})


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

    def test_mesh_and_dof_count_are_the_dof_maps(self):
        # the solution keeps its dof map only; the mesh and dof count are
        # read from it
        assert [f.name for f in fields(FittedSolution)] == [
            "dofmap", "T", "iterations", "wall_time"]
        fitted = run_fitted_reference(GEOM, 1 / 160, 1 / 320, 1.0, 0.5, 1)
        assert fitted.mesh is fitted.dofmap.mesh
        assert fitted.n_dofs == fitted.dofmap.n_dofs == len(fitted.T)

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
    def test_report_json_roundtrip(self):
        report = run_two_level_dd(make_ops())
        payload = json.loads(report.to_json())
        assert payload["converged"] is True
        assert payload["iterations"] == report.iterations
        assert payload["n_plus"] == report.T_plus.shape[0]
        assert len(payload["residual_history"]) == report.iterations

    def test_export_solution_csv(self, tmp_path):
        ops = make_ops()
        report = run_two_level_dd(ops)
        path = tmp_path / "T_plus.csv"
        export_solution_csv(ops.global_dofmap, report.T_plus, path)
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

    @pytest.mark.parametrize("coeffs", [np.ones(3), np.ones(26),
                                        np.ones((25, 1))],
                             ids=["short", "long", "column"])
    def test_export_refuses_coeffs_not_one_per_dof(self, tmp_path, coeffs):
        # zip would cut a short array silently: 3 rows for the 25-dof box
        ops = make_ops()
        assert ops.global_dofmap.n_dofs == 25
        path = tmp_path / "T_plus.csv"
        with pytest.raises(InvalidConfig, match=r"coeffs must hold one value "
                                                r"per dof \(25\)"):
            export_solution_csv(ops.global_dofmap, coeffs, path)
        assert not path.exists()


class TestEntryChecks:
    @pytest.mark.parametrize("k", [-1, 1.5, True, np.nan, "2"])
    def test_partial_sum_index_is_whole(self, k):
        # unchecked, k = -1 returns c + T0 without a word
        ops = make_ops()
        with pytest.raises(InvalidConfig, match="k must be"):
            neumann_partial_sum(ops, k, np.zeros(ops.n_plus))

    def test_partial_sum_index_zero_is_the_start(self):
        ops = make_ops()
        T0 = np.linspace(290.0, 300.0, ops.n_plus)
        np.testing.assert_array_equal(neumann_partial_sum(ops, 0, T0), T0)

    @pytest.mark.parametrize("initial,match", [
        (np.full(24, 300.0), r"one value per box dof \(25\), got shape "
                             r"\(24,\)"),
        (np.full((25, 1), 300.0), r"got shape \(25, 1\)"),
        (np.where(np.arange(25) == 3, np.nan, 300.0), "initial entry nan"),
        (np.where(np.arange(25) == 3, np.inf, 300.0), "initial entry inf"),
        ([300.0] * 24 + ["hot"], "initial must hold numbers")],
        ids=["short", "column", "nan", "inf", "text"])
    def test_initial_is_one_finite_value_per_box_dof(self, initial, match):
        # unchecked, a short start ends in numpy's matmul ValueError and a
        # NaN one is reported as SingularMatrix
        with pytest.raises(InvalidConfig, match=match):
            run_two_level_dd(make_ops(), initial=initial)

    def test_initial_list_is_copied(self):
        ops = make_ops()
        start = [300.0] * ops.n_plus
        report = run_two_level_dd(ops, DDConfig(store_iterates=True),
                                  initial=start)
        assert start == [300.0] * ops.n_plus
        np.testing.assert_array_equal(report.iterates[0], start)
