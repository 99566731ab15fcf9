"""Solver wrappers, spectral estimation and the radius-vs-ratio fit."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from gldd import linalg
from gldd.errors import (InvalidConfig, NonpositiveConstant, NoConvergence,
                         RankDeficient, SingularMatrix, TooLarge)
from gldd.linalg import (InterfaceBlock, LinearSolver, ScaledSolver,
                         SolverConfig, fit_rho_law, least_squares_fit,
                         power_iteration_rho)


def spd_system(n=40, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = A @ A.T + n * np.eye(n)
    x = rng.standard_normal(n)
    return sp.csr_matrix(A), A @ x, x


def full_iteration_matrix(K_plus, S, K_minus, D):
    """M = K_plus^{-1} S K_minus^{-1} D as a dense n+ x n+ matrix, from n+
    solves per block."""
    X = spla.splu(sp.csc_matrix(K_minus)).solve(D.toarray())
    return spla.splu(sp.csc_matrix(K_plus)).solve(S @ X)


def block_radius(K_plus, S, K_minus, D, theta=1.0):
    """rho(theta) of the InterfaceBlock on direct solvers of the blocks."""
    return InterfaceBlock(LinearSolver(K_plus), S, LinearSolver(K_minus),
                          D).rho(theta)


def solve(A, b, config):
    """One LinearSolver solve: (x, iterations), direct solves report 0."""
    solver = LinearSolver(A, config)
    return solver.solve(b), solver.total_iterations


class TestSolve:
    @pytest.mark.parametrize("method", ["dense-direct", "conjugate-gradient",
                                        "restarted-minimal-residual"])
    def test_spd_roundtrip(self, method):
        A, b, x = spd_system()
        cfg = SolverConfig(method=method, rel_tol=1e-12)
        got, iters = solve(A, b, cfg)
        np.testing.assert_allclose(got, x, rtol=1e-8, atol=1e-9)
        assert (iters == 0) == (method == "dense-direct")

    def test_aliases(self):
        # a config holds its method's kind, so an alias makes an equal
        # config; an unknown method or preconditioner raises at once
        assert SolverConfig(method="conjugate-gradient").method == "cg"
        assert SolverConfig(method="cg").method == "cg"
        assert SolverConfig(method="restarted-minimal-residual").method == "gmres"
        assert SolverConfig(method="dense-direct").method == "direct"
        assert SolverConfig() == SolverConfig(method="direct")
        assert hash(SolverConfig()) == hash(SolverConfig(method="direct"))
        with pytest.raises(ValueError):
            SolverConfig(method="sor")
        with pytest.raises(ValueError):
            SolverConfig(preconditioner="ilu")

    def test_direct_ignores_diagonal_preconditioner(self):
        # the direct solve never uses the preconditioner, so a zero
        # diagonal is no reason to refuse it; a Krylov solve still refuses
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x, _ = solve(A, np.array([1.0, 2.0]),
                     SolverConfig(method="direct", preconditioner="diagonal"))
        np.testing.assert_array_equal(x, [2.0, 1.0])
        with pytest.raises(SingularMatrix):
            LinearSolver(A, SolverConfig(method="gmres",
                                         preconditioner="diagonal"))

    def test_direct_non_finite_result_raises(self):
        # a subnormal pivot factors, but 1 / 1e-320 overflows to inf
        A = sp.csr_matrix(np.diag([1.0, 1e-320]))
        with pytest.raises(SingularMatrix, match="non-finite"):
            LinearSolver(A, SolverConfig(method="direct")).solve(np.ones(2))

    def test_diagonal_preconditioner_helps(self):
        # badly scaled SPD system: Jacobi restores iteration counts
        n = 60
        d = np.logspace(0, 6, n)
        A = sp.diags(d) + sp.csr_matrix(np.full((n, n), 0.01))
        b = np.ones(n)
        plain = SolverConfig(method="conjugate-gradient", rel_tol=1e-10,
                             max_iters=100000)
        prec = SolverConfig(method="conjugate-gradient", rel_tol=1e-10,
                            preconditioner="diagonal", max_iters=100000)
        _, it_plain = solve(A.tocsr(), b, plain)
        _, it_prec = solve(A.tocsr(), b, prec)
        assert it_prec < it_plain

    def test_zero_rhs_short_circuit(self):
        A, _, _ = spd_system(10)
        x, iters = solve(A, np.zeros(10), SolverConfig(method="cg"))
        assert not x.any() and iters == 0

    def test_singular_direct(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrix):
            solve(A, np.ones(2), SolverConfig(method="dense-direct"))

    def test_direct_pivots_off_zero_diagonal(self):
        # the direct kind orders for symmetric input and prefers diagonal
        # pivots; on a non-symmetric matrix whose leading diagonal is zero
        # it must still pivot, and still report an exactly singular one
        n = 60
        rng = np.random.default_rng(5)
        A = sp.random(n, n, density=0.1, random_state=rng,
                      data_rvs=lambda k: rng.uniform(-1.0, 1.0, k)).tolil()
        A.setdiag(np.r_[np.zeros(10), rng.uniform(0.5, 1.0, n - 10)])
        A += sp.eye(n, k=1) * 4.0 + sp.eye(n, k=-(n - 1)) * 4.0
        A = sp.csr_matrix(A)
        assert not A.diagonal()[:10].any() and (A != A.T).nnz
        b = rng.standard_normal(n)
        x, _ = solve(A, b, SolverConfig(method="dense-direct"))
        ref = spla.spsolve(A.tocsc(), b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        singular = A.tolil()
        singular[:, 7] = 0.0
        with pytest.raises(SingularMatrix):
            solve(sp.csr_matrix(singular), b,
                  SolverConfig(method="dense-direct"))

    def test_no_convergence_carries_estimate(self):
        A, b, _ = spd_system(50, seed=3)
        cfg = SolverConfig(method="conjugate-gradient", rel_tol=1e-14,
                           max_iters=2)
        with pytest.raises(NoConvergence) as info:
            solve(A, b, cfg)
        assert info.value.estimate is not None
        assert info.value.iterations == 2

    def test_total_iterations_accumulate(self):
        A, b, _ = spd_system(30, seed=1)
        s = LinearSolver(A, SolverConfig(method="cg", rel_tol=1e-10))
        s.solve(b)
        first = s.total_iterations
        s.solve(2 * b)
        assert s.total_iterations > first

    def test_scaled_solves_row_scaled_matrix(self, monkeypatch):
        # diag(d) A with d = 2.5 off the identity rows 0 and 3 and 1 on
        # them, solved on the one factorization of A, for 1-D and 2-D b
        A, _, _ = spd_system(12, seed=4)
        A = A.tolil()
        for i in (0, 3):
            A[i, :] = 0.0
            A[:, i] = 0.0
            A[i, i] = 1.0
        A = sp.csr_matrix(A)
        d = np.full(12, 2.5)
        d[[0, 3]] = 1.0
        factored = []
        real = spla.splu
        monkeypatch.setattr(spla, "splu", lambda M, *a, **kw:
                            factored.append(1) or real(M, *a, **kw))
        unit = LinearSolver(A)
        scaled = ScaledSolver(unit, 2.5, [0, 3])
        b = np.random.default_rng(5).standard_normal((12, 3))
        want = np.linalg.solve(d[:, None] * A.toarray(), b)
        np.testing.assert_allclose(scaled.solve(b), want, rtol=1e-12)
        np.testing.assert_allclose(scaled.solve(b[:, 1]), want[:, 1],
                                   rtol=1e-12)
        assert scaled.solve(b)[[0, 3]].tolist() == b[[0, 3]].tolist()
        unit.solve(b[:, 0])
        assert factored == [1] and scaled.total_iterations == 0


class TestPowerIteration:
    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidConfig, match="seed"):
            power_iteration_rho(lambda v: 0.5 * v, 2, seed=seed)

    @pytest.mark.parametrize("name,value", [
        ("tol", np.nan), ("tol", 0.0), ("tol", -1e-10), ("tol", np.inf),
        ("max_iters", 0), ("max_iters", 2.5), ("max_iters", True)])
    def test_bad_budget_rejected(self, name, value):
        # unchecked, max_iters = 0 raises NoConvergence with an infinite
        # estimate, and a NaN tol runs the whole budget
        with pytest.raises(InvalidConfig, match=f"{name} must be"):
            power_iteration_rho(lambda v: 0.5 * v, 2, seed=0,
                                **{name: value})

    def test_diagonal_oracle(self):
        op = lambda v: np.array([0.5, -0.9]) * v
        rho, rayleigh = power_iteration_rho(op, 2, seed=0)
        assert rho == pytest.approx(0.9, rel=1e-8)
        assert rayleigh == pytest.approx(-0.9, rel=1e-8)

    def test_relaxed_radius(self):
        # (1-theta) + theta*lambda over {0.5, -0.9} at theta=0.5: {0.75, 0.05}
        op = lambda v: np.array([0.5, -0.9]) * v
        rho, _ = power_iteration_rho(op, 2, theta=0.5, seed=0)
        assert rho == pytest.approx(0.75, rel=1e-8)

    def test_matches_dense_on_random_blocks(self):
        # D = S^T with SPD blocks makes M similar to a symmetric PSD
        # matrix, so the dominant eigenvalue is real and power iteration
        # must agree with the dense route
        rng = np.random.default_rng(7)
        n, k = 12, 9
        Bp = rng.standard_normal((n, n))
        Bm = rng.standard_normal((k, k))
        K_plus = sp.csr_matrix(Bp @ Bp.T + n * np.eye(n))
        K_minus = sp.csr_matrix(Bm @ Bm.T + k * np.eye(k))
        S = sp.csr_matrix(rng.standard_normal((n, k)))
        D = sp.csr_matrix(S.T)
        M = full_iteration_matrix(K_plus, S, K_minus, D)
        op = lambda v: M @ v
        rho, _ = power_iteration_rho(op, n, seed=1, max_iters=20000)
        assert rho == pytest.approx(np.abs(np.linalg.eigvals(M)).max(),
                                    rel=1e-6)

    def test_zero_operator_has_zero_radius(self):
        # the first application vanishes, so no ratio is ever taken
        assert power_iteration_rho(lambda v: 0.0 * v, 3, seed=0) == (0.0, 0.0)

    def test_nonconvergence_raises(self):
        # involution with skewed eigenvectors: the normalized iterate flips
        # between two directions of different gain, so the radius estimate
        # oscillates and never settles
        M = np.array([[1.0, 1.0], [0.0, -1.0]])
        with pytest.raises(NoConvergence) as info:
            power_iteration_rho(lambda v: M @ v, 2, max_iters=50, seed=0)
        assert info.value.iterations == 50


class TestDenseRadius:
    def test_against_companion_roots(self):
        # independent eigenvalue route: characteristic polynomial from the
        # trace recursion (no eigendecomposition), roots via the companion
        # matrix in np.roots
        rng = np.random.default_rng(11)
        n, k = 8, 6
        K_plus = sp.csr_matrix(rng.standard_normal((n, n)) + 8 * np.eye(n))
        K_minus = sp.csr_matrix(rng.standard_normal((k, k)) + 8 * np.eye(k))
        S = sp.csr_matrix(rng.standard_normal((n, k)))
        D = sp.csr_matrix(rng.standard_normal((k, n)))
        rho = block_radius(K_plus, S, K_minus, D)
        M = full_iteration_matrix(K_plus, S, K_minus, D)
        coeffs = np.zeros(n + 1)
        coeffs[0] = 1.0
        Mk = np.eye(n)
        for j in range(1, n + 1):
            Mk = M @ (Mk + coeffs[j - 1] * np.eye(n)) if j > 1 else M.copy()
            coeffs[j] = -np.trace(Mk) / j
        roots = np.roots(coeffs)
        assert rho == pytest.approx(np.abs(roots).max(), rel=1e-7)

    def test_theta_shift(self):
        rng = np.random.default_rng(13)
        n, k = 6, 5
        K_plus = sp.csr_matrix(rng.standard_normal((n, n)) + 8 * np.eye(n))
        K_minus = sp.csr_matrix(rng.standard_normal((k, k)) + 8 * np.eye(k))
        S = sp.csr_matrix(rng.standard_normal((n, k)))
        D = sp.csr_matrix(rng.standard_normal((k, n)))
        M = full_iteration_matrix(K_plus, S, K_minus, D)
        theta = 0.3
        want = np.abs((1 - theta) + theta * np.linalg.eigvals(M)).max()
        got = block_radius(K_plus, S, K_minus, D, theta=theta)
        assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(2, 10), k=st.integers(2, 8),
           seed=st.integers(0, 2 ** 32 - 1),
           theta=st.floats(0.0, 1.0, exclude_min=True))
    def test_reduced_matches_full_matrix(self, n, k, seed, theta):
        # random SPD blocks and a D supported on a random column subset J,
        # so |J| < n+ is drawn often and the relaxed eigenvalue 1 - theta
        # of M's null space counts
        rng = np.random.default_rng(seed)
        Bp = rng.standard_normal((n, n))
        Bm = rng.standard_normal((k, k))
        K_plus = sp.csr_matrix(Bp @ Bp.T + n * np.eye(n))
        K_minus = sp.csr_matrix(Bm @ Bm.T + k * np.eye(k))
        S = sp.csr_matrix(rng.standard_normal((n, k)))
        support = rng.random(n) < rng.uniform(0.2, 1.0)
        support[rng.integers(n)] = True
        D = sp.csr_matrix(rng.standard_normal((k, n)) * support)
        M = full_iteration_matrix(K_plus, S, K_minus, D)
        want = np.abs((1 - theta) + theta * np.linalg.eigvals(M)).max()
        got = block_radius(K_plus, S, K_minus, D, theta=theta)
        assert abs(got - want) <= 1e-10 * max(1.0, want)

    def test_pair_keeps_its_factorizations(self, monkeypatch):
        # the 2|J| column solves of Y factor each block once, and the pair
        # keeps both factorizations for later solves
        rng = np.random.default_rng(17)
        n, k = 7, 5
        Bp, Bm = rng.standard_normal((n, n)), rng.standard_normal((k, k))
        K_plus = sp.csr_matrix(Bp @ Bp.T + n * np.eye(n))
        K_minus = sp.csr_matrix(Bm @ Bm.T + k * np.eye(k))
        S = sp.csr_matrix(rng.standard_normal((n, k)))
        D = sp.csr_matrix(rng.standard_normal((k, n)))
        factored = []
        real = spla.splu
        monkeypatch.setattr(spla, "splu", lambda A, *a, **kw:
                            factored.append(A.shape) or real(A, *a, **kw))
        plus, minus = LinearSolver(K_plus), LinearSolver(K_minus)
        block = InterfaceBlock(plus, S, minus, D)
        plus.solve(np.ones(n))
        minus.solve(np.ones(k))
        assert sorted(factored) == [(k, k), (n, n)]
        M = full_iteration_matrix(K_plus, S, K_minus, D)
        want = np.abs(0.4 + 0.6 * np.linalg.eigvals(M)).max()
        assert block.rho(0.6) == pytest.approx(want, rel=1e-12)

    def test_scaled_block_is_block_of_scaled_operator(self):
        # scaling S by c scales M, so Y and every eigenvalue, by c; the
        # appended 0 stays 0
        rng = np.random.default_rng(23)
        n, k = 6, 4
        K_plus = sp.csr_matrix(np.diag(rng.uniform(1, 2, n)))
        K_minus = sp.csr_matrix(np.diag(rng.uniform(1, 2, k)))
        S = sp.csr_matrix(rng.standard_normal((n, k)))
        D = sp.csr_matrix(np.eye(k, n, 1) * rng.uniform(1, 2, (k, 1)))
        block = InterfaceBlock(LinearSolver(K_plus), S, LinearSolver(K_minus),
                               D)
        scaled = block.scaled(-2.5)
        direct = InterfaceBlock(LinearSolver(K_plus), -2.5 * S,
                                LinearSolver(K_minus), D)
        np.testing.assert_array_equal(scaled.J, direct.J)
        np.testing.assert_allclose(scaled.Y, direct.Y, rtol=1e-14)
        assert scaled.rho(0.7) == pytest.approx(direct.rho(0.7), rel=1e-13)
        assert scaled.lam[-1] == 0.0 and block.Y is not scaled.Y

    def test_size_guard(self, monkeypatch):
        n = 12
        eye = sp.identity(n, format="csr")
        monkeypatch.setattr(linalg, "_DENSE_GUARD", n - 1)
        with pytest.raises(TooLarge):
            block_radius(eye, eye, eye, eye)


class TestFits:
    def test_exact_linear_law(self):
        xs = np.array([0.5 ** l for l in range(1, 9)])
        rhos = 0.3 * np.abs(xs - 1.0)
        fit = fit_rho_law(xs, rhos)
        assert fit.a1 == pytest.approx(-0.3, abs=1e-10)
        assert fit.a0 == pytest.approx(0.3, abs=1e-10)
        assert fit.C_tilde == pytest.approx(0.3, abs=1e-10)
        assert abs(fit.b2) < 1e-10
        assert fit.r2_linear == pytest.approx(1.0, abs=1e-12)
        assert fit.divergence_threshold() == pytest.approx(1 + 1 / 0.3,
                                                           rel=1e-9)
        assert fit.predict_linear(0.5) == pytest.approx(0.15, abs=1e-10)

    def test_quadratic_term_recovered(self):
        xs = np.linspace(0.1, 0.9, 9)
        rhos = 0.4 - 0.38 * xs + 0.02 * xs ** 2
        fit = fit_rho_law(xs, rhos)
        assert fit.b2 == pytest.approx(0.02, abs=1e-10)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            least_squares_fit([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], 1)
        with pytest.raises(RankDeficient):
            fit_rho_law([0.5, 0.25], [0.1, 0.2])

    @pytest.mark.parametrize("xs,ys", [([0.1, 0.2, 0.4], [0.0, 0.1]),
                                       ([[0.1, 0.2]], [[0.0, 0.1]])],
                             ids=["lengths", "not-1d"])
    def test_mismatched_shapes(self, xs, ys):
        with pytest.raises(ValueError, match="equal length"):
            least_squares_fit(xs, ys, 1)

    def test_mismatched_shapes_are_a_config_error(self):
        with pytest.raises(InvalidConfig, match="equal length"):
            least_squares_fit([0.1, 0.2, 0.4], [0.0, 0.1], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["xs", "ys"])
    def test_non_finite_values_rejected(self, name, bad, capfd):
        # unchecked, a NaN makes LAPACK print DLASCL errors to stderr
        # before a raw LinAlgError
        data = {"xs": [0.1, 0.2, 0.4, 0.8], "ys": [0.0, 0.1, 0.3, 0.7]}
        data[name][2] = bad
        with pytest.raises(InvalidConfig, match=f"{name} entry {bad} is not "
                                                "finite"):
            least_squares_fit(data["xs"], data["ys"], 1)
        assert capfd.readouterr().err == ""

    def test_threshold_needs_negative_slope(self):
        fit = fit_rho_law([0.1, 0.2, 0.4, 0.8], [0.0, 0.1, 0.3, 0.7])
        with pytest.raises(NonpositiveConstant):
            fit.divergence_threshold()
