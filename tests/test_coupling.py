"""Cross-mesh coupling matrices and the coupled-system builder."""

import functools
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import gldd.coupling as coupling
import gldd.fem as fem_module
import gldd.mesh as mesh_module
from gldd.coupling import (ProblemData, assemble_flux_jump_S,
                           assemble_penalty_D, build_coupled_operators,
                           default_alpha, interface_trace_gap)
from gldd.errors import NonpositiveCoefficient, OrphanInterfaceFacet
from gldd.fem import (assemble_boundary_mass, build_dofmap, evaluate_field,
                      facet_rule, laser_flux)
from gldd.mesh import (FacetTag, GeometryConfig, build_global_mesh,
                       build_local_mesh, cell_geometry, interface_facets,
                       locate_point)


def make_pair(dim=2, h_plus=1 / 160, h_minus=1 / 320, m=1):
    geom = GeometryConfig(dim=dim)
    gmesh = build_global_mesh(geom, h_plus)
    lmesh = build_local_mesh(geom, h_minus)
    return geom, gmesh, build_dofmap(gmesh, m), lmesh, build_dofmap(lmesh, m)


def interp(dofmap, fn):
    return np.asarray(fn(dofmap.dof_coords), dtype=float)


class TestFluxJumpS:
    def test_zero_at_matching_coefficients(self):
        _, gm, gd, lm, ld = make_pair()
        S = assemble_flux_jump_S(gm, lm, gd, ld, 0.7, 0.7)
        assert S.nnz == 0 and S.shape == (gd.n_dofs, ld.n_dofs)

    @pytest.mark.parametrize("m", [1, 2])
    def test_linear_oracle_2d(self, m):
        # u interpolates 2 + 3x, v interpolates 5y; both exact for P1/P2,
        # the facet normal is (0,-1), so u^T S v must equal
        # (kp - km) * (-5) * (2 L + 3 L^2 / 2)
        geom, gm, gd, lm, ld = make_pair(m=m)
        kp, km = 1.0, 0.25
        S = assemble_flux_jump_S(gm, lm, gd, ld, kp, km)
        u = interp(gd, lambda x: 2.0 + 3.0 * x[:, 0])
        v = interp(ld, lambda x: 5.0 * x[:, 1])
        L = geom.L
        want = (kp - km) * (-5.0) * (2.0 * L + 1.5 * L ** 2)
        assert float(u @ (S @ v)) == pytest.approx(want, rel=1e-12)

    def test_quadratic_oracle_m2(self):
        # P2 reproduces x^2 and y^2 exactly; on gamma the conormal
        # derivative of y^2 is -2 y_if
        geom, gm, gd, lm, ld = make_pair(m=2)
        kp, km = 2.0, 0.5
        y_if = geom.H - geom.H_minus
        S = assemble_flux_jump_S(gm, lm, gd, ld, kp, km)
        u = interp(gd, lambda x: x[:, 0] ** 2)
        v = interp(ld, lambda x: x[:, 1] ** 2)
        want = (kp - km) * (-2.0 * y_if) * geom.L ** 3 / 3.0
        assert float(u @ (S @ v)) == pytest.approx(want, rel=1e-12)

    def test_linear_oracle_3d(self):
        geom, gm, gd, lm, ld = make_pair(dim=3, h_minus=1 / 320)
        kp, km = 1.0, 0.5
        S = assemble_flux_jump_S(gm, lm, gd, ld, kp, km)
        u = interp(gd, lambda x: 1.0 + 2.0 * x[:, 0] + 3.0 * x[:, 1])
        v = interp(ld, lambda x: 4.0 * x[:, 2])
        L, W = geom.L, geom.W
        area_moment = L * W + 2.0 * L ** 2 * W / 2 + 3.0 * L * W ** 2 / 2
        want = (kp - km) * (-4.0) * area_moment
        assert float(u @ (S @ v)) == pytest.approx(want, rel=1e-11)

    def test_support_locality(self):
        geom, gm, gd, lm, ld = make_pair()
        S = assemble_flux_jump_S(gm, lm, gd, ld, 1.0, 0.5)
        y_if = geom.H - geom.H_minus
        rows, cols = S.nonzero()
        gy = gd.dof_coords[np.unique(rows), -1]
        ly = ld.dof_coords[np.unique(cols), -1]
        assert np.all(np.abs(gy - y_if) <= 1 / 160 + 1e-12)
        assert np.all(ly <= y_if + 1 / 320 + 1e-12)

    def test_facet_weight_override_matches_constant(self):
        _, gm, gd, lm, ld = make_pair()
        nfac = len(interface_facets(lm))
        S_const = assemble_flux_jump_S(gm, lm, gd, ld, 1.0, 0.25)
        S_w = assemble_flux_jump_S(gm, lm, gd, ld, 1.0, 1.0,
                                   facet_weights=np.full(nfac, 0.75))
        assert abs(S_const - S_w).max() < 1e-14

    def test_orphan_raise(self):
        # the box mesh carries no coupling facets
        _, gm, gd, _, _ = make_pair()
        with pytest.raises(OrphanInterfaceFacet):
            assemble_flux_jump_S(gm, gm, gd, gd, 1.0, 0.5)


class TestPenaltyD:
    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1)])
    def test_partition_of_unity_identity(self, dim, m):
        # sum_g phi_g = 1 everywhere, so D @ 1 must equal -alpha times the
        # trace integrals int_gamma phi_loc, available independently from
        # the strip boundary mass matrix
        _, gm, gd, lm, ld = make_pair(dim=dim, m=m)
        alpha = 3.5e4
        D = assemble_penalty_D(gm, lm, gd, ld, alpha)
        gamma = [f for f, t in zip(lm.facet_vertices, lm.facet_tags)
                 if t == FacetTag.INTERFACE_GAMMA.value]
        M_gamma = assemble_boundary_mass(lm, ld, gamma, 1.0)
        want = -alpha * (M_gamma @ np.ones(ld.n_dofs))
        got = D @ np.ones(gd.n_dofs)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * alpha * lm.h)

    def test_coincident_grid_hand_oracle(self):
        # with h_plus == h_minus the interface nodes coincide and D is
        # -alpha times the 1d hat-function mass matrix on that grid
        geom, gm, gd, lm, ld = make_pair(h_plus=1 / 160, h_minus=1 / 160)
        alpha = 10.0
        h = 1 / 160
        y_if = geom.H - geom.H_minus
        D = assemble_penalty_D(gm, lm, gd, ld, alpha).toarray()

        def gamma_dofs(dofmap):
            idx = np.where(np.abs(dofmap.dof_coords[:, 1] - y_if) < 1e-12)[0]
            return idx[np.argsort(dofmap.dof_coords[idx, 0])]

        li, gi = gamma_dofs(ld), gamma_dofs(gd)
        n = len(li)
        assert n == len(gi) == 5
        M = np.zeros((n, n))
        for k in range(n - 1):
            M[k, k] += h / 3
            M[k + 1, k + 1] += h / 3
            M[k, k + 1] += h / 6
            M[k + 1, k] += h / 6
        np.testing.assert_allclose(D[np.ix_(li, gi)], -alpha * M,
                                   rtol=1e-13, atol=1e-16)
        # nothing outside that block beyond point-location roundoff
        block = np.zeros_like(D)
        block[np.ix_(li, gi)] = D[np.ix_(li, gi)]
        assert np.abs(D - block).max() < 1e-14 * alpha * h

    def test_rows_live_on_gamma(self):
        geom, gm, gd, lm, ld = make_pair()
        D = assemble_penalty_D(gm, lm, gd, ld, 1.0)
        y_if = geom.H - geom.H_minus
        rows = np.unique(D.nonzero()[0])
        assert np.all(np.abs(ld.dof_coords[rows, 1] - y_if) < 1e-12)

    def test_negative_alpha_raises(self):
        _, gm, gd, lm, ld = make_pair()
        with pytest.raises(NonpositiveCoefficient):
            assemble_penalty_D(gm, lm, gd, ld, -1.0)


def build_ops(kappa_minus, kappa_plus=1.0, problem=None, alpha=None, dim=2,
              m=1, h_plus=1 / 160, h_minus=1 / 320):
    geom, gm, gd, lm, ld = make_pair(dim=dim, h_plus=h_plus,
                                     h_minus=h_minus, m=m)
    return build_coupled_operators(geom, gm, gd, lm, ld, kappa_plus,
                                   kappa_minus, alpha=alpha, problem=problem)


class TestBuilder:
    def test_shapes_and_dirichlet_rows(self):
        ops = build_ops(0.5)
        assert ops.K_plus.shape == (ops.n_plus, ops.n_plus)
        assert ops.S.shape == (ops.n_plus, ops.n_minus)
        assert ops.D.shape == (ops.n_minus, ops.n_plus)
        for g in ops.global_dirichlet:
            row = ops.K_plus.getrow(g)
            assert row.nnz == 1 and row[0, g] == 1.0
            assert ops.S.getrow(g).nnz == 0
            assert ops.f_plus[g] == ops.T_D
        for l in ops.local_dirichlet:
            assert ops.D.getrow(l).nnz == 0
            assert ops.f_minus[l] == ops.T_D

    def test_sign_flip_against_literal(self):
        geom, gm, gd, lm, ld = make_pair()
        kp, km = 1.0, 0.5
        ops = build_coupled_operators(geom, gm, gd, lm, ld, kp, km)
        literal = assemble_flux_jump_S(gm, lm, gd, ld, kp, km)
        free = np.setdiff1d(np.arange(ops.n_plus), ops.global_dirichlet)
        diff = (ops.S + literal)[free]
        assert abs(diff).max() < 1e-15

    def test_laser_load_doubles_with_ratio(self):
        # the concentrated flux lands on the strip's top wall, inside the
        # rescaled region, so the box load scales by exactly kp/km; zero
        # wall temperature keeps the Dirichlet lift out of the picture
        prob = ProblemData(T_D=0.0)
        f_one = build_ops(1.0, problem=prob).f_plus
        ops = build_ops(0.5, problem=prob)
        free = np.setdiff1d(np.arange(ops.n_plus), ops.global_dirichlet)
        np.testing.assert_allclose(ops.f_plus[free], 2.0 * f_one[free],
                                   rtol=1e-14)

    def test_box_load_affine_in_ratio(self):
        # load = (below-floor part) + ratio * (in-strip part), so the
        # second difference over ratios 1, 2, 3 cancels exactly
        prob = ProblemData(f=4.0)
        f1 = build_ops(1.0, problem=prob).f_plus
        f2 = build_ops(0.5, problem=prob).f_plus
        ops3 = build_ops(1.0 / 3.0, problem=prob)
        free = np.setdiff1d(np.arange(ops3.n_plus), ops3.global_dirichlet)
        combo = f1 + ops3.f_plus - 2.0 * f2
        assert np.abs(combo[free]).max() <= 1e-12 * np.abs(f2).max()

    def test_strip_load_ignores_ratio(self):
        # changing kappa_plus rescales the box data but must leave the
        # strip block untouched
        a = build_ops(0.5, kappa_plus=1.0)
        b = build_ops(0.5, kappa_plus=2.0)
        np.testing.assert_array_equal(a.f_minus, b.f_minus)
        assert abs(a.K_minus - b.K_minus).max() == 0.0

    def test_nonpositive_kappa_raises(self):
        with pytest.raises(NonpositiveCoefficient):
            build_ops(0.0)
        with pytest.raises(NonpositiveCoefficient):
            build_ops(-0.5)
        with pytest.raises(NonpositiveCoefficient):
            build_ops(0.5, kappa_plus=-1.0)

    @pytest.mark.parametrize("values", [[0.5, 0.25], [0.5, -1.0]])
    def test_array_kappa_minus_rejected(self, values):
        # per-cell strip values go through kappa_minus_cells
        with pytest.raises(ValueError, match="kappa_minus_cells"):
            build_ops(np.array(values))


def pow_laser_flux(x, dim, L):
    """The laser flux with its quartic written d ** 4."""
    expo = (L / 2.0 - x[..., 0]) ** 4
    if dim == 3:
        expo = expo + (L / 2.0 - x[..., 1]) ** 4
    return 0.4e5 * np.exp(-expo / 1e-12)


class TestLaserSupport:
    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1)])
    def test_picard_scaled_flux_bitwise_equal(self, dim, m):
        # a Picard-style flux_scale that looks up a strip field; the
        # support of the default flux must not change the scaled box load
        geom, gm, gd, lm, ld = make_pair(dim=dim, m=m)
        T = interp(ld, lambda x: 300.0 + 4000.0 * x[:, 0])
        calls = []

        def flux_scale(x):
            calls.append(len(x))
            return 0.5 / (1.0 + 1e-3 * evaluate_field(lm, ld, T, x))

        def loads(problem):
            calls.clear()
            ops = build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                          problem=problem,
                                          flux_scale=flux_scale)
            return ops.f_plus, ops.f_minus, len(calls)

        # coarser 3D panels keep the scale's point location small
        panel = ProblemData().flux_panel if dim == 2 else 1e-3
        plain = ProblemData(q=lambda x: laser_flux(x, dim, geom.L),
                            flux_panel=panel)
        fp, fm, n_near = loads(ProblemData(flux_panel=panel))
        fp_plain, fm_plain, n_all = loads(plain)
        np.testing.assert_array_equal(fp, fp_plain)
        np.testing.assert_array_equal(fm, fm_plain)
        # one scale call per flux call: the box top facets near the spot (2
        # of 4 in 2D, 8 of 32 in 3D), and all of them, fit in one chunk
        assert n_near == 1
        assert n_all == 1

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_squared_quartic_within_tolerance(self, dim, m):
        geom, gm, gd, lm, ld = make_pair(dim=dim, m=m)
        q_pow = functools.partial(pow_laser_flux, dim=dim, L=geom.L)
        q_pow.support = ProblemData().flux(geom).support
        new = build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5)
        old = build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                      problem=ProblemData(q=q_pow))
        for a, b in [(new.f_plus, old.f_plus), (new.f_minus, old.f_minus)]:
            np.testing.assert_array_equal(a == 0.0, b == 0.0)
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)


class TestPenaltyLimit:
    @staticmethod
    def strip_solve(alpha):
        # the box field matches the wall temperature on the side walls,
        # otherwise the corner mismatch would dominate the trace gap
        ops = build_ops(0.5, alpha=alpha)
        L = ops.geom.L

        def bump(x):
            return 293.15 + 2e5 * x[:, 0] * (L - x[:, 0]) * (x[:, 1] / L)

        T_plus = interp(ops.global_dofmap, bump)
        rhs = ops.f_minus - ops.D @ T_plus
        T_minus = spla.splu(ops.K_minus.tocsc()).solve(rhs)
        return ops, T_plus, T_minus

    def test_strip_solution_cauchy_in_alpha(self):
        sols = {a: self.strip_solve(a)[2] for a in (1e4, 1e6, 1e8)}
        d1 = np.linalg.norm(sols[1e6] - sols[1e4])
        d2 = np.linalg.norm(sols[1e8] - sols[1e6])
        assert d2 <= 0.1 * d1

    def test_trace_gap_shrinks_like_inverse_alpha(self):
        gaps = {}
        for a in (1e4, 1e6):
            ops, T_plus, T_minus = self.strip_solve(a)
            gaps[a] = interface_trace_gap(ops, T_plus, T_minus)
        ratio = gaps[1e4] / gaps[1e6]
        assert 30.0 < ratio < 300.0

    def test_gap_oracle_constant_offset(self):
        # equal linear traces give zero gap; a unit offset gives sqrt(L)
        ops = build_ops(0.5)
        lin = lambda x: 250.0 + 1000.0 * x[:, 0]
        T_plus = interp(ops.global_dofmap, lin)
        T_minus = interp(ops.local_dofmap, lin)
        assert interface_trace_gap(ops, T_plus, T_minus) < 1e-10
        gap = interface_trace_gap(ops, T_plus, T_minus + 1.0)
        assert gap == pytest.approx(np.sqrt(ops.geom.L), rel=1e-12)


def count_calls(monkeypatch, home, attr):
    """The first argument of every call of home.attr from now on, made from
    any gldd module."""
    calls = []
    real = getattr(home, attr)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("gldd") and getattr(module, attr, None) is real:
            monkeypatch.setattr(module, attr, counting)
    return calls


def count_locations(monkeypatch):
    """The meshes of every locate_point call from now on."""
    return count_calls(monkeypatch, mesh_module, "locate_point")


def gamma_facets(mesh):
    gamma = mesh.facet_tags == FacetTag.INTERFACE_GAMMA.value
    return mesh.facet_vertices[gamma], mesh.facet_cells[gamma]


class TestInterfaceTerms:
    """The gamma points are facet-rule points of the strip, so only the box
    basis is located; the strip basis comes from the facet rule."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_strip_barycentrics_match_location(self, dim, m):
        geom, _, _, lm, _ = make_pair(dim=dim, m=m)
        rule = facet_rule(dim, m)
        facets, owners = gamma_facets(lm)
        lam = coupling._owner_barycentrics(lm, facets, owners, rule.points)
        loc = locate_point(lm, (rule.points @ lm.vertices[facets]).reshape(
            -1, dim))
        np.testing.assert_array_equal(
            loc.cell, np.repeat(owners, len(rule.weights)))
        # located barycentrics are coordinate offsets over h, so they carry
        # rounding of order eps * L / h (1.5e-15 at h = 1/320)
        atol = 4 * np.finfo(float).eps * geom.L / lm.h
        np.testing.assert_allclose(lam.reshape(-1, dim + 1), loc.barycentric,
                                   rtol=0, atol=atol)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_location_per_mesh_pair(self, dim, monkeypatch):
        geom, gm, gd, lm, ld = make_pair(dim=dim)
        calls = count_locations(monkeypatch)
        coupling._Interface(gm, lm, gd, ld)
        assert calls == [gm]
        # a build keeps its interface terms; a second one locates nothing
        calls.clear()
        for km in (0.5, 0.25):
            build_coupled_operators(geom, gm, gd, lm, ld, 1.0, km)
        assert calls == [gm]

    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1)])
    def test_trace_gap_matches_located_fields(self, dim, m, monkeypatch):
        ops = build_ops(0.5, dim=dim, m=m)
        rng = np.random.default_rng(11)
        T_plus = rng.uniform(290.0, 400.0, ops.n_plus)
        T_minus = rng.uniform(290.0, 400.0, ops.n_minus)
        calls = count_locations(monkeypatch)
        gap = interface_trace_gap(ops, T_plus, T_minus)
        assert calls == []
        # both fields evaluated at the located gamma points
        lm = ops.local_mesh
        rule = facet_rule(dim, m)
        facets, _ = gamma_facets(lm)
        xq = rule.points @ lm.vertices[facets]
        wq = rule.weights * (lm.facet_measure(facets)
                             / (1.0 if dim == 2 else 0.5))[:, None]
        tm = evaluate_field(lm, ops.local_dofmap, T_minus, xq)
        tp = evaluate_field(ops.global_mesh, ops.global_dofmap, T_plus, xq)
        assert gap == pytest.approx(np.sqrt(np.sum(wq * (tm - tp) ** 2)),
                                    rel=1e-12)


OPERATOR_FIELDS = ("K_plus", "K_minus", "S", "D", "f_plus", "f_minus")


def assert_same_operators(a, b):
    """Bitwise equality of every block and load of two builds."""
    for name in OPERATOR_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if sp.issparse(x):
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(x, part),
                                              getattr(y, part), err_msg=name)
        else:
            np.testing.assert_array_equal(x, y, err_msg=name)


class TestGeometryReuse:
    """Coupled operators built again on the same mesh objects reuse the
    coefficient-free terms kept on them; the result is bitwise the build on
    freshly constructed meshes."""

    @staticmethod
    def picard_build(geom, gm, gd, lm, ld, draw):
        kp_cells, km_cells, weights, alpha, T = draw

        def flux_scale(x):
            return 0.5 / (1.0 + 1e-3 * evaluate_field(lm, ld, T, x))

        # coarser 3D panels keep the scale's point location small
        panel = 1e-4 if geom.dim == 2 else 1e-3
        return build_coupled_operators(
            geom, gm, gd, lm, ld, kappa_plus=0.5,
            kappa_minus=float(np.mean(km_cells)), alpha=alpha,
            problem=ProblemData(flux_panel=panel), kappa_plus_cells=kp_cells,
            kappa_minus_cells=km_cells, jump_facet_weights=weights,
            flux_scale=flux_scale)

    @staticmethod
    def draw(gm, lm, ld, rng):
        nf = len(interface_facets(lm))
        return (rng.uniform(0.1, 4.0, gm.num_cells),
                rng.uniform(0.1, 4.0, lm.num_cells),
                rng.uniform(-2.0, 2.0, nf), rng.uniform(0.0, 1e7),
                rng.uniform(290.0, 400.0, ld.n_dofs))

    @settings(max_examples=10, deadline=None, database=None)
    @given(dim=st.sampled_from([2, 3]), m=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_second_build_equals_fresh_build(self, dim, m, seed):
        rng = np.random.default_rng(seed)
        geom, gm, gd, lm, ld = make_pair(dim=dim, m=m)
        first = self.draw(gm, lm, ld, rng)
        second = self.draw(gm, lm, ld, rng)
        self.picard_build(geom, gm, gd, lm, ld, first)
        reused = self.picard_build(geom, gm, gd, lm, ld, second)
        fresh = self.picard_build(*make_pair(dim=dim, m=m), second)
        assert_same_operators(reused, fresh)

    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1)])
    def test_constant_coefficients_reuse(self, dim, m):
        geom, gm, gd, lm, ld = make_pair(dim=dim, m=m)
        for km in (0.5, 0.125):
            reused = build_coupled_operators(geom, gm, gd, lm, ld, 1.0, km)
        fresh = build_coupled_operators(*make_pair(dim=dim, m=m), 1.0, 0.125)
        assert_same_operators(reused, fresh)

    def test_strip_load_follows_problem_data(self):
        # the strip load is kept for one set of problem data; data that
        # differ from the kept set in one field rebuild it, and another wall
        # temperature reuses it
        geom, gm, gd, lm, ld = make_pair()
        for problem in (ProblemData(T_D=300.0), ProblemData(f=2.0),
                        ProblemData(flux_panel=1e-3),
                        ProblemData(q=lambda x: 1e3 * x[..., 0])):
            build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5)
            ops = build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                          problem=problem)
            want = build_coupled_operators(*make_pair(), 1.0, 0.5,
                                           problem=problem)
            assert_same_operators(ops, want)

    def test_other_global_pair_rebuilds(self):
        # the terms kept on the strip dof map belong to one box mesh pair;
        # a build with another box mesh must not reuse them
        geom, gm, gd, lm, ld = make_pair()
        build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5)
        gm2 = build_global_mesh(geom, 1 / 320)
        gd2 = build_dofmap(gm2, 1)
        ops = build_coupled_operators(geom, gm2, gd2, lm, ld, 1.0, 0.5)
        want = build_coupled_operators(*make_pair(h_plus=1 / 320), 1.0, 0.5)
        assert ops.S.shape == (gd2.n_dofs, ld.n_dofs)
        assert_same_operators(ops, want)


# ----------------------------------------------------------------------
# the pre-layout builder, written out as the reference of the kept layouts
# ----------------------------------------------------------------------

def coo_stiffness(mesh, dofmap, kappa_cells):
    """The stiffness summed by scipy's COO-to-CSR conversion."""
    units = fem_module._stiffness_pattern(mesh, dofmap).units
    vals = (kappa_cells * cell_geometry(mesh)[0])[:, None, None] * units
    dofs = dofmap.cell_dofs
    rows = np.broadcast_to(dofs[:, :, None], vals.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], vals.shape).ravel()
    n = dofmap.n_dofs
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def masked_apply_dirichlet(A, b, dofs, value):
    """Symmetric elimination by masks on a copy of A and one product with
    A for the lift."""
    n = A.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[dofs] = True
    A = sp.csr_matrix(A, dtype=float, copy=True)
    A.sum_duplicates()
    b_new = b - value * (A @ mask.astype(float))
    b_new[mask] = value
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    diagonal = rows == A.indices
    A.data[mask[rows] | mask[A.indices]] = 0.0
    A.data[diagonal & mask[rows]] = 1.0
    bare = mask.copy()
    bare[rows[diagonal]] = False
    if bare.any():
        A = (A + sp.diags(bare.astype(float), format="csr")).tocsr()
    A.eliminate_zeros()
    return A, b_new


def zero_rows(A, rows):
    mask = np.zeros(A.shape[0], dtype=bool)
    mask[rows] = True
    A.data[np.repeat(mask, np.diff(A.indptr))] = 0.0
    A.eliminate_zeros()
    return A


def reference_box_load(geom, gm, gd, problem, scale):
    """The box load with the data inside the strip footprint multiplied by
    scale(x) there, integrated in one pass."""
    f = problem.f if callable(problem.f) else \
        (lambda x: np.full(x.shape[:-1], float(problem.f)))
    q = problem.flux(geom)

    def f_tilde(x):
        inside = x[..., -1] >= geom.H - geom.H_minus - 1e-12
        out = np.broadcast_to(np.asarray(f(x), dtype=float),
                              inside.shape).copy()
        if np.any(inside):
            out[inside] *= scale(x[inside])
        return out

    def q_tilde(x):
        out = np.broadcast_to(np.asarray(q(x), dtype=float),
                              x.shape[:-1]).copy()
        hot = out != 0.0
        if np.any(hot):
            out[hot] *= scale(x[hot])
        return out

    q_tilde.support = q.support
    volume = callable(problem.f) or float(problem.f) != 0.0
    return fem_module.assemble_load(gm, gd, f_tilde if volume else 0.0,
                                    q_tilde, q_panel=problem.flux_panel)


def reference_operators(geom, gm, gd, lm, ld, kp_cells, km_cells, weights,
                        alpha, problem, flux_scale, ratio):
    gdir = fem_module.dirichlet_dofs(gm, gd)
    ldir = fem_module.dirichlet_dofs(lm, ld)
    facets, _ = gamma_facets(lm)
    S = zero_rows((-assemble_flux_jump_S(gm, lm, gd, ld, 1.0, 0.5,
                                         facet_weights=weights)).tocsr(),
                  gdir)
    D = zero_rows(assemble_penalty_D(gm, lm, gd, ld, alpha), ldir)
    K_minus = (coo_stiffness(lm, ld, km_cells)
               + assemble_boundary_mass(lm, ld, facets, alpha)).tocsr()
    scale = flux_scale if flux_scale is not None else (lambda x: ratio)
    f_plus = box_load = reference_box_load(geom, gm, gd, problem, scale)
    f_minus = fem_module.assemble_load(lm, ld, problem.f, problem.flux(geom),
                                       q_panel=problem.flux_panel)
    K_plus, f_plus = masked_apply_dirichlet(coo_stiffness(gm, gd, kp_cells),
                                            f_plus, gdir, problem.T_D)
    K_minus, f_minus = masked_apply_dirichlet(K_minus, f_minus, ldir,
                                              problem.T_D)
    return dict(K_plus=K_plus, K_minus=K_minus, S=S, D=D, f_plus=f_plus,
                f_minus=f_minus, box_load=box_load)


@functools.lru_cache(maxsize=None)
def kept_pair(dim, m):
    return make_pair(dim=dim, m=m)


class TestKeptLayouts:
    """A build on a kept mesh pair writes the blocks' data into their kept
    Dirichlet-eliminated layouts and reads the kept unscaled box load."""

    @settings(max_examples=12, deadline=None, database=None)
    @given(dim=st.sampled_from([2, 3]), m=st.sampled_from([1, 2]),
           source=st.sampled_from(["none", "constant", "callable"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_match_reference(self, dim, m, source, seed):
        rng = np.random.default_rng(seed)
        geom, gm, gd, lm, ld = kept_pair(dim, m)
        f = {"none": 0.0, "constant": 4.0e3,
             "callable": lambda x: 1e3 * (1.0 + 40.0 * x[..., 0])}[source]
        # coarser 3D panels keep the scale's point location small
        problem = ProblemData(f=f, flux_panel=1e-4 if dim == 2 else 1e-3)
        kp_cells = rng.uniform(0.1, 4.0, gm.num_cells)
        km_cells = rng.uniform(0.1, 4.0, lm.num_cells)
        weights = rng.uniform(-2.0, 2.0, len(interface_facets(lm)))
        alpha = rng.uniform(0.0, 1e7)
        kp, km = 1.0, float(np.mean(km_cells))
        T = rng.uniform(290.0, 400.0, ld.n_dofs)

        def flux_scale(x):
            return 0.5 / (1.0 + 1e-3 * evaluate_field(lm, ld, T, x))

        for scale in (None, flux_scale):
            ops = build_coupled_operators(
                geom, gm, gd, lm, ld, kp, km, alpha=alpha, problem=problem,
                kappa_plus_cells=kp_cells, kappa_minus_cells=km_cells,
                jump_facet_weights=weights, flux_scale=scale)
            want = reference_operators(geom, gm, gd, lm, ld, kp_cells,
                                       km_cells, weights, alpha, problem,
                                       scale, kp / km)
            for name in ("K_plus", "K_minus", "S", "D"):
                for part in ("indptr", "indices", "data"):
                    np.testing.assert_array_equal(
                        getattr(getattr(ops, name), part),
                        getattr(want[name], part), err_msg=name)
            np.testing.assert_array_equal(ops.f_minus, want["f_minus"])
            if scale is None:
                # outside + ratio * inside rounds apart from the one-pass
                # sum; an entry that cancels to rounding noise (a P2 vertex
                # dof under a constant source) is held to the load's scale
                atol = 1e-14 * np.abs(want["box_load"]).max()
                np.testing.assert_allclose(ops.f_plus, want["f_plus"],
                                           rtol=1e-14, atol=atol)
            else:
                np.testing.assert_array_equal(ops.f_plus, want["f_plus"])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_second_build_keeps_dirichlet_and_box_load(self, dim,
                                                       monkeypatch):
        geom, gm, gd, lm, ld = make_pair(dim=dim)
        problem = ProblemData(f=4.0, flux_panel=1e-3)
        build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                problem=problem)
        calls = {attr: count_calls(monkeypatch, fem_module, attr)
                 for attr in ("dirichlet_dofs", "apply_dirichlet",
                              "assemble_load")}
        build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.25,
                                problem=problem)
        assert calls == {"dirichlet_dofs": [], "apply_dirichlet": [],
                         "assemble_load": []}
        # a flux_scale integrates the box load on every build, and only it
        build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.25,
                                problem=problem,
                                flux_scale=lambda x: np.full(len(x), 2.0))
        assert calls == {"dirichlet_dofs": [], "apply_dirichlet": [],
                         "assemble_load": [gm]}


class TestDefaults:
    def test_default_alpha(self):
        assert default_alpha(0.5, 1 / 320) == pytest.approx(1e6 * 320.0)
        assert default_alpha(4.0, 0.1) == pytest.approx(4e7)
        assert default_alpha(np.array([0.5, 3.0]), 0.1) == pytest.approx(3e7)

    def test_problem_flux_defaults_to_laser(self):
        geom = GeometryConfig()
        q = ProblemData().flux(geom)
        x = np.array([[geom.L / 2, geom.H], [0.0, geom.H]])
        want = laser_flux(x, dim=2, L=geom.L)
        np.testing.assert_allclose(q(x), want)

    def test_problem_flux_passthrough(self):
        my_q = lambda x: np.zeros(np.asarray(x).shape[:-1])
        assert ProblemData(q=my_q).flux(GeometryConfig()) is my_q
