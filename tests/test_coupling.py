"""Cross-mesh coupling matrices and the coupled-system builder."""

import copy
import dataclasses
import functools
import itertools
import sys
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gldd.coupling as coupling
import gldd.fem as fem_module
import gldd.mesh as mesh_module
from gldd.coupling import (CoupledOperators, ProblemData,
                           assemble_flux_jump_S,
                           assemble_penalty_D, build_coupled_operators,
                           default_alpha, interface_trace_gap)
from gldd.dd_solver import solve_fitted
from gldd.errors import (InvalidConfig, NonpositiveCoefficient,
                         OrphanInterfaceFacet)
from gldd.fem import (assemble_boundary_mass, build_dofmap, evaluate_field,
                      facet_rule, laser_flux)
from gldd.linalg import SolverConfig
from gldd.mesh import (FacetTag, GeometryConfig, build_global_mesh,
                       build_local_mesh, cell_geometry, interface_facets,
                       locate_point)
from test_fem import owner_order_csr


def make_pair(dim=2, h_plus=1 / 160, h_minus=1 / 320, m=1):
    geom = GeometryConfig(dim=dim)
    gmesh = build_global_mesh(geom, h_plus)
    lmesh = build_local_mesh(geom, h_minus)
    return geom, gmesh, build_dofmap(gmesh, m), lmesh, build_dofmap(lmesh, m)


def interp(dofmap, fn):
    return np.asarray(fn(dofmap.dof_coords), dtype=float)


def dirichlet_rows_empty(A, dofmap):
    """Whether the block A has no entry on the Dirichlet rows of dofmap."""
    dirichlet = fem_module.dirichlet_dofs(dofmap)
    return not np.repeat(np.isin(np.arange(A.shape[0]), dirichlet),
                         np.diff(A.indptr)).any()


def unconstrained(monkeypatch):
    """From now on, interface terms are built for dof maps without
    Dirichlet rows: the S and D quadratures on every row, which the
    oracles integrate against whole polynomials."""
    monkeypatch.setattr(coupling, "_elimination", lambda dofmap: (
        types.SimpleNamespace(fixed=np.zeros(dofmap.n_dofs, dtype=bool))))


def oracle_S(monkeypatch, jump, **pair):
    """S on every box row, on a fresh mesh pair whose interface terms are
    built without Dirichlet rows, once S of another fresh pair is checked
    to be that matrix with its box Dirichlet rows emptied: (pair, S)."""
    _, gm, gd, lm, ld = make_pair(**pair)
    S = assemble_flux_jump_S(gd, ld, jump)
    assert dirichlet_rows_empty(S, gd)
    whole = make_pair(**pair)
    with monkeypatch.context() as patch:
        unconstrained(patch)
        full = assemble_flux_jump_S(whole[2], whole[4], jump)
    emptied = zero_rows(full.copy(), fem_module.dirichlet_dofs(gd))
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(S, part),
                                      getattr(emptied, part))
    return whole, full


class TestFluxJumpS:
    def test_zero_at_matching_coefficients(self):
        _, gm, gd, lm, ld = make_pair()
        S = assemble_flux_jump_S(gd, ld, 0.7 - 0.7)
        assert S.nnz == 0 and S.shape == (gd.n_dofs, ld.n_dofs)

    @pytest.mark.parametrize("m", [1, 2])
    def test_linear_oracle_2d(self, m, monkeypatch):
        # u interpolates 2 + 3x, v interpolates 5y; both exact for P1/P2,
        # the facet normal is (0,-1), so u^T S v must equal
        # -(kp - km) * (-5) * (2 L + 3 L^2 / 2) on every box row (S holds
        # the block sign); the box Dirichlet rows are empty
        kp, km = 1.0, 0.25
        (geom, gm, gd, lm, ld), S = oracle_S(monkeypatch, kp - km, m=m)
        u = interp(gd, lambda x: 2.0 + 3.0 * x[:, 0])
        v = interp(ld, lambda x: 5.0 * x[:, 1])
        L = geom.L
        want = -(kp - km) * (-5.0) * (2.0 * L + 1.5 * L ** 2)
        assert float(u @ (S @ v)) == pytest.approx(want, rel=1e-12)

    def test_quadratic_oracle_m2(self, monkeypatch):
        # P2 reproduces x^2 and y^2 exactly; on gamma the conormal
        # derivative of y^2 is -2 y_if
        kp, km = 2.0, 0.5
        (geom, gm, gd, lm, ld), S = oracle_S(monkeypatch, kp - km, m=2)
        y_if = geom.H - geom.H_minus
        u = interp(gd, lambda x: x[:, 0] ** 2)
        v = interp(ld, lambda x: x[:, 1] ** 2)
        want = -(kp - km) * (-2.0 * y_if) * geom.L ** 3 / 3.0
        assert float(u @ (S @ v)) == pytest.approx(want, rel=1e-12)

    def test_linear_oracle_3d(self, monkeypatch):
        kp, km = 1.0, 0.5
        (geom, gm, gd, lm, ld), S = oracle_S(monkeypatch, kp - km, dim=3,
                                             h_minus=1 / 320)
        u = interp(gd, lambda x: 1.0 + 2.0 * x[:, 0] + 3.0 * x[:, 1])
        v = interp(ld, lambda x: 4.0 * x[:, 2])
        L, W = geom.L, geom.W
        area_moment = L * W + 2.0 * L ** 2 * W / 2 + 3.0 * L * W ** 2 / 2
        want = -(kp - km) * (-4.0) * area_moment
        assert float(u @ (S @ v)) == pytest.approx(want, rel=1e-11)

    def test_support_locality(self):
        geom, gm, gd, lm, ld = make_pair()
        S = assemble_flux_jump_S(gd, ld, 1.0 - 0.5)
        y_if = geom.H - geom.H_minus
        rows, cols = S.nonzero()
        gy = gd.dof_coords[np.unique(rows), -1]
        ly = ld.dof_coords[np.unique(cols), -1]
        assert np.all(np.abs(gy - y_if) <= 1 / 160 + 1e-12)
        assert np.all(ly <= y_if + 1 / 320 + 1e-12)

    def test_facet_weight_override_matches_constant(self):
        _, gm, gd, lm, ld = make_pair()
        nfac = len(interface_facets(lm))
        S_const = assemble_flux_jump_S(gd, ld, 1.0 - 0.25)
        S_w = assemble_flux_jump_S(gd, ld, np.full(nfac, 0.75))
        assert abs(S_const - S_w).max() < 1e-14

    def test_orphan_raise(self):
        # the box mesh carries no coupling facets
        _, gm, gd, _, _ = make_pair()
        with pytest.raises(OrphanInterfaceFacet):
            assemble_flux_jump_S(gd, gd, 1.0 - 0.5)


class TestPenaltyD:
    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1)])
    def test_partition_of_unity_identity(self, dim, m):
        # sum_g phi_g = 1 everywhere, so D @ 1 must equal -alpha times the
        # trace integrals int_gamma phi_loc, available independently from
        # the strip boundary mass matrix, on every strip row but the
        # Dirichlet ones, which are empty
        _, gm, gd, lm, ld = make_pair(dim=dim, m=m)
        alpha = 3.5e4
        D = assemble_penalty_D(gd, ld, alpha)
        assert dirichlet_rows_empty(D, ld)
        free = np.setdiff1d(np.arange(ld.n_dofs),
                            fem_module.dirichlet_dofs(ld))
        gamma = [f for f, t in zip(lm.facet_vertices, lm.facet_tags)
                 if t == FacetTag.INTERFACE_GAMMA.value]
        M_gamma = assemble_boundary_mass(ld, gamma, 1.0)
        want = -alpha * (M_gamma @ np.ones(ld.n_dofs))
        got = D @ np.ones(gd.n_dofs)
        np.testing.assert_allclose(got[free], want[free], rtol=1e-12,
                                   atol=1e-12 * alpha * lm.h)

    def test_coincident_grid_hand_oracle(self):
        # with h_plus == h_minus the interface nodes coincide and D is
        # -alpha times the 1d hat-function mass matrix on that grid, on
        # every row but the two at the side walls, which are empty
        geom, gm, gd, lm, ld = make_pair(h_plus=1 / 160, h_minus=1 / 160)
        alpha = 10.0
        h = 1 / 160
        y_if = geom.H - geom.H_minus
        D = assemble_penalty_D(gd, ld, alpha)
        assert dirichlet_rows_empty(D, ld)
        D = D.toarray()

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
        inner = slice(1, n - 1)
        np.testing.assert_allclose(D[np.ix_(li[inner], gi)],
                                   -alpha * M[inner], rtol=1e-13,
                                   atol=1e-16)
        # nothing outside that block: the box basis functions of dofs off
        # gamma vanish there exactly, not to point-location roundoff
        block = np.zeros_like(D)
        block[np.ix_(li, gi)] = D[np.ix_(li, gi)]
        assert np.abs(D - block).max() == 0.0

    def test_rows_live_on_gamma(self):
        geom, gm, gd, lm, ld = make_pair()
        D = assemble_penalty_D(gd, ld, 1.0)
        y_if = geom.H - geom.H_minus
        rows = np.unique(D.nonzero()[0])
        assert np.all(np.abs(ld.dof_coords[rows, 1] - y_if) < 1e-12)

    def test_negative_alpha_raises(self):
        _, gm, gd, lm, ld = make_pair()
        with pytest.raises(NonpositiveCoefficient):
            assemble_penalty_D(gd, ld, -1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_raises(self, alpha):
        _, gm, gd, lm, ld = make_pair()
        with pytest.raises(NonpositiveCoefficient, match="finite"):
            assemble_penalty_D(gd, ld, alpha)


PER_CELL = ("kappa_plus_cells", "kappa_minus_cells", "jump_facet_weights",
            "flux_scale")


def cells_at(gm, lm, kappa_plus, kappa_minus):
    """The per-cell conductivities and jump weights of scalar kappa_plus
    and kappa_minus on a mesh pair, as build_coupled_operators takes them;
    a per-cell build adds its flux_scale."""
    return dict(kappa_plus_cells=np.full(gm.num_cells, kappa_plus),
                kappa_minus_cells=np.full(lm.num_cells, kappa_minus),
                jump_facet_weights=np.full(len(interface_facets(lm)),
                                           kappa_plus - kappa_minus))


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
            assert ops.f_plus[g] == ProblemData().T_D
        for l in ops.local_dirichlet:
            assert ops.D.getrow(l).nnz == 0
            assert ops.f_minus[l] == ProblemData().T_D

    def test_sign_flip_against_literal(self):
        # S comes from its builder with the block sign and its Dirichlet
        # rows empty, and the coupled builder takes it as it is
        geom, gm, gd, lm, ld = make_pair()
        kp, km = 1.0, 0.5
        ops = build_coupled_operators(geom, gm, gd, lm, ld, kp, km)
        literal = assemble_flux_jump_S(gd, ld, kp - km)
        diff = ops.S - literal
        assert abs(diff).max() < 1e-15

    def test_per_cell_default_penalty_at_largest_cell_value(self):
        # the builder owns the penalty rule: without an explicit alpha a
        # per-cell build takes default_alpha of its per-cell strip values,
        # not of the scalar kappa_minus it is also handed
        geom, gm, gd, lm, ld = make_pair()
        km_cells = np.linspace(0.3, 0.9, lm.num_cells)
        cells = dict(cells_at(gm, lm, 1.0, 0.5), kappa_minus_cells=km_cells,
                     flux_scale=lambda x: np.full(len(x), 2.0))
        default, explicit = (
            build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                    alpha=alpha, **cells)
            for alpha in (None, default_alpha(km_cells, lm.h)))
        for name in ("K_minus", "D"):
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(getattr(default, name), part),
                    getattr(getattr(explicit, name), part), err_msg=name)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_kappa_raises(self, value):
        with pytest.raises(NonpositiveCoefficient, match="finite"):
            build_ops(value)
        with pytest.raises(NonpositiveCoefficient, match="finite"):
            build_ops(0.5, kappa_plus=value)
        with pytest.raises(NonpositiveCoefficient, match="finite"):
            build_ops(0.5, alpha=value)

    @pytest.mark.parametrize("values", [[0.5, 0.25], [0.5, -1.0]])
    def test_array_kappa_minus_rejected(self, values):
        # per-cell strip values go through kappa_minus_cells
        with pytest.raises(ValueError, match="kappa_minus_cells"):
            build_ops(np.array(values))

    def test_array_kappa_minus_is_a_config_error(self):
        with pytest.raises(InvalidConfig, match="kappa_minus_cells"):
            build_ops(np.array([0.5, 0.25]))

    @pytest.mark.parametrize("given", [
        pytest.param(given, id="+".join(
            name for name, g in zip(PER_CELL, given) if g))
        for given in itertools.product((False, True), repeat=4)
        if 0 < sum(given) < 4])
    def test_mixed_override_sets_rejected(self, given):
        # a build is scalar (no per-cell argument) or per-cell (all four)
        geom, gm, gd, lm, ld = make_pair()
        full = dict(cells_at(gm, lm, 1.0, 0.5),
                    flux_scale=lambda x: np.full(len(x), 2.0))
        passed = {k: full[k] for k, g in zip(PER_CELL, given) if g}
        with pytest.raises(InvalidConfig) as info:
            build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5, **passed)
        assert all(name in str(info.value) for name in PER_CELL)

    @pytest.mark.parametrize("per_cell", [False, True])
    @pytest.mark.parametrize("side", ["box", "strip"])
    def test_mesh_not_of_its_dofmap_rejected(self, side, per_cell):
        # a 1/80 box mesh beside the dof map of a 1/160 one, or a 1/160
        # strip mesh beside that of a 1/320 one
        geom, gm, gd, lm, ld = make_pair()
        if side == "box":
            gm = build_global_mesh(geom, 1 / 80)
        else:
            lm = build_local_mesh(geom, 1 / 160)
        cells = dict(cells_at(gd.mesh, ld.mesh, 1.0, 0.5),
                     flux_scale=lambda x: np.full(len(x), 2.0)) \
            if per_cell else {}
        with pytest.raises(InvalidConfig, match="mesh of its dof map"):
            build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5, **cells)

    def test_operators_restate_no_inputs(self):
        # the operators hold blocks, loads and two dof maps; each mesh and
        # Dirichlet list is read from its dof map, on either kind of build
        assert [f.name for f in dataclasses.fields(CoupledOperators)
                if f.init] == ["K_plus", "K_minus", "S", "D", "f_plus",
                               "f_minus", "global_dofmap", "local_dofmap"]
        geom, gm, gd, lm, ld = make_pair()
        for cells in ({}, dict(cells_at(gm, lm, 1.0, 0.5),
                               flux_scale=lambda x: 2.0)):
            ops = build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                          **cells)
            assert ops.global_mesh is ops.global_dofmap.mesh is gm
            assert ops.local_mesh is ops.local_dofmap.mesh is lm
            assert ops.global_dirichlet is \
                fem_module._elimination(ops.global_dofmap).dofs
            assert ops.local_dirichlet is \
                fem_module._elimination(ops.local_dofmap).dofs

    @pytest.mark.parametrize("bad", [
        pytest.param(lambda x: np.full(len(x), np.nan), id="nan"),
        pytest.param(lambda x: np.full(len(x), np.inf), id="inf"),
        pytest.param(lambda x: np.ones(len(x) - 1), id="short"),
        pytest.param(lambda x: np.ones((len(x), 1)), id="column")])
    def test_flux_scale_results_checked(self, bad):
        # a scale result that is not finite, or neither a scalar nor one
        # value per point, is refused by name as the build runs (it was a
        # non-finite load that the sweep blamed on the matrix, or numpy's
        # broadcast error)
        geom, gm, gd, lm, ld = make_pair()
        with pytest.raises(InvalidConfig, match="flux_scale"):
            build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                    **cells_at(gm, lm, 1.0, 0.5),
                                    flux_scale=bad)

    def test_scalar_flux_scale_broadcasts(self):
        geom, gm, gd, lm, ld = make_pair()
        f_plus = [build_coupled_operators(
            geom, gm, gd, lm, ld, 1.0, 0.5, **cells_at(gm, lm, 1.0, 0.5),
            flux_scale=scale).f_plus for scale in (
                lambda x: 2.0, lambda x: np.full(len(x), 2.0))]
        np.testing.assert_array_equal(*f_plus)

    @pytest.mark.parametrize("name,bad", [
        pytest.param(name, bad, id=f"{name}-{what}")
        for name, what, bad in (
            ("kappa_plus_cells", "short", lambda v: v[:-1]),
            ("kappa_plus_cells", "long", lambda v: np.append(v, 1.0)),
            ("kappa_minus_cells", "short", lambda v: v[:-1]),
            ("kappa_minus_cells", "row", lambda v: v.reshape(1, -1)),
            ("jump_facet_weights", "short", lambda v: v[:-1]),
            ("jump_facet_weights", "scalar", lambda v: 0.5),
            ("jump_facet_weights", "nan", lambda v: np.where(
                np.arange(len(v)) == 1, np.nan, v)),
            ("jump_facet_weights", "inf", lambda v: np.full(len(v), np.inf)))])
    def test_per_cell_arrays_checked(self, name, bad):
        # one value per box cell, per strip cell and, finite, per gamma
        # facet, each refused by name before anything is assembled
        geom, gm, gd, lm, ld = make_pair()
        cells = dict(cells_at(gm, lm, 1.0, 0.5),
                     flux_scale=lambda x: np.full(len(x), 2.0))
        cells[name] = bad(cells[name])
        with pytest.raises(InvalidConfig, match=name):
            build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5, **cells)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_wall_temperature_rejected(self, value):
        with pytest.raises(InvalidConfig, match="T_D must be finite"):
            ProblemData(T_D=value)


def spot(geom):
    """The centre of the laser spot: the middle of the top wall."""
    return np.array(geom.extents[:-1]) / 2.0


def pow_laser_flux(x, dim, L):
    """The laser flux with its quartic written d ** 4."""
    expo = (L / 2.0 - x[..., 0]) ** 4
    if dim == 3:
        expo = expo + (L / 2.0 - x[..., 1]) ** 4
    return 0.4e5 * np.exp(-expo / 1e-12)


def pow_laser_factor(z, L):
    """fem.laser_factor with its quartic written d ** 4."""
    return np.exp(-(L / 2.0 - z) ** 4 / 1e-12)


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
                                          flux_scale=flux_scale,
                                          **cells_at(gm, lm, 1.0, 0.5))
            return ops.f_plus, ops.f_minus, len(calls)

        # coarser 3D panels keep the scale's point location small
        panel = ProblemData().flux_panel if dim == 2 else 1e-3

        def plain_flux(x):
            return laser_flux(x, spot(geom))

        # the same factors, so the strip load takes the same rule in 3D
        plain_flux.factors = ProblemData().flux(geom).factors
        plain = ProblemData(q=plain_flux, flux_panel=panel)
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
        # in 3D both loads go through the moment rule of their factors
        factor = functools.partial(pow_laser_factor, L=geom.L)
        q_pow.factors = (lambda z: 0.4e5 * factor(z),) + (factor,) * (dim - 2)
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
        L = GeometryConfig().L

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
        assert gap == pytest.approx(np.sqrt(GeometryConfig().L), rel=1e-12)


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
    @pytest.mark.parametrize("m", [1, 2])
    def test_gamma_mass_is_the_boundary_mass(self, dim, m):
        # both come from fem's one facet quadrature, so they agree bitwise
        _, gm, gd, lm, ld = make_pair(dim=dim, m=m)
        terms = coupling._interface(gd, ld)
        alpha = 3.5
        want = terms.mass.matrix(alpha * terms.scale)
        got = assemble_boundary_mass(ld, gamma_facets(lm)[0], alpha)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part),
                                          getattr(want, part))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_location_per_mesh_pair(self, dim, monkeypatch):
        geom, gm, gd, lm, ld = make_pair(dim=dim)
        calls = count_locations(monkeypatch)
        coupling._Interface(gd, ld)
        assert calls == [gm]
        # a build keeps its interface terms; a second one locates nothing
        calls.clear()
        for km in (0.5, 0.25):
            build_coupled_operators(geom, gm, gd, lm, ld, 1.0, km)
        assert calls == [gm]

    @pytest.mark.parametrize("dim,m,h_plus,ratio", [
        (2, 1, 1 / 160, 2), (2, 1, 1 / 160, 16), (2, 1, 1 / 640, 8),
        (2, 2, 1 / 160, 2), (2, 2, 1 / 160, 4), (3, 1, 1 / 160, 2),
        (3, 2, 1 / 160, 2)])
    def test_interface_columns_are_the_box_dofs_on_gamma(self, dim, m,
                                                          h_plus, ratio):
        # gamma lies on a box grid plane here, so every box basis function
        # of a dof off that plane vanishes on gamma
        ops = build_ops(0.5, dim=dim, m=m, h_plus=h_plus,
                        h_minus=h_plus / ratio)
        height = ops.global_dofmap.dof_coords[:, -1]
        np.testing.assert_array_equal(
            ops.interface().J,
            np.flatnonzero(np.abs(height - GeometryConfig(dim=dim).floor)
                           < 1e-12))

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

    @settings(max_examples=10, deadline=None, database=None)
    @given(dim_m=st.sampled_from([(2, 2), (3, 1)]),
           builds=st.lists(st.tuples(
               st.sampled_from([1.0, 3.0]),
               st.one_of(st.just(1.0), st.floats(1e-3, 4.0)),
               st.one_of(st.none(), st.floats(1e4, 1e7))),
               min_size=2, max_size=4))
    @example(dim_m=(2, 2), builds=[(1.0, 1.0, None), (1.0, 2.7, None)])
    @example(dim_m=(3, 1), builds=[(3.0, 0.1, 2e5), (1.0, 1.0, 2e5),
                                   (1.0, 0.3, None)])
    def test_scalar_builds_independent_of_order(self, dim_m, builds):
        # (kappa_plus, kappa_minus / kappa_plus, explicit penalty or None)
        # in turn on one mesh pair: the unit pair is assembled at unit
        # coefficients, whichever build comes first, so the last build, its
        # unit solvers and its interface block are bitwise those of the
        # same build on fresh meshes
        dim, m = dim_m
        pair = make_pair(dim=dim, m=m)
        for kp, ratio, alpha in builds:
            reused = build_coupled_operators(*pair, kp, ratio * kp,
                                             alpha=alpha)
        fresh = build_coupled_operators(*make_pair(dim=dim, m=m), kp,
                                        ratio * kp, alpha=alpha)
        assert_same_operators(reused, fresh)
        for x, y in zip(reused.solvers(SolverConfig()),
                        fresh.solvers(SolverConfig())):
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(x.unit.A, part),
                                              getattr(y.unit.A, part))
        a, b = reused.interface(), fresh.interface()
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.lam, b.lam)

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
    """The stiffness summed from its COO triplets in cell order."""
    pattern = fem_module._stiffness_pattern(dofmap)
    units = pattern.units[pattern.unit_of]
    adet, _, shape = cell_geometry(mesh)
    vals = (kappa_cells * adet[shape])[:, None, None] * units
    dofs = dofmap.cell_dofs
    return owner_order_csr(dofs[:, :, None], dofs[:, None, :], vals,
                           (dofmap.n_dofs, dofmap.n_dofs))


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
    gdir = fem_module.dirichlet_dofs(gd)
    ldir = fem_module.dirichlet_dofs(ld)
    facets, _ = gamma_facets(lm)
    S = assemble_flux_jump_S(gd, ld, weights)
    D = assemble_penalty_D(gd, ld, alpha)
    K_minus = (coo_stiffness(lm, ld, km_cells)
               + assemble_boundary_mass(ld, facets, alpha)).tocsr()
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

        def ratio_scale(x):
            return np.full(len(x), kp / km)

        for scale in (ratio_scale, flux_scale):
            ops = build_coupled_operators(
                geom, gm, gd, lm, ld, kp, km, alpha=alpha, problem=problem,
                kappa_plus_cells=kp_cells, kappa_minus_cells=km_cells,
                jump_facet_weights=weights, flux_scale=scale)
            want = reference_operators(geom, gm, gd, lm, ld, kp_cells,
                                       km_cells, weights, alpha, problem,
                                       scale, None)
            assert_same_operators(ops, types.SimpleNamespace(**want))

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
        # a flux_scale re-weights the box load kept for it: nothing is
        # integrated again
        build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.25,
                                problem=problem,
                                flux_scale=lambda x: np.full(len(x), 2.0),
                                **cells_at(gm, lm, 1.0, 0.25))
        assert calls == {"dirichlet_dofs": [], "apply_dirichlet": [],
                         "assemble_load": []}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_scalar_build_assembles_nothing(self, dim, monkeypatch):
        # a second scalar build on a mesh pair and penalty ratio scales the
        # kept unit blocks; only a new ratio assembles, and only the strip
        geom, gm, gd, lm, ld = make_pair(dim=dim)
        build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5)
        calls = {attr: count_calls(monkeypatch, home, attr)
                 for home, attr in ((fem_module, "assemble_stiffness"),
                                    (coupling, "assemble_flux_jump_S"),
                                    (coupling, "assemble_penalty_D"))}
        applied = calls["apply"] = []
        apply = fem_module._Elimination.apply

        def counting(self, *args):
            applied.append(self)
            return apply(self, *args)

        monkeypatch.setattr(fem_module._Elimination, "apply", counting)
        r = default_alpha(1.0, lm.h)
        for kp, km, alpha in ((1.0, 0.25, None), (3.0, 3.0, None),
                              (2.0, 0.125, 0.125 * r)):
            build_coupled_operators(geom, gm, gd, lm, ld, kp, km,
                                    alpha=alpha)
        assert calls == {"assemble_stiffness": [], "assemble_flux_jump_S": [],
                         "assemble_penalty_D": [], "apply": []}
        build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5, alpha=1e5)
        assert calls == {"assemble_stiffness": [ld],
                         "assemble_flux_jump_S": [gd],
                         "assemble_penalty_D": [gd], "apply": []}
        # a per-cell build assembles and eliminates its own blocks
        build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                flux_scale=lambda x: np.full(len(x), 2.0),
                                **cells_at(gm, lm, 1.0, 0.5))
        assert calls["assemble_stiffness"] == [ld, gd, ld]
        assert len(applied) == 2

    def test_fitted_solve_shares_the_elimination(self, monkeypatch):
        # the coupled build and a fitted solve on the box dof map find its
        # Dirichlet elimination once, in one object
        geom, gm, gd, lm, ld = make_pair()
        found = count_calls(monkeypatch, fem_module, "_Elimination")
        ops = build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5)
        kept = fem_module._elimination(gd)
        T_D = ProblemData().T_D
        T, _ = solve_fitted(gd, np.ones(gm.num_cells), ops.f_plus, T_D)
        assert len(found) == 2
        assert fem_module._elimination(gd) is kept
        np.testing.assert_array_equal(T[ops.global_dirichlet], T_D)


class TestMixedDegrees:
    """A box and a strip of different degrees, which no builder makes: the
    gamma quadrature is the interface terms' rule of the higher degree, so
    the strip penalty alpha * M_gamma, exact under either rule, may round
    apart from the strip-degree mass of assemble_boundary_mass, and the
    Dirichlet lift of its entries with it.  Every other block is bitwise
    the reference builder's."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("m_box,m_strip", [(2, 1), (1, 2)])
    def test_blocks_match_reference(self, dim, m_box, m_strip):
        geom, gm, _, lm, _ = make_pair(dim=dim)
        gd, ld = build_dofmap(gm, m_box), build_dofmap(lm, m_strip)
        rng = np.random.default_rng(5)
        kp_cells = rng.uniform(0.1, 4.0, gm.num_cells)
        km_cells = rng.uniform(0.1, 4.0, lm.num_cells)
        facets, _ = gamma_facets(lm)
        weights = rng.uniform(-2.0, 2.0, len(facets))
        alpha = rng.uniform(0.0, 1e7)
        problem = ProblemData(f=4.0e3, flux_panel=1e-3)

        def flux_scale(x):
            return np.full(len(x), 0.7)

        ops = build_coupled_operators(
            geom, gm, gd, lm, ld, 1.0, float(np.mean(km_cells)), alpha=alpha,
            problem=problem, kappa_plus_cells=kp_cells,
            kappa_minus_cells=km_cells, jump_facet_weights=weights,
            flux_scale=flux_scale)
        want = reference_operators(geom, gm, gd, lm, ld, kp_cells, km_cells,
                                   weights, alpha, problem, flux_scale, None)
        for name in ("K_plus", "S", "D", "K_minus"):
            for part in ("indptr", "indices") + (
                    ("data",) if name != "K_minus" else ()):
                np.testing.assert_array_equal(
                    getattr(getattr(ops, name), part),
                    getattr(want[name], part), err_msg=name)
        np.testing.assert_array_equal(ops.f_plus, want["f_plus"])
        # within 4 eps of the summed magnitudes |K_stiff| + alpha |M_gamma|
        # (measured: up to 2.6 eps in 3D), and the lift within T_D times
        # that bound summed over the row
        eps = np.finfo(float).eps
        mag = (abs(coo_stiffness(lm, ld, km_cells))
               + abs(assemble_boundary_mass(ld, facets, alpha))).tocsr()
        K = ops.K_minus
        rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
        bound = 4 * eps * np.asarray(mag[rows, K.indices]).ravel()
        assert np.all(np.abs(K.data - want["K_minus"].data) <= bound)
        lift = 4 * eps * (np.abs(want["f_minus"])
                          + problem.T_D * (mag @ np.ones(ld.n_dofs)))
        assert np.all(np.abs(ops.f_minus - want["f_minus"]) <= lift)
        if m_strip >= m_box:
            # the strip's own rule: the reference is met bitwise
            np.testing.assert_array_equal(K.data, want["K_minus"].data)
            np.testing.assert_array_equal(ops.f_minus, want["f_minus"])


def summed_magnitudes(pattern, weights):
    """The sum of |weights[k] * units[k]| over the owners of a _CsrPattern,
    in its layout: the scale of the rounding of any sum of its triplets."""
    magnitudes = copy.copy(pattern)
    magnitudes.units = np.abs(pattern.units)
    return magnitudes.matrix(np.abs(weights))


class TestScaledRoute:
    """A scalar build scales the unit blocks of its mesh pair where the
    reference builder assembles at its coefficients: the two round apart
    only where the coefficient multiplies, and not at all when every factor
    is a power of two."""

    @staticmethod
    def deviations(pair, kp, km, alpha, problem):
        """The largest deviation of each block and load of the scalar build
        from the reference, in eps times its summed magnitudes; a load's
        are those of its row's lift, T_D times the row's sum, and its own."""
        geom, gm, gd, lm, ld = pair
        ops = build_coupled_operators(*pair, kp, km, alpha=alpha,
                                      problem=problem)
        alpha = default_alpha(km, lm.h) if alpha is None else alpha
        want = reference_operators(
            geom, gm, gd, lm, ld, np.full(gm.num_cells, kp),
            np.full(lm.num_cells, km),
            np.full(len(interface_facets(lm)), kp - km), alpha, problem,
            None, kp / km)
        # the box load before its lift is the builder's own sum (see
        # TestKeptLayouts); the lift is the reference's
        outside, inside = coupling._load(geom, gd, problem)
        want["f_plus"] = masked_apply_dirichlet(
            coo_stiffness(gm, gd, np.full(gm.num_cells, kp)),
            outside + (kp / km) * inside, fem_module.dirichlet_dofs(gd),
            problem.T_D)[1]
        terms = coupling._interface(gd, ld)

        def stiffness(mesh, dofmap, kappa):
            adet, _, shape = cell_geometry(mesh)
            return summed_magnitudes(
                fem_module._stiffness_pattern(dofmap),
                kappa * adet[shape])

        mag = {"K_plus": stiffness(gm, gd, kp),
               "K_minus": stiffness(lm, ld, km)
               + summed_magnitudes(terms.mass, alpha * terms.scale),
               "S": summed_magnitudes(terms.S, ((kp - km) * terms.wq).ravel()),
               "D": summed_magnitudes(terms.D, (alpha * terms.wq).ravel())}
        eps = np.finfo(float).eps
        out = {}
        for name in ("K_plus", "K_minus", "S", "D"):
            diff = abs(getattr(ops, name) - want[name]).tocsr()
            diff.eliminate_zeros()
            rows = np.repeat(np.arange(diff.shape[0]), np.diff(diff.indptr))
            scale = np.asarray(mag[name][rows, diff.indices]).ravel()
            out[name] = np.max(diff.data / (eps * scale), initial=0.0)
        for name, block in (("f_plus", "K_plus"), ("f_minus", "K_minus")):
            scale = np.abs(want[name]) + problem.T_D * (
                mag[block] @ np.ones(mag[block].shape[1]))
            out[name] = np.max(np.abs(getattr(ops, name) - want[name])
                               / (eps * scale))
        return out

    @settings(max_examples=16, deadline=None, database=None)
    @given(dim=st.sampled_from([2, 3]), m=st.sampled_from([1, 2]),
           kappa_plus=st.sampled_from([1.0, 3.0]), ratio=st.floats(1e-3, 4.0),
           alpha=st.sampled_from([None, 3.3e5]))
    @example(dim=3, m=2, kappa_plus=1.0, ratio=1e-3, alpha=None)
    @example(dim=3, m=2, kappa_plus=3.0, ratio=1.0 - 1e-9, alpha=3.3e5)
    @example(dim=3, m=1, kappa_plus=3.0, ratio=4.0, alpha=None)
    def test_within_rounding_of_reference(self, dim, m, kappa_plus, ratio,
                                          alpha):
        # measured up to 5.4 eps (D in 3D P1, kappa_minus / kappa_plus near
        # 0.54), against 4 eps in the cases of TestMixedDegrees, which
        # rounds one sum of a fixed route: each route here rounds its own
        # sums of up to some tens of triplets per entry
        problem = ProblemData(f=4.0e3, flux_panel=1e-3)
        got = self.deviations(kept_pair(dim, m), kappa_plus,
                              ratio * kappa_plus, alpha, problem)
        assert max(got.values()) <= 8.0, got

    @pytest.mark.parametrize("alpha", [None, 3.3e5])
    @pytest.mark.parametrize("kappa_minus", [0.5, 2.0, 1 / 256])
    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_bitwise_at_powers_of_two(self, dim, m, kappa_minus, alpha):
        # kappa_plus = 1: every factor but the jump 1 - kappa_minus is a
        # power of two, and that one is too at kappa_minus = 0.5 and 2
        problem = ProblemData(f=4.0e3, flux_panel=1e-3)
        got = self.deviations(kept_pair(dim, m), 1.0, kappa_minus, alpha,
                              problem)
        jump = abs(1.0 - kappa_minus)
        exact = {name for name in got
                 if name != "S" or jump == 2.0 ** np.round(np.log2(jump))}
        assert all(got[name] == 0.0 for name in exact), got
        assert max(got.values()) <= 8.0, got


class TestDefaults:
    def test_default_alpha(self):
        # proportional to the strip coefficient below 1 as above it, and
        # the largest value of a per-cell array
        assert default_alpha(0.5, 1 / 320) == pytest.approx(0.5e6 * 320.0)
        assert default_alpha(1 / 256, 1 / 320) == pytest.approx(1.25e6)
        assert default_alpha(4.0, 0.1) == pytest.approx(4e7)
        assert default_alpha(np.array([0.5, 3.0]), 0.1) == pytest.approx(3e7)
        assert default_alpha(np.array([0.25, 0.5]), 0.1) == pytest.approx(5e6)

    def test_problem_flux_defaults_to_laser(self):
        geom = GeometryConfig()
        q = ProblemData().flux(geom)
        x = np.array([[geom.L / 2, geom.H], [0.0, geom.H]])
        want = laser_flux(x, spot(geom))
        np.testing.assert_allclose(q(x), want)

    def test_problem_flux_passthrough(self):
        my_q = lambda x: np.zeros(np.asarray(x).shape[:-1])
        assert ProblemData(q=my_q).flux(GeometryConfig()) is my_q


class TestKeptScaledFlux:
    """A build with a flux_scale re-weights the load kept on the box dof
    map: the source values, the footprint, the flux quadrature, the flux
    values and the culled support are found on the first build only."""

    @pytest.mark.parametrize("source", ["none", "constant", "callable"])
    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1)])
    def test_builds_match_one_pass_reference(self, dim, m, source,
                                             monkeypatch):
        geom, gm, gd, lm, ld = make_pair(dim=dim, m=m)
        f = {"none": 0.0, "constant": 4.0e3,
             "callable": lambda x: 1e3 * (1.0 + 40.0 * x[..., 0])}[source]
        # coarser 3D panels keep the scale's point location small
        problem = ProblemData(f=f, flux_panel=1e-4 if dim == 2 else 1e-3)
        chunks = count_calls(monkeypatch, fem_module, "_flux_chunks")
        loads = count_calls(monkeypatch, fem_module, "assemble_load")
        gdir = fem_module.dirichlet_dofs(gd)
        K = coo_stiffness(gm, gd, np.ones(gm.num_cells))
        built = []
        for step in range(3):
            # a strip field that changes from build to build
            T = interp(ld, lambda x: 300.0 + (1000.0 + 500.0 * step)
                       * x[:, 0] + 20.0 * step * x[:, -1])

            def flux_scale(x):
                return 0.5 / (1.0 + 1e-3 * evaluate_field(lm, ld, T, x))

            chunks.clear()
            loads.clear()
            ops = build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                          problem=problem,
                                          flux_scale=flux_scale,
                                          **cells_at(gm, lm, 1.0, 0.5))
            built.append(([x is gd for x in chunks].count(True),
                          [x is gm for x in loads].count(True)))
            want = reference_box_load(geom, gm, gd, problem, flux_scale)
            np.testing.assert_array_equal(
                coupling._load(geom, gd, problem, flux_scale), want)
            np.testing.assert_array_equal(
                ops.f_plus,
                masked_apply_dirichlet(K, want, gdir, problem.T_D)[1])
        # the box's flux quadrature is made once, and no build integrates
        # the box load
        assert built == [(1, 0), (0, 0), (0, 0)]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_flux_makes_no_quadrature(self, dim, monkeypatch):
        # a constant zero flux adds nothing, so neither load makes the
        # flux quadrature; both stay bitwise equal to integrating zeros
        geom, gm, gd, lm, ld = make_pair(dim=dim)
        chunks = count_calls(monkeypatch, fem_module, "_flux_chunks")
        T = interp(ld, lambda x: 300.0 + 4000.0 * x[:, 0])

        def flux_scale(x):
            return 0.5 / (1.0 + 1e-3 * evaluate_field(lm, ld, T, x))

        def loads(q):
            problem = ProblemData(f=lambda x: 1e3 * (1.0 + 40.0 * x[..., 0]),
                                  q=q, flux_panel=1e-3)
            return [*coupling._load(geom, gd, problem),
                    *coupling._load(geom, ld, problem),
                    coupling._load(geom, gd, problem, flux_scale)]

        zero = loads(0.0)
        assert chunks == []
        for got, want in zip(zero, loads(lambda x: np.zeros(x.shape[:-1]))):
            np.testing.assert_array_equal(got, want)
        assert chunks == [gd, ld, gd]

    def test_scale_sees_one_read_only_array(self):
        geom, gm, gd, lm, ld = make_pair()
        seen = []

        def flux_scale(x):
            seen.append(x)
            return np.full(len(x), 0.5)

        cells = cells_at(gm, lm, 1.0, 0.5)
        for _ in range(3):
            build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                    flux_scale=flux_scale, **cells)
        assert len(seen) == 3
        assert all(x is seen[0] for x in seen)
        assert not seen[0].flags.writeable

        def writing_scale(x):
            x[0, 0] = 0.0
            return 1.0

        with pytest.raises(ValueError, match="read-only"):
            build_coupled_operators(geom, gm, gd, lm, ld, 1.0, 0.5,
                                    flux_scale=writing_scale, **cells)

    def test_flux_called_on_first_build_only(self):
        geom, gm, gd, lm, ld = make_pair()
        calls = []

        def q(x):
            calls.append(x.shape)
            return laser_flux(x, spot(geom))

        problem = ProblemData(q=q)
        for c in (0.5, 0.25, 2.0):
            ops = build_coupled_operators(
                geom, gm, gd, lm, ld, 1.0, 0.5, problem=problem,
                flux_scale=lambda x, c=c: np.full(len(x), c),
                **cells_at(gm, lm, 1.0, 0.5))
        # the strip's kept load and the box's kept quadrature
        assert len(calls) == 2
        assert np.count_nonzero(ops.f_plus[~np.isin(
            np.arange(gd.n_dofs), ops.global_dirichlet)]) > 0
