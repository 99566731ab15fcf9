"""Assembly oracles: symbolic element matrices, quadrature exactness,
manufactured solutions."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gldd.errors import (ForeignFacet, NonpositiveCoefficient,
                         UnsupportedDegree)
from gldd.fem import (_facet_shape_values, apply_dirichlet,
                      assemble_boundary_mass, assemble_load,
                      assemble_stiffness, build_dofmap, dirichlet_dofs,
                      evaluate_field, facet_rule, l2_error, laser_flux,
                      shape_bary_grads, shape_values, volume_rule)
from gldd.mesh import (FacetTag, GeometryConfig, SimplicialMesh,
                       build_global_mesh, build_local_mesh, locate_point)

GEOM = GeometryConfig()


def reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    return SimplicialMesh(
        verts, cells,
        lambda pts: np.full(len(pts), FacetTag.DIRICHLET_OUTER.value), h=1.0)


def sympy_element_matrices(m):
    """Stiffness and boundary mass on the reference triangle, symbolically."""
    import sympy as sy

    x, y = sy.symbols("x y")
    lam = [1 - x - y, x, y]
    if m == 1:
        basis = lam
    else:
        basis = [l * (2 * l - 1) for l in lam]
        for (i, j) in [(0, 1), (0, 2), (1, 2)]:
            basis.append(4 * lam[i] * lam[j])
    n = len(basis)
    K = sy.zeros(n, n)
    for i in range(n):
        for j in range(n):
            integrand = (sy.diff(basis[i], x) * sy.diff(basis[j], x)
                         + sy.diff(basis[i], y) * sy.diff(basis[j], y))
            K[i, j] = sy.integrate(sy.integrate(integrand, (y, 0, 1 - x)),
                                   (x, 0, 1))
    return np.array(K, dtype=float)


class TestQuadrature:
    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_volume_weights(self, dim, m):
        rule = volume_rule(dim, m)
        ref = 0.5 if dim == 2 else 1.0 / 6.0
        assert rule.weights.sum() == pytest.approx(ref, rel=1e-14)
        assert rule.weights.min() > 0
        assert rule.degree >= 2 * m

    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_volume_polynomial_exactness(self, dim, m):
        # int over the reference simplex of lam_0^d is d! / (d+dim)!
        import math

        rule = volume_rule(dim, m)
        for d in range(rule.degree + 1):
            exact = math.factorial(d) / math.factorial(d + dim)
            approx = (rule.weights * rule.points[:, 0] ** d).sum()
            assert approx == pytest.approx(exact, rel=1e-13), d

    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_facet_degree(self, dim, m):
        rule = facet_rule(dim, m)
        assert rule.degree >= 2 * m + 1

    def test_unsupported_degree(self):
        with pytest.raises(UnsupportedDegree):
            volume_rule(2, 3)


class TestShapeFunctions:
    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_partition_of_unity(self, dim, m):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = rng.dirichlet(np.ones(dim + 1))
            vals = shape_values(dim, m, lam)[0]
            assert vals.sum() == pytest.approx(1.0, abs=1e-13)

    def test_kronecker_at_nodes_p2(self):
        # vertices then edge midpoints of the reference triangle
        nodes = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (0.5, 0.5, 0), (0.5, 0, 0.5), (0, 0.5, 0.5)]
        for i, lam in enumerate(nodes):
            vals = shape_values(2, 2, np.asarray(lam))[0]
            expect = np.zeros(6)
            expect[i] = 1.0
            np.testing.assert_allclose(vals, expect, atol=1e-14)


class TestDofMap:
    def test_p1_dof_count(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        assert build_dofmap(mesh, 1).n_dofs == 25

    def test_p2_dof_count_euler(self):
        # V - E + F = 1 for the planar mesh interior: E = V + C - 1
        mesh = build_global_mesh(GEOM, 1 / 160)
        edges = mesh.num_vertices + mesh.num_cells - 1
        assert edges == 56
        assert build_dofmap(mesh, 2).n_dofs == 25 + 56

    def test_dof_coords_p2_midpoints(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 2)
        for c in range(mesh.num_cells):
            pts = mesh.vertices[mesh.cells[c]]
            dofs = dof.cell_dofs[c]
            np.testing.assert_allclose(dof.dof_coords[dofs[:3]], pts,
                                       atol=1e-15)
            mids = [(pts[0] + pts[1]) / 2, (pts[0] + pts[2]) / 2,
                    (pts[1] + pts[2]) / 2]
            np.testing.assert_allclose(dof.dof_coords[dofs[3:]], mids,
                                       atol=1e-15)


class TestStiffness:
    def test_reference_p1_matrix(self):
        mesh = reference_triangle()
        dof = build_dofmap(mesh, 1)
        K = assemble_stiffness(mesh, dof, 1.0).toarray()
        oracle = np.array([[1.0, -0.5, -0.5],
                           [-0.5, 0.5, 0.0],
                           [-0.5, 0.0, 0.5]])
        np.testing.assert_allclose(K, oracle, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2])
    def test_reference_matrix_symbolic(self, m):
        mesh = reference_triangle()
        dof = build_dofmap(mesh, m)
        K = assemble_stiffness(mesh, dof, 1.0).toarray()
        np.testing.assert_allclose(K, sympy_element_matrices(m), atol=1e-13)

    def test_kappa_linearity(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        K1 = assemble_stiffness(mesh, dof, 1.0)
        K2 = assemble_stiffness(mesh, dof, 2.0)
        assert abs(K2 - 2 * K1).max() < 1e-12

    def test_per_cell_coefficient(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        kappa = np.full(mesh.num_cells, 3.0)
        K = assemble_stiffness(mesh, dof, kappa)
        K3 = assemble_stiffness(mesh, dof, 3.0)
        assert abs(K - K3).max() < 1e-12

    def test_constants_in_kernel(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 2)
        K = assemble_stiffness(mesh, dof, 1.0)
        r = K @ np.ones(dof.n_dofs)
        assert np.abs(r).max() < 1e-12

    def test_spd_after_elimination(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        K = assemble_stiffness(mesh, dof, 1.0)
        b = np.zeros(dof.n_dofs)
        K, _ = apply_dirichlet(K, b, dirichlet_dofs(mesh, dof), 0.0)
        Kd = K.toarray()
        np.testing.assert_allclose(Kd, Kd.T, atol=1e-14)
        assert np.linalg.eigvalsh(Kd).min() > 0

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_per_cell_assembly(self, dim, m):
        geom = GeometryConfig(dim=dim)
        for mesh in (build_global_mesh(geom, 1 / 160),
                     build_local_mesh(geom, 1 / 320)):
            dof = build_dofmap(mesh, m)
            kappa = 0.5 + np.random.default_rng(dim * m).random(mesh.num_cells)
            K = assemble_stiffness(mesh, dof, kappa)
            ref = _reference_stiffness(mesh, dof, kappa)
            np.testing.assert_array_equal(K.indptr, ref.indptr)
            np.testing.assert_array_equal(K.indices, ref.indices)
            np.testing.assert_array_equal(K.data, ref.data)

    def test_nonpositive_coefficient(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        with pytest.raises(NonpositiveCoefficient):
            assemble_stiffness(mesh, dof, 0.0)
        with pytest.raises(NonpositiveCoefficient):
            assemble_stiffness(mesh, dof, np.full(mesh.num_cells, -1.0))


class TestBoundaryMass:
    def test_segment_mass_oracle(self):
        # P1 mass on one segment of length l: l*[[1/3,1/6],[1/6,1/3]]
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        facet = next(f for f, t in mesh.boundary_facets
                     if t == FacetTag.NEUMANN_TOP)
        M = assemble_boundary_mass(mesh, dof, [facet], 1.0).toarray()
        i, j = dof.facet_dofs(facet)
        l = 1 / 160
        assert M[i, i] == pytest.approx(l / 3, rel=1e-13)
        assert M[i, j] == pytest.approx(l / 6, rel=1e-13)
        assert M.sum() == pytest.approx(l, rel=1e-13)

    def test_partition_of_unity_weight(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 2)
        facets = [f for f, t in mesh.boundary_facets
                  if t == FacetTag.NEUMANN_TOP]
        alpha = 7.5
        M = assemble_boundary_mass(mesh, dof, facets, alpha)
        ones = np.ones(dof.n_dofs)
        assert ones @ (M @ ones) == pytest.approx(alpha * GEOM.L, rel=1e-12)


    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_per_facet_assembly(self, dim, m):
        mesh = build_local_mesh(GeometryConfig(dim=dim), 1 / 320)
        dof = build_dofmap(mesh, m)
        facets = mesh.facet_vertices[
            mesh.facet_tags == FacetTag.INTERFACE_GAMMA.value]
        M = assemble_boundary_mass(mesh, dof, facets, 3.5)
        rule = facet_rule(dim, m)
        phi = _facet_shape_values(m, rule.points)
        rows, cols, vals = [], [], []
        for f in facets:
            dofs = np.asarray(dof.facet_dofs(tuple(f)))
            me = 3.5 * (mesh.facet_measure(f) / (1.0 if dim == 2 else 0.5)) * \
                np.einsum("q,qn,qm->nm", rule.weights, phi, phi)
            rows.append(np.repeat(dofs, len(dofs)))
            cols.append(np.tile(dofs, len(dofs)))
            vals.append(me.ravel())
        ref = sp.coo_matrix((np.concatenate(vals),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=M.shape).tocsr()
        ref.sum_duplicates()
        np.testing.assert_array_equal(M.indptr, ref.indptr)
        np.testing.assert_array_equal(M.indices, ref.indices)
        np.testing.assert_array_equal(M.data, ref.data)

    def test_foreign_facet(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 2)
        interior = tuple(sorted(mesh.cells[0][[0, 2]]))  # the square's diagonal
        with pytest.raises(ForeignFacet,
                           match=rf"\({interior[0]}, {interior[1]}\)"):
            assemble_boundary_mass(mesh, dof, [mesh.facet_vertices[0], interior],
                                   1.0)

    def test_unsorted_facet_accepted(self):
        mesh = build_global_mesh(GeometryConfig(dim=3), 1 / 160)
        dof = build_dofmap(mesh, 2)
        top = mesh.facet_vertices[mesh.facet_tags == FacetTag.NEUMANN_TOP.value]
        M = assemble_boundary_mass(mesh, dof, top, 2.0)
        flipped = assemble_boundary_mass(mesh, dof, top[:, ::-1], 2.0)
        assert (M != flipped).nnz == 0


def _reference_stiffness(mesh, dof, kappa):
    """Cell-by-cell assembly with one det and inv per cell."""
    rule = volume_rule(mesh.dim, dof.m)
    dlam = shape_bary_grads(mesh.dim, dof.m, rule.points)
    rows, cols, vals = [], [], []
    for c in range(mesh.num_cells):
        pts = mesh.vertices[mesh.cells[c]]
        J = (pts[1:] - pts[0]).T
        Jinv = np.linalg.inv(J)
        bgrads = np.vstack([-Jinv.sum(axis=0), Jinv])
        g = np.einsum("qna,ad->qnd", dlam, bgrads)
        ke = kappa[c] * abs(np.linalg.det(J)) * np.einsum(
            "q,qnd,qmd->nm", rule.weights, g, g)
        dofs = dof.cell_dofs[c]
        rows.append(np.repeat(dofs, len(dofs)))
        cols.append(np.tile(dofs, len(dofs)))
        vals.append(ke.ravel())
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dof.n_dofs, dof.n_dofs)).tocsr()
    A.sum_duplicates()
    return A


class TestLoad:
    def test_constant_source_total(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        b = assemble_load(mesh, dof, f=2.0)
        assert b.sum() == pytest.approx(2.0 * GEOM.L * GEOM.H, rel=1e-13)

    def test_laser_total_vs_trapezoid(self):
        # thin strip of triangles whose top edge resolves the 1e-3 wide peak
        n = 1200
        h = GEOM.L / n
        xs = np.arange(n + 1) * h
        verts = np.vstack([np.column_stack([xs, np.zeros(n + 1)]),
                           np.column_stack([xs, np.full(n + 1, h)])])
        cells = []
        for i in range(n):
            a, b_, c, d = i, i + 1, n + 1 + i, n + 2 + i
            cells.extend([(a, b_, d), (a, d, c)])

        def tag(pts):
            return np.where(np.isclose(pts[..., 1], h).all(axis=1),
                            FacetTag.NEUMANN_TOP.value,
                            FacetTag.DIRICHLET_OUTER.value)

        mesh = SimplicialMesh(verts, np.array(cells), tag, h)
        dof = build_dofmap(mesh, 1)
        b = assemble_load(mesh, dof, f=0.0,
                          q=lambda x: laser_flux(x, dim=2, L=GEOM.L))
        grid = np.linspace(0.0, GEOM.L, 10_001)
        vals = laser_flux(np.column_stack([grid, np.full_like(grid, h)]),
                          dim=2, L=GEOM.L)
        oracle = np.trapezoid(vals, grid)
        assert b.sum() == pytest.approx(oracle, rel=1e-8)

    def test_laser_pointwise(self):
        top = np.array([[GEOM.L / 2, GEOM.H], [0.0, GEOM.H],
                        [GEOM.L, GEOM.H]])
        vals = laser_flux(top, dim=2, L=GEOM.L)
        assert vals[0] == pytest.approx(0.4e5)
        assert vals[1] == 0.0 and vals[2] == 0.0
        assert laser_flux(np.array([[GEOM.L / 2, GEOM.L / 2, GEOM.H]]),
                          dim=3, L=GEOM.L)[0] == pytest.approx(0.4e5)


class TestDirichlet:
    def test_hand_oracle(self):
        import scipy.sparse as sp

        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        b = np.array([1.0, 1.0])
        A2, b2 = apply_dirichlet(A, b, [0], 5.0)
        np.testing.assert_allclose(A2.toarray(), [[1.0, 0.0], [0.0, 3.0]])
        np.testing.assert_allclose(b2, [5.0, 1.0 - 5.0])
        x = np.linalg.solve(A2.toarray(), b2)
        assert x[0] == pytest.approx(5.0)

    def test_solution_hits_value(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        K = assemble_stiffness(mesh, dof, 1.0)
        b = assemble_load(mesh, dof, f=1.0)
        dirich = dirichlet_dofs(mesh, dof)
        K2, b2 = apply_dirichlet(K, b, dirich, 293.15)
        T = spla.spsolve(K2.tocsc(), b2)
        np.testing.assert_allclose(T[dirich], 293.15, atol=1e-10)
        assert T.min() >= 293.15 - 1e-10


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_volume_terms_match_per_cell_loop(dim, m):
    """The batched load is bitwise the cell-by-cell sum; the L2 error sums
    in another order, so it matches to a few rounding errors."""
    geom = GeometryConfig(dim=dim)
    mesh = build_global_mesh(geom, 1 / 160)
    dof = build_dofmap(mesh, m)
    f = lambda x: np.sin(300.0 * x[..., 0]) + x[..., -1]
    coeffs = np.random.default_rng(dim + m).random(dof.n_dofs)
    b = assemble_load(mesh, dof, f=f)
    vrule, erule = volume_rule(dim, m), volume_rule(dim, 2)
    vvals = shape_values(dim, m, vrule.points)
    evals = shape_values(dim, m, erule.points)
    ref_b = np.zeros(dof.n_dofs)
    total = 0.0
    for c in range(mesh.num_cells):
        pts = mesh.vertices[mesh.cells[c]]
        adet = abs(np.linalg.det((pts[1:] - pts[0]).T))
        np.add.at(ref_b, dof.cell_dofs[c], adet * np.einsum(
            "q,q,qn->n", vrule.weights, f(vrule.points @ pts), vvals))
        diff = evals @ coeffs[dof.cell_dofs[c]] - f(erule.points @ pts)
        total += adet * float(erule.weights @ diff ** 2)
    np.testing.assert_array_equal(b, ref_b)
    assert l2_error(mesh, dof, coeffs, f) == pytest.approx(np.sqrt(total),
                                                           rel=1e-14)


class TestManufactured:
    @pytest.mark.parametrize("m", [1, 2])
    def test_l2_order(self, m):
        errs, hs = [], []
        for n in (4, 8, 16):
            mesh = build_global_mesh(GEOM, GEOM.L / n)
            dof = build_dofmap(mesh, m)
            exact = lambda x: np.sin(np.pi * x[..., 0] / GEOM.L) * \
                np.sin(np.pi * x[..., 1] / GEOM.H)
            f = lambda x: np.pi ** 2 * (1 / GEOM.L ** 2 + 1 / GEOM.H ** 2) * exact(x)
            K = assemble_stiffness(mesh, dof, 1.0)
            b = assemble_load(mesh, dof, f=f)
            walls = np.unique(np.concatenate(
                [dof.facet_dofs(f_) for f_, _ in mesh.boundary_facets]))
            K, b = apply_dirichlet(K, b, walls, 0.0)
            T = spla.spsolve(K.tocsc(), b)
            errs.append(l2_error(mesh, dof, T, exact))
            hs.append(GEOM.L / n)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= m + 0.9


def test_evaluate_field_linear():
    mesh = build_global_mesh(GEOM, 1 / 160)
    dof = build_dofmap(mesh, 1)
    coeffs = 2.0 * dof.dof_coords[:, 0] + 3.0 * dof.dof_coords[:, 1]
    pts = np.random.default_rng(5).random((50, 2)) * [GEOM.L, GEOM.H]
    vals = evaluate_field(mesh, dof, coeffs, pts)
    np.testing.assert_allclose(vals, 2 * pts[:, 0] + 3 * pts[:, 1],
                               atol=1e-14)


@pytest.mark.parametrize("geom", [GEOM, GeometryConfig(dim=3)],
                         ids=["2d", "3d"])
def test_evaluate_field_p2_matches_point_loop(geom):
    mesh = build_global_mesh(geom, 1 / 160)
    dof = build_dofmap(mesh, 2)
    rng = np.random.default_rng(6)
    coeffs = 300.0 + rng.random(dof.n_dofs)
    ext = (geom.L, geom.H) if geom.dim == 2 else (geom.L, geom.W, geom.H)
    pts = np.vstack([rng.random((100, geom.dim)) * ext, mesh.vertices[:20]])
    want = []
    for x in pts:
        loc = locate_point(mesh, x)
        phi = shape_values(geom.dim, 2, np.asarray(loc.barycentric))[0]
        want.append(float(phi @ coeffs[dof.cell_dofs[loc.cell]]))
    got = evaluate_field(mesh, dof, coeffs, pts)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
