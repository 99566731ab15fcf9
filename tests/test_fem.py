"""Assembly oracles: symbolic element matrices, quadrature exactness,
manufactured solutions."""

import functools
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gldd import fem
from gldd.coupling import ProblemData
from gldd.errors import (ForeignFacet, IndexOutOfRange, InvalidConfig,
                         NonpositiveCoefficient, UnsupportedDegree)
from gldd.fem import (LASER_CUTOFF, _composite_facet_rule, apply_dirichlet,
                      assemble_boundary_mass, assemble_load,
                      assemble_stiffness, build_dofmap, dirichlet_dofs,
                      evaluate_field, facet_rule, l2_error, laser_flux,
                      shape_bary_grads, shape_values, volume_rule)
from gldd.mesh import (FacetTag, GeometryConfig, SimplicialMesh,
                       build_fitted_mesh, build_global_mesh, build_local_mesh,
                       locate_point)

GEOM = GeometryConfig()
GEOM3 = GeometryConfig(dim=3)


def spot(dim, L=GEOM.L):
    """The centre of the laser spot on the top wall of a box with W = L:
    L/2 on each of its dim - 1 wall axes."""
    return np.full(dim - 1, L / 2.0)

# meshes the batched dof lookup is checked on
DOF_MESHES = {
    "global-2d": lambda: build_global_mesh(GEOM, 1 / 160),
    "global-3d": lambda: build_global_mesh(GEOM3, 1 / 160),
    "strip-2d": lambda: build_local_mesh(GEOM, 1 / 640),
    "strip-3d": lambda: build_local_mesh(GEOM3, 1 / 320),
    "graded-2d": lambda: build_fitted_mesh(GEOM, 1 / 160, 1 / 640, "graded"),
}


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

    def test_four_point_segment_rule_is_exact_to_degree_7(self):
        # the Gauss rule of the flux moments: int_0^1 s^d ds = 1 / (d + 1)
        rule = fem._segment_rule(7)
        assert rule.degree == 7 and len(rule.weights) == 4
        np.testing.assert_array_equal(rule.points.sum(axis=1), 1.0)
        s = rule.points[:, 1]
        for d in range(8):
            assert (rule.weights * s ** d).sum() == pytest.approx(
                1.0 / (d + 1), rel=1e-15, abs=0.0), d
        # and not to degree 8
        assert (rule.weights * s ** 8).sum() != pytest.approx(1.0 / 9.0,
                                                               rel=1e-6)

    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_facet_degree(self, dim, m):
        rule = facet_rule(dim, m)
        assert rule.degree >= 2 * m + 1

    def test_unsupported_degree(self):
        with pytest.raises(UnsupportedDegree):
            volume_rule(2, 3)

    @pytest.mark.parametrize("rule,dim,match", [
        (volume_rule, 3, "tetrahedron"), (facet_rule, 2, "segment")])
    def test_unsupported_degree_tet_and_segment(self, rule, dim, match):
        # degree 4 asks for a rule exact to degree 8 or 9, past every table
        # (the segment's ends at degree 7, the rule of the flux moments)
        with pytest.raises(UnsupportedDegree, match=match):
            rule(dim, 4)


class TestShapeFunctions:
    @pytest.mark.parametrize("dim,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_partition_of_unity(self, dim, m):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = rng.dirichlet(np.ones(dim + 1))
            vals = shape_values(dim, m, lam[None])[0]
            assert vals.sum() == pytest.approx(1.0, abs=1e-13)

    def test_kronecker_at_nodes_p2(self):
        # vertices then edge midpoints of the reference triangle
        nodes = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (0.5, 0.5, 0), (0.5, 0, 0.5), (0, 0.5, 0.5)]
        for i, lam in enumerate(nodes):
            vals = shape_values(2, 2, np.array([lam]))[0]
            expect = np.zeros(6)
            expect[i] = 1.0
            np.testing.assert_allclose(vals, expect, atol=1e-14)


class TestDofMap:
    def test_p1_dof_count(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        assert build_dofmap(mesh, 1).n_dofs == 25

    @pytest.mark.parametrize("m", [0, 3])
    def test_unsupported_degree(self, m):
        with pytest.raises(UnsupportedDegree, match="1 or 2"):
            build_dofmap(build_global_mesh(GEOM, 1 / 160), m)

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


def _reference_dofmap(mesh):
    """P2 numbering cell by cell through an edge dict: (cell_dofs,
    dof_coords, {sorted vertex pair: dof})."""
    pairs = ([(0, 1), (0, 2), (1, 2)] if mesh.dim == 2 else
             [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    nv = mesh.num_vertices
    edge_dofs = {}
    cell_dofs = np.empty((mesh.num_cells, mesh.dim + 1 + len(pairs)),
                         dtype=np.int64)
    cell_dofs[:, :mesh.dim + 1] = mesh.cells
    for c, cell in enumerate(mesh.cells):
        for e, (a, b) in enumerate(pairs):
            key = tuple(sorted((cell[a], cell[b])))
            if key not in edge_dofs:
                edge_dofs[key] = nv + len(edge_dofs)
            cell_dofs[c, mesh.dim + 1 + e] = edge_dofs[key]
    coords = np.empty((nv + len(edge_dofs), mesh.dim))
    coords[:nv] = mesh.vertices
    for (a, b), d in edge_dofs.items():
        coords[d] = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    return cell_dofs, coords, edge_dofs


@pytest.mark.parametrize("name", list(DOF_MESHES))
class TestBatchedDofLookup:
    def test_p2_numbering_matches_edge_dict(self, name):
        mesh = DOF_MESHES[name]()
        dof = build_dofmap(mesh, 2)
        cell_dofs, coords, _ = _reference_dofmap(mesh)
        assert dof.n_dofs == len(coords)
        np.testing.assert_array_equal(dof.cell_dofs, cell_dofs)
        np.testing.assert_array_equal(dof.dof_coords, coords)

    @pytest.mark.parametrize("m", [1, 2])
    def test_facet_dofs_batch_matches_single(self, name, m):
        mesh = DOF_MESHES[name]()
        dof = build_dofmap(mesh, m)
        _, _, edge_dofs = _reference_dofmap(mesh)
        rng = np.random.default_rng(11)
        facets = rng.permuted(mesh.facet_vertices, axis=1)
        batch = dof.facet_dofs(facets)
        n_loc = mesh.dim if m == 1 else mesh.dim * (mesh.dim + 1) // 2
        assert batch.shape == (len(facets), n_loc)
        for f, row in zip(facets, batch):
            want = list(f)
            if m == 2:
                local = [(0, 1)] if mesh.dim == 2 else [(0, 1), (0, 2), (1, 2)]
                want += [edge_dofs[tuple(sorted((f[a], f[b])))]
                         for a, b in local]
            np.testing.assert_array_equal(row, want)
            np.testing.assert_array_equal(dof.facet_dofs(tuple(f)), want)

    @pytest.mark.parametrize("m", [1, 2])
    def test_dirichlet_dofs_match_set_loop(self, name, m):
        mesh = DOF_MESHES[name]()
        dof = build_dofmap(mesh, m)
        for tag in FacetTag:
            found = set()
            for facet, t in zip(mesh.facet_vertices, mesh.facet_tags):
                if t == tag.value:
                    found.update(int(d) for d in dof.facet_dofs(tuple(facet)))
            got = np.unique(dof.facet_dofs(
                mesh.facet_vertices[mesh.facet_tags == tag.value]))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, sorted(found))
            if tag is FacetTag.DIRICHLET_OUTER:
                np.testing.assert_array_equal(dirichlet_dofs(dof), got)


@pytest.mark.parametrize("dim", [2, 3])
def test_facet_dofs_foreign_edge(dim):
    mesh = build_global_mesh(GeometryConfig(dim=dim), 1 / 160)
    dof = build_dofmap(mesh, 2)
    # the first vertex and the far corner of the box share no edge
    far = mesh.num_vertices - 1
    facet = (0, far) if dim == 2 else (0, 1, far)
    with pytest.raises(ForeignFacet, match=rf"facet \({facet[0]}, "):
        dof.facet_dofs(facet)
    with pytest.raises(ForeignFacet, match=rf", {far}\)"):
        dof.facet_dofs(np.vstack([mesh.facet_vertices[:3], facet]))
    # with a vertex id past the last one, (0, nv + 2) has the key of the
    # mesh edge (1, 2)
    with pytest.raises(ForeignFacet):
        dof.facet_dofs(facet[:-1] + (mesh.num_vertices + 2,))


@pytest.mark.parametrize("dim", [2, 3])
def test_facet_dofs_vertex_range_p1(dim):
    mesh = build_global_mesh(GeometryConfig(dim=dim), 1 / 160)
    dof = build_dofmap(mesh, 1)
    np.testing.assert_array_equal(dof.facet_dofs(mesh.facet_vertices),
                                  mesh.facet_vertices)
    far = tuple(range(10 ** 6, 10 ** 6 + dim))
    with pytest.raises(ForeignFacet, match=rf"facet \({far[0]}, "):
        dof.facet_dofs(far)
    with pytest.raises(ForeignFacet, match=r"facet \(-1, "):
        dof.facet_dofs(np.vstack([mesh.facet_vertices[:3],
                                  (-1,) + tuple(range(1, dim))]))


def _reference_composite_rule(dim, m, n):
    """The facet rule on n pieces per axis built piece by piece."""
    base = facet_rule(dim, m)
    pts, wts = [], []
    if dim == 2:
        for i in range(n):
            a, b = i / n, (i + 1) / n
            corners = np.array([[1.0 - a, a], [1.0 - b, b]])
            pts.append(base.points @ corners)
            wts.append(base.weights / n)
    else:
        corner = np.eye(3)
        for i in range(n):
            for j in range(n - i):
                v00 = (corner[0] * (n - i - j) + corner[1] * i
                       + corner[2] * j) / n
                v10 = v00 + (corner[1] - corner[0]) / n
                v01 = v00 + (corner[2] - corner[0]) / n
                v11 = v10 + v01 - v00
                pts.append(base.points @ np.vstack([v00, v10, v01]))
                wts.append(base.weights / n ** 2)
                if j < n - i - 1:
                    pts.append(base.points @ np.vstack([v11, v01, v10]))
                    wts.append(base.weights / n ** 2)
    return np.vstack(pts), np.concatenate(wts)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_composite_facet_rule_matches_piece_loop(dim, m):
    for n in list(range(1, 10)) + [89]:
        rule = _composite_facet_rule(dim, m, n)
        pts, wts = _reference_composite_rule(dim, m, n)
        np.testing.assert_array_equal(rule.points, pts)
        np.testing.assert_array_equal(rule.weights, wts)
    # one piece is the base rule itself
    one, base = _composite_facet_rule(dim, m, 1), facet_rule(dim, m)
    np.testing.assert_array_equal(one.points, base.points)
    np.testing.assert_array_equal(one.weights, base.weights)


class TestStiffness:
    def test_reference_p1_matrix(self):
        mesh = reference_triangle()
        dof = build_dofmap(mesh, 1)
        K = assemble_stiffness(dof, 1.0).toarray()
        oracle = np.array([[1.0, -0.5, -0.5],
                           [-0.5, 0.5, 0.0],
                           [-0.5, 0.0, 0.5]])
        np.testing.assert_allclose(K, oracle, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2])
    def test_reference_matrix_symbolic(self, m):
        mesh = reference_triangle()
        dof = build_dofmap(mesh, m)
        K = assemble_stiffness(dof, 1.0).toarray()
        np.testing.assert_allclose(K, sympy_element_matrices(m), atol=1e-13)

    def test_kappa_linearity(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        K1 = assemble_stiffness(dof, 1.0)
        K2 = assemble_stiffness(dof, 2.0)
        assert abs(K2 - 2 * K1).max() < 1e-12

    def test_per_cell_coefficient(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        kappa = np.full(mesh.num_cells, 3.0)
        K = assemble_stiffness(dof, kappa)
        K3 = assemble_stiffness(dof, 3.0)
        assert abs(K - K3).max() < 1e-12

    def test_constants_in_kernel(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 2)
        K = assemble_stiffness(dof, 1.0)
        r = K @ np.ones(dof.n_dofs)
        assert np.abs(r).max() < 1e-12

    def test_spd_after_elimination(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        K = assemble_stiffness(dof, 1.0)
        b = np.zeros(dof.n_dofs)
        K, _ = apply_dirichlet(K, b, dirichlet_dofs(dof), 0.0)
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
            K = assemble_stiffness(dof, kappa)
            # bitwise with each cell's shape taken from its representative,
            # to 1e-14 of the largest entry with its own vertices
            ref = _reference_stiffness(mesh, dof, kappa, by_shape=True)
            np.testing.assert_array_equal(K.indptr, ref.indptr)
            np.testing.assert_array_equal(K.indices, ref.indices)
            np.testing.assert_array_equal(K.data, ref.data)
            own = _reference_stiffness(mesh, dof, kappa)
            assert abs(K - own).max() <= 1e-14 * abs(own).max()

    @pytest.mark.parametrize("m", [1, 2])
    def test_graded_mesh_matches_per_cell_assembly(self, m):
        # the transition bands give cells of several shapes and sizes
        mesh = build_fitted_mesh(GEOM, 1 / 160, 1 / 640, "graded")
        dof = build_dofmap(mesh, m)
        kappa = 0.5 + np.random.default_rng(10 + m).random(mesh.num_cells)
        K = assemble_stiffness(dof, kappa)
        ref = _reference_stiffness(mesh, dof, kappa)
        np.testing.assert_array_equal(K.indptr, ref.indptr)
        np.testing.assert_array_equal(K.indices, ref.indices)
        np.testing.assert_array_equal(K.data, ref.data)

    def test_nonpositive_coefficient(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        with pytest.raises(NonpositiveCoefficient):
            assemble_stiffness(dof, 0.0)
        with pytest.raises(NonpositiveCoefficient):
            assemble_stiffness(dof, np.full(mesh.num_cells, -1.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient(self, value):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        with pytest.raises(NonpositiveCoefficient, match="finite"):
            assemble_stiffness(dof, value)
        kappa = np.ones(mesh.num_cells)
        kappa[3] = value
        with pytest.raises(NonpositiveCoefficient, match="finite"):
            assemble_stiffness(dof, kappa)


class TestBoundaryMass:
    def test_segment_mass_oracle(self):
        # P1 mass on one segment of length l: l*[[1/3,1/6],[1/6,1/3]]
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        facet = mesh.facet_vertices[
            mesh.facet_tags == FacetTag.NEUMANN_TOP.value][0]
        M = assemble_boundary_mass(dof, [facet], 1.0).toarray()
        i, j = dof.facet_dofs(facet)
        l = 1 / 160
        assert M[i, i] == pytest.approx(l / 3, rel=1e-13)
        assert M[i, j] == pytest.approx(l / 6, rel=1e-13)
        assert M.sum() == pytest.approx(l, rel=1e-13)

    def test_partition_of_unity_weight(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 2)
        facets = mesh.facet_vertices[
            mesh.facet_tags == FacetTag.NEUMANN_TOP.value]
        alpha = 7.5
        M = assemble_boundary_mass(dof, facets, alpha)
        ones = np.ones(dof.n_dofs)
        assert ones @ (M @ ones) == pytest.approx(alpha * GEOM.L, rel=1e-12)


    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_per_facet_assembly(self, dim, m):
        mesh = build_local_mesh(GeometryConfig(dim=dim), 1 / 320)
        dof = build_dofmap(mesh, m)
        facets = mesh.facet_vertices[
            mesh.facet_tags == FacetTag.INTERFACE_GAMMA.value]
        M = assemble_boundary_mass(dof, facets, 3.5)
        rule = facet_rule(dim, m)
        phi = shape_values(dim - 1, m, rule.points)
        rows, cols, vals = [], [], []
        for f in facets:
            dofs = np.asarray(dof.facet_dofs(tuple(f)))
            me = 3.5 * (mesh.facet_measure(f) / (1.0 if dim == 2 else 0.5)) * \
                np.einsum("q,qn,qm->nm", rule.weights, phi, phi)
            rows.append(np.repeat(dofs, len(dofs)))
            cols.append(np.tile(dofs, len(dofs)))
            vals.append(me.ravel())
        ref = owner_order_csr(np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals), M.shape)
        np.testing.assert_array_equal(M.indptr, ref.indptr)
        np.testing.assert_array_equal(M.indices, ref.indices)
        np.testing.assert_array_equal(M.data, ref.data)

    def test_foreign_facet(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 2)
        interior = tuple(sorted(mesh.cells[0][[0, 2]]))  # the square's diagonal
        with pytest.raises(ForeignFacet,
                           match=rf"\({interior[0]}, {interior[1]}\)"):
            assemble_boundary_mass(dof, [mesh.facet_vertices[0], interior],
                                   1.0)

    def test_out_of_range_vertex_is_foreign(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        # (0, nv + 2) and (-1, nv + 1) have the keys of the bottom-wall
        # facets (1, 2) and (0, 1)
        nv = mesh.num_vertices
        for facet in [(0, nv + 2), (-1, nv + 1)]:
            with pytest.raises(ForeignFacet):
                assemble_boundary_mass(dof, [facet], 1.0)

    def test_unsorted_facet_accepted(self):
        mesh = build_global_mesh(GeometryConfig(dim=3), 1 / 160)
        dof = build_dofmap(mesh, 2)
        top = mesh.facet_vertices[mesh.facet_tags == FacetTag.NEUMANN_TOP.value]
        M = assemble_boundary_mass(dof, top, 2.0)
        flipped = assemble_boundary_mass(dof, top[:, ::-1], 2.0)
        assert (M != flipped).nnz == 0


def _reference_stiffness(mesh, dof, kappa, by_shape=False):
    """Cell-by-cell assembly with one det and inv per cell, of the cell's
    own vertices or, by_shape, of its shape's representative's."""
    rule = volume_rule(mesh.dim, dof.m)
    dlam = shape_bary_grads(mesh.dim, dof.m, rule.points)
    rows, cols, vals = [], [], []
    for c in range(mesh.num_cells):
        pts = mesh.vertices[mesh.cells[c % mesh.num_shapes if by_shape
                                       else c]]
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
    return owner_order_csr(np.concatenate(rows), np.concatenate(cols),
                           np.concatenate(vals), (dof.n_dofs, dof.n_dofs))


def owner_order_csr(rows, cols, vals, shape):
    """The canonical CSR matrix of COO triplets (broadcast, then raveled),
    each entry accumulated one triplet at a time in triplet order: the
    order of a cell-by-cell loop A[i, j] += k_e[a, b] when the triplets
    are laid out owner by owner."""
    rows, cols, vals = (a.ravel() for a in np.broadcast_arrays(rows, cols,
                                                                vals))
    keys, slot = np.unique(rows.astype(np.int64) * shape[1] + cols,
                           return_inverse=True)
    data = np.zeros(len(keys))
    np.add.at(data, slot, vals)
    row, col = np.divmod(keys, shape[1])
    return sp.csr_matrix(
        (data, col, np.searchsorted(row, np.arange(shape[0] + 1))),
        shape=shape)


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
                          q=lambda x: laser_flux(x, spot(2)))
        grid = np.linspace(0.0, GEOM.L, 10_001)
        vals = laser_flux(np.column_stack([grid, np.full_like(grid, h)]),
                          spot(2))
        oracle = np.trapezoid(vals, grid)
        assert b.sum() == pytest.approx(oracle, rel=1e-8)

    def test_laser_pointwise(self):
        top = np.array([[GEOM.L / 2, GEOM.H], [0.0, GEOM.H],
                        [GEOM.L, GEOM.H]])
        vals = laser_flux(top, spot(2))
        assert vals[0] == pytest.approx(0.4e5)
        assert vals[1] == 0.0 and vals[2] == 0.0
        assert laser_flux(np.array([[GEOM.L / 2, GEOM.L / 2, GEOM.H]]),
                          spot(3))[0] == pytest.approx(0.4e5)


# box and strip meshes the top-flux support is checked on
FLUX_MESHES = {
    "box-2d": lambda: (GEOM, build_global_mesh(GEOM, 1 / 160)),
    "strip-2d": lambda: (GEOM, build_local_mesh(GEOM, 1 / 640)),
    "box-3d": lambda: (GEOM3, build_global_mesh(GEOM3, 1 / 160)),
    "strip-3d": lambda: (GEOM3, build_local_mesh(GEOM3, 1 / 320)),
}


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", list(FLUX_MESHES))
def test_laser_support_leaves_load_bitwise_equal(name, m):
    # with and without support, the laser through its factors (the moment
    # rule in 3D) and through laser_flux alone (the composite rule): a
    # factor is exactly 0.0 past the cutoff, as the flux is
    geom, mesh = FLUX_MESHES[name]()
    dof = build_dofmap(mesh, m)
    problem = ProblemData()
    q = problem.flux(geom)
    assert q.support is not None

    def load(support, factors):
        def flux(x):
            return laser_flux(x, spot(geom.dim, geom.L))

        if support:
            flux.support = q.support
        if factors:
            flux.factors = q.factors
        return assemble_load(mesh, dof, q=flux, q_panel=problem.flux_panel)

    b = assemble_load(mesh, dof, q=q, q_panel=problem.flux_panel)
    np.testing.assert_array_equal(b, load(True, True))
    np.testing.assert_array_equal(b, load(False, True))
    np.testing.assert_array_equal(load(True, False), load(False, False))
    assert np.count_nonzero(b) > 0


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", list(FLUX_MESHES))
def test_laser_load_at_default_panel(name, m):
    # the laser load at the default panel sums to the closed form of its
    # integral, 4e4 * (2 Gamma(5/4) 1e-3)**(dim-1), and in 3D each entry
    # is that of the rule on 256 pieces per axis.  2D is held to the sum
    # alone: its visited strip facets are only one or two panels wide, so
    # at m = 1 their entries are within 3.2e-8 of that reference at
    # h = 1/640 and only about 7e-6 at h = 1/5120
    geom, mesh = FLUX_MESHES[name]()
    dof = build_dofmap(mesh, m)
    problem = ProblemData()
    q = problem.flux(geom)
    b = assemble_load(mesh, dof, q=q, q_panel=problem.flux_panel)
    exact = 4e4 * (2.0 * math.gamma(1.25) * 1e-3) ** (geom.dim - 1)
    assert b.sum() == pytest.approx(exact, rel=1e-12)
    if geom.dim == 3:
        fine = 1e-9  # far below the facets: the rule clips at 256 pieces
        _, rule, _ = fem._flux_chunks(dof, q.support, fine)
        assert len(rule.weights) == 256 ** 2 * len(facet_rule(3, m).weights)
        # a q without factors: the reference is the composite rule
        composite = functools.partial(laser_flux, centre=spot(3, geom.L))
        composite.support = q.support
        ref = assemble_load(mesh, dof, q=composite, q_panel=fine)
        assert np.abs(b - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", ["box-3d", "strip-3d"])
def test_moment_rule_matches_fine_composite_rule(name, m):
    # the 3D laser load by its factors' moments, at the default panel,
    # against the composite rule on 256 pieces per axis of a q without
    # factors; laser_flux itself is never called by the moments
    geom, mesh = FLUX_MESHES[name]()
    dof = build_dofmap(mesh, m)
    problem = ProblemData()
    q = problem.flux(geom)
    calls = []

    def flux(x):
        calls.append(x.shape)
        return laser_flux(x, spot(3, geom.L))

    flux.support, flux.factors = q.support, q.factors
    b = assemble_load(mesh, dof, q=flux, q_panel=problem.flux_panel)
    assert calls == []
    del flux.factors
    ref = assemble_load(mesh, dof, q=flux, q_panel=1e-9)
    assert calls
    assert np.abs(b - ref).max() <= 1e-13 * np.abs(ref).max()
    np.testing.assert_array_equal(b == 0.0, ref == 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_laser_factors_multiply_to_the_flux(dim):
    # 2D: the one factor is the flux, bitwise.  3D: q = 4e4 exp(-E) rounds
    # its exponent E, so the product is within 1e-14 of q where E <= 20
    # (q >= 8e-5, all but the far tail), and within 4 eps max(1, E)
    # relative wherever q is nonzero
    geom = GeometryConfig(dim=dim)
    q = ProblemData().flux(geom)
    assert len(q.factors) == dim - 1
    rng = np.random.default_rng(7)
    wall = geom.L / 2 + rng.uniform(-1.05, 1.05, (100_000, dim - 1)) \
        * LASER_CUTOFF
    values = q(np.column_stack([wall, np.full(len(wall), geom.H)]))
    product = q.factors[0](wall[:, 0])
    for k in range(1, dim - 1):
        product = product * q.factors[k](wall[:, k])
    if dim == 2:
        np.testing.assert_array_equal(product, values)
        return
    hot = values != 0.0
    assert 0 < hot.sum() < len(hot)
    rel = np.abs(product[hot] - values[hot]) / values[hot]
    E = np.log(0.4e5 / values[hot])
    assert rel[E <= 20.0].max() <= 1e-14
    assert np.all(rel <= 4 * np.finfo(float).eps * np.maximum(1.0, E))
    # a factor is exactly 0.0 past the cutoff, as the flux is
    for factor in q.factors:
        assert np.all(factor(geom.L / 2 + np.array(
            [-2.0, -1.001, 1.001, 2.0]) * LASER_CUTOFF) == 0.0)
        assert factor(np.array([geom.L / 2])) > 0.0


@pytest.mark.parametrize("m", [1, 2])
def test_skew_top_facet_takes_composite_rule(m):
    # a 3D mesh with one top facet whose legs lie along x and y and one
    # whose do not: the whole load takes the composite rule, bitwise that
    # of a q without factors, and q is called
    verts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                      [1.3, 0.9, 1.0], [0.4, 0.4, 0.0]])
    cells = np.array([[0, 1, 2, 4], [1, 3, 2, 4]])
    det = np.linalg.det(verts[cells[:, 1:]] - verts[cells[:, :1]])
    cells[det < 0, :2] = cells[det < 0, 1::-1]

    def tag(pts):
        return np.where((pts[..., -1] == 1.0).all(axis=1),
                        FacetTag.NEUMANN_TOP.value,
                        FacetTag.DIRICHLET_OUTER.value)

    mesh = SimplicialMesh(verts, cells, tag, 1.0)
    dof = build_dofmap(mesh, m)
    calls = []

    def q(x):
        calls.append(x.shape)
        return (1.0 + x[..., 0]) * (2.0 - x[..., 1] ** 2)

    plain = assemble_load(mesh, dof, q=q, q_panel=0.1)
    n_plain = len(calls)
    q.factors = (lambda x: 1.0 + x, lambda y: 2.0 - y ** 2)
    np.testing.assert_array_equal(assemble_load(mesh, dof, q=q, q_panel=0.1),
                                  plain)
    assert n_plain and len(calls) == 2 * n_plain
    # the axis-aligned facet alone takes the moments, q is not called, and
    # its load is that of the composite rule within rounding
    right = SimplicialMesh(verts, cells[:1], tag, 1.0)
    dof = build_dofmap(right, m)
    calls.clear()
    b = assemble_load(right, dof, q=q, q_panel=0.1)
    assert calls == []
    del q.factors
    ref = assemble_load(right, dof, q=q, q_panel=0.1)
    np.testing.assert_allclose(b, ref, rtol=0.0,
                               atol=1e-14 * np.abs(ref).max())


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", list(FLUX_MESHES))
def test_factors_leave_composite_loads_bitwise_equal(name, m):
    # 2D loads and a 3D ScaledLoad do not read the factors: with them they
    # are bitwise the loads of the composite rule without them
    geom, mesh = FLUX_MESHES[name]()
    dof = build_dofmap(mesh, m)
    problem = ProblemData()
    q = problem.flux(geom)

    def loads(factors):
        def flux(x):
            return laser_flux(x, spot(geom.dim, geom.L))

        flux.support = q.support
        if factors:
            flux.factors = q.factors
        kept = np.zeros(dof.n_dofs)
        fem.ScaledLoad(dof, 0.0, flux, problem.flux_panel,
                       lambda x: np.ones(x.shape[:-1], dtype=bool)).add_to(
            kept, lambda x: 0.5 / (1.0 + x[:, 0]))
        return assemble_load(mesh, dof, q=flux,
                             q_panel=problem.flux_panel), kept

    (b, kept), (b_plain, kept_plain) = loads(True), loads(False)
    np.testing.assert_array_equal(kept, kept_plain)
    assert np.count_nonzero(kept) > 0
    if geom.dim == 2:
        np.testing.assert_array_equal(b, b_plain)


@pytest.mark.parametrize("dim", [2, 3])
def test_laser_flux_vanishes_past_cutoff(dim):
    c, r = GEOM.L / 2, LASER_CUTOFF
    # max-norm distance d from the spot centre, along an axis, on the
    # diagonal and (3D) with the other wall coordinate in between
    if dim == 2:
        offsets = np.array([[1.0], [-1.0]])
    else:
        offsets = np.array([[1.0, 0.0], [0.0, -1.0], [1.0, 1.0],
                            [-1.0, 1.0], [0.3, -1.0], [1.0, 0.999]])

    def flux_at(d):
        wall = c + d * offsets
        x = np.column_stack([wall, np.full(len(wall), GEOM.H)])
        return laser_flux(x, spot(dim))

    for d in [r, np.nextafter(r, 1.0), 1.001 * r, 2.0 * r, c]:
        assert np.all(flux_at(d) == 0.0), d
    # inside, along an axis (in 3D the two quartics add up off the axes)
    assert np.all(flux_at(0.99 * r)[:2] > 0.0)


@pytest.mark.parametrize("geom", [GEOM, GEOM3], ids=["2d", "3d"])
def test_flux_called_once_per_facet_in_support(geom):
    mesh = build_global_mesh(geom, 1 / 320)
    dof = build_dofmap(mesh, 1)
    top = mesh.facet_vertices[mesh.facet_tags == FacetTag.NEUMANN_TOP.value]
    centroids = mesh.vertices[top].mean(axis=1)
    centre, radius = np.full(geom.dim - 1, 0.3 * geom.L), 0.2 * geom.L
    # facet by facet: the max-norm distance of its bounding box from centre
    want = []
    for k, facet in enumerate(top):
        wall = mesh.vertices[facet][:, :-1]
        gap = max(max(lo - a, a - hi, 0.0) for a, lo, hi in
                  zip(centre, wall.min(axis=0), wall.max(axis=0)))
        if gap <= radius:
            want.append(k)
    assert 0 < len(want) < len(top)

    def called_facets(support):
        # one row of points (nq, dim) per facet in each call
        rows = []

        def q(x):
            assert x.ndim == 3
            rows.extend(x.mean(axis=1))
            return np.ones(x.shape[:-1])

        if support:
            q.support = (centre, radius)
        assemble_load(mesh, dof, q=q, q_panel=1e-3)
        # the composite rule is symmetric, so its points average to the
        # centroid of their facet
        dist = np.abs(np.asarray(rows)[:, None] - centroids).max(axis=2)
        assert np.all(dist.min(axis=1) < 1e-12)
        # sorted, so a facet whose points arrived twice would show up twice
        return np.sort(dist.argmin(axis=1))

    np.testing.assert_array_equal(called_facets(True), want)
    np.testing.assert_array_equal(called_facets(False), np.arange(len(top)))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", list(FLUX_MESHES))
@pytest.mark.parametrize("chunk", [1, 2 ** 30], ids=["facet", "all"])
def test_flux_chunking_leaves_load_bitwise_equal(name, m, chunk, monkeypatch):
    # one facet per flux call, or every facet of a rule in one call
    geom, mesh = FLUX_MESHES[name]()
    dof = build_dofmap(mesh, m)
    problem = ProblemData()
    calls = []

    def q(x):
        calls.append(x.shape[0])
        return laser_flux(x, spot(geom.dim, geom.L))

    q.support = problem.flux(geom).support

    def load():
        calls.clear()
        return assemble_load(mesh, dof, q=q, q_panel=problem.flux_panel)

    default = load()
    n_default = len(calls)
    monkeypatch.setattr(fem, "_FLUX_CHUNK", chunk)
    np.testing.assert_array_equal(load(), default)
    if chunk == 1:
        assert max(calls) == 1 and len(calls) >= n_default
    else:
        assert len(calls) <= n_default
    assert np.count_nonzero(default) > 0


@pytest.mark.parametrize("m,panel,per_facet", [
    (1, 1e-4, 47_526), (2, 1e-4, 55_447),
    # far below the facets: the rule clips at 256 pieces per axis
    (1, 1e-9, 393_216), (2, 1e-9, 458_752)])
@pytest.mark.parametrize("kept", [False, True], ids=["load", "scaled"])
def test_flux_calls_stay_within_chunk(m, panel, per_facet, kept,
                                      monkeypatch):
    # a 3D box facet at h = 1/160 holds more points than one flux call
    # takes, so it is called in blocks of whole pieces, each a 3-D point
    # array; the load is bitwise that of one call on every facet
    mesh = build_global_mesh(GEOM3, 1 / 160)
    dof = build_dofmap(mesh, m)
    support = ProblemData().flux(GEOM3).support
    _, rule, _ = fem._flux_chunks(dof, support, panel)
    assert len(rule.weights) == per_facet > fem._FLUX_CHUNK
    calls, scaled = [], []

    def q(x):
        calls.append(x.shape)
        return laser_flux(x, spot(3, GEOM3.L))

    q.support = support

    def scale(x):
        scaled.append(len(x))
        return 0.5 / (1.0 + x[:, 0])

    def load():
        calls.clear()
        scaled.clear()
        if not kept:
            return assemble_load(mesh, dof, q=q, q_panel=panel)
        b = np.zeros(dof.n_dofs)
        fem.ScaledLoad(dof, 0.0, q, panel,
                       lambda x: np.ones(x.shape[:-1], dtype=bool)
                       ).add_to(b, scale)
        return b

    blocked = load()
    assert calls and all(len(shape) == 3 and shape[0] == 1
                         and shape[1] <= fem._FLUX_CHUNK for shape in calls)
    # each kept array holds one facet's nonzero points
    assert len(scaled) == (8 if kept else 0)
    assert all(n <= per_facet for n in scaled)
    monkeypatch.setattr(fem, "_FLUX_CHUNK", 2 ** 30)
    np.testing.assert_array_equal(load(), blocked)
    assert calls == [(8, per_facet, 3)]
    assert np.count_nonzero(blocked) > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_scalar_callable_load_matches_constant(dim):
    # a callable source or flux may return one value for all its points,
    # as a constant does
    geom = GeometryConfig(dim=dim)
    mesh = build_local_mesh(geom, 1 / 160)
    dof = build_dofmap(mesh, 1)

    def footprint(x):
        return x[..., 0] < 0.5 * geom.L

    for f, q in [(2.5, 1e5), (lambda x: 2.5, lambda x: 1e5),
                 (lambda x: np.float64(2.5), lambda x: np.array(1e5))]:
        b = assemble_load(mesh, dof, f=f, q=q, q_panel=1e-3)
        kept = np.zeros(dof.n_dofs)
        fem.ScaledLoad(dof, f, q, 1e-3, footprint).add_to(
            kept, lambda x: 1.0 + x[:, 0])
        if not callable(f):
            want, want_kept = b, kept
        np.testing.assert_array_equal(b, want)
        np.testing.assert_array_equal(kept, want_kept)
    assert np.count_nonzero(want) > 0


# every mesh gldd builds, at the spacings its studies and tests use
SPLIT_MESHES = {
    "box-2d": lambda: [build_global_mesh(GEOM, 1 / n) for n in
                       (40, 80, 160, 320, 640, 1280, 2560, 5120)],
    "strip-2d": lambda: [build_local_mesh(GEOM, 1 / n) for n in
                         (160, 320, 640, 1280, 2560, 5120)],
    "box-3d": lambda: [build_global_mesh(GEOM3, 1 / n) for n in
                       (40, 80, 160, 320, 640)],
    "strip-3d": lambda: [build_local_mesh(GEOM3, 1 / n) for n in
                         (160, 320, 640)],
    "uniform-fine": lambda: [build_fitted_mesh(GEOM, 1 / 160, 1 / 640),
                             build_fitted_mesh(GEOM3, 1 / 160, 1 / 320)],
    "graded": lambda: [
        build_fitted_mesh(GeometryConfig(H=H), hp, hm, "graded")
        for H, hp, hm in [(1 / 40, 1 / 160, 1 / 320),
                          (1 / 40, 1 / 160, 1 / 2560),
                          (1 / 40, 1 / 80, 1 / 320),
                          (3 / 80, 1 / 80, 1 / 2560)]],
}


@pytest.mark.parametrize("name", list(SPLIT_MESHES))
def test_one_flux_rule_is_every_facets_own(name):
    # cutting each visited top facet into its own ceil(diam / q_panel)
    # pieces per axis (at most 256) gives every facet the piece count of
    # the one rule of the widest, and one piece fewer would leave a piece
    # wider than q_panel
    for mesh in SPLIT_MESHES[name]():
        dof = build_dofmap(mesh, 1)
        geom = GeometryConfig(dim=mesh.dim)
        for panel in (1e-4, 1e-3):
            for support in (ProblemData().flux(geom).support, None):
                (top, _, _), rule, _ = fem._flux_chunks(dof, support,
                                                        panel)
                pts = mesh.vertices[top]  # P1 facet dofs are its vertices
                i, j = np.transpose(list(itertools.combinations(
                    range(mesh.dim), 2)))
                diam = np.linalg.norm(pts[:, i] - pts[:, j],
                                      axis=-1).max(axis=1)
                own = np.minimum(256, np.ceil(diam / panel)).astype(np.int64)
                assert len(np.unique(own)) == 1
                n = int(own[0])
                assert n >= 1 and (n == 256 or np.all(diam / n <= panel))
                assert n == 1 or np.all(diam / (n - 1) > panel)
                np.testing.assert_array_equal(
                    rule.points, _composite_facet_rule(mesh.dim, 1, n).points)


@pytest.mark.parametrize("m", [1, 2])
def test_flux_rule_on_facets_of_two_widths(m):
    # top facets 0.3 and 0.7 wide: the wider sets the rule, 7 panels of
    # 0.1 = q_panel, where 6 would leave 0.117; the rule is exact on both
    # facets for a constant and a linear flux
    xs = [0.0, 0.3, 1.0]
    verts = np.array([[x, y] for y in (0.0, 1.0) for x in xs])
    cells = np.array([[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]])

    def tag(pts):
        return np.where((pts[..., 1] == 1.0).all(axis=1),
                        FacetTag.NEUMANN_TOP.value,
                        FacetTag.DIRICHLET_OUTER.value)

    mesh = SimplicialMesh(verts, cells, tag, 0.7)
    dof = build_dofmap(mesh, m)
    _, rule, _ = fem._flux_chunks(dof, None, 0.1)
    pieces = len(rule.weights) // len(facet_rule(2, m).weights)
    assert pieces == 7 and 0.7 / pieces <= 0.1 < 0.7 / (pieces - 1)
    x = dof.dof_coords[:, 0]
    for q, total, moment in [(2.5, 2.5, 1.25),
                             (lambda p: p[..., 0], 0.5, 1.0 / 3.0)]:
        b = assemble_load(mesh, dof, q=q, q_panel=0.1)
        # the P1 and P2 bases reproduce 1 and x, so b sums to the flux's
        # integral and b @ x to that of q times x
        assert b.sum() == pytest.approx(total, rel=1e-14)
        assert b @ x == pytest.approx(moment, rel=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_laser_flux_peaks_at_its_centre(dim):
    # the peak exactly at the centre, a smaller value off it, 0.0 past the
    # cut-off; a row of points is the value of each point alone
    c = GEOM.L / 2
    x = np.array([[c] * (dim - 1) + [GEOM.H],
                  [c + 1e-4] * (dim - 1) + [GEOM.H],
                  [c + 2 * LASER_CUTOFF] * (dim - 1) + [GEOM.H]])
    values = laser_flux(x, spot(dim))
    assert values[0] == 0.4e5 and 0.0 < values[1] < 0.4e5 and values[2] == 0.0
    for p, value in zip(x, values):
        assert laser_flux(p[None], spot(dim)) == [value]


@pytest.mark.parametrize("rule", ["moments", "composite"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("ratio", [0.5, 2.0], ids=["W=L/2", "W=2L"])
def test_laser_spot_sits_at_the_middle_of_the_top_wall(ratio, m, rule):
    # on a 3D box whose y extent W is not its x extent L the spot is
    # centred at (L/2, W/2): through its factors' moments and through the
    # composite rule of a q without factors, the load sums to the closed
    # form of the flux's integral and peaks at the top vertex there (a
    # spot at y = L/2 on the box with W = L/2 puts half of it off the wall)
    geom = GeometryConfig(dim=3, W=ratio * GEOM.L)
    mesh = build_global_mesh(geom, 1 / 160)
    dof = build_dofmap(mesh, m)
    problem = ProblemData()
    q = problem.flux(geom)
    centre = [geom.L / 2, geom.W / 2]
    np.testing.assert_array_equal(q.support[0], centre)
    calls = []

    def flux(x):
        calls.append(x.shape)
        return laser_flux(x, q.support[0])

    flux.support = q.support
    if rule == "moments":
        flux.factors = q.factors
    b = assemble_load(mesh, dof, q=flux, q_panel=problem.flux_panel)
    assert (calls == []) == (rule == "moments")
    exact = 4e4 * (2.0 * math.gamma(1.25) * 1e-3) ** 2
    assert b.sum() == pytest.approx(exact, rel=1e-12)
    np.testing.assert_allclose(dof.dof_coords[np.argmax(b)],
                               centre + [geom.H], rtol=0, atol=1e-15)


@pytest.mark.parametrize("call", ["load", "field"])
def test_mesh_not_of_its_dofmap_rejected(call):
    # the 1/160 box and the 1/320 strip both have 32 cells, so the box
    # mesh beside the strip dof map would run without a word
    box = build_global_mesh(GEOM, 1 / 160)
    strip = build_dofmap(build_local_mesh(GEOM, 1 / 320), 1)
    assert box.num_cells == strip.mesh.num_cells == 32
    with pytest.raises(InvalidConfig, match="mesh must be the mesh of its "
                                            "dof map"):
        if call == "load":
            assemble_load(box, strip, f=1.0)
        else:
            evaluate_field(box, strip, np.zeros(strip.n_dofs),
                           strip.mesh.vertices)


def test_laser_flux_never_subnormal():
    # dense distances from the centre, the band just inside the cut-off
    # included, where the exponential passes below the smallest normal
    c, r = GEOM.L / 2, LASER_CUTOFF
    d = np.concatenate([np.linspace(0.0, 2.0 * r, 200_001),
                        np.linspace(0.99 * r, r, 200_001)])
    tiny = np.finfo(float).tiny
    for dim, wall in [(2, [c + d]), (3, [c + d, np.full_like(d, c)]),
                      (3, [c + d, c - d])]:
        x = np.column_stack(wall + [np.full_like(d, GEOM.H)])
        vals = laser_flux(x, spot(dim))
        assert np.all((vals == 0.0) | (vals >= 0.4e5 * tiny))
        # both sides of the subnormal threshold are reached
        assert np.any(vals == 0.0) and np.any((vals > 0.0) & (vals < 1e-290))


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

    def test_matches_dense_elimination(self):
        # a dense oracle of the symmetric elimination, on a matrix whose
        # constrained dof 2 has no diagonal entry in the pattern
        import scipy.sparse as sp

        rng = np.random.default_rng(3)
        dense = rng.standard_normal((6, 6))
        dense[2, 2] = 0.0
        A = sp.csr_matrix(dense)
        b = rng.standard_normal(6)
        dofs = [0, 2, 5]
        A2, b2 = apply_dirichlet(A, b, dofs, 7.0)
        keep = np.ones(6)
        keep[dofs] = 0.0
        want = keep[:, None] * dense * keep[None, :] + np.diag(1.0 - keep)
        want_b = np.where(keep > 0, b - 7.0 * dense @ (1.0 - keep), 7.0)
        np.testing.assert_array_equal(A2.toarray(), want)
        np.testing.assert_allclose(b2, want_b, rtol=1e-15)
        assert (A2.data != 0.0).all()
        np.testing.assert_array_equal(A.toarray(), dense)

    @pytest.mark.parametrize("dofs", [[0, 2], [-1]])
    def test_dof_out_of_range(self, dofs):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        with pytest.raises(IndexOutOfRange):
            apply_dirichlet(A, np.ones(2), dofs, 5.0)

    def test_solution_hits_value(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        K = assemble_stiffness(dof, 1.0)
        b = assemble_load(mesh, dof, f=1.0)
        dirich = dirichlet_dofs(dof)
        K2, b2 = apply_dirichlet(K, b, dirich, 293.15)
        T = spla.spsolve(K2.tocsc(), b2)
        np.testing.assert_allclose(T[dirich], 293.15, atol=1e-10)
        assert T.min() >= 293.15 - 1e-10


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_volume_terms_match_per_cell_loop(dim, m):
    """The batched load is bitwise the cell-by-cell sum with each cell's
    |det J| from its shape's representative, and within 1e-14 of the
    largest entry with |det J| from its own vertices; the L2 error sums in
    another order, so it matches either to a few rounding errors."""
    geom = GeometryConfig(dim=dim)
    mesh = build_global_mesh(geom, 1 / 160)
    dof = build_dofmap(mesh, m)
    f = lambda x: np.sin(300.0 * x[..., 0]) + x[..., -1]
    coeffs = np.random.default_rng(dim + m).random(dof.n_dofs)
    b = assemble_load(mesh, dof, f=f)
    vrule, erule = volume_rule(dim, m), volume_rule(dim, 2)
    vvals = shape_values(dim, m, vrule.points)
    evals = shape_values(dim, m, erule.points)
    ref_b, own_b = np.zeros(dof.n_dofs), np.zeros(dof.n_dofs)
    total = own_total = 0.0

    def adet(c):
        pts = mesh.vertices[mesh.cells[c]]
        return abs(np.linalg.det((pts[1:] - pts[0]).T))

    for c in range(mesh.num_cells):
        pts = mesh.vertices[mesh.cells[c]]
        local = np.einsum("q,q,qn->n", vrule.weights, f(vrule.points @ pts),
                          vvals)
        diff = evals @ coeffs[dof.cell_dofs[c]] - f(erule.points @ pts)
        err = float(erule.weights @ diff ** 2)
        shape_det, own_det = adet(c % mesh.num_shapes), adet(c)
        np.add.at(ref_b, dof.cell_dofs[c], shape_det * local)
        np.add.at(own_b, dof.cell_dofs[c], own_det * local)
        total += shape_det * err
        own_total += own_det * err
    np.testing.assert_array_equal(b, ref_b)
    assert np.abs(b - own_b).max() <= 1e-14 * np.abs(own_b).max()
    error = l2_error(dof, coeffs, f)
    assert error == pytest.approx(np.sqrt(total), rel=1e-14)
    assert error == pytest.approx(np.sqrt(own_total), rel=1e-14)


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
            K = assemble_stiffness(dof, 1.0)
            b = assemble_load(mesh, dof, f=f)
            walls = np.unique(np.concatenate(
                [dof.facet_dofs(f_) for f_ in mesh.facet_vertices]))
            K, b = apply_dirichlet(K, b, walls, 0.0)
            T = spla.spsolve(K.tocsc(), b)
            errs.append(l2_error(dof, T, exact))
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
        loc = locate_point(mesh, x[None])
        phi = shape_values(geom.dim, 2, loc.barycentric)[0]
        want.append(float(phi @ coeffs[dof.cell_dofs[loc.cell[0]]]))
    got = evaluate_field(mesh, dof, coeffs, pts)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def counted_locate(monkeypatch):
    """The number of points of every locate_point call fem makes from now
    on."""
    calls = []
    real = fem.locate_point

    def counting(mesh, points):
        calls.append(len(points))
        return real(mesh, points)

    monkeypatch.setattr(fem, "locate_point", counting)
    return calls


class TestKeptLocation:
    """evaluate_field keeps no location: every call locates its points."""

    @staticmethod
    def field(m=1):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, m)
        coeffs = 300.0 + np.random.default_rng(8).random(dof.n_dofs)
        pts = np.random.default_rng(9).random((40, 2)) * [GEOM.L, GEOM.H]
        return mesh, dof, coeffs, pts

    def test_writable_points_located_on_every_call(self, monkeypatch):
        mesh, dof, coeffs, pts = self.field()
        calls = counted_locate(monkeypatch)
        first = evaluate_field(mesh, dof, coeffs, pts)
        # moved in place between calls: the values follow the points
        pts[:, 0] = GEOM.L - pts[:, 0]
        second = evaluate_field(mesh, dof, coeffs, pts)
        assert calls == [40, 40]
        np.testing.assert_array_equal(
            second, evaluate_field(mesh, dof, coeffs, pts.copy()))
        assert not np.array_equal(first, second)

    def test_refrozen_points_located_again(self, monkeypatch):
        # a read-only array that owns its data can be thawed, moved and
        # frozen again: the values of T = x follow the points
        mesh, dof, _coeffs, pts = self.field()
        coeffs = dof.dof_coords[:, 0].copy()
        frozen = pts.copy()
        frozen.setflags(write=False)
        calls = counted_locate(monkeypatch)
        first = evaluate_field(mesh, dof, coeffs, frozen)
        frozen.setflags(write=True)
        frozen[:, 0] = GEOM.L - frozen[:, 0]
        frozen.setflags(write=False)
        second = evaluate_field(mesh, dof, coeffs, frozen)
        np.testing.assert_allclose(first, pts[:, 0], rtol=1e-12)
        np.testing.assert_allclose(second, frozen[:, 0], rtol=1e-12)
        assert calls == [40, 40]

    def test_read_only_view_located_on_every_call(self, monkeypatch):
        # a view does not own its data, so its base may still change
        mesh, dof, coeffs, pts = self.field()
        view = pts[:20]
        view.setflags(write=False)
        calls = counted_locate(monkeypatch)
        evaluate_field(mesh, dof, coeffs, view)
        pts[:20, 0] = GEOM.L - pts[:20, 0]
        np.testing.assert_array_equal(
            evaluate_field(mesh, dof, coeffs, view),
            evaluate_field(mesh, dof, coeffs, pts[:20].copy()))
        assert calls == [20, 20, 20]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("geom", [GEOM, GEOM3], ids=["2d", "3d"])
@pytest.mark.parametrize("support", [True, False], ids=["laser", "plain"])
def test_scaled_flux_matches_one_pass_load(support, geom, m):
    # ScaledLoad.add_to against assemble_load with the scale folded into a
    # volume source inside a footprint and into q where it is nonzero; the
    # 2D path is the one picard-laser runs
    mesh = build_global_mesh(geom, 1 / 160)
    dof = build_dofmap(mesh, m)
    q = ProblemData().flux(geom)
    if not support:
        q = lambda x, q=q: q(x)

    def f(x):
        return 1e3 * (1.0 + 40.0 * x[..., 0])

    def footprint(x):
        return x[..., -1] >= geom.floor - 1e-12

    kept = fem.ScaledLoad(dof, f, q, 1e-3, footprint)
    seen = []
    for c in (0.5, 2.0):
        def scale(x):
            seen.append(x)
            return c * (1.0 + x[:, 0])

        def scaled(fun, where):
            def g(x):
                out = np.asarray(fun(x), dtype=float).copy()
                hot = where(x, out)
                out[hot] *= c * (1.0 + x[hot][:, 0])
                return out
            g.support = getattr(fun, "support", None)
            return g

        b = np.zeros(dof.n_dofs)
        kept.add_to(b, scale)
        np.testing.assert_array_equal(b, assemble_load(
            mesh, dof, scaled(f, lambda x, _v: footprint(x)),
            scaled(q, lambda _x, v: v != 0.0), q_panel=1e-3))
    # the same read-only arrays each time: the footprint's points, then
    # one per chunk with a hot point
    half = len(seen) // 2
    assert half >= 2 and all(a is b for a, b in zip(seen[:half], seen[half:]))
    assert not any(x.flags.writeable for x in seen)
