"""Assembly oracles: symbolic element matrices, quadrature exactness,
manufactured solutions."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gldd import fem
from gldd.coupling import ProblemData
from gldd.errors import (ForeignFacet, NonpositiveCoefficient,
                         UnsupportedDegree)
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
            got = dirichlet_dofs(mesh, dof, tag)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, sorted(found))


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


def _reference_composite_rule(dim, m, splits):
    """The subdivided facet rule built piece by piece."""
    base = facet_rule(dim, m)
    if splits <= 0:
        return base.points, base.weights
    n = 1 << splits
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
    for splits in range(8):
        rule = _composite_facet_rule(dim, m, splits)
        pts, wts = _reference_composite_rule(dim, m, splits)
        np.testing.assert_array_equal(rule.points, pts)
        np.testing.assert_array_equal(rule.weights, wts)


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
        phi = shape_values(dim - 1, m, rule.points)
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

    def test_out_of_range_vertex_is_foreign(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        dof = build_dofmap(mesh, 1)
        # (0, nv + 2) and (-1, nv + 1) have the keys of the bottom-wall
        # facets (1, 2) and (0, 1)
        nv = mesh.num_vertices
        for facet in [(0, nv + 2), (-1, nv + 1)]:
            with pytest.raises(ForeignFacet):
                assemble_boundary_mass(mesh, dof, [facet], 1.0)

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
    geom, mesh = FLUX_MESHES[name]()
    dof = build_dofmap(mesh, m)
    problem = ProblemData()
    q = problem.flux(geom)
    assert q.support is not None
    b = assemble_load(mesh, dof, q=q, q_panel=problem.flux_panel)
    plain = assemble_load(mesh, dof,
                          q=lambda x: laser_flux(x, geom.dim, geom.L),
                          q_panel=problem.flux_panel)
    np.testing.assert_array_equal(b, plain)
    assert np.count_nonzero(b) > 0


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
        return laser_flux(x, dim, GEOM.L)

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
        return laser_flux(x, geom.dim, geom.L)

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
        vals = laser_flux(x, dim, GEOM.L)
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
