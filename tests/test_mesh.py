"""Mesh construction, tagging, measures and point location."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gldd.mesh as mesh_module
from gldd.errors import (GlddError, InvalidConfig, NonDivisibleSpacing,
                         OutOfDomain)
from gldd.mesh import (FacetTag, GeometryConfig, SimplicialMesh,
                       build_fitted_mesh, build_global_mesh, build_local_mesh,
                       cell_geometry, face_keys, interface_facets,
                       locate_point, memoised, strip_cells)

GEOM = GeometryConfig()
GEOM3 = GeometryConfig(dim=3)


def cell_volumes(mesh):
    adet, _, shape = cell_geometry(mesh)
    return adet[shape] / math.factorial(mesh.dim)


def tag_counts(mesh):
    counts = {t: 0 for t in FacetTag}
    for t in mesh.facet_tags:
        counts[FacetTag(t)] += 1
    return counts


class TestGlobalMesh:
    def test_counts_2d(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        assert mesh.num_vertices == 25
        assert mesh.num_cells == 32
        assert mesh.facet_vertices.shape == (16, 2)
        assert mesh.facet_tags.shape == mesh.facet_cells.shape == (16,)

    def test_counts_3d(self):
        mesh = build_global_mesh(GEOM3, 1 / 160)
        assert mesh.num_vertices == 125
        assert mesh.num_cells == 384

    def test_tags_2d(self):
        counts = tag_counts(build_global_mesh(GEOM, 1 / 160))
        assert counts[FacetTag.NEUMANN_TOP] == 4
        assert counts[FacetTag.DIRICHLET_OUTER] == 12
        assert counts[FacetTag.INTERFACE_GAMMA] == 0

    def test_tags_3d(self):
        counts = tag_counts(build_global_mesh(GEOM3, 1 / 160))
        assert counts[FacetTag.NEUMANN_TOP] == 4 * 4 * 2
        assert counts[FacetTag.DIRICHLET_OUTER] == 5 * 4 * 4 * 2

    def test_volume_partition_2d(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        total = cell_volumes(mesh).sum()
        assert total == pytest.approx(GEOM.L * GEOM.H, abs=1e-15)

    def test_volume_partition_3d(self):
        mesh = build_global_mesh(GEOM3, 1 / 160)
        total = cell_volumes(mesh).sum()
        assert total == pytest.approx(GEOM3.L * GEOM3.W * GEOM3.H, abs=1e-15)

    def test_positive_orientation_3d(self):
        mesh = build_global_mesh(GEOM3, 1 / 80)
        for c in range(mesh.num_cells):
            pts = mesh.vertices[mesh.cells[c]]
            det = np.linalg.det((pts[1:] - pts[0]).T)
            assert det > 0

    def test_block_split_tables(self):
        # one simplex per axis order, corner i holding bit a of i on axis a;
        # the order within a block decides which cell wins a shared facet
        assert mesh_module._BLOCK_SIMPLICES[2].tolist() == [[0, 1, 3],
                                                           [0, 3, 2]]
        assert mesh_module._BLOCK_SIMPLICES[3].tolist() == [
            [0, 1, 3, 7], [0, 1, 7, 5], [0, 2, 7, 3], [0, 2, 6, 7],
            [0, 4, 5, 7], [0, 4, 7, 6]]

    def test_boundary_facets_unique(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        keys = [tuple(sorted(f)) for f in mesh.facet_vertices]
        assert len(keys) == len(set(keys))

    def test_non_divisible_spacing(self):
        with pytest.raises(NonDivisibleSpacing):
            build_global_mesh(GEOM, 1 / 150)

    @pytest.mark.parametrize("h", [0.0, -1 / 160, np.nan, np.inf])
    def test_spacing_not_positive_and_finite(self, h):
        with pytest.raises(NonDivisibleSpacing, match="positive and finite"):
            build_global_mesh(GEOM, h)

    def test_spacing_too_coarse(self):
        # extent / h rounds to zero divisions within the divisibility slack
        with pytest.raises(NonDivisibleSpacing, match="too coarse"):
            build_global_mesh(GEOM, 1e9)

    @pytest.mark.parametrize("kwargs,match", [
        ({"dim": 1}, "dim must be 2 or 3"),
        ({"L": 0.0}, "L must be positive and finite, got 0.0"),
        ({"H_minus": -1 / 160}, "H_minus must be positive and finite, got -0"),
        ({"dim": 3, "W": -1 / 40}, "W must be positive and finite, got -0"),
        ({"L": np.nan}, "L must be positive and finite, got nan"),
        ({"H_minus": np.nan}, "H_minus must be positive and finite, got nan"),
        ({"H": np.inf}, "H must be positive and finite, got inf"),
        ({"dim": 3, "W": np.nan}, "W must be positive and finite, got nan")],
        ids=["dim", "length", "strip", "width-3d", "length-nan", "strip-nan",
             "height-inf", "width-nan-3d"])
    def test_geometry_rejects_bad_dim_and_extents(self, kwargs, match):
        with pytest.raises(InvalidConfig, match=match):
            GeometryConfig(**kwargs)

    def test_divisions_overflow(self):
        # extent / h overflows to inf, which has no whole number of cells
        with pytest.raises(NonDivisibleSpacing, match="finite multiple"):
            build_global_mesh(GeometryConfig(L=1e308, H=1e308), 1 / 160)


class TestLocalMesh:
    def test_counts(self):
        mesh = build_local_mesh(GEOM, 1 / 320)
        # strip is 8 x 2 fine squares
        assert mesh.num_cells == 32
        assert mesh.num_vertices == 27

    def test_tags(self):
        counts = tag_counts(build_local_mesh(GEOM, 1 / 320))
        assert counts[FacetTag.INTERFACE_GAMMA] == 8
        assert counts[FacetTag.NEUMANN_TOP] == 8
        assert counts[FacetTag.DIRICHLET_OUTER] == 4

    def test_interface_geometry(self):
        mesh = build_local_mesh(GEOM, 1 / 320)
        pairs = interface_facets(mesh)
        assert len(pairs) == 8
        floor = GEOM.H - GEOM.H_minus
        total = 0.0
        for facet, normal in pairs:
            assert np.allclose(normal, [0.0, -1.0], atol=1e-14)
            assert np.allclose(mesh.vertices[list(facet)][:, 1], floor,
                               atol=1e-14)
            total += mesh.facet_measure(facet)
        assert total == pytest.approx(GEOM.L, abs=1e-15)

    def test_interface_geometry_3d(self):
        mesh = build_local_mesh(GEOM3, 1 / 320)
        pairs = interface_facets(mesh)
        assert len(pairs) == 8 * 8 * 2
        total = 0.0
        for facet, normal in pairs:
            assert np.allclose(normal, [0.0, 0.0, -1.0], atol=1e-14)
            total += mesh.facet_measure(facet)
        assert total == pytest.approx(GEOM3.L * GEOM3.W, abs=1e-14)


# meshes the batched geometry is checked on, 2D and 3D where they exist
GEOMETRY_MESHES = {
    "global-2d": lambda: build_global_mesh(GEOM, 1 / 160),
    "global-3d": lambda: build_global_mesh(GEOM3, 1 / 160),
    "strip-2d": lambda: build_local_mesh(GEOM, 1 / 640),
    "strip-3d": lambda: build_local_mesh(GEOM3, 1 / 320),
    "graded-2d": lambda: build_fitted_mesh(GEOM, 1 / 160, 1 / 640, "graded"),
}


@pytest.mark.parametrize("name", list(GEOMETRY_MESHES))
class TestBatchedGeometry:
    def test_cell_geometry_matches_per_cell(self, name):
        # shape s is bitwise its representative, cell s; every cell's own
        # vertices give its shape's geometry to 1e-12 relative.  A grid has
        # dim! shapes, the graded mesh one per cell, so all bitwise
        mesh = GEOMETRY_MESHES[name]()
        adet, grads, shape = cell_geometry(mesh)
        ns = mesh.num_shapes
        assert ns == (mesh.num_cells if name.startswith("graded")
                      else math.factorial(mesh.dim))
        assert adet.shape == (ns,)
        assert grads.shape == (ns, mesh.dim + 1, mesh.dim)
        np.testing.assert_array_equal(shape, np.arange(mesh.num_cells) % ns)
        for c in range(mesh.num_cells):
            pts = mesh.vertices[mesh.cells[c]]
            J = (pts[1:] - pts[0]).T
            Jinv = np.linalg.inv(J)
            s = shape[c]
            if c == s:
                assert adet[s] == abs(np.linalg.det(J))
                np.testing.assert_array_equal(grads[s, 1:], Jinv)
                np.testing.assert_array_equal(grads[s, 0], -Jinv.sum(axis=0))
            assert abs(adet[s] - abs(np.linalg.det(J))) <= 1e-12 * adet[s]
            assert np.abs(grads[s, 1:] - Jinv).max() <= \
                1e-12 * np.abs(Jinv).max()

    def test_boundary_facets_match_dict_extraction(self, name):
        mesh = GEOMETRY_MESHES[name]()
        facets, owners = _reference_boundary(mesh)
        np.testing.assert_array_equal(mesh.facet_vertices, facets)
        np.testing.assert_array_equal(mesh.facet_cells, owners)
        tags = [_reference_tag(mesh, name, f) for f in facets]
        np.testing.assert_array_equal(mesh.facet_tags, tags)

    def test_cell_geometry_computed_once_read_only(self, name):
        mesh = GEOMETRY_MESHES[name]()
        first = cell_geometry(mesh)
        assert cell_geometry(mesh) is first
        for arr in first:
            assert not arr.flags.writeable

    def test_facet_measure_batch_matches_single(self, name):
        mesh = GEOMETRY_MESHES[name]()
        batch = mesh.facet_measure(mesh.facet_vertices)
        assert batch.shape == (len(mesh.facet_vertices),)
        for f, m in zip(mesh.facet_vertices, batch):
            assert mesh.facet_measure(f[None]) == [m]


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_structured_cells_share_their_shape_geometry(data):
    # a grid of n blocks per axis at a spacing h that divides the extents,
    # placed off the origin as the strip is
    dim = data.draw(st.sampled_from([2, 3]), label="dim")
    n = np.array(data.draw(st.lists(st.integers(1, 6 if dim == 2 else 4),
                                    min_size=dim, max_size=dim), label="n"))
    h = 1.0 / data.draw(st.integers(40, 6000), label="1/h")
    origin = np.array(data.draw(st.lists(st.floats(1e-3, 0.05), min_size=dim,
                                         max_size=dim), label="origin"))
    mesh = mesh_module.StructuredMesh(
        origin, n * h, h, mesh_module._wall_tags(origin[-1] + n[-1] * h))
    assert mesh.num_shapes * n.prod() == mesh.num_cells
    assert mesh.num_shapes == math.factorial(dim)
    _, grads, shape = cell_geometry(mesh)
    pts = mesh.vertices[mesh.cells]
    own = np.linalg.inv(np.swapaxes(pts[:, 1:] - pts[:, :1], 1, 2))
    gap = np.abs(own - grads[shape, 1:]).max(axis=(1, 2))
    assert (gap <= 1e-12 * np.abs(own).max(axis=(1, 2))).all()
    unit = np.array(data.draw(st.lists(
        st.lists(st.floats(0, 1), min_size=dim, max_size=dim),
        min_size=1, max_size=20), label="points"))
    x = origin + unit * mesh.extents
    loc = locate_point(mesh, x)
    rebuilt = (mesh.vertices[mesh.cells[loc.cell]]
               * loc.barycentric[..., None]).sum(axis=1)
    assert np.abs(rebuilt - x).max() <= 1e-12 * h


def test_face_keys():
    ids = np.array([[0, 1, 2], [2, 3, 4]])
    np.testing.assert_array_equal(face_keys(ids, 5), [7, 69])
    np.testing.assert_array_equal(face_keys(ids[:, :2], 5), [1, 13])
    # (2**21 - 1)**3 fits in int64, (2**21)**3 = 2**63 does not
    assert face_keys(ids, 2 ** 21 - 1).dtype == np.int64
    with pytest.raises(GlddError, match="overflow"):
        face_keys(ids, 2 ** 21)


def test_memoised_keys_compare_by_value():
    # kept state is rebuilt only when its key differs by value: a fresh
    # config and a recomputed penalty ratio hit, meshes in a key and as
    # owners go by identity, so two equal meshes share nothing
    a, b = (build_global_mesh(GEOM, 1 / 40) for _ in range(2))
    builds = []

    def kept(owner, key):
        return memoised(owner, "_kept", key,
                        lambda: builds.append((owner, key)) or len(builds))

    h = 1 / 320
    r, again = 1e6 / h, 1e6 / h
    assert again == r and again is not r
    assert GeometryConfig() == GEOM and GeometryConfig() is not GEOM
    assert kept(a, (b, GEOM, r)) == 1
    assert kept(a, (b, GeometryConfig(), again)) == 1
    assert len(builds) == 1
    # a differing value rebuilds, and the last key is the one kept
    assert kept(a, (b, GEOM, 2 * r)) == 2
    assert kept(a, (b, GeometryConfig(dim=3), 2 * r)) == 3
    assert kept(a, (b, GEOM, r)) == 4
    # an equal mesh is another mesh, as a key and as an owner
    assert kept(a, (a, GEOM, r)) == 5
    assert kept(b, (a, GEOM, r)) == 6
    assert kept(a, (a, GEOM, r)) == 5
    assert cell_geometry(a) is not cell_geometry(b)
    assert cell_geometry(a) is cell_geometry(a)


def _reference_boundary(mesh):
    """Boundary facets by a per-cell dictionary pass: a face is a boundary
    facet iff exactly one cell has it; listed by cell, then local face."""
    seen = {}
    for c, cell in enumerate(mesh.cells):
        for loc in range(mesh.dim + 1):
            face = tuple(sorted(np.delete(cell, loc)))
            seen[face] = None if face in seen else (c, loc)
    facets, owners = [], []
    for c, cell in enumerate(mesh.cells):
        for loc in range(mesh.dim + 1):
            face = tuple(sorted(np.delete(cell, loc)))
            if seen[face] == (c, loc):
                facets.append(face)
                owners.append(c)
    return np.array(facets), np.array(owners)


def _reference_tag(mesh, name, facet):
    geom = GEOM3 if name.endswith("3d") else GEOM
    height = mesh.vertices[list(facet)][:, -1]
    if np.allclose(height, geom.H, rtol=0, atol=1e-10):
        return FacetTag.NEUMANN_TOP.value
    if name.startswith("strip") and np.allclose(
            height, geom.H - geom.H_minus, rtol=0, atol=1e-10):
        return FacetTag.INTERFACE_GAMMA.value
    return FacetTag.DIRICHLET_OUTER.value


def rebuilt(mesh, loc):
    """The points (n, dim) that a PointLocation's cells and barycentrics
    give back."""
    return np.einsum("pvd,pv->pd", mesh.vertices[mesh.cells[loc.cell]],
                     loc.barycentric)


class TestLocatePoint:
    def test_roundtrip_2d(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        rng = np.random.default_rng(11)
        pts = rng.random((1000, 2)) * [GEOM.L, GEOM.H]
        loc = locate_point(mesh, pts)
        assert loc.barycentric.min() >= -1e-12
        np.testing.assert_allclose(loc.barycentric.sum(axis=1), 1.0, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(rebuilt(mesh, loc), pts, atol=1e-12)

    def test_roundtrip_3d(self):
        mesh = build_global_mesh(GEOM3, 1 / 160)
        rng = np.random.default_rng(12)
        pts = rng.random((200, 3)) * [GEOM3.L, GEOM3.W, GEOM3.H]
        loc = locate_point(mesh, pts)
        np.testing.assert_allclose(rebuilt(mesh, loc), pts, atol=1e-12)

    def test_shared_edge_lowest_cell_wins(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        h = 1 / 160
        # diagonal of the first grid square is shared by cells 0 and 1, and
        # a vertex by many cells
        loc = locate_point(mesh, [[0.5 * h, 0.5 * h], [h, h]])
        assert loc.cell.tolist() == [0, 0]

    def test_boundary_points(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        loc = locate_point(mesh, [[0.0, 0.0], [GEOM.L, GEOM.H],
                                  [GEOM.L / 3, 0.0]])
        assert loc.barycentric.min() >= -1e-12

    @pytest.mark.parametrize("geom", [GEOM, GEOM3], ids=["2d", "3d"])
    @pytest.mark.parametrize("build", [build_global_mesh, build_local_mesh],
                             ids=["global", "strip"])
    def test_batch_matches_per_point(self, geom, build):
        mesh = build(geom, 1 / 320)
        pts = _location_probes(mesh, np.random.default_rng(14))
        batch = locate_point(mesh, pts)
        assert batch.cell.shape == (len(pts),)
        assert batch.barycentric.shape == (len(pts), mesh.dim + 1)
        for p, cell, lam in zip(pts, batch.cell, batch.barycentric):
            one = locate_point(mesh, p[None])
            ref_cell, ref_lam = _reference_locate(mesh, p)
            assert one.cell == [cell] and cell == ref_cell
            np.testing.assert_allclose(lam, one.barycentric[0], rtol=0,
                                       atol=1e-15)
            np.testing.assert_allclose(lam, ref_lam, rtol=0, atol=1e-15)

    def test_chunked_batch_bitwise_and_lowest_cell(self):
        # many points on grid lines and vertices, so shared facets are common
        mesh = build_global_mesh(GEOM3, 1 / 160)
        rng = np.random.default_rng(18)
        probes = np.vstack([_location_probes(mesh, rng) for _ in range(5)])
        # points on the cube diagonals, which all six tetrahedra share
        corner = mesh.vertices[rng.integers(0, mesh.num_vertices, 300)]
        diagonal = np.minimum(corner + rng.random((300, 1)) * mesh.h,
                              mesh.origin + mesh.extents)
        pts = rng.permutation(np.vstack([probes, diagonal]))
        batch = locate_point(mesh, pts)
        for start in range(0, len(pts), 97):
            part = locate_point(mesh, pts[start:start + 97])
            np.testing.assert_array_equal(part.cell,
                                          batch.cell[start:start + 97])
            np.testing.assert_array_equal(part.barycentric,
                                          batch.barycentric[start:start + 97])
        for p, cell in zip(pts[::7], batch.cell[::7]):
            assert cell == _reference_locate(mesh, p)[0]

    @pytest.mark.parametrize("geom", [GEOM, GEOM3], ids=["2d", "3d"])
    def test_slack_edge_points_are_rescanned(self, geom, monkeypatch):
        # a point the slack above a grid plane, or whose in-block
        # coordinates rise by the slack along an axis pair, lies where s
        # and the barycentrics may round apart: it is scanned and takes
        # the lowest cell; a point off every slack edge is not scanned
        mesh = build_global_mesh(geom, 1 / 160)
        tol = mesh_module._BARY_TOL
        plain = np.full(mesh.dim, 1.37) + 0.11 * np.arange(mesh.dim)
        units = []
        for axis in range(mesh.dim):
            on_plane = plain.copy()
            on_plane[axis] = 3 + tol
            rise = plain.copy()
            rise[axis] = plain[axis - 1] + tol
            units += [on_plane, rise]
        pts = mesh.origin + mesh.h * np.array(units + [plain])
        scan = mesh_module._locate_scan
        scanned = []
        monkeypatch.setattr(mesh_module, "_locate_scan", lambda mesh, x: (
            scanned.append(len(x)), scan(mesh, x))[1])
        loc = locate_point(mesh, pts)
        assert scanned == [len(pts) - 1]
        for p, cell, lam in zip(pts, loc.cell, loc.barycentric):
            ref_cell, ref_lam = _reference_locate(mesh, p)
            assert cell == ref_cell
            np.testing.assert_allclose(lam, ref_lam, rtol=0, atol=1e-15)

    def test_batch_on_graded_mesh_scans(self):
        mesh = build_fitted_mesh(GEOM, 1 / 160, 1 / 640, "graded")
        rng = np.random.default_rng(15)
        verts = mesh.vertices[rng.integers(0, mesh.num_vertices, 20)]
        pts = np.vstack([rng.random((100, 2)) * [GEOM.L, GEOM.H], verts])
        batch = locate_point(mesh, pts)
        for p, cell, lam in zip(pts, batch.cell, batch.barycentric):
            one = locate_point(mesh, p[None])
            assert one.cell == [cell]
            np.testing.assert_allclose(lam, one.barycentric[0], rtol=0,
                                       atol=1e-15)

    def test_graded_scan_matches_per_cell_solve(self):
        mesh = build_fitted_mesh(GEOM, 1 / 160, 1 / 320, "graded")
        rng = np.random.default_rng(17)
        pts = np.vstack([rng.random((60, 2)) * [GEOM.L, GEOM.H],
                         mesh.vertices[::5]])
        batch = locate_point(mesh, pts)
        for p, cell, lam in zip(pts, batch.cell, batch.barycentric):
            ref_cell, ref_lam = _reference_scan(mesh, p)
            assert cell == ref_cell
            np.testing.assert_allclose(lam, ref_lam, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("graded", [False, True])
    def test_batch_with_outside_point_raises(self, graded):
        mesh = build_fitted_mesh(GEOM, 1 / 160, 1 / 320,
                                 "graded" if graded else "uniform-fine")
        pts = np.random.default_rng(16).random((50, 2)) * [GEOM.L, GEOM.H]
        pts[20] = [-0.002, 0.01]
        pts[30] = [0.01, 0.75]
        with pytest.raises(OutOfDomain, match=r"-0\.002"):
            locate_point(mesh, pts)

    def test_scan_point_in_box_but_in_no_cell(self):
        # a mesh that does not cover its bounding box: one triangle, the
        # lower-left half of the unit square
        mesh = SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                              [[0, 1, 2]], mesh_module._wall_tags(1.0), 1.0)
        assert locate_point(mesh, [[0.2, 0.3]]).cell == [0]
        with pytest.raises(OutOfDomain, match="not contained in any cell"):
            locate_point(mesh, [[0.9, 0.9]])

    def test_tolerance_band(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        locate_point(mesh, [[-1e-13, 1e-3]])  # snapped inside
        with pytest.raises(OutOfDomain):
            locate_point(mesh, [[-1e-3, 1e-3]])
        with pytest.raises(OutOfDomain):
            locate_point(mesh, [[GEOM.L + 1e-6, GEOM.H]])

    @pytest.mark.parametrize("shape", [(2,), (), (4, 3), (4, 2, 1), (0,)])
    def test_points_must_be_an_n_by_dim_array(self, shape):
        # one point (dim,) is refused like any other shape but (n, dim)
        mesh = build_global_mesh(GEOM, 1 / 160)
        with pytest.raises(InvalidConfig, match=r"\(n, 2\) array"):
            locate_point(mesh, np.full(shape, 1e-3))
        assert locate_point(mesh, np.empty((0, 2))).cell.shape == (0,)

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_index_arithmetic_matches_search(self, data):
        mesh = data.draw(st.sampled_from(_PROBE_MESHES), label="mesh")
        pts = data.draw(st.lists(_grid_probe(mesh), min_size=1, max_size=12),
                        label="points")
        loc = locate_point(mesh, np.array(pts))
        np.testing.assert_array_equal(
            loc.cell, mesh_module._locate_scan(mesh, np.array(pts))[0])
        for p, cell, lam in zip(pts, loc.cell, loc.barycentric):
            ref_cell, ref_lam = _reference_locate(mesh, p)
            assert cell == ref_cell
            np.testing.assert_array_equal(lam, ref_lam)


def _reference_locate(mesh, x):
    """Per-point structured location: every cell of the 3^d grid blocks
    around the nominal one, in ascending cell order."""
    x = np.clip(np.asarray(x, dtype=float), mesh.origin,
                mesh.origin + mesh.extents)
    s = (x - mesh.origin) / mesh.h
    axes = [sorted({min(max(int(np.floor(s[d])) + k, 0), n - 1)
                    for k in (-1, 0, 1)})
            for d, n in enumerate(mesh.ncells_axis)]
    strides = np.cumprod((1,) + mesh.ncells_axis[:-1])
    blocks = sorted(int(np.dot(idx, strides))
                    for idx in itertools.product(*axes))
    nshapes = mesh.num_shapes
    for b in blocks:
        for t in range(nshapes):
            cell = b * nshapes + t
            v0 = mesh.vertices[mesh.cells[cell, 0]]
            rest = cell_geometry(mesh)[1][t, 1:] @ (x - v0)
            lam = np.concatenate([[1.0 - rest.sum()], rest])
            if np.all(lam >= -1e-12):
                return cell, lam
    raise AssertionError(f"reference search found no cell for {x}")


def _reference_scan(mesh, x):
    """First cell, in index order, holding x: one solve per cell."""
    for cell in range(mesh.num_cells):
        pts = mesh.vertices[mesh.cells[cell]]
        rest = np.linalg.solve((pts[1:] - pts[0]).T, x - pts[0])
        lam = np.concatenate([[1.0 - rest.sum()], rest])
        if np.all(lam >= -1e-12):
            return cell, lam
    raise AssertionError(f"reference scan found no cell for {x}")


def _location_probes(mesh, rng):
    """Random points, grid vertices, points on grid lines, the box corners
    and points in the snap band just outside them."""
    lo, hi = mesh.origin, mesh.origin + mesh.extents
    dim = mesh.dim
    rand = lo + rng.random((200, dim)) * (hi - lo)
    verts = mesh.vertices[rng.integers(0, mesh.num_vertices, 60)]
    lines = verts.copy()
    axis = rng.integers(0, dim, len(lines))
    lines[np.arange(len(lines)), axis] = rand[:len(lines)][
        np.arange(len(lines)), axis]
    bits = np.array(list(itertools.product((0, 1), repeat=dim)))
    corners = np.where(bits, hi, lo)
    band = corners + np.where(bits, 5e-13, -5e-13)
    return np.vstack([rand, verts, lines, corners, band])


_PROBE_MESHES = [build(geom, 1 / 320) for geom in (GEOM, GEOM3)
                 for build in (build_global_mesh, build_local_mesh)]


@st.composite
def _grid_probe(draw, mesh):
    """A random point, a grid vertex, a point on a grid plane, or a point on
    a face or cube diagonal of a grid block, on the closed box."""
    lo, hi = mesh.origin, mesh.origin + mesh.extents
    unit = np.array(draw(st.lists(st.floats(0, 1), min_size=mesh.dim,
                                  max_size=mesh.dim)))
    corner = mesh.vertices[draw(st.integers(0, mesh.num_vertices - 1))]
    kind = draw(st.sampled_from(["random", "vertex", "plane", "face", "cube"]))
    point = lo + unit * (hi - lo)
    if kind == "vertex":
        point = corner
    elif kind == "plane":
        axis = draw(st.integers(0, mesh.dim - 1))
        point[axis] = corner[axis]
    elif kind == "face":
        axes = draw(st.permutations(range(mesh.dim)))[:2]
        point = corner.copy()
        point[axes] += unit[0] * mesh.h
    elif kind == "cube":
        point = corner + unit[0] * mesh.h
    return np.minimum(point, hi)


def _assert_conforming(mesh):
    """Every facet seen once must lie on the domain boundary (no hanging
    nodes), every interior facet exactly twice."""
    from collections import Counter
    from itertools import combinations

    count = Counter()
    for cell in mesh.cells:
        for facet in combinations(sorted(cell), mesh.dim):
            count[facet] += 1
    assert set(count.values()) <= {1, 2}
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    for facet, n in count.items():
        if n == 1:
            pts = mesh.vertices[list(facet)]
            on_wall = [np.allclose(pts[:, d], v, atol=1e-12)
                       for d in range(mesh.dim) for v in (lo[d], hi[d])]
            assert any(on_wall), f"interior facet {facet} has only one cell"


class TestFittedMesh:
    def test_uniform_fine(self):
        mesh = build_fitted_mesh(GEOM, 1 / 160, 1 / 320, "uniform-fine")
        assert mesh.num_cells == 8 * 8 * 2
        _assert_conforming(mesh)

    @pytest.mark.parametrize("ratio", [2, 4, 8, 16])
    def test_graded_closure(self, ratio):
        h_minus = 1 / (160 * ratio)
        mesh = build_fitted_mesh(GEOM, 1 / 160, h_minus, "graded")
        total = cell_volumes(mesh).sum()
        assert total == pytest.approx(GEOM.L * GEOM.H, rel=1e-13)
        _assert_conforming(mesh)
        # fine rows must cover the strip
        floor = GEOM.H - GEOM.H_minus
        for c in range(mesh.num_cells):
            pts = mesh.vertices[mesh.cells[c]]
            if pts[:, 1].min() >= floor - 1e-12:
                assert np.ptp(pts[:, 1]) == pytest.approx(h_minus, rel=1e-12)

    @pytest.mark.parametrize("H", [100.0, 1000.0])
    def test_graded_tall_box_closes(self, H):
        # 1,002 rows summed in floating point end 1.4e-12 below H = 100 (a
        # relative 1.4e-14), 10,002 rows 1.6e-10 above H = 1000: the
        # relative closure check accepts both, and the top is still tagged
        geom = GeometryConfig(L=1.0, H=H, H_minus=0.1)
        mesh = build_fitted_mesh(geom, 0.1, 0.05, "graded")
        assert cell_volumes(mesh).sum() == pytest.approx(geom.L * geom.H,
                                                         rel=1e-12)
        top = mesh.facet_tags == FacetTag.NEUMANN_TOP.value
        assert mesh.facet_measure(mesh.facet_vertices[top]).sum() == \
            pytest.approx(geom.L, rel=1e-13)

    def test_graded_cheaper_than_uniform(self):
        fine = build_fitted_mesh(GEOM, 1 / 160, 1 / 640, "uniform-fine")
        graded = build_fitted_mesh(GEOM, 1 / 160, 1 / 640, "graded")
        assert graded.num_cells < fine.num_cells

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            build_fitted_mesh(GEOM, 1 / 160, 1 / 320, "adaptive")

    def test_unknown_mode_is_a_config_error(self):
        with pytest.raises(InvalidConfig, match="adaptive"):
            build_fitted_mesh(GEOM, 1 / 160, 1 / 320, "adaptive")

    @pytest.mark.parametrize("geom,h_plus,h_minus,error,match", [
        (GEOM3, 1 / 160, 1 / 320, GlddError, "dim=2 only"),
        (GEOM, 1 / 160, 1 / 480, NonDivisibleSpacing, "power-of-two"),
        (GEOM, 1 / 40, 1 / 160, NonDivisibleSpacing, "too shallow"),
        (GeometryConfig(H=0.03), 1 / 160, 1 / 320, NonDivisibleSpacing,
         "strip offset"),
        # a box 1e-10 taller than its rows: the offset, 8e-10 fine rows past
        # a whole number, passes, and the rows end 1e-10 * H short of it
        (GeometryConfig(H=(1 / 40) * (1 + 1e-10)), 1 / 160, 1 / 320,
         NonDivisibleSpacing, "did not close")],
        ids=["dim-3", "ratio-3", "too-shallow", "offset", "closure"])
    def test_graded_rejects(self, geom, h_plus, h_minus, error, match):
        with pytest.raises(error, match=match):
            build_fitted_mesh(geom, h_plus, h_minus, "graded")

    def test_graded_matches_dict_builder(self):
        # (H, H_minus, h+, h-): both strip thicknesses and box heights,
        # h+ from 1/160 to 1/40 and h- down to 1/2560
        for H, H_minus, h_plus, h_minus in [
                (1 / 40, 1 / 160, 1 / 160, 1 / 320),
                (1 / 40, 1 / 160, 1 / 160, 1 / 2560),
                (1 / 40, 1 / 160, 1 / 80, 1 / 320),
                (3 / 80, 1 / 160, 1 / 160, 1 / 1280),
                (3 / 80, 1 / 160, 1 / 80, 1 / 2560),
                (1 / 40, 1 / 80, 1 / 160, 1 / 640),
                (1 / 40, 1 / 80, 1 / 80, 1 / 160),
                (3 / 80, 1 / 80, 1 / 160, 1 / 2560),
                (3 / 80, 1 / 80, 1 / 80, 1 / 640),
                (3 / 80, 1 / 80, 1 / 40, 1 / 80)]:
            geom = GeometryConfig(H=H, H_minus=H_minus)
            mesh = build_fitted_mesh(geom, h_plus, h_minus, "graded")
            ref = _reference_graded(geom, h_plus, h_minus)
            # the same cells, in the same order and local vertex order
            np.testing.assert_allclose(mesh.vertices[mesh.cells],
                                       ref.vertices[ref.cells],
                                       rtol=0, atol=1e-15)
            np.testing.assert_array_equal(mesh.facet_tags, ref.facet_tags)
            np.testing.assert_array_equal(mesh.facet_cells, ref.facet_cells)
            # the vertices run x fastest, then y, as on the structured grids
            np.testing.assert_array_equal(np.lexsort(mesh.vertices.T),
                                          np.arange(mesh.num_vertices))


def _reference_graded(geom, h_plus, h_minus):
    """The graded mesh placed vertex by vertex through a dict keyed by
    rounded coordinates, inside a per-cell loop; the caller validates."""
    nfine = round(geom.H_minus / h_minus)
    doublings = round(math.log2(h_plus / h_minus))
    slack_units = round((geom.H - geom.H_minus - 2 * h_plus + 2 * h_minus)
                        / h_minus)
    per = round(h_plus / h_minus)
    extra_fine = slack_units % per
    ncoarse = (slack_units - extra_fine) // per
    verts, coords, cells = {}, [], []

    def vid(x, y):
        key = (round(x / h_minus * 2), round(y / h_minus * 2))
        if key not in verts:
            verts[key] = len(coords)
            coords.append((x, y))
        return verts[key]

    def uniform_rows(y0, nrows, s):
        for r in range(nrows):
            y, yt = y0 + r * s, y0 + (r + 1) * s
            for c in range(round(geom.L / s)):
                x, xr = c * s, (c + 1) * s
                v00, v10 = vid(x, y), vid(xr, y)
                v01, v11 = vid(x, yt), vid(xr, yt)
                cells.extend([(v00, v10, v11), (v00, v11, v01)])
        return y0 + nrows * s

    def transition_row(y0, s):
        # one band of height s: bottom edges of length s, top edges s/2
        yt = y0 + s
        for c in range(round(geom.L / s)):
            x = c * s
            b0, b1 = vid(x, y0), vid(x + s, y0)
            t0, t1, t2 = vid(x, yt), vid(x + s / 2.0, yt), vid(x + s, yt)
            cells.extend([(b0, b1, t1), (b0, t1, t0), (b1, t2, t1)])
        return yt

    y = uniform_rows(0.0, ncoarse, h_plus)
    s = h_plus
    for _ in range(doublings):
        y = transition_row(y, s)
        s /= 2.0
    uniform_rows(y, extra_fine + nfine, h_minus)
    return SimplicialMesh(np.asarray(coords), np.asarray(cells),
                          mesh_module._wall_tags(geom.H), h_minus)


@pytest.mark.parametrize("geom,mode", [(GEOM, "uniform-fine"),
                                       (GEOM, "graded"),
                                       (GEOM3, "uniform-fine")])
def test_strip_cells_fill_the_strip(geom, mode):
    mesh = build_fitted_mesh(geom, 1 / 160, 1 / 320, mode)
    strip = strip_cells(mesh, geom)
    area = geom.L * (1.0 if geom.dim == 2 else geom.W)
    assert cell_volumes(mesh)[strip].sum() == pytest.approx(
        area * geom.H_minus, rel=1e-12)
    assert cell_volumes(mesh)[~strip].sum() == pytest.approx(
        area * (geom.H - geom.H_minus), rel=1e-12)


def test_geometry_owns_the_layout():
    assert GEOM.extents == (GEOM.L, GEOM.H)
    assert GEOM3.extents == (GEOM3.L, GEOM3.W, GEOM3.H)
    assert GEOM.floor == GEOM.H - GEOM.H_minus
    for geom in (GEOM, GEOM3):
        strip = build_local_mesh(geom, 1 / 320)
        np.testing.assert_array_equal(strip.origin,
                                      [0.0] * (geom.dim - 1) + [geom.floor])
        np.testing.assert_array_equal(
            strip.extents, geom.extents[:-1] + (geom.H_minus,))
        np.testing.assert_array_equal(build_global_mesh(geom, 1 / 160).extents,
                                      geom.extents)
