"""Mesh construction, tagging, measures and point location."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gldd.mesh as mesh_module
from gldd.errors import GlddError, NonDivisibleSpacing, OutOfDomain
from gldd.mesh import (FacetTag, GeometryConfig, build_fitted_mesh,
                       build_global_mesh, build_local_mesh, cell_geometry,
                       dump_mesh, face_keys, interface_facets, locate_point,
                       strip_cells)

GEOM = GeometryConfig()
GEOM3 = GeometryConfig(dim=3)


def cell_volumes(mesh):
    return cell_geometry(mesh)[0] / math.factorial(mesh.dim)


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
        assert len(mesh.boundary_facets) == 16

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
        keys = [tuple(sorted(f)) for f, _ in mesh.boundary_facets]
        assert len(keys) == len(set(keys))

    def test_non_divisible_spacing(self):
        with pytest.raises(NonDivisibleSpacing):
            build_global_mesh(GEOM, 1 / 150)


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
        mesh = GEOMETRY_MESHES[name]()
        adet, grads = cell_geometry(mesh)
        assert adet.shape == (mesh.num_cells,)
        assert grads.shape == (mesh.num_cells, mesh.dim + 1, mesh.dim)
        for c in range(mesh.num_cells):
            pts = mesh.vertices[mesh.cells[c]]
            J = (pts[1:] - pts[0]).T
            Jinv = np.linalg.inv(J)
            assert adet[c] == abs(np.linalg.det(J))
            np.testing.assert_array_equal(grads[c, 1:], Jinv)
            np.testing.assert_array_equal(grads[c, 0], -Jinv.sum(axis=0))

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
            assert mesh.facet_measure(tuple(f)) == m


def test_face_keys():
    ids = np.array([[0, 1, 2], [2, 3, 4]])
    np.testing.assert_array_equal(face_keys(ids, 5), [7, 69])
    np.testing.assert_array_equal(face_keys(ids[:, :2], 5), [1, 13])
    # (2**21 - 1)**3 fits in int64, (2**21)**3 = 2**63 does not
    assert face_keys(ids, 2 ** 21 - 1).dtype == np.int64
    with pytest.raises(GlddError, match="overflow"):
        face_keys(ids, 2 ** 21)


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


class TestLocatePoint:
    def test_roundtrip_2d(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        rng = np.random.default_rng(11)
        pts = rng.random((1000, 2)) * [GEOM.L, GEOM.H]
        for p in pts:
            loc = locate_point(mesh, p)
            lam = np.asarray(loc.barycentric)
            assert lam.min() >= -1e-12
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)
            rec = mesh.vertices[mesh.cells[loc.cell]].T @ lam
            np.testing.assert_allclose(rec, p, atol=1e-12)

    def test_roundtrip_3d(self):
        mesh = build_global_mesh(GEOM3, 1 / 160)
        rng = np.random.default_rng(12)
        pts = rng.random((200, 3)) * [GEOM3.L, GEOM3.W, GEOM3.H]
        for p in pts:
            loc = locate_point(mesh, p)
            rec = mesh.vertices[mesh.cells[loc.cell]].T @ np.asarray(loc.barycentric)
            np.testing.assert_allclose(rec, p, atol=1e-12)

    def test_shared_edge_lowest_cell_wins(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        h = 1 / 160
        # diagonal of the first grid square is shared by cells 0 and 1
        loc = locate_point(mesh, [0.5 * h, 0.5 * h])
        assert loc.cell == 0
        # vertex shared by many cells
        loc = locate_point(mesh, [h, h])
        assert loc.cell == 0

    def test_boundary_points(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        for p in ([0.0, 0.0], [GEOM.L, GEOM.H], [GEOM.L / 3, 0.0]):
            loc = locate_point(mesh, p)
            assert np.asarray(loc.barycentric).min() >= -1e-12

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
            one = locate_point(mesh, p)
            ref_cell, ref_lam = _reference_locate(mesh, p)
            assert one.cell == cell == ref_cell
            np.testing.assert_allclose(lam, one.barycentric, rtol=0,
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

    def test_batch_on_graded_mesh_scans(self):
        mesh = build_fitted_mesh(GEOM, 1 / 160, 1 / 640, "graded")
        rng = np.random.default_rng(15)
        verts = mesh.vertices[rng.integers(0, mesh.num_vertices, 20)]
        pts = np.vstack([rng.random((100, 2)) * [GEOM.L, GEOM.H], verts])
        batch = locate_point(mesh, pts)
        for p, cell, lam in zip(pts, batch.cell, batch.barycentric):
            one = locate_point(mesh, p)
            assert one.cell == cell
            np.testing.assert_allclose(lam, one.barycentric, rtol=0,
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

    def test_tolerance_band(self):
        mesh = build_global_mesh(GEOM, 1 / 160)
        locate_point(mesh, [-1e-13, 1e-3])  # snapped inside
        with pytest.raises(OutOfDomain):
            locate_point(mesh, [-1e-3, 1e-3])
        with pytest.raises(OutOfDomain):
            locate_point(mesh, [GEOM.L + 1e-6, GEOM.H])

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
    nshapes = mesh.cells_per_block()
    for b in blocks:
        for t in range(nshapes):
            cell = b * nshapes + t
            v0 = mesh.vertices[mesh.cells[cell, 0]]
            rest = cell_geometry(mesh)[1][cell, 1:] @ (x - v0)
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

    def test_graded_cheaper_than_uniform(self):
        fine = build_fitted_mesh(GEOM, 1 / 160, 1 / 640, "uniform-fine")
        graded = build_fitted_mesh(GEOM, 1 / 160, 1 / 640, "graded")
        assert graded.num_cells < fine.num_cells

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            build_fitted_mesh(GEOM, 1 / 160, 1 / 320, "adaptive")


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


def test_dump_mesh(tmp_path):
    mesh = build_local_mesh(GEOM, 1 / 320)
    path = tmp_path / "strip.txt"
    dump_mesh(mesh, path)
    text = path.read_text().splitlines()
    assert text[0] == "dim 2"
    assert any(line.startswith("vertices 27") for line in text)
    assert any("INTERFACE_GAMMA" in line for line in text)
