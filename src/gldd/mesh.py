"""Structured simplicial meshes for a layered box geometry.

The solver works on two meshes, placed by ``GeometryConfig``, the one
owner of the box extents and the strip floor: a coarse mesh of the full
box (the global domain) and a fine mesh of a thin strip at the top of the
box (the local domain).  Both are axis-aligned grids of squares or cubes,
each split into the dim! simplices that share its main diagonal, one per
axis order (Kuhn's split, the same rule in 2D and 3D).  Point location is
index arithmetic rather than search: a point's grid block is the lowest
one holding it, and its simplex is the first axis order along which its
in-block coordinates do not rise.  ``locate_point`` takes an (n, dim)
array of points and locates it in one vectorized call.  A third kind of
mesh, used only by the single-domain reference solver, grades from the
strip resolution down to the coarse one through conforming transition
rows, numbered like the grids and built by the same index arithmetic,
one row at a time.

Construction and geometry work on all cells or facets in stacked passes,
with no per-cell loop: the cell array, the boundary facets and their
tags, ``cell_geometry`` (|det J| and barycentric gradients, the single
source of cell geometry for assembly and for point location, computed
once per mesh and per cell shape: a grid's dim! shapes repeat in every
block, a general mesh has one per cell), ``facet_measure`` and
``facet_normal``.  Faces and edges are matched through ``face_keys``,
one int64 per sorted vertex tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .errors import (POSITIVE, GlddError, InvalidConfig, NonDivisibleSpacing,
                     OutOfDomain, check_choice, check_number)

# Containment slack for barycentric coordinates in point location.
_BARY_TOL = 1e-12


class FacetTag(Enum):
    """Boundary facet classification."""

    DIRICHLET_OUTER = 1   # outer walls held at the ambient temperature
    NEUMANN_TOP = 2       # top wall receiving the surface flux
    INTERFACE_GAMMA = 3   # bottom of the strip, where the two meshes couple


DIMS = (2, 3)


@dataclass(frozen=True)
class GeometryConfig:
    """Box extents and strip thickness, and the one owner of the layout.

    ``L`` is the x extent, ``H`` the vertical extent (y in 2D, z in 3D),
    ``W`` the y extent in 3D (ignored in 2D).  The strip occupies the top
    ``H_minus`` of the box and spans the full horizontal cross-section.
    """

    dim: int = 2
    L: float = 1.0 / 40.0
    H: float = 1.0 / 40.0
    W: float = 1.0 / 40.0
    H_minus: float = 1.0 / 160.0

    def __post_init__(self):
        check_choice("dim", self.dim, DIMS)
        for name in ("L", "H", "W", "H_minus"):
            check_number(name, getattr(self, name), POSITIVE)
        if self.H_minus >= self.H:
            raise InvalidConfig(
                "strip thickness must be smaller than the box height")

    @property
    def extents(self):
        """The box extent on each axis, the vertical one last."""
        return (self.L, self.H) if self.dim == 2 else (self.L, self.W, self.H)

    @property
    def floor(self):
        """Height of the strip floor, the interface gamma."""
        return self.H - self.H_minus


class PointLocation(NamedTuple):
    cell: np.ndarray
    barycentric: np.ndarray


def _block_simplices(dim):
    """Kuhn split of the unit block: one positively oriented simplex per
    axis order p, in permutations order, running from the lower corner one
    step along p[0], then p[1], ..., so it holds the block points whose
    in-block coordinates do not rise along p.  A step along axis a adds 2**a
    to the _block_corners index; an odd p swaps the last two vertices."""
    shapes = []
    for perm in permutations(range(dim)):
        ids = list(np.cumsum([0] + [2 ** a for a in perm]))
        if np.linalg.det(np.eye(dim)[list(perm)]) < 0:
            ids[-2], ids[-1] = ids[-1], ids[-2]
        shapes.append(ids)
    return np.array(shapes)


_BLOCK_SIMPLICES = {dim: _block_simplices(dim) for dim in DIMS}

# a graded-mesh row's cells on the corners (b, b + 1, t, t + 1, t + 2) of
# a bottom edge b with k top edges are the first k + 1: StructuredMesh's
# split of the square (b, t + 1), then (b + 1, t + 2, t + 1)
_ROW_SPLIT = np.vstack([_BLOCK_SIMPLICES[2], [[1, 4, 3]]])


class SimplicialMesh:
    """Simplicial mesh given by explicit vertex and cell lists.

    ``tag_rule`` maps the vertex coordinates of all boundary facets at once,
    an (nf, dim, dim) array, to their FacetTag values (nf,).

    Attributes
    ----------
    vertices : (nv, dim) float array
    cells : (nc, dim+1) int array, positively oriented
    facet_vertices : (nf, dim) sorted vertex ids of the boundary facets,
        ordered by owner cell, then by the local vertex each one omits
    facet_tags, facet_cells : (nf,) FacetTag values and owner cells
    h : nominal cell size
    """

    def __init__(self, vertices, cells, tag_rule, h):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.dim = self.vertices.shape[1]
        self.h = float(h)
        self._build_boundary(tag_rule)
        for arr in (self.vertices, self.cells, self.facet_vertices,
                    self.facet_tags, self.facet_cells):
            arr.setflags(write=False)

    def _build_boundary(self, tag_rule):
        # A facet is a boundary facet iff it is a face of exactly one cell.
        # Faces are listed by cell, then by the local vertex they omit.
        d = self.dim
        omit = [[v for v in range(d + 1) if v != loc] for loc in range(d + 1)]
        faces = np.sort(self.cells[:, omit], axis=2).reshape(-1, d)
        _, inverse, counts = np.unique(face_keys(faces, self.num_vertices),
                                       return_inverse=True, return_counts=True)
        once = counts[inverse] == 1
        self.facet_vertices = faces[once]
        self.facet_cells = np.flatnonzero(once) // (d + 1)
        self.facet_tags = np.asarray(
            tag_rule(self.vertices[self.facet_vertices]), dtype=np.int64)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def num_shapes(self):
        """Cell c has shape c % num_shapes; a general mesh repeats none."""
        return self.num_cells

    def facet_measure(self, facets):
        """Measure of each facet in an (nf, dim) array."""
        facets = np.asarray(facets)
        pts = self.vertices[facets]
        e = pts[..., 1:, :] - pts[..., :1, :]
        if self.dim == 2:
            measure = np.linalg.norm(e[..., 0, :], axis=-1)
        else:
            measure = 0.5 * np.linalg.norm(
                np.cross(e[..., 0, :], e[..., 1, :]), axis=-1)
        return measure

    def facet_normal(self, facets, owner_cells):
        """Unit normals of boundary facets (nf, dim) pointing out of their
        owner cells (nf,)."""
        pts = self.vertices[facets]
        e = pts[:, 1:] - pts[:, :1]
        if self.dim == 2:
            n = np.stack([e[:, 0, 1], -e[:, 0, 0]], axis=1)
        else:
            n = np.cross(e[:, 0], e[:, 1])
        n = n / np.linalg.norm(n, axis=1, keepdims=True)
        # the owner's vertex off the facet: cell and facet differ by it alone
        opposite = self.cells[owner_cells].sum(axis=1) - facets.sum(axis=1)
        outward = pts.mean(axis=1) - self.vertices[opposite]
        return np.where(((n * outward).sum(axis=1) < 0)[:, None], -n, n)


def face_keys(ids, nv):
    """One int64 key per row of sorted vertex ids (..., k) below nv:
    a * nv + b for k = 2, (a * nv + b) * nv + c for k = 3."""
    if int(nv) ** ids.shape[-1] > np.iinfo(np.int64).max:
        raise GlddError(f"{ids.shape[-1]}-vertex keys over {nv} vertices "
                        "overflow int64")
    keys = ids[..., 0].astype(np.int64)
    for col in range(1, ids.shape[-1]):
        keys = keys * nv + ids[..., col]
    return keys


def memoised(owner, name, key, build):
    """build(), kept on owner as attribute ``name`` and built again only
    when asked for with a key, a tuple of its other inputs, that differs
    by value: meshes and dof maps compare by identity, frozen configs and
    numbers by value, and the tuple comparison tests identity first.

    What is kept depends only on owner and key objects that are never
    changed in place, so it lives on owner, the dof map (or mesh) it
    belongs to, and dies with it.
    """
    held = vars(owner).get(name)
    if held is None or held[0] != key:
        held = (key, build())
        setattr(owner, name, held)
    return held[1]


def cell_geometry(mesh: SimplicialMesh):
    """|det J| and barycentric gradients per cell shape, in one stacked pass.

    Returns abs_det (ns,) and bary_grads (ns, dim+1, dim) of the first
    ns = mesh.num_shapes cells, whose row a is the gradient of lambda_a,
    and shape (nc,), the shape c % ns of each cell c, which indexes them.
    abs_det is dim! times the cell volume.  The mesh arrays are read-only,
    so the result is computed once per mesh and returned read-only.
    """
    return memoised(mesh, "_cell_geometry", (), lambda: _cell_geometry(mesh))


def _cell_geometry(mesh):
    pts = mesh.vertices[mesh.cells[:mesh.num_shapes]]
    J = np.swapaxes(pts[:, 1:] - pts[:, :1], 1, 2)
    Jinv = np.linalg.inv(J)
    grads = np.concatenate([-Jinv.sum(axis=1, keepdims=True), Jinv], axis=1)
    out = (np.abs(np.linalg.det(J)), grads,
           np.arange(mesh.num_cells) % mesh.num_shapes)
    for arr in out:
        arr.setflags(write=False)
    return out


class StructuredMesh(SimplicialMesh):
    """Uniform grid of squares/cubes split into simplices, O(1) point location."""

    def __init__(self, origin, extents, h, tag_rule):
        origin = np.asarray(origin, dtype=float)
        dim = len(origin)
        self.origin = origin
        self.ncells_axis = tuple(_divisions(e, h) for e in np.asarray(extents))
        # actual extents follow the grid so location arithmetic stays exact
        self.extents = h * np.asarray(self.ncells_axis, dtype=float)
        vertices = self._make_vertices(dim, h)
        cells = self._make_cells(dim)
        super().__init__(vertices, cells, tag_rule, h)

    def _make_vertices(self, dim, h):
        axes = [self.origin[d] + h * np.arange(self.ncells_axis[d] + 1)
                for d in range(dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        # vertex index runs x fastest, then y, then z
        return np.stack([g.T.ravel() for g in grids], axis=1)

    def _make_cells(self, dim):
        # the vertex index of every block's lower corner, x fastest, plus the
        # offsets of the block's corners, in _block_corners order
        n = np.asarray(self.ncells_axis)
        vertex_grid = np.arange(np.prod(n + 1)).reshape(tuple(n[::-1] + 1))
        base = vertex_grid[tuple(slice(k) for k in n[::-1])].ravel()
        offsets = _block_corners(dim).astype(np.int64) @ np.cumprod(
            np.concatenate([[1], n[:-1] + 1]))
        return (base[:, None, None]
                + offsets[_BLOCK_SIMPLICES[dim]]).reshape(-1, dim + 1)

    @property
    def num_shapes(self):
        """dim!: the simplices of a block, the same in every block."""
        return len(_BLOCK_SIMPLICES[self.dim])


def _block_corners(dim):
    # corner i of the unit block has bit a of i as its coordinate on axis a
    return ((np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1).astype(float)


def _divisions(extent, h):
    check_number("spacing", h, POSITIVE, NonDivisibleSpacing)
    # in Python floats an overflow is inf, not a numpy warning
    n = float(extent) / float(h)
    if not (np.isfinite(n) and abs(n - round(n)) <= 1e-9):
        raise NonDivisibleSpacing(
            f"extent {extent} is not a finite multiple of spacing {h}")
    n = int(round(n))
    if n < 1:
        raise NonDivisibleSpacing(f"spacing {h} too coarse for extent {extent}")
    return n


# ----------------------------------------------------------------------
# public constructors
# ----------------------------------------------------------------------

def _wall_tags(top, gamma=None):
    """Tag rule for facet points (nf, dim, dim) by height: NEUMANN_TOP at
    ``top``, INTERFACE_GAMMA at ``gamma``, DIRICHLET_OUTER elsewhere, to
    1e-10 relative to the box height ``top``."""
    def tag(facet_pts):
        def at(level):
            return np.all(np.abs(facet_pts[..., -1] - level) < 1e-10 * top,
                          axis=-1)

        tags = np.full(len(facet_pts), FacetTag.DIRICHLET_OUTER.value)
        if gamma is not None:
            tags[at(gamma)] = FacetTag.INTERFACE_GAMMA.value
        tags[at(top)] = FacetTag.NEUMANN_TOP.value
        return tags
    return tag


def build_global_mesh(geom: GeometryConfig, h_plus: float) -> StructuredMesh:
    """Mesh of the full box; top facets Neumann, every other wall Dirichlet."""
    return StructuredMesh(np.zeros(geom.dim), geom.extents, h_plus,
                          _wall_tags(geom.H))


def build_local_mesh(geom: GeometryConfig, h_minus: float) -> StructuredMesh:
    """Mesh of the top strip.

    The strip's top keeps the Neumann tag, its bottom is the coupling
    interface, and the lateral sides (which lie on the outer walls) stay
    Dirichlet.
    """
    return StructuredMesh(np.append(np.zeros(geom.dim - 1), geom.floor),
                          geom.extents[:-1] + (geom.H_minus,), h_minus,
                          _wall_tags(geom.H, gamma=geom.floor))


def build_fitted_mesh(geom: GeometryConfig, h_plus: float, h_minus: float,
                      mode: str = "uniform-fine") -> SimplicialMesh:
    """Single mesh of the whole box that resolves the strip.

    'uniform-fine' uses the strip spacing everywhere.  'graded' (2D only)
    keeps the strip spacing in and just below the strip and coarsens toward
    the bottom through conforming 2:1 transition bands, ending at the box
    spacing.
    """
    check_choice("refinement mode", mode, ("uniform-fine", "graded"))
    if mode == "uniform-fine":
        return build_global_mesh(geom, h_minus)
    if geom.dim != 2:
        raise GlddError("graded refinement is implemented for dim=2 only")
    return _graded_mesh_2d(geom, h_plus, h_minus)


def _graded_mesh_2d(geom, h_plus, h_minus):
    nfine = _divisions(geom.H_minus, h_minus)
    _divisions(geom.L, h_plus)
    ratio = h_plus / h_minus
    if abs(ratio - 2 ** round(np.log2(ratio))) > 1e-9 or ratio < 2:
        raise NonDivisibleSpacing(
            "graded mode needs a power-of-two spacing ratio of at least 2")
    doublings = int(round(np.log2(ratio)))
    trans_height = 2.0 * h_plus - 2.0 * h_minus
    slack = geom.floor - trans_height
    if slack < -1e-12:
        raise NonDivisibleSpacing(
            "box too shallow for the transition bands below the strip")
    # extra fine rows so the remaining depth is a whole number of coarse rows
    per = int(round(h_plus / h_minus))
    slack_units = int(round(slack / h_minus))
    if abs(slack / h_minus - slack_units) > 1e-9:
        raise NonDivisibleSpacing("strip offset is not a multiple of the fine spacing")
    extra_fine = slack_units % per
    ncoarse = (slack_units - extra_fine) // per

    # the horizontal grid lines, bottom up, by spacing: the coarse rows,
    # one halving per transition row, then the fine rows
    spacing = np.concatenate([np.full(ncoarse + 1, h_plus),
                              h_plus / 2.0 ** np.arange(1, doublings + 1),
                              np.full(extra_fine + nfine, h_minus)])
    heights = np.concatenate([[0.0], np.cumsum(spacing[:-1])])
    if abs(heights[-1] - geom.H) > 1e-12 * geom.H:
        raise NonDivisibleSpacing("graded construction did not close the box")
    # vertices x fastest, then y, as in StructuredMesh
    ncols = np.rint(geom.L / spacing).astype(np.int64)
    first = np.concatenate([[0], np.cumsum(ncols + 1)])
    line = np.repeat(np.arange(len(spacing)), ncols + 1)
    vertices = np.stack([(np.arange(first[-1]) - first[line]) * spacing[line],
                         heights[line]], axis=1)
    cells = []
    for k, n in enumerate(ncols[:-1]):
        step = ncols[k + 1] // n
        b, t = first[k] + np.arange(n), first[k + 1] + step * np.arange(n)
        corners = np.stack([b, b + 1, t, t + 1, t + 2], axis=1)
        cells.append(corners[:, _ROW_SPLIT[:step + 1]].reshape(-1, 3))
    return SimplicialMesh(vertices, np.concatenate(cells), _wall_tags(geom.H),
                          h_minus)


# ----------------------------------------------------------------------
# point location
# ----------------------------------------------------------------------

def locate_point(mesh: SimplicialMesh, x) -> PointLocation:
    """Find the cell containing each point and its barycentric coordinates.

    x is an array of points (n, dim), giving PointLocation(cells (n,),
    barycentric (n, dim+1)); anything else raises InvalidConfig.  When a
    point sits on a shared facet the cell with the lowest index wins.
    Raises OutOfDomain, naming the first offending point, for points
    outside the box.

    Structured meshes locate by index arithmetic alone.  With s the
    point's offset from the origin in units of h, its block is
    ceil(s - slack) - 1 on each axis, clipped to the grid, so a point on a
    grid plane, or within the barycentric slack above one, goes to the
    block below.  Its cell in the block is the first axis order, in
    itertools.permutations order, along which the in-block coordinates
    s - block do not rise by more than the slack.  Both choices give the
    lowest cell that holds the point.  That axis order is also the cell's
    shape, and the barycentrics follow from the shape's inverse reference
    map in ``cell_geometry``, applied to the point's offset from the
    cell's first vertex.  A point within rounding of a slack edge, where s
    and the barycentrics may disagree, is scanned instead.  Other meshes
    are scanned cell by cell, each cell with its shape's map.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != mesh.dim:
        raise InvalidConfig(f"points must be an (n, {mesh.dim}) array, got "
                            f"shape {pts.shape}")
    locate = _locate_structured if hasattr(mesh, "origin") else _locate_scan
    return PointLocation(*locate(mesh, pts))


def _locate_structured(mesh, pts):
    rel = pts - mesh.origin
    # written so that NaN coordinates count as outside
    inside_box = ((rel >= -1e-12)
                  & (rel <= mesh.extents + 1e-12)).all(axis=1)
    if not inside_box.all():
        bad = pts[np.argmin(inside_box)]
        raise OutOfDomain(f"point {tuple(bad)} lies outside the mesh box")
    # points within the box tolerance are snapped onto the closed box
    x = np.clip(pts, mesh.origin, mesh.origin + mesh.extents)
    # block and axis order as in locate_point's docstring; sorting the
    # in-block coordinates t gives an order, so one always exists
    s = (x - mesh.origin) / mesh.h
    lift = s - _BARY_TOL
    block = np.clip(np.ceil(lift) - 1, 0, np.asarray(mesh.ncells_axis) - 1)
    t = s - block
    rises = t[:, None, :] - t[:, :, None] - _BARY_TOL
    orders = np.array(list(permutations(range(mesh.dim))))
    shape = (rises[:, orders[:, :-1], orders[:, 1:]] > 0).any(axis=2).argmin(
        axis=1)
    strides = np.cumprod((1,) + mesh.ncells_axis[:-1])
    cells = (block.astype(np.int64) @ strides) * mesh.num_shapes + shape
    dx = x - mesh.vertices[mesh.cells[cells, 0]]
    lam_rest = (cell_geometry(mesh)[1][shape, 1:] @ dx[..., None])[..., 0]
    lam = np.concatenate([1.0 - lam_rest.sum(axis=1, keepdims=True), lam_rest],
                         axis=1)
    # s and the barycentrics round apart by a few ulps of s, so a point that
    # close to a slack edge takes the lowest cell the barycentrics admit
    band = 16 * np.finfo(float).eps * (1 + max(mesh.ncells_axis))
    edge = ((np.abs(lift - np.round(lift)) < band).any(axis=1)
            | (np.abs(rises) < band).any(axis=(1, 2)))
    if edge.any():
        cells[edge], lam[edge] = _locate_scan(mesh, x[edge])
    return cells, lam


def _locate_scan(mesh, pts):
    # one point at a time, each tested against every cell at once
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    _, grads, shape = cell_geometry(mesh)
    inv = grads[shape, 1:]
    v0 = mesh.vertices[mesh.cells[:, 0]]
    cells = np.empty(len(pts), dtype=np.int64)
    lam = np.empty((len(pts), mesh.dim + 1))
    for i, p in enumerate(pts):
        if not ((p >= lo - 1e-12) & (p <= hi + 1e-12)).all():
            raise OutOfDomain(f"point {tuple(p)} lies outside the mesh box")
        x = np.clip(p, lo, hi)
        rest = (inv @ (x - v0)[:, :, None])[:, :, 0]
        every = np.concatenate([1.0 - rest.sum(axis=1, keepdims=True), rest],
                               axis=1)
        inside = (every >= -_BARY_TOL).all(axis=1)
        if not inside.any():
            raise OutOfDomain(f"point {tuple(x)} not contained in any cell")
        cells[i] = inside.argmax()
        lam[i] = every[cells[i]]
    return cells, lam


def strip_cells(mesh: SimplicialMesh, geom: GeometryConfig):
    """Mask of the cells whose centroid lies strictly above the strip floor
    geom.floor: the cells that take the strip coefficient."""
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    return centroids[:, -1] > geom.floor


def interface_facets(mesh: SimplicialMesh):
    """Coupling facets of the strip with their outward unit normals."""
    gamma = mesh.facet_tags == FacetTag.INTERFACE_GAMMA.value
    facets = mesh.facet_vertices[gamma]
    normals = mesh.facet_normal(facets, mesh.facet_cells[gamma])
    return [(tuple(f), n) for f, n in zip(facets, normals)]
