"""Lagrange finite elements of degree 1 and 2 on simplicial meshes.

Cell terms are computed for all cells at once from the per-shape
geometry of ``mesh.cell_geometry``, gathered by cell shape (one unit
stiffness per shape, one source call on every quadrature point for the
load), and facet terms for all facets at once, from one
``_facet_terms``.  The top flux visits only the top facets within the
flux's ``support`` when it has one (``laser``, the default flux of
``coupling.ProblemData``, does; a user callable without one visits every
top facet), cut into ceil(w / q_panel) pieces per axis, w the widest
visited facet's diameter.  A 3D flux with ``factors``, one callable per
wall axis (the laser has them), on top facets that are all right triangles
with legs along x and y, is integrated by one-dimensional moments of its
factors (``_flux_moments``): 4 Gauss points on each panel, 2,136 factor
values for a box facet at h = 1/160 and the default panel, where the
composite rule takes 47,526 flux points at m = 1.  Every other flux takes
the composite rule, which calls it once per block of at most
``_FLUX_CHUNK`` points, whole facets or whole pieces of one facet, and
keeps its trace basis beside the cached rule.  Each facet's sum is one
product over its whole rule, however its points were blocked.  A
``ScaledLoad`` (Picard's, whose scale is not separable) takes the
composite rule, and keeps both quadratures with the source values and
footprint points, and the flux values and nonzero points of each chunk
(whole facets, or one facet), so a load scaled again and again (a Picard
step's) costs one scale call and one stacked product per kept array.
Dof lookup is batched too: ``DofMap`` numbers P2 edges with one
``np.unique`` and ``facet_dofs`` looks up a whole facet array in its sorted
edge table.  Matrix entries are laid out as COO triplets in ascending cell
(or facet, or quadrature point) order; a ``_CsrPattern`` finds their CSR
layout once, by one stable sort of the keys row * n_cols + col, and sums
weighted unit values into it with one bincount, each entry in ascending
owner order, independent of scipy; ``_on_layout`` makes every matrix on a
kept layout.  The stiffness keeps its unit cell matrices and pattern on
the dof map: a new coefficient costs one scaled bincount.  Matrices are
CSR, vectors plain numpy arrays.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (FINITE, POSITIVE, ForeignFacet, IndexOutOfRange,
                     InvalidConfig, NonpositiveCoefficient, UnsupportedDegree,
                     check_choice, check_entries)
from .mesh import (FacetTag, StructuredMesh, cell_geometry, face_keys,
                   locate_point, memoised)

# ======================================================================
# quadrature
# ======================================================================

@dataclass(frozen=True)
class QuadratureRule:
    """Points in barycentric coordinates, weights summing to the
    reference-simplex measure, and the polynomial degree integrated exactly."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


def _segment_rule(degree):
    if degree > 7:
        raise UnsupportedDegree(f"no segment rule of degree {degree}")
    if degree <= 3:
        a = 0.5 / np.sqrt(3.0)
        s = np.array([0.5 - a, 0.5 + a])
        w = np.array([0.5, 0.5])
        deg = 3
    elif degree <= 5:
        b = 0.5 * np.sqrt(3.0 / 5.0)
        s = np.array([0.5 - b, 0.5, 0.5 + b])
        w = np.array([5.0, 8.0, 5.0]) / 18.0
        deg = 5
    else:
        # Gauss-Legendre with 4 points: the rule of the flux moments
        r = 2.0 / 7.0 * np.sqrt(6.0 / 5.0)
        a, b = 0.5 * np.sqrt(3.0 / 7.0 + r), 0.5 * np.sqrt(3.0 / 7.0 - r)
        s = np.array([0.5 - a, 0.5 - b, 0.5 + b, 0.5 + a])
        c = np.sqrt(30.0)
        w = np.array([18.0 - c, 18.0 + c, 18.0 + c, 18.0 - c]) / 72.0
        deg = 7
    pts = np.stack([1.0 - s, s], axis=1)
    return QuadratureRule(pts, w, deg)


def _triangle_rule(degree):
    if degree > 5:
        raise UnsupportedDegree(f"no triangle rule of degree {degree}")
    if degree <= 2:
        pts = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        w = np.full(3, 1.0 / 3.0)
        deg = 2
    elif degree <= 4:
        g1, g2 = 0.445948490915965, 0.091576213509771
        w1, w2 = 0.223381589678011, 0.109951743655322
        pts, w = _symmetric_points_tri([(g1, w1), (g2, w2)])
        deg = 4
    else:
        g1, g2 = 0.470142064105115, 0.101286507323456
        w1, w2 = 0.132394152788506, 0.125939180544827
        pts, w = _symmetric_points_tri([(g1, w1), (g2, w2)])
        pts = np.vstack([[np.full(3, 1.0 / 3.0)], pts])
        w = np.concatenate([[0.225], w])
        deg = 5
    return QuadratureRule(pts, w / 2.0, deg)


def _symmetric_points_tri(groups):
    pts, w = [], []
    for g, wg in groups:
        a = 1.0 - 2.0 * g
        for p in ((a, g, g), (g, a, g), (g, g, a)):
            pts.append(p)
            w.append(wg)
    return np.array(pts), np.array(w)


def _tet_rule(degree):
    if degree > 5:
        raise UnsupportedDegree(f"no tetrahedron rule of degree {degree}")
    if degree <= 2:
        a = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
        b = (5.0 - np.sqrt(5.0)) / 20.0
        pts = np.full((4, 4), b)
        np.fill_diagonal(pts, a)
        w = np.full(4, 0.25)
        deg = 2
    else:
        # 14-point rule, positive weights, exact to degree 5
        a1, b1, w1 = 0.7217942490673264, 0.0927352503108912, 0.0734930431163619
        a2, b2, w2 = 0.0673422422100983, 0.3108859192633005, 0.1126879257180162
        c, d, w3 = 0.4544962958743503, 0.0455037041256497, 0.0425460207770812
        pts, w = [], []
        for a, b, wg in ((a1, b1, w1), (a2, b2, w2)):
            for i in range(4):
                p = [b] * 4
                p[i] = a
                pts.append(p)
                w.append(wg)
        # the six (c, c, d, d) permutations, two per axis pairing
        for p in ((c, c, d, d), (d, d, c, c), (c, d, c, d), (d, c, d, c),
                  (c, d, d, c), (d, c, c, d)):
            pts.append(p)
            w.append(w3)
        pts, w = np.array(pts), np.array(w)
        deg = 5
    return QuadratureRule(pts, w / 6.0, deg)


def volume_rule(dim, m) -> QuadratureRule:
    """Cell rule exact at least to degree 2m."""
    return _triangle_rule(2 * m) if dim == 2 else _tet_rule(2 * m)


def facet_rule(dim, m) -> QuadratureRule:
    """Boundary-facet rule exact at least to degree 2m+1."""
    return _segment_rule(2 * m + 1) if dim == 2 else _triangle_rule(2 * m + 1)


# ======================================================================
# dof maps
# ======================================================================

DEGREES = (1, 2)


class DofMap:
    """Mapping from cells to global dof indices for P1/P2 elements.

    Dofs are vertices first, then (for degree 2) one dof per edge, numbered
    in order of first appearance over cells in ascending index with local
    edges in lexicographic vertex order.  Edges are found through a sorted
    table of keys a * nv + b, a < b their vertex ids.
    """

    def __init__(self, mesh: StructuredMesh, m: int):
        check_choice("m", m, DEGREES, UnsupportedDegree)
        self.mesh = mesh
        self.m = m
        self.cell_dofs = mesh.cells.copy()
        self.dof_coords = mesh.vertices.copy()
        if m == 2:
            nv = mesh.num_vertices
            keys = _edge_keys(mesh.cells, mesh.dim, nv)
            self._edge_keys, first, inverse = np.unique(
                keys.ravel(), return_index=True, return_inverse=True)
            order = np.argsort(first)
            self._edge_dofs = np.empty_like(order)
            self._edge_dofs[order] = nv + np.arange(len(order))
            self.cell_dofs = np.hstack(
                [mesh.cells, self._edge_dofs[inverse].reshape(keys.shape)])
            a, b = np.divmod(self._edge_keys[order], nv)
            self.dof_coords = np.vstack(
                [mesh.vertices, 0.5 * (mesh.vertices[a] + mesh.vertices[b])])
        self.n_dofs = len(self.dof_coords)
        self.cell_dofs.setflags(write=False)
        self.dof_coords.setflags(write=False)

    def check_mesh(self, name, mesh):
        """The rule of a mesh passed beside this dof map: its own mesh, by
        identity.  Raises InvalidConfig naming the argument."""
        if mesh is not self.mesh:
            raise InvalidConfig(f"{name} must be the mesh of its dof map")

    def facet_dofs(self, facets):
        """Dofs supported on one facet (k,) or on each facet of an (nf, k)
        array: its vertices, then its edge dofs in local edge order.

        Raises ForeignFacet when a facet vertex is not a mesh vertex or a
        facet edge is not a mesh edge.
        """
        facets = np.asarray(facets, dtype=np.int64)
        nv = self.mesh.num_vertices
        rows = facets.reshape(-1, facets.shape[-1])
        # a vertex id outside [0, nv) could alias the key of another edge
        outside = ((rows < 0) | (rows >= nv)).any(axis=1)
        if outside.any():
            raise ForeignFacet(
                f"facet {tuple(rows[outside.argmax()].tolist())} has a vertex "
                f"outside [0, {nv})")
        if self.m == 1:
            return facets.copy()
        keys = _edge_keys(facets, facets.shape[-1] - 1, nv)
        pos = np.minimum(np.searchsorted(self._edge_keys, keys),
                         len(self._edge_keys) - 1)
        foreign = (self._edge_keys[pos] != keys).reshape(
            -1, keys.shape[-1]).any(axis=1)
        if foreign.any():
            raise ForeignFacet(
                f"facet {tuple(rows[foreign.argmax()].tolist())} has an edge "
                "that is not a mesh edge")
        return np.concatenate([facets, self._edge_dofs[pos]], axis=-1)


def _local_edges(d):
    """Vertex pairs of a d-simplex in lexicographic order."""
    return list(itertools.combinations(range(d + 1), 2))


def _edge_keys(simplices, d, nv):
    """Keys a * nv + b (a < b) of the local edges of d-simplices (..., d+1)."""
    return face_keys(np.sort(simplices[..., _local_edges(d)], axis=-1), nv)


def build_dofmap(mesh: StructuredMesh, m: int) -> DofMap:
    return DofMap(mesh, m)


# ======================================================================
# shape functions (in barycentric coordinates)
# ======================================================================

def shape_values(dim, m, lam):
    """Values of all cell shape functions at barycentric points lam (nq, dim+1)."""
    if m == 1:
        return lam.copy()
    vertex = lam * (2.0 * lam - 1.0)
    cols = [vertex[:, i] for i in range(dim + 1)]
    for a, b in _local_edges(dim):
        cols.append(4.0 * lam[:, a] * lam[:, b])
    return np.stack(cols, axis=1)


def shape_bary_grads(dim, m, lam):
    """Derivatives of shape functions w.r.t. barycentric coordinates,
    shape (nq, n_loc, dim+1)."""
    nq = lam.shape[0]
    nb = dim + 1
    if m == 1:
        out = np.zeros((nq, nb, nb))
        for i in range(nb):
            out[:, i, i] = 1.0
        return out
    edges = _local_edges(dim)
    out = np.zeros((nq, nb + len(edges), nb))
    for i in range(nb):
        out[:, i, i] = 4.0 * lam[:, i] - 1.0
    for e, (a, b) in enumerate(edges):
        out[:, nb + e, a] = 4.0 * lam[:, b]
        out[:, nb + e, b] = 4.0 * lam[:, a]
    return out


# ======================================================================
# assembly
# ======================================================================

class _CsrPattern:
    """A fixed set of COO triplets, summed into CSR for any owner weights.

    units (n, a, b) holds the unit values of n owners (cells, facets or
    quadrature points), and rows and cols, which broadcast to its shape,
    their row and column indices.  Owners that share their unit values
    pass them once: units (ns, a, b) and unit_of (n,), the row of units of
    each owner.  The triplets are sorted once, stably, by the int64 key
    row * n_cols + col, each run of equal keys one slot of the canonical
    CSR layout; ``matrix(w)`` then sums w[k] * units[k] over the owners
    with one bincount, each entry in ascending owner order (that of a
    cell-by-cell loop A[i, j] += k_e[a, b]), independent of scipy.
    """

    def __init__(self, units, rows, cols, shape, unit_of=None):
        owners = units.shape if unit_of is None else \
            (len(unit_of),) + units.shape[1:]
        keys = np.broadcast_to(np.asarray(rows, dtype=np.int64) * shape[1]
                               + cols, owners).ravel()
        self.perm = np.argsort(keys, kind="stable").astype(np.int32)
        keys = keys[self.perm]
        # the first of each run of equal keys
        new = np.empty(len(keys), dtype=bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        self.slot = np.cumsum(new, dtype=np.int32) - 1
        rows, cols = np.divmod(keys[new], shape[1])
        # only the layout is read: its data, all 0.0, takes no memory
        self.layout = sp.csr_matrix(
            (np.broadcast_to(0.0, cols.shape), cols,
             np.searchsorted(rows, np.arange(shape[0] + 1))), shape=shape)
        self.indices, self.indptr = self.layout.indices, self.layout.indptr
        self.units = units
        self.unit_of = unit_of
        for arr in (self.perm, self.slot, self.indices, self.indptr):
            arr.setflags(write=False)

    def data(self, weights):
        """The CSR data of sum_k weights[k] * units[k]; weights (n,)."""
        weights = np.asarray(weights, dtype=float)[:, None, None]
        if self.unit_of is None:
            vals = weights * self.units
        else:
            vals = np.take(self.units, self.unit_of, axis=0)
            vals *= weights
        return np.bincount(self.slot, vals.ravel()[self.perm],
                           minlength=len(self.indices))

    def matrix(self, weights):
        """CSR matrix of sum_k weights[k] * units[k]; weights (n,)."""
        return _on_layout(self.layout, self.data(weights))

    def slots_of(self, other):
        """The slot here of each slot of other, whose entries this holds."""
        n_rows, n_cols = self.layout.shape
        keys = [np.repeat(np.arange(n_rows) * n_cols, np.diff(p.indptr))
                + p.indices for p in (self, other)]
        return np.searchsorted(*keys)


def _on_layout(A, data):
    """data on the layout of A, a canonical CSR matrix, in arrays of its
    own: a shallow copy of A skips scipy's format checks on every build."""
    B = copy.copy(A)
    B.data, B.indices, B.indptr = data, A.indices.copy(), A.indptr.copy()
    return B


def _stiffness_pattern(dofmap):
    """The unit stiffness (kappa = 1, |det J| left out) of each cell shape
    and the shape of every cell, in its CSR pattern, kept on the dof map."""
    def build():
        mesh = dofmap.mesh
        rule = volume_rule(mesh.dim, dofmap.m)
        dlam = shape_bary_grads(mesh.dim, dofmap.m, rule.points)
        _, grads, shape = cell_geometry(mesh)
        g = np.einsum("qna,sad->sqnd", dlam, grads)
        units = np.einsum("q,sqnd,sqmd->snm", rule.weights, g, g)
        dofs = dofmap.cell_dofs
        return _CsrPattern(units, dofs[:, :, None], dofs[:, None, :],
                           (dofmap.n_dofs, dofmap.n_dofs), unit_of=shape)

    return memoised(dofmap, "_stiffness", (), build)


def assemble_stiffness(dofmap: DofMap, kappa) -> sp.csr_matrix:
    """Stiffness matrix for -div(kappa grad u); kappa scalar or per-cell array.

    The unit cell matrices and the CSR pattern are built on the first call
    for a dof map; later calls only scale and sum them.
    """
    kappa = np.broadcast_to(
        check_entries("kappa", kappa, POSITIVE, NonpositiveCoefficient),
        (dofmap.mesh.num_cells,))
    # weights sum to the reference measure, so |detJ| is the whole Jacobian
    adet, _, shape = cell_geometry(dofmap.mesh)
    return _stiffness_pattern(dofmap).matrix(kappa * adet[shape])


def assemble_boundary_mass(dofmap: DofMap, facets,
                           weight: float) -> sp.csr_matrix:
    """weight * mass matrix over the given boundary facets.

    Facets must be boundary facets of the dof map's mesh, in any vertex
    order; anything else raises ForeignFacet.
    """
    mesh = dofmap.mesh
    facets = np.asarray(facets, dtype=np.int64).reshape(-1, mesh.dim)
    keys = np.sort(facets, axis=1)
    nv = mesh.num_vertices
    # a vertex id outside [0, nv) could alias the key of another facet
    foreign = ~np.isin(face_keys(keys, nv),
                       face_keys(mesh.facet_vertices, nv))
    foreign |= (keys[:, 0] < 0) | (keys[:, -1] >= nv)
    if foreign.any():
        raise ForeignFacet(
            f"facet {tuple(facets[foreign.argmax()].tolist())} is not a "
            "boundary facet")
    rule = facet_rule(mesh.dim, dofmap.m)
    dofs, scale = _facet_terms(dofmap, keys)
    return _facet_mass(dofs, rule.weights,
                       shape_values(mesh.dim - 1, dofmap.m, rule.points),
                       dofmap.n_dofs).matrix(weight * scale)


def _facet_terms(dofmap, facets):
    """The dofs (nf, n) of boundary facets (nf, dim) and their measures
    over the reference measure (nf,): the per-facet terms of every
    boundary-facet quadrature."""
    mesh = dofmap.mesh
    return (dofmap.facet_dofs(facets),
            mesh.facet_measure(facets) / (1.0 if mesh.dim == 2 else 0.5))


def _facet_mass(dofs, weights, values, n):
    """The reference mass of the trace basis values (nq, k) on each facet
    of dofs (nf, k), one owner per facet: the facets' scales weight it."""
    ref = np.einsum("q,qn,qm->nm", weights, values, values)
    return _CsrPattern(np.broadcast_to(ref, (len(dofs),) + ref.shape),
                       dofs[:, :, None], dofs[:, None, :], (n, n))


def _as_callable(f):
    if callable(f):
        return f
    const = float(f)
    return lambda x: np.full(np.asarray(x).shape[:-1], const)


@functools.lru_cache(maxsize=32)
def _composite_facet_rule(dim, m, n):
    """Facet rule on n pieces per axis, in parent coordinates.

    Concentrated boundary data (the laser spot is ~1e-3 wide) would be
    invisible to a plain two-point rule on coarse facets, so the facet is
    subdivided and the base rule mapped into each piece.
    """
    base = facet_rule(dim, m)
    if dim == 2:
        ends = np.arange(n + 1) / n
        ends = np.stack([1.0 - ends, ends], axis=1)
        corners = np.stack([ends[:-1], ends[1:]], axis=1)
    else:
        # grid square (i, j) in barycentric steps of 1/n: its lower half,
        # then its upper half where that lies inside the facet
        i, j = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) < n)
        v00 = np.stack([n - i - j, i, j], axis=1) / n
        v10 = v00 + np.array([-1.0, 1.0, 0.0]) / n
        v01 = v00 + np.array([-1.0, 0.0, 1.0]) / n
        v11 = v10 + v01 - v00
        halves = np.stack([np.stack([v00, v10, v01], axis=1),
                           np.stack([v11, v01, v10], axis=1)], axis=1)
        inside = np.stack([np.ones_like(i, dtype=bool), j < n - i - 1], axis=1)
        corners = halves[inside]
    return QuadratureRule((base.points @ corners).reshape(-1, dim),
                          np.tile(base.weights / n ** (dim - 1), len(corners)),
                          base.degree)


@functools.lru_cache(maxsize=32)
def _composite_trace_basis(dim, m, n):
    """The trace basis (nq, k) at the points of _composite_facet_rule(dim,
    m, n), kept read-only beside it."""
    values = shape_values(dim - 1, m, _composite_facet_rule(dim, m, n).points)
    values.setflags(write=False)
    return values


# points per top-flux call: 2**11 pieces of the 6-point rule, where a 3D
# box facet at h = 1/160 and the default panel holds 7,921, so a call's
# points and values stay a few hundred kB, while the top facets of a 2D
# mesh near the laser fit in one call
_FLUX_CHUNK = 12_288


def assemble_load(mesh: StructuredMesh, dofmap: DofMap, f=0.0, q=None,
                  q_panel=None) -> np.ndarray:
    """Load vector: volume source f plus surface flux q on the top facets.

    Parameters
    ----------
    f : volume density, callable of coordinates (..., dim) or constant; a
        callable may return a scalar, which holds at every point
    q : flux density on NEUMANN_TOP facets, callable or constant; None skips
        the boundary term.  A callable is called once per block of at most
        ``_FLUX_CHUNK`` points, on points of shape (nc, nq, dim), and
        returns values (nc, nq) or a scalar; a block is whole facets, or
        whole pieces of one facet (nc = 1) when that facet alone holds
        more.  It may carry ``q.support = (centre, radius)``, promising
        q(x) == 0.0 exactly wherever the wall coordinates x[..., :-1] lie
        farther than radius from centre in the max norm; the flux is then
        integrated only on the top facets whose bounding box comes that
        close (``laser`` sets it).  Any other q
        is integrated on every top facet.  In 3D it may also carry
        ``q.factors = (qx, qy)``, callables of one wall coordinate (an
        array of any shape) whose product qx(x) * qy(y) is q up to
        rounding; where every visited top facet is a right triangle with
        its legs along x and y, the load is then integrated by
        one-dimensional moments (``_flux_moments``) and q itself is not
        called.  2D loads, a q without factors and a mesh with any other
        visited top facet take the composite rule.
    q_panel : target quadrature panel size for the flux term; the widest
        top facet visited, diameter w, sets the one rule: ceil(w / q_panel)
        pieces per axis (panels per leg for the moments), at most 256, so
        no piece is wider than q_panel
    """
    dofmap.check_mesh("mesh", mesh)
    b = np.zeros(dofmap.n_dofs)
    if not _zero(f):
        _add_volume(b, dofmap,
                    _values(_as_callable(f), _volume_points(dofmap)))
    if q is None or _zero(q):
        return b
    support, factors = getattr(q, "support", None), getattr(q, "factors", None)
    moments = None if factors is None or mesh.dim == 2 else \
        _flux_moments(dofmap, factors, support, q_panel)
    if moments is not None:
        np.add.at(b, *moments)
    else:
        qfun = _as_callable(q)
        terms, rule, chunks = _flux_chunks(dofmap, support, q_panel)
        # each chunk is summed before the next is evaluated, so all of them
        # share one buffer for their values
        buf = np.empty((max((len(c) for _, c, _ in chunks), default=0),
                        len(rule.weights)))
        _add_flux(b, terms, rule.weights,
                  ((k, _flux_values(qfun, rule, corners, blocks,
                                    buf[:len(corners)]))
                   for k, corners, blocks in chunks))
    return b


def _zero(f):
    """Whether the source or flux f is the constant 0, which adds nothing."""
    return not callable(f) and float(f) == 0.0


def _values(fun, x):
    """fun at the points x (..., dim) in a new float array of shape
    x.shape[:-1], a scalar broadcast to it."""
    values = np.empty(x.shape[:-1])
    values[...] = fun(x)
    return values


def _volume_points(dofmap):
    """The volume quadrature points (nc, nq, dim) of assemble_load."""
    mesh = dofmap.mesh
    return volume_rule(mesh.dim, dofmap.m).points @ mesh.vertices[mesh.cells]


def _add_volume(b, dofmap, fq):
    """Add the volume source to b from its values fq (nc, nq) there."""
    mesh = dofmap.mesh
    rule = volume_rule(mesh.dim, dofmap.m)
    vvals = shape_values(mesh.dim, dofmap.m, rule.points)
    adet, _, shape = cell_geometry(mesh)
    np.add.at(b, dofmap.cell_dofs, adet[shape][:, None]
              * np.einsum("q,cq,qn->cn", rule.weights, fq, vvals))


def _visited_top(mesh, support, q_panel):
    """The top facets (nf, dim) that the flux of assemble_load visits (see
    there for support and q_panel), their vertices (nf, dim, dim) and the
    pieces per axis n of its rule."""
    top = mesh.facet_vertices[mesh.facet_tags == FacetTag.NEUMANN_TOP.value]
    pts = mesh.vertices[top]
    if support is not None:
        # max-norm distance of each facet's bounding box from the centre
        centre, radius = support
        wall = pts[..., :-1]
        gap = np.maximum(wall.min(axis=1) - centre, centre - wall.max(axis=1))
        near = gap.max(axis=1) <= radius
        top, pts = top[near], pts[near]
    n = 1
    if q_panel is not None and len(top):
        i, j = np.transpose(_local_edges(mesh.dim - 1))
        diam = np.linalg.norm(pts[:, i] - pts[:, j], axis=-1).max()
        n = int(np.clip(np.ceil(diam / q_panel), 1, 256))
    return top, pts, n


def _flux_chunks(dofmap, support, q_panel):
    """The composite top-flux quadrature of assemble_load (see there for
    support and q_panel): the terms (dofs, scales, fvals) of the top
    facets it visits, their _facet_terms and the kept trace basis, its
    one composite rule, and its chunks (k, corners, blocks), k a slice of
    whole facets, corners (nc, dim, dim) their vertices and blocks slices
    of the rule's rows, so that rule.points[rows] @ corners are one
    block's points.  A chunk is whole facets in one block of at most
    _FLUX_CHUNK points, or one facet that holds more, in blocks of whole
    pieces."""
    mesh = dofmap.mesh
    top, pts, n = _visited_top(mesh, support, q_panel)
    rule = _composite_facet_rule(mesh.dim, dofmap.m, n)
    nq = len(rule.weights)
    per, blocks = _FLUX_CHUNK // nq, [slice(None)]
    if not per:
        # the rule's rows run piece by piece
        piece = len(facet_rule(mesh.dim, dofmap.m).weights)
        step = max(1, _FLUX_CHUNK // piece) * piece
        per, blocks = 1, [slice(r, r + step) for r in range(0, nq, step)]
    chunks = [(slice(a, a + per), pts[a:a + per], blocks)
              for a in range(0, len(top), per)]
    terms = _facet_terms(dofmap, top) + (
        _composite_trace_basis(mesh.dim, dofmap.m, n),)
    return terms, rule, chunks


# (c, i, j): the local vertices of a top facet's right angle, of the end
# of its x leg and of the end of its y leg, in every order
_CORNERS = np.array(list(itertools.permutations(range(3))))


def _flux_moments(dofmap, factors, support, q_panel):
    """The top flux qx(x) * qy(y), factors = (qx, qy), of assemble_load on
    a 3D mesh by one-dimensional moments: the dofs (nf, k) of the top
    facets it visits and their entries (nf, k), or None when one of them
    is not a right triangle with its legs along x and y.

    On a facet with right angle (x0, y0) and legs a along x and b along y,
    x = x0 + a (1 - u) and y = y0 + b t over 0 <= t <= u <= 1, where the
    barycentrics are u - t, 1 - u and t.  A trace basis function is then
    a polynomial in t and u - t, the sum over a + b <= m of
    c_ab(u) t**a (u - t)**b (_moment_basis), and entry i is |a b| times
    the integral over u of qx(x(u)) sum_ab c_ab(u) M_ab(u), with M_ab(u)
    the integral of t**a (u - t)**b qy(y(t)) from 0 to u: cumulative sums
    over whole panels and one partial panel at each outer point
    (_moment_rule).  Every term of M_ab has the sign of qy, so an entry
    keeps the relative accuracy of the factors even far from the spot,
    where powers of t alone would cancel.  Each facet costs n g (g + 2)
    factor values, g = 4 Gauss points on each of n panels per leg, n that
    of the composite rule.  Nothing loops over facets: one call per factor
    on all of them, and one stacked product per corner order.
    """
    top, pts, n = _visited_top(dofmap.mesh, support, q_panel)
    wall = pts[:, _CORNERS, :2]
    c, i, j = wall[:, :, 0], wall[:, :, 1], wall[:, :, 2]
    right = ((c[..., 1] == i[..., 1]) & (c[..., 0] != i[..., 0])
             & (c[..., 0] == j[..., 0]) & (c[..., 1] != j[..., 1]))
    if not right.any(axis=1).all():
        return None
    order = right.argmax(axis=1)
    c, i, j = wall[np.arange(len(top)), order].transpose(1, 0, 2)
    t, weights, carry, reach = _moment_rule(dofmap.m, n)
    x0, y0, a, b = c[:, 0], c[:, 1], i[:, 0] - c[:, 0], j[:, 1] - c[:, 1]
    qy = factors[1](y0[:, None, None, None] + b[:, None, None, None] * t)
    # each pair's moments over whole panels (row 0) and partial ones
    moments = np.einsum("fpar,kpar->fkpa", qy, weights)
    # below[:, k, p]: pair k = (a, b)'s integral of t**a (p/n - t)**b qy
    # from 0 to p/n, each panel's own moment plus those of (a, j < b) one
    # panel further down
    below = np.zeros(moments.shape[:-1])
    for k, terms in enumerate(carry):
        step = moments[:, k, :-1, 0].copy()
        for kk, coef in terms:
            step += coef * below[:, kk, :-1]
        np.cumsum(step, axis=-1, out=below[:, k, 1:])
    inner = moments[..., 1:]
    for k, terms in enumerate(reach):
        for kk, coef in terms:
            inner[:, k] += coef * below[:, kk, :, None]
    qx = factors[0](x0[:, None, None] + a[:, None, None] * (1.0 - t[:, 0]))
    inner *= (qx * weights[0, 0, 0])[:, None]
    dofs, scale = _facet_terms(dofmap, top)
    entries = np.empty(dofs.shape)
    for corner in np.unique(order):
        at = order == corner
        coef = _moment_basis(dofmap.m, n, tuple(_CORNERS[corner]))
        # one vector-matrix product per facet, as _add_flux makes
        entries[at] = (inner[at].reshape(at.sum(), 1, -1) @ coef)[:, 0]
    entries *= scale[:, None]
    return dofs, entries


def _moment_pairs(m):
    """The powers (a, b) of t**a (u - t)**b, a + b <= m, in the order of
    _flux_moments: b ascending, so that (a, j < b) come first."""
    return [(a, b) for b in range(m + 1) for a in range(m + 1 - b)]


@functools.lru_cache(maxsize=32)
def _moment_rule(m, n):
    """The inner rule of _flux_moments on n panels of [0, 1], Gauss with
    g = 4 points on each, read-only: the points t (n, g + 1, g), a panel's
    own in row 0 and those of [p, p + s_r] / n, which ends at its Gauss
    point s_r, in row 1 + r (row 0 is the outer rule too); for each pair
    (a, b) of _moment_pairs(m) the weights (n, g + 1, g) of
    t**a (e - t)**b there, e the end of that panel or partial panel; and
    the terms (pair, coefficient) that carry a pair's sums one panel up,
    (p/n - t)**b = sum_j C(b, j) n**(j - b) ((p - 1)/n - t)**j, and up to
    the outer points p/n + s_r/n, one coefficient (g,) per term."""
    base = _segment_rule(7)
    s = base.points[:, 1]
    frac = np.concatenate([[1.0], s])[:, None]
    t = (np.arange(n)[:, None, None] + frac * s) / n
    dist = frac * (1.0 - s) / n
    pairs = _moment_pairs(m)
    weights = np.stack([t ** a * dist ** b for a, b in pairs]) \
        * (frac * base.weights / n)
    carry = tuple(tuple((pairs.index((a, j)), math.comb(b, j) / n ** (b - j))
                        for j in range(b)) for a, b in pairs)
    reach = [tuple((pairs.index((a, j)), math.comb(b, j) * (s / n) ** (b - j))
                   for j in range(b + 1)) for a, b in pairs]
    for arr in (t, weights) + tuple(c for terms in reach for _, c in terms):
        arr.setflags(write=False)
    return t, weights, carry, tuple(reach)


@functools.lru_cache(maxsize=32)
def _moment_basis(m, n, corner):
    """The trace basis of _flux_moments on a facet whose corner (c, i, j)
    is a row of _CORNERS: its coefficients of t**a (u - t)**b, (a, b) in
    _moment_pairs(m), at the outer points u of _moment_rule(m, n), as one
    read-only matrix (pairs * n * g, basis).  With lambda_c = u - t,
    lambda_i = 1 - u and lambda_j = t, each function is a polynomial of
    degree m in t and u - t, fitted on the lattice t, u - t = a, b."""
    u = _moment_rule(m, n)[0][:, 0]
    lattice = np.array(_moment_pairs(m), dtype=float)
    lam = np.empty(u.shape + lattice.shape[:1] + (3,))
    lam[..., corner[0]] = lattice[:, 1]
    lam[..., corner[1]] = 1.0 - u[..., None]
    lam[..., corner[2]] = lattice[:, 0]
    values = shape_values(2, m, lam.reshape(-1, 3)).reshape(
        lam.shape[:-1] + (-1,))
    vander = np.prod(lattice[:, None, :] ** lattice[None, :, :], axis=-1)
    coef = np.linalg.solve(vander, values)
    coef = np.moveaxis(coef, -2, 0).reshape(-1, values.shape[-1])
    coef.setflags(write=False)
    return coef


def _flux_values(q, rule, corners, blocks, values, hot_points=None):
    """Fill values (nc, nq) with q at the rule's points on the facets of
    one chunk of _flux_chunks, corners (nc, dim, dim) their vertices, and
    return it: one call per block of rows, on that block's points
    (nc, rows, dim), a scalar broadcast to them.  With a list hot_points,
    each block's points where q is nonzero are appended to it, in the
    order of the values."""
    for rows in blocks:
        # the points are made per block, so no block's points outlive it
        x = rule.points[rows] @ corners
        values[:, rows] = q(x)
        if hot_points is not None:
            hot_points.append(x[values[:, rows] != 0.0])
    return values


def _add_flux(b, terms, weights, chunks):
    """Add the top flux to b from its _facet_terms, rule weights and chunks
    (k, qq), qq (nc, nq) the flux at the chunk's points: one stacked
    product per chunk, then one np.add.at over all facets."""
    dofs, scale, fvals = terms
    b_loc = np.empty(dofs.shape)
    for k, qq in chunks:
        # a stacked matmul is one vector-matrix product per facet, so a
        # facet's sum does not depend on the facets beside it
        b_loc[k] = scale[k, None] * ((qq * weights)[:, None, :] @ fvals)[:, 0]
    np.add.at(b, dofs, b_loc)


class ScaledLoad:
    """The load of assemble_load on a dof map, kept for scaling again and
    again: f times scale(x) where footprint(x), q where it is nonzero (a
    zero flux stays zero under any finite scale).  Keeps f at the volume
    points and q at each flux chunk's (whole facets, or whole pieces of
    one facet), each with where the scale applies and those points as one
    array, all read-only and the same objects at every ``add_to``: f and q
    are called once, here.  The flux takes the composite rule even when q
    carries factors: the scale is not separable."""

    def __init__(self, dofmap, f, q, q_panel, footprint):
        def kept(*arrays):
            for arr in arrays:
                arr.setflags(write=False)
            return arrays

        def kept_flux(corners, blocks):
            hot_points = []
            values = _flux_values(qfun, rule, corners, blocks, np.empty(
                (len(corners), len(rule.weights))), hot_points)
            return kept(values, values != 0.0, np.concatenate(hot_points))

        self.dofmap = dofmap
        self.volume = self.flux = None
        if not _zero(f):
            x = _volume_points(dofmap)
            hot = footprint(x)
            self.volume = kept(_values(_as_callable(f), x), hot, x[hot])
        if not _zero(q):
            qfun = _as_callable(q)
            terms, rule, chunks = _flux_chunks(
                dofmap, getattr(q, "support", None), q_panel)
            self.flux = terms, rule.weights, [
                (k, kept_flux(corners, blocks))
                for k, corners, blocks in chunks]

    def add_to(self, b, scale):
        """Add the load to b, the volume term first and then the flux, as
        assemble_load sums them: one scale call per non-empty point array,
        whose result, finite and a scalar or one value per point, is
        checked as the builder's flux_scale (InvalidConfig naming it)."""
        def scaled(values, hot, x_hot):
            if len(x_hot):
                s = check_entries("flux_scale", scale(x_hot), FINITE)
                if s.ndim and s.shape != (len(x_hot),):
                    raise InvalidConfig(
                        f"flux_scale must return a scalar or one value per "
                        f"point ({len(x_hot)}), got shape {s.shape}")
                values = values.copy()
                values[hot] *= s
            return values

        if self.volume is not None:
            _add_volume(b, self.dofmap, scaled(*self.volume))
        if self.flux is not None:
            terms, weights, chunks = self.flux
            _add_flux(b, terms, weights,
                      ((k, scaled(*arrays)) for k, arrays in chunks))


def laser_flux(x, centre):
    """Surface heat flux concentrated at centre, the spot's wall
    coordinates (dim - 1,), on points x (..., dim).

    2D: LASER_PEAK * exp(-(c - x)^4 / 1e-12), c = centre[0], bitwise the
    peak times laser_factor(x, c); 3D adds the same quartic in y about
    centre[1].  Where that exponential would fall below the smallest
    normal double the value is exactly 0.0, so it is 0.0 or at least the
    peak times DBL_MIN, and exactly 0.0 wherever a wall coordinate lies
    farther than LASER_CUTOFF from its centre.
    """
    x = np.asarray(x, dtype=float)
    a = _quartic(x[..., 0], centre[0])
    if len(centre) == 2:
        a += _quartic(x[..., 1], centre[1])
    out = _normal_exp(a)
    out *= LASER_PEAK
    return out


def laser_factor(z, centre):
    """The laser flux along one wall axis: exp(-(centre - z)^4 / 1e-12) at
    an array of coordinates z, exactly 0.0 where that would fall below the
    smallest normal double, so wherever |centre - z| > LASER_CUTOFF.  In
    3D, LASER_PEAK * laser_factor(x, cx) * laser_factor(y, cy) is
    laser_flux at (cx, cy) up to rounding: the factors of ``laser``."""
    return _normal_exp(_quartic(np.asarray(z, dtype=float), centre))


def _quartic(z, c):
    """(c - z)^4 in a new array."""
    a = np.subtract(c, z)
    np.square(a, out=a)
    np.square(a, out=a)
    return a


def _normal_exp(a):
    """exp(-a / 1e-12), a divided in place, 0.0 where it is not normal."""
    a /= 1e-12
    # a subnormal exp costs about a hundred normal ones
    normal = a < _EXP_NORMAL
    np.negative(a, out=a)
    out = np.zeros(a.shape)
    np.exp(a, out=out, where=normal)
    return out


# exp(-a) is a normal double for a < -ln DBL_MIN = 1022 ln 2
_EXP_NORMAL = 1022 * np.log(2.0)
# past 1022 ln 2 laser_flux is 0.0; one ln 2 more covers the rounding of
# the quartic and of the division
LASER_CUTOFF = (1023 * np.log(2.0) * 1e-12) ** 0.25
LASER_PEAK = 0.4e5


def laser(geom):
    """``ProblemData``'s default flux on geom: laser_flux at the middle of
    the top wall, (L/2, W/2) in 3D, with its support (that centre and
    LASER_CUTOFF), past which the top-flux quadrature visits no facet, and
    its factors (one laser_factor per wall axis, LASER_PEAK in the first),
    whose product a 3D load integrates by one-dimensional moments."""
    centre = np.array(geom.extents[:-1]) / 2.0
    q = functools.partial(laser_flux, centre=centre)
    q.support = (centre, LASER_CUTOFF)
    first, *rest = (functools.partial(laser_factor, centre=c) for c in centre)
    q.factors = (lambda z: LASER_PEAK * first(z), *rest)
    return q


class _Elimination:
    """Where Dirichlet dofs act in one canonical CSR pattern (sorted, no
    duplicates; a matrix or a _CsrPattern), found once: fixed marks their
    rows.  ``apply`` eliminates them symmetrically on the data of a matrix
    in that pattern, as ``lifted`` and ``eliminate`` do in two steps."""

    def __init__(self, pattern, dofs):
        n = len(pattern.indptr) - 1
        self.dofs = np.asarray(dofs, dtype=np.int64)
        if self.dofs.size and (self.dofs.min() < 0 or self.dofs.max() >= n):
            raise IndexOutOfRange("dirichlet dof index outside [0, n)")
        self.fixed = np.zeros(n, dtype=bool)
        self.fixed[self.dofs] = True
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        fixed_row, fixed_col = self.fixed[rows], self.fixed[pattern.indices]
        self.lift = np.flatnonzero(fixed_col & ~fixed_row)
        self.lift_rows = rows[self.lift]
        self.cleared = np.flatnonzero(fixed_row | fixed_col)
        self.unit = np.flatnonzero(fixed_row & (rows == pattern.indices))
        self.bare = np.setdiff1d(self.dofs, rows[self.unit])

    def apply(self, A, b, value):
        """Eliminate on A's data in place and lift the cleared columns'
        entries at the wall value into the returned copy of b.  Returns
        (A, b)."""
        b = b - value * self.lifted(A)
        b[self.dofs] = value
        return self.eliminate(A), b

    def lifted(self, A):
        """A's entries in the constrained columns off the constrained rows,
        summed per row: what a unit wall value lifts off each row's load."""
        return np.bincount(self.lift_rows, A.data[self.lift],
                           minlength=len(self.fixed))

    def eliminate(self, A):
        """Constrained rows and columns of A cleared on its data in place,
        constrained diagonals set to 1 (only one missing from the pattern
        needs a sparse sum), zeros dropped.  Returns A."""
        A.data[self.cleared] = 0.0
        A.data[self.unit] = 1.0
        if self.bare.size:
            A = A + sp.csr_matrix((np.ones(self.bare.size),
                                   (self.bare, self.bare)), shape=A.shape)
        A.eliminate_zeros()
        return A


def _elimination(dofmap):
    """The _Elimination of the outer Dirichlet dofs in the stiffness
    pattern, kept on the dof map: the coupled builder and solve_fitted
    share it."""
    return memoised(dofmap, "_elimination", (), lambda: _Elimination(
        _stiffness_pattern(dofmap), dirichlet_dofs(dofmap)))


def apply_dirichlet(A: sp.csr_matrix, b: np.ndarray, dofs, value: float):
    """Eliminate Dirichlet dofs symmetrically (see ``_Elimination``, which
    the stiffness of a dof map keeps, ``_elimination``) on a copy of A in
    canonical form.  Returns new (A, b)."""
    A = sp.csr_matrix(A, dtype=float, copy=True)
    A.sum_duplicates()
    return _Elimination(A, dofs).apply(A, b, value)


def dirichlet_dofs(dofmap: DofMap) -> np.ndarray:
    """Sorted dof indices supported on the DIRICHLET_OUTER facets."""
    mesh = dofmap.mesh
    return np.unique(dofmap.facet_dofs(mesh.facet_vertices[
        mesh.facet_tags == FacetTag.DIRICHLET_OUTER.value]))


# ======================================================================
# field evaluation and norms
# ======================================================================

def _basis_at_points(dofmap, points):
    """Locate points (..., dim) and evaluate the cell basis there.

    Returns the dofs of each point's cell and the basis values, both shaped
    (..., n_loc).
    """
    points = np.asarray(points, dtype=float)
    mesh = dofmap.mesh
    loc = locate_point(mesh, points.reshape(-1, mesh.dim))
    phi = shape_values(mesh.dim, dofmap.m, loc.barycentric)
    lead = points.shape[:-1] + (phi.shape[1],)
    return dofmap.cell_dofs[loc.cell].reshape(lead), phi.reshape(lead)


def _field_at(coeffs, basis):
    """The field with coefficients coeffs at the points whose (dofs, values)
    _basis_at_points gives as basis."""
    dofs, phi = basis
    # a stacked matmul gives each point the dot product a one-point call gets
    return (phi[..., None, :] @ coeffs[dofs][..., None])[..., 0, 0]


def evaluate_field(mesh, dofmap, coeffs, points):
    """Evaluate a finite element field at arbitrary points inside the mesh.

    points is one point (dim,) or an array (..., dim); all of them are
    located in one call.  A single point gives a length-1 result.
    """
    dofmap.check_mesh("mesh", mesh)
    return _field_at(coeffs, _basis_at_points(dofmap, np.atleast_2d(points)))


def l2_error(dofmap, coeffs, exact):
    """L2 distance between a finite element field and a callable."""
    mesh = dofmap.mesh
    rule = volume_rule(mesh.dim, 2)  # generous rule, degree >= 4
    vvals = shape_values(mesh.dim, dofmap.m, rule.points)
    adet, _, shape = cell_geometry(mesh)
    uh = coeffs[dofmap.cell_dofs] @ vvals.T
    diff = uh - np.asarray(exact(rule.points @ mesh.vertices[mesh.cells]),
                           dtype=float)
    return np.sqrt(float(adet[shape] @ (diff**2 @ rule.weights)))


def export_matrix(A, path):
    """Write a sparse matrix in Matrix Market format."""
    from scipy.io import mmwrite

    mmwrite(str(path), sp.coo_matrix(A))
