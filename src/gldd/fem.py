"""Lagrange finite elements of degree 1 and 2 on simplicial meshes.

Cell terms are computed for all cells at once from the stacked geometry
of ``mesh.cell_geometry`` (one einsum for the stiffness, one source call on
every quadrature point for the load), and facet terms for all facets at
once.  The top-flux quadrature calls the flux once per chunk of whole
facets of at most ``_FLUX_CHUNK`` points, and only on the top facets within
the flux's ``support`` when it has one (the laser flux of
``coupling.ProblemData`` does; a user callable without one is called on
every top facet).
Dof lookup is batched too: ``DofMap`` numbers P2 edges with one
``np.unique`` and ``facet_dofs`` looks up a whole facet array in its sorted
edge table.  Matrix entries are laid out as COO triplets in ascending cell
(or facet, or quadrature point) order; a ``_CsrPattern`` finds their CSR
pattern once and sums weighted unit values into it with one bincount, in
the order scipy's COO-to-CSR conversion would, so results are
deterministic for fixed numpy and scipy versions.  The stiffness keeps its
unit cell matrices and pattern on the dof map: a new coefficient costs one
scaled bincount.  Matrices are CSR, vectors plain numpy arrays.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (ForeignFacet, IndexOutOfRange, NonpositiveCoefficient,
                     UnsupportedDegree)
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
    if degree > 5:
        raise UnsupportedDegree(f"no segment rule of degree {degree}")
    if degree <= 3:
        a = 0.5 / np.sqrt(3.0)
        s = np.array([0.5 - a, 0.5 + a])
        w = np.array([0.5, 0.5])
        deg = 3
    else:
        b = 0.5 * np.sqrt(3.0 / 5.0)
        s = np.array([0.5 - b, 0.5, 0.5 + b])
        w = np.array([5.0, 8.0, 5.0]) / 18.0
        deg = 5
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
        for i in range(3):
            for pair in _cd_pairs(i, c, d):
                pts.append(pair)
                w.append(w3)
        pts, w = np.array(pts), np.array(w)
        deg = 5
    return QuadratureRule(pts, w / 6.0, deg)


def _cd_pairs(i, c, d):
    # the six (c,c,d,d) permutation patterns, two per axis pairing
    patterns = {
        0: [(c, c, d, d), (d, d, c, c)],
        1: [(c, d, c, d), (d, c, d, c)],
        2: [(c, d, d, c), (d, c, c, d)],
    }
    return patterns[i]


def volume_rule(dim, m) -> QuadratureRule:
    """Cell rule exact at least to degree 2m."""
    return _triangle_rule(2 * m) if dim == 2 else _tet_rule(2 * m)


def facet_rule(dim, m) -> QuadratureRule:
    """Boundary-facet rule exact at least to degree 2m+1."""
    return _segment_rule(2 * m + 1) if dim == 2 else _triangle_rule(2 * m + 1)


# ======================================================================
# dof maps
# ======================================================================

class DofMap:
    """Mapping from cells to global dof indices for P1/P2 elements.

    Dofs are vertices first, then (for degree 2) one dof per edge, numbered
    in order of first appearance over cells in ascending index with local
    edges in lexicographic vertex order.  Edges are found through a sorted
    table of keys a * nv + b, a < b their vertex ids.
    """

    def __init__(self, mesh: StructuredMesh, m: int):
        if m not in (1, 2):
            raise UnsupportedDegree(f"degree must be 1 or 2, got {m}")
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
    lam = np.atleast_2d(lam)
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
    lam = np.atleast_2d(lam)
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
    their row and column indices.  The CSR pattern and the slot of every
    triplet in it are found once; ``matrix(w)`` then sums w[k] * units[k]
    over the owners with one bincount.  The triplets are kept in the order
    in which scipy's COO-to-CSR conversion sums them (rows stable, then
    scipy's own index sort within each row), so a matrix from the pattern
    is bitwise the one scipy sums from the same triplets.
    """

    def __init__(self, units, rows, cols, shape):
        rows = np.broadcast_to(rows, units.shape).ravel()
        cols = np.broadcast_to(cols, units.shape).ravel()
        by_row = np.argsort(rows, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(
            rows, minlength=shape[0]))])
        # the triplet ids ride along as data while scipy sorts each row
        order = sp.csr_matrix((by_row.astype(float), cols[by_row], indptr),
                              shape=shape)
        order.sort_indices()
        self.perm = order.data.astype(np.int32)
        rows, cols = rows[self.perm], order.indices
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        self.slot = (np.cumsum(new) - 1).astype(np.int32)
        self.indices = cols[new]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(
            rows[new], minlength=shape[0]))])
        self.units = units
        self.shape = shape
        for arr in (self.perm, self.slot, self.indices, self.indptr):
            arr.setflags(write=False)

    def data(self, weights):
        """The CSR data of sum_k weights[k] * units[k]; weights (n,)."""
        vals = np.asarray(weights, dtype=float)[:, None, None] * self.units
        return np.bincount(self.slot, vals.ravel()[self.perm],
                           minlength=len(self.indices))

    def matrix(self, weights):
        """CSR matrix of sum_k weights[k] * units[k]; weights (n,)."""
        return sp.csr_matrix((self.data(weights), self.indices, self.indptr),
                             shape=self.shape, copy=True)


def _stiffness_pattern(mesh, dofmap):
    """The unit stiffness of every cell (kappa = 1, |det J| left out) in
    its CSR pattern, kept on the dof map for the mesh."""
    def build():
        rule = volume_rule(mesh.dim, dofmap.m)
        dlam = shape_bary_grads(mesh.dim, dofmap.m, rule.points)
        g = np.einsum("qna,cad->cqnd", dlam, cell_geometry(mesh)[1])
        units = np.einsum("q,cqnd,cqmd->cnm", rule.weights, g, g)
        dofs = dofmap.cell_dofs
        return _CsrPattern(units, dofs[:, :, None], dofs[:, None, :],
                           (dofmap.n_dofs, dofmap.n_dofs))

    return memoised(dofmap, "_stiffness", (mesh,), build)


def assemble_stiffness(mesh: StructuredMesh, dofmap: DofMap, kappa) -> sp.csr_matrix:
    """Stiffness matrix for -div(kappa grad u); kappa scalar or per-cell array.

    The unit cell matrices and the CSR pattern are built on the first call
    for a dof map; later calls only scale and sum them.
    """
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (mesh.num_cells,))
    if np.any(kappa <= 0):
        raise NonpositiveCoefficient("kappa must be strictly positive")
    # weights sum to the reference measure, so |detJ| is the whole Jacobian
    return _stiffness_pattern(mesh, dofmap).matrix(
        kappa * cell_geometry(mesh)[0])


def assemble_boundary_mass(mesh: StructuredMesh, dofmap: DofMap, facets,
                           weight: float) -> sp.csr_matrix:
    """weight * mass matrix over the given boundary facets.

    Facets must be boundary facets of the mesh, in any vertex order;
    anything else raises ForeignFacet.
    """
    pattern, scale = _boundary_mass_pattern(mesh, dofmap, facets)
    return pattern.matrix(weight * scale)


def _boundary_mass_pattern(mesh, dofmap, facets):
    """The reference facet mass on every facet in its CSR pattern, and each
    facet's measure over the reference measure."""
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
    vals_at = shape_values(mesh.dim - 1, dofmap.m, rule.points)
    ref_measure = 1.0 if mesh.dim == 2 else 0.5
    ref_mass = np.einsum("q,qn,qm->nm", rule.weights, vals_at, vals_at)
    dofs = dofmap.facet_dofs(keys)
    units = np.broadcast_to(ref_mass, (len(keys),) + ref_mass.shape)
    pattern = _CsrPattern(units, dofs[:, :, None], dofs[:, None, :],
                          (dofmap.n_dofs, dofmap.n_dofs))
    return pattern, mesh.facet_measure(keys) / ref_measure


def _as_callable(f):
    if callable(f):
        return f
    const = float(f)
    return lambda x: np.full(np.asarray(x).shape[:-1], const)


@functools.lru_cache(maxsize=32)
def _composite_facet_rule(dim, m, splits):
    """Facet rule refined 2**splits times per axis, in parent coordinates.

    Concentrated boundary data (the laser spot is ~1e-3 wide) would be
    invisible to a plain two-point rule on coarse facets, so the facet is
    subdivided and the base rule mapped into each piece.
    """
    base = facet_rule(dim, m)
    if splits <= 0:
        return base
    n = 1 << splits
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


# points per top-flux call: one finest 3D box facet (2**14 pieces of the
# 6-point rule), so a call's arrays stay a few MB, while every top facet of
# a 2D mesh fits in one call
_FLUX_CHUNK = 98_304


def assemble_load(mesh: StructuredMesh, dofmap: DofMap, f=0.0, q=None,
                  q_panel=None) -> np.ndarray:
    """Load vector: volume source f plus surface flux q on the top facets.

    Parameters
    ----------
    f : volume density, callable of coordinates (..., dim) or constant
    q : flux density on NEUMANN_TOP facets, callable or constant; None skips
        the boundary term.  A callable is called once per chunk of facets
        with the same rule, on points of shape (nc, nq, dim), and returns
        values (nc, nq); a chunk holds whole facets and at most
        ``_FLUX_CHUNK`` points unless one facet alone holds more.  It may
        carry ``q.support = (centre, radius)``, promising q(x) == 0.0
        exactly wherever the wall coordinates x[..., :-1] lie farther than
        radius from centre in the max norm; the flux is then integrated
        only on the top facets whose bounding box comes that close
        (``ProblemData.flux`` sets it for the laser).  Any other q is
        integrated on every top facet.
    q_panel : target quadrature panel size for the flux term; facets wider
        than this are subdivided until each panel is at most q_panel across
    """
    b = np.zeros(dofmap.n_dofs)
    if callable(f) or float(f) != 0.0:
        vrule = volume_rule(mesh.dim, dofmap.m)
        vvals = shape_values(mesh.dim, dofmap.m, vrule.points)
        adet, _ = cell_geometry(mesh)
        xq = vrule.points @ mesh.vertices[mesh.cells]
        fq = np.asarray(_as_callable(f)(xq), dtype=float)
        np.add.at(b, dofmap.cell_dofs, adet[:, None] * np.einsum(
            "q,cq,qn->cn", vrule.weights, fq, vvals))
    if q is not None:
        qfun = _as_callable(q)
        top = mesh.facet_vertices[mesh.facet_tags == FacetTag.NEUMANN_TOP.value]
        pts = mesh.vertices[top]
        support = getattr(q, "support", None)
        if support is not None:
            # max-norm distance of each facet's bounding box from the centre
            centre, radius = support
            wall = pts[..., :-1]
            gap = np.maximum(wall.min(axis=1) - centre, centre - wall.max(axis=1))
            near = gap.max(axis=1) <= radius
            top, pts = top[near], pts[near]
        dofs = dofmap.facet_dofs(top)
        scale = mesh.facet_measure(top) / (1.0 if mesh.dim == 2 else 0.5)
        splits = np.zeros(len(top), dtype=np.int64)
        if q_panel is not None:
            i, j = np.transpose(_local_edges(mesh.dim - 1))
            diam = np.linalg.norm(pts[:, i] - pts[:, j], axis=-1).max(axis=1)
            wide = diam > q_panel
            splits[wide] = np.minimum(8, np.ceil(np.log2(diam[wide] / q_panel)))
        b_loc = np.empty(dofs.shape)
        for s in np.unique(splits).tolist():
            rule = _composite_facet_rule(mesh.dim, dofmap.m, s)
            fvals = shape_values(mesh.dim - 1, dofmap.m, rule.points)
            same = np.flatnonzero(splits == s)
            per = max(1, _FLUX_CHUNK // len(rule.weights))
            for start in range(0, len(same), per):
                k = same[start:start + per]
                qq = np.asarray(qfun(rule.points @ pts[k]), dtype=float)
                # a stacked matmul is one vector-matrix product per facet,
                # so a facet's sum does not depend on the facets beside it
                b_loc[k] = scale[k, None] * (
                    (qq * rule.weights)[:, None, :] @ fvals)[:, 0]
        np.add.at(b, dofs, b_loc)
    return b


def laser_flux(x, dim, L=1.0 / 40.0):
    """Surface heat flux concentrated at the middle of the top wall.

    2D: 4e4 * exp(-(L/2 - x)^4 / 1e-12); 3D adds the same quartic in y.
    Accepts a single point or an array of points (..., dim).  Where that
    exponential would fall below the smallest normal double the value is
    exactly 0.0, so it is 0.0 or at least 4e4 * DBL_MIN, and exactly 0.0
    wherever max(|L/2 - x|, |L/2 - y|) > LASER_CUTOFF.
    """
    x = np.asarray(x, dtype=float)
    expo = np.square(np.square(L / 2.0 - x[..., 0]))
    if dim == 3:
        expo = expo + np.square(np.square(L / 2.0 - x[..., 1]))
    a = expo / 1e-12
    # a subnormal exp costs about a hundred normal ones
    out = np.zeros(a.shape)
    np.exp(-a, out=out, where=a < _EXP_NORMAL)
    return 0.4e5 * out


# exp(-a) is a normal double for a < -ln DBL_MIN = 1022 ln 2
_EXP_NORMAL = 1022 * np.log(2.0)
# past 1022 ln 2 laser_flux is 0.0; one ln 2 more covers the rounding of
# the quartic and of the division
LASER_CUTOFF = (1023 * np.log(2.0) * 1e-12) ** 0.25


class _Elimination:
    """Where Dirichlet dofs act in one canonical CSR pattern (sorted, no
    duplicates; a matrix or a _CsrPattern), found once.  ``apply``
    eliminates them symmetrically on the data of a matrix in that pattern;
    ``clear_rows`` clears their rows in any matrix with the pattern's rows
    (a coupling block)."""

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
        """Eliminate on A's data in place, zeros dropped: constrained rows
        and columns cleared, constrained diagonals set to 1 (only one
        missing from the pattern needs a sparse sum) and the cleared
        columns' entries lifted into the returned copy of b.  Returns
        (A, b)."""
        b = b - value * np.bincount(self.lift_rows, A.data[self.lift],
                                    minlength=len(b))
        b[self.dofs] = value
        A.data[self.cleared] = 0.0
        A.data[self.unit] = 1.0
        if self.bare.size:
            A = A + sp.csr_matrix((np.ones(self.bare.size),
                                   (self.bare, self.bare)), shape=A.shape)
        A.eliminate_zeros()
        return A, b

    def clear_rows(self, A):
        """Clear the constrained rows of A on its data in place, zeros
        dropped, and return A."""
        A.data[np.repeat(self.fixed, np.diff(A.indptr))] = 0.0
        A.eliminate_zeros()
        return A


def apply_dirichlet(A: sp.csr_matrix, b: np.ndarray, dofs, value: float):
    """Eliminate Dirichlet dofs symmetrically (see ``_Elimination``, which
    the coupled builder keeps per mesh pair) on a copy of A in canonical
    form.  Returns new (A, b)."""
    A = sp.csr_matrix(A, dtype=float, copy=True)
    A.sum_duplicates()
    return _Elimination(A, dofs).apply(A, b, value)


def dirichlet_dofs(mesh: StructuredMesh, dofmap: DofMap,
                   tag: FacetTag = FacetTag.DIRICHLET_OUTER) -> np.ndarray:
    """Sorted dof indices supported on boundary facets with the given tag."""
    return np.unique(dofmap.facet_dofs(
        mesh.facet_vertices[mesh.facet_tags == tag.value]))


# ======================================================================
# field evaluation and norms
# ======================================================================

def _basis_at_points(mesh, dofmap, points):
    """Locate points (..., dim) and evaluate the cell basis there.

    Returns the dofs of each point's cell and the basis values, both shaped
    (..., n_loc).
    """
    points = np.asarray(points, dtype=float)
    loc = locate_point(mesh, points.reshape(-1, mesh.dim))
    phi = shape_values(mesh.dim, dofmap.m, loc.barycentric)
    lead = points.shape[:-1] + (phi.shape[1],)
    return dofmap.cell_dofs[loc.cell].reshape(lead), phi.reshape(lead)


def evaluate_field(mesh, dofmap, coeffs, points):
    """Evaluate a finite element field at arbitrary points inside the mesh.

    points is one point (dim,) or an array (..., dim); all of them are
    located in one call.  A single point gives a length-1 result.
    """
    dofs, phi = _basis_at_points(mesh, dofmap, np.atleast_2d(points))
    # a stacked matmul gives each point the dot product a one-point call gets
    return (phi[..., None, :] @ coeffs[dofs][..., None])[..., 0, 0]


def l2_error(mesh, dofmap, coeffs, exact):
    """L2 distance between a finite element field and a callable."""
    rule = volume_rule(mesh.dim, 2)  # generous rule, degree >= 4
    vvals = shape_values(mesh.dim, dofmap.m, rule.points)
    adet, _ = cell_geometry(mesh)
    uh = coeffs[dofmap.cell_dofs] @ vvals.T
    diff = uh - np.asarray(exact(rule.points @ mesh.vertices[mesh.cells]),
                           dtype=float)
    return np.sqrt(float(adet @ (diff**2 @ rule.weights)))


def export_matrix(A, path):
    """Write a sparse matrix in Matrix Market format."""
    from scipy.io import mmwrite

    mmwrite(str(path), sp.coo_matrix(A))
