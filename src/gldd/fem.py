"""Lagrange finite elements of degree 1 and 2 on simplicial meshes.

Cell terms are computed for all cells at once from the stacked geometry
of ``mesh.cell_geometry`` (one einsum for the stiffness, one source call on
every quadrature point for the load), and facet terms for all facets at
once, except the top-flux quadrature, which goes facet by facet.  Matrix
entries are laid out as COO triplets in ascending cell (or facet) order
and summed into CSR once by ``_triplets_to_csr``, so results are
deterministic for fixed numpy and scipy versions.  Matrices are CSR,
vectors plain numpy arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (ForeignFacet, IndexOutOfRange, NonpositiveCoefficient,
                     UnsupportedDegree)
from .mesh import FacetTag, StructuredMesh, cell_geometry, locate_point

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
    edges in lexicographic vertex order.
    """

    def __init__(self, mesh: StructuredMesh, m: int):
        if m not in (1, 2):
            raise UnsupportedDegree(f"degree must be 1 or 2, got {m}")
        self.mesh = mesh
        self.m = m
        nv = mesh.num_vertices
        if m == 1:
            self.cell_dofs = mesh.cells.copy()
            self.n_dofs = nv
            self.dof_coords = mesh.vertices.copy()
            self.edge_dofs = {}
        else:
            edge_dofs: dict = {}
            pairs = _local_edges(mesh.dim)
            cell_dofs = np.empty((mesh.num_cells, mesh.dim + 1 + len(pairs)),
                                 dtype=np.int64)
            cell_dofs[:, :mesh.dim + 1] = mesh.cells
            for c, cell in enumerate(mesh.cells):
                for e, (a, b) in enumerate(pairs):
                    key = tuple(sorted((cell[a], cell[b])))
                    if key not in edge_dofs:
                        edge_dofs[key] = nv + len(edge_dofs)
                    cell_dofs[c, mesh.dim + 1 + e] = edge_dofs[key]
            self.cell_dofs = cell_dofs
            self.edge_dofs = edge_dofs
            self.n_dofs = nv + len(edge_dofs)
            coords = np.empty((self.n_dofs, mesh.dim))
            coords[:nv] = mesh.vertices
            for (a, b), d in edge_dofs.items():
                coords[d] = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
            self.dof_coords = coords
        self.cell_dofs.setflags(write=False)
        self.dof_coords.setflags(write=False)

    def facet_dofs(self, facet):
        """Dofs supported on a boundary facet: its vertices, then edge dofs."""
        dofs = list(facet)
        if self.m == 2:
            vs = list(facet)
            if len(vs) == 2:
                local = [(0, 1)]
            else:
                local = [(0, 1), (0, 2), (1, 2)]
            for a, b in local:
                dofs.append(self.edge_dofs[tuple(sorted((vs[a], vs[b])))])
        return dofs


def _local_edges(dim):
    if dim == 2:
        return [(0, 1), (0, 2), (1, 2)]
    return [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


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


def _facet_shape_values(m, mu):
    """Trace shape functions on a facet simplex, matching facet_dofs order."""
    mu = np.atleast_2d(mu)
    k = mu.shape[1]  # 2 for segments, 3 for triangles
    if m == 1:
        return mu.copy()
    cols = [mu[:, i] * (2.0 * mu[:, i] - 1.0) for i in range(k)]
    local = [(0, 1)] if k == 2 else [(0, 1), (0, 2), (1, 2)]
    for a, b in local:
        cols.append(4.0 * mu[:, a] * mu[:, b])
    return np.stack(cols, axis=1)


# ======================================================================
# assembly
# ======================================================================

def _triplets_to_csr(vals, rows, cols, shape):
    """Sum COO triplets into CSR; rows and cols broadcast to vals' shape."""
    A = sp.coo_matrix((vals.ravel(),
                       (np.broadcast_to(rows, vals.shape).ravel(),
                        np.broadcast_to(cols, vals.shape).ravel())),
                      shape=shape).tocsr()
    A.sum_duplicates()
    return A


def assemble_stiffness(mesh: StructuredMesh, dofmap: DofMap, kappa) -> sp.csr_matrix:
    """Stiffness matrix for -div(kappa grad u); kappa scalar or per-cell array."""
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (mesh.num_cells,))
    if np.any(kappa <= 0):
        raise NonpositiveCoefficient("kappa must be strictly positive")
    rule = volume_rule(mesh.dim, dofmap.m)
    dlam = shape_bary_grads(mesh.dim, dofmap.m, rule.points)
    adet, bgrads = cell_geometry(mesh)
    # weights sum to the reference measure, so |detJ| is the whole Jacobian
    g = np.einsum("qna,cad->cqnd", dlam, bgrads)
    ke = (kappa * adet)[:, None, None] * np.einsum(
        "q,cqnd,cqmd->cnm", rule.weights, g, g)
    dofs = dofmap.cell_dofs
    return _triplets_to_csr(ke, dofs[:, :, None], dofs[:, None, :],
                            (dofmap.n_dofs, dofmap.n_dofs))


def assemble_boundary_mass(mesh: StructuredMesh, dofmap: DofMap, facets,
                           weight: float) -> sp.csr_matrix:
    """weight * mass matrix over the given boundary facets.

    Facets must be boundary facets of the mesh, in any vertex order;
    anything else raises ForeignFacet.
    """
    facets = np.asarray(facets, dtype=np.int64).reshape(-1, mesh.dim)
    keys = np.sort(facets, axis=1)
    # one id per distinct vertex set, the mesh's boundary facets first
    known = len(mesh.facet_vertices)
    _, ids = np.unique(np.vstack([mesh.facet_vertices, keys]), axis=0,
                       return_inverse=True)
    ids = ids.reshape(-1)
    foreign = ~np.isin(ids[known:], ids[:known])
    if foreign.any():
        raise ForeignFacet(
            f"facet {tuple(facets[foreign.argmax()].tolist())} is not a "
            "boundary facet")
    rule = facet_rule(mesh.dim, dofmap.m)
    vals_at = _facet_shape_values(dofmap.m, rule.points)
    ref_measure = 1.0 if mesh.dim == 2 else 0.5
    ref_mass = np.einsum("q,qn,qm->nm", rule.weights, vals_at, vals_at)
    scale = weight * (mesh.facet_measure(keys) / ref_measure)
    dofs = np.array([dofmap.facet_dofs(tuple(k)) for k in keys],
                    dtype=np.int64).reshape(len(keys), vals_at.shape[1])
    return _triplets_to_csr(scale[:, None, None] * ref_mass,
                            dofs[:, :, None], dofs[:, None, :],
                            (dofmap.n_dofs, dofmap.n_dofs))


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
                v00 = (corner[0] * (n - i - j) + corner[1] * i + corner[2] * j) / n
                v10 = v00 + (corner[1] - corner[0]) / n
                v01 = v00 + (corner[2] - corner[0]) / n
                v11 = v10 + v01 - v00
                lower = np.vstack([v00, v10, v01])
                pts.append(base.points @ lower)
                wts.append(base.weights / n ** 2)
                if j < n - i - 1:
                    upper = np.vstack([v11, v01, v10])
                    pts.append(base.points @ upper)
                    wts.append(base.weights / n ** 2)
    return QuadratureRule(np.vstack(pts), np.concatenate(wts), base.degree)


def assemble_load(mesh: StructuredMesh, dofmap: DofMap, f=0.0, q=None,
                  q_panel=None) -> np.ndarray:
    """Load vector: volume source f plus surface flux q on the top facets.

    Parameters
    ----------
    f : volume density, callable of coordinates (..., dim) or constant
    q : flux density on NEUMANN_TOP facets, callable or constant; None skips
        the boundary term
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
        ref_facet = 1.0 if mesh.dim == 2 else 0.5
        shape_cache = {}
        for facet, tag in zip(mesh.facet_vertices, mesh.facet_tags):
            if tag != FacetTag.NEUMANN_TOP.value:
                continue
            key = tuple(facet)
            dofs = np.asarray(dofmap.facet_dofs(key))
            pts = mesh.vertices[list(key)]
            splits = 0
            if q_panel is not None:
                diam = max(np.linalg.norm(pts[i] - pts[j])
                           for i in range(len(pts)) for j in range(i))
                if diam > q_panel:
                    splits = min(8, math.ceil(math.log2(diam / q_panel)))
            if splits not in shape_cache:
                rule = _composite_facet_rule(mesh.dim, dofmap.m, splits)
                shape_cache[splits] = (rule,
                                       _facet_shape_values(dofmap.m,
                                                           rule.points))
            frule, fvals = shape_cache[splits]
            xq = frule.points @ pts
            qq = np.asarray(qfun(xq), dtype=float)
            measure = mesh.facet_measure(key)
            b_loc = (measure / ref_facet) * np.einsum("q,q,qn->n",
                                                      frule.weights, qq, fvals)
            np.add.at(b, dofs, b_loc)
    return b


def laser_flux(x, dim, L=1.0 / 40.0):
    """Surface heat flux concentrated at the middle of the top wall.

    2D: 4e4 * exp(-(L/2 - x)^4 / 1e-12); 3D adds the same quartic in y.
    Accepts a single point or an array of points (..., dim).
    """
    x = np.asarray(x, dtype=float)
    expo = (L / 2.0 - x[..., 0]) ** 4
    if dim == 3:
        expo = expo + (L / 2.0 - x[..., 1]) ** 4
    return 0.4e5 * np.exp(-expo / 1e-12)


def apply_dirichlet(A: sp.csr_matrix, b: np.ndarray, dofs, value: float):
    """Eliminate Dirichlet dofs symmetrically.

    Constrained rows and columns are zeroed, the diagonal is set to 1 with
    the boundary value on the right-hand side, and the column contribution
    is moved into b for the remaining rows.  Returns new (A, b).
    """
    n = A.shape[0]
    dofs = np.asarray(dofs, dtype=np.int64)
    if dofs.size and (dofs.min() < 0 or dofs.max() >= n):
        raise IndexOutOfRange("dirichlet dof index outside [0, n)")
    mask = np.zeros(n, dtype=bool)
    mask[dofs] = True
    indicator = mask.astype(float)
    b_new = b - value * (A @ indicator)
    b_new[mask] = value
    keep = sp.diags((~mask).astype(float), format="csr")
    pin = sp.diags(mask.astype(float), format="csr")
    A_new = (keep @ A @ keep + pin).tocsr()
    A_new.eliminate_zeros()
    return A_new, b_new


def dirichlet_dofs(mesh: StructuredMesh, dofmap: DofMap,
                   tag: FacetTag = FacetTag.DIRICHLET_OUTER) -> np.ndarray:
    """Sorted dof indices supported on boundary facets with the given tag."""
    found = set()
    for facet, t in zip(mesh.facet_vertices, mesh.facet_tags):
        if t == tag.value:
            found.update(dofmap.facet_dofs(tuple(facet)))
    return np.array(sorted(found), dtype=np.int64)


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
