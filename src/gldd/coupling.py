"""Coupling operators between the strip mesh and the box mesh.

Two rectangular matrices tie the meshes together along the strip's bottom
edge gamma: S carries the conormal-derivative jump of the strip solution
into the box problem (rows: box dofs, cols: strip dofs), and D carries the
penalty trace of the box solution into the strip problem (rows: strip dofs,
cols: box dofs).  Together with the two stiffness blocks they form

    [[K_plus, S], [D, K_minus]] [T_plus, T_minus] = [f_plus, f_minus]

with the sign convention of that block system: S stores the negative
flux-jump integral, D stores -alpha times the cross mass matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import NonpositiveCoefficient, OrphanInterfaceFacet
from .fem import (DofMap, _basis_at_points, _facet_shape_values,
                  _triplets_to_csr, apply_dirichlet, assemble_boundary_mass,
                  assemble_load, assemble_stiffness, dirichlet_dofs,
                  evaluate_field, facet_rule, laser_flux, shape_bary_grads)
from .mesh import (FacetTag, GeometryConfig, StructuredMesh, cell_geometry,
                   locate_point)


def default_alpha(kappa_minus, h_minus):
    """Penalty weight: large enough that the trace error is negligible,
    scaled with the coefficient and the strip resolution."""
    return 1e6 * max(1.0, float(np.max(kappa_minus))) / h_minus


@dataclass(frozen=True)
class ProblemData:
    """Volume source, top-wall flux and wall temperature.

    f and q may be constants or callables of coordinate arrays (..., dim);
    q = None selects the concentrated laser flux for the geometry.
    flux_panel is the quadrature panel size used for the top flux: the
    default laser spot is ~1e-3 wide, far below the coarse facet size, so
    facets are subdivided for that integral until panels reach this size.
    """

    f: object = 0.0
    q: object = None
    T_D: float = 293.15
    flux_panel: float = 1e-4

    def flux(self, geom: GeometryConfig):
        if self.q is None:
            return functools.partial(laser_flux, dim=geom.dim, L=geom.L)
        return self.q


@dataclass
class CoupledOperators:
    """All blocks of the coupled system, Dirichlet conditions eliminated."""

    K_plus: sp.csr_matrix
    K_minus: sp.csr_matrix
    S: sp.csr_matrix
    D: sp.csr_matrix
    f_plus: np.ndarray
    f_minus: np.ndarray
    geom: Optional[GeometryConfig] = None
    global_mesh: Optional[StructuredMesh] = None
    local_mesh: Optional[StructuredMesh] = None
    global_dofmap: Optional[DofMap] = None
    local_dofmap: Optional[DofMap] = None
    kappa_plus: float = 1.0
    kappa_minus: float = 1.0
    alpha: float = 0.0
    T_D: float = 0.0
    global_dirichlet: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    local_dirichlet: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    @property
    def n_plus(self):
        return self.K_plus.shape[0]

    @property
    def n_minus(self):
        return self.K_minus.shape[0]


# ----------------------------------------------------------------------
# cross-mesh assembly
# ----------------------------------------------------------------------

def _interface_quadrature(local_mesh, m):
    """Quadrature points/weights/normals on all coupling facets at once.

    Returns (facets (nf, dim), normals (nf, dim), xq (nf, nq, dim),
    wq (nf, nq)), facets in interface_facets order and wq scaled to
    physical measure.
    """
    rule = facet_rule(local_mesh.dim, m)
    ref_measure = 1.0 if local_mesh.dim == 2 else 0.5
    gamma = local_mesh.facet_tags == FacetTag.INTERFACE_GAMMA.value
    if not gamma.any():
        raise OrphanInterfaceFacet("mesh has no interface facets")
    facets = local_mesh.facet_vertices[gamma]
    normals = local_mesh.facet_normal(facets, local_mesh.facet_cells[gamma])
    xq = rule.points @ local_mesh.vertices[facets]
    wq = rule.weights * (local_mesh.facet_measure(facets) / ref_measure)[:, None]
    return facets, normals, xq, wq


def assemble_flux_jump_S(global_mesh, local_mesh, global_dofmap, local_dofmap,
                         kappa_plus, kappa_minus, facet_weights=None):
    """Matrix of sum_e int_e (kappa_plus - kappa_minus) (grad phi_loc . n) phi_glob.

    Rows are box dofs, columns strip dofs.  The normal gradient is taken
    from the strip cell holding each quadrature point, i.e. the cell owning
    its facet; the normal points out of the strip.  facet_weights overrides
    the constant jump weight per facet (used by the nonlinear driver).
    """
    _facets, normals, xq, wq = _interface_quadrature(
        local_mesh, max(local_dofmap.m, global_dofmap.m))
    weight = np.full(len(normals), kappa_plus - kappa_minus) \
        if facet_weights is None else np.asarray(facet_weights, dtype=float)
    keep = weight != 0.0
    shape = (global_dofmap.n_dofs, local_dofmap.n_dofs)
    if not keep.any():
        return sp.csr_matrix(shape)
    dim, nq = local_mesh.dim, xq.shape[1]
    pts = xq[keep].reshape(-1, dim)
    wq = (weight[keep, None] * wq[keep]).ravel()
    normals = np.repeat(normals[keep], nq, axis=0)

    lcells, lam = locate_point(local_mesh, pts)
    bgrads = cell_geometry(local_mesh)[1][lcells]
    dlam = shape_bary_grads(dim, local_dofmap.m, lam)
    grads = np.einsum("pna,pad->pnd", dlam, bgrads)
    dn = np.einsum("pnd,pd->pn", grads, normals)
    gdofs, gvals = _basis_at_points(global_mesh, global_dofmap, pts)
    vals = wq[:, None, None] * (gvals[:, :, None] * dn[:, None, :])
    return _triplets_to_csr(vals, gdofs[:, :, None],
                            local_dofmap.cell_dofs[lcells][:, None, :], shape)


def assemble_penalty_D(global_mesh, local_mesh, global_dofmap, local_dofmap,
                       alpha):
    """-alpha times the cross mass matrix on the interface.

    Rows are strip dofs, columns box dofs.
    """
    if alpha < 0:
        raise NonpositiveCoefficient("penalty weight must be nonnegative")
    facets, _normals, xq, wq = _interface_quadrature(
        local_mesh, max(local_dofmap.m, global_dofmap.m))
    mu = _facet_param(local_mesh, facets, xq)
    lvals = _facet_shape_values(local_dofmap.m, mu.reshape(-1, mu.shape[2]))
    lvals = lvals.reshape(mu.shape[:2] + lvals.shape[1:])
    ldofs = np.array([local_dofmap.facet_dofs(tuple(f)) for f in facets])
    gdofs, gvals = _basis_at_points(global_mesh, global_dofmap, xq)
    vals = (-alpha * wq)[:, :, None, None] * (
        lvals[:, :, :, None] * gvals[:, :, None, :])
    return _triplets_to_csr(vals, ldofs[:, None, :, None],
                            gdofs[:, :, None, :],
                            (local_dofmap.n_dofs, global_dofmap.n_dofs))


def _facet_param(mesh, facets, xq):
    """Barycentric coordinates (nf, nq, dim) of points xq (nf, nq, dim) on
    boundary facets (nf, dim), from the Gram system of the facet edges."""
    pts = mesh.vertices[facets]
    e = pts[:, 1:] - pts[:, :1]
    rel = xq - pts[:, :1]
    # a matrix-vector product per edge: one stacked matrix product rounds
    # differently and moves D in the last bit
    rhs = np.concatenate([rel @ e[:, i, :, None] for i in range(mesh.dim - 1)],
                         axis=2)
    gram = e @ np.swapaxes(e, 1, 2)
    if mesh.dim == 2:
        s = rhs / gram
    else:
        s = np.swapaxes(np.linalg.solve(gram, np.swapaxes(rhs, 1, 2)), 1, 2)
    return np.concatenate([1.0 - s.sum(axis=2, keepdims=True), s], axis=2)


def _zero_rows(A, rows):
    if len(rows) == 0:
        return A.tocsr()
    mask = np.ones(A.shape[0])
    mask[rows] = 0.0
    out = (sp.diags(mask) @ A).tocsr()
    out.eliminate_zeros()
    return out


# ----------------------------------------------------------------------
# full system builder
# ----------------------------------------------------------------------

def build_coupled_operators(geom: GeometryConfig,
                            global_mesh, global_dofmap,
                            local_mesh, local_dofmap,
                            kappa_plus, kappa_minus,
                            alpha=None,
                            problem: ProblemData | None = None,
                            kappa_plus_cells=None,
                            kappa_minus_cells=None,
                            jump_facet_weights=None,
                            flux_scale: Callable | None = None,
                            ) -> CoupledOperators:
    """Assemble and couple both subproblems.

    The box problem keeps kappa_plus everywhere and sees the strip only
    through S and through its scaled data: inside the strip region the
    volume source is multiplied by kappa_plus/kappa_minus, and the top flux
    (whose support lies on the strip's top) likewise.  The strip problem
    gets the penalty terms on gamma.  Dirichlet walls are eliminated
    symmetrically on both blocks; S and D rows at constrained dofs are
    cleared so the identity rows stay exact.

    The per-cell/per-facet overrides exist for the nonlinear driver; the
    plain scalar arguments cover the piecewise-constant case.
    """
    problem = problem or ProblemData()
    if kappa_plus <= 0 or (np.ndim(kappa_minus) == 0 and kappa_minus <= 0):
        raise NonpositiveCoefficient("conductivities must be positive")
    if alpha is None:
        alpha = default_alpha(kappa_minus, local_mesh.h)

    kp_cells = kappa_plus if kappa_plus_cells is None else kappa_plus_cells
    km_cells = kappa_minus if kappa_minus_cells is None else kappa_minus_cells

    K_plus = assemble_stiffness(global_mesh, global_dofmap, kp_cells)
    K_minus = assemble_stiffness(local_mesh, local_dofmap, km_cells)
    gamma = local_mesh.facet_vertices[
        local_mesh.facet_tags == FacetTag.INTERFACE_GAMMA.value]
    K_minus = (K_minus + assemble_boundary_mass(local_mesh, local_dofmap,
                                                gamma, alpha)).tocsr()

    q = problem.flux(geom)
    strip_floor = geom.H - geom.H_minus

    if flux_scale is None:
        ratio = kappa_plus / kappa_minus

        def scale(x):
            return np.full(np.asarray(x).shape[:-1], ratio)
    else:
        scale = flux_scale

    def _scaled(base, x):
        # Evaluate the scale only where the mask holds: callable scales may
        # be undefined outside the strip footprint (e.g. local-field lookups).
        x = np.asarray(x)
        inside = x[..., -1] >= strip_floor - 1e-12
        out = np.broadcast_to(np.asarray(base, dtype=float),
                              inside.shape).copy()
        if np.any(inside):
            out[inside] *= scale(x[inside])
        return out

    def q_tilde(x):
        return _scaled(_call(q, x), x)

    def f_tilde(x):
        return _scaled(_call(problem.f, x), x)

    f_plus = assemble_load(global_mesh, global_dofmap,
                           f_tilde if _nonzero(problem.f) else 0.0, q_tilde,
                           q_panel=problem.flux_panel)
    f_minus = assemble_load(local_mesh, local_dofmap, problem.f, q,
                            q_panel=problem.flux_panel)

    S_literal = assemble_flux_jump_S(global_mesh, local_mesh, global_dofmap,
                                     local_dofmap, kappa_plus, kappa_minus,
                                     facet_weights=jump_facet_weights)
    S = (-S_literal).tocsr()
    D = assemble_penalty_D(global_mesh, local_mesh, global_dofmap,
                           local_dofmap, alpha)

    gdir = dirichlet_dofs(global_mesh, global_dofmap)
    ldir = dirichlet_dofs(local_mesh, local_dofmap)
    K_plus, f_plus = apply_dirichlet(K_plus, f_plus, gdir, problem.T_D)
    K_minus, f_minus = apply_dirichlet(K_minus, f_minus, ldir, problem.T_D)
    S = _zero_rows(S, gdir)
    D = _zero_rows(D, ldir)

    return CoupledOperators(
        K_plus=K_plus, K_minus=K_minus, S=S, D=D,
        f_plus=f_plus, f_minus=f_minus,
        geom=geom, global_mesh=global_mesh, local_mesh=local_mesh,
        global_dofmap=global_dofmap, local_dofmap=local_dofmap,
        kappa_plus=float(kappa_plus),
        kappa_minus=float(np.mean(kappa_minus)),
        alpha=float(alpha), T_D=problem.T_D,
        global_dirichlet=gdir, local_dirichlet=ldir)


def _call(f, x):
    if callable(f):
        return f(x)
    return np.full(np.asarray(x).shape[:-1], float(f))


def _nonzero(f):
    return callable(f) or float(f) != 0.0


def interface_trace_gap(ops: CoupledOperators, T_plus, T_minus):
    """L2 norm over gamma of the mismatch between the strip trace and the
    box trace; shrinks like 1/alpha."""
    _facets, _normals, xq, wq = _interface_quadrature(
        ops.local_mesh, ops.local_dofmap.m)
    tm = evaluate_field(ops.local_mesh, ops.local_dofmap, T_minus, xq)
    tp = evaluate_field(ops.global_mesh, ops.global_dofmap, T_plus, xq)
    return np.sqrt(float(np.sum(wq * (tm - tp) ** 2)))
