"""Coupling operators between the strip mesh and the box mesh.

Two rectangular matrices tie the meshes together along the strip's bottom
edge gamma: S carries the conormal-derivative jump of the strip solution
into the box problem (rows: box dofs, cols: strip dofs), and D carries the
penalty trace of the box solution into the strip problem (rows: strip dofs,
cols: box dofs).  Together with the two stiffness blocks they form

    [[K_plus, S], [D, K_minus]] [T_plus, T_minus] = [f_plus, f_minus]

with the sign convention of that block system: S stores the negative
flux-jump integral, D stores -alpha times the cross mass matrix.

What does not depend on the coefficients is built once per mesh pair and
kept on the mesh and dof-map objects: the unit cell matrices and CSR
patterns of both stiffness blocks (on each dof map), and the interface
terms (on the strip dof map), which are the gamma quadrature, the box
basis at every gamma point (the only points located, in one call), the
strip basis there (known from the strip's facet rule, so not located), the
unit S and D terms per point and the gamma mass pattern.  The trace gap
reads the same two bases.  A new set of coefficients on the same
objects (another strip conductivity, a Picard step with per-cell
conductivities, per-facet jump weights and a new penalty) then costs one
weighted bincount per block, the Dirichlet masks on the matrix data, the
box load and, in the solver, one factorization per block; the strip load
is kept too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import NonpositiveCoefficient, OrphanInterfaceFacet
from .fem import (LASER_CUTOFF, DofMap, _as_callable, _basis_at_points,
                  _boundary_mass_pattern, _CsrPattern, apply_dirichlet,
                  assemble_load, assemble_stiffness, dirichlet_dofs,
                  facet_rule, laser_flux, shape_bary_grads, shape_values)
from .mesh import (FacetTag, GeometryConfig, StructuredMesh, cell_geometry,
                   memoised)


def default_alpha(kappa_minus, h_minus):
    """Penalty weight: large enough that the trace error is negligible,
    scaled with the coefficient and the strip resolution."""
    return 1e6 * max(1.0, float(np.max(kappa_minus))) / h_minus


@dataclass(frozen=True)
class ProblemData:
    """Volume source, top-wall flux and wall temperature.

    f and q may be constants or callables of coordinate arrays (..., dim);
    q = None selects the concentrated laser flux for the geometry.  That
    flux carries its support, the spot centre (L/2 in each wall coordinate)
    and the half-width ``fem.LASER_CUTOFF`` past which it is exactly 0.0,
    so the top-flux quadrature visits only the facets near the spot; a
    user-supplied q is integrated over every top facet.
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
            q = functools.partial(laser_flux, dim=geom.dim, L=geom.L)
            q.support = (np.full(geom.dim - 1, geom.L / 2.0), LASER_CUTOFF)
            return q
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

class _Interface:
    """The coefficient-free cross-mesh terms of a mesh pair.

    Every gamma point is a facet-rule point, rule.points @ vertices[facet],
    of a strip facet on gamma, so its strip barycentrics are known (see
    _owner_barycentrics) and only the box basis is located, in one call.
    Holds the gamma quadrature weights wq (nf, nq), the strip trace basis
    (facet dofs ldofs (nf, n) and values lvals (nq, n), the same on every
    facet), the box basis at the nf * nq points (gdofs, gvals), the unit S
    and D patterns with one owner per point, and the strip's gamma mass
    pattern with its facet scales.
    """

    def __init__(self, global_mesh, local_mesh, global_dofmap, local_dofmap):
        dim = local_mesh.dim
        rule = facet_rule(dim, max(local_dofmap.m, global_dofmap.m))
        nq = len(rule.weights)
        gamma = local_mesh.facet_tags == FacetTag.INTERFACE_GAMMA.value
        if not gamma.any():
            raise OrphanInterfaceFacet("mesh has no interface facets")
        facets = local_mesh.facet_vertices[gamma]
        owners = local_mesh.facet_cells[gamma]
        ref_measure = 1.0 if dim == 2 else 0.5
        self.wq = rule.weights * (local_mesh.facet_measure(facets)
                                  / ref_measure)[:, None]
        xq = rule.points @ local_mesh.vertices[facets]
        self.gdofs, self.gvals = gdofs, gvals = _basis_at_points(
            global_mesh, global_dofmap, xq.reshape(-1, dim))
        # S: normal derivative of the strip basis in each facet's owner cell
        lam = _owner_barycentrics(local_mesh, facets, owners,
                                  rule.points).reshape(-1, dim + 1)
        cells = np.repeat(owners, nq)
        grads = np.einsum("pna,pad->pnd",
                          shape_bary_grads(dim, local_dofmap.m, lam),
                          cell_geometry(local_mesh)[1][cells])
        normals = local_mesh.facet_normal(facets, owners)
        dn = np.einsum("pnd,pd->pn", grads, np.repeat(normals, nq, axis=0))
        self.S = _CsrPattern(gvals[:, :, None] * dn[:, None, :],
                             gdofs[:, :, None],
                             local_dofmap.cell_dofs[cells][:, None, :],
                             (global_dofmap.n_dofs, local_dofmap.n_dofs))
        # D: the strip trace basis on each facet times the box basis
        self.ldofs = local_dofmap.facet_dofs(facets)
        self.lvals = shape_values(dim - 1, local_dofmap.m, rule.points)
        lvals = np.tile(self.lvals, (len(facets), 1))
        self.D = _CsrPattern(lvals[:, :, None] * gvals[:, None, :],
                             np.repeat(self.ldofs, nq, axis=0)[:, :, None],
                             gdofs[:, None, :],
                             (local_dofmap.n_dofs, global_dofmap.n_dofs))
        self.gamma_mass, self.gamma_scale = _boundary_mass_pattern(
            local_mesh, local_dofmap, facets)


def _owner_barycentrics(mesh, facets, owners, points):
    """Barycentrics (nf, nq, dim+1), in the owner cells (nf,) of boundary
    facets (nf, dim), of the facet points with facet barycentrics points
    (nq, dim): each column of points moves to its vertex's slot in the
    owner, and the owner's vertex off the facet gets 0."""
    at_vertex = mesh.cells[owners][:, None, :] == facets[:, :, None]
    return points @ at_vertex


def _interface(global_mesh, local_mesh, global_dofmap, local_dofmap):
    """The _Interface of a mesh pair, kept on the strip dof map."""
    return memoised(local_dofmap, "_interface",
                    (global_mesh, local_mesh, global_dofmap),
                    lambda: _Interface(global_mesh, local_mesh, global_dofmap,
                                       local_dofmap))


def assemble_flux_jump_S(global_mesh, local_mesh, global_dofmap, local_dofmap,
                         kappa_plus, kappa_minus, facet_weights=None):
    """Matrix of sum_e int_e (kappa_plus - kappa_minus) (grad phi_loc . n) phi_glob.

    Rows are box dofs, columns strip dofs.  The normal gradient is taken
    in the strip cell owning each quadrature point's facet; the normal
    points out of the strip.  facet_weights overrides
    the constant jump weight per facet (used by the nonlinear driver).
    The unit term of every quadrature point is built on the first call for
    a mesh pair; later calls only weight and sum them.
    """
    terms = _interface(global_mesh, local_mesh, global_dofmap, local_dofmap)
    weight = np.full(len(terms.wq), kappa_plus - kappa_minus) \
        if facet_weights is None else np.asarray(facet_weights, dtype=float)
    S = terms.S.matrix((weight[:, None] * terms.wq).ravel())
    S.eliminate_zeros()
    return S


def assemble_penalty_D(global_mesh, local_mesh, global_dofmap, local_dofmap,
                       alpha):
    """-alpha times the cross mass matrix on the interface.

    Rows are strip dofs, columns box dofs.  Built, like S, from unit terms
    kept per mesh pair.
    """
    if alpha < 0:
        raise NonpositiveCoefficient("penalty weight must be nonnegative")
    terms = _interface(global_mesh, local_mesh, global_dofmap, local_dofmap)
    D = terms.D.matrix((-alpha * terms.wq).ravel())
    D.eliminate_zeros()
    return D


def _zero_rows(A, rows):
    """Clear the given rows of A on its data, in place."""
    mask = np.zeros(A.shape[0], dtype=bool)
    mask[rows] = True
    A.data[np.repeat(mask, np.diff(A.indptr))] = 0.0
    A.eliminate_zeros()
    return A


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
    plain scalar arguments cover the piecewise-constant case.  flux_scale,
    which replaces kappa_plus/kappa_minus on the top flux, is called once
    per flux call of the box load, only on the points where the flux is
    nonzero.  The strip load before its Dirichlet rows depends on no
    coefficient and is kept on the strip dof map for the same geometry and
    problem data (f, q and flux_panel, compared by identity).
    """
    problem = problem or ProblemData()
    if np.ndim(kappa_minus) != 0:
        raise ValueError("kappa_minus must be a scalar; per-cell strip "
                         "values go through kappa_minus_cells")
    if kappa_plus <= 0 or kappa_minus <= 0:
        raise NonpositiveCoefficient("conductivities must be positive")
    if alpha is None:
        alpha = default_alpha(kappa_minus, local_mesh.h)

    kp_cells = kappa_plus if kappa_plus_cells is None else kappa_plus_cells
    km_cells = kappa_minus if kappa_minus_cells is None else kappa_minus_cells

    # on a new mesh pair S's assembly builds the kept interface terms; D
    # and the gamma mass below reuse them
    S = (-assemble_flux_jump_S(global_mesh, local_mesh, global_dofmap,
                               local_dofmap, kappa_plus, kappa_minus,
                               facet_weights=jump_facet_weights)).tocsr()
    D = assemble_penalty_D(global_mesh, local_mesh, global_dofmap,
                           local_dofmap, alpha)
    terms = _interface(global_mesh, local_mesh, global_dofmap, local_dofmap)
    K_plus = assemble_stiffness(global_mesh, global_dofmap, kp_cells)
    K_minus = (assemble_stiffness(local_mesh, local_dofmap, km_cells)
               + terms.gamma_mass.matrix(alpha * terms.gamma_scale)).tocsr()

    q = problem.flux(geom)
    f, qfun = _as_callable(problem.f), _as_callable(q)
    strip_floor = geom.H - geom.H_minus
    ratio = kappa_plus / kappa_minus

    def f_tilde(x):
        # Evaluate the scale only inside the strip footprint: callable
        # scales may be undefined outside it (e.g. local-field lookups).
        x = np.asarray(x)
        inside = x[..., -1] >= strip_floor - 1e-12
        out = np.broadcast_to(np.asarray(f(x), dtype=float),
                              inside.shape).copy()
        if np.any(inside):
            out[inside] *= ratio if flux_scale is None else \
                flux_scale(x[inside])
        return out

    def q_tilde(x):
        # the top facets lie on the strip's top, inside its footprint
        out = np.broadcast_to(np.asarray(qfun(x), dtype=float),
                              x.shape[:-1])
        if flux_scale is None:
            return out * ratio
        out = out.copy()
        hot = out != 0.0
        # a zero flux stays zero under any finite scale
        if np.any(hot):
            out[hot] *= flux_scale(x[hot])
        return out

    q_tilde.support = getattr(q, "support", None)

    volume = callable(problem.f) or float(problem.f) != 0.0
    f_plus = assemble_load(global_mesh, global_dofmap,
                           f_tilde if volume else 0.0, q_tilde,
                           q_panel=problem.flux_panel)

    def strip_load():
        b = assemble_load(local_mesh, local_dofmap, problem.f, q,
                          q_panel=problem.flux_panel)
        b.setflags(write=False)
        return b

    f_minus = memoised(
        local_dofmap, "_strip_load",
        (local_mesh, geom, problem.f, problem.q, problem.flux_panel),
        strip_load)

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
        T_D=problem.T_D,
        global_dirichlet=gdir, local_dirichlet=ldir)


def interface_trace_gap(ops: CoupledOperators, T_plus, T_minus):
    """L2 norm over gamma of the mismatch between the strip trace and the
    box trace; shrinks like 1/alpha.  Both traces come from the bases the
    interface terms keep at the gamma points, so nothing is located."""
    terms = _interface(ops.global_mesh, ops.local_mesh, ops.global_dofmap,
                       ops.local_dofmap)
    tm = (T_minus[terms.ldofs] @ terms.lvals.T).ravel()
    tp = (terms.gvals * T_plus[terms.gdofs]).sum(axis=1)
    return np.sqrt(float(np.sum(terms.wq.ravel() * (tm - tp) ** 2)))
