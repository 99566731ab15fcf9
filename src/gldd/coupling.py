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
patterns of both stiffness blocks; the interface terms (the gamma
quadrature, the box basis at every gamma point, the only points located,
the strip basis there from its facet rule, and the unit S and D terms);
the block layouts (the Dirichlet dofs, their elimination in each stiffness
pattern, the gamma mass and its slots in the strip's); and both loads
unscaled.  A new set of coefficients on the same objects (another strip
conductivity, or a Picard step's per-cell conductivities, jump weights and
penalty) then costs one weighted bincount per block, written into that
block's one matrix in place, the box load outside + ratio * inside (only a
Picard flux scale integrates it again) and one factorization per block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import NonpositiveCoefficient, OrphanInterfaceFacet
from .fem import (LASER_CUTOFF, DofMap, _as_callable, _basis_at_points,
                  _boundary_mass_pattern, _CsrPattern, _Elimination,
                  _stiffness_pattern, assemble_load, assemble_stiffness,
                  dirichlet_dofs, facet_rule, laser_flux, shape_bary_grads,
                  shape_values)
from .linalg import LinearSolver, SolverConfig
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
    """All blocks of the coupled system, Dirichlet conditions eliminated,
    and the owner of the block solves on them (solvers)."""

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

    def solvers(self, config: SolverConfig):
        """The (plus, minus) LinearSolver pair on K_plus and K_minus for
        config, made once and kept while both blocks are the same objects,
        so the sweep, the radius, M and the partial sums on these
        operators share one factorization per block."""
        pairs = memoised(self, "_solvers", (self.K_plus, self.K_minus), dict)
        if config not in pairs:
            pairs[config] = (LinearSolver(self.K_plus, config),
                             LinearSolver(self.K_minus, config))
        return pairs[config]


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
    facet), the box basis at the nf * nq points (gdofs, gvals), and the
    unit S and D patterns with one owner per point.
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


# ----------------------------------------------------------------------
# full system builder
# ----------------------------------------------------------------------

class _Layout:
    """The Dirichlet elimination in each stiffness pattern of a mesh pair
    (which also clears the constrained rows of S and D), and the gamma mass
    with the slot of each of its entries in the strip stiffness pattern,
    which holds them all: each facet's dofs are its owner cell's."""

    def __init__(self, global_mesh, local_mesh, global_dofmap, local_dofmap):
        plus = _stiffness_pattern(global_mesh, global_dofmap)
        minus = _stiffness_pattern(local_mesh, local_dofmap)
        self.plus = _Elimination(plus, dirichlet_dofs(global_mesh,
                                                      global_dofmap))
        self.minus = _Elimination(minus, dirichlet_dofs(local_mesh,
                                                        local_dofmap))
        gamma = local_mesh.facet_tags == FacetTag.INTERFACE_GAMMA.value
        self.gamma_mass, self.gamma_scale = _boundary_mass_pattern(
            local_mesh, local_dofmap, local_mesh.facet_vertices[gamma])

        def keys(pattern):
            n = pattern.shape[0]
            rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
            return rows * n + pattern.indices

        self.gamma_slots = np.searchsorted(keys(minus), keys(self.gamma_mass))


def _load(geom, mesh, dofmap, problem, flux_scale=None):
    """The load on mesh before its Dirichlet rows, with the volume source
    inside the strip footprint and the top flux (whose support lies on the
    strip's top) multiplied by flux_scale(x).

    flux_scale is called only inside the footprint (callable scales may be
    undefined outside it, e.g. local-field lookups) and, on the flux, only
    where the flux is nonzero (a zero flux stays zero under any finite
    scale).  Without it the unscaled load is returned in two parts,
    (outside, inside) the footprint, kept on the dof map for the same
    geometry and problem data (f, q and flux_panel, compared by identity).
    """
    q = problem.flux(geom)
    volume = callable(problem.f) or float(problem.f) != 0.0

    def scaled(fun, where, scale):
        call = _as_callable(fun)
        def g(x):
            out = np.broadcast_to(np.asarray(call(x), dtype=float),
                                  x.shape[:-1]).copy()
            hot = where(x, out)
            if np.any(hot):
                out[hot] *= scale(x[hot])
            return out
        g.support = getattr(fun, "support", None)
        return g

    def inside(x, _):
        return x[..., -1] >= geom.H - geom.H_minus - 1e-12

    def load(source, flux):
        return assemble_load(mesh, dofmap, source if volume else 0.0, flux,
                             q_panel=problem.flux_panel)

    if flux_scale is not None:
        return load(scaled(problem.f, inside, flux_scale),
                    scaled(q, lambda x, v: v != 0.0, flux_scale))

    def parts():
        kept = (load(scaled(problem.f, inside, lambda x: 0.0), None),
                load(scaled(problem.f, lambda x, v: ~inside(x, v),
                            lambda x: 0.0), q))
        for b in kept:
            b.setflags(write=False)
        return kept

    return memoised(dofmap, "_load", (mesh, geom, problem.f, problem.q,
                                      problem.flux_panel), parts)


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
    nonzero.

    Each block is the one matrix its assembly returns, changed on its data
    in place through the _Layout kept for the mesh pair.  Both loads are
    kept unscaled (see _load), the box load as (outside, inside) so that
    f_plus = outside + (kappa_plus/kappa_minus) * inside; only a
    flux_scale integrates the box load again.
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

    # on a new mesh pair S's assembly builds the kept interface terms and
    # the stiffness assembly the kept patterns; D and the layout reuse them
    S = assemble_flux_jump_S(global_mesh, local_mesh, global_dofmap,
                             local_dofmap, kappa_plus, kappa_minus,
                             facet_weights=jump_facet_weights)
    np.negative(S.data, out=S.data)
    D = assemble_penalty_D(global_mesh, local_mesh, global_dofmap,
                           local_dofmap, alpha)
    K_plus = assemble_stiffness(global_mesh, global_dofmap, kp_cells)
    K_minus = assemble_stiffness(local_mesh, local_dofmap, km_cells)
    layout = memoised(local_dofmap, "_layout",
                      (global_mesh, local_mesh, global_dofmap),
                      functools.partial(_Layout, global_mesh, local_mesh,
                                        global_dofmap, local_dofmap))
    S = layout.plus.clear_rows(S)
    D = layout.minus.clear_rows(D)
    K_minus.data[layout.gamma_slots] += layout.gamma_mass.data(
        alpha * layout.gamma_scale)

    if flux_scale is None:
        outside, inside = _load(geom, global_mesh, global_dofmap, problem)
        f_plus = outside + (kappa_plus / kappa_minus) * inside
    else:
        f_plus = _load(geom, global_mesh, global_dofmap, problem, flux_scale)
    # the strip lies inside its own footprint
    f_minus = _load(geom, local_mesh, local_dofmap, problem)[1]
    K_plus, f_plus = layout.plus.apply(K_plus, f_plus, problem.T_D)
    K_minus, f_minus = layout.minus.apply(K_minus, f_minus, problem.T_D)

    return CoupledOperators(
        K_plus=K_plus, K_minus=K_minus, S=S, D=D,
        f_plus=f_plus, f_minus=f_minus,
        geom=geom, global_mesh=global_mesh, local_mesh=local_mesh,
        global_dofmap=global_dofmap, local_dofmap=local_dofmap,
        T_D=problem.T_D,
        global_dirichlet=layout.plus.dofs,
        local_dirichlet=layout.minus.dofs)


def interface_trace_gap(ops: CoupledOperators, T_plus, T_minus):
    """L2 norm over gamma of the mismatch between the strip trace and the
    box trace; shrinks like 1/alpha.  Both traces come from the bases the
    interface terms keep at the gamma points, so nothing is located."""
    terms = _interface(ops.global_mesh, ops.local_mesh, ops.global_dofmap,
                       ops.local_dofmap)
    tm = (T_minus[terms.ldofs] @ terms.lvals.T).ravel()
    tp = (terms.gvals * T_plus[terms.gdofs]).sum(axis=1)
    return np.sqrt(float(np.sum(terms.wq.ravel() * (tm - tp) ** 2)))
