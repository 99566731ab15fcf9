"""Coupling operators between the strip mesh and the box mesh.

Two rectangular matrices tie the meshes together along the strip's bottom
edge gamma: S carries the conormal-derivative jump of the strip solution
into the box problem (rows: box dofs, cols: strip dofs), and D carries the
penalty trace of the box solution into the strip problem (rows: strip dofs,
cols: box dofs).  Together with the two stiffness blocks they form

    [[K_plus, S], [D, K_minus]] [T_plus, T_minus] = [f_plus, f_minus]

with the sign convention of that block system: S stores the negative
flux-jump integral, D stores -alpha times the cross mass matrix, and
neither has an entry on a Dirichlet row.

What does not depend on the coefficients is built once and kept on the
dof map it belongs to: per dof map, the unit cell matrices and CSR
pattern of its stiffness block and the Dirichlet elimination in that
pattern (fem._elimination, shared with solve_fitted); per mesh pair, on
the strip dof map, the interface terms, the one owner of the gamma
quadrature (the box basis at every gamma point, the only points located,
the strip trace basis there from its facet rule, the unit S and D terms
in that form, and the gamma mass with its slots in the strip's pattern);
both loads unscaled; and per box dof map the load a Picard step scales,
the source values and footprint points with the top-flux quadrature, flux
values and nonzero points (fem.ScaledLoad).

A build is of one of two kinds.  A scalar build (kappa_plus, kappa_minus
and their difference as the jump) is, at the default penalty alpha =
default_alpha = 1e6 kappa_minus / h_minus, a multiple of one unit pair
of its mesh pair (_UnitPair: the blocks at kappa = 1, penalty ratio
r = alpha / kappa_minus and a unit jump, assembled once with their
Dirichlet rows eliminated, and the unit lifts of the walls).  It
assembles nothing: it scales copies of the unit blocks, and each load is
the kept unscaled one, the box's as outside + ratio * inside, less the
wall value times kappa times its block's unit lift.  Its block solves
scale the right-hand side of the unit ones, and its iteration operator
is (1 - kappa_minus / kappa_plus) times the unit one.  So the unit box
block and factorization are kept per box dof map, the unit strip block
and factorization and the unit interface block per mesh pair and r, and
every scalar build on them (a coefficient sweep, a set-up, a relaxation
study) assembles and factors nothing; an explicit penalty gets the unit
pair of its own r.  A per-cell build (a Picard step) takes box and strip
conductivities per cell, jump weights per gamma facet and a flux scale,
all four: it costs one weighted bincount per block, written into that
block's one matrix in place (the strip block's penalty alpha * M_gamma
through the kept gamma mass), re-weights the kept box source and flux
values (one scale call per kept point array, the same arrays at every
step) and factors its own two blocks.

CoupledOperators are fixed when built: blocks, loads and the solve state
on them, one dict whose entries are each written once (a scalar build's
unit pair and coefficients, the direct solver pair, the interface
block).  Other blocks come only through dataclasses.replace, whose
operators start with no solve state and factor their own pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import (FINITE, NONNEGATIVE, POSITIVE, InvalidConfig,
                     NonpositiveCoefficient, OrphanInterfaceFacet,
                     check_entries, check_number, check_one_per)
from .fem import (DofMap, ScaledLoad, _as_callable, _basis_at_points,
                  _CsrPattern, _elimination, _facet_mass, _facet_terms,
                  _on_layout, _stiffness_pattern, _zero, assemble_load,
                  assemble_stiffness, facet_rule, laser, shape_bary_grads,
                  shape_values)
from .linalg import (InterfaceBlock, LinearSolver, ScaledSolver,
                     SolverConfig)
from .mesh import FacetTag, GeometryConfig, cell_geometry, memoised


def default_alpha(kappa_minus, h_minus):
    """Penalty weight 1e6 * kappa_minus / h_minus, at the largest value of
    a per-cell kappa_minus: large enough that the trace error is
    negligible, and proportional to the strip coefficient, so that a
    scalar build's K_minus and D are kappa_minus times those of its unit
    pair (_UnitPair)."""
    return 1e6 * float(np.max(kappa_minus)) / h_minus


@dataclass(frozen=True)
class ProblemData:
    """Volume source, top-wall flux and wall temperature.

    f and q may be finite constants or callables of coordinate arrays
    (..., dim); q = None selects ``fem.laser``, the concentrated laser flux
    on the geometry, with its support and factors.  A user-supplied q is
    integrated over every top facet by the composite rule, unless it
    carries support or factors of its own.
    flux_panel is the quadrature panel size used for the top flux: the
    default laser spot is ~1e-3 wide, far below the coarse facet size, so
    the top facets share one rule for it, ceil(w / flux_panel) pieces per
    axis (at most 256), w the widest visited facet's diameter.
    """

    f: object = 0.0
    q: object = None
    T_D: float = 293.15
    flux_panel: float = 1e-4

    def __post_init__(self):
        # a constant source or flux is a finite number (q None: the laser)
        if not callable(self.f):
            check_number("f", self.f, FINITE)
        if not (self.q is None or callable(self.q)):
            check_number("q", self.q, FINITE)
        check_number("T_D", self.T_D, FINITE)
        # a panel at or below 0 would subdivide the facets without end
        check_number("flux_panel", self.flux_panel, POSITIVE)

    def flux(self, geom: GeometryConfig):
        return laser(geom) if self.q is None else self.q


@dataclass(frozen=True, eq=False)
class CoupledOperators:
    """All blocks of the coupled system, Dirichlet conditions eliminated,
    fixed when built, and the owner of the block solves on them (solvers)
    and of their one interface block (interface).  Meshes and Dirichlet
    dofs are read from the dof maps (their fem._elimination's dofs).

    Their solve state is one dict, each entry written once: "unit", the
    (unit pair, kappa_plus, kappa_minus) of a scalar build, set by the
    builder; "direct", the direct solver pair; "block", the interface
    block.  dataclasses.replace, the one way to other blocks, returns
    operators with none of it, which factor their own pair."""

    K_plus: sp.csr_matrix
    K_minus: sp.csr_matrix
    S: sp.csr_matrix
    D: sp.csr_matrix
    f_plus: np.ndarray
    f_minus: np.ndarray
    global_dofmap: DofMap
    local_dofmap: DofMap
    _state: dict = field(default_factory=dict, init=False, repr=False)

    global_mesh = property(lambda self: self.global_dofmap.mesh)
    local_mesh = property(lambda self: self.local_dofmap.mesh)
    global_dirichlet = property(
        lambda self: _elimination(self.global_dofmap).dofs)
    local_dirichlet = property(
        lambda self: _elimination(self.local_dofmap).dofs)

    @property
    def n_plus(self):
        return self.K_plus.shape[0]

    @property
    def n_minus(self):
        return self.K_minus.shape[0]

    def solvers(self, config: SolverConfig):
        """The (plus, minus) solver pair on K_plus and K_minus for config.
        A direct solve reads no rel_tol, max_iters or preconditioner, so
        every direct config gets the one direct pair, made on the first
        call: the sweep, the radius, M and the partial sums on these
        operators share one factorization per block.  On a scalar build
        that pair is the unit pair of its mesh pair scaled by kappa_plus
        and kappa_minus (ScaledSolver), so every scalar build on one mesh
        pair and penalty ratio solves on one factorization per block.  A
        Krylov config factors nothing and gets a new pair per call."""
        if config.method != "direct":
            return (LinearSolver(self.K_plus, config),
                    LinearSolver(self.K_minus, config))
        if "direct" not in self._state:
            unit = self._state.get("unit")
            self._state["direct"] = unit[0].solvers(*unit[1:]) if unit \
                else (LinearSolver(self.K_plus), LinearSolver(self.K_minus))
        return self._state["direct"]

    def interface(self):
        """The InterfaceBlock on the direct pair, made on the first call.
        A direct sweep on these operators runs on it once it is made.  On
        a scalar build it is the unit block of its mesh pair times
        1 - kappa_minus / kappa_plus, Y and lam alike; the unit block is
        made on the first call for a mesh pair and penalty ratio."""
        if "block" not in self._state:
            unit = self._state.get("unit")
            if unit is not None:
                block = unit[0].block(*unit[1:])
            else:
                plus, minus = self.solvers(SolverConfig())
                block = InterfaceBlock(plus, self.S, minus, self.D)
            self._state["block"] = block
        return self._state["block"]


# ----------------------------------------------------------------------
# cross-mesh assembly
# ----------------------------------------------------------------------

class _Interface:
    """The coefficient-free cross-mesh terms of a mesh pair: the one gamma
    quadrature and every term built on it.

    Every gamma point is a facet-rule point, rule.points @ vertices[facet],
    of a strip facet on gamma, so its strip barycentrics are known (see
    _owner_barycentrics) and only the box basis is located, in one call.
    Holds the strip's fem._facet_terms (facet dofs ldofs (nf, n) and
    measure scales scale (nf,)), its trace basis lvals (nq, n) at the
    rule's points and mid (n,) at the facet midpoint, the gamma
    quadrature weights wq (nf, nq),
    the box basis at the nf * nq points (gdofs, gvals), the unit S and D
    patterns with one owner per point in block form (S with its sign, and
    every term on a Dirichlet row zero), and the gamma mass of
    fem._facet_mass with one owner per facet, with the slot of each of its
    entries in the strip stiffness pattern, which holds them all (each
    facet's dofs are its owner cell's).
    """

    def __init__(self, global_dofmap, local_dofmap):
        local_mesh = local_dofmap.mesh
        dim = local_mesh.dim
        rule = facet_rule(dim, max(local_dofmap.m, global_dofmap.m))
        nq = len(rule.weights)
        gamma = local_mesh.facet_tags == FacetTag.INTERFACE_GAMMA.value
        if not gamma.any():
            raise OrphanInterfaceFacet("mesh has no interface facets")
        facets = local_mesh.facet_vertices[gamma]
        owners = local_mesh.facet_cells[gamma]
        self.ldofs, self.scale = _facet_terms(local_dofmap, facets)
        self.lvals = shape_values(dim - 1, local_dofmap.m, rule.points)
        self.wq = rule.weights * self.scale[:, None]
        xq = rule.points @ local_mesh.vertices[facets]
        self.gdofs, self.gvals = gdofs, gvals = _basis_at_points(
            global_dofmap, xq.reshape(-1, dim))
        # a box basis function that vanishes at a gamma point rounds to up
        # to 1.3e-15 there (3D P2); keep such box dofs off gamma out of D
        gvals[np.abs(gvals) <= 1e-12] = 0.0
        # S: normal derivative of the strip basis in each facet's owner cell
        lam = _owner_barycentrics(local_mesh, facets, owners,
                                  rule.points).reshape(-1, dim + 1)
        cells = np.repeat(owners, nq)
        _, bary_grads, shape = cell_geometry(local_mesh)
        grads = np.einsum("pna,pad->pnd",
                          shape_bary_grads(dim, local_dofmap.m, lam),
                          bary_grads[shape[cells]])
        normals = local_mesh.facet_normal(facets, owners)
        dn = np.einsum("pnd,pd->pn", grads, np.repeat(normals, nq, axis=0))
        # S, with the block sign, and D have no term on a Dirichlet row
        n = local_dofmap.n_dofs
        box = np.where(_elimination(global_dofmap).fixed[gdofs], 0.0, -gvals)
        self.S = _CsrPattern(box[:, :, None] * dn[:, None, :],
                             gdofs[:, :, None],
                             local_dofmap.cell_dofs[cells][:, None, :],
                             (global_dofmap.n_dofs, n))
        # D: the strip trace basis on each facet times the box basis
        self.mid = shape_values(dim - 1, local_dofmap.m,
                                np.full((1, dim), 1.0 / dim))[0]
        rows = np.repeat(self.ldofs, nq, axis=0)
        lvals = np.where(_elimination(local_dofmap).fixed[rows], 0.0,
                         np.tile(self.lvals, (len(facets), 1)))
        self.D = _CsrPattern(lvals[:, :, None] * gvals[:, None, :],
                             rows[:, :, None], gdofs[:, None, :],
                             (n, global_dofmap.n_dofs))
        # M_gamma: the trace basis's reference mass on each facet
        self.mass = _facet_mass(self.ldofs, rule.weights, self.lvals, n)
        self.mass_slots = _stiffness_pattern(local_dofmap).slots_of(self.mass)


def _owner_barycentrics(mesh, facets, owners, points):
    """Barycentrics (nf, nq, dim+1), in the owner cells (nf,) of boundary
    facets (nf, dim), of the facet points with facet barycentrics points
    (nq, dim): each column of points moves to its vertex's slot in the
    owner, and the owner's vertex off the facet gets 0."""
    at_vertex = mesh.cells[owners][:, None, :] == facets[:, :, None]
    return points @ at_vertex


def _interface(global_dofmap, local_dofmap):
    """The _Interface of a mesh pair, kept on the strip dof map."""
    return memoised(local_dofmap, "_interface", (global_dofmap,),
                    lambda: _Interface(global_dofmap, local_dofmap))


def assemble_flux_jump_S(global_dofmap, local_dofmap, jump):
    """The flux-jump block S of the coupled system: minus
    sum_e int_e jump (grad phi_loc . n) phi_glob, with no entry on a box
    Dirichlet row.

    Rows are box dofs, columns strip dofs.  jump is kappa_plus -
    kappa_minus, a scalar or one weight per gamma facet (the nonlinear
    driver's).  The normal gradient is taken in the strip cell owning each
    quadrature point's facet; the normal points out of the strip.  The
    unit term of every quadrature point is built on the first call for a
    mesh pair; later calls only weight and sum them, zeros dropped.
    """
    terms = _interface(global_dofmap, local_dofmap)
    S = terms.S.matrix((np.reshape(jump, (-1, 1)) * terms.wq).ravel())
    S.eliminate_zeros()
    return S


def assemble_penalty_D(global_dofmap, local_dofmap, alpha):
    """The penalty block D of the coupled system: -alpha times the cross
    mass matrix on the interface, with no entry on a strip Dirichlet row.

    Rows are strip dofs, columns box dofs.  Built, like S, from unit terms
    kept per mesh pair, zeros dropped.
    """
    check_number("alpha", alpha, NONNEGATIVE, NonpositiveCoefficient)
    terms = _interface(global_dofmap, local_dofmap)
    D = terms.D.matrix((-alpha * terms.wq).ravel())
    D.eliminate_zeros()
    return D


# ----------------------------------------------------------------------
# the unit pair of a mesh pair
# ----------------------------------------------------------------------

def _strip_blocks(global_dofmap, local_dofmap, kappa_minus, alpha, jump):
    """The strip stiffness at kappa_minus (scalar or per cell) plus the
    penalty alpha * M_gamma, before its Dirichlet elimination, S at jump
    and D at alpha: (K, S, D).

    On a new mesh pair the strip's stiffness assembly builds its kept
    pattern first, so that S's assembly, which builds the kept interface
    terms, finds the gamma mass's slots and the strip's Dirichlet rows in
    that pattern without building it; D reuses them."""
    K = assemble_stiffness(local_dofmap, kappa_minus)
    S = assemble_flux_jump_S(global_dofmap, local_dofmap, jump)
    terms = _interface(global_dofmap, local_dofmap)
    K.data[terms.mass_slots] += terms.mass.data(alpha * terms.scale)
    return K, S, assemble_penalty_D(global_dofmap, local_dofmap, alpha)


class _UnitBlock:
    """A diagonal block at unit coefficient with its Dirichlet rows
    eliminated, A, its direct solver, and its unit lift: per row, the
    entries that the elimination took out of the wall columns, which a wall
    value times the coefficient lifts off the row's load."""

    def __init__(self, A, elimination):
        self.lift = elimination.lifted(A)
        self.A = elimination.eliminate(A)
        self.dofs = elimination.dofs
        # a Dirichlet row holds only its unit diagonal
        self.ones = np.flatnonzero(np.repeat(elimination.fixed,
                                             np.diff(self.A.indptr)))
        self.solver = LinearSolver(self.A)

    def scaled(self, kappa, load, value):
        """The block at scalar kappa, kappa * A with the identity rows kept,
        in arrays of its own, and load (not changed) with the lift of the
        wall value and value on the Dirichlet rows: (K, f)."""
        K = _on_layout(self.A, kappa * self.A.data)
        K.data[self.ones] = 1.0
        f = load - value * (kappa * self.lift)
        f[self.dofs] = value
        return K, f


class _UnitPair:
    """The blocks of a mesh pair at unit coefficients and penalty ratio r,
    of which every scalar build on the pair is a multiple.

    Off the Dirichlet rows (identity rows in both), a build at scalar
    kappa_plus, kappa_minus and alpha = r * kappa_minus has
    K_plus = kappa_plus * A_plus, K_minus = kappa_minus * K_1 with
    K_1 = A_minus + r M_gamma, S = (kappa_plus - kappa_minus) * S_1 and
    D = kappa_minus * D_1, and its loads lift kappa times the unit lifts.
    The unit blocks are assembled here once, at kappa = 1, penalty r and
    a unit jump, the diagonal ones with their Dirichlet rows eliminated:
    plus, the _UnitBlock of A_plus, kept per box dof map, minus that of
    K_1, and S_1, D_1 as their builders return them.  A scalar
    build scales copies of them (build), its block solves are the unit
    ones with the right-hand side scaled (solvers), and its interface
    block is the unit one, made on the first call, times
    1 - kappa_minus / kappa_plus (block).
    """

    def __init__(self, global_dofmap, local_dofmap, r):
        self.plus = memoised(
            global_dofmap, "_unit_block", (), lambda: _UnitBlock(
                assemble_stiffness(global_dofmap, 1.0),
                _elimination(global_dofmap)))
        K, self.S, self.D = _strip_blocks(global_dofmap, local_dofmap, 1.0,
                                          r, 1.0)
        self.minus = _UnitBlock(K, _elimination(local_dofmap))
        self._block = None

    def build(self, kappa_plus, kappa_minus, f_plus, f_minus, value):
        """(K_plus, K_minus, S, D, f_plus, f_minus) at scalar kappa_plus and
        kappa_minus from the unlifted loads f_plus and f_minus and the wall
        value; no block shares an array with the unit blocks."""
        K_plus, f_plus = self.plus.scaled(kappa_plus, f_plus, value)
        K_minus, f_minus = self.minus.scaled(kappa_minus, f_minus, value)
        S = _on_layout(self.S, (kappa_plus - kappa_minus) * self.S.data) \
            if kappa_plus != kappa_minus else sp.csr_matrix(self.S.shape)
        D = _on_layout(self.D, kappa_minus * self.D.data)
        return K_plus, K_minus, S, D, f_plus, f_minus

    def solvers(self, kappa_plus, kappa_minus):
        """The direct (plus, minus) pair of a scalar build."""
        return (ScaledSolver(self.plus.solver, kappa_plus, self.plus.dofs),
                ScaledSolver(self.minus.solver, kappa_minus, self.minus.dofs))

    def block(self, kappa_plus, kappa_minus):
        """The InterfaceBlock of a scalar build: the unit one, made on the
        first call, times 1 - kappa_minus / kappa_plus."""
        if self._block is None:
            self._block = InterfaceBlock(self.plus.solver, self.S,
                                         self.minus.solver, self.D)
        # the jump as S has it, exact where kappa_minus nears kappa_plus
        return self._block.scaled((kappa_plus - kappa_minus) / kappa_plus)


def _unit_pair(global_dofmap, local_dofmap, r):
    """The _UnitPair of a mesh pair at penalty ratio r, kept on the strip
    dof map for the last r asked for: a sweep at the default penalty keeps
    one r, one at a fixed explicit penalty makes a new one per
    coefficient."""
    return memoised(local_dofmap, "_unit_pair", (global_dofmap, r),
                    lambda: _UnitPair(global_dofmap, local_dofmap, r))


# ----------------------------------------------------------------------
# full system builder
# ----------------------------------------------------------------------

def _load(geom, dofmap, problem, flux_scale=None):
    """The load on a dof map before its Dirichlet rows, with the volume
    source inside the strip footprint and the top flux (whose support lies
    on the strip's top) multiplied by flux_scale(x).

    flux_scale is called only inside the footprint (callable scales may be
    undefined outside it, e.g. local-field lookups) and, on the flux, only
    where the flux is nonzero (a zero flux stays zero under any finite
    scale): once per non-empty point array of the fem.ScaledLoad kept on
    the dof map, the same read-only arrays at every call, so a caller may
    keep what it derives from them (picard_two_level keeps their strip
    location for its run).  Without flux_scale the unscaled load is
    returned in two parts, (outside, inside) the footprint, kept on the
    dof map.  Both are kept for the geometry and problem data (f, q and
    flux_panel) they were built for.
    """
    q = problem.flux(geom)
    key = (geom, problem.f, problem.q, problem.flux_panel)

    def inside(x):
        return x[..., -1] >= geom.floor - 1e-12

    if flux_scale is not None:
        b = np.zeros(dofmap.n_dofs)
        memoised(dofmap, "_scaled_load", key,
                 lambda: ScaledLoad(dofmap, problem.f, q, problem.flux_panel,
                                    inside)
                 ).add_to(b, flux_scale)
        return b

    def load(where, flux):
        f = _as_callable(problem.f)
        source = 0.0 if _zero(problem.f) else (
            lambda x: np.asarray(f(x), dtype=float) * where(x))
        b = assemble_load(dofmap.mesh, dofmap, source, flux,
                          q_panel=problem.flux_panel)
        b.setflags(write=False)
        return b

    return memoised(dofmap, "_load", key, lambda: (
        load(lambda x: ~inside(x), None), load(inside, q)))


def _check_cells(global_dofmap, local_dofmap, kappa_plus_cells,
                 kappa_minus_cells, jump_facet_weights):
    """A per-cell build's arrays: one value per box cell, per strip cell
    and, finite, per gamma facet of the mesh pair's interface terms.
    Raises InvalidConfig naming the argument."""
    check_one_per("kappa_plus_cells", kappa_plus_cells,
                  global_dofmap.mesh.num_cells, "box cell")
    check_one_per("kappa_minus_cells", kappa_minus_cells,
                  local_dofmap.mesh.num_cells, "strip cell")
    check_one_per("jump_facet_weights", jump_facet_weights,
                  len(_interface(global_dofmap, local_dofmap).scale),
                  "gamma facet")
    check_entries("jump_facet_weights", jump_facet_weights, FINITE)


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
    """Assemble and couple both subproblems, each mesh the one of its dof
    map, from one of two complete descriptions (the module docstring says
    what each keeps and reuses); Dirichlet walls are eliminated
    symmetrically on both diagonal blocks, and S and D come finished, with
    no entry on a constrained row.  By default (alpha = None) the penalty
    is default_alpha of the strip conductivity, its largest cell value on
    a per-cell build.

    A scalar build (every per-cell argument None) has kappa_plus in the
    box, kappa_minus in the strip and their difference as the jump of S.
    The box sees the strip through S and through its data inside the strip
    footprint (the volume source, and the top flux, whose support lies on
    the strip's top), multiplied by kappa_plus / kappa_minus.  Its blocks
    scale the unit pair of its mesh pair and penalty ratio, which its
    operators hold with kappa_plus and kappa_minus (the "unit" entry).

    A per-cell build (a Picard step) takes all four of kappa_plus_cells
    (one value per box cell), kappa_minus_cells (one per strip cell),
    jump_facet_weights (the jump, one finite value per gamma facet) and
    flux_scale(x), which replaces kappa_plus / kappa_minus on the box data
    and is called once per kept point array per build, the same read-only
    arrays every time (see _load), which the caller may locate once.  Its
    scalar kappa_plus and kappa_minus are only checked.  Any other set of
    the four raises InvalidConfig.
    """
    problem = problem or ProblemData()
    if np.ndim(kappa_minus) != 0:
        raise InvalidConfig("kappa_minus must be a scalar; per-cell strip "
                            "values go through kappa_minus_cells")
    check_number("kappa_plus", kappa_plus, POSITIVE, NonpositiveCoefficient)
    check_number("kappa_minus", kappa_minus, POSITIVE, NonpositiveCoefficient)
    if alpha is not None:
        check_number("alpha", alpha, NONNEGATIVE, NonpositiveCoefficient)
    global_dofmap.check_mesh("global_mesh", global_mesh)
    local_dofmap.check_mesh("local_mesh", local_mesh)
    cells = (kappa_plus_cells, kappa_minus_cells, jump_facet_weights,
             flux_scale)
    scalar = all(c is None for c in cells)
    if not scalar and any(c is None for c in cells):
        raise InvalidConfig("a per-cell build takes all four of "
                            "kappa_plus_cells, kappa_minus_cells, "
                            "jump_facet_weights and flux_scale")
    # each kind makes its loads before its blocks, the box's before the
    # strip's (which lies inside its own footprint): in 3D their flux
    # quadratures set a build's peak memory, which kept blocks would raise
    if scalar:
        outside, inside = _load(geom, global_dofmap, problem)
        f_minus = _load(geom, local_dofmap, problem)[1]
        # the penalty ratio alpha / kappa_minus of the unit pair
        r = default_alpha(1.0, local_mesh.h) if alpha is None \
            else alpha / kappa_minus
        unit = _unit_pair(global_dofmap, local_dofmap, r)
        K_plus, K_minus, S, D, f_plus, f_minus = unit.build(
            kappa_plus, kappa_minus,
            outside + (kappa_plus / kappa_minus) * inside, f_minus,
            problem.T_D)
    else:
        _check_cells(global_dofmap, local_dofmap, *cells[:3])
        f_plus = _load(geom, global_dofmap, problem, flux_scale)
        f_minus = _load(geom, local_dofmap, problem)[1]
        K_plus = assemble_stiffness(global_dofmap, kappa_plus_cells)
        K_minus, S, D = _strip_blocks(
            global_dofmap, local_dofmap, kappa_minus_cells,
            default_alpha(kappa_minus_cells, local_mesh.h) if alpha is None
            else alpha, jump_facet_weights)
        K_plus, f_plus = _elimination(global_dofmap).apply(
            K_plus, f_plus, problem.T_D)
        K_minus, f_minus = _elimination(local_dofmap).apply(
            K_minus, f_minus, problem.T_D)

    ops = CoupledOperators(
        K_plus=K_plus, K_minus=K_minus, S=S, D=D,
        f_plus=f_plus, f_minus=f_minus,
        global_dofmap=global_dofmap, local_dofmap=local_dofmap)
    if scalar:
        ops._state["unit"] = (unit, kappa_plus, kappa_minus)
    return ops


def interface_trace_gap(ops: CoupledOperators, T_plus, T_minus):
    """L2 norm over gamma of the mismatch between the strip trace and the
    box trace; shrinks like 1/alpha.  Both traces come from the bases the
    interface terms keep at the gamma points, so nothing is located."""
    terms = _interface(ops.global_dofmap, ops.local_dofmap)
    tm = (T_minus[terms.ldofs] @ terms.lvals.T).ravel()
    tp = (terms.gvals * T_plus[terms.gdofs]).sum(axis=1)
    return np.sqrt(float(np.sum(terms.wq.ravel() * (tm - tp) ** 2)))
