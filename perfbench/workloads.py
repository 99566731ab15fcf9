"""The four workloads: inputs drawn from a seed, one operation, output checks.

Each operation goes through gldd's public entry points only, looked up on
their modules at call time so that the tracer's wrappers see the call.
The checks run after the timed operations and never compare against
stored output: they recompute what they need here (a dense spectral
radius, a direct solve of the block system, a closed-form flux integral)
or test a property the method must have.

``check`` returns the names of the checks an operation failed.  A workload
may name one ``known_fault``: an operation failing only that check counts
as failed while the run stays correct; any other failed check makes the
run incorrect.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gldd import dd_solver, experiments, nonlinear
from gldd.coupling import ProblemData, build_coupled_operators, default_alpha
from gldd.dd_solver import DDConfig, run_two_level_dd, setup_case
from gldd.experiments import ExperimentConfig
from gldd.fem import assemble_load, evaluate_field
from gldd.linalg import SolverConfig
from gldd.mesh import GeometryConfig, interface_facets
from gldd.nonlinear import MaterialCurve, NonlinearConfig, cell_midpoint_values

H_PLUS = 1.0 / 160.0
GEOM_2D = GeometryConfig()
GEOM_3D = GeometryConfig(dim=3)

RADIUS_RTOL = 1e-6
RESIDUAL_RTOL = 1e-7
DIRECT_RTOL = 1e-7
FLUX_RTOL = 1e-10


# ----------------------------------------------------------------------
# oracles computed by the benchmark itself
# ----------------------------------------------------------------------

def dense_radius(ops):
    """Spectral radius of K_plus^-1 S K_minus^-1 D from dense eigenvalues."""
    X = spla.splu(sp.csc_matrix(ops.K_minus)).solve(ops.D.toarray())
    M = spla.splu(sp.csc_matrix(ops.K_plus)).solve(ops.S @ X)
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def block_residual(ops, T_plus, T_minus):
    """Relative residual of the 2x2 block system at a pair."""
    r_plus = ops.K_plus @ T_plus + ops.S @ T_minus - ops.f_plus
    r_minus = ops.D @ T_plus + ops.K_minus @ T_minus - ops.f_minus
    return math.hypot(np.linalg.norm(r_plus), np.linalg.norm(r_minus)) / \
        math.hypot(np.linalg.norm(ops.f_plus), np.linalg.norm(ops.f_minus))


def direct_pair(ops):
    """Sparse direct solve of the assembled 2x2 block system."""
    A = sp.bmat([[ops.K_plus, ops.S], [ops.D, ops.K_minus]], format="csc")
    x = spla.splu(A).solve(np.concatenate([ops.f_plus, ops.f_minus]))
    return x[:ops.n_plus], x[ops.n_plus:]


def pair_distance(a_plus, a_minus, b_plus, b_minus):
    """Relative distance between two (T_plus, T_minus) pairs, against b."""
    return math.hypot(np.linalg.norm(a_plus - b_plus),
                      np.linalg.norm(a_minus - b_minus)) / \
        math.hypot(np.linalg.norm(b_plus), np.linalg.norm(b_minus))


def flux_closed_form(dim):
    """Integral of the laser flux over the top wall.

    The flux is 4e4 exp(-u^4 / 1e-12) in each wall coordinate u about the
    spot, which is negligible at the walls, and the integral of
    exp(-u^4/a) over the line is 2 Gamma(5/4) a^(1/4).
    """
    return 4e4 * (2.0 * math.gamma(1.25) * 1e-3) ** (dim - 1)


def flux_error(geom, mesh, dofmap, problem):
    """Relative error of the summed top-wall flux load on a mesh."""
    load = assemble_load(mesh, dofmap, 0.0, problem.flux(geom),
                         q_panel=problem.flux_panel)
    exact = flux_closed_form(geom.dim)
    return abs(float(np.sum(load)) - exact) / exact


class Oracles:
    """Per-worker memo of check results that depend only on the inputs."""

    def __init__(self):
        self._memo = {}

    def get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class MeshRatioStudy:
    """``sweep_mesh_ratio``: 2D, m = 1, ratios 2, 4, 8, 16 and the default
    eight strip coefficients, 32 cases and 4 fits per operation."""

    name = "mesh-ratio-study"
    known_fault = None
    ratios = (2, 4, 8, 16)

    def make_input(self, rng):
        n_kappa = len(ExperimentConfig().kappa_list)
        return {"seed": rng.randrange(2 ** 31),
                "checked": [rng.randrange(n_kappa) for _ in self.ratios]}

    def run(self, inp):
        cfg = ExperimentConfig(m=1, h_plus=H_PLUS, mesh_ratios=self.ratios,
                               seed=inp["seed"])
        return experiments.sweep_mesh_ratio(cfg)

    def check(self, inp, study, oracles):
        failed = []
        kappas = ExperimentConfig().kappa_list
        records = study.records
        if len(records) != len(self.ratios) * len(kappas) or \
                not all(r.converged for r in records):
            failed.append("converged")
        for ratio, k in zip(self.ratios, inp["checked"]):
            kappa = kappas[k]
            rec = next(r for r in records if r.h_ratio == ratio and
                       r.kappa_ratio == kappa)
            dense = oracles.get(("radius", ratio, kappa), lambda: dense_radius(
                setup_case(GEOM_2D, H_PLUS, H_PLUS / ratio, 1, 1.0, kappa)))
            if not abs(rec.rho_measured - dense) <= RADIUS_RTOL * dense:
                failed.append("radius")
        for ratio in self.ratios:
            fit = study.fits[ratio]
            if not (fit.r2_linear >= 0.999 and
                    abs(fit.a0 + fit.a1) <= 1e-2 * abs(fit.a1)):
                failed.append("radius-law")
        c = study.c_tildes
        if not all(a < b for a, b in zip(c, c[1:])):
            failed.append("radius-law")
        return failed


class PicardLaser:
    """``picard_two_level`` on the criterion-11 curves with the default
    laser flux, h+ = 1/160, ratio 2."""

    name = "picard-laser"
    known_fault = None
    curve_a = MaterialCurve.constant(1.0)
    curve_b = MaterialCurve([290.0, 430.0], [0.65, 0.35])
    kappa_plus_b = 0.5
    picard_tol = 1e-8

    def make_input(self, rng):
        return {}

    def run(self, inp):
        nl = NonlinearConfig(kappa_plus_B=self.kappa_plus_b,
                             picard_tol=self.picard_tol)
        return nonlinear.picard_two_level(GEOM_2D, H_PLUS, H_PLUS / 2, 1,
                                          self.curve_a, self.curve_b, nl,
                                          problem=ProblemData())

    def frozen_operators(self, rep):
        """Block system with the coefficients frozen at the report's final
        iterate, built the way one more Picard step builds it."""
        curve_a, curve_b = self.curve_a, self.curve_b
        kb = self.kappa_plus_b
        gmesh, gdof = rep.global_mesh, rep.global_dofmap
        lmesh, ldof = rep.local_mesh, rep.local_dofmap
        floor = GEOM_2D.H - GEOM_2D.H_minus
        in_strip = gmesh.vertices[gmesh.cells].mean(axis=1)[:, -1] > floor
        kp_cells = np.where(in_strip, kb,
                            curve_a(cell_midpoint_values(gmesh, gdof,
                                                         rep.T_plus)))
        km_cells = curve_b(cell_midpoint_values(lmesh, ldof, rep.T_minus))
        mids = np.array([lmesh.vertices[list(f)].mean(axis=0)
                         for f, _n in interface_facets(lmesh)])
        jump = kb - curve_b(evaluate_field(lmesh, ldof, rep.T_minus, mids))
        T_minus = rep.T_minus

        def flux_scale(x):
            return kb / curve_b(evaluate_field(lmesh, ldof, T_minus,
                                               np.atleast_2d(x)))

        return build_coupled_operators(
            GEOM_2D, gmesh, gdof, lmesh, ldof, kappa_plus=kb,
            kappa_minus=float(np.mean(km_cells)),
            alpha=default_alpha(km_cells, lmesh.h), problem=ProblemData(),
            kappa_plus_cells=kp_cells, kappa_minus_cells=km_cells,
            jump_facet_weights=jump, flux_scale=flux_scale)

    def check(self, inp, rep, oracles):
        failed = []
        if not rep.converged:
            failed.append("converged")
        ops = self.frozen_operators(rep)
        if not block_residual(ops, rep.T_plus, rep.T_minus) <= RESIDUAL_RTOL:
            failed.append("block-residual")
        step_plus, step_minus = direct_pair(ops)
        if not pair_distance(rep.T_plus, rep.T_minus, step_plus,
                             step_minus) <= 10 * self.picard_tol:
            failed.append("picard-fixed-point")
        err = oracles.get("flux", lambda: flux_error(
            GEOM_2D, rep.local_mesh, rep.local_dofmap, ProblemData()))
        if not err <= FLUX_RTOL:
            failed.append("flux")
        return failed


class FineRadius:
    """``run_case`` at 2D h+ = 1/640, h- = 1/5120 (n+ = 289, n- = 4257):
    set-up, radius estimate and sweep.

    The inputs are fixed, not drawn: the radius estimate at this mesh is
    wrong for every start vector (the dominant eigenvalues of M are a
    complex pair), and a fault kept in a workload must fail on inputs that
    do not depend on the seed.
    """

    name = "fine-radius"
    known_fault = "radius"
    h_plus = 1.0 / 640.0
    h_minus = 1.0 / 5120.0
    kappa_minus = 0.5

    def _config(self):
        return ExperimentConfig(m=1, h_plus=self.h_plus, h_minus=self.h_minus,
                                kappa_minus=self.kappa_minus, seed=0)

    def make_input(self, rng):
        return {}

    def run(self, inp):
        return experiments.run_case(self._config())

    def check(self, inp, out, oracles):
        rec, ops = out
        failed = []
        dense = oracles.get("radius", lambda: dense_radius(ops))
        if not abs(rec.rho_measured - dense) <= RADIUS_RTOL * dense:
            failed.append("radius")
        # run_case keeps only the sweep's record, so the benchmark repeats
        # the (deterministic) sweep on the same operators to get the pair
        rep = run_two_level_dd(ops, self._config().dd())
        if not (rec.converged and rep.iterations == rec.iterations):
            failed.append("converged")
        if not block_residual(ops, rep.T_plus, rep.T_minus) <= RESIDUAL_RTOL:
            failed.append("block-residual")
        err = oracles.get("flux", lambda: flux_error(
            GEOM_2D, ops.local_mesh, ops.local_dofmap, ProblemData()))
        if not err <= FLUX_RTOL:
            failed.append("flux")
        return failed


class Solve3D:
    """``setup_case`` + ``run_two_level_dd`` in 3D, h+ = 1/160, ratio 2,
    direct solver; the strip coefficient is drawn per operation."""

    name = "solve-3d"
    known_fault = None
    kappa_range = (0.25, 0.75)

    def make_input(self, rng):
        return {"kappa_minus": rng.uniform(*self.kappa_range)}

    def run(self, inp):
        ops = dd_solver.setup_case(GEOM_3D, H_PLUS, H_PLUS / 2, 1, 1.0,
                                   inp["kappa_minus"])
        rep = dd_solver.run_two_level_dd(ops, DDConfig(
            solver=SolverConfig(method="direct")))
        return ops, rep

    def check(self, inp, out, oracles):
        ops, rep = out
        failed = []
        if not rep.converged:
            failed.append("converged")
        if not block_residual(ops, rep.T_plus, rep.T_minus) <= RESIDUAL_RTOL:
            failed.append("block-residual")
        if not pair_distance(rep.T_plus, rep.T_minus,
                             *direct_pair(ops)) <= DIRECT_RTOL:
            failed.append("direct-solve")
        err = oracles.get("flux", lambda: flux_error(
            GEOM_3D, ops.local_mesh, ops.local_dofmap, ProblemData()))
        if not err <= FLUX_RTOL:
            failed.append("flux")
        return failed


WORKLOADS = {w.name: w for w in (MeshRatioStudy(), PicardLaser(),
                                 FineRadius(), Solve3D())}
