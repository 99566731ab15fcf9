"""Spans around calls into the public functions of each gldd module.

The tracer patches module attributes from the outside: every gldd module
that holds a reference to a wrapped function gets the wrapper in its place,
so calls between modules (``from .mesh import locate_point``) and calls
within a module both pass through it.  Nothing inside ``src/gldd`` changes.

A span is ``[name, start, end, parent, op, n]``: ``parent`` is the index of
the enclosing span (-1 at the top), ``op`` the operation the span belongs
to, and ``n`` a work count taken from the call (points evaluated, sweeps
run, matrix applications), 0 where none applies.  Spans stay in memory and
are written out once, when the worker ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

MODULES = ("mesh", "fem", "coupling", "linalg", "dd_solver", "experiments",
           "nonlinear")


def _points(x):
    """Number of points in a coordinate array of shape (..., dim)."""
    return math.prod(x.shape[:-1]) if x.ndim > 1 else 1


def _sweeps(result):
    return result.iterations


def _picard_steps(result):
    return result.picard_iterations


# (module, attribute, span name, work count): the count is the index of a
# coordinate-array argument whose points are counted, or a function of the
# result, or "applies" for the operator applications of power iteration.
TARGETS = [
    ("mesh", "build_global_mesh", "mesh.build", None),
    ("mesh", "build_local_mesh", "mesh.build", None),
    ("mesh", "build_fitted_mesh", "mesh.build", None),
    ("mesh", "locate_point", "mesh.locate", None),
    ("mesh", "interface_facets", "mesh.interface_facets", None),
    ("fem", "build_dofmap", "fem.dofmap", None),
    ("fem", "assemble_stiffness", "fem.stiffness", None),
    ("fem", "assemble_boundary_mass", "fem.boundary_mass", None),
    ("fem", "assemble_load", "fem.load", None),
    ("fem", "laser_flux", "fem.laser_flux", 0),
    ("fem", "evaluate_field", "fem.evaluate_field", 3),
    ("fem", "apply_dirichlet", "fem.apply_dirichlet", None),
    ("fem", "dirichlet_dofs", "fem.dirichlet_dofs", None),
    ("coupling", "build_coupled_operators", "coupling.build", None),
    ("coupling", "assemble_flux_jump_S", "coupling.flux_jump_S", None),
    ("coupling", "assemble_penalty_D", "coupling.penalty_D", None),
    ("linalg", "power_iteration_rho", "linalg.power", "applies"),
    ("dd_solver", "setup_case", "dd_solver.setup_case", None),
    ("dd_solver", "run_two_level_dd", "dd_solver.run", _sweeps),
    ("dd_solver", "make_iteration_operator", "dd_solver.make_operator", None),
    ("experiments", "run_case", "experiments.run_case", None),
    ("experiments", "sweep_kappa", "experiments.sweep_kappa", None),
    ("experiments", "sweep_mesh_ratio", "experiments.sweep_mesh_ratio", None),
    ("nonlinear", "picard_two_level", "nonlinear.picard", _picard_steps),
    ("nonlinear", "cell_midpoint_values", "nonlinear.cell_midpoint_values",
     None),
]

# Bindings wrapped in one module only: the fits belong to the study that
# runs them, although the least-squares code lives in linalg.
LOCAL_TARGETS = [
    ("experiments", "fit_rho_law", "experiments.fit"),
    ("experiments", "log2_growth_slope", "experiments.fit"),
]


class Tracer:
    """Records spans while ``enabled``; one instance per worker process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False
        self.op = -1
        self._undo = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx, n=0):
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = n

    def wrap(self, fn, name, count=None):
        tracer = self

        if count == "applies":
            @functools.wraps(fn)
            def wrapper(operator, *args, **kwargs):
                if not tracer.enabled:
                    return fn(operator, *args, **kwargs)
                applies = [0]

                def counted(v):
                    applies[0] += 1
                    return operator(v)

                idx = tracer._open(name)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer._close(idx, applies[0])
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            n = _points(args[count]) if isinstance(count, int) else 0
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                # a failed sweep still carries its partial report
                result = getattr(exc, "report", None)
                raise
            finally:
                if callable(count) and result is not None:
                    n = count(result)
                tracer._close(idx, n)
        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in every gldd module that binds it."""
        import gldd
        import gldd.linalg

        mods = [sys.modules[f"gldd.{m}"] for m in MODULES]
        mods.append(gldd)
        for home, attr, name, count in TARGETS:
            original = getattr(sys.modules[f"gldd.{home}"], attr)
            wrapper = self.wrap(original, name, count)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapper)
        for home, attr, name in LOCAL_TARGETS:
            mod = sys.modules[f"gldd.{home}"]
            self._set(mod, attr, self.wrap(getattr(mod, attr), name))
        solver = gldd.linalg.LinearSolver
        self._set(solver, "solve", self.wrap(solver.solve, "linalg.solve"))
        self._set(gldd.linalg, "spla",
                  _FactorCounting(gldd.linalg.spla, self))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path, meta):
        """Write the spans as JSON lines, after one header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for name, start, end, parent, op, n in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "n": n})
                         + "\n")


class _FactorCounting:
    """Stands in for ``scipy.sparse.linalg`` inside gldd.linalg so that each
    sparse LU factorization becomes a ``linalg.factor`` span."""

    def __init__(self, module, tracer):
        self._module = module
        self.splu = tracer.wrap(module.splu, "linalg.factor")

    def __getattr__(self, attr):
        return getattr(self._module, attr)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

# metric -> (span name, what is summed over the operation's spans of that
# name: "s" their time, "count" their number, "n" their work counts)
LAYER_METRICS = {
    "mesh.build_s": ("mesh.build", "s"),
    "mesh.locate_s": ("mesh.locate", "s"),
    "mesh.locate_calls": ("mesh.locate", "count"),
    "fem.stiffness_s": ("fem.stiffness", "s"),
    "fem.dofmap_s": ("fem.dofmap", "s"),
    "fem.boundary_mass_s": ("fem.boundary_mass", "s"),
    "fem.load_s": ("fem.load", "s"),
    "fem.flux_points": ("fem.laser_flux", "n"),
    "fem.evaluate_field_s": ("fem.evaluate_field", "s"),
    "fem.evaluate_points": ("fem.evaluate_field", "n"),
    "coupling.build_s": ("coupling.build", "s"),
    "coupling.builds": ("coupling.build", "count"),
    "coupling.flux_jump_S_s": ("coupling.flux_jump_S", "s"),
    "coupling.penalty_D_s": ("coupling.penalty_D", "s"),
    "linalg.power_s": ("linalg.power", "s"),
    "linalg.power_applies": ("linalg.power", "n"),
    "linalg.solve_s": ("linalg.solve", "s"),
    "linalg.solves": ("linalg.solve", "count"),
    "linalg.factorizations": ("linalg.factor", "count"),
    "linalg.factor_s": ("linalg.factor", "s"),
    "dd_solver.setup_case_s": ("dd_solver.setup_case", "s"),
    "dd_solver.run_s": ("dd_solver.run", "s"),
    "dd_solver.sweeps": ("dd_solver.run", "n"),
    "experiments.run_case_s": ("experiments.run_case", "s"),
    "experiments.cases": ("experiments.run_case", "count"),
    "experiments.fit_s": ("experiments.fit", "s"),
    "nonlinear.picard_s": ("nonlinear.picard", "s"),
    "nonlinear.picard_steps": ("nonlinear.picard", "n"),
}


def metric_unit(name):
    return "s" if name.endswith("_s") else "count"


def metric_names():
    names = list(LAYER_METRICS)
    names += [f"{m}.self_s" for m in MODULES]
    return names


def per_op_metrics(spans):
    """Per-layer metrics of each operation: {op: {metric: value}}.

    A module's self time is the time of its spans minus the time of their
    direct children, which never overlap in a single-threaded run.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _op, _n in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_span = {}
    for metric, (span, kind) in LAYER_METRICS.items():
        by_span.setdefault(span, []).append((metric, kind))
    out = {}
    for i, (name, start, end, _parent, op, n) in enumerate(spans):
        if op not in out:
            out[op] = dict.fromkeys(metric_names(), 0)
        row = out[op]
        for metric, kind in by_span.get(name, ()):
            row[metric] += {"s": end - start, "count": 1, "n": n}[kind]
        row[name.split(".", 1)[0] + ".self_s"] += end - start - child_time[i]
    return out
