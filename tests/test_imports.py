"""Every module-level import in the package is used, every private
module-level name is read somewhere in the package, and no except clause
lists two IterationFailure classes where the base would do."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from gldd import errors
from gldd.experiments import ExperimentConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gldd"


def unused_imports(source):
    """Names bound by module-level imports that the module never reads;
    names listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_plain_from_and_aliased_imports():
    source = ("import json\nimport os.path\nfrom a import b as c, d\n"
              "__all__ = ['d']\nprint(os.path.sep)\n")
    assert unused_imports(source) == [(1, "json"), (3, "c")]


def private_definitions(source):
    """(line, name) of the private names a module binds at top level by
    def, class or assignment; dunder names are not private."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.endswith("__")]
    return found


def names_read(source):
    """Names a module reads: loaded names, attribute names and names
    imported from other modules."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


PACKAGE_READS = set().union(*(names_read(p.read_text())
                              for p in PACKAGE.glob("*.py")))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unread_private_names(path):
    # a private name nothing in the package reads is a leftover
    assert [(line, name) for line, name in
            private_definitions(path.read_text())
            if name not in PACKAGE_READS] == []


def test_private_name_detector():
    source = ("class _Left:\n    pass\n_LIMIT: int = 3\n_USED = 2\n"
              "__version__ = '1'\ndef public():\n    return _USED\n")
    assert private_definitions(source) == [(1, "_Left"), (3, "_LIMIT"),
                                           (4, "_USED")]
    assert [d for d in private_definitions(source)
            if d[1] not in names_read(source)] == [(1, "_Left"), (3, "_LIMIT")]


ITERATION_FAILURES = {name for name, obj in vars(errors).items()
                      if isinstance(obj, type)
                      and issubclass(obj, errors.IterationFailure)}


def failure_catch_tuples(source, failures):
    """(line, names) of the except clauses whose tuple names two or more
    of failures; the base catches them all, so such a tuple is a second
    rule for which stopped runs a caller survives."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and \
                isinstance(node.type, ast.Tuple):
            names = [getattr(e, "id", getattr(e, "attr", None))
                     for e in node.type.elts]
            hits = [n for n in names if n in failures]
            if len(hits) >= 2:
                found.append((node.lineno, hits))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_catch_tuples_over_iteration_failures(path):
    assert failure_catch_tuples(path.read_text(), ITERATION_FAILURES) == []


def test_catch_tuple_detector():
    source = ("try:\n    pass\nexcept (Diverged, errors.NoConvergence):\n"
              "    pass\nexcept (Diverged, ValueError):\n    pass\n"
              "except IterationFailure:\n    pass\n")
    failures = {"Diverged", "NoConvergence", "IterationFailure"}
    assert failure_catch_tuples(source, failures) == [
        (3, ["Diverged", "NoConvergence"])]
    assert ITERATION_FAILURES == {"IterationFailure", "Diverged",
                                  "MaxItersExceeded", "NoConvergence",
                                  "PicardNoConvergence"}


def pass_through_wrappers(source):
    """(line, name) of the module-level functions whose body, docstring
    aside, is one return of a call chain (f(a).g(b)...) whose arguments
    are exactly the function's own parameters: wrappers that only re-call
    another function."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = node.body
        if isinstance(body[0], ast.Expr) and \
                isinstance(body[0].value, ast.Constant) and \
                isinstance(body[0].value.value, str):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return) or \
                not isinstance(body[0].value, ast.Call):
            continue
        spec = node.args
        params = {a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs}
        params |= {a.arg for a in (spec.vararg, spec.kwarg) if a is not None}
        passed, call = [], body[0].value
        while isinstance(call, ast.Call):
            passed += [a.value if isinstance(a, ast.Starred) else a
                       for a in call.args]
            passed += [k.value for k in call.keywords]
            call = getattr(call.func, "value", None)
        if all(isinstance(a, ast.Name) for a in passed) and \
                {a.id for a in passed} == params:
            found.append((node.lineno, node.name))
    return found


def traced_names():
    """module.attr of every function perfbench/tracing.py's TARGETS patch;
    the tracer times a call only where it crosses such a name."""
    tracing = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(tracing.read_text()).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return {f"{t.elts[0].value}.{t.elts[1].value}"
                    for t in node.value.elts}
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


TRACED_NAMES = traced_names()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_pass_through_wrappers(path):
    # a function that only re-calls another with its own arguments is a
    # second name for one thing, unless the benchmark's tracer needs it
    assert [(line, name) for line, name in
            pass_through_wrappers(path.read_text())
            if f"{path.stem}.{name}" not in TRACED_NAMES] == []


def test_pass_through_detector():
    source = (
        "def radius(K_plus, S, K_minus, D, theta=1.0, size_guard=2000):\n"
        "    '''doc'''\n"
        "    return Block(K_plus, S, K_minus, D, size_guard).rho(theta)\n"
        "def build(mesh, m):\n    return DofMap(mesh, m=m)\n"
        "def more(x):\n    return f(x, 2)\n"
        "def fewer(x, y):\n    return f(x)\n"
        "def nested(x):\n    return f(g(x))\n"
        "def attr(x):\n    return f(x.y)\n"
        "def two(x):\n    y = f(x)\n    return y\n"
        "def star(*args, **kwargs):\n    return f(*args, **kwargs)\n")
    assert pass_through_wrappers(source) == [(1, "radius"), (4, "build"),
                                             (17, "star")]
    assert "fem.build_dofmap" in TRACED_NAMES


# the load quadratures: the volume points and per-cell sum, the top
# flux's visited facets, its composite rule, trace basis, chunks and
# per-facet sum, and its 3D rule by one-dimensional moments; one copy of
# each, in fem, which assemble_load and ScaledLoad share
FEM_ONLY = {"_volume_points", "_add_volume", "_composite_facet_rule",
            "_composite_trace_basis", "_visited_top", "_flux_chunks",
            "_add_flux", "_flux_moments", "_moment_pairs", "_moment_rule",
            "_moment_basis"}


def foreign_uses(source, names):
    """(line, name) of every use of one of names in a module: a call, a
    read or an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in names]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "fem.py"),
                         ids=lambda p: p.name)
def test_top_flux_quadrature_stays_in_fem(path):
    assert foreign_uses(path.read_text(), FEM_ONLY) == []


def test_foreign_use_detector():
    source = ("from .fem import _add_flux, assemble_load\n"
              "import gldd.fem as fem\n"
              "rule = fem._composite_facet_rule(2, 1, 3)\n"
              "def f(b):\n    return _add_flux(b, None, None, ())\n")
    assert foreign_uses(source, FEM_ONLY) == [
        (1, "_add_flux"), (3, "_composite_facet_rule"), (5, "_add_flux")]
    assert FEM_ONLY <= {name for _line, name in private_definitions(
        (PACKAGE / "fem.py").read_text())}


# the laser: fem.laser builds it from laser_flux, laser_factor,
# LASER_CUTOFF and LASER_PEAK, the one owner of its peak, centre, cutoff
# and factors; the package's public names include the flux itself
LASER_PARTS = {"laser_flux", "laser_factor", "LASER_CUTOFF", "LASER_PEAK"}
LASER_EXPORTS = {"__init__.py": {"laser_flux"}}


def laser_parts(source):
    """(line, name) of every use of a part of the laser in a module (see
    foreign_uses), and (line, repr) of every number literal equal to its
    peak, 4e4."""
    peaks = [(node.lineno, repr(node.value))
             for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Constant)
             and type(node.value) in (int, float) and node.value == 4e4]
    return sorted(foreign_uses(source, LASER_PARTS) + peaks)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "fem.py"),
                         ids=lambda p: p.name)
def test_laser_built_only_in_fem(path):
    allowed = LASER_EXPORTS.get(path.name, set())
    assert [(line, name) for line, name in laser_parts(path.read_text())
            if name not in allowed] == []


def test_laser_part_detector():
    # ProblemData.flux as it built the laser before fem.laser did
    source = ("from .fem import LASER_CUTOFF, laser_factor, laser_flux\n"
              "def flux(geom):\n"
              "    q = functools.partial(laser_flux, dim=geom.dim, L=geom.L)\n"
              "    q.support = (centre, fem.LASER_CUTOFF)\n"
              "    factor = functools.partial(fem.laser_factor, L=geom.L)\n"
              "    q.factors = (lambda z: 0.4e5 * factor(z), 40000)\n")
    assert laser_parts(source) == [
        (1, "LASER_CUTOFF"), (1, "laser_factor"), (1, "laser_flux"),
        (3, "laser_flux"), (4, "LASER_CUTOFF"), (5, "laser_factor"),
        (6, "40000"), (6, "40000.0")]
    # fem writes the peak once, and coupling reads the laser from fem
    assert [name for _line, name in laser_parts(
        (PACKAGE / "fem.py").read_text()) if name[0].isdigit()] == ["40000.0"]
    assert "laser" in names_read((PACKAGE / "coupling.py").read_text())


# the gamma facets: mesh tags them, and coupling._Interface, the one owner
# of the gamma quadrature, is the one reader of that tag outside mesh
GAMMA_READERS = {"coupling.py": {"_Interface"}}


def owned_reads(source, name):
    """(line, owner) of every read of name in a module, as a name or an
    attribute, owner the top-level def or class it sits in (None at module
    level)."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        found += [(sub.lineno, owner) for sub in ast.walk(node)
                  if getattr(sub, "attr", getattr(sub, "id", None)) == name]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "mesh.py"),
                         ids=lambda p: p.name)
def test_gamma_tag_read_only_by_the_interface_terms(path):
    allowed = GAMMA_READERS.get(path.name, set())
    assert [(line, owner) for line, owner in
            owned_reads(path.read_text(), "INTERFACE_GAMMA")
            if owner not in allowed] == []


def test_gamma_tag_reader_detector():
    source = ("class _Interface:\n"
              "    def __init__(self, mesh):\n"
              "        self.gamma = mesh.facet_tags == "
              "FacetTag.INTERFACE_GAMMA.value\n"
              "def _gamma_mass(mesh):\n"
              "    return mesh.facet_tags == FacetTag.INTERFACE_GAMMA.value\n"
              "TAG = INTERFACE_GAMMA\n")
    assert owned_reads(source, "INTERFACE_GAMMA") == [
        (3, "_Interface"), (5, "_gamma_mass"), (6, None)]
    assert [owner for _line, owner in owned_reads(
        (PACKAGE / "coupling.py").read_text(), "INTERFACE_GAMMA")] == [
        "_Interface"]


# the facet measure over the reference measure: fem._facet_terms, the one
# owner of the boundary-facet quadrature's terms, is the one reader of
# facet_measure; the boundary mass, the top flux and the gamma terms take
# their measure scales from it
MEASURE_READERS = {"fem.py": {"_facet_terms"}}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_facet_measure_read_only_by_the_facet_terms(path):
    allowed = MEASURE_READERS.get(path.name, set())
    assert [(line, owner) for line, owner in
            owned_reads(path.read_text(), "facet_measure")
            if owner not in allowed] == []


def test_facet_measure_reader_detector():
    # the three facet quadratures that each scaled by the measure before
    # fem._facet_terms owned it
    source = ("def assemble_boundary_mass(mesh, dofmap, facets, weight):\n"
              "    scale = mesh.facet_measure(keys) / ref_measure\n"
              "def _flux_chunks(mesh, dofmap, support, q_panel):\n"
              "    scale = mesh.facet_measure(top) / (1.0 if mesh.dim == 2 "
              "else 0.5)\n"
              "class _Interface:\n"
              "    def __init__(self, local_mesh, facets):\n"
              "        self.scale = local_mesh.facet_measure(facets) / ref\n"
              "def _facet_terms(mesh, dofmap, facets, rule):\n"
              "    return mesh.facet_measure(facets)\n")
    assert [(line, owner) for line, owner in
            owned_reads(source, "facet_measure")
            if owner not in MEASURE_READERS["fem.py"]] == [
        (2, "assemble_boundary_mass"), (4, "_flux_chunks"), (7, "_Interface")]
    assert [owner for _line, owner in owned_reads(
        (PACKAGE / "fem.py").read_text(), "facet_measure")] == ["_facet_terms"]


# the strip floor H - H_minus: GeometryConfig computes it, and every mesh
# builder, strip test and load footprint reads it from there
FLOOR_OWNERS = {"mesh.py": {"GeometryConfig"}}


def strip_floor_computations(source):
    """(line, owner) of every subtraction of H_minus in a module, owner the
    top-level def or class it sits in (None at module level)."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        found += [(sub.lineno, owner) for sub in ast.walk(node)
                  if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
                  and "H_minus" in (getattr(sub.right, "attr", None),
                                    getattr(sub.right, "id", None))]
    return sorted(found)


def test_strip_floor_computed_only_by_the_geometry():
    assert [(path.name, line, owner) for path in sorted(PACKAGE.glob("*.py"))
            for line, owner in strip_floor_computations(path.read_text())
            if owner not in FLOOR_OWNERS.get(path.name, set())] == []


def test_strip_floor_detector():
    source = ("class GeometryConfig:\n"
              "    def floor(self):\n"
              "        return self.H - self.H_minus\n"
              "def inside(x, geom):\n"
              "    return x >= geom.H - geom.H_minus - 1e-12\n"
              "BOTTOM = H - H_minus\n"
              "TOP = H_minus - H\n"
              "def thick(geom):\n    return geom.H_minus + geom.H_minus\n")
    assert strip_floor_computations(source) == [
        (3, "GeometryConfig"), (5, "inside"), (6, None)]
    assert [owner for _line, owner in strip_floor_computations(
        (PACKAGE / "mesh.py").read_text())] == ["GeometryConfig"]


# the cell Jacobians: mesh._cell_geometry inverts them and takes their
# determinants, once per cell shape, for every reader; the one other
# determinant is the orientation test of a block's Kuhn simplices
JACOBIAN_OWNERS = {("mesh.py", "_cell_geometry"): {"inv", "det"},
                   ("mesh.py", "_block_simplices"): {"det"}}


def linalg_calls(source):
    """(line, owner, name) of every call of numpy's linalg inv or det in a
    module, as np.linalg.inv(...) or as a bare inv(...), owner the
    top-level def or class it sits in (None at module level)."""
    def called(func):
        if isinstance(func, ast.Attribute) and \
                getattr(func.value, "attr", None) == "linalg":
            return func.attr
        return getattr(func, "id", None)

    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        found += [(sub.lineno, owner, called(sub.func))
                  for sub in ast.walk(node) if isinstance(sub, ast.Call)
                  and called(sub.func) in ("inv", "det")]
    return sorted(found)


def test_cell_jacobians_only_in_cell_geometry():
    assert [(path.name, line, owner, name)
            for path in sorted(PACKAGE.glob("*.py"))
            for line, owner, name in linalg_calls(path.read_text())
            if name not in JACOBIAN_OWNERS.get((path.name, owner), set())] \
        == []


def test_cell_jacobian_detector():
    # the per-cell inverse that fem._unit_stiffness and a location scan
    # could each take again
    source = ("def _cell_geometry(mesh):\n"
              "    return np.linalg.inv(J), abs(np.linalg.det(J))\n"
              "def _unit_stiffness(pts):\n"
              "    return np.linalg.inv(pts[:, 1:] - pts[:, :1])\n"
              "from numpy.linalg import det\n"
              "VOLUME = det(J)\n"
              "X = np.linalg.solve(J, b)\n"
              "class Scan:\n"
              "    def rest(self, J, x):\n"
              "        return la.linalg.inv(J) @ x\n")
    assert linalg_calls(source) == [
        (2, "_cell_geometry", "det"), (2, "_cell_geometry", "inv"),
        (4, "_unit_stiffness", "inv"), (6, None, "det"), (10, "Scan", "inv")]
    assert {(owner, name) for _line, owner, name in linalg_calls(
        (PACKAGE / "mesh.py").read_text())} == {
        ("_cell_geometry", "inv"), ("_cell_geometry", "det"),
        ("_block_simplices", "det")}


# a study point is one ExperimentConfig: a function that takes the config
# reads every parameter of the point from it, so none of its other
# parameters is named after a config field
CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def config_shadows(source, field_names):
    """(line, function, parameter) of every parameter named after one of
    field_names in a function that also takes the config: one with a
    ``cfg`` parameter, or a method of ExperimentConfig that takes
    ``self``."""
    found = []
    for top in ast.parse(source).body:
        methods = top.body if isinstance(top, ast.ClassDef) and \
            top.name == "ExperimentConfig" else []
        for node in ast.walk(top):
            if not isinstance(node, ast.FunctionDef):
                continue
            spec = node.args
            params = [a.arg for a in
                      spec.posonlyargs + spec.args + spec.kwonlyargs]
            if "cfg" in params or (node in methods and
                                   params[:1] == ["self"]):
                found += [(node.lineno, node.name, name) for name in params
                          if name in field_names]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_study_argument_shadows_a_config_field(path):
    assert config_shadows(path.read_text(), CONFIG_FIELDS) == []


def test_config_shadow_detector():
    source = ("class ExperimentConfig:\n"
              "    def dd(self, theta=None):\n        pass\n"
              "    @classmethod\n"
              "    def from_json(cls, path, theta=None):\n        pass\n"
              "class Other:\n"
              "    def dd(self, theta=None):\n        pass\n"
              "def run_case(cfg, kappa_minus=None, h_minus=None):\n"
              "    def inner(cfg, m):\n        pass\n"
              "def compare(cfg, kappa_ratios=None, *, mesh_ratios=None):\n"
              "    pass\n"
              "def emit(records, config, seed=0):\n    pass\n")
    assert config_shadows(source, CONFIG_FIELDS) == [
        (2, "dd", "theta"), (10, "run_case", "kappa_minus"),
        (10, "run_case", "h_minus"), (11, "inner", "m"),
        (13, "compare", "mesh_ratios")]
    assert {"theta", "h_minus", "kappa_minus", "mesh_ratios"} <= CONFIG_FIELDS


# sparse factorizations: LinearSolver makes every one, where a kept unit
# pair shares it and a counter sees it; run_coupled_direct keeps its one
# LU of the whole block system as the independent oracle of the sweep
FACTORIZATION_OWNERS = {("linalg.py", "LinearSolver"),
                        ("dd_solver.py", "run_coupled_direct")}


def factorization_calls(source):
    """(line, owner) of every call of scipy's splu or factorized in a
    module, as spla.splu(...) or as a bare splu(...), owner the top-level
    def or class it sits in (None at module level)."""
    def called(func):
        return getattr(func, "attr", getattr(func, "id", None))

    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        found += [(sub.lineno, owner) for sub in ast.walk(node)
                  if isinstance(sub, ast.Call)
                  and called(sub.func) in ("splu", "factorized")]
    return sorted(found)


def test_factorizations_only_in_linear_solver():
    assert [(path.name, line, owner)
            for path in sorted(PACKAGE.glob("*.py"))
            for line, owner in factorization_calls(path.read_text())
            if (path.name, owner) not in FACTORIZATION_OWNERS] == []


def test_factorization_detector():
    # the two factorizations per coefficient that a study could make
    # again beside the kept unit pair
    source = ("class LinearSolver:\n"
              "    def solve(self, b):\n"
              "        return spla.splu(self.A).solve(b)\n"
              "def sweep_kappa(cfg):\n"
              "    lu = scipy.sparse.linalg.splu(K_minus.tocsc())\n"
              "from scipy.sparse.linalg import splu\n"
              "LU = splu(K_plus)\n"
              "def factor(A):\n    return spla.factorized(A)\n")
    assert factorization_calls(source) == [
        (3, "LinearSolver"), (5, "sweep_kappa"), (7, None), (9, "factor")]
    assert [owner for _line, owner in factorization_calls(
        (PACKAGE / "dd_solver.py").read_text())] == ["run_coupled_direct"]
    assert [owner for _line, owner in factorization_calls(
        (PACKAGE / "linalg.py").read_text())] == ["LinearSolver"]


# each matrix entry is summed in owner order (fem._CsrPattern), so no sum
# of the program's depends on scipy's in-row sort; only apply_dirichlet,
# the one function that takes a matrix from outside, puts one in
# canonical form
CANONICAL_FORM_OWNERS = {("fem.py", "apply_dirichlet")}


def canonical_form_calls(source):
    """(line, owner) of every call of a sparse matrix's sort_indices or
    sum_duplicates in a module, owner the top-level def or class it sits
    in (None at module level)."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        found += [(sub.lineno, owner) for sub in ast.walk(node)
                  if isinstance(sub, ast.Call)
                  and getattr(sub.func, "attr", None) in ("sort_indices",
                                                          "sum_duplicates")]
    return sorted(found)


def test_canonical_form_only_in_apply_dirichlet():
    assert [(path.name, line, owner)
            for path in sorted(PACKAGE.glob("*.py"))
            for line, owner in canonical_form_calls(path.read_text())
            if (path.name, owner) not in CANONICAL_FORM_OWNERS] == []


def test_canonical_form_detector():
    # a pattern that finds its layout by scipy's in-row sort, and a build
    # that sums duplicates again
    source = ("class _CsrPattern:\n"
              "    def __init__(self, ids, cols, indptr):\n"
              "        order = sp.csr_matrix((ids, cols, indptr))\n"
              "        order.sort_indices()\n"
              "def apply_dirichlet(A, b):\n"
              "    A.sum_duplicates()\n"
              "K.sum_duplicates()\n"
              "B = A.sorted_indices\n")
    assert canonical_form_calls(source) == [
        (4, "_CsrPattern"), (6, "apply_dirichlet"), (7, None)]
    assert [owner for _line, owner in canonical_form_calls(
        (PACKAGE / "fem.py").read_text())] == ["apply_dirichlet"]


# state kept by mesh.memoised lives on the dof map (or mesh) it belongs
# to, which is never changed in place, and is rebuilt only when another of
# its inputs, its key, differs by value; the coupled operators are fixed
# when built and hold their solve state once, so nothing keys state on the
# object that holds it, and a dof map holds its mesh, so no key names one
def memoised_calls(source):
    """(line, def or class, owner, key) of every memoised(...) call in a
    module: owner and key the source text of its first and third
    arguments, a key given by name the value last assigned to that name
    in the top-level def or class the call sits in (None at module
    level)."""
    found = []
    for node in ast.parse(source).body:
        top = getattr(node, "name", None)
        assigned = {target.id: sub.value for sub in ast.walk(node)
                    if isinstance(sub, ast.Assign) for target in sub.targets
                    if isinstance(target, ast.Name)}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and sub.args and getattr(
                    sub.func, "attr",
                    getattr(sub.func, "id", None)) == "memoised":
                key = sub.args[2] if len(sub.args) > 2 else ast.Tuple([])
                if isinstance(key, ast.Name):
                    key = assigned.get(key.id, key)
                found.append((sub.lineno, top, ast.unparse(sub.args[0]),
                              ast.unparse(key)))
    return sorted(found)


def memoised_owners(source):
    """(line, def or class, owner) of every memoised(...) call in a
    module (see memoised_calls)."""
    return [call[:3] for call in memoised_calls(source)]


def names_a_mesh(key):
    """Whether the source text of a key reads a mesh: a name or attribute
    spelled with "mesh" (mesh, gmesh, ops.global_mesh, dofmap.mesh)."""
    return any("mesh" in getattr(node, "id", getattr(node, "attr", ""))
               for node in ast.walk(ast.parse(key)))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_state_keyed_on_its_holder(path):
    assert [(line, top) for line, top, owner in
            memoised_owners(path.read_text()) if owner == "self"] == []


def test_memoised_owner_detector():
    # operators that key their solver pairs and unit scales on their own
    # blocks, beside the interface terms and unit block kept on dof maps
    source = ("class CoupledOperators:\n"
              "    def solvers(self, config):\n"
              "        pairs = memoised(self, '_solvers', (self.K_plus,),"
              " dict)\n"
              "    def _scales(self):\n"
              "        return mesh.memoised(self, '_unit_scales', ())\n"
              "def _interface(local_dofmap, build):\n"
              "    return memoised(local_dofmap, '_interface', (), build)\n"
              "class _UnitPair:\n"
              "    def __init__(self, dofmap, build):\n"
              "        self.plus = memoised(dofmap, '_unit_block', (), "
              "build)\n")
    assert memoised_owners(source) == [
        (3, "CoupledOperators", "self"), (5, "CoupledOperators", "self"),
        (7, "_interface", "local_dofmap"), (10, "_UnitPair", "dofmap")]
    assert {owner for _line, _top, owner in memoised_owners(
        (PACKAGE / "coupling.py").read_text())} == {"local_dofmap",
                                                    "global_dofmap", "dofmap"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_memoised_key_names_a_mesh(path):
    assert [(line, top, key) for line, top, _owner, key in
            memoised_calls(path.read_text()) if names_a_mesh(key)] == []


def test_memoised_key_detector():
    # keys that name the mesh their dof map holds, directly, through an
    # attribute or through a name assigned before the call, beside keys
    # of dof maps, configs and numbers
    source = ("def _stiffness_pattern(mesh, dofmap, build):\n"
              "    return memoised(dofmap, '_stiffness', (mesh,), build)\n"
              "def _load(geom, dofmap, problem, build):\n"
              "    key = (dofmap.mesh, geom, problem.f)\n"
              "    return memoised(dofmap, '_load', key, build)\n"
              "class _UnitPair:\n"
              "    def __init__(self, gd, ld, r, gmesh, build):\n"
              "        self.S = mesh.memoised(ld, '_S', (gd, gmesh), build)\n"
              "        self.D = memoised(ld, '_D', (gd, r), build)\n"
              "        self.plus = memoised(gd, '_unit_block', (), build)\n"
              "def _interface(ops, build):\n"
              "    return memoised(ops.local_dofmap, '_interface',\n"
              "                    (ops.global_mesh,), build)\n")
    calls = memoised_calls(source)
    assert [(line, top, key) for line, top, _owner, key in calls] == [
        (2, "_stiffness_pattern", "(mesh,)"),
        (5, "_load", "(dofmap.mesh, geom, problem.f)"),
        (8, "_UnitPair", "(gd, gmesh)"), (9, "_UnitPair", "(gd, r)"),
        (10, "_UnitPair", "()"), (12, "_interface", "(ops.global_mesh,)")]
    assert [line for line, _top, _owner, key in calls
            if names_a_mesh(key)] == [2, 5, 8, 12]
    # every key the package gives, some of them by name
    keys = [key for path in sorted(PACKAGE.glob("*.py"))
            for _line, _top, _owner, key in memoised_calls(path.read_text())]
    assert "(global_dofmap, r)" in keys
    assert "(geom, problem.f, problem.q, problem.flux_panel)" in keys


# every parameter a function takes is one it reads: a parameter its body
# never reads is an argument every caller passes for nothing (the mesh
# pair the S and D builders once took beside the dof maps that hold it)
def unread_parameters(source):
    """(line, function, parameter) of every parameter of a top-level
    function, or of a method of a top-level class, that its body never
    reads; a method's bound first parameter (self, cls) is not counted,
    and nested functions, callbacks whose signature their caller fixes,
    are not checked."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef):
            defs = [(top, 0)]
        elif isinstance(top, ast.ClassDef):
            defs = [(node, 0 if any(getattr(d, "id", None) == "staticmethod"
                                    for d in node.decorator_list) else 1)
                    for node in top.body if isinstance(node, ast.FunctionDef)]
        else:
            continue
        for node, bound in defs:
            spec = node.args
            params = [a.arg for a in spec.posonlyargs + spec.args][bound:]
            params += [a.arg for a in spec.kwonlyargs]
            params += [a.arg for a in (spec.vararg, spec.kwarg)
                       if a is not None]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)}
            found += [(node.lineno, node.name, name) for name in params
                      if name not in read]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_detector():
    # the S builder's mesh pair beside the dof maps that hold it; a
    # parameter read only in a nested callback counts as read, and the
    # callback's own unread parameter is its caller's to fix
    source = ("def assemble_S(global_mesh, local_mesh, gd, ld, *, jump=1.0,"
              " **extra):\n"
              "    return _interface(gd, ld).S.matrix(jump)\n"
              "def run(x, scale):\n"
              "    def step(iterates, first):\n"
              "        return scale * iterates\n"
              "    return step(x, True)\n"
              "class Solver:\n"
              "    def solve(self, b, tol):\n        return self.A @ b\n"
              "    @classmethod\n"
              "    def make(cls, A):\n        return cls()\n"
              "    @staticmethod\n"
              "    def unit(n):\n        return 1.0\n")
    assert unread_parameters(source) == [
        (1, "assemble_S", "global_mesh"), (1, "assemble_S", "local_mesh"),
        (1, "assemble_S", "extra"), (8, "solve", "tol"), (11, "make", "A"),
        (14, "unit", "n")]


# a comparison with an infinity is a number rule, and errors holds the one
# copy of each (errors.POSITIVE, NONNEGATIVE and FINITE), which every
# config, builder argument and table entry is checked by
INFINITY_OWNERS = {"errors.py"}


def is_infinity(node):
    """Whether an expression is np.inf, numpy.inf, math.inf or a
    float("inf") spelling, under any unary signs."""
    while isinstance(node, ast.UnaryOp) and \
            isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Attribute):
        return node.attr == "inf" and \
            getattr(node.value, "id", None) in ("np", "numpy", "math")
    return isinstance(node, ast.Call) and \
        getattr(node.func, "id", None) == "float" and \
        len(node.args) == 1 and isinstance(node.args[0], ast.Constant) and \
        str(node.args[0].value).strip().lstrip("+-").lower() in (
            "inf", "infinity")


def infinity_comparisons(source):
    """Line of every comparison in a module that has an infinity as an
    operand."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(map(is_infinity, [node.left, *node.comparators])))


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name not in INFINITY_OWNERS),
                         ids=lambda p: p.name)
def test_no_infinity_comparison_outside_errors(path):
    assert infinity_comparisons(path.read_text()) == []


def test_infinity_comparison_detector():
    # the hand-written rules that the config, builder and mesh checks
    # each kept before errors held the one copy
    source = ("import math\nimport numpy as np\n"
              "def check(k, alpha, h):\n"
              "    if not all(0 < x < np.inf for x in k):\n"
              "        pass\n"
              "    ok = 0 <= alpha < math.inf\n"
              "    ok = -np.inf < h and h != float('-Infinity')\n"
              "    ok = h < float(limit) or h == numpy.inf\n"
              "    rho = np.inf\n"
              "    return np.isfinite(h) and h < np.finfo(float).max\n")
    assert infinity_comparisons(source) == [4, 6, 7, 7, 8]
    assert infinity_comparisons((PACKAGE / "errors.py").read_text()) != []


# a dof map holds its mesh, so a function that takes both takes one of
# them for nothing, and an unchecked mismatched pair runs without a word
# (assemble_stiffness on the 1/160 box mesh and the dof map of the 1/320
# strip, 32 cells each, gives four times the strip stiffness); the four
# functions the benchmark calls with a mesh keep it and check it
MESH_BESIDE_DOFMAP = {"assemble_load", "evaluate_field",
                      "cell_midpoint_values", "build_coupled_operators"}


def mesh_beside_dofmap(source):
    """(line, function) of every function or method, nested ones
    included, that takes a parameter spelled with "mesh" (mesh, gmesh,
    local_mesh) beside one spelled with "dofmap" or ending in "dof"
    (dofmap, global_dofmap, ldof); dofs, an index array, is no dof map."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            spec = node.args
            names = [a.arg for a in spec.posonlyargs + spec.args
                     + spec.kwonlyargs]
            if any("mesh" in n for n in names) and any(
                    "dofmap" in n or n.endswith("dof") for n in names):
                found.append((node.lineno, getattr(node, "name", "lambda")))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_takes_a_mesh_beside_its_dofmap(path):
    assert [(line, name) for line, name in mesh_beside_dofmap(
        path.read_text()) if name not in MESH_BESIDE_DOFMAP] == []


def test_mesh_beside_dofmap_detector():
    # the stiffness, a fitted solve, a load kept for scaling, a nested
    # lookup and a lambda that take the mesh beside its dof map, beside
    # functions that take one of them or an index array of dofs
    source = ("def assemble_stiffness(mesh, dofmap, kappa):\n"
              "    return _stiffness_pattern(dofmap).matrix(kappa)\n"
              "def solve_fitted(dofmap, kappa_cells, load, T_D, *,\n"
              "                 fitted_mesh=None):\n"
              "    pass\n"
              "class ScaledLoad:\n"
              "    def __init__(self, mesh, dofmap, f, q):\n"
              "        pass\n"
              "def picard(geom):\n"
              "    def located(lmesh, ldof, x):\n"
              "        return _basis_at_points(ldof, x)\n"
              "    return lambda gmesh, gdof: gdof\n"
              "def apply_dirichlet(A, b, dofs, value):\n"
              "    pass\n"
              "def strip_cells(mesh, geom):\n"
              "    pass\n"
              "def l2_error(dofmap, coeffs, exact):\n"
              "    pass\n")
    assert mesh_beside_dofmap(source) == [
        (1, "assemble_stiffness"), (3, "solve_fitted"), (7, "__init__"),
        (10, "located"), (12, "lambda")]
    # the package's own: the four the benchmark calls with a mesh
    assert {name for path in PACKAGE.glob("*.py") for _line, name in
            mesh_beside_dofmap(path.read_text())} == MESH_BESIDE_DOFMAP
