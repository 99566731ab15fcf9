"""Quick self-check of the benchmark's own machinery (about a second).

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  It checks that the span arithmetic
gives the right self times and counts, that the tracer sees calls between
gldd modules and restores every patched name, that the output checks
reject wrong outputs, and that ``run.py`` refuses to run without the
package sources.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gldd  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def check_span_arithmetic():
    # op 0: coupling.build [0, 10] > fem.stiffness [1, 4] > mesh.locate [2, 3]
    #                               mesh.locate [5, 6], linalg.factor [7, 9]
    spans = [["coupling.build", 0.0, 10.0, -1, 0, 0],
             ["fem.stiffness", 1.0, 4.0, 0, 0, 0],
             ["mesh.locate", 2.0, 3.0, 1, 0, 0],
             ["mesh.locate", 5.0, 6.0, 0, 0, 0],
             ["linalg.factor", 7.0, 9.0, 0, 0, 0],
             ["fem.laser_flux", 11.0, 12.0, -1, 1, 64]]
    m = tracing.per_op_metrics(spans)
    expect(m[0]["coupling.self_s"] == 10.0 - 3.0 - 1.0 - 2.0,
           "self time subtracts direct children only")
    expect(m[0]["fem.self_s"] == 2.0 and m[0]["mesh.self_s"] == 2.0,
           "self time is summed per module")
    expect(m[0]["mesh.locate_calls"] == 2 and m[0]["mesh.locate_s"] == 2.0,
           "span counts and times per metric")
    expect(m[0]["linalg.factorizations"] == 1 and
           m[0]["linalg.factor_s"] == 2.0, "factorization spans")
    expect(m[1]["fem.flux_points"] == 64 and m[1]["coupling.builds"] == 0,
           "work counts stay with their operation")
    expect(set(m[0]) == set(tracing.metric_names()),
           "every per-layer metric is reported")


def check_tracer():
    import gldd.dd_solver as dd
    import gldd.fem as fem
    import gldd.linalg as la
    import gldd.mesh as mesh

    originals = (dd.build_dofmap, fem.locate_point, la.LinearSolver.solve,
                 la.spla, gldd.setup_case)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op, tracer.enabled = 0, True
    ops = dd.setup_case(mesh.GeometryConfig(), 1 / 160, 1 / 320, 1, 1.0, 0.5)
    rep = dd.run_two_level_dd(ops)
    tracer.enabled = False
    tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    expect(parents.get("mesh.build") == "dd_solver.setup_case" and
           parents.get("fem.stiffness") == "coupling.build" and
           parents.get("mesh.locate") in ("coupling.flux_jump_S",
                                          "coupling.penalty_D"),
           "spans nest across module boundaries")
    m = tracing.per_op_metrics(tracer.spans)[0]
    expect(m["coupling.builds"] == 1 and m["linalg.factorizations"] == 2 and
           m["dd_solver.sweeps"] == rep.iterations and
           m["linalg.solves"] == names.count("linalg.solve"),
           "counts of builds, factorizations, sweeps and solves")
    expect(originals == (dd.build_dofmap, fem.locate_point,
                         la.LinearSolver.solve, la.spla, gldd.setup_case),
           "uninstall restores every patched name")


def check_output_checks():
    expect(abs(workloads.flux_closed_form(2) - 72.512198) < 1e-6 and
           abs(workloads.flux_closed_form(3) - 0.131450) < 1e-6,
           "closed-form flux integrals")
    ops = workloads.setup_case(workloads.GEOM_2D, 1 / 160, 1 / 320, 1, 1.0,
                               0.5)
    rep = workloads.run_two_level_dd(ops)
    expect(workloads.block_residual(ops, rep.T_plus, rep.T_minus) <= 1e-7,
           "a converged pair passes the block residual")
    expect(workloads.block_residual(ops, rep.T_plus,
                                    rep.T_minus * (1 + 1e-4)) > 1e-7,
           "a pair scaled by 1 + 1e-4 fails the block residual")
    direct = workloads.direct_pair(ops)
    expect(workloads.pair_distance(rep.T_plus, rep.T_minus, *direct) <= 1e-7,
           "the sweep matches the direct block solve")
    # one strip dof off by 1 K passes the residual, whose norm of f is
    # dominated by the lifted penalty rows; the direct comparison catches it
    bad = rep.T_minus.copy()
    bad[len(bad) // 2] += 1.0
    expect(workloads.pair_distance(rep.T_plus, bad, *direct) > 1e-7,
           "the direct comparison rejects one dof off by 1 K")
    dense = workloads.dense_radius(ops)
    rho, _ = gldd.power_iteration_rho(
        gldd.dd_solver.make_iteration_operator(ops), ops.n_plus, tol=1e-12,
        max_iters=5000)
    expect(abs(rho - dense) <= 1e-6 * dense and
           abs(rho * (1 + 1e-5) - dense) > 1e-6 * dense,
           "the radius check accepts power iteration, rejects a 1e-5 error")
    faults = {w.name: w.known_fault for w in workloads.WORKLOADS.values()}
    expect(faults == {"mesh-ratio-study": None, "picard-laser": None,
                      "fine-radius": "radius", "solve-3d": None},
           "only fine-radius keeps a known fault")


def check_refuses_without_sources():
    bare = HERE / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "picard-laser",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "run.py exits non-zero, printing no result, without src/gldd")


if __name__ == "__main__":
    check_span_arithmetic()
    check_tracer()
    check_output_checks()
    check_refuses_without_sources()
    print("selfcheck passed")
