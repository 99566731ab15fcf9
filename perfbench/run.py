"""Benchmark of the gldd two-mesh solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` as it stands, nothing is installed.  Each run starts three worker
processes one after another.  Each worker pays a cold start (the set-up
sample) and then runs steady-state operations for a third of ``--seconds``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from the traced operations with
``--trace 1``.  Times are reported at reference speed (see
``reference.py``); the raw wall times are printed on the line before.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_names, metric_unit

WORKLOADS = ("mesh-ratio-study", "picard-laser", "fine-radius", "solve-3d")
WORKERS = 3
DEADLINE_S = 170.0
# one thread per worker process: with the idle parent that is two threads,
# the core count of the reference machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_workers(args, here, src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    out_dir = here / "out"
    if args.trace:
        out_dir.mkdir(exist_ok=True)
    t0 = time.monotonic()
    results = []
    for k in range(WORKERS):
        cmd = [sys.executable, str(here / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--index", str(k), "--budget", repr(args.seconds / WORKERS)]
        if args.trace:
            cmd += ["--spans", str(out_dir / f"{args.workload}-w{k}.jsonl")]
        remaining = DEADLINE_S - (time.monotonic() - t0)
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {k} exited with {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def main(argv=None):
    args = parse_args(argv)
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "gldd" / "__init__.py").is_file():
        print(f"error: no gldd package under {src}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    try:
        results = run_workers(args, here, src)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for r in results:
        for p in r["problems"]:
            print(f"check: {p}", file=sys.stderr)
    op_times = [t for r in results for t in r["op_s"]]
    op_wall = statistics.median(t for r in results for t in r["op_wall_s"])
    ref = statistics.median(t for r in results for t in r["ref_s"])
    print(f"{len(op_times)} steady operations, {WORKERS} cold starts; "
          f"raw wall medians: operation {op_wall:.4f} s, set-up "
          f"{statistics.median(r['setup_wall_s'] for r in results):.4f} s, "
          f"reference kernel {ref:.4f} s")
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if args.trace:
        layers = [row for r in results for row in r["layers"]]
        metrics = {name: {"value": statistics.median(row[name]
                                                     for row in layers),
                          "unit": metric_unit(name)}
                   for name in metric_names()}
        print(f"traced op_s {statistics.median(op_times):.4f} s "
              f"(median of {len(op_times)} operations)")
    else:
        metrics = {
            "op_s": {"value": statistics.median(op_times), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"]
                                                   for r in results),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"]
                                                       for r in results),
                            "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    summary["metrics"] = metrics
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
