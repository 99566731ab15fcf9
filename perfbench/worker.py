"""One workload process: a cold first operation, then steady-state operations.

Started by ``run.py`` in a fresh interpreter, with ``src`` on the path.
Prints one JSON object as its last line of standard output.  The set-up
time runs from just before ``import gldd`` to the end of the first
operation.  Operations run one after another (a closed loop with one
client) until the steady-state budget is spent, at least one of them after
the first.  The reference kernel runs after every operation, so each
steady operation has a kernel time right before and right after it.  The
peak resident memory is read after the first two operations; the output
checks run after the last one, untimed and untraced.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--spans", default=None,
                    help="trace the operations and write the spans here")
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    import gldd  # noqa: F401  (the cold start is timed from here)

    import reference
    import workloads
    from tracing import Tracer, metric_names, per_op_metrics

    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed * 1009 + args.index)
    tracer = Tracer()
    if args.spans:
        tracer.install()

    done = []  # (input, output or None, wall seconds)
    ref = []   # reference kernel time after each operation
    problems = []

    def one_op():
        inp = wl.make_input(rng)
        tracer.op = len(done)
        tracer.enabled = bool(args.spans)
        t = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception:
            problems.append(f"op {len(done)} raised:\n{traceback.format_exc()}")
            out = None
        finally:
            tracer.enabled = False
        t_end = time.perf_counter()
        done.append((inp, out, t_end - t))
        ref.append(reference.measure())
        return t_end

    t_first = one_op()
    setup_wall = t_first - t_import
    one_op()
    # read after the same two operations in every worker: the outputs kept
    # for the checks would otherwise add memory in proportion to how many
    # operations the machine's speed let the worker run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - t_first < args.budget:
        one_op()

    oracles = workloads.Oracles()
    failed = 0
    for k, (inp, out, _secs) in enumerate(done):
        if out is None:
            failed += 1
            continue
        bad = wl.check(inp, out, oracles)
        if bad:
            failed += 1
            unexpected = [b for b in bad if b != wl.known_fault]
            if unexpected:
                problems.append(f"op {k} failed checks {unexpected}")

    # steady operation k >= 1 sits between kernel runs k-1 and k
    scale = [reference.REF_S / (0.5 * (ref[k - 1] + ref[k]))
             for k in range(1, len(done))]
    op_wall = [secs for _inp, _out, secs in done[1:]]
    result = {
        "setup_s": setup_wall * reference.REF_S / ref[0],
        "op_s": [w * s for w, s in zip(op_wall, scale)],
        "setup_wall_s": setup_wall,
        "op_wall_s": op_wall,
        "ref_s": ref,
        "attempted": len(done),
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.spans:
        tracer.uninstall()
        layers = per_op_metrics(tracer.spans)
        empty = dict.fromkeys(metric_names(), 0)
        result["layers"] = [
            {name: v * s if name.endswith("_s") else v
             for name, v in layers.get(k, empty).items()}
            for k, s in zip(range(1, len(done)), scale)]
        tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed,
                                 "worker": args.index, "op_wall_s":
                                 [d[2] for d in done], "ref_s": ref})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
