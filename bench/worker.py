"""One round of one workload, in a fresh interpreter.

Started by run.py; writes a JSON result file. Times are read from
`time.monotonic()`, a system-wide clock, so the parent can measure set-up
from the moment it started this process.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1
        --workdir DIR --result FILE [--setup-only]
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result_path = os.path.abspath(args.result)
    workdir = os.path.abspath(args.workdir)

    import workloads  # loads every library module before tracing starts
    from speed import SpeedProbe
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]
    problem = wl.setup(args.seed, workdir)
    t_built = time.monotonic()
    result = {"t_built": t_built}
    if not args.setup_only:
        checks = []
        with SpeedProbe() as probe:
            try:
                out = wl.solve(problem)
                failure = wl.failure(out)
                if failure is None:
                    checks = [c.as_dict() for c in wl.check(problem, out)]
            except Exception:  # a failed operation: record it, keep the round
                failure = traceback.format_exc()
            wall = time.monotonic() - t_built
        result["wall_solve_s"] = wall
        result["slowdown"] = probe.slowdown()
        result["solve_s"] = probe.rescale(wall)
        result["failure"] = failure
        result["checks"] = checks
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["layers"] = tracer.table()
            tracer.write(os.path.join(workdir, "spans.csv"))
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
