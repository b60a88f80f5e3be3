"""Benchmark entry point: time to a verified torus, per workload.

    python3 bench/run.py --workload coupled-1p1 --seed 101 --seconds 15 --trace 0

Every round runs in a fresh interpreter (bench/worker.py) with BLAS threads
pinned to 1. A run first builds the problem in SETUP_PROBES interpreters that
stop there, then repeats whole rounds until --seconds have passed. With
--trace 1 the rounds come in pairs, untraced then traced, and the run
reports the per-layer table of the traced rounds and the overhead of tracing.
The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("coupled-1p1", "threedof-cli", "l2-cohom")
SETUP_PROBES = 5
ROUND_TIMEOUT_S = 170
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


class RoundError(RuntimeError):
    """A round that ended without a result: the benchmark cannot run."""


def run_round(workload, seed, trace, workdir, setup_only=False):
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--workdir", workdir,
           "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    with open(os.path.join(workdir, "worker.log"), "w") as log:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RoundError("round timed out after %d s (%s)"
                             % (ROUND_TIMEOUT_S, workdir))
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(os.path.join(workdir, "worker.log")) as fh:
            tail = fh.read()[-2000:]
        raise RoundError("worker exited with %d:\n%s" % (proc.returncode, tail))
    with open(result_path) as fh:
        res = json.load(fh)
    res["setup_s"] = res["t_built"] - t_spawn
    return res


def summarize(rounds, setups, trace):
    attempted = len(rounds)
    done = [r for r in rounds if r["failure"] is None]
    correct = all(c["ok"] for r in done for c in r["checks"])
    metrics = {}
    if not trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["solve_s"] = (statistics.median(r["solve_s"] for r in rounds),
                              "s")
        metrics["peak_rss_mb"] = (
            statistics.median(r["peak_rss_mb"] for r in rounds), "MB")
    else:
        traced = [r for r in rounds if "layers" in r]
        plain = [r for r in rounds if "layers" not in r]
        for name, unit in tracing.metric_names():
            metrics[name] = (statistics.median(r["layers"][name]
                                               for r in traced), unit)
        t_on = statistics.median(r["solve_s"] for r in traced)
        t_off = statistics.median(r["solve_s"] for r in plain)
        metrics["tracing.traced_solve_s"] = (t_on, "s")
        metrics["tracing.untraced_solve_s"] = (t_off, "s")
        metrics["tracing.overhead_pct"] = (100.0 * (t_on - t_off) / t_off, "%")
        metrics["wall.solve_s"] = (
            statistics.median(r["wall_solve_s"] for r in plain), "s")
        metrics["wall.slowdown"] = (
            statistics.median(r["slowdown"] for r in plain), "ratio")
    return {"correct": bool(correct), "attempted": attempted,
            "failed": attempted - len(done),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run raises here, so subprocess.run kills and reaps the
    # round it is waiting on instead of leaving it running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "kamtori", "__init__.py")):
        print("error: no library source at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".bench_runs", args.workload)
    shutil.rmtree(base, ignore_errors=True)
    try:
        setups = [run_round(args.workload, args.seed, False,
                            os.path.join(base, "setup-%d" % i),
                            setup_only=True)["setup_s"]
                  for i in range(SETUP_PROBES)]
        rounds = []
        t_start = time.monotonic()
        while not rounds or time.monotonic() - t_start < args.seconds:
            for traced in ((False, True) if args.trace else (False,)):
                rounds.append(run_round(
                    args.workload, args.seed, traced,
                    os.path.join(base, "round-%d" % len(rounds))))
    except RoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if not args.trace:
        setups += [r["setup_s"] for r in rounds]
    for r in rounds:
        if r["failure"] is not None:
            print("failed round: %s" % r["failure"], file=sys.stderr)
        for c in r["checks"]:
            if not c["ok"]:
                print("check failed: %s" % c, file=sys.stderr)
    print(json.dumps(summarize(rounds, setups, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
