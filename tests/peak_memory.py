"""The traced memory peak of each benchmark workload's solve, and where it
is reached, printed as one JSON object.

    PYTHONPATH=src python tests/peak_memory.py > peaks.json
    PYTHONPATH=src python tests/peak_memory.py --against peaks.json

Each workload of bench/workloads.py (read, not changed) builds its problem
(seed 101), then solves it under tracemalloc, started after set-up: the
peak counts what the solve holds at once on top of the problem. A profile
hook (sys.setprofile) reads the traced peak at every call and return, of
Python and C functions alike; when it has risen, it was reached since the
last event, while the innermost kamtori function then running ran (a C
function counts as the kamtori function that called it). Each entry is
{"peak_mb": traced peak in MB (2^20 bytes, as bench/worker.py counts
peak_rss_mb), "at": "<module>.<qualname>" of that function}.

With --against FILE, an earlier output, each workload whose peak rose more
than 5% above the file's value is listed and the exit code is 1. --only
PREFIX runs only the workloads whose name starts with PREFIX.
"""

import argparse
import json
import os
import sys
import tempfile
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "bench"))

import workloads  # noqa: E402

SEED = 101
RISE = 1.05   # the rise over an earlier peak that --against refuses


def _owner(frame):
    """"<module>.<qualname>" of the innermost kamtori frame from frame
    outwards, or None if no kamtori function is running."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module == "kamtori" or module.startswith("kamtori."):
            return "%s.%s" % (module, frame.f_code.co_qualname)
        frame = frame.f_back
    return None


def traced_solve(wl, problem):
    """(traced peak in bytes, the function holding it) of wl.solve(problem)."""
    top = [0, None]

    def profile(frame, event, arg):
        peak = tracemalloc.get_traced_memory()[1]
        if peak > top[0]:
            # until a call event, the frame running was the caller's; until
            # any other event, the frame itself
            top[:] = peak, _owner(frame.f_back if event == "call" else frame)

    tracemalloc.start()
    sys.setprofile(profile)
    try:
        wl.solve(problem)
    finally:
        sys.setprofile(None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # a peak reached after the last event falls to the last function seen
    return peak, top[1]


def peaks(only=""):
    out = {}
    cwd = os.getcwd()
    for name, wl in workloads.WORKLOADS.items():
        if not name.startswith(only):
            continue
        with tempfile.TemporaryDirectory() as tmp:
            try:
                peak, at = traced_solve(wl, wl.setup(SEED, tmp))
            finally:
                os.chdir(cwd)
        out[name] = {"peak_mb": round(peak / 2 ** 20, 3), "at": at}
    return out


def risen(got, want):
    """The workloads of got whose peak is more than RISE times want's."""
    return sorted(name for name in got if name in want
                  and got[name]["peak_mb"] > RISE * want[name]["peak_mb"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", help="an earlier output to compare with")
    ap.add_argument("--only", default="",
                    help="only the workloads whose name starts with this")
    args = ap.parse_args(argv)
    got = peaks(args.only)
    print(json.dumps(got, indent=1, sort_keys=True))
    if not args.against:
        return 0
    with open(args.against) as fh:
        want = json.load(fh)
    up = risen(got, want)
    for name in up:
        print("peak rose: %s %.3f -> %.3f MB" % (
            name, want[name]["peak_mb"], got[name]["peak_mb"]),
            file=sys.stderr)
    return 1 if up else 0


if __name__ == "__main__":
    sys.exit(main())
