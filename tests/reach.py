"""Which functions of kamtori the benchmark's workloads never run.

    PYTHONPATH=src python tests/reach.py > reach.txt
    PYTHONPATH=src python tests/reach.py --against reach.txt

Runs set-up, solve and check of each workload of bench/workloads.py (seed
101) under sys.setprofile, from before kamtori is imported, and prints each
function and method of src/kamtori (nested ones too; not class bodies,
lambdas or comprehensions) whose code never ran, as "<module>.<qualname>".
With --against, the names that differ are listed and the exit code is 1.
"""

import argparse
import ast
import glob
import os
import sys
import tempfile

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "bench")


def defined_functions(package_dir):
    """{(path, first line, name): "<module>.<qualname>"} of every def in the
    package; a decorated def's code starts at its first decorator."""
    out = {}

    def collect(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[path, first, child.name] = ".".join(prefix + [child.name])
                collect(child, prefix + [child.name, "<locals>"], path)
            else:
                collect(child, prefix + [child.name]
                        if isinstance(child, ast.ClassDef) else prefix, path)

    for path in glob.glob(os.path.join(package_dir, "**", "*.py"),
                          recursive=True):
        module = os.path.relpath(path[:-3], os.path.dirname(package_dir))
        with open(path) as fh:
            collect(ast.parse(fh.read()),
                    [module.replace(os.sep, ".").removesuffix(".__init__")],
                    os.path.realpath(path))
    return out


def unreached():
    """(sorted names of the functions that never ran, number of functions)."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path.insert(0, BENCH)
    cwd = os.getcwd()
    sys.setprofile(profile)
    try:
        import kamtori
        import workloads
        for wl in workloads.WORKLOADS.values():
            with tempfile.TemporaryDirectory() as tmp:
                try:
                    problem = wl.setup(101, tmp)
                    wl.check(problem, wl.solve(problem))
                finally:
                    os.chdir(cwd)
    finally:
        sys.setprofile(None)
    ran = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
           for c in seen}
    defs = defined_functions(os.path.dirname(kamtori.__file__))
    return sorted(n for key, n in defs.items() if key not in ran), len(defs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", help="an earlier output to compare with")
    args = ap.parse_args(argv)
    names, total = unreached()
    print("\n".join(names))
    print("%d of %d functions never ran" % (len(names), total),
          file=sys.stderr)
    if not args.against:
        return 0
    with open(args.against) as fh:
        before = set(fh.read().split())
    diff = sorted(before.symmetric_difference(names))
    for name in diff:
        print("now %s: %s" % ("reached" if name in before else "unreached",
                              name), file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
