"""Every function the benchmark traces by name still exists, every
library name the workloads read resolves, and every workload builds its
problem.

bench/tracing.py wraps the functions in its TARGETS list, and
bench/workloads.py reads library names while it builds, solves and checks
each problem; a renamed or deleted one would only fail a later benchmark
run. Both are loaded here from their files (and not changed)."""

import ast
import importlib
import importlib.util
import inspect
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _load("tracing").TARGETS


@pytest.mark.parametrize("modname, qual", _targets(),
                         ids=lambda v: str(v))
def test_traced_target_resolves(modname, qual):
    owner = importlib.import_module("kamtori." + modname)
    *classes, name = qual.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(name)), "kamtori.%s.%s" % (modname, qual)


@pytest.mark.parametrize("name", ["coupled-1p1", "threedof-cli", "l2-cohom"])
def test_workload_setup_runs(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)   # workloads.py imports bench/checks.py
    monkeypatch.chdir(tmp_path)          # threedof-cli's setup changes into it
    problem = _load("workloads").WORKLOADS[name].setup(101, str(tmp_path))
    assert len(problem["points"])


def _workload_reads():
    """The (module, attribute) pairs of every `alias.attr` read in
    bench/workloads.py on an alias of a kamtori module."""
    with open(os.path.join(BENCH, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name.startswith("kamtori.")}
    return sorted({(aliases[node.value.id], node.attr)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in aliases})


def test_workloads_read_some_library_names():
    reads = _workload_reads()
    assert ("kamtori.engine.cohom", "coordinate") in reads
    assert ("kamtori.normalform", "phi_grid_size") in reads


@pytest.mark.parametrize("modname, attr", _workload_reads(),
                         ids=lambda v: str(v))
def test_workload_read_resolves(modname, attr):
    assert hasattr(importlib.import_module(modname), attr), \
        "%s.%s" % (modname, attr)


def _workload_calls():
    """(module, attribute, positional count, keyword names) of every call
    `alias.attr(...)` in bench/workloads.py on an alias of a kamtori
    module."""
    with open(os.path.join(BENCH, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name.startswith("kamtori.")}
    calls = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in aliases:
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(kw.arg is not None for kw in node.keywords)
            calls.add((aliases[node.func.value.id], node.func.attr,
                       len(node.args),
                       tuple(kw.arg for kw in node.keywords)))
    return sorted(calls)


def test_workloads_call_some_library_functions():
    calls = {(mod, attr) for mod, attr, _, _ in _workload_calls()}
    assert ("kamtori.engine", "solve_cohomological") in calls
    assert ("kamtori.cli", "main") in calls


@pytest.mark.parametrize("modname, attr, npos, keywords", _workload_calls(),
                         ids=lambda v: str(v))
def test_workload_call_binds(modname, attr, npos, keywords):
    # a call bench/workloads.py makes still binds to the current signature:
    # as many positional arguments, and each keyword a parameter
    sig = inspect.signature(getattr(importlib.import_module(modname), attr))
    sig.bind_partial(*[None] * npos, **dict.fromkeys(keywords))
