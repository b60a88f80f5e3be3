"""Every function the benchmark traces by name still exists.

bench/tracing.py wraps the functions in its TARGETS list; a renamed or
deleted one would only fail a later traced benchmark run. It is loaded here
from its file (and not changed)."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("modname, qual", _targets(),
                         ids=lambda v: str(v))
def test_traced_target_resolves(modname, qual):
    owner = importlib.import_module("kamtori." + modname)
    *classes, name = qual.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(name)), "kamtori.%s.%s" % (modname, qual)
