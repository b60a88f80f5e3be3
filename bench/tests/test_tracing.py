"""The tracer sees calls made from inside the library, and its self times
add up. Runs in a child interpreter, because installing the tracer rebinds
library functions for the rest of the process."""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import kamtori.cli
from kamtori.series import FTSeries, Grading
from tracing import Tracer
t = Tracer()
t.install()
gr = Grading(d=1, l=1, K_q=3, K_phi=3, D=3)
f = FTSeries.cos_angle(gr, 1.0, 1.0, (0,), (1,), 0.5)
g = FTSeries.cos_angle(gr, 1.0, 1.0, (1,), (1,), 0.25)
kamtori.symplectic.poisson_bracket(f, g)
f.majorant_norm()        # the method alias of series.majorant_norm
before = t.operand_pairs
f * g                    # FTSeries.__mul__ calls series.multiply
print(json.dumps({"table": t.table(), "parents": t.parents,
                  "labels": [t.labels[i] for i in t.names],
                  "pairs": t.operand_pairs - before}))
"""


def test_spans_cover_calls_from_inside_the_library():
    src = os.path.join(os.path.dirname(BENCH), "src")
    out = subprocess.run([sys.executable, "-c", SCRIPT, src, BENCH],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    res = json.loads(out.stdout.splitlines()[-1])
    tab, labels, parents = res["table"], res["labels"], res["parents"]
    assert tab["symplectic.poisson_bracket.calls"] == 1
    assert tab["series.majorant_norm.calls"] == 1
    # d = l = 1: four products of derivatives, called from poisson_bracket
    assert tab["series.multiply.calls"] == 4 + 1
    assert tab["series.differentiate.calls"] == 8
    assert res["pairs"] == 2 * 2    # two terms in each operand
    root = labels.index("symplectic.poisson_bracket")
    children = [lab for lab, par in zip(labels, parents) if par == root]
    assert sorted(set(children)) == ["series.differentiate", "series.multiply"]
    assert children.count("series.multiply") == 4
    for name, value in tab.items():
        if name.endswith(".self_s"):
            total = tab[name[:-len("self_s")] + "total_s"]
            assert 0.0 <= value <= total + 1e-9
