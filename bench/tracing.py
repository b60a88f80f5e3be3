"""Spans around the library's public functions, recorded from outside it.

Each traced function is replaced by a wrapper in every ``kamtori`` module
namespace and class that holds it, so calls made from inside the library
(``engine.driver.compose_maps``, ``engine.cohom.multiply``,
``FTSeries.majorant_norm``) pass through the span as well. Spans are kept in
memory as parallel lists and written out once, after the round.
"""

import functools
import importlib
import sys
import time

import numpy as np

# (layer = module under kamtori, function or Class.method)
TARGETS = [
    ("series", "multiply"),
    ("series", "differentiate"),
    ("series", "majorant_norm"),
    ("series", "ck_norm_estimate"),
    ("series", "taylor_split"),
    ("series", "evaluate"),
    ("series", "to_json_dict"),
    ("series", "from_json_dict"),
    ("smalldiv", "solve_L1"),
    ("smalldiv", "solve_L2"),
    ("normalform", "project_phi_values"),
    ("normalform", "majorant_at_phi"),
    ("normalform", "eval_phi_series"),
    ("normalform", "bump_psi"),
    ("symplectic", "poisson_bracket"),
    ("symplectic", "GeneratingFunction.bracket_with"),
    ("symplectic", "lie_transform"),
    ("symplectic", "lie_tail_integral"),
    ("symplectic", "map_from_generator"),
    ("symplectic", "symplecticity_residual"),
    ("symplectic", "compose_maps"),
    ("symplectic", "series_compose"),
    ("symplectic", "reduce_coordinates"),
    ("engine.cohom", "solve_cohomological"),
    ("engine.cohom", "freeze_phi"),
    ("engine.driver", "iterate"),
    ("engine.driver", "kam_step"),
    ("engine.driver", "conjugacy_residual"),
    ("engine.diagnostics", "compute_zeta"),
    ("engine.torus", "find_vanishing_point"),
    ("engine.torus", "extract_torus"),
    ("engine.torus", "verify_invariance"),
    ("cli", "cmd_reduce"),
    ("cli", "cmd_run"),
    ("cli", "cmd_verify"),
]

LABELS = ["%s.%s" % target for target in TARGETS]
OPERAND_PAIRS = "series.multiply.operand_pairs"


def metric_names():
    """Every per-layer metric a traced round reports, with its unit."""
    out = []
    for label in LABELS:
        out += [(label + ".calls", "count"), (label + ".total_s", "s"),
                (label + ".self_s", "s")]
    out.append((OPERAND_PAIRS, "count"))
    return out


class Tracer:
    """Span store: name id, start, end and parent index of every call."""

    def __init__(self):
        self.labels = []
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.outer = []      # False when a span of the same name encloses it
        self.operand_pairs = 0
        self._stack = [-1]
        self._active = []

    def wrap(self, label, fn):
        nid = len(self.labels)
        self.labels.append(label)
        self._active.append(0)
        names, parents, starts, ends, outer = (
            self.names, self.parents, self.starts, self.ends, self.outer)
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            active[nid] += 1
            outer.append(active[nid] == 1)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[nid] -= 1

        return traced

    def install(self):
        """Wrap every target and rebind it wherever the library holds it.

        The library captures none of these names at definition time (no
        default arguments or stored references), so module and class
        namespaces are every place a call can come from."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "kamtori" or name.startswith("kamtori.")]
        for (modname, qual), label in zip(TARGETS, LABELS):
            mod = importlib.import_module("kamtori." + modname)
            if "." in qual:
                cls_name, attr = qual.split(".")
                original = vars(getattr(mod, cls_name))[attr]
            else:
                original = getattr(mod, qual)
            fn = original
            if label == "series.multiply":
                fn = self._count_pairs(original)
            if _rebind(modules, original, self.wrap(label, fn)) == 0:
                raise RuntimeError("no binding of %s found" % label)

    def _count_pairs(self, multiply):
        @functools.wraps(multiply)
        def counted(f, g):
            self.operand_pairs += len(f.terms) * len(g.terms)
            return multiply(f, g)
        return counted

    def table(self):
        """{metric: value} for every label, plus the operand-pair count."""
        n = len(self.starts)
        ids = np.asarray(self.names, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        outer = np.asarray(self.outer, dtype=bool)
        k = len(self.labels)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids[outer], weights=dur[outer], minlength=k)
        selft = np.bincount(ids, weights=self_time, minlength=k)
        out = {}
        for i, label in enumerate(self.labels):
            out[label + ".calls"] = int(calls[i])
            out[label + ".total_s"] = float(total[i])
            out[label + ".self_s"] = float(selft[i])
        out[OPERAND_PAIRS] = int(self.operand_pairs)
        return out

    def write(self, path):
        """One line per span: name, start, end (perf_counter s), parent."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for nid, s, e, p in zip(self.names, self.starts, self.ends,
                                    self.parents):
                fh.write("%s,%.9f,%.9f,%d\n"
                         % (self.labels[nid], s - t0, e - t0, p))


def _rebind(modules, original, wrapped):
    """Replace `original` by `wrapped` in the modules and their classes;
    returns the number of bindings replaced."""
    count = 0
    owners = {}
    for mod in modules:
        owners[id(mod)] = mod
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__.startswith("kamtori"):
                owners[id(val)] = val
    for owner in owners.values():
        for name, val in list(vars(owner).items()):
            if val is original:
                setattr(owner, name, wrapped)
                count += 1
    return count
