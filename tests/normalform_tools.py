"""Normal-form tuple helpers that only the tests use: the normal-form
predicate of the source paper on a parameter grid, a deep copy, and the JSON
round trip of a tuple (the recorded cohomological cases hold their Nbar in
this form)."""

import numpy as np

from kamtori.normalform import (NormalFormTuple, majorant_on_grid,
                                nu_max_profile, phi_grid, phi_grid_size)
from kamtori.series import differentiate, from_json_dict, to_json_dict


def is_normal_form(N, v, delta, tol, grid=None):
    """True iff w = v and g (with its phi-gradient) vanishes on the sublevel set."""
    gr = N.grading
    if grid is None:
        grid = phi_grid(gr.l, phi_grid_size(gr.K_phi))
    report = {"w_matches": bool(np.array_equal(np.asarray(v, dtype=float), N.w)),
              "violations": [], "max_g": 0.0, "max_dg": 0.0}
    nu = nu_max_profile(N.beta, grid)
    inside = grid[nu <= delta]
    mg = majorant_on_grid(N.g, inside)
    mdg = np.zeros(len(inside))
    for i in range(gr.l):
        mdg = np.maximum(mdg, majorant_on_grid(
            differentiate(N.g, ("phi", i)), inside))
    report["max_g"] = float(mg.max(initial=0.0))
    report["max_dg"] = float(mdg.max(initial=0.0))
    for idx in np.flatnonzero((mg > tol) | (mdg > tol)):
        report["violations"].append((tuple(inside[idx]), float(mg[idx]),
                                     float(mdg[idx])))
    ok = report["w_matches"] and not report["violations"]
    return ok, report


def copy_tuple(N):
    """A tuple of copies of N's components."""
    cp = lambda m: [[e.copy() for e in row] for row in m]
    return NormalFormTuple(np.array(N.w), N.c.copy(), cp(N.beta),
                           cp(N.Gamma), cp(N.M), cp(N.Q), N.g.copy(),
                           N.h.copy())


def tuple_to_json(N):
    mat = lambda m: [[to_json_dict(e) for e in row] for row in m]
    return {"w": [float(v) for v in N.w], "c": to_json_dict(N.c),
            "beta": mat(N.beta), "Gamma": mat(N.Gamma), "M": mat(N.M),
            "Q": mat(N.Q), "g": to_json_dict(N.g), "h": to_json_dict(N.h)}


def tuple_from_json(data):
    mat = lambda m: [[from_json_dict(e) for e in row] for row in m]
    return NormalFormTuple(np.asarray(data["w"], dtype=float),
                           from_json_dict(data["c"]), mat(data["beta"]),
                           mat(data["Gamma"]), mat(data["M"]), mat(data["Q"]),
                           from_json_dict(data["g"]), from_json_dict(data["h"]))
