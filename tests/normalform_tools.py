"""Normal-form tuple helpers that only the tests use: the normal-form
predicate of the source paper on a parameter grid, a deep copy, the JSON
round trip of a tuple (the recorded cohomological cases hold their Nbar in
this form), and four constructions of a Hamiltonian from a tuple's blocks,
each writing its own TaylorSplit, whose bytes normalform.model_hamiltonian
must reproduce (the oracle of tests/test_normalform.py)."""

import numpy as np

from kamtori.normalform import (NormalFormTuple, const_matrix,
                                majorant_on_grid, nu_max_profile, phi_grid,
                                phi_grid_size)
from kamtori.series import (FTSeries, TaylorSplit, differentiate,
                            from_json_dict, to_json_dict)


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


# -- the four constructions of a Hamiltonian from a tuple's blocks --


def assembled_oracle(N):
    """assemble_hamiltonian: c + <w,p> + 1/2<Mp,p> + 1/2<Qy,y> + <Gamma p, x>
    + 1/2<beta x, x> + g + h."""
    gr = N.grading
    r, s = N.radii
    model = TaylorSplit(
        a=N.c, b_p=[FTSeries.constant(gr, r, s, w) for w in N.w],
        d_xx=N.beta, d_pp=N.M, d_yy=N.Q,
        d_px=[[N.Gamma[j][i] for j in range(gr.l)] for i in range(gr.d)])
    return model.reassemble() + N.g + N.h


def reduced_oracle(N, h_frozen, beta, Gamma, M):
    """The cohomological solve's N - g frozen on the grid, for (B, ., .)
    stacks beta, Gamma, M (the constant c is irrelevant)."""
    gr = N.grading
    r, s = N.radii
    return TaylorSplit(
        b_p=[FTSeries.constant(gr, r, s, w) for w in N.w],
        d_xx=const_matrix(gr, r, s, beta),
        d_pp=const_matrix(gr, r, s, M),
        d_yy=const_matrix(gr, r, s, np.eye(gr.l)),
        d_px=const_matrix(gr, r, s, np.swapaxes(Gamma, 1, 2)),
        remainder=h_frozen).reassemble()


def nbar_model_oracle(cbar, beta, Gamma, M, hbar):
    """The solve's model of the correction Nbar (w = 0, Q = 0, g = 0)."""
    l, d = len(beta), len(M)
    return TaylorSplit(
        a=cbar, d_xx=beta, d_pp=M,
        d_px=[[Gamma[j][i] for j in range(l)] for i in range(d)],
        remainder=hbar).reassemble()


def rotation_oracle(gr, r, s, omega):
    """compute_zeta's plain rotation term <omega, p>."""
    return TaylorSplit(
        b_p=[FTSeries.constant(gr, r, s, w) for w in omega]).reassemble()
