"""Parameter selection, torus extraction and direct invariance verification."""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from ..normalform import (eval_phi_series, nu_max_profile, phi_grid,
                          phi_grid_size)
from ..series import coordinates, differentiate, evaluate_all, freeze_phi
from ..symplectic import vector_field
from .cohom import restrict_z0


@dataclass
class TorusResult:
    phi0: np.ndarray
    embedding: dict          # q-only displacement series uq, ux, up, uy
    distance_to_trivial: float


def find_vanishing_point(zeta, alpha, beta):
    """Global maximization of zeta on a dense grid plus local ascent.

    Ties on the grid break toward the smallest row-major (lexicographic)
    coordinate; the refinement runs at most 200 Newton steps on the gradient
    with a safeguarded step size down to gradient norm <= 1e-12.
    """
    l = zeta.grading.l
    grid = phi_grid(l, phi_grid_size(zeta.grading.K_phi))
    vals = eval_phi_series(zeta, grid).real
    idx = int(np.argmax(vals))
    phi = grid[idx].copy()
    dzeta = [differentiate(zeta, ("phi", i)) for i in range(l)]
    hess = [[differentiate(dzeta[i], ("phi", j)) for j in range(l)]
            for i in range(l)]

    def gradient(p):
        return np.array([eval_phi_series(dzeta[i], p[None, :])[0].real
                         for i in range(l)])

    def hessian(p):
        return np.array([[eval_phi_series(hess[i][j], p[None, :])[0].real
                          for j in range(l)] for i in range(l)])

    g = gradient(phi)
    for _ in range(200):
        gn = float(np.linalg.norm(g))
        if gn <= 1e-12:
            break
        H = hessian(phi)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = g * 0.1
        # safeguard: shrink until the gradient norm decreases
        lam = 1.0
        for _ in range(60):
            cand = phi + lam * step
            gc = gradient(cand)
            if np.linalg.norm(gc) < gn:
                phi, g = cand, gc
                break
            lam *= 0.5
        else:
            phi = phi + 1e-3 * g / max(gn, 1e-300)
            g = gradient(phi)
    phi = np.mod(phi, 2 * math.pi)
    info = {"grad_norm": float(np.linalg.norm(gradient(phi))),
            "zeta_values": vals}
    if alpha is not None:
        info["alpha_at_phi0"] = np.array(
            [eval_phi_series(a, phi[None, :])[0].real for a in alpha])
    if beta is not None:
        info["nu_max_at_phi0"] = float(nu_max_profile(beta, phi)[0])
    return phi, info


def extract_torus(state, phi0):
    """Embedding q -> Phi^n(phi0, q, 0, 0, 0), stored as q-only displacements."""
    phi0 = np.asarray(phi0, dtype=float)
    emb = {}
    for (kind, _), u in zip(coordinates(state.grading), state.Phi.U):
        emb.setdefault("u" + kind, []).append(freeze_phi(restrict_z0(u), phi0))
    for comps in emb.values():
        for u in comps:
            defect = u.reality_defect()
            if defect > 1e-9 * max(1.0, u.max_abs_coeff()):
                raise ConvergenceError("embedding component lost reality "
                                       "symmetry (defect %.3g)" % defect)
    qs = phi_grid(state.grading.d, 32)
    vec = evaluate_all([u for comps in emb.values() for u in comps], q=qs)
    dist = float(np.linalg.norm(vec, axis=1).max())
    return TorusResult(phi0=phi0, embedding=emb, distance_to_trivial=dist)


def verify_invariance(H, embedding, omega, grid_n=64):
    """max over a q-grid of |X_H(emb(q)) - D emb(q) . omega|.

    H must already be parameter-free (frozen at the selected phi0); the
    embedding holds q-only displacement series of one grading."""
    gr = H.grading
    d = gr.d
    omega = np.asarray(omega, dtype=float)
    # the field's components and the embedding's, in the order of coordinates
    fields = [u for us in vector_field(H) for u in us]
    comps = [embedding["u" + kind][i] for kind, i in coordinates(gr)]
    cols = {}
    for n, (kind, _) in enumerate(coordinates(gr)):
        cols.setdefault(kind, []).append(n)
    # D emb . omega: identity part contributes omega on the q-rows
    derivs = [differentiate(u, ("q", j)) for u in comps for j in range(d)]
    qs = phi_grid(d, grid_n)
    # the embedding and its q-derivatives on the grid, in one evaluation
    on_grid = evaluate_all(comps + derivs, q=qs)
    at = {kind: on_grid[:, c] for kind, c in cols.items()}
    X = evaluate_all(fields, q=qs + at["q"], x=at["x"], p=at["p"], y=at["y"])
    D = on_grid[:, len(comps):].reshape(len(qs), len(comps), d)
    flow = D @ omega
    flow[:, cols["q"]] += omega
    return float(np.linalg.norm(X - flow, axis=1).max())
