"""The paper's identities between the counter-term and the averaged energy
profile zeta, measured on the admissible set of the parameter grid: alpha =
grad zeta with D alpha = Hess zeta (criterion 5), and the curvature relation
tying the beta block to the Hessian of zeta through the map differential
(criterion 6).  No run measures them; the tests check them on computed
states."""

from dataclasses import dataclass

import numpy as np

from kamtori.engine.cohom import restrict_z0
from kamtori.normalform import (eval_phi_series, mat_eval_grid,
                                nu_max_profile, phi_grid, phi_grid_size)
from kamtori.series import average_q, coordinates, differentiate
from kamtori.symplectic import _CONJUGATE


@dataclass
class StepDiagnostics:
    alpha_grad_gap: float = None
    alpha_hess_gap: float = None
    beta_relation_gap: float = None
    L_dev: float = None
    R_dev: float = None
    admissible_points: int = 0


def check_alpha_gradient(state, zeta, prev_beta, prev_delta):
    """Max gaps |alpha - grad zeta| and |D alpha - Hess zeta| on the admissible set."""
    gr = state.grading
    grid = phi_grid(gr.l, phi_grid_size(gr.K_phi))
    nu = nu_max_profile(prev_beta, grid)
    mask = nu <= prev_delta
    diag = StepDiagnostics(admissible_points=int(mask.sum()))
    if not mask.any():
        return diag
    alpha_vals = np.stack([eval_phi_series(a, grid).real for a in state.alpha],
                          axis=-1)
    grad = np.stack([eval_phi_series(differentiate(zeta, ("phi", i)), grid).real
                     for i in range(gr.l)], axis=-1)
    diag.alpha_grad_gap = float(np.max(np.linalg.norm(
        (alpha_vals - grad)[mask], axis=-1)))
    dal = np.stack([[eval_phi_series(differentiate(state.alpha[i], ("phi", j)),
                                     grid).real
                     for j in range(gr.l)] for i in range(gr.l)], axis=-1).T
    hess = np.stack([[eval_phi_series(
        differentiate(differentiate(zeta, ("phi", i)), ("phi", j)), grid).real
        for j in range(gr.l)] for i in range(gr.l)], axis=-1).T
    gap = np.abs(dal - hess).reshape(len(grid), -1).max(axis=-1)
    diag.alpha_hess_gap = float(np.max(gap[mask]))
    return diag


def check_beta_relation(state, prev_beta, prev_delta):
    """Residual of beta - Gamma M^{-1} Gamma^T - L (D alpha) R on the admissible set.

    L and R are built from the parameter differential of the cumulative map;
    both reduce to the identity at the trivial map."""
    gr = state.grading
    d, l = gr.d, gr.l
    m = d + l
    grid = phi_grid(gr.l, phi_grid_size(gr.K_phi))
    nu = nu_max_profile(prev_beta, grid)
    mask = nu <= prev_delta
    diag = StepDiagnostics(admissible_points=int(mask.sum()))
    if not mask.any():
        return diag
    grid = grid[mask]
    npts = len(grid)
    Phi = state.Phi
    # rows in the order of coordinates(gr)
    row = {v: n for n, v in enumerate(coordinates(gr))}
    # W rows: (D_phi Phi_q; I + D_phi Phi_x; D_phi Phi_p; D_phi Phi_y) at z = 0
    W = np.zeros((npts, 2 * m, l))
    for i, comp in enumerate(Phi.U):
        for j in range(l):
            ser = average_q(restrict_z0(differentiate(comp, ("phi", j))))
            W[:, i, j] = eval_phi_series(ser, grid).real
    for j in range(l):
        W[:, row["x", j], j] += 1.0
    # dPhi/dy at z = 0 (2m x l), identity on the y-rows
    DY = np.zeros((npts, 2 * m, l))
    for i, comp in enumerate(Phi.U):
        for j in range(l):
            ser = average_q(restrict_z0(differentiate(comp, ("y", j))))
            DY[:, i, j] = eval_phi_series(ser, grid).real
    for j in range(l):
        DY[:, row["y", j], j] += 1.0
    # J with the orientation that makes R the identity at the trivial map:
    # -1 from q_i to p_i and from x_i to y_i, +1 back
    J = np.zeros((2 * m, 2 * m))
    for (kind, i), n in row.items():
        sign, var = _CONJUGATE[kind]
        J[n, row[var, i]] = -sign
    # L = M_q(d_x Phi_x)^T - Gamma M^{-1} d_p M_q Phi_x
    DXX = np.zeros((npts, l, l))
    for i in range(l):
        for j in range(l):
            ser = average_q(restrict_z0(differentiate(Phi.Ux[i], ("x", j))))
            DXX[:, i, j] = eval_phi_series(ser, grid).real
        DXX[:, i, i] += 1.0
    DPX = np.zeros((npts, d, l))
    for i in range(l):
        for j in range(d):
            ser = average_q(restrict_z0(differentiate(Phi.Ux[i], ("p", j))))
            DPX[:, j, i] = eval_phi_series(ser, grid).real
    dal = np.zeros((npts, l, l))
    for i in range(l):
        for j in range(l):
            dal[:, i, j] = eval_phi_series(
                differentiate(state.alpha[i], ("phi", j)), grid).real
    beta = mat_eval_grid(state.N.beta, grid)
    Gam = mat_eval_grid(state.N.Gamma, grid)
    M = mat_eval_grid(state.N.M, grid)
    T = lambda a: np.swapaxes(a, 1, 2)
    R = np.linalg.inv(T(DY) @ J @ W)
    L = T(DXX) - Gam @ np.linalg.solve(M, DPX)
    rel = beta - Gam @ np.linalg.solve(M, T(Gam)) - L @ dal @ R
    diag.beta_relation_gap = float(np.max(np.abs(rel)))
    diag.L_dev = float(np.max(np.abs(L - np.eye(l))))
    diag.R_dev = float(np.max(np.abs(T(R) - np.eye(l))))
    return diag
