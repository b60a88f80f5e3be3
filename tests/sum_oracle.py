"""Linear combinations of series as left folds of `+`, one part at a time.

kamtori forms each linear combination of series as one series.ft_sum merge:
every slot sums its parts in list order and is pruned once at the end.
Written as folds, each `+` merges and prunes the sum so far with one more
part.  The two agree bit for bit exactly when no prune inside the fold drops
an entry; tests/test_sum_oracle.py checks that they do, byte for byte, on
the grid solve's combinations and on the reduction's sums:

- combine: the residual's combination of the channels, parts[0] plus each
  parts[1 + i] scaled by its counter term alpha_i;
- linear_generator: the channels' generators combined so, plus each y_i
  scaled by the mean of B_y;
- sigma_to_parametrized: the reduction's sum of a problem's terms, each
  term's exponential factor a fold too (taylor_exp_vector).
"""

import numpy as np

from kamtori.series import FTSeries, TaylorSplit, coordinate, multiply
from kamtori.symplectic import _action_substitution


def combine(parts, alpha_pt):
    """parts[0] + sum over i of alpha_i parts[1 + i], point by point (a
    part whose alpha is zero at every point is left out)."""
    out = parts[0]
    for i in range(alpha_pt.shape[1]):
        if alpha_pt[:, i].any():
            out = out + parts[1 + i].scale(alpha_pt[:, i])
    return out


def linear_generator(gens, alpha_pt, mqby):
    """combine(gens, alpha_pt) plus each y_i times the mean of B_y_i (left
    out where that mean is zero at every point)."""
    F = gens[0]
    gr, r, s = F.grading, F.r, F.s
    F = combine(gens, alpha_pt)
    for i in range(gr.l):
        if mqby[:, i].any():
            F = F + coordinate(gr, r, s, "y", i).scale(mqby[:, i])
    return F


def taylor_exp_vector(grading, r, s, coefvec):
    """Taylor polynomial of exp(i sum_j coefvec[j] x_j) to degree D."""
    u = TaylorSplit(b_x=[FTSeries.constant(grading, r, s, 1j * cj)
                         for cj in coefvec]).reassemble()
    total = FTSeries.constant(grading, r, s, 1.0)
    term = FTSeries.constant(grading, r, s, 1.0)
    for n in range(1, grading.D + 1):
        term = multiply(term, u).scale(1.0 / n)
        if term.is_zero():
            break
        total = total + term
    return total


def sigma_to_parametrized(terms, d, l, grading, r, s, K, shear_S, x_scale):
    """symplectic.sigma_to_parametrized with each sum a fold."""
    m = d + l
    Karr = np.array(K, dtype=float)
    Kinv_T = np.rint(np.linalg.inv(Karr).T).astype(int)
    S = np.asarray(shear_S, dtype=float)
    Sn = np.asarray(x_scale, dtype=float)
    shear_T = np.eye(m)
    shear_T[d:, :d] = -S
    norm_T = np.eye(m)
    norm_T[d:, d:] = Sn.T
    reps = _action_substitution(grading, r, s, Karr.T @ shear_T @ norm_T)
    Sn_inv = np.linalg.inv(Sn)
    out = FTSeries.zero(grading, r, s)
    for t in sorted(terms, key=lambda t: (t.mode, t.powers)):
        mode = Kinv_T @ np.asarray(t.mode, dtype=int)
        kq, kx = mode[:d], mode[d:]
        piece = FTSeries.term(grading, r, s, tuple(int(v) for v in kx),
                              tuple(int(v) for v in kq), (0,) * grading.nz,
                              t.coeff)
        cvec = Sn_inv.T @ (np.asarray(kx, dtype=float) + S @ kq)
        if np.any(cvec != 0.0):
            piece = multiply(piece, taylor_exp_vector(grading, r, s, cvec))
        for a_idx, n in enumerate(t.powers):
            for _ in range(n):
                piece = multiply(piece, reps[a_idx])
        out = out + piece
    return out
