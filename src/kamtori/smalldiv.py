"""Per-Fourier-mode solvers for the three cohomological linear problems and
Diophantine diagnostics.

All three solvers act slice-wise: coefficients are grouped by the parameter
mode j and the Taylor multi-index a, and each angle mode k != 0 is inverted
independently (the systems are diagonal in k).  Zero modes follow the
particular solutions fixed by the scheme:

  L1:  u has zero q-mean, solves <omega, d_q u> = v - M_q v
  L2:  (B_x, B_y)(0) = (M_q b_y, 0),  solves  d_om B_x - beta B_y = b_x - M_q b_x
                                              d_om B_y + B_x     = b_y
  L3:  the quadratic blocks of a symmetric form 1/2 <D z, z>: with
       X = D_xx and Y = D_yy symmetric, Z = D_xy a full l x l matrix and
       sym(u) = (u + u^T)/2, it solves the symmetrized system
         d_om X - (beta Z^T + Z beta) = sym(d_xx) - M_q sym(d_xx)
         d_om Y + (Z + Z^T)           = sym(d_yy)
         d_om Z - beta Y + X          = d_xy
       (the first two equations on their upper triangles, the third on
       every entry).  The zero modes kill the yy and xy averages:
       Z(0) = M_q sym(d_yy) / 2; Y(0) removes the antisymmetric part A of
       M_q d_xy, Y_ij = -2 A_ij / (w_i - w_j) in the eigenbasis of beta
       (eigenvalues w), wherever w_i and w_j are split; X(0) =
       sym(M_q d_xy + beta Y(0)).  The part of A on unsplit eigenvalue pairs
       cannot be removed and is returned as the zero-mode obstruction; the
       xx average is left over (it becomes the beta block of the correction
       tuple).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .series import FTSeries, _l1, divide_q_modes

RESONANCE_RTOL = 1e-14


class ResonanceError(ConvergenceError):
    pass


class SolverPreconditionError(ConvergenceError):
    """A solver precondition failed; for a stacked (batched) solve, `entry`
    is the index of the first failing matrix of the stack."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


@dataclass
class DiophantineWitness:
    """Finite verification of |<omega,k>| >= gamma/|k|_1^(d+tau) up to order K."""

    omega: np.ndarray
    gamma: float
    tau: float
    K_checked: int
    resonant: bool = False
    worst_k: tuple = None

    @property
    def d(self):
        return len(self.omega)

    def min_divisor_sq(self, K):
        """min over 0 < |k|_1 <= K of <omega,k>^2."""
        if K > self.K_checked:
            raise ValueError("witness only checked up to K=%d" % self.K_checked)
        cache = getattr(self, "_mindiv_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_mindiv_cache", cache)
        if K not in cache:
            best = min(abs(float(np.dot(self.omega, k))) for k in _modes_up_to(self.d, K))
            cache[K] = best * best
        return cache[K]


def _modes_up_to(d, K):
    """All k in Z^d with 0 < |k|_1 <= K, one representative per +-pair."""
    rng = range(-K, K + 1)
    for k in itertools.product(*([rng] * d)):
        if sum(abs(v) for v in k) == 0 or sum(abs(v) for v in k) > K:
            continue
        # keep the lexicographically positive representative
        for v in k:
            if v > 0:
                yield k
                break
            if v < 0:
                break


def effective_diophantine_constant(omega, tau, K):
    """Scan modes up to order K for the sharpest Diophantine constant.

    Returns a witness with gamma = min |<omega,k>| |k|_1^(d+tau); an exact
    resonance within relative tolerance flags the witness instead of raising.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    omega = np.asarray(omega, dtype=float)
    d = len(omega)
    norm_w = float(np.linalg.norm(omega))
    gamma = math.inf
    worst = None
    resonant = False
    for k in _modes_up_to(d, K):
        dot = abs(float(np.dot(omega, k)))
        l1 = sum(abs(v) for v in k)
        if dot <= RESONANCE_RTOL * norm_w * l1:
            return DiophantineWitness(omega, 0.0, tau, K, resonant=True, worst_k=k)
        val = dot * l1 ** (d + tau)
        if val < gamma:
            gamma, worst = val, k
    return DiophantineWitness(omega, gamma, tau, K, resonant=resonant, worst_k=worst)


def _group_slices(series_list, batch=()):
    """Group coefficients of several series by (j, alpha), then by angle mode k.

    Returns dict (j, a) -> dict k -> complex vector over the series list
    (shape batch + (len(series_list),) for batched coefficients).
    """
    out = {}
    n = len(series_list)
    for idx, f in enumerate(series_list):
        for (j, k, a), c in f.terms.items():
            slot = out.setdefault((j, a), {})
            vec = slot.get(k)
            if vec is None:
                vec = np.zeros(batch + (n,), dtype=complex)
                slot[k] = vec
            vec[..., idx] += c
    return out


def _divisor(witness, k):
    dot = float(np.dot(witness.omega, k))
    if abs(dot) <= RESONANCE_RTOL * np.linalg.norm(witness.omega) * _l1(k):
        raise ResonanceError("resonant divisor at k=%s" % (k,))
    return dot


def solve_L1(v, witness):
    """Unique zero-q-mean u with <omega, d_q u> = v - M_q v, mode by mode."""
    if v.grading.K_q > witness.K_checked:
        raise ValueError("witness does not cover K_q=%d" % v.grading.K_q)
    return divide_q_modes(v, lambda k: _divisor(witness, k))


def _check_beta(beta, witness, K):
    """L2's precondition: beta is one l x l matrix or a (B, l, l) stack; each
    is checked, and an error names the first failing entry of a stack."""
    beta = np.asarray(beta, dtype=float)
    stack = beta.reshape((-1,) + beta.shape[-2:])

    def fail(bad, msg):
        if beta.ndim == 2:
            raise SolverPreconditionError("L2: %s" % msg)
        entry = int(np.argmax(bad))
        raise SolverPreconditionError("L2: %s (stack entry %d)"
                                      % (msg, entry), entry)

    if beta.shape[-2] != beta.shape[-1]:
        raise SolverPreconditionError("L2: beta must be symmetric")
    asym = ~np.all(np.isclose(stack, np.swapaxes(stack, -1, -2), rtol=1e-5,
                              atol=1e-12), axis=(-2, -1))
    if asym.any():
        fail(asym, "beta must be symmetric")
    big = np.linalg.norm(stack, 2, axis=(-2, -1)) > 1.0 + 1e-12
    if big.any():
        fail(big, "need ||beta|| <= 1")
    nu = np.linalg.eigvalsh(stack)[:, -1]
    lim = 0.5 * witness.min_divisor_sq(K)
    over = nu > lim + 1e-15
    if over.any():
        # name the offending mode for the error message
        worst = min(_modes_up_to(witness.d, K),
                    key=lambda k: abs(float(np.dot(witness.omega, k))))
        fail(over, "nu_max(beta)=%.3g exceeds 0.5*min<omega,k>^2=%.3g "
             "(worst k=%s)" % (float(nu[over][0]), lim, worst))
    return beta


def solve_L2(b_x, b_y, beta, witness, K):
    """Coupled pair solve; beta is a fixed symmetric l x l matrix at this slice.

    b_x, b_y are length-l lists of series (may carry phi modes and Taylor
    factors; every (j, alpha) slice is solved independently).  With a
    (B, l, l) stack of matrices the series are batched, entry b solved with
    beta[b].
    """
    l = len(b_x)
    g = b_x[0].grading
    beta = _check_beta(beta, witness, K)
    batch = beta.shape[:-2]
    zero_k = (0,) * g.d
    Bx, By = [{} for _ in b_x], [{} for _ in b_x]
    slic = _group_slices(list(b_x) + list(b_y), batch)
    eye = np.broadcast_to(np.eye(l), beta.shape)
    nonzero = (lambda c: c.any()) if batch else (lambda c: c != 0.0)
    for (j, a), modes in sorted(slic.items()):
        for k, vec in sorted(modes.items()):
            if k == zero_k:
                # rows of the transpose: a number, or one entry per matrix
                by_hat = vec.T[l:]
                for i in range(l):
                    if nonzero(by_hat[i]):
                        Bx[i][(j, k, a)] = by_hat[i]
                continue
            lam = 1j * _divisor(witness, k)
            M = np.block([[lam * eye, -beta], [eye, lam * eye]])
            det = np.abs(np.linalg.det(M))
            dot = float(np.dot(witness.omega, k))
            low = det < (1 - 1e-9) * (2.0 ** -l) * abs(dot) ** (2 * l)
            if np.any(low):
                msg = "L2: determinant bound violated at k=%s" % (k,)
                if not batch:
                    raise SolverPreconditionError(msg)
                entry = int(np.argmax(low))
                raise SolverPreconditionError(
                    "%s (stack entry %d)" % (msg, entry), entry)
            sol = np.linalg.solve(M, vec[..., None])[..., 0].T
            for i in range(l):
                if nonzero(sol[i]):
                    Bx[i][(j, k, a)] = sol[i]
                if nonzero(sol[l + i]):
                    By[i][(j, k, a)] = sol[l + i]
    series = lambda terms: [FTSeries(g, f.r, f.s, t, _raw=True)
                            for f, t in zip(b_x, terms)]
    return series(Bx), series(By)


def solve_L3(d_xx, d_yy, d_xy, beta, witness):
    """The symmetrized coupled-triple solve (module docstring) at every entry
    of a (B, l, l) beta stack; returns (Dxx, Dyy, Dxy, obstruction).

    d_xx, d_yy, d_xy are l x l matrices of series whose coefficients hold one
    entry per matrix of the stack (or one number for all of them)."""
    l = len(d_xx)
    f0 = d_xx[0][0]
    gr, r, s = f0.grading, f0.r, f0.s
    nb = len(beta)
    sym_idx = [(i, j) for i in range(l) for j in range(i, l)]
    si, sj = np.array(sym_idx).T
    nsym = len(sym_idx)
    nunk = 2 * nsym + l * l
    zero_k = (0,) * gr.d
    flat = [m[i][j] for m in (d_xx, d_yy, d_xy) for i in range(l)
            for j in range(l)]
    slic = _group_slices(flat, (nb,))
    zmat = lambda: np.zeros((nb, l, l), dtype=complex)
    fresh = lambda: [[{} for _ in range(l)] for _ in range(l)]
    Dxx, Dyy, Dxy = fresh(), fresh(), fresh()
    obstruction = 0.0

    def store(mat, vals, key):
        for i in range(l):
            for j in range(l):
                if vals[:, i, j].any():
                    mat[i][j][key] = vals[:, i, j]

    # per-mode matrix lam I + C(beta): the columns are the unit unknowns
    C = np.zeros((nb, nunk, nunk), dtype=complex)
    for col in range(nunk):
        X, Y, Z = np.zeros((l, l)), np.zeros((l, l)), np.zeros((l, l))
        if col < nsym:
            i, j = sym_idx[col]
            X[i, j] = X[j, i] = 1.0
        elif col < 2 * nsym:
            i, j = sym_idx[col - nsym]
            Y[i, j] = Y[j, i] = 1.0
        else:
            i, j = divmod(col - 2 * nsym, l)
            Z[i, j] = 1.0
        E1 = -(beta @ Z.T + Z @ beta)
        E2 = np.broadcast_to(Z + Z.T, (nb, l, l))
        E3 = -(beta @ Y) + X
        C[:, :, col] = np.concatenate([E1[:, si, sj], E2[:, si, sj],
                                       E3.reshape(nb, -1)], axis=1)
    eye = np.eye(nunk)

    for (jm, a), modes in sorted(slic.items()):
        for k, vec in sorted(modes.items()):
            uxx, uyy, uxy = np.moveaxis(vec.reshape(nb, 3, l, l), 1, 0)
            uxx = 0.5 * (uxx + np.swapaxes(uxx, 1, 2))
            uyy = 0.5 * (uyy + np.swapaxes(uyy, 1, 2))
            key = (jm, k, a)
            if k == zero_k:
                Z0 = 0.5 * uyy
                anti = 0.5 * (uxy - np.swapaxes(uxy, 1, 2))
                w, V = np.linalg.eigh(beta)
                VT = np.swapaxes(V, 1, 2)
                At = VT @ anti @ V
                scale = np.maximum(1.0, np.abs(w).max(axis=1))[:, None, None]
                dw = w[:, :, None] - w[:, None, :]
                off = ~np.eye(l, dtype=bool)
                split = off & (np.abs(dw) > 1e-10 * scale)
                Yt = np.where(split, -2.0 * At / np.where(split, dw, 1.0), 0.0)
                obstruction = max(obstruction, float(
                    np.abs(At)[off & ~split].max(initial=0.0)))
                Y0 = V @ Yt @ VT
                X0 = uxy + beta @ Y0
                X0 = 0.5 * (X0 + np.swapaxes(X0, 1, 2))
                store(Dxx, X0, key)
                store(Dyy, Y0, key)
                store(Dxy, Z0, key)
                continue
            lam = 1j * _divisor(witness, k)
            rhs = np.concatenate([uxx[:, si, sj], uyy[:, si, sj],
                                  uxy.reshape(nb, -1)], axis=1)
            sol = np.linalg.solve(C + lam * eye, rhs[..., None])[..., 0]
            X = zmat()
            Y = zmat()
            X[:, si, sj] = X[:, sj, si] = sol[:, :nsym]
            Y[:, si, sj] = Y[:, sj, si] = sol[:, nsym:2 * nsym]
            Z = sol[:, 2 * nsym:].reshape(nb, l, l)
            store(Dxx, X, key)
            store(Dyy, Y, key)
            store(Dxy, Z, key)
    series = lambda mat: [[FTSeries(gr, r, s, t, _raw=True) for t in row]
                          for row in mat]
    return series(Dxx), series(Dyy), series(Dxy), obstruction
