"""Per-Fourier-mode solvers for the three cohomological linear problems and
Diophantine diagnostics.

All three solvers act slice-wise: coefficients are grouped by the parameter
mode j and the Taylor multi-index a, and each angle mode k != 0 is inverted
independently (the systems are diagonal in k).  Zero modes follow the
particular solutions fixed by the scheme:

  L1:  u has zero q-mean, solves <omega, d_q u> = v - M_q v
  L2:  (B_x, B_y)(0) = (M_q b_y, 0),  solves  d_om B_x - beta B_y = b_x - M_q b_x
                                              d_om B_y + B_x     = b_y
  L3:  (D_xx, D_yy, D_xy)(0) = (M_q d_xy, 0, M_q d_yy), solves
         d_om D_xx - beta D_xy            = d_xx - M_q d_xx
         d_om D_yy + D_xy                 = d_yy
         d_om D_xy - beta D_yy + D_xx     = d_xy
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import KamtoriError
from .series import FTSeries, _l1, divide_q_modes

RESONANCE_RTOL = 1e-14


class ResonanceError(KamtoriError):
    pass


class SolverPreconditionError(KamtoriError):
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


def _check_beta(beta, witness, K, factor, who):
    """beta is one l x l matrix or a (B, l, l) stack; each is checked, and an
    error names the first failing entry of a stack."""
    beta = np.asarray(beta, dtype=float)
    stack = beta.reshape((-1,) + beta.shape[-2:])

    def fail(bad, msg):
        if beta.ndim == 2:
            raise SolverPreconditionError("%s: %s" % (who, msg))
        entry = int(np.argmax(bad))
        raise SolverPreconditionError("%s: %s (stack entry %d)"
                                      % (who, msg, entry), entry)

    if beta.shape[-2] != beta.shape[-1]:
        raise SolverPreconditionError("%s: beta must be symmetric" % who)
    asym = ~np.all(np.isclose(stack, np.swapaxes(stack, -1, -2), rtol=1e-5,
                              atol=1e-12), axis=(-2, -1))
    if asym.any():
        fail(asym, "beta must be symmetric")
    big = np.linalg.norm(stack, 2, axis=(-2, -1)) > 1.0 + 1e-12
    if big.any():
        fail(big, "need ||beta|| <= 1")
    nu = np.linalg.eigvalsh(stack)[:, -1]
    lim = factor * witness.min_divisor_sq(K)
    over = nu > lim + 1e-15
    if over.any():
        # name the offending mode for the error message
        worst = min(_modes_up_to(witness.d, K),
                    key=lambda k: abs(float(np.dot(witness.omega, k))))
        fail(over, "nu_max(beta)=%.3g exceeds %.3g*min<omega,k>^2=%.3g "
             "(worst k=%s)" % (float(nu[over][0]), factor, lim, worst))
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
    beta = _check_beta(beta, witness, K, 0.5, "L2")
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


def solve_L3(d_xx, d_yy, d_xy, beta, witness, K):
    """Coupled triple solve for l x l matrices of series (column-decoupled)."""
    l = len(d_xx)
    g = d_xx[0][0].grading
    beta = _check_beta(beta, witness, K, 0.25, "L3")
    zero_k = (0,) * g.d

    def fresh():
        return [[{} for _ in range(l)] for _ in range(l)]

    Dxx, Dyy, Dxy = fresh(), fresh(), fresh()
    flat = ([d_xx[i][jj] for i in range(l) for jj in range(l)]
            + [d_yy[i][jj] for i in range(l) for jj in range(l)]
            + [d_xy[i][jj] for i in range(l) for jj in range(l)])
    slic = _group_slices(flat)
    eye = np.eye(l)
    zero = np.zeros((l, l))
    for (j, a), modes in sorted(slic.items()):
        for k, vec in sorted(modes.items()):
            dxx_h = vec[:l * l].reshape(l, l)
            dyy_h = vec[l * l:2 * l * l].reshape(l, l)
            dxy_h = vec[2 * l * l:].reshape(l, l)
            if k == zero_k:
                for i in range(l):
                    for jj in range(l):
                        if dxy_h[i, jj] != 0.0:
                            Dxx[i][jj][(j, k, a)] = dxy_h[i, jj]
                        if dyy_h[i, jj] != 0.0:
                            Dxy[i][jj][(j, k, a)] = dyy_h[i, jj]
                continue
            lam = 1j * _divisor(witness, k)
            M = np.block([[lam * eye, zero, -beta],
                          [zero, lam * eye, eye],
                          [eye, -beta, lam * eye]])
            det = np.linalg.det(M)
            dot = abs(float(np.dot(witness.omega, k)))
            if abs(det) < (1 - 1e-9) * (4.0 ** -l) * dot ** (3 * l):
                raise SolverPreconditionError(
                    "L3: determinant bound violated at k=%s" % (k,))
            rhs = np.vstack([dxx_h, dyy_h, dxy_h])  # columns decouple
            sol = np.linalg.solve(M, rhs)
            for i in range(l):
                for jj in range(l):
                    if sol[i, jj] != 0.0:
                        Dxx[i][jj][(j, k, a)] = sol[i, jj]
                    if sol[l + i, jj] != 0.0:
                        Dyy[i][jj][(j, k, a)] = sol[l + i, jj]
                    if sol[2 * l + i, jj] != 0.0:
                        Dxy[i][jj][(j, k, a)] = sol[2 * l + i, jj]
    r, s = d_xx[0][0].r, d_xx[0][0].s
    series = lambda mat: [[FTSeries(g, r, s, t, _raw=True) for t in row]
                          for row in mat]
    return series(Dxx), series(Dyy), series(Dxy)
