"""Per-Fourier-mode solvers for the three cohomological linear problems and
Diophantine diagnostics.

All three solvers act on the series' slot arrays, one slot (j, k, a) at a
time: the systems are diagonal in the parameter mode j, the angle mode k and
the Taylor multi-index a.  At k != 0, L2 and L3 solve one shifted system
(C(beta) + i<omega, k> I) u = b on the stacked unknowns of the slot (L1 is
its scalar case, with C = 0), with <omega, k> computed once per mode.
Wherever beta does not depend on phi (every first rung, whose beta is 0,
and every constant beta) every grid point has the same matrices, and a
stack of them is carried as a stack of one (series._equal_stack, the one
rule for "equal stack": every entry has the bytes of the first).  These
sites work on what it returns and broadcast the result back to the points:
the check of beta (its eigvalsh), L2's C(beta), L3's C(beta) and its
zero-mode eigh, normalform.nu_max and the counter-term condition number of
kamtori.engine.cohom (its SVD).  Each shifted system of an equal stack is
factored once per slot: one (n, n) solve takes every point's right-hand
side as a column.  A stack that varies is decomposed and solved point by
point.  The two give the same bytes on OpenBLAS 0.3.31 (Haswell kernels),
where tests/test_smalldiv.py checks every site; another LAPACK may round
differently.  The counter-term solve is not such a site: its real dgesv
with the points as columns differed from the per-point solve in 2941 of
3000 random equal stacks (n 2 to 7, B in {2, 32, 576, 1024}), while
cond and eigh of the stack of one differed in none, so it stays per point.

L2's precondition on beta (symmetric, ||beta|| <= 1 and nu_max(beta) <= 1/2
min <omega, k>^2 over 0 < |k|_1 <= K) is checked once per beta stack, by
one eigvalsh whose eigenvalues w also give L2's determinant bound in closed
form: for C = [[0, -beta], [I, 0]], det(C + i lam I) = det(beta - lam^2 I),
so |det| = prod_i |lam^2 - w_i|, which the precondition keeps at or above
2^-l |lam|^(2l).  A solve whose determinant falls below that bound, with a
1e-9 relative margin, is refused.  The precondition keeps L2's systems
regular but leaves L3's second-order resonances open: in beta's eigenbasis
det(C_3(beta) + i lam I) factors into |lam| |lam^2 - 4 w_i| and
|lam^4 - 2 lam^2 (w_i + w_j) + (w_i - w_j)^2|, which vanish at
4 w_i = lam^2 and at (sqrt(w_i) +- sqrt(w_j))^2 = lam^2, inside the
precondition (w_i = 0.09 at omega = 0.6, say).  L3 refuses a system that
LAPACK finds singular; a nearly singular one is solved as it is.

Zero modes follow the particular solutions fixed by the scheme:

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
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .series import _equal_stack, _l1, _like, _plan, divide_q_modes

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
        best = min(abs(float(np.dot(self.omega, k)))
                   for k in _modes_up_to(self.d, K))
        return best * best


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
    for k in _modes_up_to(d, K):
        dot = abs(float(np.dot(omega, k)))
        l1 = sum(abs(v) for v in k)
        if dot <= RESONANCE_RTOL * norm_w * l1:
            return DiophantineWitness(omega, 0.0, tau, K, resonant=True, worst_k=k)
        val = dot * l1 ** (d + tau)
        if val < gamma:
            gamma, worst = val, k
    return DiophantineWitness(omega, gamma, tau, K, worst_k=worst)


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


def _fail(name, stacked, bad, msg):
    """Raise solver name's SolverPreconditionError; for a stacked solve,
    naming the first entry where bad holds."""
    if not stacked:
        raise SolverPreconditionError("%s: %s" % (name, msg))
    entry = int(np.argmax(bad))
    raise SolverPreconditionError("%s: %s (stack entry %d)"
                                  % (name, msg, entry), entry)


class _CheckedBeta(NamedTuple):
    """A beta that passed L2's precondition for witness and K, with its
    eigenvalues (shape beta.shape[:-1], ascending)."""

    beta: np.ndarray
    w: np.ndarray
    witness: "DiophantineWitness"
    K: int


def _check_beta(beta, witness, K):
    """L2's precondition: beta is one l x l matrix or a (B, l, l) stack; each
    is checked, and an error names the first failing entry of a stack.
    Returns a _CheckedBeta; one checked for the same witness and K is
    returned as it is, and one checked for others is checked again."""
    if isinstance(beta, _CheckedBeta):
        if beta.witness is witness and beta.K == K:
            return beta
        beta = beta.beta
    beta = np.asarray(beta, dtype=float)
    stack = beta.reshape((-1,) + beta.shape[-2:])
    stacked = beta.ndim != 2
    if beta.shape[-2] != beta.shape[-1]:
        raise SolverPreconditionError("L2: beta must be symmetric")
    # an equal stack is checked once, as its entry 0
    one = _equal_stack(stack)
    asym = ~np.all(np.isclose(one, np.swapaxes(one, -1, -2), rtol=1e-5,
                              atol=1e-12), axis=(-2, -1))
    if asym.any():
        _fail("L2", stacked, asym, "beta must be symmetric")
    # symmetric: the 2-norm is the largest |eigenvalue|
    w = np.linalg.eigvalsh(one)
    big = np.abs(w).max(axis=-1) > 1.0 + 1e-12
    if big.any():
        _fail("L2", stacked, big, "need ||beta|| <= 1")
    nu = w[:, -1]
    lim = 0.5 * witness.min_divisor_sq(K)
    over = nu > lim + 1e-15
    if over.any():
        # name the offending mode for the error message
        worst = min(_modes_up_to(witness.d, K),
                    key=lambda k: abs(float(np.dot(witness.omega, k))))
        _fail("L2", stacked, over, "nu_max(beta)=%.3g exceeds "
              "0.5*min<omega,k>^2=%.3g (worst k=%s)"
              % (float(nu[over][0]), lim, worst))
    w = np.broadcast_to(w, stack.shape[:-1]).reshape(beta.shape[:-1])
    return _CheckedBeta(beta, w, witness, K)


def _gather(series, batch):
    """The coefficients of several series on the sorted union of their slots:
    (slots, b) with b of shape (len(slots),) + batch + (len(series),)."""
    plan = _plan(series[0].grading)
    codes = [plan.code(f.ij, f.ik, f.it) for f in series]
    slots, at = np.unique(np.concatenate(codes), return_inverse=True)
    b = np.zeros((len(slots),) + batch + (len(series),), dtype=complex)
    ends = np.cumsum([len(c) for c in codes])[:-1]
    for n, (f, rows) in enumerate(zip(series, np.split(at, ends))):
        # a number fills every entry of a batched row
        b[rows, ..., n] += f.coef[:, None] if batch and f.coef.ndim == 1 \
            else f.coef
    return slots, b


def _assemble(like, slots, u):
    """One series per column of u, shape (len(slots),) + batch + (n,), on the
    grading and radii of its entry of like; a row that is zero at every
    entry is left out."""
    plan = _plan(like[0].grading)
    out = []
    for f, col in zip(like, np.moveaxis(u, -1, 0)):
        live = col.any(axis=tuple(range(1, col.ndim)))
        out.append(_like(f, *plan.split(slots[live]), col[live], 0.0))
    return out


def _below_det_bound(w, dot):
    """Where L2's |det(C + i dot I)| = prod_i |dot^2 - w_i| (from beta's
    eigenvalues w) falls below (1 - 1e-9) 2^-l |dot|^(2l), shape
    w.shape[:-1].  The precondition implies the bound for the modes it was
    checked on, so it can only fail at |k|_1 > K (or where min <omega, k>^2
    is below about 2e-6, inside the tolerances)."""
    l = w.shape[-1]
    return np.prod(np.abs(dot * dot - w), axis=-1) \
        < (1 - 1e-9) * (2.0 ** -l) * abs(dot) ** (2 * l)


def _first_singular(M):
    """Where the first matrix of the stack M that np.linalg.solve finds
    singular sits, as a mask of shape M.shape[:-2] (a failed solve is redone
    one matrix at a time to find it)."""
    bad = np.zeros(M.shape[:-2], dtype=bool)
    for entry, m in enumerate(M.reshape((-1,) + M.shape[-2:])):
        try:
            np.linalg.solve(m, m[:, :1])
        except np.linalg.LinAlgError:
            bad.flat[entry] = True
            return bad
    raise AssertionError("no singular matrix in the stack")


def _solve_modes(witness, plan, slots, b, C, name, w=None):
    """Overwrite each row of b at a slot of angle mode k != 0 with the u of
    (C + i<omega, k> I) u = b, and return b (its zero-mode rows are left as
    they are).  C is batch + (n, n) and b (len(slots),) + batch + (n,).
    The slots are taken in (j, a, k) order, so an error names the first
    failing slot of that order: a ResonanceError for a resonant <omega, k>,
    solver name's SolverPreconditionError for a singular system and, given
    w (beta's eigenvalues, batch + (l,)), one where L2's determinant bound
    fails.

    A stack C whose entries series._equal_stack finds equal (module
    docstring), a stack of one among them, is factored once per slot: one
    (n, n) system, solved for every entry's right-hand side as the columns
    of one np.linalg.solve, where a varying stack makes one factorization
    per entry.  A singular one fails as stack entry 0."""
    ij, ik, it = plan.split(slots)
    eye = np.eye(C.shape[-1])
    stacked = C.ndim > 2
    single = stacked and len(_equal_stack(C)) == 1
    if single:
        C = C[0]
    dots = {}
    for n in np.lexsort((ik, it, ij)).tolist():
        if plan.K.norm[ik[n]]:
            k = plan.K.keys[ik[n]]
            if k not in dots:
                # once per mode: the divisor, and L2's bound at it
                dots[k] = _divisor(witness, k)
                low = w is not None and _below_det_bound(w, dots[k])
                if np.any(low):
                    _fail(name, stacked, low,
                          "determinant bound violated at k=%s" % (k,))
            M = C + 1j * dots[k] * eye
            try:
                if single:
                    # the stack's entries are the columns of one solve
                    b[n] = np.linalg.solve(M, b[n].T).T
                else:
                    b[n] = np.linalg.solve(M, b[n][..., None])[..., 0]
            except np.linalg.LinAlgError:
                # a single matrix is entry 0 of a stack
                _fail(name, stacked, _first_singular(M),
                      "singular shifted system at k=%s" % (k,))
            # freed before the next one is formed (a varying stack's M is
            # 1.6 MB for L3 at l = 2 on a 1024-point grid)
            del M
    return b


def solve_L2(b_x, b_y, beta, witness, K):
    """Coupled pair solve; beta is a fixed symmetric l x l matrix at this slice.

    b_x, b_y are length-l lists of series (may carry phi modes and Taylor
    factors; every (j, alpha) slice is solved independently).  With a
    (B, l, l) stack of matrices the series are batched, entry b solved with
    beta[b].  Each mode solves (C + i<omega, k> I) (B_x, B_y) = (b_x, b_y)
    with C = [[0, -beta], [I, 0]].  beta may be _check_beta(beta, witness,
    K), which is then not checked again.
    """
    l = len(b_x)
    plan = _plan(b_x[0].grading)
    beta, w = _check_beta(beta, witness, K)[:2]
    batch = beta.shape[:-2]
    one = _equal_stack(beta) if batch else beta
    zero = np.zeros(one.shape)
    eye = np.broadcast_to(np.eye(l), one.shape)
    C = np.block([[zero, -one], [eye, zero]])

    slots, u = _gather(list(b_x) + list(b_y), batch)
    _solve_modes(witness, plan, slots, u, C, "L2", w)
    mode0 = plan.K.norm[plan.split(slots)[1]] == 0   # (B_x, B_y)(0) = (b_y, 0)
    u[mode0, ..., :l] = u[mode0, ..., l:]
    u[mode0, ..., l:] = 0.0
    out = _assemble(list(b_x) * 2, slots, u)
    return out[:l], out[l:]


def solve_L3(d_xx, d_yy, d_xy, beta, witness):
    """The symmetrized coupled-triple solve (module docstring) at every entry
    of a (B, l, l) beta stack; returns (Dxx, Dyy, Dxy, obstruction).

    d_xx, d_yy, d_xy are l x l matrices of series whose coefficients hold one
    entry per matrix of the stack (or one number for all of them)."""
    l = len(d_xx)
    f0 = d_xx[0][0]
    plan = _plan(f0.grading)
    nb = len(beta)
    si, sj = np.triu_indices(l)
    nsym = len(si)
    T = lambda m: np.swapaxes(m, -1, -2)
    sym = lambda m: 0.5 * (m + T(m))
    pack = lambda X, Y, Z: np.concatenate(
        [X[..., si, sj], Y[..., si, sj], Z.reshape(Z.shape[:-2] + (l * l,))],
        axis=-1)

    def unpack(u):
        """The blocks X, Y (symmetric) and Z of unknown vectors u, stacked
        on the third axis from the end."""
        D = np.zeros(u.shape[:-1] + (3, l, l), dtype=u.dtype)
        D[..., 0, si, sj] = D[..., 0, sj, si] = u[..., :nsym]
        D[..., 1, si, sj] = D[..., 1, sj, si] = u[..., nsym:2 * nsym]
        D[..., 2, :, :] = u[..., 2 * nsym:].reshape(u.shape[:-1] + (l, l))
        return D

    # C(beta), once for an equal stack: its columns are the images of the
    # unit unknowns
    X, Y, Z = np.moveaxis(unpack(np.eye(2 * nsym + l * l)), -3, 0)
    one = _equal_stack(beta)
    b = one[:, None]
    C = T(pack(-(b @ T(Z) + Z @ b),
               np.broadcast_to(Z + T(Z), (len(one),) + Z.shape), X - b @ Y))

    flat = [m[i][j] for m in (d_xx, d_yy, d_xy) for i in range(l)
            for j in range(l)]
    slots, u = _gather(flat, (nb,))
    u = u.reshape(len(slots), nb, 3, l, l)
    mode0 = plan.K.norm[plan.split(slots)[1]] == 0
    yy0, xy0 = sym(u[mode0, :, 1]), u[mode0, :, 2]
    # each stage rebinds u, so that no stage's array outlives the next one
    u = pack(sym(u[:, :, 0]), sym(u[:, :, 1]), u[:, :, 2])
    u = unpack(_solve_modes(witness, plan, slots, u, C, "L3"))

    # the zero modes, on beta's eigen-decomposition at every point
    w, V = (np.broadcast_to(a, (nb,) + a.shape[1:])
            for a in np.linalg.eigh(one))
    At = T(V) @ (0.5 * (xy0 - T(xy0))) @ V
    scale = np.maximum(1.0, np.abs(w).max(axis=1))[:, None, None]
    dw = w[:, :, None] - w[:, None, :]
    off = ~np.eye(l, dtype=bool)
    split = off & (np.abs(dw) > 1e-10 * scale)
    Yt = np.where(split, -2.0 * At / np.where(split, dw, 1.0), 0.0)
    obstruction = float(np.abs(At)[:, off & ~split].max(initial=0.0))
    Y0 = V @ Yt @ T(V)
    u[mode0, :, 0] = sym(xy0 + beta @ Y0)
    u[mode0, :, 1] = Y0
    u[mode0, :, 2] = 0.5 * yy0

    out = _assemble([f0] * (3 * l * l), slots,
                    u.reshape(len(slots), nb, 3 * l * l))
    rows = [out[n:n + l] for n in range(0, len(out), l)]
    return rows[:l], rows[l:2 * l], rows[2 * l:], obstruction
