"""The coupled-pair (L2) and coupled-triple (L3) solves as they were before
they read the coefficient arrays: the right-hand sides regrouped as dicts
(j, a) -> k -> vector by walking each series' terms, one linear solve per
(j, k, a) in that order (L2 forming its block matrix per mode and checking its
determinant with np.linalg.det, L3 naming the stack entry of a singular
system), the solutions accumulated in dicts and the series built from them.

Kept as the test oracle of ``kamtori.smalldiv.solve_L2`` and ``solve_L3``;
``check_beta``, L2's precondition as it was when it took ||beta|| from an
SVD of each matrix, is the oracle of ``kamtori.smalldiv._check_beta``."""

import numpy as np

from kamtori.series import FTSeries
from kamtori.smalldiv import SolverPreconditionError, _divisor, _modes_up_to


def check_beta(beta, witness, K):
    beta = np.asarray(beta, dtype=float)
    stack = beta.reshape((-1,) + beta.shape[-2:])
    stacked = beta.ndim != 2

    def fail(bad, msg):
        if not stacked:
            raise SolverPreconditionError("L2: %s" % msg)
        entry = int(np.argmax(bad))
        raise SolverPreconditionError("L2: %s (stack entry %d)"
                                      % (msg, entry), entry)

    if beta.shape[-2] != beta.shape[-1]:
        raise SolverPreconditionError("L2: beta must be symmetric")
    inf = ~np.isfinite(stack).all(axis=(-2, -1))
    if inf.any():
        fail(inf, "beta must be finite")
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
        worst = min(_modes_up_to(witness.d, K),
                    key=lambda k: abs(float(np.dot(witness.omega, k))))
        fail(over, "nu_max(beta)=%.3g exceeds 0.5*min<omega,k>^2="
             "%.3g (worst k=%s)" % (float(nu[over][0]), lim, worst))
    return beta


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


def solve_L2(b_x, b_y, beta, witness, K):
    l = len(b_x)
    g = b_x[0].grading
    beta = check_beta(beta, witness, K)
    batch = beta.shape[:-2]
    zero_k = (0,) * g.d
    Bx, By = [{} for _ in b_x], [{} for _ in b_x]
    slic = _group_slices(list(b_x) + list(b_y), batch)
    eye = np.broadcast_to(np.eye(l), beta.shape)
    nonzero = (lambda c: c.any()) if batch else (lambda c: c != 0.0)
    for (j, a), modes in sorted(slic.items()):
        for k, vec in sorted(modes.items()):
            if k == zero_k:
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


def _singular(m):
    try:
        np.linalg.solve(m, np.ones(len(m)))
    except np.linalg.LinAlgError:
        return True
    return False


def solve_L3(d_xx, d_yy, d_xy, beta, witness):
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
            try:
                sol = np.linalg.solve(C + lam * eye, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                entry = next(n for n, m in enumerate(C + lam * eye)
                             if _singular(m))
                raise SolverPreconditionError(
                    "L3: singular shifted system at k=%s (stack entry %d)"
                    % (k, entry), entry)
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
