"""One-step linearized conjugacy solve.

Given a tuple N (with Q = I), an error term f and the x-component tracker
phi_x, this module produces the counter-term alpha, the drift v, a generating
function F and a correction tuple Nbar (with w = 0, Q = 0) such that

    f - <alpha, phi_x> + {N - g(N), F + v.q} = T(Nbar)

holds at every point of the parameter collocation grid, which the sublevel
region of beta must cover.  The equation carries no parameter derivatives,
so every collocation point is an independent problem of the same
structure; the construction runs once for all of them, on series frozen at
the grid points whose coefficients carry one entry per point (batched
series, see kamtori.series), with batched linear solves for the per-point
matrices (de la Llave, Gonzalez, Jorba & Villanueva, Nonlinearity 18,
2005).  The order: A by the plain cohomological solve, (B_x, B_y) by the
coupled pair solve, B_p, then the block linear system for (alpha, v, mean of
B_y), then the quadratic blocks (the xx/yy/xy stage by kamtori.smalldiv's
symmetrized coupled-triple solve; its leftover xx average, like the px / pp
averages, becomes a component of Nbar), each stage reading its right-hand
side off the exact series residual so far.  One FFT over the grid axes
projects the per-point results back onto parameter modes.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from ..normalform import (NormalFormTuple, assemble_hamiltonian,
                          const_matrix, majorant_on_grid, mat_eval_grid,
                          nu_max, phi_grid, project_phi_rows, series_matrix)
from ..series import (FTSeries, TaylorSplit, _plan, average_q, coordinates,
                      differentiate, freeze_phi, majorant_norm, multiply,
                      restrict_z0, taylor_split)
# not used here: bench/workloads.py builds its trackers with cohom.coordinate
from ..series import coordinate  # noqa: F401
from ..smalldiv import SolverPreconditionError, solve_L1, solve_L2, solve_L3
from ..symplectic import GeneratingFunction, poisson_bracket

COND_CAP = 1e8


def collocation_size(gr):
    """Points per axis of the parameter grid the solve collocates on.

    At l = 1, 32 points reproduce the 64-point solve's projected coefficients
    to rounding; at l >= 2 the per-point zero-mode solve divides by
    eigenvalue gaps of beta, its solution is far from band-limited in phi,
    and 32 points per axis move the generator, so the floor stays at 64.
    """
    return max(32 if gr.l == 1 else 64, 4 * gr.K_phi + 1)


class CohomologyError(ConvergenceError):
    pass


@dataclass
class CohomSolution:
    alpha: list              # l phi-only series
    v: list                  # d phi-only series
    F: FTSeries
    Nbar: NormalFormTuple    # w = 0, Q = 0
    grid: np.ndarray
    residual_plateau: float = 0.0
    residual_tracker: float = 0.0
    zero_mode_obstruction: float = 0.0
    max_condition: float = 0.0
    projection_defect: float = 0.0


def _at_point(pts, bad):
    """' (at parameter grid point ...)' for the first True entry of bad."""
    return " (at parameter grid point %s)" % (pts[int(np.argmax(bad))],)


def _mean0(f, nb):
    """Constant coefficient of a batched series, one entry per point."""
    plan = _plan(f.grading)
    at = (f.ij == plan.J.index[(0,) * f.grading.l]) \
        & (f.ik == plan.K.index[(0,) * f.grading.d]) & (f.it == 0)
    return np.zeros(nb, dtype=complex) + f.coef[at].sum(axis=0)


def _real_mean(f, what, pts):
    c = _mean0(f, len(pts))
    bad = np.abs(c.imag) > 1e-9 * np.maximum(1.0, np.abs(c))
    if bad.any():
        raise CohomologyError("%s mean came out complex: %s%s"
                              % (what, c[np.argmax(bad)], _at_point(pts, bad)))
    return c.real


def _reduced_hamiltonian(N, h_frozen, beta, Gamma, M):
    """N - g frozen on the grid (the constant c is irrelevant)."""
    gr = N.grading
    r, s = N.radii
    return TaylorSplit(
        b_p=[FTSeries.constant(gr, r, s, w) for w in N.w],
        d_xx=const_matrix(gr, r, s, beta),
        d_pp=const_matrix(gr, r, s, M),
        d_yy=const_matrix(gr, r, s, np.eye(gr.l)),
        d_px=const_matrix(gr, r, s, np.swapaxes(Gamma, 1, 2)),
        remainder=h_frozen).reassemble()


def _peak(x):
    return float(np.max(x))


def _grid_solve(gr, r, s, pts, beta, Gamma, M, Nred, f_B, phix_B, witness,
                K_eff):
    """Run the full ordered construction at every point of pts at once.

    The series arguments are frozen on pts (batched) and beta, Gamma, M are
    (B, ., .) stacks of their values there."""
    l, d = gr.l, gr.d
    nb = len(pts)
    channels = [f_B] + [phix_B[i].scale(-1.0) for i in range(l)]
    A_c, Bx_c, By_c, Bp_c = [], [], [], []
    mx_c, mp_c = [], []
    for ch in channels:
        sp = taylor_split(ch)
        A = solve_L1(sp.a, witness)
        lin1 = ch + poisson_bracket(Nred, A) if not A.is_zero() else ch
        sp1 = taylor_split(lin1)
        Bx, By = solve_L2(sp1.b_x, sp1.b_y, beta, witness, K_eff)
        F1 = TaylorSplit(a=A, b_x=Bx, b_y=By).reassemble()
        lin2 = ch + poisson_bracket(Nred, F1) if not F1.is_zero() else ch
        sp2 = taylor_split(lin2)
        Bp = [solve_L1(sp2.b_p[i], witness) for i in range(d)]
        A_c.append(A)
        Bx_c.append(Bx)
        By_c.append(By)
        Bp_c.append(Bp)
        mx_c.append(np.stack([_mean0(sp1.b_x[i], nb) for i in range(l)], 1))
        mp_c.append(np.stack([_mean0(sp2.b_p[i], nb) for i in range(d)], 1))

    # parameter-tracker condition row: means of phix + {phix, F + v.q} at
    # z = 0; dphix[var][i] is the derivative of tracker i by coordinate var
    dphix = {var: [restrict_z0(differentiate(u, var)) for u in phix_B]
             for var in coordinates(gr)}

    def tracker_mean(c):
        out = np.zeros((nb, l), dtype=complex)
        dqA = [restrict_z0(differentiate(A_c[c], ("q", j))) for j in range(d)]
        Bp0 = [restrict_z0(Bp_c[c][j]) for j in range(d)]
        Bx0 = [restrict_z0(Bx_c[c][i2]) for i2 in range(l)]
        By0 = [restrict_z0(By_c[c][i2]) for i2 in range(l)]
        for i in range(l):
            acc = FTSeries.zero(gr, r, s)
            for j in range(d):
                acc = acc + multiply(dphix["q", j][i], Bp0[j])
                acc = acc - multiply(dphix["p", j][i], dqA[j])
            for j in range(l):
                acc = acc + multiply(dphix["x", j][i], By0[j])
                acc = acc - multiply(dphix["y", j][i], Bx0[j])
            out[:, i] = _mean0(acc, nb)
        return out

    a_phi = np.stack([_mean0(restrict_z0(phix_B[i]), nb) for i in range(l)], 1)
    t0 = tracker_mean(0)
    T = np.stack([tracker_mean(c) for c in range(1, l + 1)], axis=2)
    P_p = np.stack([np.stack([_mean0(dphix["p", j][i], nb) for j in range(d)], 1)
                    for i in range(l)], axis=1)
    P_x = np.stack([np.stack([_mean0(dphix["x", j][i], nb) for j in range(l)], 1)
                    for i in range(l)], axis=1)

    MX = np.stack(mx_c[1:], axis=2)
    MP = np.stack(mp_c[1:], axis=2)
    Sys = np.concatenate([
        np.concatenate([MX, -Gamma.astype(complex), beta.astype(complex)], 2),
        np.concatenate([MP, -M.astype(complex),
                        np.swapaxes(Gamma, 1, 2).astype(complex)], 2),
        np.concatenate([T, -P_p, P_x], 2)], axis=1)
    rhs = -np.concatenate([mx_c[0], mp_c[0], a_phi + t0], axis=1)
    bad = np.abs(Sys.imag).max(axis=(1, 2)) > \
        1e-9 * np.maximum(1.0, np.abs(Sys).max(axis=(1, 2)))
    if bad.any():
        raise CohomologyError("counter-term system has complex entries%s"
                              % _at_point(pts, bad))
    Sys = Sys.real
    rhs = rhs.real
    cond = np.linalg.cond(Sys)
    bad = cond > COND_CAP
    if bad.any():
        raise CohomologyError("counter-term linear system ill-conditioned "
                              "(cond %.3g)%s" % (cond[np.argmax(bad)],
                                                 _at_point(pts, bad)))
    sol = np.linalg.solve(Sys, rhs[..., None])[..., 0]
    alpha_pt, v_pt, mqby = sol[:, :l], sol[:, l:l + d], sol[:, l + d:]

    def combine(parts):
        out = parts[0]
        for i in range(l):
            if alpha_pt[:, i].any():
                out = out + parts[1 + i].scale(alpha_pt[:, i])
        return out

    A = combine(A_c)
    Bx = [combine([Bx_c[c][i] for c in range(l + 1)]) for i in range(l)]
    By = [combine([By_c[c][i] for c in range(l + 1)]) for i in range(l)]
    Bp = [combine([Bp_c[c][i] for c in range(l + 1)]) for i in range(d)]
    for i in range(l):
        if mqby[:, i].any():
            By[i] = By[i] + mqby[:, i]
    F_lin = TaylorSplit(a=A, b_x=Bx, b_p=Bp, b_y=By).reassemble()

    combo = combine(channels)
    v_series = [FTSeries.constant(gr, r, s, v_pt[:, i]) for i in range(d)]
    gen_lin = GeneratingFunction(F_lin, v_series)
    u = combo + gen_lin.bracket_with(Nred)
    sp_u = taylor_split(u)

    Dxx, Dyy, Dxy, obstruction = solve_L3(sp_u.d_xx, sp_u.d_yy, sp_u.d_xy,
                                          beta, witness)

    def mat_comb(rows, cols, entry):
        return [[entry(i, j) for j in range(cols)] for i in range(rows)]

    R1 = mat_comb(d, l, lambda i, j: sp_u.d_px[i][j] + sum(
        (Dxy[j][k2].scale(Gamma[:, k2, i]) for k2 in range(l)),
        FTSeries.zero(gr, r, s)))
    R2 = mat_comb(d, l, lambda i, j: sp_u.d_py[i][j] + sum(
        (Dyy[k2][j].scale(Gamma[:, k2, i]) for k2 in range(l)),
        FTSeries.zero(gr, r, s)))
    Dpx = [[None] * l for _ in range(d)]
    Dpy = [[None] * l for _ in range(d)]
    for i in range(d):
        u_row, w_row = solve_L2(R1[i], R2[i], beta, witness, K_eff)
        for j in range(l):
            Dpx[i][j] = u_row[j]
            Dpy[i][j] = w_row[j]
    R3 = mat_comb(d, d, lambda i, j: sp_u.d_pp[i][j]
                  + sum((Dpy[j][k2].scale(Gamma[:, k2, i]) for k2 in range(l)),
                        FTSeries.zero(gr, r, s))
                  + sum((Dpy[i][k2].scale(Gamma[:, k2, j]) for k2 in range(l)),
                        FTSeries.zero(gr, r, s)))
    Dpp = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            Dpp[i][j] = solve_L1(R3[i][j], witness)
            if j > i:
                Dpp[j][i] = Dpp[i][j]

    F_quad = TaylorSplit(d_xx=Dxx, d_yy=Dyy, d_xy=Dxy, d_px=Dpx, d_py=Dpy,
                         d_pp=Dpp).reassemble()
    F_full = F_lin + F_quad
    gen = GeneratingFunction(F_full, v_series)
    R = combo + gen.bracket_with(Nred)
    spR = taylor_split(R)

    def real(rows, cols, get, what):
        """(B, rows, cols) real means of the blocks get(i, j)."""
        return np.stack([np.stack([_real_mean(get(i, j), what, pts)
                                   for j in range(cols)], axis=1)
                         for i in range(rows)], axis=1)
    return {"alpha": alpha_pt, "v": v_pt, "F": F_full,
            "cbar": _real_mean(spR.a, "cbar", pts),
            "bbar": real(l, l, lambda i, j: spR.d_xx[i][j], "beta-bar"),
            "Gbar": real(l, d, lambda i, j: spR.d_px[j][i], "Gamma-bar"),
            "Mbar": real(d, d, lambda i, j: spR.d_pp[i][j], "M-bar"),
            "hbar": spR.remainder,
            "cond": _peak(cond), "obstruction": obstruction}


_NUMERIC = ("alpha", "v", "cbar", "bbar", "Gbar", "Mbar")


def _project(res, l, size, gr, r, s):
    """Project the per-point results onto parameter modes, with one FFT over
    the grid axes for every coefficient at once.

    Returns ({name: phi-only series or matrix of them} for the numeric
    results, {name: series} for F and hbar, the largest projection defect).
    """
    plan = _plan(gr)
    numeric = [res[name].reshape(size ** l, -1).T for name in _NUMERIC]
    series = [res["F"], res["hbar"]]
    # one row per numeric column, then one per term of F and of hbar (each
    # coefficient of a series is frozen: its terms all have j = 0)
    bounds = np.cumsum([0] + [len(v) for v in numeric]
                       + [len(f.coef) for f in series])
    rows = np.empty((bounds[-1], size ** l), dtype=complex)
    floors = np.empty(len(rows))
    # a number gets its own coefficient floor; a series one for all its keys
    peaks = [None] * len(numeric) + [_peak(f.max_abs_coeff()) for f in series]
    for n, (vals, peak) in enumerate(zip(numeric + [f.coef for f in series],
                                         peaks)):
        block = rows[bounds[n]:bounds[n + 1]]
        block[:] = vals if vals.ndim == 2 else vals[:, None]
        floors[bounds[n]:bounds[n + 1]] = 1e-16 * (
            np.abs(block).max(axis=1) if peak is None else peak)
    modes, coeffs, kept, defects = project_phi_rows(rows, l, size, gr.K_phi,
                                                    floors)
    jidx = np.array([plan.J.index[j] for j in modes])
    zk, za = plan.K.index[(0,) * gr.d], plan.T.index[(0,) * gr.nz]
    scalars = {}
    for n, name in enumerate(_NUMERIC):
        for row in range(bounds[n], bounds[n + 1]):
            at = np.flatnonzero(kept[row])
            new = FTSeries(gr, r, s)
            new._set(jidx[at], np.full(len(at), zk), np.full(len(at), za),
                     coeffs[row, at])
            scalars.setdefault(name, []).append(new)
    out = {}
    for n, (name, f) in enumerate(zip(("F", "hbar"), series)):
        lo = bounds[len(numeric) + n]
        # the modes outermost: f's terms are in slot order, so are these
        col, row = np.nonzero(kept[lo:lo + len(f.coef)].T)
        new = FTSeries(gr, r, s)
        new._set(jidx[col], f.ik[row], f.it[row], coeffs[lo + row, col])
        new._prune()
        out[name] = new
    shape = lambda items, rows, cols: [items[i * cols:(i + 1) * cols]
                                       for i in range(rows)]
    scalars["bbar"] = shape(scalars["bbar"], gr.l, gr.l)
    scalars["Gbar"] = shape(scalars["Gbar"], gr.l, gr.d)
    scalars["Mbar"] = shape(scalars["Mbar"], gr.d, gr.d)
    scalars["cbar"] = scalars["cbar"][0]
    return scalars, out, _peak(defects)


def solve_cohomological(N, f, phi_x, witness, sigma, delta, delta_plus,
                        K_eff=None, grid_size=None):
    """Full construction on every point of the parameter collocation grid.

    The solve needs the sublevel region of beta to cover the grid: the
    source paper's bump over nu_max(beta) equals one wherever nu_max(beta)
    < t1 + a (levels t1 = 2 delta_plus, t2 = 3 delta_plus, scale a =
    (t2 - t1) / 4), so there it glues nothing and every point has unit
    weight.  Any other beta is refused with a CohomologyError naming the
    first uncovered point, before any per-point work.

    Returns a CohomSolution whose residual_plateau field is the majorant of
    the defect g-slot of Nbar over the grid; the caller checks it against
    the majorant of f.  The per-point construction runs on grid_size points
    per axis, collocation_size(gr) by default.  sigma and delta are unused;
    they stay in the signature because callers pass them by keyword.
    """
    gr = f.grading
    l, d = gr.l, gr.d
    r, s = f.r, f.s
    if K_eff is None:
        K_eff = gr.K_q
    for i in range(l):
        for j in range(l):
            target = 1.0 if i == j else 0.0
            dev = majorant_norm(N.Q[i][j] - target) if not N.Q[i][j].is_zero() \
                else abs(target)
            if dev > 1e-10:
                raise CohomologyError("tuple must have Q = I before the solve")
    size = grid_size or collocation_size(gr)
    pts = phi_grid(l, size)

    def on_grid(mat, symmetric_tol=None):
        try:
            return mat_eval_grid(mat, pts, symmetric_tol)
        except ValueError as exc:
            raise CohomologyError(str(exc)) from exc

    beta = on_grid(N.beta, 1e-8)
    nu = nu_max(beta)
    level = 2.25 * delta_plus
    bad = nu >= level
    if bad.any():
        raise CohomologyError(
            "sublevel region does not cover the collocation grid: nu_max(beta)"
            " = %.3g >= level t1 + a = %.3g on %d of %d points%s"
            % (nu[np.argmax(bad)], level, np.count_nonzero(bad), len(pts),
               _at_point(pts, bad)))
    Gamma, M = on_grid(N.Gamma), on_grid(N.M, 1e-8)
    Nred = _reduced_hamiltonian(N, freeze_phi(N.h, pts), beta, Gamma, M)
    f_B = freeze_phi(f, pts)
    phix_B = [freeze_phi(phi_x[i], pts) for i in range(l)]
    try:
        res = _grid_solve(gr, r, s, pts, beta, Gamma, M, Nred, f_B, phix_B,
                          witness, K_eff)
    except SolverPreconditionError as exc:
        if exc.entry is None:
            raise
        raise SolverPreconditionError(
            "%s (at parameter grid point %s)" % (exc, pts[exc.entry])) from exc

    scal, ser, proj_defect = _project(res, l, size, gr, r, s)
    alpha_g, v_g, cbar_g = scal["alpha"], scal["v"], scal["cbar"]
    beta_g, Gamma_g, M_g = scal["bbar"], scal["Gbar"], scal["Mbar"]
    F_g, hbar_g = ser["F"], ser["hbar"]

    # global defect slot: everything the projected representatives fail to
    # match
    Nred_glob = assemble_hamiltonian(N) - N.g - N.c
    gen_g = GeneratingFunction(F_g, v_g)
    lhs = f.copy()
    for i in range(l):
        lhs = lhs - multiply(alpha_g[i], phi_x[i])
    lhs = lhs + gen_g.bracket_with(Nred_glob)
    model = TaylorSplit(
        a=cbar_g, d_xx=beta_g, d_pp=M_g,
        d_px=[[Gamma_g[j][i] for j in range(l)] for i in range(d)],
        remainder=hbar_g).reassemble()
    gbar = lhs - model
    Nbar = NormalFormTuple(
        w=np.zeros(d), c=cbar_g, beta=beta_g, Gamma=Gamma_g, M=M_g,
        Q=series_matrix(gr, r, s, l, l), g=gbar, h=hbar_g)

    resid_plateau = _peak(majorant_on_grid(gbar, pts))
    # tracker condition residual on the grid
    tracker_resid = 0.0
    for i in range(l):
        cond_ser = average_q(restrict_z0(phi_x[i] + gen_g.bracket_with(phi_x[i])))
        tracker_resid = max(tracker_resid,
                            _peak(majorant_on_grid(cond_ser, pts)))

    return CohomSolution(
        alpha=alpha_g, v=v_g, F=F_g, Nbar=Nbar, grid=pts,
        residual_plateau=resid_plateau, residual_tracker=tracker_resid,
        zero_mode_obstruction=res["obstruction"], max_condition=res["cond"],
        projection_defect=proj_defect)
