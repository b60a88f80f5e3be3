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
side off the exact series residual so far.  An FFT over the grid axes
projects each per-point result back onto parameter modes.  N - g frozen on
the grid and Nbar's model are written, and Nbar's blocks read back, by
kamtori.normalform's one map (model_hamiltonian, model_blocks).
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from ..normalform import (NormalFormTuple, assemble_hamiltonian,
                          const_matrix, majorant_on_grid, mat_eval_grid,
                          model_blocks, model_hamiltonian, nu_max, phi_grid,
                          project_phi_rows)
from ..series import (FTSeries, TaylorSplit, _equal_stack, _plan, average_q,
                      coordinates, differentiate, freeze_phi, majorant_norm,
                      multiply, restrict_z0, taylor_split)
# not used here: bench/workloads.py builds its trackers with cohom.coordinate
from ..series import coordinate  # noqa: F401
from ..smalldiv import (SolverPreconditionError, _check_beta, solve_L1,
                        solve_L2, solve_L3)
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
    G: FTSeries              # f - <alpha, phi_x>
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


def _peak(x):
    return float(np.max(x))


def _grid_solve(gr, r, s, pts, beta, Gamma, M, Nred, f_B, phix_B, witness):
    """Run the full ordered construction at every point of pts at once.

    The series arguments are frozen on pts (batched) and beta, Gamma, M are
    (B, ., .) stacks of their values there.  Each stage runs in its own
    function, so that the series it reads only itself are freed before the
    next stage's brackets.  Returns ({name: (B, ...) real array} for alpha,
    v and Nbar's c, beta, Gamma and M; {name: batched series} for F and
    Nbar's h; the largest condition number of the counter-term systems;
    L3's zero-mode obstruction)."""
    channels = [f_B] + [phix_B[i].scale(-1.0) for i in range(gr.l)]
    checked, alpha_pt, v_pt, cond, gen = _linear_stage(
        gr, r, s, pts, beta, Gamma, M, Nred, channels, phix_B, witness)
    combo = _combine(channels, alpha_pt)
    # the brackets from here on read only combo
    del f_B, phix_B, channels
    # gen goes from the linear generator to the full one
    gen, obstruction = _quadratic_stage(gr, r, s, combo, gen, Nred, beta,
                                        Gamma, checked, witness)
    bar = model_blocks(taylor_split(combo + gen.bracket_with(Nred)))

    def real(mat, what):
        """(B, rows, cols) real means of a matrix of blocks."""
        return np.stack([np.stack([_real_mean(e, what, pts) for e in row],
                                  axis=1) for row in mat], axis=1)
    numbers = {"alpha": alpha_pt, "v": v_pt,
               "c": _real_mean(bar["c"], "cbar", pts),
               "beta": real(bar["beta"], "beta-bar"),
               "Gamma": real(bar["Gamma"], "Gamma-bar"),
               "M": real(bar["M"], "M-bar")}
    return numbers, {"F": gen.F, "h": bar["h"]}, _peak(cond), obstruction


def _solve_channel(gr, nb, ch, Nred, beta, witness, checked):
    """The linear blocks of one channel: A by L1, then (B_x, B_y) by L2 and
    B_p by L1, each on the right-hand side that the blocks before it leave,
    with the means of the b_x and b_p slots the counter-term system reads.
    checked is L2's checked beta, or None on the first channel: beta is
    checked after its L1 solve, whose resonance error comes first.
    Returns (checked, (A, Bx, By, Bp, means of b_x, means of b_p))."""
    l, d = gr.l, gr.d
    sp = taylor_split(ch)
    A = solve_L1(sp.a, witness)
    if checked is None:
        # L2's precondition, once for every L2 solve of the construction
        checked = _check_beta(beta, witness, gr.K_q)
    lin1 = ch + poisson_bracket(Nred, A) if not A.is_zero() else ch
    sp1 = taylor_split(lin1)
    Bx, By = solve_L2(sp1.b_x, sp1.b_y, checked, witness, gr.K_q)
    F1 = TaylorSplit(a=A, b_x=Bx, b_y=By).reassemble()
    lin2 = ch + poisson_bracket(Nred, F1) if not F1.is_zero() else ch
    sp2 = taylor_split(lin2)
    Bp = [solve_L1(sp2.b_p[i], witness) for i in range(d)]
    return checked, (A, Bx, By, Bp,
                     np.stack([_mean0(sp1.b_x[i], nb) for i in range(l)], 1),
                     np.stack([_mean0(sp2.b_p[i], nb) for i in range(d)], 1))


def _counter_terms(gr, r, s, pts, beta, Gamma, M, phix_B, solved):
    """alpha, v and the mean of B_y at every point, from the block linear
    system of the channels' means and the parameter-tracker condition, with
    the system's condition numbers (_condition: one SVD for a stack of
    equal systems).  The system is solved point by point even when every
    point has the same one (module docstring of kamtori.smalldiv)."""
    l, d = gr.l, gr.d
    nb = len(pts)
    # parameter-tracker condition row: means of phix + {phix, F + v.q} at
    # z = 0; dphix[var][i] is the derivative of tracker i by coordinate var
    dphix = {var: [restrict_z0(differentiate(u, var)) for u in phix_B]
             for var in coordinates(gr)}

    def tracker_mean(c):
        A, Bx, By, Bp = solved[c][:4]
        out = np.zeros((nb, l), dtype=complex)
        dqA = [restrict_z0(differentiate(A, ("q", j))) for j in range(d)]
        Bp0 = [restrict_z0(Bp[j]) for j in range(d)]
        Bx0 = [restrict_z0(Bx[i2]) for i2 in range(l)]
        By0 = [restrict_z0(By[i2]) for i2 in range(l)]
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

    MX = np.stack([part[4] for part in solved[1:]], axis=2)
    MP = np.stack([part[5] for part in solved[1:]], axis=2)
    Sys = np.concatenate([
        np.concatenate([MX, -Gamma.astype(complex), beta.astype(complex)], 2),
        np.concatenate([MP, -M.astype(complex),
                        np.swapaxes(Gamma, 1, 2).astype(complex)], 2),
        np.concatenate([T, -P_p, P_x], 2)], axis=1)
    rhs = -np.concatenate([solved[0][4], solved[0][5], a_phi + t0], axis=1)
    bad = np.abs(Sys.imag).max(axis=(1, 2)) > \
        1e-9 * np.maximum(1.0, np.abs(Sys).max(axis=(1, 2)))
    if bad.any():
        raise CohomologyError("counter-term system has complex entries%s"
                              % _at_point(pts, bad))
    Sys = Sys.real
    rhs = rhs.real
    cond = _condition(Sys, pts)
    sol = np.linalg.solve(Sys, rhs[..., None])[..., 0]
    return sol[:, :l], sol[:, l:l + d], sol[:, l + d:], cond


def _condition(Sys, pts):
    """The condition number of each counter-term system of the (B, n, n)
    stack Sys, refused above COND_CAP at the first such point of pts.  A
    stack of equal systems takes one SVD (series._equal_stack)."""
    cond = np.broadcast_to(np.linalg.cond(_equal_stack(Sys)), Sys.shape[:1])
    bad = cond > COND_CAP
    if bad.any():
        raise CohomologyError("counter-term linear system ill-conditioned "
                              "(cond %.3g)%s" % (cond[np.argmax(bad)],
                                                 _at_point(pts, bad)))
    return cond


def _combine(parts, alpha_pt):
    """parts[0] + sum over i of alpha_i parts[1 + i], point by point (a
    part whose alpha is zero at every point is left out)."""
    out = parts[0]
    for i in range(alpha_pt.shape[1]):
        if alpha_pt[:, i].any():
            out = out + parts[1 + i].scale(alpha_pt[:, i])
    return out


def _linear_stage(gr, r, s, pts, beta, Gamma, M, Nred, channels, phix_B,
                  witness):
    """Every channel's linear blocks, the counter terms, and the linear
    generator they combine to.  Returns (L2's checked beta, alpha and v at
    every point, the condition numbers, the linear generator)."""
    l, d = gr.l, gr.d
    checked, solved = None, []
    for ch in channels:
        checked, part = _solve_channel(gr, len(pts), ch, Nred, beta, witness,
                                       checked)
        solved.append(part)
    alpha_pt, v_pt, mqby, cond = _counter_terms(gr, r, s, pts, beta, Gamma,
                                                M, phix_B, solved)
    A = _combine([part[0] for part in solved], alpha_pt)
    Bx, By, Bp = ([_combine([part[n][i] for part in solved], alpha_pt)
                   for i in range(len(solved[0][n]))] for n in (1, 2, 3))
    for i in range(l):
        if mqby[:, i].any():
            By[i] = By[i] + mqby[:, i]
    F_lin = TaylorSplit(a=A, b_x=Bx, b_p=Bp, b_y=By).reassemble()
    v_series = [FTSeries.constant(gr, r, s, v_pt[:, i]) for i in range(d)]
    return checked, alpha_pt, v_pt, cond, GeneratingFunction(F_lin, v_series)


def _quadratic_stage(gr, r, s, combo, gen_lin, Nred, beta, Gamma, checked,
                     witness):
    """The quadratic blocks on the residual combo + {gen_lin, Nred}: the
    xx/yy/xy stage by L3, px/py by L2, pp by L1.  Returns (the full
    generator, linear plus quadratic blocks, with gen_lin's v; L3's zero-mode
    obstruction)."""
    l, d = gr.l, gr.d
    sp_u = taylor_split(combo + gen_lin.bracket_with(Nred))

    Dxx, Dyy, Dxy, obstruction = solve_L3(sp_u.d_xx, sp_u.d_yy, sp_u.d_xy,
                                          beta, witness)

    def mat_comb(rows, cols, entry):
        return [[entry(i, j) for j in range(cols)] for i in range(rows)]

    def through_gamma(i, entry):
        """The sum over k of entry(k) Gamma[:, k, i], point by point."""
        return sum((entry(k).scale(Gamma[:, k, i]) for k in range(l)),
                   FTSeries.zero(gr, r, s))

    R1 = mat_comb(d, l, lambda i, j: sp_u.d_px[i][j]
                  + through_gamma(i, lambda k: Dxy[j][k]))
    R2 = mat_comb(d, l, lambda i, j: sp_u.d_py[i][j]
                  + through_gamma(i, lambda k: Dyy[k][j]))
    Dpx, Dpy = map(list, zip(*(solve_L2(R1[i], R2[i], checked, witness,
                                        gr.K_q) for i in range(d))))
    R3 = mat_comb(d, d, lambda i, j: sp_u.d_pp[i][j]
                  + through_gamma(i, lambda k: Dpy[j][k])
                  + through_gamma(j, lambda k: Dpy[i][k]))
    Dpp = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            Dpp[i][j] = Dpp[j][i] = solve_L1(R3[i][j], witness)

    F_quad = TaylorSplit(d_xx=Dxx, d_yy=Dyy, d_xy=Dxy, d_px=Dpx, d_py=Dpy,
                         d_pp=Dpp).reassemble()
    return GeneratingFunction(gen_lin.F + F_quad, gen_lin.v), obstruction


def _project(numbers, series, l, size, gr, r, s):
    """Project the grid solve's per-point results onto parameter modes by an
    FFT over the grid axes of each grid row (``project_phi_rows``): one call
    on the numbers, a row per entry of their stacked (B, ...) arrays, and
    one on each series' (terms, B) coefficient array itself (each
    coefficient of a series is frozen: its terms all have j = 0).

    Returns ({name: phi-only series, nested as the number's entries}, {name:
    series}, the largest projection defect).
    """
    plan = _plan(gr)
    zk, za = plan.K.index[(0,) * gr.d], plan.T.index[(0,) * gr.nz]
    rows = np.concatenate([a.reshape(len(a), -1).T for a in numbers.values()])
    # a number gets its own coefficient floor; a series one for all its keys
    modes, coeffs, kept, defect = project_phi_rows(
        rows, l, size, gr.K_phi, 1e-16 * np.abs(rows).max(axis=1))
    jidx = np.array([plan.J.index[j] for j in modes])
    defects = [defect]

    def phi_only(row):
        at = np.flatnonzero(kept[row])
        new = FTSeries(gr, r, s)
        new._set(jidx[at], np.full(len(at), zk), np.full(len(at), za),
                 coeffs[row, at])
        return new
    # each number's series, nested as the entries of its (B, ...) array
    entries = map(phi_only, range(len(rows)))
    scalars = {name: np.fromiter(entries, object, a[0].size).reshape(
        a.shape[1:]).tolist() for name, a in numbers.items()}
    out = {}
    for name, f in series.items():
        _, f_coeffs, f_kept, f_defect = project_phi_rows(
            f.coef, l, size, gr.K_phi,
            np.full(len(f.coef), 1e-16 * _peak(f.max_abs_coeff())))
        # the modes outermost: f's terms are in slot order, so are these
        col, row = np.nonzero(f_kept.T)
        new = FTSeries(gr, r, s)
        new._set(jidx[col], f.ik[row], f.it[row], f_coeffs[row, col])
        new._prune()
        out[name] = new
        defects.append(f_defect)
    return scalars, out, _peak(np.concatenate(defects))


def solve_cohomological(N, f, phi_x, witness, sigma, delta, delta_plus,
                        grid_size=None):
    """Full construction on every point of the parameter collocation grid.

    The solve needs the sublevel region of beta to cover the grid: the
    source paper's bump over nu_max(beta) equals one wherever nu_max(beta)
    < t1 + a (levels t1 = 2 delta_plus, t2 = 3 delta_plus, scale a =
    (t2 - t1) / 4), so there it glues nothing and every point has unit
    weight.  Any other beta is refused with a CohomologyError naming the
    first uncovered point, before any per-point work.

    Returns a CohomSolution: residual_plateau is the majorant of Nbar's
    defect g-slot over the grid, which the caller checks against f's, and G
    is f - <alpha, phi_x>.  The per-point construction runs on grid_size
    points per axis, collocation_size(gr) by default.  sigma and delta are
    unused; they stay in the signature because callers pass them by keyword.
    """
    gr = f.grading
    l, d = gr.l, gr.d
    r, s = f.r, f.s
    if max(majorant_norm(N.Q[i][j] - float(i == j))
           for i in range(l) for j in range(l)) > 1e-10:
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
    frozen = lambda B: const_matrix(N.grading, *N.radii, B)
    try:
        # the frozen series are the solve's own: they are freed with it,
        # before the projection; N - g has Q = I (its c is irrelevant)
        numbers, series, cond, obstruction = _grid_solve(
            gr, r, s, pts, beta, Gamma, M,
            model_hamiltonian(N.grading, *N.radii, w=N.w, beta=frozen(beta),
                              Gamma=frozen(Gamma), M=frozen(M),
                              Q=frozen(np.eye(l)), h=freeze_phi(N.h, pts)),
            freeze_phi(f, pts), [freeze_phi(phi_x[i], pts) for i in range(l)],
            witness)
    except SolverPreconditionError as exc:
        if exc.entry is None:
            raise
        raise SolverPreconditionError(
            "%s (at parameter grid point %s)" % (exc, pts[exc.entry])) from exc

    bar, ser, proj_defect = _project(numbers, series, l, size, gr, r, s)
    alpha_g, v_g, F_g = bar.pop("alpha"), bar.pop("v"), ser.pop("F")
    # Nbar's blocks, by their names in the tuple: c, beta, Gamma, M and h
    bar.update(ser)

    # global defect slot: everything the projected representatives fail to
    # match.  N - g - c is built from the whole assembly: without g and c it
    # would round differently, since (X + g) - g need not be X
    Nred_glob = assemble_hamiltonian(N) - N.g - N.c
    gen_g = GeneratingFunction(F_g, v_g)
    G = f.copy()
    for i in range(l):
        G = G - multiply(alpha_g[i], phi_x[i])
    lhs = G + gen_g.bracket_with(Nred_glob)
    gbar = lhs - model_hamiltonian(gr, r, s, **bar)
    Nbar = NormalFormTuple(w=np.zeros(d), g=gbar, **bar,
                           Q=const_matrix(gr, r, s, np.zeros((l, l))))

    resid_plateau = _peak(majorant_on_grid(gbar, pts))
    # tracker condition residual on the grid
    tracker_resid = 0.0
    for i in range(l):
        cond_ser = average_q(restrict_z0(phi_x[i] + gen_g.bracket_with(phi_x[i])))
        tracker_resid = max(tracker_resid,
                            _peak(majorant_on_grid(cond_ser, pts)))

    return CohomSolution(
        alpha=alpha_g, v=v_g, F=F_g, Nbar=Nbar, G=G, grid=pts,
        residual_plateau=resid_plateau, residual_tracker=tracker_resid,
        zero_mode_obstruction=obstruction, max_condition=cond,
        projection_defect=proj_defect)
