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
2005).  The order: for f and each -phi_x_i (the channels), A by the plain
cohomological solve, (B_x, B_y) by the coupled pair solve and B_p, as the
channel's generator A + B.z; then the block linear system for (alpha, v,
mean of B_y), whose tracker row brackets each tracker with each channel's
generator; the linear generator and the residual, one ft_sum each of the
channels weighted by alpha; then the quadratic blocks (the xx/yy/xy stage
by kamtori.smalldiv's symmetrized coupled-triple solve; its leftover xx
average, like the px / pp averages, becomes a component of Nbar), each
stage reading its right-hand side off the exact series residual so far.
Each bracket forms only the TaylorSplit fields its reader takes
(kamtori.series ``_bracket``): with N - g, b_x and b_y for L2, b_p for
B_p's L1, the six quadratic blocks for the quadratic stage, and
normalform.MODEL_FIELDS for Nbar; the tracker row's, a alone.
The sums and splits that read the brackets do the same: each adds only the
terms of its right-hand side that feed those fields (``_split_sum``; the
last keeps one whole merge, which holds less at once) and splits only
them (``taylor_split(f, fields)``).  Each term formed has the bits of the
whole bracket's or sum's term; only the relative prune floor, which reads
the formed terms alone, may differ.  An FFT over the grid axes projects
each per-point result back onto parameter modes.  N - g frozen on the
grid and Nbar's model are written, and Nbar's blocks read back, by
kamtori.normalform's one map (model_hamiltonian, model_blocks).
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from ..normalform import (MODEL_FIELDS, NormalFormTuple,
                          assemble_hamiltonian, const_matrix,
                          majorant_on_grid, mat_eval_grid, model_blocks,
                          model_hamiltonian, phi_grid, project_phi_rows)
from ..series import (FTSeries, TaylorSplit, _equal_stack, _field_mask, _plan,
                      average_q, coordinate, degrees, differentiate,
                      freeze_phi, ft_sum, majorant_norm, multiply, restrict_z0,
                      select, taylor_split)
from ..smalldiv import (SolverPreconditionError, _check_beta, _decompose,
                        solve_L1, solve_L2, solve_L3)
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
    at = f.slot == plan.code(plan.J.index[(0,) * f.grading.l],
                             plan.K.index[(0,) * f.grading.d], 0)
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


def _grid_solve(gr, r, s, pts, checked, Gamma, M, Nred, f_B, phix_B,
                witness):
    """Run the full ordered construction at every point of pts at once.

    The series arguments are frozen on pts (batched); Gamma, M and checked
    (beta, checked for L2 by smalldiv._check_beta) are (B, ., .) stacks of
    their values there.  Each stage runs in its own function, so that the
    series it reads only itself are freed before the next stage's brackets.
    Returns ({name: (B, ...) real array} for alpha, v and Nbar's c, beta,
    Gamma and M; {name: batched series} for F and Nbar's h; the largest
    counter-term condition number; L3's zero-mode obstruction)."""
    channels = [f_B] + [phix_B[i].scale(-1.0) for i in range(gr.l)]
    alpha_pt, v_pt, cond, gen = _linear_stage(
        gr, r, s, pts, checked, Gamma, M, Nred, channels, phix_B, witness)
    combo = ft_sum(gr, r, s, _weighted(channels, alpha_pt))
    # the brackets from here on read only combo
    del f_B, phix_B, channels
    # gen goes from the linear generator to the full one
    gen, obstruction = _quadratic_stage(gr, r, s, combo, gen, Nred, checked,
                                        Gamma, witness)
    # one whole merge: selecting combo's terms first raised the peak
    bar = model_blocks(taylor_split(
        combo + gen.bracket_with(Nred, MODEL_FIELDS), MODEL_FIELDS))

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


def _split_sum(f, g, fields):
    """taylor_split(f + g, fields), adding to g only the terms of f whose
    exponents feed the fields (``_field_mask``).  A named field sums the
    same terms in the same order as the whole sum's; only the relative
    prune floor, which reads the added terms alone, may differ."""
    keep = _field_mask(f.grading, frozenset(fields))[f.it]
    return taylor_split(select(f, keep) + g, fields)


def _solve_channel(gr, nb, ch, Nred, checked, witness):
    """The linear generator of one channel: A by L1, then (B_x, B_y) by L2
    and B_p by L1, each on the right-hand side that the blocks before it
    leave.  Returns (A + B.z as one series, means of b_x, means of b_p):
    the means, and the generator through the tracker row, are the
    channel's column of the counter-term system."""
    l, d = gr.l, gr.d
    xy = ("b_x", "b_y")
    sp = taylor_split(ch, ("a",) + xy + ("b_p",))
    A = solve_L1(sp.a, witness)
    sp1 = sp if A.is_zero() else _split_sum(
        ch, poisson_bracket(Nred, A, xy), xy)
    Bx, By = solve_L2(sp1.b_x, sp1.b_y, checked, witness, gr.K_q)
    F1 = TaylorSplit(a=A, b_x=Bx, b_y=By).reassemble()
    sp2 = sp if F1.is_zero() else _split_sum(
        ch, poisson_bracket(Nred, F1, ("b_p",)), ("b_p",))
    Bp = [solve_L1(sp2.b_p[i], witness) for i in range(d)]
    return (TaylorSplit(a=A, b_x=Bx, b_y=By, b_p=Bp).reassemble(),
            np.stack([_mean0(sp1.b_x[i], nb) for i in range(l)], 1),
            np.stack([_mean0(sp2.b_p[i], nb) for i in range(d)], 1))


def _tracker_row(phix_B, gens, nb):
    """(B, l, len(gens)): the mean at z = 0 of {phix_i, gens[c]} at every
    point, each bracket formed on TaylorSplit field a alone.  A degree-0
    term of {phix_i, F} reads only phix_i's terms of degree <= 1, so each
    tracker is cut to them once."""
    cut = [select(u, degrees(u)[2] <= 1) for u in phix_B]
    return np.stack([np.stack([_mean0(poisson_bracket(u, F, ("a",)), nb)
                               for u in cut], 1) for F in gens], axis=2)


def _counter_terms(gr, pts, beta, Gamma, M, phix_B, solved):
    """alpha, v and the mean of B_y at every point, from the block linear
    system of the channels' means and the parameter-tracker condition (its
    generator entries by _tracker_row, on field a), with the system's
    condition numbers (_condition: one SVD for a stack of equal systems).
    solved holds each channel's _solve_channel.  The system is solved point
    by point even when every point has the same one (module docstring of
    kamtori.smalldiv)."""
    l, d = gr.l, gr.d
    nb = len(pts)

    def slopes(kind, n):
        """(B, l, n): the means at z = 0 of d phix_i / d (kind, j)."""
        return np.stack([np.stack([
            _mean0(restrict_z0(differentiate(u, (kind, j))), nb)
            for j in range(n)], 1) for u in phix_B], axis=1)

    # parameter-tracker condition row: means of phix + {phix, F + v.q} at
    # z = 0; F's columns read its channels' generators, v's the p slopes
    # and the mean of B_y's the x slopes of the trackers
    a_phi = np.stack([_mean0(restrict_z0(phix_B[i]), nb) for i in range(l)], 1)
    row = _tracker_row(phix_B, [part[0] for part in solved], nb)

    MX = np.stack([part[1] for part in solved[1:]], axis=2)
    MP = np.stack([part[2] for part in solved[1:]], axis=2)
    Sys = np.concatenate([
        np.concatenate([MX, -Gamma.astype(complex), beta.astype(complex)], 2),
        np.concatenate([MP, -M.astype(complex),
                        np.swapaxes(Gamma, 1, 2).astype(complex)], 2),
        np.concatenate([row[:, :, 1:], -slopes("p", d), slopes("x", l)], 2)],
        axis=1)
    rhs = -np.concatenate([solved[0][1], solved[0][2], a_phi + row[:, :, 0]],
                          axis=1)
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


def _weighted(parts, alpha_pt):
    """The terms of parts[0] + sum over i of alpha_i parts[1 + i], point by
    point (a part whose alpha is zero at every point is left out)."""
    return parts[:1] + [p.scale(a) for p, a in zip(parts[1:], alpha_pt.T)
                        if a.any()]


def _linear_stage(gr, r, s, pts, checked, Gamma, M, Nred, channels, phix_B,
                  witness):
    """Every channel's linear generator, the counter terms, and the linear
    generator they combine to, one ft_sum: the channels' weighted by alpha,
    plus the mean of B_y times y.  Returns (alpha and v at every point, the
    condition numbers, the linear generator)."""
    l, d = gr.l, gr.d
    solved = [_solve_channel(gr, len(pts), ch, Nred, checked, witness)
              for ch in channels]
    alpha_pt, v_pt, mqby, cond = _counter_terms(gr, pts, checked.beta, Gamma,
                                                M, phix_B, solved)
    F_lin = ft_sum(gr, r, s, _weighted([part[0] for part in solved], alpha_pt)
                   + [coordinate(gr, r, s, "y", i).scale(mqby[:, i])
                      for i in range(l) if mqby[:, i].any()])
    v_series = [FTSeries.constant(gr, r, s, v_pt[:, i]) for i in range(d)]
    return alpha_pt, v_pt, cond, GeneratingFunction(F_lin, v_series)


def _quadratic_stage(gr, r, s, combo, gen_lin, Nred, checked, Gamma, witness):
    """The quadratic blocks on the residual combo + {gen_lin, Nred}: the
    xx/yy/xy stage by L3, px/py by L2, pp by L1.  Returns (the full
    generator, linear plus quadratic blocks, with gen_lin's v; L3's zero-mode
    obstruction)."""
    l, d = gr.l, gr.d
    quad = ("d_xx", "d_yy", "d_xy", "d_px", "d_py", "d_pp")
    sp_u = _split_sum(combo, gen_lin.bracket_with(Nred, quad), quad)

    Dxx, Dyy, Dxy, obstruction = solve_L3(sp_u.d_xx, sp_u.d_yy, sp_u.d_xy,
                                          checked, witness)

    def mat_comb(rows, cols, entry):
        return [[entry(i, j) for j in range(cols)] for i in range(rows)]

    def through_gamma(i, entry):
        """The sum over k of entry(k) Gamma[:, k, i], point by point."""
        # a fold: R1-R3 add this sum pruned alone (one ft_sum moves bits)
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
    # the slot of (j, k, a) is j NK NT + (k NT + t)
    zero = plan.code(0, plan.K.index[(0,) * gr.d], plan.T.index[(0,) * gr.nz])
    rows = np.concatenate([a.reshape(len(a), -1).T for a in numbers.values()])
    # a number gets its own coefficient floor; a series one for all its keys
    modes, coeffs, kept, defect = project_phi_rows(
        rows, l, size, gr.K_phi, 1e-16 * np.abs(rows).max(axis=1))
    jslot = plan.code(np.array([plan.J.index[j] for j in modes]), 0, 0)
    defects = [defect]

    def phi_only(row):
        at = np.flatnonzero(kept[row])
        new = FTSeries(gr, r, s)
        new._set(jslot[at] + zero, coeffs[row, at])
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
        new._set(jslot[col] + f.slot[row] % (plan.NK * plan.NT),
                 f_coeffs[row, col])
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
    weight.  Before any per-point work, and reading one eigh of beta's grid
    stack, the solve refuses in this order: a Q other than I, a beta whose
    sublevel region leaves a point uncovered (a CohomologyError), then one
    failing L2's precondition (a SolverPreconditionError); the last two
    name their first failing grid point.

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
    decomposed = _decompose(beta)
    nu = decomposed.w[:, -1]
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
        checked = _check_beta(decomposed, witness, gr.K_q)
        # the frozen series are the solve's own: they are freed with it,
        # before the projection; N - g has Q = I (its c is irrelevant)
        numbers, series, cond, obstruction = _grid_solve(
            gr, r, s, pts, checked, Gamma, M,
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
    G = ft_sum(gr, r, s, [f] + [-multiply(alpha_g[i], phi_x[i])
                                for i in range(l)])
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
