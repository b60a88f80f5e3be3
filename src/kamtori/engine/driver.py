"""One rung of the quadratic scheme and the iteration loop around it.

A step: solve the linearized conjugacy (cohom module) on the grading's
whole q-ball, flow by the resulting generator, carry the cumulative map
through that flow by Lie transport, and assemble the corrected tuple and
the new error term from the time-integral remainders

    f+ = int_0^1 { (1-t) Nbar + t (f - <alpha, phi_x>), F + v.q } o Psi^t dt.

Every smallness hypothesis and every contraction target is measured and
recorded; a miss marks the step failed instead of being silently accepted.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, PreconditionError
from ..normalform import (NormalFormTuple, assemble_hamiltonian,
                          normal_form_distance, normal_form_norm)
from ..series import (FTSeries, TaylorSplit, average_q, ck_norm_estimate,
                      coordinate, degrees, differentiate, ft_sum,
                      majorant_norm, select)
from ..smalldiv import effective_diophantine_constant
from ..symplectic import (GeneratingFunction, SymplecticMapSeries,
                          compose_maps, identity_map, lie_tail_integral,
                          lie_transform, map_from_generator, series_compose)
from .cohom import restrict_z0, solve_cohomological
from .schedule import StepFailure, build_schedule

# a rung's tracker and tuple may drift at most 2 LAMBDA
LAMBDA = 0.1


@dataclass
class IterationState:
    n: int
    N: NormalFormTuple
    alpha: list            # l phi-only series, accumulated counter-term
    f: FTSeries
    Phi: SymplecticMapSeries
    r: float
    s: float
    # sizes measured as the state was made: f_c2 of f, alpha_c2 and
    # tracker_mean_c2 of phi_x, which kam_step reads as its rung's sizes
    norms: dict = field(default_factory=dict)

    @classmethod
    def start(cls, N0, f0):
        """Rung 0 of a run from (N0, f0): no counter-term, the identity map,
        f0's radii, and the measured sizes of f0 and of the tracker's
        mean."""
        gr, r, s = f0.grading, f0.r, f0.s
        state = cls(n=0, N=N0, alpha=[FTSeries.zero(gr, r, s)
                                      for _ in range(gr.l)],
                    f=f0, Phi=identity_map(gr, r, s), r=r, s=s,
                    norms={"f_c2": c2_norm(f0), "alpha_c2": 0.0})
        state.norms["tracker_mean_c2"] = tracker_mean_norm(state.phi_x(), gr)
        return state

    @property
    def grading(self):
        return self.f.grading

    def phi_x(self):
        """x-components of the cumulative map as full series."""
        gr = self.grading
        return [coordinate(gr, self.r, self.s, "x", i) + self.Phi.Ux[i]
                for i in range(gr.l)]


@dataclass
class StepResult:
    alpha_step: list
    Psi: SymplecticMapSeries
    measures: dict
    ok: bool


def c2_norm(f):
    """The working C^2 estimate for error terms (majorant route)."""
    return ck_norm_estimate(f, 2, 2)


def phi_c2_norm(series_list):
    return max(ck_norm_estimate(u, 2, 0) for u in series_list)


def tracker_mean_norm(phi_x, gr):
    """C^2 size of M_q phi_x(., 0) relative to the torus parameter."""
    vals = []
    for i in range(gr.l):
        m = average_q(restrict_z0(phi_x[i]))
        # remove the identity coordinate itself: x_i restricted to z = 0 is 0,
        # so m already carries only the displacement mean
        vals.append(ck_norm_estimate(m, 2, 0))
    return max(vals)


@contextlib.contextmanager
def _phase(what, measures, *also):
    """Turn a ConvergenceError (or an exception of a type in also) in the
    block into StepFailure("<what> failed: <exc>") carrying measures."""
    try:
        yield
    except (ConvergenceError,) + also as exc:
        raise StepFailure("%s failed: %s" % (what, exc), measures) from exc


def kam_step(state, row, witness, N0):
    """Apply one rung; returns (next state, StepResult).

    Preconditions and postcondition targets are measured; a missed
    precondition raises StepFailure, while missed contraction targets only
    mark the result not ok (the caller decides whether to continue).  The
    solve's plateau residual must stay within 1e-8 times the majorant of f.
    """
    gr = state.grading
    r, s = row.r, row.s
    sigma, eps = row.sigma, row.eps
    measures = {}
    f = state.f
    phi_x = state.phi_x()

    f_norm = measures["f_c2"] = state.norms["f_c2"]
    measures["tracker_mean_c2"] = state.norms["tracker_mean_c2"]
    dx_off = [phi_x[i] - coordinate(gr, r, s, "x", i) for i in range(gr.l)]
    measures["tracker_off_c2"] = max(
        (c2_norm(u) for u in dx_off), default=0.0)
    measures["tuple_drift"] = normal_form_distance(state.N,
                                                   N0.with_radii(r, s))
    pre_fail = []
    if f_norm > eps:
        pre_fail.append("|f|_2 = %.3g exceeds the rung budget %.3g"
                        % (f_norm, eps))
    if measures["tracker_mean_c2"] > eps:
        pre_fail.append("tracker mean %.3g exceeds %.3g"
                        % (measures["tracker_mean_c2"], eps))
    if measures["tracker_off_c2"] > 2 * LAMBDA:
        pre_fail.append("tracker drift %.3g exceeds 2 lambda = %.3g"
                        % (measures["tracker_off_c2"], 2 * LAMBDA))
    if measures["tuple_drift"] > 2 * LAMBDA:
        pre_fail.append("tuple drift %.3g exceeds 2 lambda = %.3g"
                        % (measures["tuple_drift"], 2 * LAMBDA))
    if pre_fail:
        raise StepFailure("; ".join(pre_fail), measures)

    measures["K_eff"] = gr.K_q
    with _phase("linearized conjugacy solve", measures,
                np.linalg.LinAlgError):
        sol = solve_cohomological(state.N, f, phi_x, witness, sigma,
                                  row.delta, row.delta_plus)
    measures["cohom_residual_plateau"] = sol.residual_plateau
    measures["cohom_tracker_residual"] = sol.residual_tracker
    measures["cohom_condition"] = sol.max_condition
    measures["cohom_obstruction"] = sol.zero_mode_obstruction
    measures["cohom_projection_defect"] = sol.projection_defect
    resid_budget = 1e-8 * max(majorant_norm(f), 1e-300)
    measures["cohom_residual_budget"] = resid_budget
    measures["cohom_residual_ok"] = bool(sol.residual_plateau <= resid_budget)

    gen = GeneratingFunction(sol.F, sol.v)
    with _phase("generator flow", measures):
        Psi = map_from_generator(gen)
    measures["psi_displacement"] = Psi.displacement_majorant()
    measures["psi_remainder"] = Psi.remainder
    measures["symp_residual"] = Psi.symp_residual

    Nbar_ham = assemble_hamiltonian(sol.Nbar)
    rem = 0.0
    # orders reached by the two tail integrals and the transport of g
    # (0 for a sum not taken)
    orders = [0, 0, 0]
    with _phase("error-term transport", measures):
        if Nbar_ham.is_zero() and gen.F.is_zero() \
                and all(v.is_zero() for v in sol.v):
            f_plus = FTSeries.zero(gr, r, s)
        else:
            u1 = gen.bracket_with(Nbar_ham)
            t1, rem1, orders[0] = lie_tail_integral(
                u1, gen, lambda n: 1.0 / ((n + 1) * (n + 2)))
            u2 = gen.bracket_with(sol.G)
            t2, rem2, orders[1] = lie_tail_integral(u2, gen,
                                                    lambda n: 1.0 / (n + 2))
            f_plus = t1 + t2
            rem = rem1 + rem2
    measures["lie_remainder"] = rem

    # Nbar has w = 0 and Q = 0, so the sum keeps w and Q as they are
    N_plus = state.N + sol.Nbar
    if not state.N.g.is_zero():
        with _phase("normal-form transport", measures):
            g_moved, _, orders[2] = lie_transform(state.N.g, gen)
        N_plus.g = N_plus.g + (g_moved - state.N.g)

    r_plus, s_plus = r - 10 * sigma, s - sigma
    N_plus = N_plus.with_radii(r_plus, s_plus)
    f_plus = f_plus.with_radii(r_plus, s_plus)
    Psi_out = Psi.with_radii(r_plus, s_plus)
    with _phase("map composition", measures):
        Phi_plus = compose_maps(state.Phi.with_radii(r_plus, s_plus), Psi_out)

    fp_norm = c2_norm(f_plus)
    target = eps ** 1.5
    measures["f_plus_c2"] = fp_norm
    # what the truncated ring dropped on the way, and how large it grew
    measures["f_plus_trunc_loss"] = f_plus.trunc_loss
    measures["phi_trunc_loss"] = max(u.trunc_loss for u in Phi_plus.components())
    # the cumulative map's Lie-series remainder bound (psi_remainder is the
    # rung's flow's share)
    measures["phi_remainder"] = Phi_plus.remainder
    measures["f_plus_terms"] = len(f_plus.terms)
    measures["phi_terms"] = sum(len(u.terms) for u in Phi_plus.components())
    measures["f_plus_target"] = target
    measures["lie_orders"] = orders
    # log f_{n+1} / log f_n; None if the rung absorbed f exactly or
    # |f_n| is not in (0, 1)
    measures["contraction_exponent"] = \
        math.log(fp_norm) / math.log(f_norm) \
        if fp_norm > 0.0 and 0.0 < f_norm < 1.0 else None
    alpha_new = [state.alpha[i].with_radii(r_plus, s_plus)
                 + sol.alpha[i].with_radii(r_plus, s_plus) for i in range(gr.l)]
    new_state = IterationState(
        n=state.n + 1, N=N_plus, alpha=alpha_new,
        f=f_plus, Phi=Phi_plus, r=r_plus, s=s_plus,
        norms={"f_c2": fp_norm, "alpha_c2": phi_c2_norm(alpha_new)})
    measures["tracker_next_mean_c2"] = new_state.norms["tracker_mean_c2"] = \
        tracker_mean_norm(new_state.phi_x(), gr)
    measures["alpha_step_c2"] = phi_c2_norm(sol.alpha)
    measures["v_c2"] = phi_c2_norm(sol.v)
    measures["nbar_norm"] = normal_form_norm(sol.Nbar)
    measures["sqrt_eps"] = math.sqrt(eps)
    misses = postcondition_misses(measures)
    measures["postcondition_misses"] = misses

    result = StepResult(alpha_step=sol.alpha, Psi=Psi_out, measures=measures,
                        ok=not misses)
    return new_state, result


def postcondition_misses(m):
    """Each postcondition a rung's measures m miss, named with its value and
    its bound (an empty list when the rung met them all)."""
    misses = []
    target = m["f_plus_target"]
    for key in ("f_plus_c2", "tracker_next_mean_c2"):
        if not m[key] <= target:
            misses.append("%s: %.3g > target %.3g" % (key, m[key], target))
    if not m["cohom_residual_ok"]:
        misses.append("cohom_residual_ok: plateau %.3g > budget %.3g"
                      % (m["cohom_residual_plateau"],
                         m["cohom_residual_budget"]))
    return misses


def equal_derivative_defect(f0, frame=None):
    """Majorant of M_q(frame^T d_x f0 - d_phi f0); zero for shift-built data.

    Only Taylor degrees <= D - 1 are compared: the degree-D slice of the slot
    derivative is lost to the degree cap, so the identity is unverifiable
    there by construction.
    """
    gr = f0.grading
    frame = np.eye(gr.l) if frame is None else np.asarray(frame, dtype=float)
    worst = 0.0
    for i in range(gr.l):
        dev = average_q(ft_sum(gr, f0.r, f0.s, [
            differentiate(f0, ("x", j)).scale(frame[j, i])
            for j in range(gr.l) if frame[j, i] != 0.0]
            + [-differentiate(f0, ("phi", i))]))
        checkable = select(dev, degrees(dev)[2] <= gr.D - 1)
        worst = max(worst, majorant_norm(checkable))
    return worst


@dataclass
class IterateConfig:
    tau: float = 0.1
    n_max: int = 8
    target_tol: float = 1e-12
    frame: np.ndarray = None


def conjugacy_residual(N0, f0, state):
    """Majorant of (N0 + f0 - <alpha_n, x>) o Phi^n - (N_n + f_n)."""
    H0 = (assemble_hamiltonian(N0) + f0).with_radii(state.r, state.s)
    lhs = series_compose(H0 - TaylorSplit(b_x=state.alpha).reassemble(),
                         state.Phi)
    rhs = assemble_hamiltonian(state.N) + state.f
    return majorant_norm(lhs - rhs)


def iterate(N0, f0, config=None):
    """Run the scheme from (N0, f0) until the error norm drops below target.

    Returns (final IterationState, history dict).  History records the
    per-rung measures; on a failed step the partial history carries the
    failure reason.
    """
    cfg = config or IterateConfig()
    defect = equal_derivative_defect(f0, cfg.frame)
    scale = max(majorant_norm(f0), 1.0)
    if defect > 1e-10 * scale:
        raise PreconditionError("perturbation violates the averaged-"
                                "derivative identity: defect %.3g" % defect)
    witness = effective_diophantine_constant(N0.w, cfg.tau, f0.grading.K_q)
    if witness.resonant:
        raise PreconditionError("frequency vector is resonant at k=%s"
                                % (witness.worst_k,))
    history = {"steps": [], "schedule": None, "failure": None,
               "equal_deriv_defect": defect, "gamma_eff": witness.gamma,
               "conventions": {
                   "Q_slot": "the iterated tuple keeps Q = I_l; the per-rung "
                             "correction tuple carries Q = 0 (the alternative "
                             "reading, Q = 0 on the iterated tuple, is "
                             "rejected as inconsistent with the tuple sum)"}}
    state = IterationState.start(N0, f0)
    eps0 = state.norms["f_c2"]
    if eps0 <= cfg.target_tol:
        history["steps"].append(_history_row(state, None))
        return state, history
    if eps0 >= 1.0:
        raise StepFailure("perturbation too large to schedule: measured "
                          "size %.3g >= 1" % eps0)
    sched = build_schedule(state.r, state.s, eps0, cfg.tau, n_max=cfg.n_max)
    history["schedule"] = [vars(row).copy() for row in sched.rows]
    if sched.truncation_reason:
        history["schedule_truncated"] = sched.truncation_reason
    for row in sched.rows:
        try:
            state_next, res = kam_step(state, row, witness, N0)
        except ConvergenceError as exc:
            history["failure"] = {"n": state.n, "reason": str(exc),
                                  "measures": getattr(exc, "measures", {})}
            return state, history
        try:
            conj = conjugacy_residual(N0, f0, state_next)
        except ConvergenceError as exc:
            history["failure"] = {
                "n": state_next.n,
                "reason": "conjugacy check failed: %s" % exc,
                "measures": res.measures}
            return state, history
        state = state_next
        state.norms["conjugacy_residual"] = conj
        hist_row = _history_row(state, res)
        history["steps"].append(hist_row)
        if not res.ok:
            history["failure"] = {
                "n": state.n,
                "reason": "postcondition targets missed: %s"
                          % "; ".join(res.measures["postcondition_misses"]),
                "measures": res.measures}
            return state, history
        if state.norms["f_c2"] <= cfg.target_tol:
            break
    return state, history


def _history_row(state, res):
    row = {"n": state.n, "r": state.r, "s": state.s,
           "eps_measured": state.norms.get("f_c2"),
           "alpha_norm": state.norms.get("alpha_c2"),
           "f_norm": state.norms.get("f_c2"),
           "conjugacy_residual": state.norms.get("conjugacy_residual")}
    if res is not None:
        row["measures"] = {k: (bool(v) if isinstance(v, (bool, np.bool_))
                               else int(v) if isinstance(v, (int, np.integer))
                               else float(v) if isinstance(v, (float, np.floating))
                               else v)
                           for k, v in res.measures.items()}
        row["step_ok"] = res.ok
    return row
