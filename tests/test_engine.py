import gzip
import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from kamtori.engine import (build_schedule, compute_zeta, extract_torus,
                            find_torus, find_vanishing_point, iterate,
                            kam_step, solve_cohomological, verify_invariance)
import kamtori.engine.driver as driver
import kamtori.symplectic as symplectic
from kamtori.engine.cohom import CohomologyError, coordinate, restrict_z0
from kamtori.engine.driver import IterateConfig, IterationState, c2_norm
from kamtori.normalform import (assemble_hamiltonian, const_matrix,
                                eval_phi_series, initial_tuple, phi_grid,
                                phi_grid_size)
from kamtori.errors import ConvergenceError, PreconditionError
from kamtori.series import (FTSeries, Grading, RealityError, average_q,
                            differentiate, evaluate, from_json_dict,
                            majorant_norm, multiply, taylor_split)
from kamtori.smalldiv import effective_diophantine_constant
from kamtori.symplectic import (DEFAULT_SYMP_TOL, GeneratingFunction,
                                GeneratorTooLargeError, SymplecticityError,
                                compose_maps, identity_map,
                                map_from_generator,
                                poisson_bracket, series_compose,
                                shifted_parametrization, sigma_cos,
                                vector_field)
import lie_oracle
import project_oracle
from conftest import GOLDEN, random_real_series
from identity_checks import check_alpha_gradient, check_beta_relation
from normalform_tools import tuple_to_json
from test_symplectic import (TAIL_WEIGHTS, assert_defects_match_oracle,
                             assert_mirror_matches_exp,
                             assert_residual_forms_no_loss,
                             assert_tail_matches_oracle)

EPS = 1e-4
DATA = pathlib.Path(__file__).parent / "data"


def assert_near(got, want, scale=None):
    """Every coefficient of got - want within 1e-14 of scale, by default
    want's largest coefficient."""
    if scale is None:
        scale = want.max_abs_coeff() if want.terms else 0.0
    gap = got - want
    assert (gap.max_abs_coeff() if gap.terms else 0.0) <= 1e-14 * scale


def small_grading():
    return Grading(d=1, l=1, K_q=6, K_phi=6, D=4)


def flagship_problem(K=16, D=4, eps=EPS):
    gr = Grading(d=1, l=1, K_q=K, K_phi=K, D=D)
    f0 = shifted_parametrization(sigma_cos((0, 1), eps), 1, 1, gr, 1.0, 1.0)
    N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
    return gr, N0, f0


def q_coupled_problem(eps=EPS):
    gr = small_grading()
    terms = (sigma_cos((0, 1), eps) + sigma_cos((1, 1), eps)
             + sigma_cos((1, 0), 0.5 * eps, powers=(1, 0)))
    f0 = shifted_parametrization(terms, 1, 1, gr, 1.0, 1.0)
    N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
    return gr, N0, f0


@pytest.fixture(scope="module")
def flagship_run():
    gr, N0, f0 = flagship_problem()
    state, hist = iterate(N0, f0, IterateConfig())
    return gr, N0, f0, state, hist


@pytest.fixture(scope="module")
def coupled_run():
    gr, N0, f0 = q_coupled_problem()
    state, hist = iterate(N0, f0, IterateConfig(target_tol=1e-13))
    return gr, N0, f0, state, hist


@pytest.fixture(scope="module")
def coupled_run_small():
    """The q-coupled problem at eps = 1e-5 (two rungs)."""
    gr, N0, f0 = q_coupled_problem(eps=1e-5)
    state, hist = iterate(N0, f0, IterateConfig(target_tol=1e-13))
    return gr, N0, f0, state, hist


class TestSchedule:
    def test_geometric_radii(self):
        sched = build_schedule(1.0, 1.0, 1e-4, 0.1)
        assert sched.rows[0].sigma == pytest.approx(1.0 / 40)
        assert sched.rows[1].r == pytest.approx(0.75)
        last = sched.rows[-1]
        assert last.r - 10 * last.sigma > 0.5
        assert last.s - last.sigma > 0.5

    def test_eps_power_law(self):
        sched = build_schedule(1.0, 1.0, 1e-4, 0.1)
        assert sched.rows[1].eps == pytest.approx(1e-6)
        assert sched.rows[2].eps == pytest.approx(1e-9)

    def test_delta_ratio_bounded(self):
        sched = build_schedule(1.0, 1.0, 1e-6, 0.2, n_max=6)
        for a, b in zip(sched.rows, sched.rows[1:]):
            assert b.delta <= 8.0 * a.delta + 1e-15

    def test_delta_ratio_formula_any_tau(self):
        # delta_{n+1}/delta_n = (sigma ratio / log ratio)^{4 tau} = 3^{-4 tau}
        for tau in (0.2, 1.0):
            eps0, sigma0 = 1e-6, 0.025
            L0 = abs(math.log(eps0))
            d0 = (sigma0 / L0) ** (4 * tau)
            d1 = (sigma0 / 2 / (1.5 * L0)) ** (4 * tau)
            assert d1 <= 8 * d0

    def test_glue_level_below_threshold(self):
        sched = build_schedule(1.0, 1.0, 1e-4, 0.1)
        for row in sched.rows:
            assert row.delta_plus < row.delta

    def test_unschedulable_rung_zero_is_a_step_failure(self):
        with pytest.raises(driver.StepFailure,
                           match="too large to schedule.*glue level"):
            build_schedule(2.0, 2.0, 1e-4, 2.0)

    def test_n_max_below_one_is_a_precondition(self):
        with pytest.raises(PreconditionError, match="n_max = 0"):
            build_schedule(1.0, 1.0, 1e-4, 0.1, n_max=0)

    def test_n_max_is_keyword_only(self):
        # a fifth positional argument is refused, not read as n_max
        with pytest.raises(TypeError):
            build_schedule(1.0, 1.0, 1e-4, 0.1, 8)


class TestSolveCohomological:
    def setup_method(self, method):
        self.gr = small_grading()
        self.N = initial_tuple(self.gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        self.wit = effective_diophantine_constant([GOLDEN], 0.1, 6)
        self.phix = [coordinate(self.gr, 1.0, 1.0, "x", 0)]

    def solve(self, f):
        return solve_cohomological(self.N, f, self.phix, self.wit,
                                   sigma=0.025, delta=0.1, delta_plus=0.03)

    def test_zero_input(self):
        sol = self.solve(FTSeries.zero(self.gr, 1, 1))
        assert all(a.is_zero() for a in sol.alpha)
        assert all(v.is_zero() for v in sol.v)
        assert sol.F.is_zero()
        assert majorant_norm(assemble_hamiltonian(sol.Nbar)) < 1e-20

    def test_pure_angle_function(self):
        # f = f(q) with zero mean: alpha = v = 0 and the generating function
        # closes after the p-chain A -> B_p = L1(-M d_q A) -> D_pp, with an
        # empty correction tuple
        f = FTSeries.cos_angle(self.gr, 1, 1, (0,), (2,), 3e-4)
        sol = self.solve(f)
        assert max(majorant_norm(a) for a in sol.alpha) < 1e-18
        assert max(majorant_norm(v) for v in sol.v) < 1e-18
        from kamtori.smalldiv import solve_L1
        sp = taylor_split(sol.F)
        A_direct = solve_L1(f, self.wit)
        assert majorant_norm(sp.a - A_direct) < 1e-16
        Bp_direct = solve_L1(differentiate(A_direct, ("q", 0)), self.wit)
        assert majorant_norm(sp.b_p[0] - Bp_direct) < 1e-14
        # the correction tuple is empty except the cubic leftover in h
        assert majorant_norm(sol.Nbar.c) < 1e-16
        assert majorant_norm(sol.Nbar.beta[0][0]) < 1e-16
        assert majorant_norm(sol.Nbar.Gamma[0][0]) < 1e-16
        assert majorant_norm(sol.Nbar.M[0][0]) < 1e-16
        assert majorant_norm(sol.Nbar.g) < 1e-14 * majorant_norm(f)
        assert all(sum(a) >= 3 for (_j, _k, a) in sol.Nbar.h.terms)
        assert sol.residual_plateau <= 1e-10 * majorant_norm(f)

    def test_residual_contract(self):
        f = shifted_parametrization(
            sigma_cos((0, 1), EPS) + sigma_cos((2, 1), 0.7 * EPS), 1, 1,
            self.gr, 1.0, 1.0)
        sol = self.solve(f)
        assert sol.residual_plateau <= 1e-8 * majorant_norm(f)
        assert sol.residual_tracker <= 1e-8 * majorant_norm(f)
        assert sol.max_condition < 1e8

    def test_single_mode_matches_dense_linearization(self):
        gr = Grading(d=1, l=1, K_q=2, K_phi=2, D=3)
        N = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        wit = effective_diophantine_constant([GOLDEN], 0.1, 2)
        phix = [coordinate(gr, 1.0, 1.0, "x", 0)]
        f = FTSeries(gr, 1, 1, {((0,), (1,), (1, 0, 0)): 0.5 * EPS,
                                ((0,), (-1,), (1, 0, 0)): 0.5 * EPS},
                     _raw=True)
        sol = solve_cohomological(N, f, phix, wit, sigma=0.025, delta=0.1,
                                  delta_plus=0.03)
        alpha_mine, v_mine, F_mine = sol.alpha, sol.v, sol.F
        # independent dense least-squares over the truncated basis
        Nred = assemble_hamiltonian(N)
        modes = [-2, -1, 0, 1, 2]
        z = gr.nz

        def ser(terms):
            return FTSeries(gr, 1, 1, terms, _raw=True)

        def key(k, ax=0, ap=0, ay=0):
            return ((0,), (k,), (ax, ap, ay))

        unknowns = []   # (label, series contribution to F, v-flag)
        unknowns.append(("alpha", None, None))
        unknowns.append(("v", None, None))
        for k in modes:
            if k:
                unknowns.append((("A", k), ser({key(k): 1.0}), None))
        for k in modes:
            unknowns.append((("Bx", k), ser({key(k, ax=1): 1.0}), None))
            unknowns.append((("By", k), ser({key(k, ay=1): 1.0}), None))
            if k:
                unknowns.append((("Bp", k), ser({key(k, ap=1): 1.0}), None))
            unknowns.append((("Dxx", k), ser({key(k, ax=2): 0.5}), None))
            unknowns.append((("Dyy", k), ser({key(k, ay=2): 0.5}), None))
            unknowns.append((("Dxy", k), ser({key(k, ax=1, ay=1): 1.0}), None))
            unknowns.append((("Dpx", k), ser({key(k, ax=1, ap=1): 1.0}), None))
            unknowns.append((("Dpy", k), ser({key(k, ap=1, ay=1): 1.0}), None))
            unknowns.append((("Dpp", k), ser({key(k, ap=2): 0.5}), None))
        for lab in ["cbar", "bbar", "Gbar", "Mbar"]:
            unknowns.append((lab, None, None))
        read_keys = []
        for k in modes:
            for (ax, ap, ay) in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                 (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 1),
                                 (1, 1, 0), (0, 1, 1)]:
                read_keys.append(key(k, ax, ap, ay))

        def residual_column(label, Fc):
            # contribution of one unit unknown to the defining equation
            if label == "alpha":
                contrib = -multiply(FTSeries.constant(gr, 1, 1, 1.0), phix[0])
            elif label == "v":
                contrib = -differentiate(Nred, ("p", 0))
            elif label == "cbar":
                contrib = -FTSeries.constant(gr, 1, 1, 1.0)
            elif label == "bbar":
                contrib = -ser({key(0, ax=2): 0.5})
            elif label == "Gbar":
                contrib = -ser({key(0, ax=1, ap=1): 1.0})
            elif label == "Mbar":
                contrib = -ser({key(0, ap=2): 0.5})
            else:
                contrib = poisson_bracket(Nred, Fc)
            tracker = 0.0
            if label == "v":
                tracker = -evaluate(average_q(
                    restrict_z0(differentiate(phix[0], ("p", 0)))), q=[0.0])
            elif not isinstance(label, str):
                br = poisson_bracket(phix[0], Fc)
                tracker_ser = average_q(restrict_z0(br))
                tracker = tracker_ser.terms.get(gr.zero_key(), 0.0)
            col = np.array([contrib.terms.get(kk, 0.0) for kk in read_keys]
                           + [tracker])
            return col

        A = np.stack([residual_column(lab, Fc)
                      for (lab, Fc, _) in unknowns], axis=-1)
        rhs = -np.array([f.terms.get(kk, 0.0) for kk in read_keys] + [0.0])
        dense, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        names = [lab for (lab, _, _) in unknowns]
        a_dense = dense[names.index("alpha")]
        v_dense = dense[names.index("v")]
        # check the dense system was consistent
        assert np.linalg.norm(A @ dense - rhs) < 1e-12 * max(
            1.0, np.linalg.norm(rhs))
        a0 = eval_phi_series(alpha_mine[0], np.zeros((1, 1)))[0].real
        v0 = eval_phi_series(v_mine[0], np.zeros((1, 1)))[0].real
        assert abs(a0 - a_dense.real) <= 1e-9 * max(abs(a_dense), EPS)
        assert abs(v0 - v_dense.real) <= 1e-9 * max(abs(v_dense), EPS)
        # and the generating functions agree where gauge-free (k != 0 modes)
        for k in [-2, -1, 1, 2]:
            got = F_mine.terms.get(key(k, ax=1), 0.0)
            want = dense[names.index(("Bx", k))]
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestKamStep:
    def run_step(self, N0, f0, gr):
        wit = effective_diophantine_constant([GOLDEN], 0.1, gr.K_q)
        sched = build_schedule(1.0, 1.0, max(c2_norm(f0), 1e-8), 0.1)
        return kam_step(IterationState.start(N0, f0), sched.rows[0], wit, N0)

    def test_zero_perturbation_trivial(self):
        gr = small_grading()
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        st, res = self.run_step(N0, FTSeries.zero(gr, 1, 1), gr)
        assert res.Psi.is_identity()
        assert st.f.is_zero()
        assert all(a.is_zero() for a in res.alpha_step)

    def test_flagship_contracts_by_ten(self):
        gr, N0, f0 = flagship_problem(K=8)
        before = c2_norm(f0)
        st, res = self.run_step(N0, f0, gr)
        assert res.ok
        assert c2_norm(st.f) <= before / 10.0

    def test_next_rung_reads_the_sizes_measured_here(self, monkeypatch):
        # a rung's state carries f_c2 and tracker_mean_c2 of its f and
        # phi_x; the next rung reports them without measuring them again
        gr, N0, f0 = flagship_problem(K=8)
        wit = effective_diophantine_constant([GOLDEN], 0.1, gr.K_q)
        sched = build_schedule(1.0, 1.0, c2_norm(f0), 0.1)
        st1, res1 = self.run_step(N0, f0, gr)
        assert st1.norms["f_c2"] == res1.measures["f_plus_c2"] \
            == c2_norm(st1.f)
        assert st1.norms["tracker_mean_c2"] \
            == res1.measures["tracker_next_mean_c2"] \
            == driver.tracker_mean_norm(st1.phi_x(), gr)
        seen = {"c2_norm": [], "tracker_mean_norm": []}
        for name, got in seen.items():
            def spy(*args, _real=getattr(driver, name), _got=got):
                _got.append(args[0])
                return _real(*args)
            monkeypatch.setattr(driver, name, spy)
        st2, res2 = kam_step(st1, sched.rows[1], wit, N0)
        assert res2.measures["f_c2"] == st1.norms["f_c2"]
        assert res2.measures["tracker_mean_c2"] == st1.norms["tracker_mean_c2"]
        assert not any(f is st1.f for f in seen["c2_norm"])
        assert len(seen["tracker_mean_norm"]) == 1     # of st2's phi_x
        assert st2.norms["tracker_mean_c2"] \
            == res2.measures["tracker_next_mean_c2"]

    def test_cubic_jet_absorbed_into_h(self):
        gr = small_grading()
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        f = FTSeries(gr, 1, 1, {
            ((0,), (0,), (3, 0, 0)): 1e-4,
            ((1,), (0,), (2, 0, 1)): 0.5e-4,
            ((-1,), (0,), (2, 0, 1)): 0.5e-4,
            ((0,), (1,), (0, 2, 2)): 0.5e-4,
            ((0,), (-1,), (0, 2, 2)): 0.5e-4}, _raw=True)
        st, res = self.run_step(N0, f, gr)
        assert all(a.is_zero() for a in res.alpha_step)
        assert res.Psi.is_identity()
        assert st.f.is_zero()
        absorbed = st.N.h - FTSeries(gr, st.r, st.s, f.terms, _raw=True)
        assert absorbed.max_abs_coeff() < 1e-18


class TestPostconditionMisses:
    MET = {"f_plus_c2": 1e-9, "tracker_next_mean_c2": 2e-9,
           "f_plus_target": 1e-6, "cohom_residual_ok": True,
           "cohom_residual_plateau": 1e-20, "cohom_residual_budget": 1e-13}

    def test_met(self):
        assert driver.postcondition_misses(self.MET) == []

    def test_each_miss_named_with_value_and_bound(self):
        m = dict(self.MET, f_plus_c2=3e-6, tracker_next_mean_c2=float("nan"),
                 cohom_residual_ok=False, cohom_residual_plateau=3.28e-14,
                 cohom_residual_budget=1.63e-14)
        assert driver.postcondition_misses(m) == [
            "f_plus_c2: 3e-06 > target 1e-06",
            "tracker_next_mean_c2: nan > target 1e-06",
            "cohom_residual_ok: plateau 3.28e-14 > budget 1.63e-14"]


class TestIterate:
    def test_zero_perturbation_stops_immediately(self):
        gr = small_grading()
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        state, hist = iterate(N0, FTSeries.zero(gr, 1, 1), IterateConfig())
        assert state.n == 0 and state.Phi.is_identity()

    def test_flagship_superlinear(self, flagship_run):
        gr, N0, f0, state, hist = flagship_run
        assert hist["failure"] is None
        norms = [c2_norm(f0)] + [row["f_norm"] for row in hist["steps"]]
        assert norms[1] <= norms[0] ** 1.4

    def test_equal_derivative_violation_rejected(self):
        gr = small_grading()
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        bad = FTSeries(gr, 1, 1, {((0,), (0,), (1, 0, 0)): EPS}, _raw=True)
        with pytest.raises(PreconditionError, match="averaged-derivative"):
            iterate(N0, bad, IterateConfig())

    def test_conjugacy_check_error_recorded_as_failure(self, monkeypatch):
        def too_large(*args):
            raise GeneratorTooLargeError("angle displacement too large")
        monkeypatch.setattr(driver, "conjugacy_residual", too_large)
        gr, N0, f0 = flagship_problem(K=8)
        state, hist = iterate(N0, f0, IterateConfig())
        assert hist["failure"]["n"] == 1
        assert "conjugacy check failed" in hist["failure"]["reason"]
        assert state.n == 0

    def test_conjugacy_check_bug_propagates(self, monkeypatch):
        def broken(*args):
            raise KeyError("not a numerical failure")
        monkeypatch.setattr(driver, "conjugacy_residual", broken)
        gr, N0, f0 = flagship_problem(K=8)
        with pytest.raises(KeyError):
            iterate(N0, f0, IterateConfig())

    @pytest.mark.slow
    def test_coupled_run_converges(self, coupled_run):
        gr, N0, f0, state, hist = coupled_run
        assert hist["failure"] is None
        assert state.norms["f_c2"] <= 1e-13

    @pytest.mark.slow
    def test_contraction_measured(self, coupled_run):
        gr, N0, f0, state, hist = coupled_run
        norms = [c2_norm(f0)] + [row["f_norm"] for row in hist["steps"]]
        pairs = [(a, b) for a, b in zip(norms, norms[1:]) if a < 1e-3]
        for a, b in pairs:
            if b == 0.0:
                continue
            assert math.log(b) / math.log(a) >= 1.4

    @pytest.mark.slow
    def test_conjugacy_identity_within_budget(self, coupled_run):
        gr, N0, f0, state, hist = coupled_run
        for row in hist["steps"]:
            resid = row["conjugacy_residual"]
            m = row["measures"]
            budget = (m["lie_remainder"] + m["cohom_projection_defect"]
                      + m["cohom_residual_plateau"] + 1e-10 * c2_norm(f0))
            assert resid <= 10 * budget + 1e-12

    @pytest.mark.slow
    def test_counter_term_telescoping(self, coupled_run):
        gr, N0, f0, state, hist = coupled_run
        for row in hist["steps"]:
            m = row["measures"]
            assert m["alpha_step_c2"] <= m["sqrt_eps"]


@pytest.fixture(scope="module")
def coupled_rung_one():
    """Rung 1 of the eps = 1e-4 q-coupled problem: (N0, the witness, the
    schedule's second row, the state after rung 1)."""
    gr, N0, f0 = q_coupled_problem()
    wit = effective_diophantine_constant([GOLDEN], 0.1, gr.K_q)
    cfg = IterateConfig()
    sched = build_schedule(1.0, 1.0, c2_norm(f0), cfg.tau, n_max=cfg.n_max)
    st1, _ = kam_step(IterationState.start(N0, f0), sched.rows[0], wit, N0)
    return N0, wit, sched.rows[1], st1


class TestComposeByLieTransport:
    @pytest.mark.slow
    def test_rung_two_matches_substitution(self, coupled_rung_one):
        # rung 2 of the q-coupled run is its first composition of two maps
        # that are not the identity; the oracle is the Taylor substitution
        # Psi.U + U o Psi of the same two maps
        N0, wit, row, st1 = coupled_rung_one
        st2, res2 = kam_step(st1, row, wit, N0)
        Phi1 = st1.Phi.with_radii(st2.r, st2.s)
        Psi2 = res2.Psi
        assert not Phi1.is_identity() and not Psi2.is_identity()
        for got, u, psi_u in zip(st2.Phi.components(), Phi1.components(),
                                 Psi2.components()):
            want = psi_u + series_compose(u, Psi2)
            assert not want.is_zero()
            dev = (got - want).max_abs_coeff() / want.max_abs_coeff()
            assert dev <= 1e-14


class _Captured(Exception):
    pass


@pytest.fixture(scope="module")
def coupled_rung_two_inputs(coupled_rung_one):
    """The arguments kam_step passes solve_cohomological on the second rung
    of the eps = 1e-4 q-coupled problem, after rung 1."""
    N0, wit, row, st1 = coupled_rung_one

    def capture(*args, **kwargs):
        raise _Captured(args, kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "solve_cohomological", capture)
        with pytest.raises(_Captured) as got:
            kam_step(st1, row, wit, N0)
    return got.value.args


@pytest.fixture(scope="module")
def coupled_rung_two_flow(coupled_rung_two_inputs):
    """The solve and the flow of kam_step on that rung: (solution, Psi)."""
    args, kwargs = coupled_rung_two_inputs
    sol = solve_cohomological(*args, **kwargs)
    return sol, map_from_generator(GeneratingFunction(sol.F, sol.v))


def l2_nonzero_beta_problem():
    """The l = 2 problem with a constant symmetric beta of distinct
    eigenvalues inside the solvable sublevel region."""
    gr = Grading(d=1, l=2, K_q=4, K_phi=4, D=4)
    N = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
    N.beta = const_matrix(gr, 1.0, 1.0,
                          np.array([[0.02, 0.01], [0.01, -0.03]]))
    wit = effective_diophantine_constant([GOLDEN], 0.1, 4)
    phix = [coordinate(gr, 1.0, 1.0, "x", i) for i in range(2)]
    terms = (sigma_cos((0, 1, 0), EPS) + sigma_cos((1, 0, 1), EPS)
             + sigma_cos((2, 1, -1), 0.3 * EPS, powers=(1, 0, 0)))
    f = shifted_parametrization(terms, 1, 2, gr, 1.0, 1.0)
    return N, f, phix, wit


def l2_varying_tuple_problem():
    """l = 2 with a parameter-dependent beta, Gamma and M, a cubic h and a
    tracker that is not the bare coordinate: every block of the solve sees
    data of order one in the parameter."""
    gr = Grading(d=1, l=2, K_q=3, K_phi=2, D=3)
    cos = lambda j, k, amp: FTSeries.cos_angle(gr, 1.0, 1.0, j, k, amp)
    const = lambda v: FTSeries.constant(gr, 1.0, 1.0, v)

    def mono(*pos):
        alpha = [0] * gr.nz
        for p in pos:
            alpha[p] += 1
        return FTSeries.term(gr, 1.0, 1.0, (0, 0), (0,), tuple(alpha), 1.0)
    x0, x1, p0, y0, y1 = range(5)
    h = (multiply(cos((1, 0), (1,), 0.02), mono(x0, p0, y1))
         + mono(p0, p0, p0).scale(0.05))
    N = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]], h=h)
    b01 = const(0.01) + cos((1, 1), (0,), 0.005)
    N.beta = [[const(0.02) + cos((1, 0), (0,), 0.01), b01],
              [b01.copy(), const(-0.03) + cos((0, 1), (0,), 0.01)]]
    N.Gamma = [[cos((1, 0), (0,), 0.02)],
               [const(0.01) + cos((0, 1), (0,), 0.01)]]
    N.M = [[const(-1.0) + cos((1, -1), (0,), 0.05)]]
    wit = effective_diophantine_constant([GOLDEN], 0.1, 3)
    phix = [coordinate(gr, 1.0, 1.0, "x", 0) + cos((1, 0), (1,), 1e-3)
            + multiply(cos((0, 0), (1,), 2e-3), mono(y0)),
            coordinate(gr, 1.0, 1.0, "x", 1) + cos((0, 1), (2,), 1e-3)
            + multiply(cos((1, 0), (1,), 1e-3), mono(x0))]
    terms = (sigma_cos((0, 1, 0), EPS) + sigma_cos((1, 0, 1), EPS)
             + sigma_cos((1, 1, 1), 0.5 * EPS, powers=(0, 1, 0)))
    f = shifted_parametrization(terms, 1, 2, gr, 1.0, 1.0)
    return N, f, phix, wit


class TestGridSolveMatchesPointwise:
    """The grid solve against the outputs of the construction run one grid
    point at a time, as it stood at commit 9373ffe: tests/data/cohom_case_*
    hold alpha, v and F (to_json_dict), Nbar (tuple_to_json) and the
    diagnostics, gzipped.  Series must agree to 1e-14 of their largest
    coefficient, the diagnostics to 1e-12."""

    def check(self, sol, f, name):
        with gzip.open(DATA / name, "rt") as fh:
            want = json.load(fh)
        f_scale = f.max_abs_coeff()

        close = lambda got, ref, scale=None: assert_near(
            got, from_json_dict(ref), scale)
        for key in ("alpha", "v"):
            for got, ref in zip(getattr(sol, key), want[key]):
                close(got, ref)
        close(sol.F, want["F"])
        nbar = tuple_to_json(sol.Nbar)
        for key in ("c", "h"):
            close(getattr(sol.Nbar, key), want["Nbar"][key])
        # the defect slot is what is left of an exact cancellation (its
        # largest coefficient is at the rounding level of f), so its scale is
        # the equation's: the largest coefficient of f
        close(sol.Nbar.g, want["Nbar"]["g"], f_scale)
        for key in ("beta", "Gamma", "M", "Q"):
            for row, ref_row in zip(getattr(sol.Nbar, key), want["Nbar"][key]):
                for got, ref in zip(row, ref_row):
                    close(got, ref)
        assert nbar["w"] == want["Nbar"]["w"]
        diag = want["diagnostics"]
        assert sol.max_condition == pytest.approx(diag["max_condition"],
                                                  rel=1e-12)
        # the other diagnostics are rounding-level sizes of an equation
        # whose scale is f
        for key in ("zero_mode_obstruction", "projection_defect",
                    "residual_plateau", "residual_tracker"):
            assert abs(getattr(sol, key) - diag[key]) \
                <= 1e-12 * max(abs(diag[key]), f_scale)

    def test_rung_two_of_coupled_run(self, coupled_rung_two_inputs):
        # the second rung's solve of the eps = 1e-4 q-coupled problem
        args, kwargs = coupled_rung_two_inputs
        sol = solve_cohomological(*args, **kwargs)
        self.check(sol, args[1], "cohom_case_a.json.gz")

    def test_l2_nonzero_beta(self):
        N, f, phix, wit = l2_nonzero_beta_problem()
        sol = solve_cohomological(N, f, phix, wit, sigma=0.025, delta=0.1,
                                  delta_plus=0.03, grid_size=16)
        self.check(sol, f, "cohom_case_b.json.gz")

    def test_l2_varying_tuple(self):
        N, f, phix, wit = l2_varying_tuple_problem()
        sol = solve_cohomological(N, f, phix, wit, sigma=0.025, delta=0.1,
                                  delta_plus=0.03, grid_size=16)
        self.check(sol, f, "cohom_case_c.json.gz")

    def test_asymmetric_beta_names_grid_point(self):
        N, f, phix, wit = l2_nonzero_beta_problem()
        gr = f.grading
        N.beta[0][1] = N.beta[0][1] + FTSeries.cos_angle(
            gr, 1.0, 1.0, (1, 0), (0,), 1e-6)
        with pytest.raises(CohomologyError, match="phi="):
            solve_cohomological(N, f, phix, wit, sigma=0.025, delta=0.1,
                                delta_plus=0.03, grid_size=16)


class TestRungFailureWrappers:
    """A numerical failure in any of a rung's five phases ends the run with
    "<phase> failed: <failure>" and the measures taken so far; any other
    exception is a bug and propagates.  On the eps = 1e-5 q-coupled problem,
    rung 2 is the first with an N.g to transport."""

    # the function each phase calls: (the rung it fails on, a measure taken
    # just before the phase)
    PHASES = {"solve_cohomological": (0, "K_eff"),
              "map_from_generator": (0, "cohom_residual_ok"),
              "lie_tail_integral": (0, "symp_residual"),
              "lie_transform": (1, "lie_remainder"),
              "compose_maps": (0, "lie_remainder")}

    @pytest.mark.parametrize("target, numerical, reason", [
        ("solve_cohomological", CohomologyError("ill-conditioned"),
         "linearized conjugacy solve failed"),
        ("map_from_generator", SymplecticityError("bracket residual"),
         "generator flow failed"),
        ("lie_tail_integral", GeneratorTooLargeError("not converged"),
         "error-term transport failed"),
        ("solve_cohomological", np.linalg.LinAlgError("Singular matrix"),
         "linearized conjugacy solve failed"),
        ("lie_transform", GeneratorTooLargeError("not converged"),
         "normal-form transport failed"),
        ("compose_maps", GeneratorTooLargeError("angle displacement"),
         "map composition failed")])
    def test_numerical_failure_recorded(self, monkeypatch, target, numerical,
                                        reason):
        def fails(*args, **kwargs):
            raise numerical
        monkeypatch.setattr(driver, target, fails)
        gr, N0, f0 = q_coupled_problem(eps=1e-5)
        state, hist = iterate(N0, f0, IterateConfig())
        n, measured = self.PHASES[target]
        assert state.n == hist["failure"]["n"] == n
        assert hist["failure"]["reason"] == "%s: %s" % (reason, numerical)
        assert measured in hist["failure"]["measures"]

    @pytest.mark.parametrize("target", list(PHASES))
    def test_bug_propagates(self, monkeypatch, target):
        def broken(*args, **kwargs):
            raise TypeError("not a numerical failure")
        monkeypatch.setattr(driver, target, broken)
        gr, N0, f0 = q_coupled_problem(eps=1e-5)
        with pytest.raises(TypeError, match="not a numerical failure"):
            iterate(N0, f0, IterateConfig())

    def test_failure_chains_its_cause(self):
        cause, measures = GeneratorTooLargeError("too far"), {"K_eff": 6}
        with pytest.raises(driver.StepFailure,
                           match="^map composition failed: too far$") as got:
            with driver._phase("map composition", measures):
                raise cause
        assert got.value.__cause__ is cause and got.value.measures is measures


class TestZeta:
    def test_identity_map_gives_averaged_section(self, flagship_run):
        gr, N0, f0, state, hist = flagship_run
        st0 = IterationState.start(N0, f0)
        H0 = assemble_hamiltonian(N0) + f0
        zeta = compute_zeta(st0, H0)
        expect = average_q(restrict_z0(f0))
        assert majorant_norm(zeta - expect) < 1e-15

    def test_cosine_shift_profile(self, flagship_run):
        gr, N0, f0, state, hist = flagship_run
        H0 = assemble_hamiltonian(N0) + f0
        zeta = compute_zeta(state, H0)
        assert zeta.coeff((1,), (0,), (0, 0, 0)) == pytest.approx(EPS / 2)

    def test_zero_perturbation_zero_zeta(self):
        gr = small_grading()
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        st0 = IterationState.start(N0, FTSeries.zero(gr, 1, 1))
        zeta = compute_zeta(st0, assemble_hamiltonian(N0))
        assert majorant_norm(zeta) < 1e-18


class TestRestrictZ0:
    def test_keeps_the_truncation_loss(self, rng):
        gr = small_grading()
        f = random_real_series(gr, 1, 1, rng, max_deg=2)
        f.trunc_loss = 4.2e-14
        z0 = restrict_z0(f)
        assert z0.trunc_loss == f.trunc_loss
        assert z0.terms == {key: c for key, c in f.terms.items()
                            if not any(key[2])}


class TestVanishingPoint:
    def mk_zeta(self, gr, terms):
        return FTSeries(gr, 1, 1, terms, _raw=True)

    def find(self, zeta):
        """find_vanishing_point as find_torus calls it, with alpha = grad
        zeta and the starting tuple's beta = 0."""
        gr = zeta.grading
        alpha = [differentiate(zeta, ("phi", i)) for i in range(gr.l)]
        beta = const_matrix(gr, zeta.r, zeta.s, np.zeros((gr.l, gr.l)))
        return find_vanishing_point(zeta, alpha, beta)

    def test_cosine_max_at_zero(self):
        gr = small_grading()
        zeta = self.mk_zeta(gr, {((1,), (0,), (0, 0, 0)): 0.5 * EPS,
                                 ((-1,), (0,), (0, 0, 0)): 0.5 * EPS})
        phi0, info = self.find(zeta)
        assert min(phi0[0], 2 * math.pi - phi0[0]) < 1e-9
        assert info["grad_norm"] <= 1e-12
        assert abs(info["alpha_at_phi0"][0]) <= 1e-12
        assert info["nu_max_at_phi0"] == 0.0

    def test_constant_returns_origin(self):
        gr = small_grading()
        zeta = self.mk_zeta(gr, {((0,), (0,), (0, 0, 0)): 1.0})
        phi0, info = self.find(zeta)
        assert phi0[0] == 0.0

    def test_tie_breaks_lexicographic(self):
        gr = small_grading()
        # cos(2 phi): equal maxima at 0 and pi; the grid tie-break picks 0
        zeta = self.mk_zeta(gr, {((2,), (0,), (0, 0, 0)): 0.5,
                                 ((-2,), (0,), (0, 0, 0)): 0.5})
        phi0, info = self.find(zeta)
        assert phi0[0] == pytest.approx(0.0, abs=1e-12)

    def test_argmax_invariance(self):
        gr = small_grading()
        base = {((1,), (0,), (0, 0, 0)): 0.3 + 0.2j,
                ((-1,), (0,), (0, 0, 0)): 0.3 - 0.2j,
                ((2,), (0,), (0, 0, 0)): 0.05,
                ((-2,), (0,), (0, 0, 0)): 0.05}
        z1 = self.mk_zeta(gr, dict(base))
        phi_a, _ = self.find(z1)
        shifted = dict(base)
        shifted[((0,), (0,), (0, 0, 0))] = 7.0
        z2 = self.mk_zeta(gr, shifted)
        phi_b, _ = self.find(z2)
        z3 = z1.scale(3.0)
        phi_c, _ = self.find(z3)
        assert phi_a[0] == pytest.approx(phi_b[0], abs=1e-10)
        assert phi_a[0] == pytest.approx(phi_c[0], abs=1e-10)

    @pytest.mark.parametrize("l", [1, 2])
    def test_searches_the_zeta_csv_grid(self, l):
        # K_phi = 16, the CLI default: phi_grid_size is 65, not 4 K_phi
        gr = Grading(d=1, l=l, K_q=1, K_phi=16, D=3)
        zeta = FTSeries.cos_angle(gr, 1, 1, (1,) + (0,) * (l - 1), (0,))
        _phi0, info = self.find(zeta)
        assert len(info["zeta_values"]) == phi_grid_size(16) ** l == 65 ** l
        # the grid the values are on comes with them (zeta.csv's rows)
        assert np.array_equal(info["zeta_grid"], phi_grid(l, 65))

    @pytest.mark.parametrize("scale, shift", [(1e5, 0.41875),
                                              (1e6, 0.66458), (1e7, 0.05)])
    def test_stops_at_the_floor_of_a_large_zeta(self, scale, shift):
        # scale cos(phi - shift): the gradient's rounding floor lies above
        # the 1e-12 stop, so Newton reaches a point where no halved step
        # lowers |g|; the search stops there instead of stepping 1e-3 away
        # (and, at 1e6, coming back to within 3e-10 at |g| = 3e-4)
        gr = Grading(d=1, l=1, K_q=1, K_phi=4, D=3)
        a, c = (0,) * gr.nz, 0.5 * scale * complex(math.cos(shift),
                                                   -math.sin(shift))
        zeta = self.mk_zeta(gr, {((1,), (0,), a): c,
                                 ((-1,), (0,), a): c.conjugate()})
        phi0, info = self.find(zeta)
        assert abs(phi0[0] - shift) <= 1e-9
        assert info["grad_norm"] <= 1e-15 * scale


class TestTorus:
    def test_trivial_embedding_for_zero_perturbation(self):
        gr = small_grading()
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        st0 = IterationState.start(N0, FTSeries.zero(gr, 1, 1))
        tor = extract_torus(st0, [0.0])
        assert tor.distance_to_trivial == 0.0
        H = assemble_hamiltonian(N0)
        assert verify_invariance(H, tor.embedding, [GOLDEN], 32) < 1e-14

    def test_reality_loss_is_a_convergence_failure(self):
        # a q-displacement with the mode k = 1 and not its mirror k = -1
        gr = small_grading()
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        Phi = identity_map(gr, 1, 1)
        Phi.U[0] = FTSeries.term(gr, 1.0, 1.0, (0,), (1,), (0,) * gr.nz,
                                 1e-3)
        st0 = replace(IterationState.start(N0, FTSeries.zero(gr, 1, 1)),
                      Phi=Phi)
        with pytest.raises(ConvergenceError,
                           match="embedding component lost reality "
                                 r"symmetry \(defect 0\.001\)"):
            extract_torus(st0, [0.0])

    def test_flagship_exact_invariance(self, flagship_run):
        gr, N0, f0, state, hist = flagship_run
        _phi0, _info, tor, resid = find_torus(state,
                                              assemble_hamiltonian(N0) + f0)
        assert resid <= 1e-12
        for comps in tor.embedding.values():
            for u in comps:
                assert u.reality_defect() < 1e-12

    def test_perturbed_embedding_linear_residual_growth(self):
        gr = small_grading()
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        H = assemble_hamiltonian(N0)
        vals = []
        for eta in (1e-6, 2e-6):
            emb = {"uq": [FTSeries.zero(gr, 1, 1)],
                   "ux": [FTSeries.zero(gr, 1, 1)],
                   "up": [FTSeries.zero(gr, 1, 1)],
                   "uy": [FTSeries.constant(gr, 1, 1, eta)]}
            vals.append(verify_invariance(H, emb, [GOLDEN], 16))
        assert vals[1] / vals[0] == pytest.approx(2.0, rel=1e-6)


class TestCounterTermDiagnostics:
    def test_alpha_equals_zeta_gradient_at_first_order(self, flagship_run):
        gr, N0, f0, state, hist = flagship_run
        zeta1 = compute_zeta(IterationState.start(N0, f0),
                             assemble_hamiltonian(N0) + f0)
        diag = check_alpha_gradient(state, zeta1, N0.beta, 1.0)
        assert diag.alpha_grad_gap <= 1e-10
        assert diag.alpha_hess_gap <= 1e-10

    def test_zero_perturbation_all_gaps_zero(self):
        gr = small_grading()
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        st0 = IterationState.start(N0, FTSeries.zero(gr, 1, 1))
        zeta = compute_zeta(st0, assemble_hamiltonian(N0))
        diag = check_alpha_gradient(st0, zeta, N0.beta, 1.0)
        assert diag.alpha_grad_gap == 0.0
        diag2 = check_beta_relation(st0, N0.beta, 1.0)
        assert diag2.beta_relation_gap == 0.0
        assert diag2.L_dev == 0.0 and diag2.R_dev == 0.0

    def test_beta_relation_first_order(self, flagship_run):
        gr, N0, f0, state, hist = flagship_run
        diag = check_beta_relation(state, N0.beta, 1.0)
        assert diag.beta_relation_gap <= 1e-8
        assert diag.L_dev <= 1e-8 and diag.R_dev <= 1e-8

    @pytest.mark.slow
    def test_beta_relation_after_coupled_run(self, coupled_run):
        gr, N0, f0, state, hist = coupled_run
        diag = check_beta_relation(state, N0.beta, 1.0)
        # the relation holds up to the final error size with a moderate factor
        assert diag.beta_relation_gap <= 1e2 * EPS ** 1.5
        assert diag.L_dev <= 1e-2 and diag.R_dev <= 1e-2


@pytest.mark.slow
class TestToleranceMonotonicity:
    def test_residual_improves_with_tighter_target(self):
        gr, N0, f0 = q_coupled_problem(eps=1e-5)
        H0 = assemble_hamiltonian(N0) + f0
        residuals = []
        for target in (3e-7, 1e-13):
            state, hist = iterate(N0, f0, IterateConfig(target_tol=target))
            residuals.append(find_torus(state, H0, 16)[3])
        assert residuals[1] <= residuals[0]


class TestGapScalesWithErrorSize:
    def test_two_run_constant(self):
        # gap of the counter-term/gradient relation scales with the step
        # error size: gap <= C eps_n with one constant across two
        # perturbation amplitudes (generic-step check)
        consts = []
        for eps in (1e-4, 1e-5):
            gr, N0, f0 = q_coupled_problem(eps=eps)
            state, hist = iterate(N0, f0,
                                  IterateConfig(n_max=1, target_tol=1e-30))
            H0 = assemble_hamiltonian(N0) + f0
            zeta = compute_zeta(state, H0)
            diag = check_alpha_gradient(state, zeta, N0.beta, 1.0)
            eps_n = hist["steps"][-1]["f_norm"]
            assert diag.alpha_grad_gap <= eps_n
            consts.append(diag.alpha_grad_gap / eps_n)
        hi, lo = max(consts), min(consts)
        assert hi / max(lo, 1e-300) < 50.0


class TestTwoNormalDirections:
    def test_cohomological_residual_l2(self):
        # two collapsed directions: exercises the coupled vector/matrix
        # stages at l = 2, including the symmetrized quadratic solve
        gr = Grading(d=1, l=2, K_q=4, K_phi=4, D=4)
        N = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        wit = effective_diophantine_constant([GOLDEN], 0.1, 4)
        phix = [coordinate(gr, 1.0, 1.0, "x", i) for i in range(2)]
        terms = (sigma_cos((0, 1, 0), EPS) + sigma_cos((1, 0, 1), EPS)
                 + sigma_cos((1, 1, 1), 0.5 * EPS))
        f = shifted_parametrization(terms, 1, 2, gr, 1.0, 1.0)
        sol = solve_cohomological(N, f, phix, wit, sigma=0.025, delta=0.1,
                                  delta_plus=0.03)
        assert sol.residual_plateau <= 1e-8 * majorant_norm(f)
        assert sol.residual_tracker <= 1e-8 * majorant_norm(f)
        assert sol.zero_mode_obstruction <= 1e-12 * majorant_norm(f)

    def test_cohomological_residual_l2_nonzero_beta(self):
        N, f, phix, wit = l2_nonzero_beta_problem()
        sol = solve_cohomological(N, f, phix, wit, sigma=0.025, delta=0.1,
                                  delta_plus=0.03)
        assert sol.residual_plateau <= 1e-8 * majorant_norm(f)


@pytest.mark.slow
class TestTwoResonanceRun:
    """The l = 2 problem of test_cohomological_residual_l2 at eps = 1e-5
    through iterate, zeta, phi0, extraction and verification.  Its rungs are
    pinned to the values of the 64 x 64 collocation grid (a 32 x 32 grid
    moves the second f_norm by 0.27%), and the torus is checked with the
    benchmark's independent evaluator (bench/checks.py)."""

    def test_run(self):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "bench_checks", pathlib.Path(__file__).parents[1] / "bench"
            / "checks.py")
        ck = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ck)
        eps = 1e-5
        gr = Grading(d=1, l=2, K_q=4, K_phi=4, D=4)
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        terms = (sigma_cos((0, 1, 0), eps) + sigma_cos((1, 0, 1), eps)
                 + sigma_cos((1, 1, 1), 0.5 * eps))
        f0 = shifted_parametrization(terms, 1, 2, gr, 1.0, 1.0)
        state, hist = iterate(N0, f0, IterateConfig(target_tol=1e-13))
        assert hist["failure"] is None
        assert [row["n"] for row in hist["steps"]] == [1, 2]
        for row, want in zip(hist["steps"], (2.2865581447513403e-05,
                                             1.2494723208158026e-15)):
            assert row["step_ok"]
            assert row["f_norm"] == pytest.approx(want, rel=1e-12, abs=0.0)
        phi0, _info, tor, residual = find_torus(
            state, assemble_hamiltonian(N0) + f0)
        assert list(phi0) == [0.0, 0.0]
        assert residual <= ck.CRITERION_1_GATE
        H = ck.model_hamiltonian(2, 1, [GOLDEN], [[-1.0]],
                                 ck.Series.from_terms(2, 1, f0.terms))
        emb = {key: [ck.Series.from_terms(2, 1, u.terms) for u in us]
               for key, us in tor.embedding.items()}
        points = ck.check_points(np.random.default_rng([101, 1]), 64, 1)
        for check in ck.invariance_checks("torus", H, phi0, emb, [GOLDEN],
                                          points, ck.CRITERION_1_GATE):
            assert check.ok, check


class TestUncoveredSublevelRegion:
    """The solve needs nu_max(beta) < t1 + a = 2.25 delta_plus on every
    collocation point; any other beta is refused with one CohomologyError
    that names the first uncovered point, before any per-point work."""

    @staticmethod
    def problem(l, shift):
        """beta + shift + 0.06 cos(phi_1) in beta's first entry: at l = 1
        the flagship tuple (beta = 0), at l = 2 l2_nonzero_beta_problem."""
        if l == 1:
            gr = small_grading()
            N = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
            wit = effective_diophantine_constant([GOLDEN], 0.1, gr.K_q)
            phix = [coordinate(gr, 1.0, 1.0, "x", 0)]
            f = shifted_parametrization(sigma_cos((0, 1), EPS), 1, 1, gr,
                                        1.0, 1.0)
        else:
            N, f, phix, wit = l2_nonzero_beta_problem()
            gr = f.grading
        N.beta[0][0] = N.beta[0][0] + shift + FTSeries.cos_angle(
            gr, 1.0, 1.0, (1,) + (0,) * (l - 1), (0,), 0.06)
        return N, f, phix, wit

    @staticmethod
    def nu_max(N, pts):
        """nu_max(beta) at each point, from beta's entries evaluated by
        series.evaluate rather than the solve's mat_eval_grid."""
        beta = np.array([[evaluate(e, phi=pts) for e in row]
                         for row in N.beta])
        return np.linalg.eigvalsh(beta.transpose(2, 0, 1))[:, -1]

    # (l, constant shift, delta_plus, points uncovered): partly and wholly
    CASES = [(1, 0.0, 0.02, "partial"), (1, 0.1, 0.01, "empty"),
             (2, 0.0, 0.03, "partial"), (2, 0.1, 0.02, "empty")]

    @pytest.mark.parametrize("l, shift, delta_plus, kind", CASES,
                             ids=[c[3] + "-l%d" % c[0] for c in CASES])
    def test_refused_before_any_point_is_solved(self, monkeypatch, l, shift,
                                                delta_plus, kind):
        import kamtori.engine.cohom as cohom
        N, f, phix, wit = self.problem(l, shift)
        profiled, solved = [], []
        evaluate_grid = cohom.mat_eval_grid
        monkeypatch.setattr(cohom, "mat_eval_grid", lambda mat, grid, *a: (
            profiled.append(grid.copy()), evaluate_grid(mat, grid, *a))[1])
        monkeypatch.setattr(cohom, "_grid_solve",
                            lambda *a: solved.append(a))
        with pytest.raises(CohomologyError) as err:
            solve_cohomological(N, f, phix, wit, sigma=0.025, delta=0.1,
                                delta_plus=delta_plus)
        pts = phi_grid(l, cohom.collocation_size(f.grading))
        level = 2.25 * delta_plus
        nu = self.nu_max(N, pts)
        uncovered = nu >= level
        assert uncovered.all() == (kind == "empty") and uncovered.any()
        first = int(np.argmax(uncovered))
        assert str(err.value) == (
            "sublevel region does not cover the collocation grid: "
            "nu_max(beta) = %.3g >= level t1 + a = %.3g on %d of %d points "
            "(at parameter grid point %s)"
            % (nu[first], level, uncovered.sum(), len(pts), pts[first]))
        assert len(profiled) == 1 and np.array_equal(profiled[0], pts)
        assert solved == []

    def test_step_failure_names_the_point(self):
        N0, f0, _phix, wit = self.problem(1, 0.1)
        gr = f0.grading
        row = build_schedule(1.0, 1.0, c2_norm(f0), 0.1).rows[0]
        state = IterationState.start(N0, f0)
        with pytest.raises(driver.StepFailure,
                           match=r"^linearized conjugacy solve failed: "
                                 r"sublevel region does not cover the "
                                 r"collocation grid: nu_max\(beta\) = 0\.16 "
                                 r">= .* on \d+ of 32 points \(at parameter "
                                 r"grid point \[0\.\]\)$"):
            kam_step(state, row, wit, N0)


class TestQMustBeIdentity:
    """The solve refuses a tuple whose Q is more than 1e-10 (majorant) away
    from the identity in any entry, a zero entry included, before any
    per-point work."""

    @pytest.mark.parametrize("entry, value, refused", [
        ((0, 1), 1e-9, True), ((0, 1), 1e-11, False), ((1, 1), 0.0, True),
        ((1, 1), 1.0, False), ((0, 0), 1.0 + 2e-10, True)])
    def test_refusal(self, monkeypatch, entry, value, refused):
        import kamtori.engine.cohom as cohom
        N, f, phix, wit = l2_nonzero_beta_problem()
        Q = np.eye(2)
        Q[entry] = value
        N.Q = const_matrix(f.grading, 1.0, 1.0, Q)
        assert N.Q[1][1].is_zero() == (entry == (1, 1) and value == 0.0)

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached
        monkeypatch.setattr(cohom, "_grid_solve", reached)
        want = CohomologyError if refused else Reached
        with pytest.raises(want, match="Q = I" if refused else None):
            solve_cohomological(N, f, phix, wit, sigma=0.025, delta=0.1,
                                delta_plus=0.03, grid_size=8)


class TestCollocationGrid:
    """The solve collocates on max(32, 4 K_phi + 1) points at l = 1 and on
    max(64, 4 K_phi + 1) per axis at l >= 2; the grid the artifacts and the
    phi0 search read stays at max(64, 4 K_phi + 1) per axis."""

    def test_sizes(self):
        from kamtori.engine.cohom import collocation_size
        assert collocation_size(small_grading()) == 32
        assert collocation_size(Grading(d=1, l=1, K_q=6, K_phi=16,
                                        D=4)) == 65
        assert collocation_size(Grading(d=1, l=2, K_q=4, K_phi=4,
                                        D=4)) == 64
        assert [phi_grid_size(K) for K in (3, 6, 15, 16)] == [64, 64, 64, 65]

    def test_l1_solve_runs_on_32_points(self, monkeypatch):
        import kamtori.engine.cohom as cohom
        gr = small_grading()
        N = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        wit = effective_diophantine_constant([GOLDEN], 0.1, gr.K_q)
        phix = [coordinate(gr, 1.0, 1.0, "x", 0)]
        f = shifted_parametrization(sigma_cos((1, 1), EPS), 1, 1, gr, 1.0, 1.0)
        profiled = []
        nu_max = cohom.nu_max
        monkeypatch.setattr(cohom, "nu_max", lambda B: (
            profiled.append(len(B)), nu_max(B))[1])
        sol = solve_cohomological(N, f, phix, wit, sigma=0.025, delta=0.1,
                                  delta_plus=0.03)
        assert profiled == [32]
        assert len(sol.grid) == 32

    def test_l1_grid_matches_64_points(self, coupled_rung_two_inputs):
        # the gate the l = 1 floor was lowered under: on the second rung's
        # inputs of the coupled run, 32 points give the 64-point solve's
        # projected series to rounding, with the same terms
        args, kwargs = coupled_rung_two_inputs
        got = solve_cohomological(*args, **kwargs)
        ref = solve_cohomological(*args, **dict(kwargs, grid_size=64))
        assert (len(got.grid), len(ref.grid)) == (32, 64)

        close = assert_near
        assert set(got.F.terms) == set(ref.F.terms)
        close(got.F, ref.F)
        for a, b in zip(got.alpha, ref.alpha):
            assert set(a.terms) == set(b.terms)
            close(a, b)
        for a, b in zip(got.v, ref.v):
            close(a, b)
        for key in ("c", "h"):
            close(getattr(got.Nbar, key), getattr(ref.Nbar, key))
        for key in ("beta", "Gamma", "M"):
            for row, ref_row in zip(getattr(got.Nbar, key),
                                    getattr(ref.Nbar, key)):
                for a, b in zip(row, ref_row):
                    close(a, b)


class TestProjection:
    """cohom._project against tests/project_oracle.py, its dict walk with
    one grid row per term: equal bit for bit."""

    @staticmethod
    def captured(monkeypatch, *args, **kwargs):
        """The arguments solve_cohomological passes _project."""
        import kamtori.engine.cohom as cohom
        calls, real = [], cohom._project
        monkeypatch.setattr(cohom, "_project",
                            lambda *a: calls.append(a) or real(*a))
        solve_cohomological(*args, **kwargs)
        return calls[0]

    @staticmethod
    def assert_identical(got, want):
        if isinstance(want, list):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                TestProjection.assert_identical(a, b)
            return
        for key in ("ij", "ik", "it", "coef"):
            a, b = getattr(got, key), getattr(want, key)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), key
        assert (got.r, got.s, got.trunc_loss) == (want.r, want.s,
                                                  want.trunc_loss)

    def check(self, args):
        import kamtori.engine.cohom as cohom
        (scal, ser, defect) = cohom._project(*args)
        (oscal, oser, odefect) = project_oracle.project(*args)
        assert set(scal) == set(oscal) and set(ser) == set(oser)
        for name in oscal:
            self.assert_identical(scal[name], oscal[name])
        for name in oser:
            assert len(oser[name].coef)
            self.assert_identical(ser[name], oser[name])
        assert defect == odefect

    def test_coupled_rung_two(self, monkeypatch, coupled_rung_two_inputs):
        args, kwargs = coupled_rung_two_inputs
        self.check(self.captured(monkeypatch, *args, **kwargs))

    def test_l2(self, monkeypatch):
        N, f, phix, wit = l2_nonzero_beta_problem()
        self.check(self.captured(monkeypatch, N, f, phix, wit, sigma=0.025,
                                 delta=0.1, delta_plus=0.03, grid_size=16))

    def test_l2_cohom_grid_spans_several_blocks(self, monkeypatch):
        # the l2-cohom workload's 32 x 32 grid: project_phi_rows transforms
        # the rows in several blocks, and the oracle in one call
        from kamtori.series import BLOCK_TILE_BYTES
        N, f, phix, wit = l2_nonzero_beta_problem()
        args = self.captured(monkeypatch, N, f, phix, wit, sigma=0.025,
                             delta=0.1, delta_plus=0.03, grid_size=32)
        numbers, series = args[:2]
        rows = sum(np.asarray(numbers[name]).size // 32 ** 2
                   for name in project_oracle.NUMERIC) \
            + len(series["F"].coef) + len(series["h"].coef)
        assert rows > 3 * BLOCK_TILE_BYTES // (16 * 32 ** 2)
        self.check(args)

class TestSymplecticityOnCoupledMap:
    def test_rung_two_map_matches_oracle(self, coupled_rung_two_flow):
        # the map kam_step flows on the second rung of the coupled run:
        # its residual against tests/symp_oracle.py, and under the gate
        Psi = coupled_rung_two_flow[1]
        assert all(not u.is_zero() for u in Psi.components())
        assert_defects_match_oracle(Psi)
        assert Psi.symp_residual <= DEFAULT_SYMP_TOL


class TestLieSeriesMatchOracle:
    """The Lie series and the angle exponential on the coupled run's second
    rung against the formed-term loop (tests/lie_oracle.py): the flow of the
    rung's generator, its composition with itself by Lie transport, and
    exp(i Uq) as the conjugacy check's substitution takes it.  The loop that
    stops on a bound leaves a term of majorant at most tol out of the sum,
    so the coefficients agree to 1e-14 of the largest, the orders are the
    same, and each remainder is at least the oracle's."""

    @pytest.fixture(scope="class")
    def Psi(self, coupled_rung_two_flow):
        return coupled_rung_two_flow[1]

    LOOPS = (symplectic._power_sum, lie_oracle.power_sum)

    @classmethod
    def both(cls, monkeypatch, run):
        """run() with the summation loop, then with the oracle's, each with
        the (remainder, order) of every sum it took."""
        out = []
        for loop in cls.LOOPS:
            sums = []

            def spy(*args, _loop=loop, _sums=sums, **kwargs):
                got = _loop(*args, **kwargs)
                _sums.append(got[1:])
                return got
            monkeypatch.setattr(symplectic, "_power_sum", spy)
            out.append((run(), sums))
        return out

    @staticmethod
    def assert_close(got, want):
        assert set(got.terms) == set(want.terms)
        assert_near(got, want)

    def assert_sums(self, got, want):
        assert [n for _, n in got] == [n for _, n in want]
        assert all(r >= r_old for (r, _), (r_old, _) in zip(got, want))
        return sum(r > r_old for (r, _), (r_old, _) in zip(got, want))

    def test_flow(self, monkeypatch, Psi):
        gen = Psi.generator
        (new, sums), (old, old_sums) = self.both(
            monkeypatch, lambda: map_from_generator(gen))
        for got, want in zip(new.U, old.U):
            self.assert_close(got, want)
        assert self.assert_sums(sums, old_sums) > 0   # some stop on the bound
        assert new.remainder >= old.remainder

    def test_composition(self, monkeypatch, Psi):
        (new, sums), (old, old_sums) = self.both(
            monkeypatch, lambda: compose_maps(Psi, Psi))
        for got, want in zip(new.U, old.U):
            self.assert_close(got, want)
        assert self.assert_sums(sums, old_sums) > 0
        assert new.remainder >= old.remainder

    def test_angle_exponential(self, monkeypatch, Psi):
        u = Psi.Uq[0].scale(1j)
        (new, sums), (old, old_sums) = self.both(
            monkeypatch, lambda: symplectic._exp_of(u))
        self.assert_close(new, old)
        assert self.assert_sums(sums, old_sums) > 0


class TestFormedOnlyWhatIsRead:
    """The three sums that stop forming what no result reads, on the coupled
    run's second rung against the code they replaced: its two tail
    integrals against the sums carried down to 1e-300, the angle factors of
    its map against exponentials summed directly, and its symplecticity
    residual against the one whose kernels form their loss majorants."""

    def test_tail_integrals(self, coupled_rung_two_inputs,
                            coupled_rung_two_flow):
        # the integrands kam_step builds on this rung
        args, _ = coupled_rung_two_inputs
        f, phi_x = args[1], args[2]
        sol, Psi = coupled_rung_two_flow
        gen = Psi.generator
        G = f
        for a, x in zip(sol.alpha, phi_x):
            G = G - multiply(a, x)
        integrands = [gen.bracket_with(assemble_hamiltonian(sol.Nbar)),
                      gen.bracket_with(G)]
        for u, w in zip(integrands, TAIL_WEIGHTS):
            n, n_old = assert_tail_matches_oracle(u, gen, w)
            assert n <= n_old

    def test_angle_factor_mirror(self, coupled_rung_two_flow, monkeypatch):
        assert_mirror_matches_exp(coupled_rung_two_flow[1], monkeypatch)

    def test_symplecticity_forms_no_loss(self, coupled_rung_two_flow,
                                         monkeypatch):
        assert_residual_forms_no_loss(coupled_rung_two_flow[1], monkeypatch)


class TestSolvePathReadsArrays:
    @pytest.mark.slow
    def test_no_terms_dict_built(self, monkeypatch, coupled_rung_two_inputs,
                                 coupled_rung_two_flow):
        # the coupled run's second rung: the per-mode solvers and the
        # substitution read the slot arrays, never the {(j, k, a): c} dict
        import kamtori.engine.cohom as cohom
        args, kwargs = coupled_rung_two_inputs
        Psi = coupled_rung_two_flow[1]
        inside, calls, built = [], [], []
        terms_dict = FTSeries._terms_dict

        def spy_dict(f):
            if inside:
                built.append(inside[-1])
            return terms_dict(f)

        def wrap(module, name):
            fn = getattr(module, name)

            def spy(*a, **kw):
                calls.append(name)
                inside.append(name)
                try:
                    return fn(*a, **kw)
                finally:
                    inside.pop()
            monkeypatch.setattr(module, name, spy)
        wrap(cohom, "solve_L2")
        wrap(cohom, "solve_L3")
        wrap(symplectic, "series_compose")
        monkeypatch.setattr(FTSeries, "_terms_dict", spy_dict)
        solve_cohomological(*args, **kwargs)
        symplectic.series_compose(args[1], Psi)
        assert {"solve_L2", "solve_L3", "series_compose"} <= set(calls)
        assert built == []

    @pytest.mark.parametrize("problem", ["coupled-rung-two", "l2-cohom"])
    def test_solve_reads_each_input_once(self, monkeypatch, request,
                                         problem):
        # the whole solve builds no terms dict and evaluates beta once, on
        # the coupled run's second rung and on the l = 2 benchmark problem
        import kamtori.engine.cohom as cohom
        if problem == "coupled-rung-two":
            args, kwargs = request.getfixturevalue("coupled_rung_two_inputs")
        else:
            args = l2_nonzero_beta_problem()
            kwargs = dict(sigma=0.025, delta=0.1, delta_plus=0.03,
                          grid_size=32)
        N = args[0]
        built, evaluated = [], []
        terms_dict = FTSeries._terms_dict
        evaluate_grid = cohom.mat_eval_grid
        monkeypatch.setattr(FTSeries, "_terms_dict",
                            lambda f: (built.append(f), terms_dict(f))[1])
        monkeypatch.setattr(cohom, "mat_eval_grid", lambda mat, *a: (
            evaluated.append(mat), evaluate_grid(mat, *a))[1])
        solve_cohomological(*args, **kwargs)
        assert built == []
        assert [mat is N.beta for mat in evaluated].count(True) == 1


class TestModerateAmplitudeFailureReporting:
    def test_drift_precondition_reported(self):
        # amplitude large enough that the tuple drifts past the configured
        # smallness window: the run stops with a named reason instead of
        # silently accepting the rung
        gr = small_grading()
        terms = sigma_cos((0, 1), 3e-3) + sigma_cos((1, 1), 1.5e-3)
        f0 = shifted_parametrization(terms, 1, 1, gr, 1.0, 1.0)
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN], [[-1.0]])
        state, hist = iterate(N0, f0, IterateConfig())
        assert hist["failure"] is not None
        assert "drift" in hist["failure"]["reason"] \
            or "budget" in hist["failure"]["reason"]

    def test_tracker_drift_past_two_lambda_refused(self):
        # an x-displacement 0.03 cos(q) in the cumulative map: its mean is
        # zero, its C^2 size 0.245 is past the drift window 2 lambda = 0.2
        gr, N0, f0 = flagship_problem(K=8)
        wit = effective_diophantine_constant([GOLDEN], 0.1, gr.K_q)
        row = build_schedule(1.0, 1.0, c2_norm(f0), 0.1).rows[0]
        Phi = identity_map(gr, 1, 1)
        Phi.U[gr.d] = FTSeries.cos_angle(gr, 1, 1, (0,), (1,), 0.03)
        state = replace(IterationState.start(N0, f0), Phi=Phi)
        with pytest.raises(driver.StepFailure,
                           match=r"^tracker drift 0\.245 exceeds "
                                 r"2 lambda = 0\.2$") as got:
            kam_step(state, row, wit, N0)
        assert got.value.measures["tracker_off_c2"] > 2 * driver.LAMBDA


class TestDiagnosticsShapesTwoAngles:
    def test_identity_state_zero_gaps(self):
        gr = Grading(d=2, l=1, K_q=3, K_phi=3, D=4)
        N0 = initial_tuple(gr, 1.0, 1.0, [GOLDEN, 1.0 + GOLDEN],
                           np.diag([-1.0, -1.5]))
        st0 = IterationState.start(N0, FTSeries.zero(gr, 1, 1))
        zeta = compute_zeta(st0, assemble_hamiltonian(N0))
        d1 = check_alpha_gradient(st0, zeta, N0.beta, 1.0)
        assert d1.alpha_grad_gap == 0.0
        d2 = check_beta_relation(st0, N0.beta, 1.0)
        assert d2.beta_relation_gap == 0.0
        assert d2.L_dev == 0.0 and d2.R_dev == 0.0


@pytest.mark.slow
class TestCoupledRunMatchesRecorded:
    """The eps = 1e-5 q-coupled run against its outputs recorded at commit
    7ba84e1, before products ran through the index-pair tables:
    tests/data/coupled_run_eps1e-5.json.gz holds the final f, every Phi
    component (to_json_dict) and the per-rung norms."""

    @pytest.fixture(scope="class")
    def recorded(self):
        with gzip.open(DATA / "coupled_run_eps1e-5.json.gz", "rt") as fh:
            return json.load(fh)

    def test_series(self, coupled_run_small, recorded):
        gr, N0, f0, state, hist = coupled_run_small
        assert hist["failure"] is None
        pairs = [(state.f, recorded["f"])] + list(
            zip(state.Phi.components(), recorded["Phi"]))
        for got, ref in pairs:
            ref = from_json_dict(ref)
            assert set(got.terms) == set(ref.terms)
            assert_near(got, ref)

    def test_rung_norms(self, coupled_run_small, recorded):
        steps = coupled_run_small[4]["steps"]
        assert len(steps) == len(recorded["steps"])
        for got, ref in zip(steps, recorded["steps"]):
            assert got["n"] == ref["n"]
            for key in ("f_norm", "alpha_norm"):
                assert got[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0)

    def test_truncation_measures_reported(self, coupled_run_small):
        for row in coupled_run_small[4]["steps"]:
            m = row["measures"]
            for key in ("f_plus_trunc_loss", "phi_trunc_loss",
                        "psi_remainder", "phi_remainder"):
                assert math.isfinite(m[key]) and m[key] >= 0.0
            for key in ("f_plus_terms", "phi_terms"):
                assert m[key] == int(m[key]) and m[key] > 0
        # the cumulative map's Lie remainder holds each rung's flow's
        rows = [row["measures"] for row in coupled_run_small[4]["steps"]]
        assert rows[0]["phi_remainder"] == rows[0]["psi_remainder"] > 0.0
        for prev, m in zip(rows, rows[1:]):
            assert m["phi_remainder"] >= prev["phi_remainder"] \
                + m["psi_remainder"]
        # the map of the last rung holds every term of its four components
        state = coupled_run_small[3]
        last = coupled_run_small[4]["steps"][-1]["measures"]
        assert last["phi_terms"] == sum(len(u.terms)
                                        for u in state.Phi.components())
        assert last["f_plus_terms"] == len(state.f.terms)

    def test_lie_orders_and_contraction_reported(self, coupled_run_small):
        from kamtori.symplectic import DEFAULT_ORDER_CAP
        rows = coupled_run_small[4]["steps"][1:]
        assert rows
        for prev, row in zip(coupled_run_small[4]["steps"], rows):
            m = row["measures"]
            assert len(m["lie_orders"]) == 3
            # both tail integrals ran; g is transported once it is nonzero
            assert all(type(o) is int and 0 <= o <= DEFAULT_ORDER_CAP + 1
                       for o in m["lie_orders"])
            assert min(m["lie_orders"][:2]) >= 1
            f_n, f_next = prev["f_norm"], row["f_norm"]
            assert math.isfinite(m["contraction_exponent"])
            assert m["contraction_exponent"] == pytest.approx(
                math.log(f_next) / math.log(f_n), rel=1e-12)


@pytest.mark.slow
class TestCoupledPipelineMatchesRecorded:
    """The eps = 1e-5 q-coupled run through zeta, phi0 and extraction against
    its outputs recorded at commit e7e1c3f, where every product ran through
    the pair kernel: tests/data/coupled_pipeline_eps1e-5.json.gz holds phi0,
    the embedding (to_json_dict) and each rung's f_norm, contraction
    exponent, conjugacy residual and symplecticity residual.  Values at the
    rounding floor (the residuals) are bounded at their gates, not against
    the recorded digits."""

    @pytest.fixture(scope="class")
    def recorded(self):
        with gzip.open(DATA / "coupled_pipeline_eps1e-5.json.gz", "rt") as fh:
            return json.load(fh)

    def test_embedding(self, coupled_run_small, recorded):
        gr, N0, f0, state, hist = coupled_run_small
        phi0, _info, tor, residual = find_torus(
            state, assemble_hamiltonian(N0) + f0)
        assert list(np.atleast_1d(phi0)) == recorded["phi0"]
        for key, refs in recorded["embedding"].items():
            assert len(tor.embedding[key]) == len(refs)
            for got, ref in zip(tor.embedding[key], refs):
                ref = from_json_dict(ref)
                gap = got - ref
                assert (gap.max_abs_coeff() if gap.terms else 0.0) \
                    <= 1e-14 * ref.max_abs_coeff(), key
        assert residual <= 1e-8   # criterion 1's invariance gate

    def test_rungs(self, coupled_run_small, recorded):
        from kamtori.symplectic import DEFAULT_SYMP_TOL
        f0, hist = coupled_run_small[2], coupled_run_small[4]
        assert len(hist["steps"]) == len(recorded["steps"])
        for got, ref in zip(hist["steps"], recorded["steps"]):
            m = got["measures"]
            assert got["n"] == ref["n"]
            assert got["f_norm"] == pytest.approx(ref["f_norm"], rel=1e-12,
                                                  abs=0.0)
            assert m["contraction_exponent"] == pytest.approx(
                ref["contraction_exponent"], rel=1e-12, abs=0.0)
            # the gates the run checks them against
            budget = (m["lie_remainder"] + m["cohom_projection_defect"]
                      + m["cohom_residual_plateau"] + 1e-10 * c2_norm(f0))
            assert got["conjugacy_residual"] <= 10 * budget + 1e-12
            assert 0.0 <= m["symp_residual"] <= DEFAULT_SYMP_TOL


def evaluate_terms(f, q, x=(0.0,), p=(0.0,), y=(0.0,)):
    """A parameter-free series at one point, summed term by term."""
    z = np.concatenate([np.broadcast_to(x, f.grading.l),
                        np.broadcast_to(p, f.grading.d),
                        np.broadcast_to(y, f.grading.l)])
    total = sum(c * np.exp(1j * np.dot(k, q)) * np.prod(z ** np.array(a))
                for (j, k, a), c in f.terms.items())
    return complex(total).real


def verify_pointwise(H, embedding, omega, grid_n):
    """verify_invariance one grid point and one series at a time."""
    d = H.grading.d
    qd, xd, pd, yd = vector_field(H)
    fields = qd + xd + pd + yd
    uq, ux, up, uy = (embedding[key] for key in ("uq", "ux", "up", "uy"))
    comps = uq + ux + up + uy
    derivs = [[differentiate(u, ("q", j)) for j in range(d)] for u in comps]
    worst, scale = 0.0, 0.0
    for q0 in phi_grid(d, grid_n):
        qv = q0 + np.array([evaluate_terms(u, q0) for u in uq])
        xv = np.array([evaluate_terms(u, q0) for u in ux])
        pv = np.array([evaluate_terms(u, q0) for u in up])
        yv = np.array([evaluate_terms(u, q0) for u in uy])
        X = np.array([evaluate_terms(f, qv, xv, pv, yv) for f in fields])
        D = np.array([[evaluate_terms(derivs[i][j], q0) for j in range(d)]
                      for i in range(len(comps))])
        flow = D @ omega
        flow[:d] += omega
        worst = max(worst, float(np.linalg.norm(X - flow)))
        scale = max(scale, float(np.linalg.norm(X)))
    return worst, scale


class TestGridEvaluation:
    """Series are evaluated on the whole verification grid at once; the
    result must be the point-by-point one."""

    def check(self, H, emb, omega, grid_n):
        omega = np.asarray(omega, dtype=float)
        got = verify_invariance(H, emb, omega, grid_n)
        want, scale = verify_pointwise(H, emb, omega, grid_n)
        # relative to the residual, or to the field when the residual is the
        # rounding left of a cancellation
        assert abs(got - want) <= 1e-14 * max(want, scale)
        return got

    def test_flagship(self, flagship_run):
        gr, N0, f0, state, hist = flagship_run
        _phi0, info, tor, _ = find_torus(state, assemble_hamiltonian(N0) + f0)
        self.check(info["hamiltonian"], tor.embedding, [GOLDEN], 64)

    @pytest.mark.slow
    def test_coupled(self, coupled_run_small):
        gr, N0, f0, state, hist = coupled_run_small
        _phi0, info, tor, _ = find_torus(state, assemble_hamiltonian(N0) + f0)
        assert self.check(info["hamiltonian"], tor.embedding, [GOLDEN],
                          64) > 0.0
        comps = [u for us in tor.embedding.values() for u in us]
        dist = max(float(np.linalg.norm([evaluate_terms(u, q0) for u in comps]))
                   for q0 in phi_grid(gr.d, 32))
        assert tor.distance_to_trivial == pytest.approx(dist, rel=1e-14,
                                                        abs=0.0)

    def test_two_angles(self, rng):
        gr = Grading(d=2, l=1, K_q=4, K_phi=0, D=4)
        real = lambda **kw: random_real_series(gr, 1, 1, rng, max_k=2,
                                               max_phi=0, **kw)
        H = real(n_modes=12, max_deg=3)
        emb = {key: [real(max_deg=0, scale=0.1) for _ in range(n)]
               for key, n in (("uq", 2), ("ux", 1), ("up", 2), ("uy", 1))}
        assert self.check(H, emb, [GOLDEN, 1.0], 16) > 1.0

    def test_shapes_and_reality_check(self, rng):
        gr = Grading(d=2, l=1, K_q=4, K_phi=0, D=4)
        f = random_real_series(gr, 1, 1, rng, max_k=2, max_phi=0)
        qs = phi_grid(2, 5).reshape(5, 5, 2)
        grid = evaluate(f, q=qs, x=[0.1])
        assert grid.shape == (5, 5)
        assert grid[2, 3] == pytest.approx(evaluate_terms(f, qs[2, 3], 0.1),
                                           rel=1e-14, abs=1e-14)
        assert isinstance(evaluate(f, q=qs[0, 0]), float)
        f = FTSeries(gr, 1, 1, {**f.terms, ((0,), (1, 0), (0, 0, 0, 0)): 1.0j},
                     _raw=True)
        with pytest.raises(RealityError):
            evaluate(f, q=qs)
