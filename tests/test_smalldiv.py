import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smalldiv_oracle
from kamtori import normalform
from kamtori.engine import cohom
from kamtori.errors import ConvergenceError
from kamtori.normalform import nu_max, phi_grid
from kamtori.series import (FTSeries, Grading, _equal_stack, average_q,
                            majorant_norm, partial_omega)
import kamtori.smalldiv as smalldiv
from kamtori.smalldiv import (DiophantineWitness, ResonanceError,
                              SolverPreconditionError, _below_det_bound,
                              _check_beta,
                              effective_diophantine_constant, solve_L1,
                              solve_L2, solve_L3)
from conftest import GOLDEN, coeff
from test_engine import l2_nonzero_beta_problem, l2_varying_tuple_problem


def fib_upto(n):
    out = [1, 1]
    while out[-1] < n:
        out.append(out[-1] + out[-2])
    return set(out)


class TestWitness:
    def test_resonant_pair_flagged(self):
        w = effective_diophantine_constant([1.0, 1.0], 0.5, 5)
        assert w.resonant and w.gamma == 0.0
        assert abs(w.worst_k[0] + w.worst_k[1]) == 0  # k = +-(1, -1)

    def test_golden_scan_vs_exhaustive(self):
        w = effective_diophantine_constant([GOLDEN], 0.1, 100)
        assert w.gamma > 0
        best = min((abs(k * GOLDEN) * abs(k) ** 1.1, abs(k))
                   for k in range(1, 101))
        assert w.gamma == pytest.approx(best[0])
        assert abs(w.worst_k[0]) in fib_upto(101)

    def test_two_frequency_exhaustive_scan(self):
        w = effective_diophantine_constant([1.0, GOLDEN], 0.5, 20)
        assert w.gamma > 0
        best = math.inf
        for k1 in range(-20, 21):
            for k2 in range(-20, 21):
                n = abs(k1) + abs(k2)
                if 0 < n <= 20:
                    best = min(best, abs(k1 + k2 * GOLDEN) * n ** 2.5)
        assert w.gamma == pytest.approx(best)

    def test_scaling_linearity(self):
        w1 = effective_diophantine_constant([1.0, GOLDEN], 0.5, 12)
        w2 = effective_diophantine_constant([3.0, 3.0 * GOLDEN], 0.5, 12)
        assert w2.gamma == pytest.approx(3.0 * w1.gamma)


def _dense_operator_matrix(apply_op, basis_series, read_keys):
    """Assemble the dense matrix of a linear series operator by application."""
    cols = []
    for b in basis_series:
        image = apply_op(b)
        cols.append(np.array([image.terms.get(key, 0.0) for key in read_keys]))
    return np.stack(cols, axis=-1)


class TestL1:
    def witness(self, omega, K):
        return effective_diophantine_constant(omega, 0.5, K)

    def test_single_mode_inversion(self, g11):
        w = self.witness([GOLDEN], 8)
        v = FTSeries.term(g11, 1, 1, (0,), (2,), (0, 0, 0), 1.0)
        u = solve_L1(v, w)
        assert coeff(u, (0,), (2,), (0, 0, 0)) == pytest.approx(
            1.0 / (1j * 2 * GOLDEN))

    def test_constant_maps_to_zero(self, g11):
        w = self.witness([GOLDEN], 8)
        assert solve_L1(FTSeries.constant(g11, 1, 1, 4.0), w).is_zero()

    def test_resonant_mode_raises(self, g11):
        w = DiophantineWitness(np.array([1.0, -1.0]), 1.0, 0.5, 8)
        g = Grading(d=2, l=1, K_q=8, K_phi=2, D=3)
        fine = FTSeries.term(g, 1, 1, (0,), (1, -1), (0, 0, 0, 0), 1.0)
        solve_L1(fine, w)  # <omega, (1, -1)> = 2, regular mode
        bad = FTSeries.term(g, 1, 1, (0,), (1, 1), (0, 0, 0, 0), 1.0)
        with pytest.raises(ResonanceError):
            solve_L1(fine + bad, w)

    def test_linearity(self, g11, rng):
        from conftest import random_real_series
        w = self.witness([GOLDEN], 8)
        v1 = random_real_series(g11, 1, 1, rng, max_k=6)
        v2 = random_real_series(g11, 1, 1, rng, max_k=6)
        lhs = solve_L1(v1 + v2.scale(2.5), w)
        rhs = solve_L1(v1, w) + solve_L1(v2, w).scale(2.5)
        assert (lhs - rhs).max_abs_coeff() < 1e-14

    def test_matches_dense_solve(self, rng):
        # d = 2, K_q = 8: dense diagonal system over the full truncated basis
        g = Grading(d=2, l=1, K_q=8, K_phi=0, D=3)
        w = self.witness([1.0, GOLDEN], 8)
        modes = [k for k in itertools.product(range(-8, 9), repeat=2)
                 if 0 < abs(k[0]) + abs(k[1]) <= 8]
        keys = [((0,), k, (0, 0, 0, 0)) for k in modes]
        A = _dense_operator_matrix(
            lambda b: partial_omega(b, [1.0, GOLDEN]),
            [FTSeries(g, 1, 1, {key: 1.0}, _raw=True) for key in keys], keys)
        from conftest import random_real_series
        v = random_real_series(g, 1, 1, rng, n_modes=30, max_k=4, max_phi=0,
                               max_deg=0)
        rhs = np.array([(v - average_q(v)).terms.get(key, 0.0) for key in keys])
        dense = np.linalg.solve(A, rhs)
        u = solve_L1(v, w)
        mine = np.array([u.terms.get(key, 0.0) for key in keys])
        assert np.max(np.abs(mine - dense)) <= 1e-12 * max(
            1.0, np.max(np.abs(dense)))

    def test_residual_property(self, g11, rng):
        from conftest import random_real_series
        w = self.witness([GOLDEN], 8)
        for _ in range(5):
            v = random_real_series(g11, 1, 1, rng, max_k=8)
            u = solve_L1(v, w)
            res = partial_omega(u, [GOLDEN]) - (v - average_q(v))
            assert majorant_norm(res) <= 1e-10 * majorant_norm(v)


def make_beta(rng, l, cap):
    B = rng.standard_normal((l, l))
    B = 0.5 * (B + B.T)
    B = B / max(1.0, np.linalg.norm(B, 2) * 1.01)
    nu = np.linalg.eigvalsh(B)[-1]
    if nu > cap:
        B = B - (nu - 0.5 * cap) * np.eye(l)
        B = B / max(1.0, np.linalg.norm(B, 2) * 1.01)
    return B


class TestL2:
    def test_decoupled_when_beta_zero(self, g11, rng):
        from conftest import random_real_series
        w = effective_diophantine_constant([GOLDEN], 0.5, 8)
        bx = [random_real_series(g11, 1, 1, rng, max_k=4, max_phi=0, max_deg=0)]
        by = [random_real_series(g11, 1, 1, rng, max_k=4, max_phi=0, max_deg=0)]
        Bx, By = solve_L2(bx, by, np.zeros((1, 1)), w, 8)
        direct = solve_L1(bx[0], w)
        # with beta = 0 the x-solve is the plain per-mode division plus the
        # zero mode inherited from the mean of b_y
        diff = Bx[0] - direct - average_q(by[0])
        assert majorant_norm(diff) < 1e-12

    def test_constant_by_gives_zero_mode(self, g11):
        w = effective_diophantine_constant([GOLDEN], 0.5, 8)
        bx = [FTSeries.zero(g11, 1, 1)]
        by = [FTSeries.constant(g11, 1, 1, 3.0)]
        Bx, By = solve_L2(bx, by, np.zeros((1, 1)), w, 8)
        assert Bx[0].terms == {((0,), (0,), (0, 0, 0)): 3.0 + 0.0j}
        assert By[0].is_zero()

    def test_single_mode_matches_dense_2x2(self, rng):
        g = Grading(d=1, l=1, K_q=4, K_phi=0, D=3)
        w = effective_diophantine_constant([GOLDEN], 0.5, 4)
        beta = make_beta(rng, 1, 0.5 * w.min_divisor_sq(4))
        k = 3
        cb = complex(rng.standard_normal(), rng.standard_normal())
        cy = complex(rng.standard_normal(), rng.standard_normal())
        bx = [FTSeries(g, 1, 1, {((0,), (k,), (0, 0, 0)): cb,
                                 ((0,), (-k,), (0, 0, 0)): np.conj(cb)}, _raw=True)]
        by = [FTSeries(g, 1, 1, {((0,), (k,), (0, 0, 0)): cy,
                                 ((0,), (-k,), (0, 0, 0)): np.conj(cy)}, _raw=True)]
        Bx, By = solve_L2(bx, by, beta, w, 4)
        lam = 1j * k * GOLDEN
        M = np.array([[lam, -beta[0, 0]], [1.0, lam]])
        dense = np.linalg.solve(M, [cb, cy])
        assert coeff(Bx[0], (0,), (k,), (0, 0, 0)) == pytest.approx(dense[0], rel=1e-12)
        assert coeff(By[0], (0,), (k,), (0, 0, 0)) == pytest.approx(dense[1], rel=1e-12)

    def test_residual_and_zero_mean(self, g11, rng):
        from conftest import random_real_series
        w = effective_diophantine_constant([GOLDEN], 0.5, 8)
        for _ in range(5):
            beta = make_beta(rng, 1, 0.5 * w.min_divisor_sq(8))
            bx = [random_real_series(g11, 1, 1, rng, max_k=8, max_phi=1)]
            by = [random_real_series(g11, 1, 1, rng, max_k=8, max_phi=1)]
            Bx, By = solve_L2(bx, by, beta, w, 8)
            scale = majorant_norm(bx[0]) + majorant_norm(by[0])
            r1 = partial_omega(Bx[0], [GOLDEN]) - Bx[0].zero(g11, 1, 1)
            r1 = partial_omega(Bx[0], [GOLDEN]) - By[0].scale(beta[0, 0]) \
                - (bx[0] - average_q(bx[0]))
            r2 = partial_omega(By[0], [GOLDEN]) + Bx[0] - by[0]
            assert majorant_norm(r1) <= 1e-10 * scale
            assert majorant_norm(r2) <= 1e-10 * scale
            assert average_q(By[0]).is_zero()

    def test_precondition_violation_raises(self, g11):
        w = effective_diophantine_constant([GOLDEN], 0.5, 8)
        beta = np.array([[0.9]])
        # golden: min divisor over |k| <= 8 is golden itself, so 0.5 min^2 > 1;
        # a slower frequency forces the violation
        fake = DiophantineWitness(np.array([0.3]), 0.1, 0.5, 8)
        with pytest.raises(SolverPreconditionError):
            solve_L2([FTSeries.zero(g11, 1, 1)], [FTSeries.zero(g11, 1, 1)],
                     beta, fake, 8)

    def test_stacked_violation_names_entry(self, g11):
        # a stack of per-point matrices: only the entry that breaks the
        # precondition is named
        fake = DiophantineWitness(np.array([0.3]), 0.1, 0.5, 8)
        beta = np.array([[[-0.5]], [[0.0]], [[0.9]], [[0.9]]])
        with pytest.raises(SolverPreconditionError,
                           match="stack entry 2") as err:
            solve_L2([FTSeries.zero(g11, 1, 1)], [FTSeries.zero(g11, 1, 1)],
                     beta, fake, 8)
        assert err.value.entry == 2


def entry(f, b=0):
    """Entry b of a batched series, as an unbatched one."""
    return FTSeries(f.grading, f.r, f.s,
                    {key: complex(c[b]) for key, c in f.terms.items()},
                    _raw=True)


def batched(series):
    """One batched series whose entry b is series[b]."""
    keys = sorted(set().union(*(f.terms for f in series)))
    return FTSeries(series[0].grading, series[0].r, series[0].s,
                    {key: np.array([f.terms.get(key, 0.0) for f in series],
                                   dtype=complex) for key in keys},
                    _raw=True)


class TestL3:
    """The symmetrized coupled-triple solve (see kamtori.smalldiv).  At l = 1
    X, Y and Z are numbers, Z + Z^T = 2Z and beta Z^T + Z beta = 2 beta Z."""

    def test_zero_maps_to_zero(self, g11):
        w = effective_diophantine_constant([GOLDEN], 0.5, 8)
        z = [[FTSeries.zero(g11, 1, 1)]]
        Dxx, Dyy, Dxy, obs = solve_L3(z, z, z, np.zeros((1, 1, 1)), w)
        assert Dxx[0][0].is_zero() and Dyy[0][0].is_zero() and Dxy[0][0].is_zero()
        assert obs == 0.0

    @staticmethod
    def single_mode(rng, k, beta):
        """solve_L3 on random data of the mode pair +-k: (solution, lam, data)."""
        g = Grading(d=1, l=1, K_q=4, K_phi=0, D=3)
        w = effective_diophantine_constant([GOLDEN], 0.5, 4)
        cs = [complex(rng.standard_normal(), rng.standard_normal())
              for _ in range(3)]
        mk = lambda c: [[FTSeries(g, 1, 1, {((0,), (k,), (0, 0, 0)): c,
                                            ((0,), (-k,), (0, 0, 0)): np.conj(c)},
                                  _raw=True)]]
        return solve_L3(mk(cs[0]), mk(cs[1]), mk(cs[2]), beta, w), \
            1j * k * GOLDEN, cs

    def test_beta_zero_triangular_chain(self, rng):
        # with beta = 0 the system triangularizes by hand:
        # lam X = uxx, lam Z + X = uxy, lam Y + 2 Z = uyy
        k = 2
        (Dxx, Dyy, Dxy, _), lam, cs = self.single_mode(
            rng, k, np.zeros((1, 1, 1)))
        X = cs[0] / lam
        Z = (cs[2] - X) / lam
        Y = (cs[1] - 2 * Z) / lam
        key = ((0,), (k,), (0, 0, 0))
        assert entry(Dxx[0][0]).terms[key] == pytest.approx(X)
        assert entry(Dyy[0][0]).terms[key] == pytest.approx(Y)
        assert entry(Dxy[0][0]).terms[key] == pytest.approx(Z)

    def test_single_mode_matches_dense_3x3(self, rng):
        w = effective_diophantine_constant([GOLDEN], 0.5, 4)
        beta = make_beta(rng, 1, 0.25 * w.min_divisor_sq(4))
        k = 1
        (Dxx, Dyy, Dxy, _), lam, cs = self.single_mode(rng, k, beta[None])
        b = beta[0, 0]
        M = np.array([[lam, 0, -2 * b], [0, lam, 2.0], [1.0, -b, lam]])
        dense = np.linalg.solve(M, cs)
        key = ((0,), (k,), (0, 0, 0))
        got = [entry(D[0][0]).terms[key] for D in (Dxx, Dyy, Dxy)]
        assert np.max(np.abs(np.array(got) - dense)) < 1e-12

    def test_zero_mode_particular_solution(self, g11):
        # at l = 1: Dxx0 = uxy, Dyy0 = 0, Dxy0 = uyy / 2, whatever beta
        w = effective_diophantine_constant([GOLDEN], 0.5, 8)
        cxy, cyy = 1.7, -0.4
        mk = lambda c: [[FTSeries.constant(g11, 1, 1, c)]]
        Dxx, Dyy, Dxy, obs = solve_L3(mk(0.3), mk(cyy), mk(cxy),
                                      np.full((1, 1, 1), 0.2), w)
        zero = ((0,), (0,), (0, 0, 0))
        assert entry(Dxx[0][0]).terms[zero] == pytest.approx(cxy)
        assert Dyy[0][0].is_zero()
        assert entry(Dxy[0][0]).terms[zero] == pytest.approx(cyy / 2)
        assert obs == 0.0

    def test_zero_mode_obstruction(self):
        # l = 2: an antisymmetric xy average is removable only where beta's
        # eigenvalues split; with beta = 0 all of it is the obstruction
        g = Grading(d=1, l=2, K_q=4, K_phi=0, D=3)
        w = effective_diophantine_constant([GOLDEN], 0.5, 4)
        const = lambda c: FTSeries.constant(g, 1, 1, c)
        zeros = [[const(0.0)] * 2 for _ in range(2)]
        uxy = [[const(0.0), const(0.7)], [const(-0.7), const(0.0)]]
        _, _, _, obs = solve_L3(zeros, zeros, uxy, np.zeros((1, 2, 2)), w)
        assert obs == pytest.approx(0.7, rel=1e-15)
        split = np.diag([0.1, -0.2])[None]
        Dxx, Dyy, _, obs = solve_L3(zeros, zeros, uxy, split, w)
        assert obs == 0.0
        # the removed part: -beta Y0 + X0 = uxy on the xy average
        zero = g.zero_key()
        avg = lambda D: np.array([[coeff(entry(D[i][j]), *zero)
                                   for j in range(2)] for i in range(2)])
        X0, Y0 = avg(Dxx), avg(Dyy)
        want = np.array([[0.0, 0.7], [-0.7, 0.0]])
        assert np.max(np.abs(-split[0] @ Y0 + X0 - want)) < 1e-14
        assert np.allclose(X0, X0.T) and np.allclose(Y0, Y0.T)

    def test_stack_entries_match_single_solves(self, rng):
        from conftest import random_real_series
        g = Grading(d=1, l=2, K_q=4, K_phi=0, D=3)
        w = effective_diophantine_constant([GOLDEN], 0.5, 4)
        nb = 3
        betas = np.stack([make_beta(rng, 2, 0.25 * w.min_divisor_sq(4))
                          for _ in range(nb)])
        # per entry b: three l x l matrices of series with zero modes
        draws = [[[[random_real_series(g, 1, 1, rng, max_k=4, max_phi=0,
                                       max_deg=0) for _ in range(2)]
                   for _ in range(2)] for _ in range(3)] for _ in range(nb)]
        stacked = [[[batched([draws[b][m][i][j] for b in range(nb)])
                     for j in range(2)] for i in range(2)] for m in range(3)]
        Ds = solve_L3(*stacked, betas, w)
        obs = []
        for b in range(nb):
            one = solve_L3(*draws[b], betas[b][None], w)
            obs.append(one[3])
            for m in range(3):
                for i in range(2):
                    for j in range(2):
                        got, want = entry(Ds[m][i][j], b), entry(one[m][i][j])
                        diff = (got - want).max_abs_coeff()
                        assert diff <= 1e-14 * max(1.0, want.max_abs_coeff())
        assert Ds[3] == max(obs)

    def test_residual_of_displayed_system(self, g11, rng):
        from conftest import random_real_series
        w = effective_diophantine_constant([GOLDEN], 0.5, 8)
        for _ in range(5):
            beta = make_beta(rng, 1, 0.25 * w.min_divisor_sq(8))
            b = beta[0, 0]
            mats = [[[random_real_series(g11, 1, 1, rng, max_k=8, max_phi=0,
                                         max_deg=0)]] for _ in range(3)]
            dxx, dyy, dxy = mats
            Dxx, Dyy, Dxy = (entry(D[0][0]) for D in
                             solve_L3(dxx, dyy, dxy, beta[None], w)[:3])
            dom = lambda f: partial_omega(f, [GOLDEN])
            r1 = dom(Dxx) - Dxy.scale(2 * b) - (dxx[0][0] - average_q(dxx[0][0]))
            r2 = dom(Dyy) + Dxy.scale(2.0) - dyy[0][0]
            r3 = dom(Dxy) - Dyy.scale(b) + Dxx - dxy[0][0]
            scale = sum(majorant_norm(m[0][0]) for m in mats)
            # the zero modes follow the scheme's particular choice, which
            # leaves the xx average free (it lands in the correction tuple)
            r1 = r1 - average_q(r1)
            assert majorant_norm(r1) <= 1e-10 * scale
            assert majorant_norm(r2) <= 1e-10 * scale
            assert majorant_norm(r3) <= 1e-10 * scale


class TestNormGrowthShape:
    def test_solve_shrink_constant_bounded_across_margins(self, g11, rng):
        # ||L1 v||_{r - sigma} <= C / (gamma sigma^(tau + d)) ||v||_r with one
        # fitted C across the probed margins (shape check, not a proof)
        from conftest import random_real_series
        tau = 0.5
        w = effective_diophantine_constant([GOLDEN], tau, 8)
        consts = []
        for sigma in (0.05, 0.1, 0.2):
            vals = []
            for _ in range(5):
                v = random_real_series(g11, 1, 1, rng, max_k=8, max_phi=0,
                                       max_deg=0)
                u = solve_L1(v, w)
                num = majorant_norm(u.with_radii(1.0 - sigma, 1.0))
                den = majorant_norm(v)
                vals.append(num * w.gamma * sigma ** (tau + 1) / den)
            consts.append(max(vals))
        assert max(consts) / min(consts) < 50.0
        assert max(consts) < 10.0


# -- the slot-array solvers against the dict-walking ones (smalldiv_oracle) --

SHAPES = [(1, 1), (2, 1), (1, 2)]   # (d, l)
NB = 3
gauss = st.builds(complex, st.integers(-8, 8), st.integers(-8, 8))


def outcome(solve, *args):
    """(result, None), or (None, (type, stack entry, message)) on a failed
    solve."""
    try:
        return solve(*args), None
    except ConvergenceError as err:
        return None, (type(err), getattr(err, "entry", None), str(err))


def assert_same_series(got, want):
    assert len(got) == len(want)
    for f, g in zip(got, want):
        assert set(f.terms) == set(g.terms)
        for key in ("ij", "ik", "it", "coef"):
            assert np.array_equal(getattr(f, key), getattr(g, key)), key
        assert (f.r, f.s, f.trunc_loss) == (g.r, g.s, g.trunc_loss)


def assert_matches_oracle(b_x, b_y, d3, beta, witness, K):
    """solve_L2 and solve_L3 give the oracle's series bit for bit, and the
    same obstruction, or fail as it does."""
    got, err = outcome(solve_L2, b_x, b_y, beta, witness, K)
    want, err_old = outcome(smalldiv_oracle.solve_L2, b_x, b_y, beta,
                            witness, K)
    assert err == err_old
    if got is not None:
        assert_same_series(got[0] + got[1], want[0] + want[1])
    stack = beta if beta.ndim == 3 else beta[None]
    got, err = outcome(solve_L3, *d3, stack, witness)
    want, err_old = outcome(smalldiv_oracle.solve_L3, *d3, stack, witness)
    assert err == err_old
    if got is not None:
        for m in range(3):
            for row, row_old in zip(got[m], want[m]):
                assert_same_series(row, row_old)
        assert got[3] == want[3]


def shape_witness(d):
    return effective_diophantine_constant([GOLDEN] if d == 1
                                          else [1.0, GOLDEN], 0.5, 2)


@st.composite
def solver_inputs(draw):
    """Right-hand sides of L2 and L3 on a grading of a drawn (d, l), over two
    parameter modes j, three Taylor indices a and every angle mode with
    |k| <= 2 (the zero mode among them), with explicit all-zero rows; beta
    one matrix (plain coefficients) or a stack of NB (coefficients numbers
    or length-NB arrays), inside L2's precondition."""
    d, l = draw(st.sampled_from(SHAPES))
    gr = Grading(d=d, l=l, K_q=2, K_phi=1, D=3)
    batched = draw(st.booleans())
    js = [(0,) * l, (1,) + (0,) * (l - 1)]
    alphas = [(0,) * gr.nz, (1,) + (0,) * (gr.nz - 1),
              (0,) * (gr.nz - 1) + (1,)]
    ks = [k for k in itertools.product(range(-2, 3), repeat=d)
          if sum(map(abs, k)) <= 2]
    keys = [(j, k, a) for j in js for k in ks for a in alphas]
    if batched:
        coef = st.one_of(st.just(np.zeros(NB, complex)), gauss,
                         st.lists(gauss, min_size=NB, max_size=NB).map(
                             lambda v: np.array(v, dtype=complex)))
    else:
        coef = st.one_of(st.just(0j), gauss)
    series = st.dictionaries(st.sampled_from(keys), coef, max_size=8).map(
        lambda t: FTSeries(gr, 1.0, 1.0, t, _raw=True))
    witness = shape_witness(d)
    eig = st.floats(-0.9, min(0.9, 0.5 * witness.min_divisor_sq(2)))

    def one_beta():
        w = np.diag(draw(st.lists(eig, min_size=l, max_size=l)))
        t = draw(st.floats(0, np.pi))
        V = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) \
            if l == 2 else np.eye(1)
        b = V @ w @ V.T
        return 0.5 * (b + b.T)
    beta = np.stack([one_beta() for _ in range(NB)]) if batched else one_beta()
    b_x = [draw(series) for _ in range(l)]
    b_y = [draw(series) for _ in range(l)]
    d3 = [[[draw(series) for _ in range(l)] for _ in range(l)]
          for _ in range(3)]
    return b_x, b_y, d3, beta, witness


class TestSlotSolversMatchOracle:
    @pytest.mark.slow
    @settings(max_examples=60, deadline=None)
    @given(solver_inputs())
    def test_drawn_inputs(self, inputs):
        b_x, b_y, d3, beta, witness = inputs
        assert_matches_oracle(b_x, b_y, d3, beta, witness, 2)

    @staticmethod
    def modes(gr, slices):
        """One series with coefficient 1 on each (j, k, a) of slices."""
        return FTSeries(gr, 1.0, 1.0, {key: 1.0 + 0.5j for key in slices},
                        _raw=True)

    def test_resonant_divisor(self):
        # omega = (1, 1): k = +-(1, -1) is resonant; beta negative definite
        # passes L2's precondition at a zero minimal divisor
        gr = Grading(d=2, l=1, K_q=2, K_phi=1, D=3)
        w = DiophantineWitness(np.array([1.0, 1.0]), 0.1, 0.5, 2)
        a0, a1 = (0, 0, 0, 0), (1, 0, 0, 0)
        f = self.modes(gr, [((0,), (1, 0), a1), ((0,), (-1, 1), a1),
                            ((0,), (1, -1), a0), ((1,), (0, 1), a0)])
        z = FTSeries.zero(gr, 1.0, 1.0)
        for beta in (np.array([[-0.5]]), np.full((NB, 1, 1), -0.5)):
            assert_matches_oracle([f], [z], [[[f]], [[z]], [[f]]], beta, w, 2)
            with pytest.raises(ResonanceError):
                solve_L2([f], [z], beta, w, 2)

    def test_determinant_bound(self):
        # omega = (1, 0.6) checked to K = 1 allows nu_max(beta) <= 0.18, but
        # |<omega, k>|^2 is 0.16 at k = (1, -1) and 0.04 at k = (1, -2):
        # entry 1 (0.17) breaks the bound at the first, entry 0 (0.03) at the
        # second; the (j, a, k) walk meets (1, -1) first
        gr = Grading(d=2, l=1, K_q=3, K_phi=1, D=3)
        w = DiophantineWitness(np.array([1.0, 0.6]), 0.1, 0.5, 3)
        a0, a1 = (0, 0, 0, 0), (1, 0, 0, 0)
        f = self.modes(gr, [((0,), (1, -2), a1), ((0,), (1, -1), a0)])
        z = FTSeries.zero(gr, 1.0, 1.0)
        beta = np.array([[[0.03]], [[0.17]], [[-0.5]]])
        for b in (beta, beta[0], beta[1]):
            assert_matches_oracle([f], [z], [[[f]], [[z]], [[f]]], b, w, 1)
        with pytest.raises(SolverPreconditionError, match="k=\\(1, -1\\)") \
                as err:
            solve_L2([f], [z], beta, w, 1)
        assert err.value.entry == 1

    def test_stacked_entry_violation(self):
        gr = Grading(d=1, l=2, K_q=2, K_phi=1, D=3)
        w = shape_witness(1)
        f = self.modes(gr, [((0, 0), (1,), (0,) * gr.nz)])
        z = FTSeries.zero(gr, 1.0, 1.0)
        ok = np.diag([0.1, -0.2])
        for bad in (np.array([[0.1, 0.3], [0.0, 0.1]]),   # not symmetric
                    np.diag([1.5, 0.0])):                   # ||beta|| > 1
            beta = np.stack([ok, ok, bad])
            assert_matches_oracle([f, z], [z, f], [[[z, z], [z, z]]] * 3,
                                  beta, w, 2)
            with pytest.raises(SolverPreconditionError) as err:
                solve_L2([f, z], [z, f], beta, w, 2)
            assert err.value.entry == 2


# -- L2's precondition against its SVD version (smalldiv_oracle.check_beta) --

# omega = (1, 0.6) checked to K = 1 allows nu_max(beta) <= 0.18 < 1, so both
# of L2's bounds can be met and missed
EDGE_WITNESS = DiophantineWitness(np.array([1.0, 0.6]), 0.1, 0.5, 1)
EDGE_LIM = 0.5 * EDGE_WITNESS.min_divisor_sq(1)
# norms some way off each side of the 1 + 1e-12 edge (far beyond the
# rounding of an eigenvalue), and nu at and around the divisor bound
edge_eig = st.one_of(
    st.sampled_from([s * (1.0 + 1e-12 + o) for s in (-1.0, 1.0)
                     for o in (-1e-3, -1e-11, -1e-13, 1e-13, 1e-11, 1e-3)]),
    st.sampled_from([EDGE_LIM + o for o in (-1e-14, -1e-15, 0.0, 1e-15,
                                            2e-15, 1e-14)]),
    st.floats(-1.1, 1.1))


@st.composite
def symmetric_betas(draw):
    """One exactly symmetric l x l matrix (l = 1 or 2) or a stack of 1 to 4
    of them, with eigenvalues near L2's bounds."""
    l = draw(st.sampled_from([1, 2]))

    def one():
        w = np.diag(draw(st.lists(edge_eig, min_size=l, max_size=l)))
        t = draw(st.floats(0, np.pi))
        V = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) \
            if l == 2 else np.eye(1)
        b = V @ w @ V.T
        return 0.5 * (b + b.T)
    n = draw(st.integers(0, 4))
    return np.stack([one() for _ in range(n)]) if n else one()


class TestCheckBeta:
    @settings(max_examples=300, deadline=None)
    @given(symmetric_betas())
    def test_matches_svd_oracle(self, beta):
        # the same pass or fail, first failing entry and message
        # _check_beta returns a _CheckedBeta; the oracle beta alone
        got, err = outcome(lambda *a: _check_beta(*a).beta, beta,
                           EDGE_WITNESS, 1)
        want, err_old = outcome(smalldiv_oracle.check_beta, beta,
                                EDGE_WITNESS, 1)
        assert err == err_old
        if got is not None:
            assert np.array_equal(got, want)

    def test_takes_no_svd(self, monkeypatch):
        def svd_norm(*args, **kwargs):
            raise AssertionError("np.linalg.norm called")
        monkeypatch.setattr(np.linalg, "norm", svd_norm)
        beta = np.stack([np.diag([0.1, -0.2]), np.diag([-1.5, 0.0])])
        with pytest.raises(SolverPreconditionError,
                           match=r"need \|\|beta\|\| <= 1 \(stack entry 1\)"):
            _check_beta(beta, EDGE_WITNESS, 1)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_refuses_an_infinite_entry(self, value):
        # its eigenvalues come out NaN, which every bound would let pass
        bad = np.array([[value, 0.0], [0.0, 0.1]])
        ok = np.diag([0.1, -0.2])
        for beta, want in (
                (bad, (None, "L2: beta must be finite")),
                (np.stack([ok, ok, bad, bad]),
                 (2, "L2: beta must be finite (stack entry 2)"))):
            for check in (_check_beta, smalldiv_oracle.check_beta):
                assert outcome(check, beta, EDGE_WITNESS, 1) == \
                    (None, (SolverPreconditionError,) + want)

    def test_checked_beta_is_checked_again_for_another_K(self):
        # 0.1 <= 0.5 * 0.6^2 for |k|_1 <= 1, but not 0.5 * 0.4^2 at k = (1, -1)
        w = DiophantineWitness(np.array([1.0, 0.6]), 0.1, 0.5, 3)
        checked = _check_beta(np.array([[0.1]]), w, 1)
        assert _check_beta(checked, w, 1) is checked
        gr = Grading(d=2, l=1, K_q=3, K_phi=1, D=3)
        f = FTSeries(gr, 1.0, 1.0, {((0,), (1, 0), (0, 0, 0, 0)): 1.0},
                     _raw=True)
        solve_L2([f], [f], checked, w, 1)
        with pytest.raises(SolverPreconditionError, match=r"nu_max"):
            solve_L2([f], [f], checked, w, 2)


# -- one piece of per-point linear algebra per solve --

# omega = 3 checked to K = 1 allows nu_max(beta) <= 4.5, so every beta with
# ||beta|| <= 1 passes L2's precondition
WIDE_WITNESS = DiophantineWitness(np.array([3.0]), 1.0, 0.5, 1)


def orthogonal(draw, l):
    a = np.array(draw(st.lists(st.floats(-1, 1, allow_subnormal=False),
                               min_size=l * l, max_size=l * l))).reshape(l, l)
    return np.linalg.qr(a + 3 * np.eye(l))[0]


@st.composite
def det_cases(draw):
    """A symmetric beta, one l x l matrix (l = 1, 2, 3) or a stack of 1 to 3,
    each with largest eigenvalue w_max >= 0.05, and divisors: drawn ones,
    sqrt(w_max) of each matrix (below L2's bound there) and one above the
    bound for every matrix."""
    l = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(0, 3))

    def one():
        w = draw(st.lists(st.floats(-1, 1, allow_subnormal=False),
                          min_size=l - 1, max_size=l - 1))
        w = np.array([draw(st.floats(0.05, 1))] + w)
        V = orthogonal(draw, l)
        b = V @ np.diag(w) @ V.T
        # np.linalg.det (the reference) turns a subnormal entry beside a
        # zero pivot into NaN
        b[np.abs(b) < 1e-300] = 0.0
        return 0.5 * (b + b.T), w.max()
    mats = [one() for _ in range(max(n, 1))]
    beta = np.stack([b for b, _ in mats]) if n else mats[0][0]
    near = [math.sqrt(w) for _, w in mats]
    far = 2 * math.sqrt(max(np.abs(np.linalg.eigvalsh(b)).max()
                            for b, _ in mats)) + 0.1
    drawn = draw(st.lists(st.floats(0.01, 2), max_size=3))
    return beta, np.array(near + [far] + drawn), len(near)


class TestL2DeterminantClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(det_cases())
    def test_matches_numpy_det(self, case):
        beta, dots, n_near = case
        l = beta.shape[-1]
        w = _check_beta(beta, WIDE_WITNESS, 1).w
        zero, eye = np.zeros(beta.shape), np.broadcast_to(np.eye(l),
                                                          beta.shape)
        C = np.block([[zero, -beta], [eye, zero]])
        want = np.stack([np.abs(np.linalg.det(C + 1j * dot * np.eye(2 * l)))
                         for dot in dots])
        # the identity the bound reads: |det| = prod_i |dot^2 - w_i|
        got = np.prod(np.abs((dots * dots).reshape(
            (-1,) + (1,) * w.ndim) - w), axis=-1)
        assert got.shape == want.shape == (len(dots),) + beta.shape[:-2]
        # rounding of a 2l x 2l determinant against the size of its factors
        scale = np.prod(dots[:, None] ** 2 + np.abs(w.reshape(-1, l))
                        .max(axis=0), axis=-1).reshape(
                            (-1,) + (1,) * (beta.ndim - 2))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        below = np.stack([_below_det_bound(w, dot) for dot in dots])
        bound = ((1 - 1e-9) * 2.0 ** -l * np.abs(dots) ** (2 * l)).reshape(
            (-1,) + (1,) * (beta.ndim - 2))
        clear = np.abs(want - bound) > 1e-6 * bound
        assert np.array_equal(below[clear], (want < bound)[clear])
        # each matrix is below the bound at its own sqrt(w_max), and every
        # one is above it at the far divisor
        entries = below[:n_near].reshape(n_near, n_near)
        assert np.diagonal(entries).all()
        assert not below[n_near].any()


LINALG = ("eigvalsh", "eigh", "eigvals", "eig", "svd", "cond", "qr",
          "cholesky", "inv", "pinv", "slogdet", "matrix_rank", "lstsq",
          "solve")


def spy_linalg(monkeypatch):
    """A list that records, in call order, the name and the shape of the
    first argument of every numpy.linalg decomposition or solve (LINALG)
    called while monkeypatch's patches hold; np.linalg.det fails."""
    calls = []

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapped

    def no_det(*args, **kwargs):
        raise AssertionError("np.linalg.det called")
    for name in LINALG:
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg,
                                                               name)))
    monkeypatch.setattr(np.linalg, "det", no_det)
    return calls


def solve_with_spies(monkeypatch, problem, size):
    """Run solve_cohomological on problem() over a size x size grid and
    return (the name and the shape of the argument of every numpy.linalg
    decomposition call, in call order, the shapes of the matrices
    np.linalg.solve received outside the slot solves, and per slot solve
    (_solve_modes call) its number of k != 0 slots, its n and the shapes of
    the matrices it solved with)."""
    from kamtori.engine import solve_cohomological
    N, f, phix, wit = problem()
    calls = spy_linalg(monkeypatch)
    stages = []
    solve_modes = smalldiv._solve_modes

    def stage(witness, plan, slots, b, C, *args):
        before = len(calls)
        out = solve_modes(witness, plan, slots, b, C, *args)
        stages.append((int(np.count_nonzero(
            plan.K.norm[plan.split(slots)[1]])), C.shape[-1],
            [shape for _, shape in calls[before:]]))
        del calls[before:]
        return out
    monkeypatch.setattr(smalldiv, "_solve_modes", stage)
    solve_cohomological(N, f, phix, wit, sigma=0.025, delta=0.1,
                        delta_plus=0.03, grid_size=size)
    return ([call for call in calls if call[0] != "solve"],
            [shape for name, shape in calls if name == "solve"], stages)


def spy_equal_stack(monkeypatch):
    """The shapes of the stacks _equal_stack is handed, in call order."""
    compared = []

    def compare(stack):
        compared.append(stack.shape)
        return _equal_stack(stack)
    for module in (smalldiv, normalform, cohom):
        monkeypatch.setattr(module, "_equal_stack", compare)
    return compared


def test_one_decomposition_per_solve(monkeypatch):
    # the benchmark's l2-cohom workload, solved on a 32 x 32 grid: its beta,
    # and with it every per-point matrix, is the same at every point, so
    # each decomposition runs once, on a stack of one, and none on a stack
    # of the 1024 points: beta's one eigh (which the sublevel refusal, L2's
    # check of beta, both C(beta) and L3's zero modes read), then the
    # counter-term condition number (an SVD)
    compared = spy_equal_stack(monkeypatch)
    calls, shapes, stages = solve_with_spies(
        monkeypatch, l2_nonzero_beta_problem, 32)
    assert calls == [("eigh", (1, 2, 2)), ("cond", (1, 5, 5))]
    # beta's (B, l, l) stack is compared once per solve, the counter-term
    # systems once, and no slot solve's C(beta)
    assert compared == [(32 * 32, 2, 2), (32 * 32, 5, 5)]
    # four L2 solves (n = 4) and one L3 (n = 10)
    assert [n for _, n, _ in stages] == [4, 4, 4, 10, 4]
    assert sum(count for count, _, _ in stages) == 8
    # one (n, n) matrix per k != 0 slot
    for count, n, solved in stages:
        assert solved == [(n, n)] * count
    # the counter-term system is still solved point by point, in one call
    assert shapes == [(32 * 32, 5, 5)]


def test_varying_beta_solves_entry_by_entry(monkeypatch):
    # beta depends on phi: every slot solve takes the (B, n, n) stack,
    # which its length marks as varying, without a compare of its own
    compared = spy_equal_stack(monkeypatch)
    _, shapes, stages = solve_with_spies(
        monkeypatch, l2_varying_tuple_problem, 16)
    assert compared == [(16 * 16, 2, 2), (16 * 16, 5, 5)]
    assert shapes == [(16 * 16, 5, 5)]
    assert sum(count for count, _, _ in stages) > 0
    for count, n, solved in stages:
        assert solved == [(16 * 16, n, n)] * count


# -- one factorization per slot for a stack of equal matrices --

SLOT_WITNESS = effective_diophantine_constant([GOLDEN], 0.5, 2)


def shifted_inputs(n, nb, scale, seed):
    """(plan, slots, b, C) for _solve_modes on d = l = 1: four slots at
    k = 1, -2, 0, 2, right-hand sides of size scale and a stack of nb copies
    of one real n x n matrix."""
    plan = smalldiv._plan(Grading(d=1, l=1, K_q=2, K_phi=1, D=3))
    ik = np.array([plan.K.index[(k,)] for k in (1, -2, 0, 2)])
    slots = plan.code(np.zeros(4, dtype=int), ik, np.zeros(4, dtype=int))
    rng = np.random.default_rng(seed)
    C = np.broadcast_to(rng.normal(size=(n, n)), (nb, n, n)).copy()
    b = scale * (rng.normal(size=(4, nb, n)) + 1j * rng.normal(size=(4, nb, n)))
    return plan, slots, b, C


def per_entry(plan, slots, b, C):
    """The per-entry solve: each k != 0 row of b by the stack
    C + i<omega, k> I, one system per entry."""
    out = b.copy()
    for n, ik in enumerate(plan.split(slots)[1]):
        if plan.K.norm[ik]:
            dot = float(np.dot(SLOT_WITNESS.omega, plan.K.keys[ik]))
            M = C + 1j * dot * np.eye(C.shape[-1])
            out[n] = np.linalg.solve(M, out[n][..., None])[..., 0]
    return out


def solved_shapes(monkeypatch, *args):
    """(_solve_modes' result on args, the shapes of the matrices it handed
    np.linalg.solve)."""
    shapes, solve = [], np.linalg.solve

    def spy(a, *rest):
        shapes.append(np.shape(a))
        return solve(a, *rest)
    monkeypatch.setattr(np.linalg, "solve", spy)
    return smalldiv._solve_modes(SLOT_WITNESS, *args, "L2"), shapes


class TestOneFactorizationPerSlot:
    """The byte equality rests on LAPACK's many-right-hand-side solve
    repeating the rounding of the single solves, as it does on OpenBLAS
    0.3.31 (Haswell kernels), like tests/test_tiled_kernels.py's."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 4, 6, 10, 21]),
           st.sampled_from([1, 2, 25, 1024]), st.floats(-20, 0),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_per_entry_solve(self, n, nb, log_scale, seed):
        # the equal stack of nb copies, carried as its stack of one
        plan, slots, b, C = shifted_inputs(n, nb, 10.0 ** log_scale, seed)
        want = per_entry(plan, slots, b, C)
        got = smalldiv._solve_modes(SLOT_WITNESS, plan, slots, b.copy(),
                                    C[:1], "L2")
        assert got.tobytes() == want.tobytes()

    def test_one_matrix_per_slot(self, monkeypatch):
        plan, slots, b, C = shifted_inputs(4, 25, 1.0, 3)
        want = per_entry(plan, slots, b, C)
        got, shapes = solved_shapes(monkeypatch, plan, slots, b, C[:1])
        assert shapes == [(4, 4)] * 3
        assert got.tobytes() == want.tobytes()

    def test_copies_are_not_compared(self, monkeypatch):
        # the length of C decides: 25 copies of one matrix are solved
        # entry by entry, with the same bytes
        plan, slots, b, C = shifted_inputs(4, 25, 1.0, 3)
        want = per_entry(plan, slots, b, C)
        monkeypatch.setattr(smalldiv, "_equal_stack", None)
        got, shapes = solved_shapes(monkeypatch, plan, slots, b, C)
        assert shapes == [(25, 4, 4)] * 3
        assert got.tobytes() == want.tobytes()

    def test_entry_one_ulp_off_solves_entry_by_entry(self, monkeypatch):
        plan, slots, b, C = shifted_inputs(4, 25, 1.0, 3)
        C[17, 2, 1] = np.nextafter(C[17, 2, 1], np.inf)
        want = per_entry(plan, slots, b, C)
        got, shapes = solved_shapes(monkeypatch, plan, slots, b, C)
        assert shapes == [(25, 4, 4)] * 3
        assert got.tobytes() == want.tobytes()

    def test_singular_equal_stack_names_entry_0(self):
        # beta = 0.09 makes L3's system singular at k = +-1 (TestSingularL3):
        # a stack of three such betas fails as the per-entry solve of a
        # stack whose entry 0 is singular does
        _, _, d3 = many_slot_inputs()
        errors = []
        for beta in (np.full((3, 1, 1), 0.09),
                     np.array([[[0.09]], [[0.01]], [[-0.2]]])):
            with pytest.raises(SolverPreconditionError) as err:
                solve_L3(*d3, beta, TestSingularL3.WITNESS)
            errors.append((str(err.value), err.value.entry))
        assert errors[0] == errors[1] == (
            "L3: singular shifted system at k=(-1,) (stack entry 0)", 0)


def many_slot_inputs():
    """d = 1, l = 1 right-hand sides over several slots, in the (j, a, k)
    order: good slots at j = 0, then (at a1) k = -1 and k = 1, where beta =
    0.09 makes L3's shifted system singular at omega = 0.6."""
    gr = Grading(d=1, l=1, K_q=2, K_phi=1, D=3)
    a0, a1 = (0, 0, 0), (1, 0, 0)
    keys = [((0,), (k,), a) for a in (a0,) for k in (-2, 2)] + \
        [((1,), (k,), a1) for k in (-2, 2, -1, 1)]
    f = FTSeries(gr, 1.0, 1.0, {key: np.array([1.0 + 0.5j, -2.0, 0.25j])
                                for key in keys}, _raw=True)
    z = FTSeries.zero(gr, 1.0, 1.0)
    return [f], [f], [[[f]], [[z]], [[f]]]


class TestSingularL3:
    WITNESS = effective_diophantine_constant([0.6], 0.5, 2)

    def test_names_k_and_entry(self):
        # L2's precondition holds (0.09 <= 0.5 * 0.6^2 = 0.18), but
        # 4 beta = <omega, k>^2 at k = +-1 is a second-order resonance of L3
        b_x, b_y, d3 = many_slot_inputs()
        beta = np.array([[[0.01]], [[0.09]], [[-0.2]]])
        solve_L2(b_x, b_y, beta, self.WITNESS, 2)
        with pytest.raises(SolverPreconditionError,
                           match=r"L3: singular shifted system at "
                                 r"k=\(-?1,\) \(stack entry 1\)") as err:
            solve_L3(*d3, beta, self.WITNESS)
        assert err.value.entry == 1
        assert_matches_oracle(b_x, b_y, d3, beta, self.WITNESS, 2)

    def test_first_failing_slot_raises(self):
        # the failing slots come after good ones in the (j, a, k) order
        b_x, b_y, d3 = many_slot_inputs()
        for beta in (np.array([[[0.01]], [[0.09]], [[-0.2]]]),
                     np.array([[[0.01]], [[0.05]], [[-0.2]]])):
            assert_matches_oracle(b_x, b_y, d3, beta, self.WITNESS, 2)
        # L2's determinant bound (test_determinant_bound) fails at the
        # third slot, for entry 2, after two good ones at j = 0
        w = DiophantineWitness(np.array([1.0, 0.6]), 0.1, 0.5, 3)
        gr = Grading(d=2, l=1, K_q=3, K_phi=1, D=3)
        a0, a1 = (0, 0, 0, 0), (1, 0, 0, 0)
        f = FTSeries(gr, 1.0, 1.0, {key: 1.0 + 0.5j for key in [
            ((0,), (1, 0), a0), ((0,), (0, 1), a0), ((1,), (1, -1), a0),
            ((1,), (1, -2), a1)]}, _raw=True)
        z = FTSeries.zero(gr, 1.0, 1.0)
        beta = np.array([[[0.03]], [[-0.5]], [[0.17]]])
        assert_matches_oracle([f], [z], [[[f]], [[z]], [[f]]], beta, w, 1)
        with pytest.raises(SolverPreconditionError,
                           match=r"k=\(1, -1\) \(stack entry 2\)"):
            solve_L2([f], [z], beta, w, 1)


# -- one decomposition per stack of equal matrices --

@contextlib.contextmanager
def per_point():
    """Every equal-stack site on its per-point path: _equal_stack hands
    back the stack it is given, in each module that reads it."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (smalldiv, normalform, cohom):
            mp.setattr(module, "_equal_stack", lambda stack: stack)
        yield


def as_bytes(x):
    """x by its bytes: an array's with its shape and dtype, a series' slot
    arrays with its radii and loss, a float's hex, item by item through
    lists and tuples."""
    if x is None:
        return None
    if isinstance(x, FTSeries):
        return [as_bytes(getattr(x, key)) for key in ("ij", "ik", "it", "coef")
                ] + [as_bytes(v) for v in (x.r, x.s, x.trunc_loss)]
    if isinstance(x, (list, tuple)):
        return [as_bytes(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, x.tobytes()
    return float(x).hex()


def assert_same_bytes(fn, *args):
    """fn(*args) gives the bytes, or fails with the message, that it gives
    on the per-point path."""
    got, err = outcome(fn, *args)
    with per_point():
        want, err_want = outcome(fn, *args)
    assert err == err_want
    assert as_bytes(got) == as_bytes(want)


def copies(m, nb):
    """A stack of nb copies of the matrix m."""
    return np.broadcast_to(m, (nb,) + m.shape).copy()


def batched_rhs(gr, nb, rng, count):
    """count series on gr (d = 1), each with six random slots over two
    parameter modes, every angle mode |k| <= 2 (the zero mode among them)
    and two Taylor indices, whose coefficients hold nb independent
    entries."""
    js = [(0,) * gr.l, (1,) + (0,) * (gr.l - 1)]
    alphas = [(0,) * gr.nz, (1,) + (0,) * (gr.nz - 1)]
    keys = [(j, (k,), a) for j in js for k in range(-2, 3) for a in alphas]
    out = []
    for _ in range(count):
        at = rng.choice(len(keys), 6, replace=False)
        out.append(FTSeries(gr, 1.0, 1.0, {
            keys[n]: rng.normal(size=nb) + 1j * rng.normal(size=nb)
            for n in at}, _raw=True))
    return out


def batched_l3_rhs(gr, nb, rng):
    """d_xx, d_yy, d_xy for solve_L3: l x l matrices of batched_rhs
    series."""
    l = gr.l
    b = batched_rhs(gr, nb, rng, 3 * l * l)
    return [[b[(m * l + i) * l:(m * l + i + 1) * l] for i in range(l)]
            for m in range(3)]


STACK_SIZES = st.sampled_from([1, 2, 32, 1024])
SEEDS = st.integers(0, 2 ** 32 - 1)
L2_CAP = 0.5 * SLOT_WITNESS.min_divisor_sq(2)


class TestOneDecompositionPerEqualStack:
    """Each site that decomposes or builds a per-point matrix does so once
    for a stack of equal ones, and the result broadcast back to every point
    has the bytes of the per-point path (here on OpenBLAS 0.3.31, Haswell
    kernels, like TestOneFactorizationPerSlot's)."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 7), STACK_SIZES, st.sampled_from([0, 0, 9]), SEEDS)
    def test_counter_term_condition(self, n, nb, ill, seed):
        # a column scaled by 1e-9 puts some systems past COND_CAP
        m = np.random.default_rng(seed).normal(size=(n, n))
        m[:, 0] *= 10.0 ** -ill
        assert_same_bytes(cohom._condition, copies(m, nb), np.arange(nb))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), STACK_SIZES, st.sampled_from([1.0, 1.0, 2.0]),
           SEEDS)
    def test_beta_check_eigenvalues(self, l, nb, scale, seed):
        # scale 2 breaks ||beta|| <= 1
        beta = scale * make_beta(np.random.default_rng(seed), l, 4.5)
        assert_same_bytes(lambda b: _check_beta(b, WIDE_WITNESS, 1).w,
                          copies(beta, nb))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), STACK_SIZES, SEEDS)
    def test_nu_max(self, l, nb, seed):
        m = np.random.default_rng(seed).normal(size=(l, l))
        assert_same_bytes(nu_max, copies(m, nb))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 2), STACK_SIZES, SEEDS)
    def test_solve_L2(self, l, nb, seed):
        rng = np.random.default_rng(seed)
        gr = Grading(d=1, l=l, K_q=2, K_phi=1, D=3)
        b = batched_rhs(gr, nb, rng, 2 * l)
        beta = copies(make_beta(rng, l, L2_CAP), nb)
        assert_same_bytes(solve_L2, b[:l], b[l:], beta, SLOT_WITNESS, 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 2), STACK_SIZES, st.booleans(), SEEDS)
    def test_solve_L3(self, l, nb, degenerate, seed):
        # a multiple of the identity leaves an obstruction at l = 2
        rng = np.random.default_rng(seed)
        d3 = batched_l3_rhs(Grading(d=1, l=l, K_q=2, K_phi=1, D=3), nb, rng)
        beta = 0.3 * np.eye(l) if degenerate else make_beta(rng, l, L2_CAP)
        assert_same_bytes(solve_L3, *d3, copies(beta, nb), SLOT_WITNESS)

    def test_obstruction_is_covered(self):
        # test_solve_L3's degenerate beta reads a nonzero obstruction
        gr = Grading(d=1, l=2, K_q=2, K_phi=1, D=3)
        z = FTSeries.zero(gr, 1.0, 1.0)
        xy = FTSeries(gr, 1.0, 1.0, {((0, 0), (0,), (0,) * gr.nz):
                                     np.full(32, 1.0 + 0j)}, _raw=True)
        d3 = [[[z, z], [z, z]], [[z, z], [z, z]], [[z, xy], [z, z]]]
        got = solve_L3(*d3, copies(0.3 * np.eye(2), 32), SLOT_WITNESS)
        assert got[3] == 0.5
        assert_same_bytes(solve_L3, *d3, copies(0.3 * np.eye(2), 32),
                          SLOT_WITNESS)

    @pytest.mark.parametrize("ulp", [False, True])
    def test_one_ulp_off_stays_per_point(self, monkeypatch, ulp):
        # 32 copies of beta and of a counter-term system; with one entry of
        # one copy moved by an ulp, every site decomposes, builds and solves
        # the whole stack
        rng = np.random.default_rng(5)
        nb, l = 32, 2
        gr = Grading(d=1, l=l, K_q=2, K_phi=1, D=3)
        beta = copies(make_beta(rng, l, L2_CAP), nb)
        Sys = copies(rng.normal(size=(5, 5)), nb)
        if ulp:
            beta[17, 1, 1] = np.nextafter(beta[17, 1, 1], np.inf)
            Sys[17, 2, 1] = np.nextafter(Sys[17, 2, 1], np.inf)
        b = batched_rhs(gr, nb, rng, 2 * l)
        d3 = batched_l3_rhs(gr, nb, rng)
        calls = spy_linalg(monkeypatch)
        nu_max(beta)
        cohom._condition(Sys, np.arange(nb))
        solve_L2(b[:l], b[l:], beta, SLOT_WITNESS, 2)
        n_L2 = len(calls)
        solve_L3(*d3, beta, SLOT_WITNESS)
        lead = (nb,) if ulp else (1,)
        # L2's check of beta decomposes it by eigh, as L3 does
        decomposed = [("eigvalsh", lead + (2, 2)), ("cond", lead + (5, 5)),
                      ("eigh", lead + (2, 2))]
        assert [c for c in calls[:n_L2] if c[0] != "solve"] == decomposed
        assert [c for c in calls[n_L2:] if c[0] != "solve"] == \
            [("eigh", lead + (2, 2))]
        # each k != 0 slot: one system for every point, or one per point
        per = (nb,) if ulp else ()
        solved = [shape for name, shape in calls if name == "solve"]
        in_L2 = sum(name == "solve" for name, _ in calls[:n_L2])
        assert 0 < in_L2 < len(solved)
        assert solved == [per + (4, 4)] * in_L2 \
            + [per + (10, 10)] * (len(solved) - in_L2)

    def test_ill_conditioned_equal_stack_names_point_0(self):
        # an equal stack past COND_CAP fails at grid point 0, with the cond
        # and the text of the per-point path
        pts = phi_grid(2, 4)
        m = np.eye(5)
        m[3, 3] = 1e-9
        Sys = copies(m, len(pts))
        with pytest.raises(cohom.CohomologyError) as err:
            cohom._condition(Sys, pts)
        assert str(err.value) == (
            "counter-term linear system ill-conditioned (cond %.3g) (at "
            "parameter grid point %s)" % (np.linalg.cond(Sys)[0], pts[0]))
        assert_same_bytes(cohom._condition, Sys, pts)

    def test_equal_means_the_same_bytes(self):
        # 0.0 and -0.0 compare equal but are different bytes; a nan has
        # the bytes of a nan
        stack = np.zeros((3, 2, 2))
        assert _equal_stack(stack).shape == (1, 2, 2)
        stack[2, 0, 1] = -0.0
        assert _equal_stack(stack) is stack
        assert _equal_stack(np.full((3, 2), np.nan)).shape == (1, 2)
