"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from kamtori.engine import compute_zeta, find_torus, iterate
from kamtori.engine.driver import IterateConfig, IterationState, c2_norm
from kamtori.normalform import (assemble_hamiltonian, bump_psi, initial_tuple,
                                phi_grid)
from kamtori.series import (FTSeries, Grading, average_q,
                            ck_norm_estimate, partial_omega,
                            truncate_fourier)
from kamtori.smalldiv import (effective_diophantine_constant, solve_L1,
                              solve_L2, solve_L3)
from kamtori.symplectic import (GeneratingFunction, map_from_generator,
                                reduce_coordinates, sigma_cos,
                                unimodular_completion)
from identity_checks import check_alpha_gradient, check_beta_relation
from test_engine import flagship_problem, q_coupled_problem

GOLDEN = (1 + math.sqrt(5)) / 2
EPS = 1e-4


def report(num, ok, text):
    print("\n[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, text))
    assert ok, "criterion %d failed: %s" % (num, text)


def _full_pipeline(N0, f0, target_tol=1e-12, grid_n=64):
    state, hist = iterate(N0, f0, IterateConfig(target_tol=target_tol))
    phi0, info, torus, residual = find_torus(
        state, assemble_hamiltonian(N0) + f0, grid_n)
    return state, hist, phi0, info, torus, residual


@pytest.fixture(scope="module")
def flagship_pipeline():
    t0 = time.time()
    gr, N0, f0 = flagship_problem()
    out = _full_pipeline(N0, f0)
    return (gr, N0, f0) + out + (time.time() - t0,)


def test_criterion_1_flagship(flagship_pipeline):
    gr, N0, f0, state, hist, phi0, info, torus, residual, elapsed = \
        flagship_pipeline
    dist0 = min(phi0[0] % (2 * math.pi), 2 * math.pi - phi0[0] % (2 * math.pi))
    ok = dist0 <= 1e-6 and residual <= 1e-8 and elapsed <= 60.0
    report(1, ok, "flagship run: |phi0 mod 2pi| = %.3g (<= 1e-6), "
                  "invariance residual = %.3g (<= 1e-8), %.1f s (<= 60 s)"
           % (dist0, residual, elapsed))


def test_criterion_2_contraction(flagship_pipeline):
    gr, N0, f0, state, hist, phi0, info, torus, residual, elapsed = \
        flagship_pipeline
    norms = [c2_norm(f0)] + [row["f_norm"] for row in hist["steps"]
                             if row.get("step_ok", True)]
    floor = 1e-250
    exponents = []
    for a, b in zip(norms, norms[1:]):
        if a <= floor or a >= 1.0:
            continue
        exponents.append(math.inf if b <= floor
                         else math.log(b) / math.log(a))
    exponents = exponents[:3]
    worst = min(exponents) if exponents else math.inf
    shown = ["%.2f" % e if math.isfinite(e) else "inf (exact absorption)"
             for e in exponents]
    ok = worst >= 1.4
    report(2, ok, "contraction exponents over first steps: [%s], min %s >= 1.4"
           % (", ".join(shown), "inf" if not math.isfinite(worst)
              else "%.2f" % worst))


def _operator_matrix(apply_op, gradings_keys, g, r=1.0, s=1.0):
    """Dense matrix of apply_op over the (component, key) unknowns; image
    terms outside gradings_keys are dropped."""
    row = {key: idx for idx, key in enumerate(gradings_keys)}
    A = np.zeros((len(gradings_keys),) * 2, dtype=complex)
    for col, key in enumerate(gradings_keys):
        basis = FTSeries(g, r, s, {key[1]: 1.0}, _raw=True)
        for comp_idx, series in enumerate(apply_op(key[0], basis)):
            for other, c in series.terms.items():
                idx = row.get((comp_idx, other))
                if idx is not None:
                    A[idx, col] += c
    return A


def _random_trig(g, rng, K, scale=1.0):
    terms = {}
    for _ in range(6):
        k = tuple(int(rng.integers(-K, K + 1)) for _ in range(g.d))
        if sum(abs(v) for v in k) == 0 or sum(abs(v) for v in k) > K:
            continue
        c = complex(rng.standard_normal(), rng.standard_normal()) * scale
        terms[((0,) * g.l, k, (0,) * g.nz)] = \
            terms.get(((0,) * g.l, k, (0,) * g.nz), 0.0) + c
        mk = tuple(-v for v in k)
        terms[((0,) * g.l, mk, (0,) * g.nz)] = \
            terms.get(((0,) * g.l, mk, (0,) * g.nz), 0.0) + np.conj(c)
    return FTSeries(g, 1.0, 1.0, terms)


def _admissible_omega(rng, d):
    if d == 1:
        return np.array([GOLDEN * rng.uniform(0.5, 1.5)])
    return np.array([1.0, GOLDEN]) * rng.uniform(0.5, 1.5)


def _sym_beta(rng, l, cap):
    B = rng.standard_normal((l, l))
    B = 0.5 * (B + B.T)
    B /= max(1.0, np.linalg.norm(B, 2) * (1 + rng.uniform(0.1, 1.0)))
    nu = np.linalg.eigvalsh(B)[-1]
    if nu > cap:
        B -= (nu - 0.5 * cap) * np.eye(l)
        B /= max(1.0, np.linalg.norm(B, 2) * 1.01)
    return B


@pytest.mark.slow
def test_criterion_3_solver_oracle_equivalence():
    rng = np.random.default_rng(31)
    t0 = time.time()
    worst = {"L1": 0.0, "L2": 0.0, "L3": 0.0}
    for trial in range(100):
        d = int(rng.integers(1, 3))
        l = int(rng.integers(1, 3))
        K = int(rng.integers(2, 9)) if d == 1 else int(rng.integers(2, 5))
        g = Grading(d=d, l=l, K_q=K, K_phi=0, D=3)
        omega = _admissible_omega(rng, d)
        wit = effective_diophantine_constant(omega, 0.5, K)
        modes = [k for k in itertools.product(range(-K, K + 1), repeat=d)
                 if 0 < sum(abs(v) for v in k) <= K]
        za = (0,) * g.nz
        zj = (0,) * g.l
        mkey = lambda k: (zj, k, za)

        # L1 against the dense diagonal operator
        v = _random_trig(g, rng, K)
        keys = [(0, mkey(k)) for k in modes]
        A = _operator_matrix(lambda ci, b: [partial_omega(b, omega)], keys, g)
        rhs = np.array([(v - average_q(v)).terms.get(kk[1], 0.0)
                        for kk in keys])
        dense = np.linalg.solve(A, rhs)
        u = solve_L1(v, wit)
        mine = np.array([u.terms.get(kk[1], 0.0) for kk in keys])
        scale = max(1.0, np.max(np.abs(dense)))
        worst["L1"] = max(worst["L1"], float(np.max(np.abs(mine - dense))) / scale)

        # L2 against the dense coupled operator over nonzero modes
        beta = _sym_beta(rng, l, 0.5 * wit.min_divisor_sq(K))
        bx = [_random_trig(g, rng, K) for _ in range(l)]
        by = [_random_trig(g, rng, K) for _ in range(l)]
        keys2 = [(ci, mkey(k)) for ci in range(2 * l) for k in modes]

        def op2(ci, b):
            out = [FTSeries.zero(g, 1, 1) for _ in range(2 * l)]
            if ci < l:        # a B_x component
                out[ci] = partial_omega(b, omega)
                out[l + ci] = out[l + ci] + b
            else:             # a B_y component
                i = ci - l
                out[l + i] = partial_omega(b, omega)
                for ii in range(l):
                    if beta[ii, i]:
                        out[ii] = out[ii] - b.scale(beta[ii, i])
            return out

        A2 = _operator_matrix(op2, keys2, g)
        rhs2 = np.array(
            [(bx[ci] - average_q(bx[ci])).terms.get(kk, 0.0)
             for ci in range(l) for (_, kk) in
             [(None, mkey(k)) for k in modes]]
            + [by[ci].terms.get(mkey(k), 0.0) for ci in range(l)
               for k in modes])
        dense2 = np.linalg.solve(A2, rhs2)
        Bx, By = solve_L2(bx, by, beta, wit, K)
        mine2 = np.array([Bx[ci].terms.get(mkey(k), 0.0) for ci in range(l)
                          for k in modes]
                         + [By[ci].terms.get(mkey(k), 0.0) for ci in range(l)
                            for k in modes])
        scale2 = max(1.0, np.max(np.abs(dense2)))
        worst["L2"] = max(worst["L2"],
                          float(np.max(np.abs(mine2 - dense2))) / scale2)

        # L3 against the dense symmetrized coupled-triple operator over
        # nonzero modes: the unknowns are the upper triangles of the
        # symmetric X and Y and every entry of Z; the first two equations
        # are read on their upper triangles, the third on every entry
        beta3 = _sym_beta(rng, l, 0.25 * wit.min_divisor_sq(K))
        mats = [[[_random_trig(g, rng, K) for _ in range(l)]
                 for _ in range(l)] for _ in range(3)]
        dxx, dyy, dxy = mats
        upper = [(i, j) for i in range(l) for j in range(i, l)]
        full = [(i, j) for i in range(l) for j in range(l)]
        slots3 = ([(0, ij) for ij in upper] + [(1, ij) for ij in upper]
                  + [(2, ij) for ij in full])
        keys3 = [(ci, mkey(k)) for ci in range(len(slots3)) for k in modes]
        zero = FTSeries.zero(g, 1, 1)

        def lin(*parts):
            """Entrywise sum of c * m over the (c, series matrix) parts."""
            return [[sum((m[i][j].scale(c) for c, m in parts
                          if not m[i][j].is_zero()), zero)
                     for j in range(l)] for i in range(l)]

        def beta_times(m):
            """beta3 @ m for a matrix of series."""
            return [[sum((m[t][j].scale(beta3[i, t]) for t in range(l)
                          if not m[t][j].is_zero()), zero)
                     for j in range(l)] for i in range(l)]

        transpose = lambda m: [list(col) for col in zip(*m)]

        def op3(ci, b):
            blk, (i, j) = slots3[ci]
            U = [[[zero] * l for _ in range(l)] for _ in range(3)]
            U[blk][i][j] = b
            if blk < 2:       # X and Y are symmetric
                U[blk][j][i] = b
            X, Y, Z = U
            dom = lambda m: [[partial_omega(e, omega) for e in row]
                             for row in m]
            ZT = transpose(Z)
            # Z beta = (beta Z^T)^T, beta being symmetric
            bZT = beta_times(ZT)
            e1 = lin((1.0, dom(X)), (-1.0, bZT), (-1.0, transpose(bZT)))
            e2 = lin((1.0, dom(Y)), (1.0, Z), (1.0, ZT))
            e3 = lin((1.0, dom(Z)), (-1.0, beta_times(Y)), (1.0, X))
            return [[e1, e2, e3][bk][ii][jj] for bk, (ii, jj) in slots3]

        A3 = _operator_matrix(op3, keys3, g)
        sym = lambda m, i, j, k: 0.5 * (m[i][j].terms.get(mkey(k), 0.0)
                                        + m[j][i].terms.get(mkey(k), 0.0))
        rhs3 = np.array([sym([dxx, dyy][bk], i, j, k) if bk < 2
                         else dxy[i][j].terms.get(mkey(k), 0.0)
                         for bk, (i, j) in slots3 for k in modes])
        dense3 = np.linalg.solve(A3, rhs3)
        Dxx, Dyy, Dxy, _obs = solve_L3(dxx, dyy, dxy, beta3[None], wit)
        got = lambda f, k: np.ravel(f.terms.get(mkey(k), 0.0))[0]
        mine3 = np.array([got([Dxx, Dyy, Dxy][bk][i][j], k)
                          for bk, (i, j) in slots3 for k in modes])
        scale3 = max(1.0, np.max(np.abs(dense3)))
        worst["L3"] = max(worst["L3"],
                          float(np.max(np.abs(mine3 - dense3))) / scale3)
    elapsed = time.time() - t0
    ok = all(w <= 1e-10 for w in worst.values()) and elapsed <= 30.0
    report(3, ok, "per-mode solvers vs dense solves on 100 random instances "
                  "each: max rel dev L1 %.2e, L2 %.2e, L3 %.2e, %.1f s (<= 30 s)"
           % (worst["L1"], worst["L2"], worst["L3"], elapsed))


def test_criterion_4_symplecticity():
    rng = np.random.default_rng(41)
    g = Grading(d=1, l=1, K_q=6, K_phi=4, D=4)
    worst = 0.0
    for _ in range(50):
        terms = {}
        for _ in range(5):
            j = (int(rng.integers(-2, 3)),)
            k = (int(rng.integers(-2, 3)),)
            alpha = [0, 0, 0]
            for _ in range(int(rng.integers(0, 3))):
                alpha[int(rng.integers(0, 3))] += 1
            c = complex(rng.standard_normal(), rng.standard_normal()) * 2e-5
            terms[(j, k, tuple(alpha))] = c
            terms[(tuple(-v for v in j), tuple(-v for v in k),
                   tuple(alpha))] = np.conj(c)
        F = FTSeries(g, 1.0, 1.0, terms)
        v = [FTSeries.constant(g, 1, 1, float(rng.standard_normal()) * 2e-5)]
        Phi = map_from_generator(GeneratingFunction(F, v), tol=1e-20)
        worst = max(worst, Phi.symp_residual)
    ok = worst <= 1e-8
    report(4, ok, "canonical bracket residual over 50 random generator flows: "
                  "max %.2e (<= 1e-8)" % worst)


def test_criterion_5_counterterm_gradient_identity():
    gr, N0, f0 = q_coupled_problem(EPS)   # q-dependent shift-built data
    state, hist = iterate(N0, f0, IterateConfig(n_max=1))
    zeta1 = compute_zeta(IterationState.start(N0, f0),
                         assemble_hamiltonian(N0) + f0)
    diag = check_alpha_gradient(state, zeta1, N0.beta, 1.0)
    ok = diag.alpha_grad_gap <= 1e-10
    report(5, ok, "first-order counter-term vs zeta gradient: max grid gap "
                  "%.2e (<= 1e-10), hessian gap %.2e"
           % (diag.alpha_grad_gap, diag.alpha_hess_gap))


def test_criterion_6_beta_relation_first_order(flagship_pipeline):
    gr, N0, f0, state, hist, phi0, info, torus, residual, elapsed = \
        flagship_pipeline
    diag = check_beta_relation(state, N0.beta, 1.0)
    ok = diag.beta_relation_gap <= 1e-8
    report(6, ok, "beta vs curvature relation at first order: residual %.2e "
                  "(<= 1e-8), |L - I| %.2e, |R^T - I| %.2e"
           % (diag.beta_relation_gap, diag.L_dev, diag.R_dev))


def test_criterion_7_truncation_certificate():
    rng = np.random.default_rng(71)
    g = Grading(d=1, l=1, K_q=20, K_phi=0, D=3)
    ok_all = True
    worst_lo, worst_hi = 1.0, 1.0
    for _ in range(20):
        rho = rng.uniform(1.15, 1.6)
        amp = rng.uniform(0.5, 2.0)
        terms = {}
        for n in range(1, 21):
            c = amp * math.exp(-rho * n) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            terms[((0,), (n,), (0, 0, 0))] = c
            terms[((0,), (-n,), (0, 0, 0))] = np.conj(c)
        f = FTSeries(g, 1.0, 1.0, terms, _raw=True)
        K = int(rng.integers(4, 11))
        sigma = rng.uniform(0.1, 0.4)
        out, bound = truncate_fourier(f, K, sigma)
        tail = f - out
        # measured tail: sup of |tail| on the strip of half-width r - sigma,
        # sampled along the top edge q = t + i (r - sigma) independently
        t = np.linspace(0, 2 * math.pi, 512, endpoint=False)
        vals = np.zeros_like(t, dtype=complex)
        for (j, k, a), c in sorted(tail.terms.items()):
            vals += c * np.exp(1j * k[0] * t) * np.exp(-k[0] * (f.r - sigma))
        measured = float(np.max(np.abs(vals)))
        ok = measured <= bound * (1 + 1e-12) and bound <= 10.0 * measured
        ok_all = ok_all and ok
        if measured > 0:
            worst_hi = max(worst_hi, bound / measured)
    report(7, ok_all, "geometric-tail certificates on 20 random series: "
                      "measured <= bound <= 10 x measured "
                      "(worst bound/measured ratio %.2f)" % worst_hi)


def test_criterion_8_bump_plateaus():
    g1 = Grading(d=1, l=1, K_q=2, K_phi=320, D=3)
    g2 = Grading(d=1, l=1, K_q=2, K_phi=900, D=3)
    grid = phi_grid(1, 4096)
    nu = np.cos(grid[:, 0])
    psi1, vals1 = bump_psi(grid, nu, -0.5, 0.5, g1, 1.0, 1.0, tol=1e-6)
    psi2, vals2 = bump_psi(grid, nu, -0.25, 0.25, g2, 1.0, 1.0, tol=1e-6)
    dev1 = max(float(np.max(np.abs(vals1[nu < -0.5] - 1.0))),
               float(np.max(np.abs(vals1[nu > 0.5]))))
    dev2 = max(float(np.max(np.abs(vals2[nu < -0.25] - 1.0))),
               float(np.max(np.abs(vals2[nu > 0.25]))))
    # the C2 estimates on the real torus r = 0
    c2_wide = ck_norm_estimate(psi1.with_radii(0.0, 1.0), 2, 0)
    c2_narrow = ck_norm_estimate(psi2.with_radii(0.0, 1.0), 2, 0)
    ratio = c2_narrow / c2_wide
    ok = dev1 <= 1e-6 and dev2 <= 1e-6 and ratio >= 2.0
    report(8, ok, "bump plateau deviations %.2e / %.2e (<= 1e-6); C2 estimate "
                  "grows by %.2f when the gap halves (>= 2)"
           % (dev1, dev2, ratio))


@pytest.mark.slow
def test_criterion_9_two_amplitude_embedding_scaling():
    # The claim is the one-sided bound |emb - trivial| = O(|f0|^(1/2)): the
    # constant dist / sqrt(|f0|) may not grow as the amplitude drops tenfold
    # (factor-2 slack). The distance may shrink faster than sqrt(eps); the
    # conjugacy is analytic in f0 and the identity at f0 = 0, so it does.
    dists, norms, failures, residuals = {}, {}, {}, {}
    for eps in (1e-4, 1e-5):
        gr, N0, f0 = q_coupled_problem(eps)
        state, hist, phi0, info, torus, residual = _full_pipeline(
            N0, f0, target_tol=1e-13, grid_n=32)
        dists[eps] = torus.distance_to_trivial
        norms[eps] = c2_norm(f0)
        failures[eps] = hist["failure"]
        residuals[eps] = residual
    runs_ok = all(failures[e] is None and residuals[e] <= 1e-8 for e in dists)
    dists_ok = all(math.isfinite(d) and d > 0 for d in dists.values())
    consts = {e: dists[e] / math.sqrt(norms[e]) for e in dists}
    bound_ok = dists_ok and consts[1e-5] <= 2 * consts[1e-4]
    ok = runs_ok and bound_ok
    reasons = [failures[e] and failures[e]["reason"] for e in dists]
    report(9, ok, "run failures %s / %s, invariance residuals %.3g / %.3g "
                  "(<= 1e-8); embedding distances %.3e / %.3e; one-sided "
                  "constants dist/sqrt(|f0|): %.2e and %.2e (second <= 2 x "
                  "first): upper-bound claim %s"
           % (reasons[0], reasons[1], residuals[1e-4], residuals[1e-5],
              dists[1e-4], dists[1e-5], consts[1e-4], consts[1e-5],
              "holds" if bound_ok else "fails"))


@pytest.mark.slow
def test_criterion_10_reduction_and_full_run():
    rng = np.random.default_rng(101)
    red = unimodular_completion([(1, 1, -1)])
    K = np.array(red.K, dtype=float)
    omega0 = np.array([1.0, GOLDEN, 1.0 + GOLDEN])
    C = np.array([[1.0 + rng.uniform(0.0, 1.0)]])
    B = rng.uniform(-0.4, 0.4, (2, 1))
    A = (-np.eye(2) * (1.0 + rng.uniform(0.0, 0.5))
         + B @ np.linalg.solve(C, B.T))
    blocked = np.block([[A, B], [B.T, C]])
    Kinv = np.linalg.inv(K)
    hessian = Kinv @ blocked @ Kinv.T
    gr = Grading(d=2, l=1, K_q=3, K_phi=3, D=4)
    eps = 1e-5
    kA = tuple(int(v) for v in (K.T @ np.array([1, 0, 1])))
    kB = tuple(int(v) for v in (K.T @ np.array([0, 1, 1])))
    f_terms = sigma_cos(kA, eps) + sigma_cos(kB, 0.7 * eps)
    omega, M0, h0, f0, rep = reduce_coordinates(hessian, omega0, red, [],
                                                f_terms, gr, 1.0, 1.0)
    conds = (rep["diophantine_ok"] if "diophantine_ok" in rep else True,
             all(v < 0 for v in rep["M0_eigs"]),
             all(v > 0 for v in rep["Q0_eigs"]))
    kap = min(np.linalg.norm(K, 2), 1.0 / np.linalg.norm(K, 2))
    kap2 = min(0.5, 1.0 / (1.0 + rep["shear_norm"]))
    r0 = s0 = kap * kap2
    f0 = FTSeries(gr, r0, s0, f0.terms, f0.trunc_loss, _raw=True)
    h0 = FTSeries(gr, r0, s0, h0.terms, h0.trunc_loss, _raw=True)
    N0 = initial_tuple(gr, r0, s0, omega, M0, h=h0)
    frame = np.asarray(rep["normalization"])
    state, hist = iterate(N0, f0, IterateConfig(tau=0.1, frame=frame))
    residual = find_torus(state, assemble_hamiltonian(N0) + f0, 24)[3]
    ok = (hist["failure"] is None and all(conds[1:]) and residual <= 1e-6)
    report(10, ok, "3-dof problem with one resonance: reduction sign "
                   "conditions hold (M0 eigs %s, Q0 eigs %s), full run "
                   "residual %.3e (<= 1e-6)"
           % (["%.3f" % v for v in rep["M0_eigs"]],
              ["%.3f" % v for v in rep["Q0_eigs"]], residual))
