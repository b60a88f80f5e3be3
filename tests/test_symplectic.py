import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import bracket_oracle
import kamtori.series as ring
import lie_oracle
import kamtori.symplectic as symplectic
import symp_oracle
from kamtori.series import (FTSeries, Grading, ck_norm_estimate,
                            differentiate, evaluate, ft_sum, majorant_norm)
from kamtori.symplectic import (DEFAULT_SYMP_TOL, GeneratingFunction,
                                GeneratorTooLargeError, ReductionError,
                                SigmaTerm, SymplecticityError,
                                _base_bracket_with,
                                _int_det, _relation_defects, compose_maps,
                                identity_map,
                                lie_tail_integral, lie_transform,
                                map_from_generator,
                                poisson_bracket, reduce_coordinates,
                                series_compose,
                                shifted_parametrization, sigma_cos,
                                symplecticity_residual,
                                unimodular_completion, vector_field)
from kamtori.engine.driver import equal_derivative_defect
from conftest import GOLDEN, drift_free, random_real_series


def image(Phi, phi, q, x=None, p=None, y=None):
    """The image point (q', x', p', y') of the map Phi at a real argument."""
    gr = Phi.grading
    x = np.zeros(gr.l) if x is None else np.asarray(x, dtype=float)
    p = np.zeros(gr.d) if p is None else np.asarray(p, dtype=float)
    y = np.zeros(gr.l) if y is None else np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)
    args = dict(phi=phi, q=q, x=x, p=p, y=y)
    moved = [np.array([evaluate(u, **args) for u in us])
             for us in (Phi.Uq, Phi.Ux, Phi.Up, Phi.Uy)]
    return tuple(z + dz for z, dz in zip((q, x, p, y), moved))


def mono(g, alpha, c=1.0, j=None, k=None):
    j = (0,) * g.l if j is None else j
    k = (0,) * g.d if k is None else k
    return FTSeries.term(g, 1.0, 1.0, j, k, alpha, c)


class TestBracket:
    def test_canonical_pairs(self, g11):
        x, y = mono(g11, (1, 0, 0)), mono(g11, (0, 0, 1))
        q = FTSeries.term(g11, 1, 1, (0,), (1,), (0, 0, 0), 1.0)
        p = mono(g11, (0, 1, 0))
        assert poisson_bracket(x, y).terms == {((0,), (0,), (0, 0, 0)): 1.0 + 0j}
        assert poisson_bracket(y, x).coeff((0,), (0,), (0, 0, 0)) == -1.0

    def test_self_bracket_vanishes(self, g11, rng):
        h = random_real_series(g11, 1, 1, rng)
        assert poisson_bracket(h, h).max_abs_coeff() < 1e-13

    def test_jacobi_identity(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng, max_k=1, max_phi=1, max_deg=1)
        g = random_real_series(g11, 1, 1, rng, max_k=1, max_phi=1, max_deg=1)
        h = random_real_series(g11, 1, 1, rng, max_k=1, max_phi=1, max_deg=1)
        cyc = (poisson_bracket(f, poisson_bracket(g, h))
               + poisson_bracket(g, poisson_bracket(h, f))
               + poisson_bracket(h, poisson_bracket(f, g)))
        scale = majorant_norm(f) * majorant_norm(g) * majorant_norm(h)
        assert majorant_norm(cyc) <= 1e-10 * max(scale, 1.0)


class TestVectorField:
    def test_rotation_term(self, g11):
        H = mono(g11, (0, 1, 0), GOLDEN)
        qd, xd, pd, yd = vector_field(H)
        assert qd[0].coeff((0,), (0,), (0, 0, 0)) == pytest.approx(GOLDEN)
        assert xd[0].is_zero() and pd[0].is_zero() and yd[0].is_zero()

    def test_half_y_squared(self, g11):
        H = mono(g11, (0, 0, 2), 0.5)
        qd, xd, pd, yd = vector_field(H)
        assert xd[0].coeff((0,), (0,), (0, 0, 1)) == 1.0
        assert yd[0].is_zero()


class TestLieTransform:
    def test_pure_momentum_shift(self, g11, rng):
        # gen F = 0, v = v0: exact translation p -> p - v0 of any polynomial
        v0 = 0.35
        gen = GeneratingFunction(FTSeries.zero(g11, 1, 1),
                                 [FTSeries.constant(g11, 1, 1, v0)])
        f = mono(g11, (0, 2, 0)) + mono(g11, (0, 1, 0), 2.0)
        out, rem, _ = lie_transform(f, gen, order_cap=10, tol=1e-16)
        # f(p - v0) = (p - v0)^2 + 2(p - v0)
        assert out.coeff((0,), (0,), (0, 2, 0)) == pytest.approx(1.0)
        assert out.coeff((0,), (0,), (0, 1, 0)) == pytest.approx(2 - 2 * v0)
        assert out.coeff((0,), (0,), (0, 0, 0)) == pytest.approx(v0 ** 2 - 2 * v0)

    def test_angle_translation_phase(self, g11):
        c = 0.4
        gen = drift_free(mono(g11, (0, 1, 0), c))
        e = FTSeries.term(g11, 1, 1, (0,), (3,), (0, 0, 0), 1.0)
        out, _, _ = lie_transform(e, gen, order_cap=40, tol=1e-18)
        assert out.coeff((0,), (3,), (0, 0, 0)) == pytest.approx(
            np.exp(1j * 3 * c), rel=1e-12)

    def test_quadratic_generator_vs_rk_oracle(self, g11, rng):
        # flow of F = a x^2/2 + b x y + c p q-ish polynomial, checked by
        # integrating the Hamilton equations numerically at sample points
        F = (mono(g11, (2, 0, 0), 0.04) + mono(g11, (1, 0, 1), 0.03)
             + mono(g11, (0, 2, 0), 0.05))
        gen = drift_free(F)
        Phi = map_from_generator(gen, order_cap=30, tol=1e-18)

        def field(t, z):
            q, x, p, y = z
            args = dict(phi=[0.0], q=[q], x=[x], p=[p], y=[y])
            return [evaluate(differentiate_cache[0], **args),
                    evaluate(differentiate_cache[1], **args),
                    -evaluate(differentiate_cache[2], **args),
                    -evaluate(differentiate_cache[3], **args)]

        from kamtori.series import differentiate
        differentiate_cache = [differentiate(F, ("p", 0)),
                               differentiate(F, ("y", 0)),
                               differentiate(F, ("q", 0)),
                               differentiate(F, ("x", 0))]
        for _ in range(10):
            z0 = rng.uniform(-0.4, 0.4, 4)
            sol = solve_ivp(field, (0.0, 1.0), z0, rtol=1e-11, atol=1e-12)
            zt = sol.y[:, -1]
            q1, x1, p1, y1 = image(Phi, [0.0], [z0[0]], [z0[1]], [z0[2]],
                                   [z0[3]])
            got = np.array([q1[0], x1[0], p1[0], y1[0]])
            assert np.max(np.abs(got - zt)) < 1e-8

    def test_decay_precondition(self, g11):
        gen = drift_free(mono(g11, (1, 0, 1), 30.0))  # 30 x y
        with pytest.raises(GeneratorTooLargeError, match="stopped decaying"):
            lie_transform(mono(g11, (1, 0, 0)), gen, order_cap=12, tol=1e-16)

    def test_exponential_sums_growing_terms(self, g11):
        # the terms 3^n / n! of e^3 grow up to n = 3: the exponential shares
        # the Lie series' summation loop but not its decay guard
        got = symplectic._exp_of(FTSeries.constant(g11, 1, 1, 3.0))
        assert got.coeff((0,), (0,), (0, 0, 0)) == pytest.approx(math.exp(3.0),
                                                                 rel=1e-14)


class TestBracketBound:
    """GeneratingFunction.bracket_bound against the majorant of the bracket
    it bounds, on both product kernels (a patched series._layout forces
    one; the block kernel takes unbatched operands only)."""

    GRADINGS = [Grading(d=1, l=1, K_q=4, K_phi=3, D=4),
                Grading(d=2, l=1, K_q=3, K_phi=2, D=4),
                Grading(d=1, l=2, K_q=3, K_phi=2, D=4)]

    def generator(self, gr, rng, with_v):
        # r, s below 1 so the mode and degree weights are not trivial
        F = random_real_series(gr, 0.7, 0.9, rng, n_modes=8, max_k=2,
                               max_phi=2, max_deg=3, scale=1e-2)
        if not with_v:
            return drift_free(F)
        return GeneratingFunction(F, [
            random_real_series(gr, 0.7, 0.9, rng, n_modes=3, max_k=0,
                               max_phi=2, max_deg=0, scale=1e-2)
            for _ in range(gr.d)])

    @staticmethod
    def bracket_on(path, gen, g):
        with pytest.MonkeyPatch.context() as mp:
            if path == "block":
                mp.setattr(ring, "_layout", lambda f, h: ring._block_layout(
                    ring._plan(f.grading), f, h)
                    if len(f.coef) and len(h.coef) else None)
            else:
                mp.setattr(ring, "_layout", lambda f, h: None)
            return gen.bracket_with(g)

    @pytest.mark.parametrize("path", ["pair", "block"])
    @pytest.mark.parametrize("with_v", [False, True])
    @pytest.mark.parametrize("gi", range(3))
    def test_bounds_the_bracket(self, gi, with_v, path, rng):
        gr = self.GRADINGS[gi]
        for _ in range(4):
            gen = self.generator(gr, rng, with_v)
            g = random_real_series(gr, 0.7, 0.9, rng, n_modes=10, max_k=2,
                                   max_phi=2, max_deg=4)
            got = majorant_norm(self.bracket_on(path, gen, g))
            assert got > 0.0
            assert gen.bracket_bound(g) >= got * (1 - 1e-12)

    def test_bound_is_exact_on_one_half(self, g11):
        # {x, c y} = c: a single product of single terms, no slack
        gen = drift_free(mono(g11, (0, 0, 1), 0.3))
        g = mono(g11, (1, 0, 0))
        assert majorant_norm(gen.bracket_with(g)) == pytest.approx(0.3)
        assert gen.bracket_bound(g) == pytest.approx(0.3)

    def test_zero_when_the_bracket_vanishes(self, g11, rng):
        gen = self.generator(g11, rng, with_v=True)
        phi_only = FTSeries.term(g11, 0.7, 0.9, (2,), (0,), (0, 0, 0), 1.0)
        assert gen.bracket_with(phi_only).is_zero()
        assert gen.bracket_bound(phi_only) == 0.0

    def test_batched_bound_per_entry(self, rng):
        gr = self.GRADINGS[0]
        gen = self.generator(gr, rng, with_v=True)
        entries = [random_real_series(gr, 0.7, 0.9, rng, n_modes=6, max_k=2,
                                      max_phi=2, max_deg=3, scale=scale)
                   for scale in (1.0, 1e-3, 0.5)]
        keys = sorted(set().union(*(e.terms for e in entries)))
        batched = FTSeries(gr, 0.7, 0.9, {
            key: np.array([e.coeff(*key) for e in entries]) for key in keys},
            _raw=True)
        bound = gen.bracket_bound(batched)
        assert np.shape(bound) == (len(entries),)
        for n, e in enumerate(entries):
            assert bound[n] == pytest.approx(gen.bracket_bound(e), rel=1e-13)
        got = majorant_norm(gen.bracket_with(batched))
        assert np.all(bound >= got * (1 - 1e-12))


class TestPowerSum:
    """The summation loop's stop on a bound of the next term."""

    @staticmethod
    def halving(calls):
        def step(term):
            calls.append(term)
            return term.scale(0.5)
        return step

    def test_bound_stop_skips_the_step(self, g11):
        # t_1 = 1, t_n = t_{n-1} / (2 n): t_5 = 1 / 1920 is the first term
        # below 1e-3, and the exact bound |t| / 2 certifies it from t_4
        one = FTSeries.constant(g11, 1, 1, 1.0)
        zero = FTSeries.zero(g11, 1, 1)
        calls = []
        total, rem, n = symplectic._power_sum(
            zero, one, self.halving(calls), lambda t: 0.5 * majorant_norm(t),
            1e-3, 12, "test")
        assert n == 5 and len(calls) == 3   # t_5 is never formed
        assert majorant_norm(calls[-1]) == pytest.approx(1 / 24)   # t_3
        assert rem == pytest.approx(2 / 1920)
        assert total.coeff((0,), (0,), (0, 0, 0)) == pytest.approx(
            1 + 1 / 4 + 1 / 24 + 1 / 192)
        calls.clear()
        total, rem, n = symplectic._power_sum(
            zero, one, self.halving(calls), lambda t: math.inf, 1e-3, 12,
            "test")
        assert n == 5 and len(calls) == 4
        assert total.coeff((0,), (0,), (0, 0, 0)) == pytest.approx(
            1 + 1 / 4 + 1 / 24 + 1 / 192 + 1 / 1920)

    def test_lie_series_bound_stop_skips_the_bracket(self, g11, rng):
        F = random_real_series(g11, 1, 1, rng, n_modes=4, max_k=2, max_phi=1,
                               max_deg=2, scale=1e-3)
        gen = drift_free(F)
        g = random_real_series(g11, 1, 1, rng, n_modes=6, max_k=2, max_phi=1,
                               max_deg=3)
        formed = []
        real = gen.bracket_with
        gen.bracket_with = lambda u: formed.append(real(u)) or formed[-1]
        _, rem, n = lie_transform(g, gen)
        # t_1 .. t_{n-1} were formed, t_n only bounded from t_{n-1}
        assert n > 2 and len(formed) == n - 1
        last = formed[-1].scale(1.0 / (n - 1))
        assert rem == pytest.approx(2 * gen.bracket_bound(last) / n, rel=1e-14)
        assert rem <= 2 * 1e-14 * majorant_norm(g)

    @pytest.mark.parametrize("case", ["lie", "tail", "exp"])
    def test_infinite_bound_is_the_formed_term_loop(self, case, g11, rng,
                                                    monkeypatch):
        F = random_real_series(g11, 1, 1, rng, n_modes=4, max_k=2, max_phi=1,
                               max_deg=2, scale=1e-3)
        gen = GeneratingFunction(F, [FTSeries.constant(g11, 1, 1, 2e-3)])
        g = random_real_series(g11, 1, 1, rng, n_modes=6, max_k=2, max_phi=1,
                               max_deg=3)
        run = {"lie": lambda: lie_transform(g, gen),
               "tail": lambda: lie_tail_integral(
                   gen.bracket_with(g), gen, lambda n: 1.0 / (n + 2)),
               "exp": lambda: symplectic._exp_of(
                   gen.F.scale(10j))}[case]
        loop, sums = symplectic._power_sum, []

        def without_bound(total, term, step, bound, *args, **kwargs):
            return loop(total, term, step, lambda t: math.inf, *args, **kwargs)

        for stand_in in (without_bound, lie_oracle.power_sum):
            def spy(*args, _loop=stand_in, **kwargs):
                sums.append(_loop(*args, **kwargs))
                return sums[-1]
            monkeypatch.setattr(symplectic, "_power_sum", spy)
            run()
        (s1, r1, n1), (s2, r2, n2) = sums
        assert (r1, n1) == (r2, n2)
        assert list(s1.terms) == list(s2.terms)
        assert np.array_equal(s1.coef, s2.coef)
        assert s1.trunc_loss == s2.trunc_loss


TAIL_WEIGHTS = (lambda n: 1.0 / ((n + 1) * (n + 2)), lambda n: 1.0 / (n + 2))


def assert_tail_matches_oracle(u, gen, weight):
    """lie_tail_integral, which stops at the rounding floor, against the same
    sum carried on down to 1e-300 (tests/lie_oracle.py): the same key set,
    coefficients within 1e-14 of the largest, and a remainder at least the
    majorant of what the floor left out.  Returns both orders reached."""
    new, rem, n = lie_tail_integral(u, gen, weight)
    old, _, n_old = lie_oracle.tail_integral(u, gen, weight)
    assert set(new.terms) == set(old.terms)
    gap = old - new
    assert (gap.max_abs_coeff() if gap.terms else 0.0) \
        <= 1e-14 * old.max_abs_coeff()
    assert rem >= majorant_norm(gap)
    return n, n_old


class TestTailIntegral:
    @pytest.mark.parametrize("d, l", [(1, 1), (2, 1), (1, 2)])
    def test_rounding_floor_matches_oracle(self, d, l):
        orders = []
        for seed in range(3):
            gen = random_generator(d, l, seed, scale=1e-3)
            g = random_real_series(gen.grading, 1, 1,
                                   np.random.default_rng(seed), n_modes=6,
                                   max_k=2, max_phi=1, max_deg=3)
            for weight in TAIL_WEIGHTS:
                orders.append(assert_tail_matches_oracle(
                    gen.bracket_with(g), gen, weight))
        # the floor cuts sums that went on below it
        assert any(n < n_old for n, n_old in orders)
        assert all(n <= n_old for n, n_old in orders)


class TestMapFromGenerator:
    def test_zero_generator_identity(self, g11):
        Phi = map_from_generator(drift_free(FTSeries.zero(g11, 1, 1)))
        assert Phi.is_identity() and Phi.symp_residual == 0.0

    def test_linear_shear_vs_matrix_exponential(self, g11):
        eps = 0.05
        Phi = map_from_generator(drift_free(mono(g11, (1, 1, 0), eps)),
                                 order_cap=40, tol=1e-18)
        # X_F on (q, x, p, y): qdot = eps x, xdot = 0, pdot = 0, ydot = -eps p
        A = np.zeros((4, 4))
        A[0, 1] = eps
        A[3, 2] = -eps
        E = np.eye(4)
        T = np.eye(4)
        for n in range(1, 20):
            T = T @ A / n
            E = E + T
        z0 = np.array([0.3, 0.7, -0.2, 0.4])
        q1, x1, p1, y1 = image(Phi, [0.1], [z0[0]], [z0[1]], [z0[2]], [z0[3]])
        assert np.allclose([q1[0], x1[0], p1[0], y1[0]], E @ z0, atol=1e-12)

    def test_bracket_relations_for_random_generators(self, g11, rng):
        for _ in range(10):
            F = random_real_series(g11, 1, 1, rng, n_modes=4, max_k=2,
                                   max_phi=1, max_deg=2, scale=2e-5)
            Phi = map_from_generator(drift_free(F), tol=1e-20)
            assert Phi.symp_residual <= 1e-8


def random_generator(d, l, seed, n_modes=4, scale=2e-5):
    """A random real generator of degree <= 2."""
    gr = Grading(d=d, l=l, K_q=6, K_phi=3, D=4)
    rng = np.random.default_rng(seed)
    return drift_free(random_real_series(
        gr, 1, 1, rng, n_modes=n_modes, max_k=2, max_phi=1, max_deg=2,
        scale=scale))


def random_map(d, l, seed, n_modes=4):
    """The time-1 map of random_generator(d, l, seed, n_modes)."""
    return map_from_generator(random_generator(d, l, seed, n_modes), tol=1e-20)


def assert_defects_match_oracle(Phi):
    """Each relation's defect agrees with the oracle's within 1e-14 of the
    largest majorant among the terms it sums: the half-products of {U_a,
    U_b} and the two derivatives {base_a, U_b} and {base_b, U_a}.

    The oracle prunes every series it builds at 2e-16 of its largest
    coefficient and the residual prunes nothing, so the two part by that
    pruned mass besides rounding: on maps of a few hundred terms per
    component, as here and in the pipeline, it stays far below the bound."""
    comps = Phi.components()
    bases = ([("q", i) for i in range(Phi.grading.d)]
             + [("x", i) for i in range(Phi.grading.l)]
             + [("p", i) for i in range(Phi.grading.d)]
             + [("y", i) for i in range(Phi.grading.l)])
    got, want = _relation_defects(Phi), symp_oracle.relation_defects(Phi)
    assert set(got) == set(want)
    for (a, b), value in want.items():
        parts, _ = bracket_oracle.halves(comps[a], comps[b])
        parts += [_base_bracket_with(*bases[a], comps[b]),
                  _base_bracket_with(*bases[b], comps[a])]
        scale = max(majorant_norm(u) for u in parts)
        assert abs(got[a, b] - value) <= 1e-14 * scale, (a, b)
    assert symplecticity_residual(Phi) == max(got.values())


class TestSymplecticityResidual:
    """The residual sums each relation's terms straight from the product
    kernels; tests/symp_oracle.py builds them as series, as it used to."""

    @pytest.mark.parametrize("d, l", [(1, 1), (2, 1), (1, 2)])
    def test_matches_oracle(self, d, l):
        for seed in range(3):
            Phi = random_map(d, l, 100 * d + 10 * l + seed)
            assert sum(not u.is_zero() for u in Phi.components()) >= 2
            assert_defects_match_oracle(Phi)

    def test_moved_coefficient_shows_in_both(self):
        # {q, U_p} = d_p U_p, {x, U_p} = d_y U_p and -{y, U_p} = d_x U_p:
        # moving one coefficient of U_p by 1e-6 relative moves these
        # relations by the majorant of those derivatives of the move, far
        # above the map's own residual (the brackets with the other
        # displacements move by that times their size only)
        Phi = random_map(1, 1, 111)
        u = Phi.Up[0]

        def shown(key, c):
            move = FTSeries.term(u.grading, u.r, u.s, *key, c * 1e-6)
            return max(majorant_norm(differentiate(move, (var, 0)))
                       for var in ("p", "y", "x"))
        key, c = max(u.terms.items(), key=lambda item: shown(*item))
        size = shown(key, c)
        moved = FTSeries(u.grading, u.r, u.s, {**u.terms, key: c * (1 + 1e-6)},
                         _raw=True)
        U = list(Phi.U)
        U[ring.coordinates(Phi.grading).index(("p", 0))] = moved
        bad = dataclasses.replace(Phi, U=U)
        for residual in (symplecticity_residual,
                         symp_oracle.symplecticity_residual):
            assert residual(Phi) <= 1e-3 * size
            assert 0.5 * size <= residual(bad) <= 2 * size
        assert_defects_match_oracle(bad)

    def test_residual_over_tolerance_raises(self):
        # the Lie series cut at 1e-4 leaves a map that is not symplectic to
        # DEFAULT_SYMP_TOL; carried to 1e-14 of the generator it is
        gen = random_generator(1, 1, 2, scale=1e-3)
        assert map_from_generator(gen).symp_residual <= DEFAULT_SYMP_TOL
        with pytest.raises(SymplecticityError):
            map_from_generator(gen, tol=1e-4)

    @pytest.mark.parametrize("path", ["rule", "block"])
    @pytest.mark.parametrize("d, l", [(1, 1), (2, 1), (1, 2)])
    def test_dense_sums_match_sort_and_bincount(self, d, l, path,
                                                monkeypatch):
        # each slot sums its parts in the same order from 0.0, so the two
        # reductions agree bit for bit, on either kernel's parts (the block
        # kernel's hold zero coefficients) and on the identity map
        if path == "block":
            monkeypatch.setattr(ring, "_layout", lambda f, g: None
                                if f.is_zero() or g.is_zero()
                                else ring._block_layout(ring._plan(f.grading),
                                                        f, g))
        Phi = random_map(d, l, 100 * d + 10 * l + 1)
        gr = Phi.grading
        for m in (Phi, Phi.with_radii(0.8, 0.9), identity_map(gr, 1.0, 1.0)):
            got = _relation_defects(m)
            assert list(got) == list(symp_oracle.relation_sums(m))
            assert got == symp_oracle.relation_sums(m)
        assert sum(v > 0.0 for v in _relation_defects(Phi).values()) >= 2
        assert set(_relation_defects(identity_map(gr, 1.0, 1.0)).values()) \
            == {0.0}

    def test_calls_no_unique(self, monkeypatch):
        Phi = random_map(1, 2, 121)
        calls = []

        def spy(*args, _real=np.unique, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, "unique", spy)
        residual = symplecticity_residual(Phi)
        assert calls == []
        assert residual == max(symp_oracle.relation_sums(Phi).values())
        assert calls

    @pytest.mark.slow
    def test_no_series_built_one_kernel_call_per_pair(self, monkeypatch):
        Phi = random_map(2, 1, 210, n_modes=8)
        comps = Phi.components()
        assert all(not u.is_zero() for u in comps)
        calls = []
        for module, name in ((symplectic, "poisson_bracket"),
                             (symplectic, "_bracket"), (ring, "_bracket"),
                             (ring, "_merge"), (ring, "_pair_product"),
                             (ring, "_block_product")):
            def spy(*args, _real=getattr(module, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(module, name, spy)
        pairs = math.comb(len(comps), 2)
        # multiply's rule puts these pairs on the pair kernel; forced onto
        # the block kernel they give the same residual
        residual = symplecticity_residual(Phi)
        assert calls == ["_pair_product"] * pairs
        calls.clear()
        monkeypatch.setattr(ring, "_layout", lambda f, g: ring._block_layout(
            ring._plan(f.grading), f, g))
        assert symplecticity_residual(Phi) == pytest.approx(residual,
                                                            rel=1e-12)
        assert calls == ["_block_product"] * pairs

    # maps with pairs of terms past the grading on both kernels
    @pytest.mark.parametrize("d, l, seed", [(1, 1, 110), (2, 1, 210),
                                            (1, 2, 121)])
    def test_forms_no_loss_majorant(self, d, l, seed, monkeypatch):
        assert_residual_forms_no_loss(random_map(d, l, seed), monkeypatch)


def assert_residual_forms_no_loss(Phi, monkeypatch):
    """symplecticity_residual on either kernel is bit-identical to the same
    check with the kernels' majorants of the out-of-grading pairs formed,
    and a spy on those majorants shows that it forms none."""
    formed = []
    for name in ("_pair_loss", "_block_loss"):
        def spy(*args, _real=getattr(ring, name), _name=name):
            formed.append(_name)
            return _real(*args)
        monkeypatch.setattr(ring, name, spy)
    halves = ring._bracket_halves
    block = lambda f, g: None if f.is_zero() or g.is_zero() \
        else ring._block_layout(ring._plan(f.grading), f, g)
    for kernel, layout in (("_pair_loss", lambda f, g: None),
                           ("_block_loss", block)):
        monkeypatch.setattr(ring, "_layout", layout)
        formed.clear()
        got = symplecticity_residual(Phi)
        assert formed == []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(symplectic, "_bracket_halves",
                       lambda f, g, losses: halves(f, g))
            want = symplecticity_residual(Phi)
        assert formed and set(formed) == {kernel}
        assert got == want


def assert_mirror_matches_exp(Phi, monkeypatch):
    """The angle factor exp(i k.Uq) of the substitution for each mode k < -k
    (lexicographically) of a series with every q-mode, taken as the mirror of
    the factor of -k, against the exponential of i k.Uq summed directly:
    the same key set and coefficients within 1e-15 of the largest.  A spy
    shows one exponential per pair +-k in series_compose (none where k.Uq
    is 0)."""
    gr = Phi.grading
    r, s = Phi.radii
    keys = [k for k in ring._plan(gr).K.keys if any(k)]
    sub = symplectic._Substituter(Phi, False)
    pairs = 0
    for k in keys:
        if not k < tuple(-v for v in k):
            continue
        u = FTSeries.zero(gr, r, s)
        for i, ki in enumerate(k):
            if ki:
                u = u + Phi.Uq[i].scale(1j * ki)
        pairs += not u.is_zero()
        want, got = symplectic._exp_of(u), sub._angle_factor(k)
        assert set(got.terms) == set(want.terms), k
        gap = got - want
        assert (gap.max_abs_coeff() if gap.terms else 0.0) \
            <= 1e-15 * want.max_abs_coeff(), k
    calls = []
    real = symplectic._exp_of
    monkeypatch.setattr(symplectic, "_exp_of",
                        lambda u: calls.append(u) or real(u))
    f = ft_sum(gr, r, s, [FTSeries.term(gr, r, s, (0,) * gr.l, k,
                                        (0,) * gr.nz, 1.0) for k in keys])
    series_compose(f, Phi)
    assert len(calls) == pairs > 0


class TestAngleFactorMirror:
    @pytest.mark.parametrize("d, l, seed", [(1, 1, 110), (2, 1, 214)])
    def test_mirror_matches_exponential(self, d, l, seed, monkeypatch):
        Phi = map_from_generator(random_generator(d, l, seed, scale=3e-4),
                                 tol=1e-20)
        assert not any(u.is_zero() for u in Phi.Uq)
        assert_mirror_matches_exp(Phi, monkeypatch)


class TestCompose:
    def test_identity_neutral(self, g11, rng):
        F = random_real_series(g11, 1, 1, rng, n_modes=4, max_k=2, max_phi=1,
                               max_deg=2, scale=1e-3)
        Phi = map_from_generator(drift_free(F))
        ident = identity_map(g11, 1, 1)
        out = compose_maps(Phi, ident)
        assert all((a - b).max_abs_coeff() == 0.0
                   for a, b in zip(out.components(), Phi.components()))

    def test_translations_add(self, g11):
        mk = lambda v: map_from_generator(GeneratingFunction(
            FTSeries.zero(g11, 1, 1), [FTSeries.constant(g11, 1, 1, v)]))
        C = compose_maps(mk(0.3), mk(0.5))
        assert C.Up[0].coeff((0,), (0,), (0, 0, 0)) == pytest.approx(-0.8)

    def test_pointwise_against_sequential_flows(self, g11, rng):
        for _ in range(5):
            F1 = random_real_series(g11, 1, 1, rng, n_modes=3, max_k=2,
                                    max_phi=1, max_deg=2, scale=1e-4)
            F2 = random_real_series(g11, 1, 1, rng, n_modes=3, max_k=2,
                                    max_phi=1, max_deg=2, scale=1e-4)
            P1 = map_from_generator(drift_free(F1), tol=1e-18)
            P2 = map_from_generator(drift_free(F2), tol=1e-18)
            C = compose_maps(P1, P2)
            for _ in range(2):
                phi = rng.uniform(0, 2 * math.pi, 1)
                q = rng.uniform(0, 2 * math.pi, 1)
                z = rng.uniform(-0.2, 0.2, 3)
                mid = image(P2, phi, q, [z[0]], [z[1]], [z[2]])
                expect = image(P1, phi, *mid)
                got = image(C, phi, q, [z[0]], [z[1]], [z[2]])
                assert np.max(np.abs(np.concatenate(got)
                                     - np.concatenate(expect))) < 1e-7

    def test_c2_product_bound_recorded(self, g11, rng):
        F1 = random_real_series(g11, 1, 1, rng, n_modes=3, max_k=1, max_phi=1,
                                max_deg=2, scale=1e-3)
        F2 = random_real_series(g11, 1, 1, rng, n_modes=3, max_k=1, max_phi=1,
                                max_deg=2, scale=1e-3)
        P1 = map_from_generator(drift_free(F1))
        P2 = map_from_generator(drift_free(F2))
        C = compose_maps(P1, P2)
        c2 = lambda P: max(ck_norm_estimate(u, 2, 2) for u in P.U)
        assert 1.0 + c2(C) <= (1.0 + c2(P1)) * (1.0 + c2(P2)) * (1.0 + 1e-9)

    def test_identity_substitution_along_z0(self, g11):
        # along z = 0 the ball variables become the identity map's zero
        # displacement, so only f's z = 0 part is left
        f = mono(g11, (0, 0, 0), 0.3, k=(1,)) + mono(g11, (1, 0, 0), 0.5)
        out = series_compose(f, identity_map(g11, 1, 1), drop_z_identity=True)
        assert dict(out.terms) == {((0,), (1,), (0, 0, 0)): 0.3}
        assert series_compose(f, identity_map(g11, 1, 1)).terms == f.terms

    def test_substitution_keeps_the_loss_of_its_sum(self, monkeypatch):
        # the one sum of the substituted terms prunes rounding debris: the
        # result's loss is that sum's loss, the pieces' and the pruned
        # terms', plus f's own
        sums = []

        def spy(gr, r, s, parts, _real=ft_sum):
            out = _real(gr, r, s, parts)
            sums.append((out.trunc_loss, sum(p.trunc_loss for p in parts)))
            return out
        monkeypatch.setattr(symplectic, "ft_sum", spy)
        Phi = random_map(1, 1, 110)
        f = random_real_series(Phi.grading, 1, 1, np.random.default_rng(110),
                               max_k=2, max_phi=1)
        f.trunc_loss = 1e-12
        out = series_compose(f, Phi)
        (total, pieces), = sums
        assert total > pieces
        assert out.trunc_loss == total + f.trunc_loss

    def test_energy_invariance_of_own_flow(self, g11, rng):
        from kamtori.symplectic import series_compose
        F = random_real_series(g11, 1, 1, rng, n_modes=3, max_k=1, max_phi=1,
                               max_deg=2, scale=1e-3)
        Phi = map_from_generator(drift_free(F), tol=1e-20)
        drift = series_compose(F, Phi) - F
        assert majorant_norm(drift) <= 1e-12 * max(majorant_norm(F), 1e-30)


class TestComposeByTransport:
    def test_coefficients_match_substitution(self, g11, rng):
        # generators large enough that every Lie order up to the cut-off
        # shows: a first-order transport misses by 1e-9 to 1e-5 here
        for scale, max_k in [(1e-3, 1), (1e-4, 2), (1e-4, 2)]:
            P1, P2 = [map_from_generator(drift_free(
                random_real_series(g11, 1, 1, rng, n_modes=3, max_k=max_k,
                                   max_phi=1, max_deg=2, scale=scale)),
                tol=1e-20) for _ in range(2)]
            C = compose_maps(P1, P2)
            for got, u, psi_u in zip(C.components(), P1.components(),
                                     P2.components()):
                want = psi_u + series_compose(u, P2)
                if want.is_zero():
                    assert got.is_zero()
                    continue
                dev = (got - want).max_abs_coeff() / want.max_abs_coeff()
                assert dev <= 1e-14

    def test_inner_map_without_generator_rejected(self, g11, rng):
        F = random_real_series(g11, 1, 1, rng, n_modes=3, max_k=1, max_phi=1,
                               max_deg=2, scale=1e-3)
        P = map_from_generator(drift_free(F))
        bare = dataclasses.replace(P, generator=None)
        with pytest.raises(TypeError, match="generator"):
            compose_maps(P, bare)

    def test_with_radii_keeps_generator(self, g11, rng):
        F = random_real_series(g11, 1, 1, rng, n_modes=3, max_k=1, max_phi=1,
                               max_deg=2, scale=1e-3)
        v = [FTSeries.constant(g11, 1, 1, 0.1)]
        P = map_from_generator(GeneratingFunction(F, v))
        Q = P.with_radii(0.8, 0.9)
        gen = Q.generator
        assert Q.radii == (0.8, 0.9)
        assert (gen.F.r, gen.F.s) == (0.8, 0.9)
        assert [(vi.r, vi.s) for vi in gen.v] == [(0.8, 0.9)]
        assert gen.F.terms == F.terms and gen.v[0].terms == v[0].terms
        assert P.generator.F.r == 1.0


class TestUnimodular:
    def test_standard_basis_resonances(self):
        red = unimodular_completion([(0, 0, 1), (0, 1, 0)])
        K = np.array(red.K)
        assert abs(_int_det(red.K)) == 1
        w0 = np.array([GOLDEN, 0.0, 0.0])
        out = K @ w0
        assert np.allclose(out[1:], 0.0)

    def test_two_dim_example(self):
        red = unimodular_completion([(1, -1)])
        K = np.array(red.K)
        assert abs(_int_det(red.K)) == 1
        out = K @ np.array([1.0, 1.0])
        assert out[1] == pytest.approx(0.0, abs=1e-14)
        assert abs(out[0]) > 0.5

    def test_three_dim_one_resonance(self):
        a, b = 1.3, 2.4
        red = unimodular_completion([(1, 1, -1)])
        K = np.array(red.K)
        assert abs(_int_det(red.K)) == 1
        out = K @ np.array([a, b, a + b])
        assert abs(out[2]) < 1e-12

    def test_saturation_of_imprimitive_lattice(self):
        # rows (1,1,0),(1,-1,0) span an index-2 sublattice; the completion
        # uses the saturation, which still consists of resonances
        red = unimodular_completion([(1, 1, 0), (1, -1, 0)])
        assert abs(_int_det(red.K)) == 1
        w0 = np.array([0.0, 0.0, GOLDEN])
        out = np.array(red.K) @ w0
        assert np.allclose(out[1:], 0.0)

    def test_dependent_input_rejected(self):
        with pytest.raises(ReductionError, match="linearly dependent"):
            unimodular_completion([(1, 1, 0), (2, 2, 0)])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            unimodular_completion([(1.5, 1.0)])

    def test_random_unimodularity(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 5))
            l = int(rng.integers(1, m))
            R = rng.integers(-4, 5, size=(l, m))
            if np.linalg.matrix_rank(R) < l or not R.any(axis=1).all():
                continue
            red = unimodular_completion([tuple(int(v) for v in row)
                                         for row in R])
            assert abs(_int_det(red.K)) == 1


def flagship_grading():
    return Grading(d=1, l=1, K_q=8, K_phi=8, D=4)


class TestReduce:
    def test_model_passthrough(self):
        g = flagship_grading()
        red = unimodular_completion([(0, 1)])
        omega, M0, h0, f0, rep = reduce_coordinates(
            np.diag([-1.0, 1.0]), [GOLDEN, 0.0], red, [],
            sigma_cos((0, 1), 1e-4), g, 1.0, 1.0)
        assert omega[0] == pytest.approx(GOLDEN)
        assert M0[0, 0] == pytest.approx(-1.0)
        assert rep["Q0_eigs"] == [pytest.approx(1.0)]
        # f0 = 1e-4 cos(x + phi) expanded to degree D
        assert f0.coeff((1,), (0,), (0, 0, 0)) == pytest.approx(0.5e-4)
        assert f0.coeff((1,), (0,), (1, 0, 0)) == pytest.approx(0.5e-4 * 1j)

    def test_wrong_sign_y_block_rejected(self):
        g = flagship_grading()
        red = unimodular_completion([(0, 1)])
        with pytest.raises(ReductionError, match="iii"):
            reduce_coordinates(np.diag([-1.0, -1.0]), [GOLDEN, 0.0], red, [],
                               [], g, 1.0, 1.0)

    def test_positive_p_block_rejected(self):
        g = flagship_grading()
        red = unimodular_completion([(0, 1)])
        with pytest.raises(ReductionError, match="iii"):
            reduce_coordinates(np.diag([1.0, 1.0]), [GOLDEN, 0.0], red, [],
                               [], g, 1.0, 1.0)

    def test_singular_C_rejected(self):
        g = flagship_grading()
        red = unimodular_completion([(0, 1)])
        with pytest.raises(ReductionError, match="ii"):
            reduce_coordinates(np.array([[-1.0, 0.0], [0.0, 0.0]]),
                               [GOLDEN, 0.0], red, [], [], g, 1.0, 1.0)

    def test_h_of_action_degree_below_three_rejected(self):
        # h must start at (p, y)-degree 3: p y is refused, p^3 is not
        g = flagship_grading()
        red = unimodular_completion([(0, 1)])
        H = np.diag([-1.0, 1.0])
        cubic = [SigmaTerm((0, 0), (3, 0), 1.0), SigmaTerm((0, 1), (0, 3), 1.0)]
        reduce_coordinates(H, [GOLDEN, 0.0], red, cubic, [], g, 1.0, 1.0)
        with pytest.raises(ReductionError, match="degree < 3"):
            reduce_coordinates(H, [GOLDEN, 0.0], red,
                               cubic + [SigmaTerm((0, 0), (1, 1), 1.0)], [],
                               g, 1.0, 1.0)

    def test_cross_block_schur(self):
        g = flagship_grading()
        red = unimodular_completion([(0, 1)])
        b = 0.4
        H = np.array([[-1.0, b], [b, 1.0]])
        omega, M0, h0, f0, rep = reduce_coordinates(
            H, [GOLDEN, 0.0], red, [], [], g, 1.0, 1.0)
        assert M0[0, 0] == pytest.approx(-1.0 - b * b)

    def test_normalization_rescales_y(self):
        g = flagship_grading()
        red = unimodular_completion([(0, 1)])
        H = np.diag([-1.0, 4.0])  # Q0 = 4 must be normalized to identity
        omega, M0, h0, f0, rep = reduce_coordinates(
            H, [GOLDEN, 0.0], red, [], sigma_cos((0, 1), 1e-4), g, 1.0, 1.0)
        Sn = np.asarray(rep["normalization"])
        assert Sn @ np.array([[4.0]]) @ Sn.T == pytest.approx(np.eye(1))
        # the x-frame changes: framed identity holds with frame Sn
        assert equal_derivative_defect(f0, frame=Sn) < 1e-12
        assert equal_derivative_defect(f0) > 1e-6

    def test_integer_angle_change_on_modes(self):
        # m = 2, K != I: the Sigma mode k transforms exactly by K^{-T}
        g = flagship_grading()
        red = unimodular_completion([(1, -1)])
        K = np.array(red.K, dtype=float)
        H = K.T @ np.diag([-1.0, 1.0]) @ K  # blocked form becomes diag again
        Kinv = np.linalg.inv(K)
        w0 = Kinv @ np.array([GOLDEN, 0.0])
        omega, M0, h0, f0, rep = reduce_coordinates(
            H, w0, red, [], sigma_cos((1, 0), 1e-4), g, 1.0, 1.0)
        assert omega[0] == pytest.approx(GOLDEN)
        assert not f0.is_zero()
        assert equal_derivative_defect(f0) < 1e-12


class TestShiftedParametrization:
    def test_cosine_expansion(self):
        g = flagship_grading()
        f0 = shifted_parametrization(sigma_cos((0, 1), 1.0), 1, 1, g, 1.0, 1.0)
        # cos(x + phi) = cos(phi) - sin(phi) x - cos(phi) x^2/2 + ...
        for t in np.linspace(0, 2 * math.pi, 7):
            assert evaluate(f0, phi=[t], q=[0.3]) == pytest.approx(math.cos(t))
            val = evaluate(f0, phi=[t], q=[0.1], x=[0.2])
            # degree-D truncation of cos(x + t): within |x|^(D+1)/(D+1)!
            assert val == pytest.approx(math.cos(0.2 + t),
                                        abs=0.2 ** (g.D + 1) / math.factorial(g.D + 1) * 1.01)

    def test_x_free_series_unchanged(self):
        g = flagship_grading()
        terms = sigma_cos((1, 0), 0.7, powers=(1, 0))
        f0 = shifted_parametrization(terms, 1, 1, g, 1.0, 1.0)
        assert f0.coeff((0,), (1,), (0, 1, 0)) == pytest.approx(0.35)
        assert all(k == ((0,)) or True for (j, k, a) in f0.terms)
        assert all(j == (0,) for (j, k, a) in f0.terms)

    def test_averaged_derivative_identity(self, rng):
        g = Grading(d=1, l=1, K_q=6, K_phi=6, D=6)
        terms = []
        for _ in range(4):
            kq = int(rng.integers(-2, 3))
            kx = int(rng.integers(-2, 3))
            pw = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            terms += sigma_cos((kq, kx), float(rng.standard_normal()),
                               powers=pw)
        f0 = shifted_parametrization(terms, 1, 1, g, 1.0, 1.0)
        scale = max(majorant_norm(f0), 1.0)
        assert equal_derivative_defect(f0) <= 1e-12 * scale


class TestPoissonMorphism:
    def test_bracket_commutes_with_flow_to_truncation_order(self, g11, rng):
        F = random_real_series(g11, 1, 1, rng, n_modes=3, max_k=1, max_phi=1,
                               max_deg=2, scale=1e-4)
        gen = drift_free(F)
        f = random_real_series(g11, 1, 1, rng, max_k=1, max_phi=1, max_deg=1)
        g = random_real_series(g11, 1, 1, rng, max_k=1, max_phi=1, max_deg=1)
        tf, r1, _ = lie_transform(f, gen, tol=1e-18)
        tg, r2, _ = lie_transform(g, gen, tol=1e-18)
        tb, r3, _ = lie_transform(poisson_bracket(f, g), gen, tol=1e-18)
        defect = poisson_bracket(tf, tg) - tb
        scale = majorant_norm(f) * majorant_norm(g)
        budget = (r1 * majorant_norm(g) + r2 * majorant_norm(f) + r3
                  + 1e-10 * scale)
        # the morphism defect is controlled by the degree-cap losses of the
        # flows, which are quadratic in the generator size
        cap_loss = 10.0 * majorant_norm(F) ** 2 * scale
        assert majorant_norm(defect) <= budget + cap_loss
