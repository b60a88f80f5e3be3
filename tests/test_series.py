import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kamtori.series as fts
from kamtori.series import (FTSeries, Grading, GradingError, average_q,
                            ck_norm_estimate, differentiate, evaluate,
                            majorant_norm, multiply, partial_omega,
                            taylor_split, truncate_fourier)
from conftest import GOLDEN, coeff, dumps, loads, random_real_series


def mono(g, alpha, c=1.0, j=None, k=None, r=1.0, s=1.0):
    j = (0,) * g.l if j is None else j
    k = (0,) * g.d if k is None else k
    return FTSeries.term(g, r, s, j, k, alpha, c)


class TestMultiply:
    def test_square_of_one_plus_x(self, g11):
        f = FTSeries.constant(g11, 1, 1, 1.0) + mono(g11, (1, 0, 0))
        sq = multiply(f, f)
        assert coeff(sq, (0,), (0,), (0, 0, 0)) == 1
        assert coeff(sq, (0,), (0,), (1, 0, 0)) == 2
        assert coeff(sq, (0,), (0,), (2, 0, 0)) == 1
        assert len(sq.terms) == 3

    def test_mode_cancellation(self, g11):
        e = mono(g11, (0, 0, 0), k=(3,))
        em = mono(g11, (0, 0, 0), k=(-3,))
        prod = multiply(e, em)
        assert prod.terms == {((0,), (0,), (0, 0, 0)): 1.0 + 0.0j}

    def test_degree_cutoff_reports_loss(self):
        g = Grading(1, 1, 8, 8, 3)
        x2 = FTSeries.term(g, 1, 1, (0,), (0,), (2, 0, 0), 1.0)
        prod = multiply(x2, x2)
        assert prod.is_zero()
        assert prod.trunc_loss == pytest.approx(1.0)

    def test_grading_mismatch_raises(self, g11):
        other = Grading(1, 1, 4, 4, 3)
        with pytest.raises(GradingError):
            multiply(FTSeries.constant(g11, 1, 1, 1.0),
                     FTSeries.constant(other, 1, 1, 1.0))

    def test_commutative(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng)
        g = random_real_series(g11, 1, 1, rng)
        fg, gf = multiply(f, g), multiply(g, f)
        assert majorant_norm(fg - gf) < 1e-12 * max(1.0, majorant_norm(fg))

    def test_associative_within_bounds(self, g11, rng):
        # keep everything low order so no truncation occurs in either route
        f = random_real_series(g11, 1, 1, rng, max_k=1, max_phi=1, max_deg=1)
        g = random_real_series(g11, 1, 1, rng, max_k=1, max_phi=1, max_deg=1)
        h = random_real_series(g11, 1, 1, rng, max_k=1, max_phi=1, max_deg=1)
        lhs = multiply(multiply(f, g), h)
        rhs = multiply(f, multiply(g, h))
        assert majorant_norm(lhs - rhs) < 1e-11 * max(1.0, majorant_norm(lhs))

    def test_vectorized_path_matches_loop_path(self, rng):
        g = Grading(1, 1, 10, 10, 4)
        f = random_real_series(g, 1, 1, rng, n_modes=60, max_k=5, max_phi=3)
        h = random_real_series(g, 1, 1, rng, n_modes=60, max_k=5, max_phi=3)
        big = multiply(f, h)           # against a sum of one-term products
        acc = FTSeries.zero(g, 1, 1)
        for key, c in f.terms.items():
            piece = FTSeries(g, 1, 1, {key: c}, _raw=True)
            acc = acc + multiply(piece, h)
        assert majorant_norm(big - acc) < 1e-10 * max(1.0, majorant_norm(big))

    def test_reality_preserved(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng)
        g = random_real_series(g11, 1, 1, rng)
        assert multiply(f, g).reality_defect() < 1e-13


class TestDifferentiate:
    def test_angle_mode(self, g11):
        e = mono(g11, (0, 0, 0), k=(1,))
        de = differentiate(e, ("q", 0))
        assert coeff(de, (0,), (1,), (0, 0, 0)) == 1j

    def test_taylor_power(self, g11):
        de = differentiate(mono(g11, (2, 0, 0)), ("x", 0))
        assert de.terms == {((0,), (0,), (1, 0, 0)): 2.0 + 0.0j}

    def test_constant_in_p(self, g11):
        assert differentiate(FTSeries.constant(g11, 1, 1, 5.0),
                             ("p", 0)).is_zero()

    def test_commutes_with_average(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng)
        a = differentiate(average_q(f), ("phi", 0))
        b = average_q(differentiate(f, ("phi", 0)))
        assert (a - b).max_abs_coeff() == 0.0


class TestAverage:
    def test_kills_pure_mode(self, g11):
        assert average_q(mono(g11, (0, 0, 0), k=(1,))).is_zero()

    def test_keeps_zero_mode(self, g11):
        f = FTSeries.constant(g11, 1, 1, 3.0) + multiply(
            mono(g11, (1, 0, 0), k=(1,)), FTSeries.constant(g11, 1, 1, 1.0))
        out = average_q(f)
        assert out.terms == {((0,), (0,), (0, 0, 0)): 3.0 + 0.0j}

    def test_product_collapse_first(self, g11):
        f = multiply(multiply(FTSeries.cos_angle(g11, 1, 1, (1,), (0,)),
                              mono(g11, (0, 0, 0), k=(1,))),
                     mono(g11, (0, 0, 0), k=(-1,)))
        out = average_q(f)
        assert coeff(out, (1,), (0,), (0, 0, 0)) == pytest.approx(0.5)


class TestPartialOmega:
    def test_single_mode(self, g11):
        f = mono(g11, (0, 0, 0), k=(2,))
        out = partial_omega(f, [GOLDEN])
        assert coeff(out, (0,), (2,), (0, 0, 0)) == pytest.approx(2j * GOLDEN)

    def test_kills_q_independent(self, g11):
        assert partial_omega(FTSeries.cos_angle(g11, 1, 1, (1,), (0,)),
                             [GOLDEN]).is_zero()

    def test_two_frequency_dot_product(self):
        g = Grading(d=2, l=1, K_q=4, K_phi=2, D=3)
        f = FTSeries.term(g, 1, 1, (0,), (1, -1), (0, 0, 0, 0), 1.0)
        out = partial_omega(f, [1.0, GOLDEN])
        assert coeff(out, (0,), (1, -1), (0, 0, 0, 0)) == \
            pytest.approx(1j * (1 - GOLDEN))

    def test_annihilates_exactly_average_and_invertible_elsewhere(self, g11,
                                                                  rng):
        f = random_real_series(g11, 1, 1, rng)
        out = partial_omega(f, [GOLDEN])
        assert average_q(out).is_zero()
        back = {}
        for (j, k, a), c in out.terms.items():
            back[(j, k, a)] = c / (1j * GOLDEN * k[0])
        nonavg = f - average_q(f)
        assert all(abs(back[key] - nonavg.terms[key]) < 1e-14
                   for key in nonavg.terms)


class TestTruncateFourier:
    def test_noop_below_order(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng, max_k=3)
        out, tail = truncate_fourier(f, 8, 0.2)
        assert tail == 0.0
        assert (out - f).max_abs_coeff() == 0.0

    def test_geometric_tail_exact_sum(self):
        g = Grading(1, 1, 20, 2, 3)
        f = FTSeries(g, 1.0, 1.0, {((0,), (n,), (0, 0, 0)): math.exp(-n)
                                   for n in range(1, 21)}, _raw=True)
        out, tail = truncate_fourier(f, 10, 0.1)
        expect = sum(math.exp(-n) * math.exp(n * 0.9) for n in range(11, 21))
        assert tail == pytest.approx(expect, rel=1e-14)

    def test_bound_dominates_recomputed_majorant(self, rng):
        g = Grading(1, 1, 12, 4, 3)
        for _ in range(10):
            f = random_real_series(g, 1.0, 1.0, rng, n_modes=20, max_k=12)
            K, sigma = 5, 0.3
            out, tail = truncate_fourier(f, K, sigma)
            dropped = f - out
            ref = majorant_norm(dropped.with_radii(f.r - sigma, f.s))
            assert tail >= ref * (1 - 1e-13)

    def test_sigma_bounds(self, g11):
        f = FTSeries.constant(g11, 1, 1, 1.0)
        with pytest.raises(ValueError):
            truncate_fourier(f, 4, 1.5)


class TestTaylorSplit:
    def test_degree_conventions(self, g11):
        f = (FTSeries.constant(g11, 1, 1, 1.0) + mono(g11, (1, 0, 0))
             + mono(g11, (2, 0, 0)) + mono(g11, (3, 0, 0)))
        sp = taylor_split(f)
        assert coeff(sp.a, (0,), (0,), (0, 0, 0)) == 1.0
        assert coeff(sp.b_x[0], (0,), (0,), (0, 0, 0)) == 1.0
        assert coeff(sp.d_xx[0][0], (0,), (0,), (0, 0, 0)) == 2.0
        assert coeff(sp.remainder, (0,), (0,), (3, 0, 0)) == 1.0

    def test_cross_block_py(self, g11):
        sp = taylor_split(mono(g11, (0, 1, 1)))
        assert coeff(sp.d_py[0][0], (0,), (0,), (0, 0, 0)) == 1.0

    def test_mode_carrying_xy_block(self, g11):
        sp = taylor_split(mono(g11, (1, 0, 1), k=(1,)))
        assert coeff(sp.d_xy[0][0], (0,), (1,), (0, 0, 0)) == 1.0

    def test_reassembly_bit_exact(self, g11, rng):
        for _ in range(10):
            f = random_real_series(g11, 1, 1, rng, n_modes=12, max_deg=4)
            diff = taylor_split(f).reassemble() - f
            assert diff.max_abs_coeff() == 0.0

    def test_reassembly_multidim(self, rng):
        g = Grading(d=2, l=2, K_q=4, K_phi=2, D=4)
        f = random_real_series(g, 1, 1, rng, n_modes=25, max_deg=4)
        assert (taylor_split(f).reassemble() - f).max_abs_coeff() == 0.0

    def test_reassembly_keeps_truncation_loss(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng, n_modes=12, max_deg=4)
        f.trunc_loss = 1e-9
        assert taylor_split(f).reassemble().trunc_loss >= 1e-9


class TestMajorant:
    def test_constant(self, g11):
        assert majorant_norm(FTSeries.constant(g11, 1, 1, -2.5)) == 2.5

    def test_single_mode_formula(self):
        g = Grading(d=2, l=1, K_q=4, K_phi=2, D=3)
        f = FTSeries.term(g, 1, 1, (0,), (2, 1), (0, 0, 0, 0), 1.0)
        assert majorant_norm(f.with_radii(0.5, 1.0)) == pytest.approx(
            math.exp(1.5))

    def test_dominates_grid_samples(self, g11, rng):
        for _ in range(5):
            f = random_real_series(g11, 1, 1, rng)
            bound = majorant_norm(f)
            for t in np.linspace(0, 2 * math.pi, 32, endpoint=False):
                val = evaluate(f, phi=[t], q=[2 * t], x=[0.3], p=[-0.2],
                               y=[0.1])
                assert abs(val) <= bound + 1e-12

    @settings(max_examples=80)
    @given(st.integers(-6, 6), st.integers(-6, 6),
           st.tuples(*[st.integers(0, 6)] * 3), st.floats(0.01, 3.0),
           st.floats(0.01, 3.0))
    def test_dropped_term_weighed_by_the_plan(self, j, k, a, r, s):
        # a term outside the grading goes to trunc_loss at _Plan.weigh's
        # weight, bit for bit: the weight read in a grading that holds it
        small = Grading(d=1, l=1, K_q=2, K_phi=2, D=3)
        assume(abs(j) > 2 or abs(k) > 2 or sum(a) > 3)
        f = FTSeries(small, r, s, {((j,), (k,), a): 0.75})
        assert f.is_zero()
        plan = fts._plan(Grading(d=1, l=1, K_q=6, K_phi=6, D=18))
        weight = plan.weigh(np.array([plan.code(plan.J.index[(j,)],
                                                plan.K.index[(k,)],
                                                plan.T.index[a])]), r, s)
        assert f.trunc_loss == 0.75 * weight[0]

    def test_submultiplicative_without_loss(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng, max_k=2, max_phi=1, max_deg=1)
        g = random_real_series(g11, 1, 1, rng, max_k=2, max_phi=1, max_deg=1)
        prod = multiply(f, g)
        assert prod.trunc_loss == 0.0
        assert majorant_norm(prod) <= majorant_norm(f) * majorant_norm(g) + 1e-12


class TestWithRadii:
    def test_relabels_without_copying_coefficients(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng)
        g = f.with_radii(0.8, 0.9)
        assert (g.r, g.s) == (0.8, 0.9)
        assert g.terms == f.terms
        assert majorant_norm(g) == pytest.approx(sum(
            abs(c) * math.exp(0.8 * sum(map(abs, j + k))) * 0.9 ** sum(a)
            for (j, k, a), c in f.terms.items()), rel=1e-14)

    def test_radii_may_only_shrink(self, g11):
        f = FTSeries.constant(g11, 0.8, 0.9, 1.0)
        assert f.with_radii(0.8, 0.9).r == 0.8
        with pytest.raises(ValueError, match="cannot grow"):
            f.with_radii(1.0, 0.9)
        with pytest.raises(ValueError, match="cannot grow"):
            f.with_radii(0.8, 1.0)

    def test_radii_may_shrink_to_zero_not_below(self, g11):
        # cos(q) on the real torus r = 0: its majorant is sup |cos| = 1; a
        # negative radius would read 0.5 e^{-0.5} + 0.5 e^{-0.5} = 0.607,
        # below the sup, so it is refused
        f = FTSeries.cos_angle(g11, 1, 1, (0,), (1,))
        assert majorant_norm(f.with_radii(0.0, 1.0)) == 1.0
        assert majorant_norm(f.with_radii(0.0, 0.0)) == 1.0
        for r, s in [(-0.5, 1.0), (0.5, -1.0), (math.nan, 1.0)]:
            with pytest.raises(ValueError, match="non-negative"):
                f.with_radii(r, s)


class TestCkNorm:
    def test_constant(self, g11):
        f = FTSeries.constant(g11, 1, 1, 2.0)
        for k1, k2 in [(0, 0), (2, 2), (1, 3)]:
            assert ck_norm_estimate(f, k1, k2) == 2.0

    def test_sin_phi_second_order(self, g11):
        a = (0,) * g11.nz
        f = FTSeries(g11, 1, 1, {((1,), (0,), a): -0.5j,
                                 ((-1,), (0,), a): 0.5j}).with_radii(0.0, 1.0)
        bound = ck_norm_estimate(f, 2, 0)
        assert bound >= 3.0 - 1e-12  # |f| + |f'| + |f''| sup-sum

    def test_s_zero_refuses_ball_derivatives(self, g11):
        # cos(phi + q) + x on s = 0: a derivative in (q, x, p, y) has no
        # bound there (the falling factorial divides by s), so k2 >= 1 is
        # refused, not returned as nan; k2 = 0 reads e^{2 r} (k1 + 1) off the
        # cosine (|j| = 1), with the x term weighed s^1 = 0, as majorant_norm
        f = (FTSeries.cos_angle(g11, 1, 1, (1,), (1,))
             + fts.coordinate(g11, 1, 1, "x", 0)).with_radii(0.5, 0.0)
        for k1, k2 in [(0, 1), (2, 1), (0, 3)]:
            with pytest.raises(ValueError, match=r"k2 = %d >= 1 at s = 0"
                               % k2):
                ck_norm_estimate(f, k1, k2)
        assert ck_norm_estimate(f, 0, 0) == majorant_norm(f)
        for k1 in range(3):
            assert ck_norm_estimate(f, k1, 0) == pytest.approx(
                math.e * (k1 + 1), rel=1e-15)

    def test_monotone_in_orders(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng).with_radii(0.5, 1.0)
        vals = [[ck_norm_estimate(f, k1, k2) for k2 in range(3)]
                for k1 in range(3)]
        for k1 in range(2):
            for k2 in range(2):
                assert vals[k1][k2] <= vals[k1 + 1][k2] + 1e-12
                assert vals[k1][k2] <= vals[k1][k2 + 1] + 1e-12


class TestEvaluate:
    def test_constant(self, g11):
        assert evaluate(FTSeries.constant(g11, 1, 1, 2.5), q=[1.0]) == 2.5

    def test_cosine_pair(self, g11):
        f = (mono(g11, (0, 0, 0), k=(1,)) + mono(g11, (0, 0, 0), k=(-1,)))
        assert evaluate(f, q=[0.0]) == pytest.approx(2.0)

    def test_against_extended_precision(self, g11, rng):
        mpmath.mp.dps = 40
        for _ in range(5):
            f = random_real_series(g11, 1, 1, rng, n_modes=10, max_deg=3)
            phi, q = rng.uniform(0, 2 * math.pi, 2)
            x, p, y = rng.uniform(-0.5, 0.5, 3)
            got = evaluate(f, phi=[phi], q=[q], x=[x], p=[p], y=[y])
            acc = mpmath.mpc(0)
            for (j, k, a), c in sorted(f.terms.items()):
                term = mpmath.mpc(c.real, c.imag)
                term *= mpmath.exp(1j * (j[0] * mpmath.mpf(phi)
                                         + k[0] * mpmath.mpf(q)))
                term *= mpmath.mpf(x) ** a[0] * mpmath.mpf(p) ** a[1] \
                    * mpmath.mpf(y) ** a[2]
                acc += term
            assert abs(got - float(acc.real)) <= \
                1e-12 * max(1.0, abs(float(acc.real)))


class TestSerialization:
    def test_round_trip_bit_exact(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng, n_modes=15)
        text = dumps(f)
        back = loads(text)
        assert dumps(back) == text
        assert (back - f).max_abs_coeff() == 0.0

    def test_schema_fields(self, g11):
        d = fts.to_json_dict(FTSeries.cos_angle(g11, 1, 1, (1,), (0,)))
        assert set(d) == {"grading", "radii", "terms"}
        assert set(d["terms"][0]) == {"j", "k", "alpha", "re", "im"}


class TestOperationsPreserveReality:
    def test_suite(self, g11, rng):
        f = random_real_series(g11, 1, 1, rng)
        g = random_real_series(g11, 1, 1, rng)
        for out in [f + g, f - g, multiply(f, g), differentiate(f, ("q", 0)),
                    differentiate(f, ("x", 0)), average_q(f),
                    partial_omega(f, [GOLDEN]),
                    truncate_fourier(f, 4, 0.2)[0]]:
            assert out.reality_defect() < 1e-12


class TestRealityGuard:
    def test_broken_symmetry_evaluation_raises(self, g11):
        from kamtori.series import RealityError
        f = FTSeries(g11, 1, 1, {((0,), (1,), (0, 0, 0)): 1.0 + 0.5j},
                     _raw=True)
        with pytest.raises(RealityError):
            evaluate(f, q=[0.7])
