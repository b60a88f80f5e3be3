"""The one-call Poisson bracket against its oracle (tests/bracket_oracle.py:
each half-product built from two derivative series, merged by ft_sum).

Coefficients are Gaussian integers (scaled by powers of two on small
operands), so every half-product and sum is exact in any order: the term
sets must agree exactly, coefficients to 1e-14 of the oracle's largest
half-product coefficient and trunc_loss to 1e-12 relative.  The kernel is
chosen by multiply's rule; a patched ``kamtori.series._layout`` forces one
path or the other on the same operands."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracket_oracle
import kamtori.series as ring
import kamtori.symplectic as symplectic
from kamtori.series import (BLOCK_MIN_PAIRS, FTSeries, Grading, _block_layout,
                            _l1, _plan, evaluate, evaluate_all)
from kamtori.symplectic import poisson_bracket
from conftest import random_real_series
from test_product import ball_keys, gauss, gradings, largest

PROPS = settings(max_examples=30, deadline=None)
NB = 3


def mirror(key):
    j, k, a = key
    return tuple(-v for v in j), tuple(-v for v in k), a


def real_series(gr, radii, draws, loss=0.0):
    """The real series of the (key, coefficient) draws: each term with its
    mirror term conj(c) (a self-mirrored term keeps its real part)."""
    terms = {}
    for key, c in draws:
        terms[key] = c
        terms[mirror(key)] = np.conj(c)
        if mirror(key) == key:
            terms[key] = np.real(c) + 0j
    return FTSeries(gr, *radii, terms, loss, _raw=True)


@st.composite
def operands(draw, grading=gradings, batched=(False, False), max_terms=10,
             exponents=(0, 12)):
    """Two real series of one grading and radii; a batched one has NB-entry
    coefficients."""
    gr = draw(grading)
    radii = draw(st.sampled_from([(1.0, 1.0), (0.7, 0.9)]))
    keys = ball_keys(gr)
    out = []
    for wide in batched:
        def coef():
            c = lambda: draw(gauss) * 2.0 ** -draw(st.sampled_from(exponents))
            return np.array([c() for _ in range(NB)]) if wide else c()
        chosen = draw(st.lists(st.sampled_from(keys), max_size=max_terms,
                               unique=True))
        out.append(real_series(gr, radii, [(key, coef()) for key in chosen],
                               draw(st.sampled_from([0.0, 1e-12, 3e-9]))))
    return out


def large_operands(seed, batched=False):
    """Two real series with more than BLOCK_MIN_PAIRS pairs of terms and
    integer coefficients (exact through every sum); low modes and degrees
    make dense blocks, which the gather gate lets through."""
    gr = Grading(d=2, l=1, K_q=3, K_phi=2, D=4)
    rng = np.random.default_rng(seed)
    keys = [key for key in ball_keys(gr) if _l1(key[0]) <= 1
            and _l1(key[1]) <= 1 and sum(key[2]) <= 3]
    out = []
    for wide in (batched, False):
        pick = rng.choice(len(keys), 130, replace=False)
        shape = (NB,) if wide else ()
        out.append(real_series(gr, (0.8, 0.9), [
            (keys[i], rng.integers(-8, 9, shape) + 1j * rng.integers(-8, 9, shape))
            for i in pick], 1e-12))
    f, g = out
    assert len(f.coef) * len(g.coef) >= BLOCK_MIN_PAIRS
    return f, g


def assert_matches_oracle(got, f, g):
    want = bracket_oracle.poisson_bracket(f, g)
    parts, _ = bracket_oracle.halves(f, g)
    scale = max(largest(p) for p in parts)
    assert set(got.terms) == set(want.terms)
    for key, c in want.terms.items():
        assert np.max(np.abs(got.terms[key] - c)) <= 1e-14 * scale, key
    assert got.trunc_loss == pytest.approx(want.trunc_loss, rel=1e-12, abs=0.0)


def block_layout(f, g):
    unbatched = f.coef.ndim == g.coef.ndim == 1
    return _block_layout(_plan(f.grading), f, g) \
        if unbatched and len(f.coef) and len(g.coef) else None


def bracket_on(path, f, g):
    """poisson_bracket(f, g) with the kernel forced to path ('pair' or
    'block'; the block kernel takes unbatched operands only)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_layout", block_layout if path == "block"
                   else lambda f, g: None)
        return poisson_bracket(f, g)


@PROPS
@given(operands())
def test_bracket_matches_oracle(fg):
    f, g = fg
    assert_matches_oracle(poisson_bracket(f, g), f, g)


@PROPS
@given(operands(batched=(True, False)), st.booleans())
def test_bracket_matches_oracle_batched(fg, swap):
    f, g = fg[::-1] if swap else fg
    assert_matches_oracle(poisson_bracket(f, g), f, g)
    assert_matches_oracle(poisson_bracket(f, f), f, f)


@PROPS
@given(operands(max_terms=16))
def test_paths_agree_with_oracle(fg):
    # the block kernel on small operands and the pair kernel on the same ones
    f, g = fg
    for path in ("pair", "block"):
        assert_matches_oracle(bracket_on(path, f, g), f, g)


@pytest.mark.parametrize("seed", [3, 4])
def test_large_bracket_takes_the_block_kernel(seed):
    f, g = large_operands(seed)
    assert ring._layout(f, g) is not None
    got = poisson_bracket(f, g)
    assert_matches_oracle(got, f, g)
    pair = bracket_on("pair", f, g)
    assert list(pair.terms) == list(got.terms)
    for key, c in got.terms.items():
        assert pair.terms[key] == c, key
    assert pair.trunc_loss == pytest.approx(got.trunc_loss, rel=1e-12)


def test_large_batched_bracket_takes_the_pair_kernel():
    f, g = large_operands(5, batched=True)
    assert ring._layout(f, g) is None
    assert_matches_oracle(poisson_bracket(f, g), f, g)
    assert_matches_oracle(poisson_bracket(g, f), g, f)


# the working grading and one with room for every product of its series
WORK = Grading(d=1, l=1, K_q=3, K_phi=2, D=4)
ROOM = Grading(d=1, l=1, K_q=6, K_phi=4, D=8)


def weight(key, r, s):
    j, k, a = key
    return math.exp((_l1(j) + _l1(k)) * r) * s ** sum(a)


@pytest.mark.parametrize("path", ["pair", "block"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_loss_bounds_what_truncation_drops(path, data):
    # operands at the edge of the working grading in mode (|k| = 3) and in
    # degree (|a| = 4) besides inner terms: their bracket reaches past it
    # in both, and the working bracket's loss must bound all of that
    keys = [key for key in ball_keys(WORK)
            if _l1(key[1]) in (1, 3) and sum(key[2]) in (1, 4)]
    draws = [data.draw(st.lists(st.tuples(st.sampled_from(keys), gauss),
                                min_size=4, max_size=10, unique_by=lambda t: t[0]))
             for _ in range(2)]
    f, g = (real_series(WORK, (0.7, 0.9), d) for d in draws)
    F, G = (real_series(ROOM, (0.7, 0.9), d) for d in draws)
    work, room = bracket_on(path, f, g), poisson_bracket(F, G)
    assert room.trunc_loss == 0.0
    past = [(key, c) for key, c in room.terms.items()
            if _l1(key[1]) > WORK.K_q or _l1(key[0]) > WORK.K_phi
            or sum(key[2]) > WORK.D]
    dropped = sum(abs(c) * weight(key, 0.7, 0.9) for key, c in past)
    assert dropped <= work.trunc_loss * (1 + 1e-12)
    # what lies inside is the working bracket
    for key, c in room.terms.items():
        if (key, c) not in past:
            assert work.terms[key] == c


def test_bracket_makes_no_products_or_derivatives(monkeypatch):
    calls = []
    for module in (ring, symplectic):
        for name in ("multiply", "differentiate"):
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(module, name, spy)
    kernel, real_products = [], ring._products

    def products_spy(*args):
        kernel.append(args)
        return real_products(*args)
    monkeypatch.setattr(ring, "_products", products_spy)
    rng = np.random.default_rng(11)
    gr = Grading(d=2, l=1, K_q=3, K_phi=2, D=4)
    f, g = (random_real_series(gr, 1.0, 1.0, rng, n_modes=12) for _ in range(2))
    batched = f.scale(np.array([1.0, 0.5, -2.0]))
    for u, v in ((f, g), (batched, g), (g, batched)):
        kernel.clear()
        poisson_bracket(u, v)
        assert len(kernel) == 1
    large = large_operands(6)
    kernel.clear()
    poisson_bracket(*large)
    assert len(kernel) == 1
    assert calls == []


def test_plan_weight_is_the_closed_formula():
    rng = np.random.default_rng(17)
    for _ in range(300):
        gr = Grading(d=int(rng.integers(1, 3)), l=int(rng.integers(1, 3)),
                     K_q=int(rng.integers(1, 7)), K_phi=int(rng.integers(0, 7)),
                     D=int(rng.integers(3, 6)))
        plan = _plan(gr)
        n = 50
        ij = rng.integers(0, len(plan.J.keys), n)
        ik = rng.integers(0, len(plan.K.keys), n)
        it = rng.integers(0, len(plan.T.keys), n)
        r, s = rng.uniform(0.05, 2.0, 2)
        want = np.exp((plan.J.norm[ij] + plan.K.norm[ik]) * r) \
            * s ** plan.T.norm[it].astype(float)
        assert np.array_equal(plan.weight(ij, ik, it, r, s), want)


def test_evaluate_all_matches_each_series():
    rng = np.random.default_rng(23)
    gr = Grading(d=2, l=1, K_q=4, K_phi=2, D=4)
    fs = [random_real_series(gr, 1.0, 1.0, rng, n_modes=n, max_k=4)
          for n in (1, 5, 9, 14)] + [FTSeries.zero(gr, 1.0, 1.0)]
    q = rng.uniform(0, 2 * np.pi, (40, 2))
    for points in ({"q": q}, {"q": q, "phi": rng.uniform(0, 6, (40, 1)),
                              "x": rng.uniform(-0.2, 0.2, (40, 1)),
                              "p": rng.uniform(-0.2, 0.2, (40, 2))}):
        together = evaluate_all(fs, **points)
        assert together.shape == (40, len(fs))
        for n, f in enumerate(fs):
            alone = evaluate(f, **points)
            scale = np.abs(alone).max(initial=0.0)
            assert np.abs(together[:, n] - alone).max() <= 1e-15 * scale
    # one point: a float per series
    assert evaluate_all(fs, q=q[0]).shape == (len(fs),)
    assert isinstance(evaluate(fs[1], q=q[0]), float)
    # a series that is not real is refused, whichever others come with it
    bad = FTSeries.term(gr, 1.0, 1.0, (0,), (1, 0), (0, 0, 0, 0), 1.0)
    with pytest.raises(ring.RealityError):
        evaluate_all(fs[:2] + [bad], q=q)
    # so are series of different gradings, which one plan cannot index
    wider = Grading(d=2, l=1, K_q=5, K_phi=2, D=4)
    other = random_real_series(wider, 1.0, 1.0, rng, n_modes=9, max_k=5)
    with pytest.raises(ring.GradingError):
        evaluate_all(fs[:2] + [other], q=q)


@pytest.mark.parametrize("path", ["pair", "block"])
def test_each_half_has_its_own_floors(path):
    # {g, h} = d_q g d_p h - d_y g d_x h: the first half is i e^{iq} plus
    # i 2^-54 e^{iq} x, below 2e-16 of that half's largest entry and pruned
    # there; the second half puts -2^-50 on the same slot, its own largest
    # entry, so the bracket keeps -2^-50 exactly and the loss holds 2^-54
    gr = Grading(d=1, l=1, K_q=2, K_phi=0, D=3)
    j = (0,)
    g = FTSeries(gr, 0.5, 0.8, {(j, (1,), (0, 0, 0)): 1.0,
                                (j, (1,), (1, 0, 0)): 2.0 ** -54,
                                (j, (0,), (0, 0, 1)): 2.0 ** -50}, _raw=True)
    h = FTSeries(gr, 0.5, 0.8, {(j, (0,), (0, 1, 0)): 1.0,
                                (j, (1,), (2, 0, 0)): 0.5}, _raw=True)
    got = bracket_on(path, g, h)
    assert dict(got.terms) == {(j, (1,), (0, 0, 0)): 1j,
                               (j, (1,), (1, 0, 0)): -(2.0 ** -50)}
    assert got.trunc_loss == pytest.approx(2.0 ** -54 * math.exp(0.5) * 0.8,
                                           rel=1e-12)
    assert_matches_oracle(got, g, h)
