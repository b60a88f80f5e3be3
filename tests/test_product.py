"""The product kernels against a dict oracle, and the ring identities.

The oracle is the pair loop ``multiply`` ran before the index-pair tables:
every pair of terms in sorted order, the out-of-grading pairs' majorant added
to the loss, then the dict prune that ran with it (per entry for batched
coefficients).  A product with a batched operand forms no loss of its own:
it carries only its operands' losses.
Coefficients are Gaussian integers scaled by powers of two, so products and
sums are exact in any order and the key sets must agree exactly.  The block
kernel is called directly, so that small products reach it too.
"""

import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kamtori.series as ring
from kamtori.series import (BLOCK_MIN_PAIRS, PRUNE_FLOOR, REL_PRUNE, FTSeries,
                            Grading, _block_layout, _l1, _plan, _product,
                            ft_sum, majorant_norm, multiply)
from kamtori.symplectic import poisson_bracket

PROPS = settings(max_examples=40, deadline=None)
NB = 3

gradings = st.builds(Grading, d=st.integers(1, 2), l=st.integers(1, 2),
                     K_q=st.integers(1, 3), K_phi=st.integers(0, 2),
                     D=st.integers(3, 4))
gauss = st.builds(complex, st.integers(-8, 8), st.integers(-8, 8))


@functools.lru_cache(maxsize=None)
def ball_keys(gr, max_mode=None, max_deg=None):
    """Every key of the grading (modes and degree optionally capped)."""
    K_phi = gr.K_phi if max_mode is None else min(gr.K_phi, max_mode)
    K_q = gr.K_q if max_mode is None else min(gr.K_q, max_mode)
    D = gr.D if max_deg is None else max_deg
    ball = lambda dim, K: [v for v in itertools.product(range(-K, K + 1),
                                                         repeat=dim)
                           if _l1(v) <= K]
    taylor = [a for a in itertools.product(range(D + 1), repeat=gr.nz)
              if sum(a) <= D]
    return [(j, k, a) for j in ball(gr.l, K_phi) for k in ball(gr.d, K_q)
            for a in taylor]


@st.composite
def series(draw, gr, radii, batched=False, max_terms=12, exponents=(0, 19),
           losses=(0.0,), keys=None, min_terms=0):
    """A series of the grading; a coefficient is a Gaussian integer times
    2^-e (an NB-array of them when batched, with some plain numbers mixed
    in).  With exponents of at most 19 every product of two series and its
    sums stay exact; with exponent 0 alone, every product of three."""
    keys = draw(st.lists(st.sampled_from(keys or ball_keys(gr)),
                         min_size=min_terms, max_size=max_terms, unique=True))

    def coef():
        return draw(gauss) * 2.0 ** -draw(st.sampled_from(exponents))
    terms = {}
    for key in keys:
        if batched and draw(st.floats(0, 1)) < 0.8:
            terms[key] = np.array([coef() for _ in range(NB)])
        else:
            terms[key] = coef()
    return FTSeries(gr, *radii, terms, draw(st.sampled_from(losses)),
                    _raw=True)


@st.composite
def group(draw, n, grading=gradings, **kw):
    """n series of one grading and one pair of radii."""
    gr = draw(grading)
    radii = draw(st.sampled_from([(1.0, 1.0), (0.7, 0.9), (0.5, 0.6)]))
    if "keys" in kw:
        kw["keys"] = ball_keys(gr, *kw["keys"])
    return [draw(series(gr, radii, **kw)) for _ in range(n)]


def weight(key, r, s):
    j, k, a = key
    return math.exp((_l1(j) + _l1(k)) * r) * s ** sum(a)


def oracle_majorant(f):
    total = 0.0
    for key, c in f.terms.items():
        total = total + np.abs(c) * weight(key, f.r, f.s)
    return total


def oracle_prune(terms, r, s):
    """Drop what is at or below max(PRUNE_FLOOR, REL_PRUNE x the largest),
    each entry of a batched coefficient against its own floor; returns the
    kept terms and the largest entry's pruned majorant."""
    if not terms:
        return {}, 0.0
    width = max(np.size(c) for c in terms.values())
    mags = {key: np.broadcast_to(np.abs(c), (width,)) for key, c in terms.items()}
    floor = np.maximum(PRUNE_FLOOR, REL_PRUNE * np.max(list(mags.values()), axis=0))
    kept, loss = {}, np.zeros(width)
    for key, c in terms.items():
        dead = mags[key] <= floor
        loss += np.where(dead, mags[key], 0.0) * weight(key, r, s)
        if not dead.all():
            kept[key] = c if not dead.any() else np.where(dead, 0.0, c)
    return kept, float(loss.max())


def oracle_multiply(f, g):
    gr = f.grading
    # an operand's own loss carries through the product, an empty one too
    carried = 0.0
    if f.trunc_loss or g.trunc_loss:
        carried = float(np.max(
            f.trunc_loss * oracle_majorant(g) + g.trunc_loss * oracle_majorant(f)
            + f.trunc_loss * g.trunc_loss))
    add = lambda u, v: tuple(x + y for x, y in zip(u, v))
    terms, loss = {}, 0.0
    for (j1, k1, a1), c1 in sorted(f.terms.items(), key=lambda t: t[0]):
        for (j2, k2, a2), c2 in sorted(g.terms.items(), key=lambda t: t[0]):
            j, k, a = add(j1, j2), add(k1, k2), add(a1, a2)
            if _l1(j) > gr.K_phi or _l1(k) > gr.K_q or sum(a) > gr.D:
                loss = loss + np.abs(c1 * c2) * weight((j, k, a), f.r, f.s)
                continue
            cur = terms.get((j, k, a))
            terms[(j, k, a)] = c1 * c2 if cur is None else cur + c1 * c2
    terms, pruned = oracle_prune(terms, f.r, f.s)
    batched = any(np.ndim(c) for u in (f, g) for c in u.terms.values())
    if not batched:
        carried = carried + float(np.max(loss)) + pruned
    return FTSeries(gr, f.r, f.s, terms, carried, _raw=True)


def largest(f):
    return max((float(np.max(np.abs(c))) for c in f.terms.values()),
               default=0.0)


def assert_same(got, want):
    assert set(got.terms) == set(want.terms)
    scale = largest(want)
    for key, c in want.terms.items():
        assert np.max(np.abs(got.terms[key] - c)) <= 1e-15 * scale, key
    assert got.trunc_loss == pytest.approx(want.trunc_loss, rel=1e-12, abs=0.0)


@PROPS
@given(group(2, losses=(0.0, 1e-12, 3e-9)))
def test_multiply_matches_oracle(fg):
    f, g = fg
    assert_same(multiply(f, g), oracle_multiply(f, g))


@PROPS
@given(group(2, batched=True, losses=(0.0, 1e-12, 3e-9)))
def test_multiply_matches_oracle_batched(fg):
    f, g = fg
    assert_same(multiply(f, g), oracle_multiply(f, g))


@PROPS
@given(group(1, max_terms=30, exponents=(0,) + tuple(range(44, 58)) + (110,)),
       st.data(), st.sampled_from([0, 100]), st.booleans())
def test_prune_floors_match_oracle(f, data, shift, batched):
    # g is one term, so each output slot gets one exact product: the relative
    # floor (2e-16 of the largest) and the absolute one (1e-30) decide alone;
    # exponents 44 to 57 put products on both sides of the relative floor,
    # and a series shifted by 2^-100 lies near the absolute one
    f, = f
    g = data.draw(series(f.grading, (f.r, f.s), min_terms=1, max_terms=1,
                         exponents=(0, 60)))
    spread = [1.0, 2.0, 2.0 ** -70] if batched else [1.0]
    f = FTSeries(f.grading, f.r, f.s,
                 {key: np.array([c * v * 2.0 ** -shift for v in spread])
                  if batched else c * 2.0 ** -shift
                  for key, c in f.terms.items()}, _raw=True)
    assert_same(multiply(f, g), oracle_multiply(f, g))
    assert_same(multiply(g, f), oracle_multiply(g, f))


def test_prune_floors_at_their_edges():
    gr = Grading(d=1, l=1, K_q=2, K_phi=2, D=3)
    one = FTSeries.constant(gr, 1.0, 1.0, 1.0)
    k0, k1, k2 = ball_keys(gr)[:3]
    # relative floor 2e-16 of the largest (1.0): 1.5e-16 goes, 3e-16 stays
    f = FTSeries(gr, 1.0, 1.0, {k0: 1.0, k1: 1.5e-16, k2: 3e-16}, _raw=True)
    p = multiply(f, one)
    assert set(p.terms) == {k0, k2}
    assert p.trunc_loss == pytest.approx(1.5e-16 * weight(k1, 1.0, 1.0),
                                         rel=1e-15, abs=0.0)
    # absolute floor 1e-30, above the relative one of a tiny series
    f = FTSeries(gr, 1.0, 1.0, {k0: 1e-29, k1: 0.9e-30, k2: 1.1e-30},
                 _raw=True)
    assert set(multiply(f, one).terms) == {k0, k2}


def block_multiply(f, g):
    """f g through the block kernel, whatever the sizes of f and g."""
    return _product(f, g, _block_layout(_plan(f.grading), f, g))


def assert_exact(got, want):
    """The same keys and coefficients, and trunc_loss to 1e-14 relative."""
    assert list(got.terms) == list(want.terms)
    for key, c in want.terms.items():
        assert got.terms[key] == c, key
    assert got.trunc_loss == pytest.approx(want.trunc_loss, rel=1e-14, abs=0.0)


@PROPS
@given(group(2, min_terms=1, max_terms=30, losses=(0.0, 1e-12, 3e-9)))
def test_block_kernel_matches_oracle(fg):
    f, g = fg
    assert_exact(block_multiply(f, g), oracle_multiply(f, g))
    assert_exact(block_multiply(g, f), oracle_multiply(g, f))


@PROPS
@given(group(1, min_terms=1, max_terms=30,
             exponents=(0,) + tuple(range(44, 58)) + (110,)),
       st.data(), st.sampled_from([0, 100]))
def test_block_kernel_prune_floors_match_oracle(f, data, shift):
    # as test_prune_floors_match_oracle: one product per output slot, so
    # the prune floors decide alone
    f, = f
    g = data.draw(series(f.grading, (f.r, f.s), min_terms=1, max_terms=1,
                         exponents=(0, 60)))
    f = f.scale(2.0 ** -shift)
    assert_exact(block_multiply(f, g), oracle_multiply(f, g))
    assert_exact(block_multiply(g, f), oracle_multiply(g, f))


@st.composite
def one_mode(draw, gr, radii):
    """A series whose terms share one (j, k) mode."""
    j, k, _ = draw(st.sampled_from(ball_keys(gr)))
    return draw(series(gr, radii, min_terms=1, losses=(0.0, 1e-12),
                       keys=[key for key in ball_keys(gr) if key[:2] == (j, k)]))


@PROPS
@given(gradings.flatmap(lambda gr: st.tuples(
    one_mode(gr, (0.7, 0.9)),
    series(gr, (0.7, 0.9), min_terms=8, max_terms=30))))
def test_block_kernel_one_mode_against_many(fg):
    one, many = fg
    for f, g in ((one, many), (many, one)):
        # the one-mode operand is the contracted one, in both orders
        assert len(_block_layout(_plan(f.grading), f, g).c.ij) == 1
        assert_exact(block_multiply(f, g), oracle_multiply(f, g))


# modes and degrees that keep every pair of them inside, or push it out
ROOMY = Grading(d=1, l=1, K_q=3, K_phi=3, D=4)
EDGE = [key for key in ball_keys(ROOMY) if key[1] == (3,)]
INWARD = [key for key in ball_keys(ROOMY) if key[1][0] > 0]
LOW_MODES = ball_keys(ROOMY, 1)


@PROPS
@given(series(ROOMY, (0.7, 0.9), keys=EDGE, min_terms=1, losses=(0.0, 1e-12)),
       series(ROOMY, (0.7, 0.9), keys=INWARD, min_terms=1))
def test_block_kernel_every_pair_out_of_grading(f, g):
    # k sums to 4 > K_q: an empty product that keeps the pairs' loss
    p = block_multiply(f, g)
    assert p.is_zero()
    assert p.trunc_loss > 0.0 or not (largest(f) and largest(g))
    assert_exact(p, oracle_multiply(f, g))


@PROPS
@given(series(ROOMY, (0.7, 0.9), keys=LOW_MODES, min_terms=1, max_terms=30),
       series(ROOMY, (0.7, 0.9), keys=LOW_MODES, min_terms=1, max_terms=30))
def test_block_kernel_only_degrees_overflow(f, g):
    # |j|, |k| <= 1 sum inside K = 3: the loss is the pairs past degree D
    assert _block_layout(_plan(ROOMY), f, g).inside.all()
    assert_exact(block_multiply(f, g), oracle_multiply(f, g))


class TestKernelSelection:
    """multiply takes the block kernel only for unbatched operands with at
    least BLOCK_MIN_PAIRS pairs whose gathered array holds no more entries
    than those pairs; a spy counts the block kernel's calls."""

    GR = Grading(d=1, l=1, K_q=8, K_phi=8, D=4)

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, real = [], ring._block_product

        def spy(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(ring, "_block_product", spy)
        return calls

    def make(self, keys, batched=False):
        rng = np.random.default_rng(len(keys))
        width = (len(keys), 2) if batched else (len(keys),)
        coef = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        return FTSeries(self.GR, 1.0, 1.0, dict(zip(keys, coef)), _raw=True)

    def dense(self):
        # 9 modes x the 20 exponents of degree <= 3: a full block
        return ball_keys(self.GR, 1, 3)

    def assert_pairs(self, p, f, g):
        q = _product(f, g)   # the pair kernel
        assert set(p.terms) == set(q.terms)
        scale = largest(q)
        for key, c in q.terms.items():
            assert np.max(np.abs(p.terms[key] - c)) <= 1e-14 * scale
        assert p.trunc_loss == pytest.approx(q.trunc_loss, rel=1e-12)

    def test_large_unbatched_product_takes_it(self, calls):
        keys = self.dense()
        f = self.make(keys)
        n = -(-BLOCK_MIN_PAIRS // len(keys))   # the fewest reaching the constant
        g = self.make(keys[:n])
        assert len(f.terms) * len(g.terms) >= BLOCK_MIN_PAIRS
        self.assert_pairs(multiply(f, g), f, g)
        assert len(calls) == 1

    def test_product_below_the_constant_does_not(self, calls):
        keys = self.dense()
        f = self.make(keys)
        g = self.make(keys[:(BLOCK_MIN_PAIRS - 1) // len(keys)])
        assert len(f.terms) * len(g.terms) < BLOCK_MIN_PAIRS
        multiply(f, g)
        assert calls == []

    def test_batched_product_does_not(self, calls):
        keys = self.dense()
        f, g = self.make(keys, batched=True), self.make(keys)
        assert len(f.terms) * len(g.terms) >= BLOCK_MIN_PAIRS
        multiply(f, g)
        multiply(g, f)
        multiply(f, f)
        assert calls == []

    def test_sparse_blocks_do_not(self, calls):
        # one term per mode, its exponent cycling through the ball: each
        # block is nearly empty, and gathering it would outgrow the pairs
        keys = ball_keys(self.GR)
        taylor = sorted({key[2] for key in keys})
        modes = sorted({key[:2] for key in keys})
        f = self.make([m + (taylor[i % len(taylor)],)
                       for i, m in enumerate(modes)])
        pairs = len(f.terms) ** 2
        assert pairs >= BLOCK_MIN_PAIRS
        assert _block_layout(_plan(self.GR), f, f).gathered > pairs
        multiply(f, f)
        assert calls == []


@PROPS
@given(group(2))
def test_commutative(fg):
    f, g = fg
    assert_same(multiply(f, g), multiply(g, f))


@PROPS
@given(group(3))
def test_associative_within_recorded_loss(fgh):
    f, g, h = fgh
    lhs = multiply(multiply(f, g), h)
    rhs = multiply(f, multiply(g, h))
    gap = FTSeries(f.grading, f.r, f.s, {
        key: lhs.terms.get(key, 0.0) - rhs.terms.get(key, 0.0)
        for key in set(lhs.terms) | set(rhs.terms)}, _raw=True)
    slack = 1e-13 * oracle_majorant(f) * oracle_majorant(g) * oracle_majorant(h)
    assert oracle_majorant(gap) <= lhs.trunc_loss + rhs.trunc_loss + slack


# modes |j|, |k| <= 1 and degree <= 2 in a grading with room for every
# product and bracket below, and integer coefficients: nothing is truncated
# or rounded, so the identities are exact
BRACKET_GRADINGS = st.builds(Grading, d=st.integers(1, 2), l=st.integers(1, 2),
                             K_q=st.just(3), K_phi=st.just(3), D=st.just(5))


bracket_triples = group(3, BRACKET_GRADINGS, max_terms=6, keys=(1, 2),
                        exponents=(0,))


def assert_zero(total):
    assert total.trunc_loss == 0.0
    assert largest(total) == 0.0


@settings(max_examples=25, deadline=None)
@given(bracket_triples)
def test_poisson_leibniz(fgh):
    f, g, h = fgh
    lhs = poisson_bracket(f, multiply(g, h))
    rhs = ft_sum(f.grading, f.r, f.s, [multiply(poisson_bracket(f, g), h),
                                       multiply(g, poisson_bracket(f, h))])
    assert_zero(lhs - rhs)


@settings(max_examples=25, deadline=None)
@given(bracket_triples)
def test_poisson_jacobi(fgh):
    f, g, h = fgh
    total = ft_sum(f.grading, f.r, f.s, [
        poisson_bracket(f, poisson_bracket(g, h)),
        poisson_bracket(g, poisson_bracket(h, f)),
        poisson_bracket(h, poisson_bracket(f, g))])
    assert_zero(total)


class TestNoStaleArrays:
    """A series' terms are a read-only view of its arrays: every dict write
    raises and leaves what majorant_norm and multiply read unchanged."""

    def make(self):
        gr = Grading(d=1, l=1, K_q=8, K_phi=8, D=4)
        rng = np.random.default_rng(7)
        keys = ball_keys(gr)
        pick = rng.choice(len(keys), 340, replace=False)
        return FTSeries(gr, 1.0, 1.0, {keys[i]: complex(*rng.standard_normal(2))
                                       for i in pick}, _raw=True)

    def fresh(self, f):
        return FTSeries(f.grading, f.r, f.s, dict(f.terms), _raw=True)

    def refused(self, write, f, key):
        with pytest.raises((TypeError, AttributeError)):
            write(f.terms, key)

    @pytest.mark.parametrize("write", [
        lambda t, key: operator.setitem(t, key, 5.0),
        lambda t, key: operator.delitem(t, key),
        lambda t, key: t.pop(key),
        lambda t, key: t.update({key: -3.0}),
        lambda t, key: t.clear(),
        lambda t, key: t.popitem(),
        lambda t, key: operator.ior(t, {key: 7.0}),
        lambda t, key: t.setdefault(
            ((8,), (0,), (0, 0, 0)), 2.0)])
    def test_in_place_write_is_seen(self, write):
        f = self.make()
        g = self.fresh(f)
        before = majorant_norm(f)
        prod_before = multiply(f, g)
        self.refused(write, f, next(iter(f.terms)))
        assert majorant_norm(f) == before == majorant_norm(self.fresh(f))
        assert_same(multiply(f, g), prod_before)

    def test_shared_dict_after_with_radii(self):
        f = self.make()
        h = f.with_radii(0.9, 0.9)
        before = majorant_norm(h)
        self.refused(lambda t, key: operator.setitem(t, key, 5.0), f,
                     next(iter(f.terms)))
        assert majorant_norm(h) == before \
            == majorant_norm(self.fresh(f).with_radii(0.9, 0.9))

    def test_product_arrays_follow_writes(self):
        # a product is born with its arrays, and its view refuses writes too
        f = self.make()
        p = multiply(f, f)
        self.refused(lambda t, key: operator.setitem(t, key, t[key] + 100.0),
                     p, next(iter(p.terms)))
        assert majorant_norm(p) == majorant_norm(self.fresh(p))
