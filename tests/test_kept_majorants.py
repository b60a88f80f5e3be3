"""The derivative majorants a series keeps (``series._majorants``): each
equals a fresh computation bit for bit, they are read only on the radii and
terms they were computed on, and one Lie step weighs each series once."""

import collections

import numpy as np
import pytest

import kamtori.series as ring
from kamtori.series import (FTSeries, Grading, _majorants, _partial, _plan,
                            _UNIT, _weighted, majorant_norm)
from kamtori.symplectic import GeneratingFunction, lie_transform
from conftest import random_real_series

GR = Grading(d=1, l=2, K_q=3, K_phi=2, D=4)
NB = 3


def partials(gr):
    """The identity and every first partial of the grading."""
    return [_UNIT] + [_partial(gr, (name, i)) for name, n in (
        ("phi", gr.l), ("q", gr.d), ("x", gr.l), ("p", gr.d), ("y", gr.l))
        for i in range(n)]


def fresh(f, d, r=None, s=None):
    """The majorant of d f on (r, s) (f's own radii by default), formed
    without reading anything f keeps."""
    r, s = (f.r if r is None else r), (f.s if s is None else s)
    plan = _plan(f.grading)
    # the weights e^{(|j|+|k|) r} s^|a| in closed form
    w = np.exp((plan.J.norm[f.ij] + plan.K.norm[f.ik]) * r) \
        * s ** plan.T.norm[f.it].astype(float)
    if d.name is not None:
        w = w * d.magnitude(plan, f.ij, f.ik, f.it, s)
    return _weighted(f.coef, w)


def assert_bits(got, want):
    assert type(got) is type(want)
    assert np.array_equal(got, want) and np.shape(got) == np.shape(want)


def series(batched, seed=3, r=0.7, s=0.9):
    f = random_real_series(GR, r, s, np.random.default_rng(seed), n_modes=12,
                           max_k=2, max_phi=2, max_deg=4)
    if batched:
        scale = np.array([1.0, -0.5, 2.0])
        f = FTSeries(GR, r, s, {key: c * scale for key, c in f.terms.items()},
                     _raw=True)
    return f


@pytest.mark.parametrize("batched", [False, True])
class TestKept:
    def test_equal_fresh_for_every_partial(self, batched):
        f = series(batched)
        plan, ds = _plan(GR), partials(GR)
        # filled in two calls, one of them asking twice for a partial, then
        # read back in another order
        first = _majorants(plan, f, ds[3:] + ds[3:4])
        rest = _majorants(plan, f, ds[:3])
        for got, d in zip(first + rest, ds[3:] + ds[3:4] + ds[:3]):
            assert_bits(got, fresh(f, d))
        for got, d in zip(_majorants(plan, f, ds[::-1]), ds[::-1]):
            assert_bits(got, fresh(f, d))
            if batched:   # one length-B array per entry, kept read-only
                assert got.shape == (NB,) and not got.flags.writeable
        assert_bits(majorant_norm(f), fresh(f, _UNIT))

    def test_retagged_and_rebuilt_read_fresh(self, batched):
        f = series(batched)
        plan, ds = _plan(GR), partials(GR)
        _majorants(plan, f, ds)
        # a copy shares what f keeps; a re-tag reads on its own radii
        g = f.with_radii(0.5, 0.6)
        for u in (f.copy(), g, f.copy().with_radii(0.5, 0.6)):
            for got, d in zip(_majorants(plan, u, ds), ds):
                assert_bits(got, fresh(u, d))
            assert_bits(majorant_norm(u), fresh(u, _UNIT))
        assert np.all(majorant_norm(g) < majorant_norm(f))
        # f's norm on other radii is its re-tag's, the weighted sum formed
        # on those radii; reading it leaves what f keeps as it was
        kept = f._maj
        assert_bits(majorant_norm(f.with_radii(0.5, 0.6)),
                    fresh(f, _UNIT, 0.5, 0.6))
        assert f._maj is kept
        assert_bits(majorant_norm(f), fresh(f, _UNIT))
        # new terms by _set
        h = f.copy()
        h._set(h.slot, 2.0 * h.coef)
        for got, d in zip(_majorants(plan, h, ds), ds):
            assert_bits(got, fresh(h, d))
            assert np.all(got == 2.0 * fresh(f, d))

    def test_pruned_read_fresh(self, batched):
        u = series(batched)
        plan, ds = _plan(GR), partials(GR)
        before = _majorants(plan, u, ds)
        # a floor between the terms' sizes drops some of them
        n = len(u.coef)
        floor = float(np.median(np.abs(u.coef).reshape(n, -1).max(axis=1)))
        u._prune(floor)
        assert 0 < len(u.coef) < n
        # a batched prune forms no loss
        assert u.trunc_loss == 0.0 if batched else u.trunc_loss > 0.0
        for got, d in zip(_majorants(plan, u, ds), ds):
            assert_bits(got, fresh(u, d))
        assert np.all(majorant_norm(u) < before[0])


def test_scale_estimate_of_a_batched_generator():
    # the kept majorant of F is read-only: the sum with |v| is a new array
    F, v = series(True), series(True, seed=4)
    gen = GeneratingFunction(F, [v])
    want = fresh(F, _UNIT) + fresh(v, _UNIT)
    assert_bits(gen.scale_estimate(), want)
    assert_bits(majorant_norm(F), fresh(F, _UNIT))


def test_one_weight_per_series_in_a_lie_step(monkeypatch):
    """Across bound(term) and step(term) of a lie_transform, each series is
    weighed (plan.weigh on its own slots) once per radii: the step reads
    the term's majorants the bound formed, and the generator's from
    _bound_factors."""
    gr = Grading(d=1, l=1, K_q=4, K_phi=3, D=4)
    rng = np.random.default_rng(11)
    F = random_real_series(gr, 0.7, 0.9, rng, n_modes=8, max_k=2,
                           max_phi=2, max_deg=3, scale=1e-2)
    v = [random_real_series(gr, 0.7, 0.9, rng, n_modes=3, max_k=0,
                            max_phi=2, max_deg=0, scale=1e-2)]
    g = random_real_series(gr, 0.7, 0.9, rng, n_modes=10, max_k=2,
                           max_phi=2, max_deg=4)
    # operands with a loss of their own, so each bracket propagates it
    # through the majorants of its halves
    F.trunc_loss = g.trunc_loss = 1e-18
    gen = GeneratingFunction(F, v)
    inside, weighed, terms = [False], [], []
    weigh = ring._Plan.weigh

    def spy_weigh(self, slot, r, s):
        if inside[0]:
            weighed.append((slot, r, s))   # kept alive: ids are not reused
        return weigh(self, slot, r, s)
    monkeypatch.setattr(ring._Plan, "weigh", spy_weigh)
    for name in ("bracket_bound", "bracket_with"):
        def spy(self, term, _real=getattr(GeneratingFunction, name)):
            terms.append(term)
            inside[0] = True
            try:
                return _real(self, term)
            finally:
                inside[0] = False
        monkeypatch.setattr(GeneratingFunction, name, spy)
    _, _, order = lie_transform(g, gen)
    assert order >= 3
    counts = collections.Counter((id(slot), r, s) for slot, r, s in weighed)
    assert max(counts.values()) == 1
    # the generator and every bounded or bracketed term with a loss were
    # weighed
    seen = {id(slot) for slot, _, _ in weighed}
    assert id(F.slot) in seen
    assert all(id(t.slot) in seen for t in terms if t.trunc_loss)
    assert sum(1 for t in terms if t.trunc_loss) >= 2
