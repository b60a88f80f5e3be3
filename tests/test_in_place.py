"""The ring writes only into arrays it has just allocated: a prune zeroes a
kernel's or a merge's own output in place, a sum accumulates in place, and
a bracket's halves of sign -1 are subtracted rather than negated. No
operand, and no series sharing an operand's arrays, is changed; the shared
empty arrays are read-only; and the bits are those of the negated halves
added."""

import itertools

import numpy as np
import pytest

from kamtori.series import (FTSeries, Grading, _bracket, _bracket_halves,
                            _bracket_pairs, _like, _merge, _plan, _products,
                            ft_sum, majorant_norm, multiply)
from kamtori.symplectic import GeneratingFunction, poisson_bracket

GR = Grading(d=1, l=1, K_q=3, K_phi=2, D=3)
NB = 4
KEYS = [(j, k, a) for j in itertools.product(range(-2, 3), repeat=GR.l)
        if sum(map(abs, j)) <= GR.K_phi
        for k in itertools.product(range(-3, 4), repeat=GR.d)
        if sum(map(abs, k)) <= GR.K_q
        for a in itertools.product(range(4), repeat=GR.nz) if sum(a) <= GR.D]


def spread(rng, n, batched):
    """n coefficients (rows of NB entries if batched) over 25 decades, a
    few of them signed zeros: each sum and prune meets entries far below
    the floors of the others."""
    shape = (n, NB) if batched else (n,)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * 10.0 ** rng.uniform(-25, 0, shape)
    zero = rng.random(shape) < 0.1
    c[zero] = np.array([complex(-0.0, 0.0), complex(0.0, -0.0),
                        complex(-0.0, -0.0)])[rng.integers(0, 3, zero.sum())]
    return c


def series(rng, batched, n=12, big_row=True):
    """A raw (unpruned) series of n distinct terms; with big_row its first
    term is 1 at every entry, so every entry has a scale to prune against."""
    keys = rng.choice(len(KEYS), n, replace=False)
    c = spread(rng, n, batched)
    if big_row:
        c[0] = 1.0
    return FTSeries(GR, 1.0, 1.0, {KEYS[i]: c[m] for m, i in enumerate(keys)},
                    _raw=True)


def snapshot(fs):
    return [(f.ij.tobytes(), f.ik.tobytes(), f.it.tobytes(), f.coef.tobytes(),
             f.coef.shape) for f in fs]


def test_empty_series_arrays_are_read_only():
    # every empty series and kernel part holds the same two arrays
    for f in (FTSeries.zero(GR, 1.0, 1.0), FTSeries(GR, 1.0, 1.0, {}).scale(0),
              multiply(FTSeries.zero(GR, 1.0, 1.0),
                       series(np.random.default_rng(0), True))):
        assert f.is_zero()
        with pytest.raises(ValueError):
            f.coef[...] = 1.0
        with pytest.raises(ValueError):
            f.coef += 1.0
        for idx in (f.ij, f.ik, f.it):
            with pytest.raises(ValueError):
                idx[...] = 0


def operations(f, g):
    """The ring operations that take f and g as operands, each applied."""
    v = [FTSeries.constant(GR, 1.0, 1.0, f.coef[0])]
    zero = FTSeries.zero(GR, 1.0, 1.0)
    return {
        "add": lambda: f + g,
        "sub": lambda: f - g,
        "multiply": lambda: multiply(f, g),
        "poisson_bracket": lambda: poisson_bracket(f, g),
        "bracket_with": lambda: GeneratingFunction(g, v).bracket_with(f),
        # one part: the operand's arrays are handed through the merge
        "one-part ft_sum": lambda: ft_sum(GR, 1.0, 1.0, [f]),
        "one-part _merge": lambda: _merge(GR, 1.0, 1.0, [f], 0.0),
        "sum with zero": lambda: f + zero,
        "zero minus": lambda: zero - f,
    }


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "batched"])
@pytest.mark.parametrize("seed", range(6))
def test_no_operand_is_changed(batched, seed):
    rng = np.random.default_rng(seed)
    f, g = series(rng, batched), series(rng, batched)
    # siblings share the operands' arrays
    siblings = [f.copy(), f.with_radii(0.9, 0.9), g.copy(),
                g.with_radii(1.0, 0.8)]
    assert all(u.coef is w.coef for u, w in zip(siblings, (f, f, g, g)))
    watched = [f, g] + siblings
    before = snapshot(watched)
    zeroed = 0
    for name, op in operations(f, g).items():
        out = op()
        assert snapshot(watched) == before, name
        zeroed += out.coef.ndim == 2 and bool(np.any(out.coef == 0.0))
    # the sums did zero entries in place: the test reaches the in-place prune
    assert zeroed or not batched


def test_a_one_part_sum_that_prunes_copies_the_operand():
    # the lone operand's tiny entry is zeroed in the sum's own copy
    f = FTSeries(GR, 1.0, 1.0, {KEYS[0]: np.ones(NB),
                                KEYS[1]: np.array([1e-20, 1, 1, 1])},
                 _raw=True)
    before = snapshot([f])
    for out in (f + FTSeries.zero(GR, 1.0, 1.0), ft_sum(GR, 1.0, 1.0, [f]),
                _merge(GR, 1.0, 1.0, [f], 0.0)):
        assert out.coef[1, 0] == 0.0 and out.coef is not f.coef
        assert out.trunc_loss == 0.0   # a batched prune forms no loss
    assert snapshot([f]) == before
    # nothing to zero: the operand's arrays are handed through, not copied
    g = FTSeries(GR, 1.0, 1.0, {KEYS[0]: np.ones(NB)}, _raw=True)
    assert (g + FTSeries.zero(GR, 1.0, 1.0)).coef is g.coef


def test_a_prune_in_place_leaves_no_stale_cache():
    # a series being built, with its dict and majorant asked for before the
    # prune zeroes one of its entries in its own array
    f = FTSeries(GR, 1.0, 1.0, {KEYS[0]: np.ones(NB),
                                KEYS[5]: np.array([1, 2, 0.25, 1j])},
                 _raw=True)
    coef = f.coef.copy()
    h = _like(f, f.ij, f.ik, f.it, coef, 0.0)
    stale_terms, stale_maj = dict(h.terms), majorant_norm(h)
    assert h._dict is not None and h._maj is not None
    h._prune(0.3)
    assert h.coef is coef and coef[1, 2] == 0.0
    assert h._dict is None and h._maj is None
    fresh = _like(f, h.ij, h.ik, h.it, coef.copy(), h.trunc_loss)
    assert np.array_equal(majorant_norm(h), majorant_norm(fresh))
    assert not np.array_equal(majorant_norm(h), stale_maj)
    assert all(np.array_equal(c, fresh.terms[key])
               for key, c in h.terms.items())
    assert len(stale_terms) == len(h.terms)


def negated_bracket(f, g):
    """The bracket as it was formed with every half of sign -1 negated into
    a fresh array before its prune, and all halves added."""
    halves = [(slot, -coef if n % 2 else coef, dropped) for n, (slot, coef,
              dropped) in enumerate(_bracket_halves(f, g))]
    parts = _products(f, g, _bracket_pairs(GR), halves)
    return _merge(GR, f.r, f.s, [p[:4] for p in parts],
                  sum(p[4] for p in parts))


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "batched"])
@pytest.mark.parametrize("seed", range(8))
def test_carried_sign_gives_the_negated_halves_bits(batched, seed):
    rng = np.random.default_rng(100 + seed)
    f = series(rng, batched, n=16, big_row=seed % 2 == 0)
    g = series(rng, batched, n=16)
    got, want = _bracket(f, g), negated_bracket(f, g)
    assert snapshot([got]) == snapshot([want])
    assert got.trunc_loss == want.trunc_loss


def test_a_pruned_entry_of_a_subtracted_part_subtracts_as_zero_adds():
    # slot 1 holds 0.5 - 0j from the first part; the second part, of sign
    # -1, has its entry 0 there pruned (1e-20 against 1): the sum must read
    # 0.5 + 0j there, as it did when the negated part was pruned to 0j
    f = FTSeries.zero(GR, 1.0, 1.0)
    g = FTSeries(GR, 1.0, 1.0, {KEYS[0]: 1.0, KEYS[1]: 1.0}, _raw=True)
    slot = _plan(GR).code(g.ij, g.ik, g.it)
    halves = _bracket_pairs(GR)[:2]

    def parts(negate):
        second = np.array([[2, 2], [1e-20, 1]], dtype=complex)
        return [(slot, np.array([[1, 1], [complex(0.5, -0.0), 1]]), 0.0),
                (slot, -second if negate else second, 0.0)]
    signed = _products(f, f, halves, parts(False), (1, -1))
    negated = _products(f, f, halves, parts(True))
    got = _merge(GR, 1.0, 1.0, [p[:4] for p in signed], 0.0, signs=(1, -1))
    want = _merge(GR, 1.0, 1.0, [p[:4] for p in negated], 0.0)
    assert snapshot([got]) == snapshot([want])
    assert got.coef[1, 0] == 0.5 and not np.signbit(got.coef[1, 0].imag)
