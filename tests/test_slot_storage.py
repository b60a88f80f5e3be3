"""Slot-array storage against the dict ring it replaced, and properties of
the ring that do not depend on the storage.

tests/dict_ring.py is the dict-backed kamtori.series as it was before the
slot arrays.  Each differential test builds a pair of series from the same
terms, one of each kind, with scalar or batched coefficients, runs one ring
operation on both and asks for identical key sets (in sorted order),
coefficients within 1e-15 of the largest, and truncation losses, norms and
C^k estimates within 1e-14 relative.
"""

import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_ring as old
import kamtori.series as new
from kamtori.normalform import NormalFormTuple
from kamtori.symplectic import GeneratingFunction, map_from_generator
from conftest import coeff, dumps, loads, random_real_series
from normalform_tools import tuple_from_json, tuple_to_json

PROPS = settings(max_examples=30)
NB = 3
REL = 1e-14

shapes = st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
                   st.integers(0, 2), st.integers(3, 4))
radii = st.sampled_from([(1.0, 1.0), (0.7, 0.9)])
# prune-floor edges: 2^-52 is near the relative floor, 2^-110 the absolute
scales = st.sampled_from([1.0, 1.0, 1.0, 2.0 ** -20, 2.0 ** -52, 2.0 ** -110])
coefs = st.builds(lambda a, b, e: complex(a, b) * e,
                  st.floats(-1, 1, allow_subnormal=False),
                  st.floats(-1, 1, allow_subnormal=False), scales)


@functools.lru_cache(maxsize=None)
def ball_keys(shape, grow=0):
    """The keys of a grading (d, l, K_q, K_phi, D), each bound raised by grow."""
    d, l, K_q, K_phi, D = shape
    K_q, K_phi, D = K_q + grow, K_phi + grow, D + grow
    ball = lambda dim, K: [v for v in itertools.product(range(-K, K + 1),
                                                         repeat=dim)
                           if sum(map(abs, v)) <= K]
    taylor = [a for a in itertools.product(range(D + 1), repeat=2 * l + d)
              if sum(a) <= D]
    return [(j, k, a) for j in ball(l, K_phi) for k in ball(d, K_q)
            for a in taylor]


@st.composite
def term_dicts(draw, shape, batched, grow=0, max_terms=10):
    keys = draw(st.lists(st.sampled_from(ball_keys(shape, grow)),
                         max_size=max_terms, unique=True))
    terms = {}
    for key in keys:
        if batched and draw(st.booleans()) or batched and not terms:
            terms[key] = np.array([draw(coefs) for _ in range(NB)])
        else:
            terms[key] = draw(coefs)
    return terms


@st.composite
def pairs(draw, n=1, batched=None, raw=True, grow=0, max_terms=10):
    """n (slot-array series, dict-ring series) pairs of one grading."""
    shape = draw(shapes)
    r, s = draw(radii)
    loss = draw(st.sampled_from([0.0, 0.0, 3e-9]))
    out = []
    for _ in range(n):
        b = draw(st.booleans()) if batched is None else batched
        terms = draw(term_dicts(shape, b, grow, max_terms))
        out.append((new.FTSeries(new.Grading(*shape), r, s, terms, loss, _raw=raw),
                    old.FTSeries(old.Grading(*shape), r, s, terms, loss, _raw=raw)))
    return out


def close(got, want, rel=REL):
    """Within rel of each other; a number the dict ring derived from plain
    coefficients of a batched series stands for every entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    want = np.broadcast_to(want, got.shape)
    assert np.all(np.abs(got - want) <= rel * np.maximum(np.abs(got), np.abs(want)))


def same(got, want):
    """The slot-array series got holds the terms of the dict series want."""
    assert list(got.terms) == sorted(want.terms)
    if want.terms:
        top = max(float(np.max(np.abs(c))) for c in want.terms.values())
        dev = max(float(np.max(np.abs(got.terms[key] - c)))
                  for key, c in want.terms.items())
        assert dev <= 1e-15 * top
    close(got.trunc_loss, want.trunc_loss)


@PROPS
@given(pairs(2, raw=False, grow=1))
def test_checked_construction(fg):
    for f, f_old in fg:   # terms outside the grading go to the loss
        same(f, f_old)


@PROPS
@given(pairs(2), st.sampled_from(["add", "sub", "rsub"]))
def test_sum_and_difference(fg, op):
    (f, f_old), (g, g_old) = fg
    fn = {"add": operator.add, "sub": operator.sub,
          "rsub": lambda a, b: b - a}[op]
    same(fn(f, g), fn(f_old, g_old))
    same(f + 0.25, f_old + 0.25)
    same(f + np.arange(1.0, NB + 1), f_old + np.arange(1.0, NB + 1))


@PROPS
@given(pairs(1), st.sampled_from([0.0, -1.5, 2j, 1e-17]))
def test_scale_and_negation(fg, c):
    (f, f_old), = fg
    same(f.scale(c), f_old.scale(c))
    entries = np.array([0.5, -2.0, 3j])
    same(f.scale(entries), f_old.scale(entries))
    same(-f, -f_old)


@PROPS
@given(pairs(2))
def test_multiply(fg):
    (f, f_old), (g, g_old) = fg
    same(new.multiply(f, g), old.multiply(f_old, g_old))


@PROPS
@given(pairs(1))
def test_differentiate(fg):
    (f, f_old), = fg
    gr = f.grading
    for name, n in (("phi", gr.l), ("q", gr.d), ("x", gr.l), ("p", gr.d),
                    ("y", gr.l)):
        for i in range(n):
            same(new.differentiate(f, (name, i)),
                 old.differentiate(f_old, (name, i)))


@PROPS
@given(pairs(1), st.integers(0, 1), st.sampled_from([0.1, 0.3]))
def test_angle_operations(fg, K, sigma):
    (f, f_old), = fg
    same(new.average_q(f), old.average_q(f_old))
    omega = [1.0, (1 + math.sqrt(5)) / 2][:f.grading.d]
    same(new.partial_omega(f, omega), old.partial_omega(f_old, omega))
    (cut, tail), (cut_old, tail_old) = (new.truncate_fourier(f, K, sigma),
                                        old.truncate_fourier(f_old, K, sigma))
    same(cut, cut_old)
    close(tail, tail_old)


@PROPS
@given(pairs(1))
def test_divide_q_modes(fg):
    # against the dict loop smalldiv.solve_L1 ran: c / (i <omega, k>), k != 0
    (f, f_old), = fg
    omega = [1.0, (1 + math.sqrt(5)) / 2][:f.grading.d]
    divisor = lambda k: float(np.dot(omega, k))
    want = old.FTSeries(f_old.grading, f_old.r, f_old.s,
                        {(j, k, a): c / (1j * divisor(k))
                         for (j, k, a), c in f_old.terms.items() if any(k)},
                        f_old.trunc_loss, _raw=True)
    got = new.divide_q_modes(f, divisor)
    same(got, want)
    if got.coef.ndim == 1:   # Python's own division, bit for bit
        assert all(got.terms[key] == c for key, c in want.terms.items())


@PROPS
@given(pairs(4))
def test_ft_sum(fg):
    gr, r, s = fg[0][0].grading, fg[0][0].r, fg[0][0].s
    same(new.ft_sum(gr, r, s, [p[0] for p in fg]),
         old.ft_sum(fg[0][1].grading, r, s, [p[1] for p in fg]))


@PROPS
@given(pairs(1))
def test_taylor_split(fg):
    (f, f_old), = fg
    sp, sp_old = new.taylor_split(f), old.taylor_split(f_old)
    for field in ("a", "remainder"):
        same(getattr(sp, field), getattr(sp_old, field))
    for field in ("b_x", "b_p", "b_y"):
        for got, want in zip(getattr(sp, field), getattr(sp_old, field)):
            same(got, want)
    for field in ("d_xx", "d_pp", "d_yy", "d_xy", "d_px", "d_py"):
        for row, row_old in zip(getattr(sp, field), getattr(sp_old, field)):
            for got, want in zip(row, row_old):
                same(got, want)
    same(sp.reassemble(), sp_old.reassemble())


@PROPS
@given(pairs(1), st.sampled_from([(None, None), (0.5, 0.8)]))
def test_norms(fg, rs):
    (f, f_old), = fg
    r, s = (None, None) if rs[0] is None else (rs[0] * f.r, rs[1] * f.s)
    g = f if r is None else f.with_radii(r, s)
    close(new.majorant_norm(g), old.majorant_norm(f_old, r, s))
    for k1, k2 in itertools.product(range(3), repeat=2):
        close(new.ck_norm_estimate(g, k1, k2),
              old.ck_norm_estimate(f_old, k1, k2, r, s))


@PROPS
@given(pairs(1, batched=False), st.data())
def test_evaluate(fg, data):
    (f, f_old), = fg
    # the real part of f: f and its mirror, conjugated
    mirror = lambda key: tuple(tuple(-v for v in part) for part in key[:2]) \
        + key[2:]
    terms = dict(f.terms)
    real = {key: 0.5 * (terms.get(key, 0.0) + np.conj(terms.get(mirror(key), 0.0)))
            for key in set(terms) | set(map(mirror, terms))}
    h = new.FTSeries(f.grading, f.r, f.s, real, _raw=True)
    h_old = old.FTSeries(f_old.grading, f.r, f.s, real, _raw=True)
    gr = f.grading
    point = st.floats(-0.5, 0.5)
    args = {name: [data.draw(point) for _ in range(n)] for name, n in
            (("phi", gr.l), ("q", gr.d), ("x", gr.l), ("p", gr.d), ("y", gr.l))}
    got, want = new.evaluate(h, **args), old.evaluate(h_old, **args)
    assert abs(got - want) <= REL * max(old.majorant_norm(h_old), 1e-300)


@PROPS
@given(pairs(1, batched=False))
def test_json(fg):
    (f, f_old), = fg
    assert dumps(f) == old.dumps(f_old)
    same(loads(old.dumps(f_old)), old.loads(old.dumps(f_old)))


# -- properties --------------------------------------------------------------------


@PROPS
@given(pairs(1, raw=False))
def test_split_reassembles_exactly(fg):
    (f, _), = fg
    back = new.taylor_split(f).reassemble()
    assert list(back.terms) == list(f.terms)
    assert all(np.array_equal(back.terms[key], c) for key, c in f.terms.items())


@PROPS
@given(pairs(1, batched=False))
def test_json_round_trip_is_bit_exact(fg):
    (f, _), = fg
    back = loads(dumps(f))
    assert (back.grading, back.r, back.s) == (f.grading, f.r, f.s)
    assert list(back.terms) == list(f.terms)
    assert all(back.terms[key] == c for key, c in f.terms.items())


def _tuple_slots(N):
    return ([N.c] + [e for m in (N.beta, N.Gamma, N.M, N.Q) for row in m
                     for e in row] + [N.g, N.h])


@settings(max_examples=10)
@given(shapes, st.integers(0, 2 ** 32 - 1))
def test_tuple_json_round_trip_is_bit_exact(shape, seed):
    gr = new.Grading(*shape)
    l, d = gr.l, gr.d
    rng = np.random.default_rng(seed)
    ser = lambda: random_real_series(gr, 0.7, 0.9, rng, max_k=gr.K_q,
                                     max_phi=gr.K_phi, max_deg=gr.D)
    mat = lambda rows, cols: [[ser() for _ in range(cols)]
                              for _ in range(rows)]
    N = NormalFormTuple(rng.standard_normal(d), ser(), mat(l, l), mat(l, d),
                        mat(d, d), mat(l, l), ser(), ser())
    back = tuple_from_json(tuple_to_json(N))
    assert back.w.tobytes() == N.w.tobytes()
    bits = lambda f: np.array(list(f.terms.values()), dtype=complex).tobytes()
    for f, g in zip(_tuple_slots(N), _tuple_slots(back), strict=True):
        assert (g.grading, g.r, g.s) == (f.grading, f.r, f.s)
        assert list(g.terms) == list(f.terms)
        assert bits(g) == bits(f)


@settings(max_examples=10)
@given(shapes, st.integers(0, 2 ** 32 - 1))
def test_generator_map_is_symplectic(shape, seed):
    gr = new.Grading(*shape)
    rng = np.random.default_rng(seed)
    F = random_real_series(gr, 1.0, 1.0, rng, n_modes=5, max_k=gr.K_q,
                           max_phi=gr.K_phi, max_deg=2, scale=1e-7)
    v = [new.FTSeries.constant(gr, 1.0, 1.0, float(rng.standard_normal()) * 1e-7)
         for _ in range(gr.d)]
    Phi = map_from_generator(GeneratingFunction(F, v), tol=1e-22)
    scale = new.majorant_norm(F) + sum(new.majorant_norm(u) for u in v)
    assert Phi.symp_residual <= 1e-12 * scale


class TestTermsView:
    def make(self, batched=False):
        gr = new.Grading(d=1, l=1, K_q=2, K_phi=1, D=3)
        c = (lambda x: np.full(NB, x)) if batched else complex
        return new.FTSeries(gr, 1.0, 1.0, {((1,), (0,), (0, 1, 0)): c(2.0),
                                           ((0,), (-1,), (1, 0, 0)): c(1j),
                                           ((-1,), (2,), (0, 0, 0)): c(-3.0)})

    @pytest.mark.parametrize("batched", [False, True])
    def test_view_is_sorted_and_read_only(self, batched):
        f = self.make(batched)
        assert list(f.terms) == sorted(f.terms)
        key = next(iter(f.terms))
        with pytest.raises(TypeError):
            f.terms[key] = 1.0
        with pytest.raises(TypeError):
            del f.terms[key]
        assert np.array_equal(f.terms[key], coeff(f, *key))

    def test_len_does_not_build_the_dict(self):
        f = self.make()
        assert len(f.terms) == 3 and f._dict is None
        assert dict(f.terms) and f._dict is not None


@settings(max_examples=100)
@given(pairs(1), st.sampled_from([None, 0, -1]),
       st.sampled_from([new.PRUNE_FLOOR, 0.0]))
def test_prune_matches_dict_ring(fg, nan_row, floor):
    (f, _), = fg
    assert_prune_matches(f, nan_row, floor)


def test_prune_drops_a_batched_row():
    # row 0 is dead in every entry and dropped, row 1 in one entry only and
    # zeroed there, row 2 lives; without row 0 no row is dropped
    gr = new.Grading(1, 1, 2, 2, 3)
    tiny, big = 1e-40, np.array([1.0, 2.0, 3.0])
    f = new.FTSeries(gr, 0.7, 0.9, {
        ((0,), (0,), (0, 0, 0)): np.full(NB, tiny),
        ((0,), (1,), (0, 0, 0)): np.array([tiny, 1.0, 1.0]),
        ((1,), (0,), (1, 0, 0)): big}, _raw=True)
    g = new.FTSeries(gr, 0.7, 0.9, dict(list(f.terms.items())[1:]), _raw=True)
    keep = assert_prune_matches(f, None, new.PRUNE_FLOOR)
    assert keep.tolist() == [False, True, True]
    assert f.coef[0, 0] == 0.0 and f.trunc_loss == 0.0
    assert assert_prune_matches(g, None, new.PRUNE_FLOOR) is None
    assert g.coef[0, 0] == 0.0 and g.trunc_loss == 0.0


def assert_prune_matches(f, nan_row, floor):
    """_prune_arrays and FTSeries._prune against the dict ring's copy, on
    the same slot-ordered arrays and weights: the same kept rows,
    coefficients and loss to the bit.  When no row is dropped the rows come
    back as None.  An array the ring owns is zeroed in place; a shared one
    is left as it was, and copied only when an entry is zeroed.  A NaN
    entry (in row nan_row, if any) is never dropped.  Returns the kept
    rows."""
    coef = f.coef.copy()
    if nan_row is not None and len(coef):
        if coef.ndim == 2:
            coef[nan_row, 0] = np.nan
        else:
            coef[nan_row] = np.nan
    f._set(f.slot, coef)
    coef = f.coef   # an empty series holds the shared empty array
    plan = new._plan(f.grading)
    old_in = coef.copy()
    keep_old, kept_old, loss_old = old._prune_arrays(
        plan, f.ij, f.ik, f.it, old_in, f.r, f.s, floor)
    before = coef.tobytes()
    for shared in (True, False):
        given = coef if shared else coef.copy()
        keep, kept, loss = new._prune_arrays(plan, f.slot, given, f.r, f.s,
                                             floor, shared)
        assert loss == loss_old
        assert np.array_equal(kept, kept_old, equal_nan=True)
        assert coef.tobytes() == before
        assert kept is given if not shared else \
            (kept is coef) == (kept_old is old_in)
        if keep is None:
            assert keep_old.all()
        else:
            assert np.array_equal(keep, keep_old) and not keep.all()
    if nan_row is not None and len(coef):
        assert keep is None or keep[nan_row]

    # the terms of a batched series are views of its rows, which the prune
    # below zeroes in place: the dict ring gets copies
    f_old = old.FTSeries(old.Grading(*_shape(f.grading)), f.r, f.s,
                         {key: np.copy(c) for key, c in f.terms.items()},
                         f.trunc_loss, _raw=True)
    with pytest.MonkeyPatch.context() as mp:
        # the dict ring's weights, bit for bit the slot ring's
        mp.setattr(old, "_plan", lambda gr: new._plan(new.Grading(
            *_shape(gr))))
        f._prune(floor)
        f_old._prune(floor)
        want = old._arrays(f_old)
    assert list(f.terms) == list(f_old.terms)
    assert np.array_equal(f.coef, want[3].reshape(f.coef.shape),
                          equal_nan=True)
    assert f.trunc_loss == f_old.trunc_loss
    assert (f.coef is coef) == (keep is None)
    return keep


def _shape(gr):
    return gr.d, gr.l, gr.K_q, gr.K_phi, gr.D
