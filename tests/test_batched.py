"""Batched series: every ring operation on a series whose coefficients are
length-B arrays equals the scalar operation on each entry.

Coefficients are small Gaussian integers, so sums and products are exact and
the batched and scalar results can be compared coefficient for coefficient;
only divisions and moduli may round differently (numpy's complex division
and modulus against Python's), by one unit in the last place.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kamtori.engine.cohom as cohom
import kamtori.series as ring
from kamtori.series import (FTSeries, Grading, differentiate, majorant_norm,
                            multiply, taylor_split)
from kamtori.smalldiv import effective_diophantine_constant, solve_L1, solve_L2
from kamtori.symplectic import poisson_bracket
from conftest import GOLDEN
from output_digest import workloads

GR = Grading(d=1, l=2, K_q=3, K_phi=2, D=3)
NB = 3
WITNESS = effective_diophantine_constant([GOLDEN], 0.1, GR.K_q)
KEYS = [(j, k, a)
        for j in itertools.product(range(-2, 3), repeat=GR.l)
        if sum(map(abs, j)) <= GR.K_phi
        for k in itertools.product(range(-3, 4), repeat=GR.d)
        if sum(map(abs, k)) <= GR.K_q
        for a in itertools.product(range(4), repeat=GR.nz)
        if sum(a) <= GR.D]
VARS = ([("phi", i) for i in range(GR.l)] + [("q", 0)]
        + [("x", i) for i in range(GR.l)] + [("p", 0)]
        + [("y", i) for i in range(GR.l)])
PROPS = settings(max_examples=40, deadline=None)

gauss = st.builds(complex, st.integers(-8, 8), st.integers(-8, 8))
entries = st.lists(gauss, min_size=NB, max_size=NB).map(np.array)


@st.composite
def batched(draw, min_terms=0, max_terms=10, scalar_share=0.0):
    """A batched series; with scalar_share > 0 some coefficients stay plain
    numbers (a series mixing both is how a batched series meets a scalar
    one)."""
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=min_terms,
                         max_size=max_terms, unique=True))
    terms = {}
    for key in keys:
        if scalar_share and draw(st.floats(0, 1)) < scalar_share:
            terms[key] = draw(gauss)
        else:
            terms[key] = draw(entries)
    return FTSeries(GR, 1.0, 1.0, terms, _raw=True)


def entry(f, b):
    """Entry b of a batched series as a plain series."""
    return FTSeries(f.grading, f.r, f.s,
                    {key: complex(np.broadcast_to(c, (NB,))[b])
                     for key, c in f.terms.items()}, f.trunc_loss, _raw=True)


def assert_entries(got, want, rtol=0.0):
    """Entry b of the batched series got equals the plain series want[b]
    (a missing key reads as zero)."""
    for b in range(NB):
        mine = entry(got, b).terms
        ref = want[b].terms
        scale = max((abs(c) for c in ref.values()), default=0.0)
        for key in set(mine) | set(ref):
            gap = abs(mine.get(key, 0.0) - ref.get(key, 0.0))
            assert gap <= rtol * scale, (b, key, mine.get(key), ref.get(key))


# two size classes of products through the one kernel
SMALL_PAIRS = 64


@PROPS
@given(batched(max_terms=6), batched(max_terms=6))
def test_multiply_small_products(f, g):
    assert len(f.terms) * len(g.terms) <= SMALL_PAIRS
    assert_entries(multiply(f, g),
                   [multiply(entry(f, b), entry(g, b)) for b in range(NB)])


@PROPS
@given(batched(min_terms=9, max_terms=20, scalar_share=0.2),
       batched(min_terms=9, max_terms=20))
def test_multiply_large_products(f, g):
    assert len(f.terms) * len(g.terms) > SMALL_PAIRS
    assert_entries(multiply(f, g),
                   [multiply(entry(f, b), entry(g, b)) for b in range(NB)])


@PROPS
@given(batched(scalar_share=0.3), batched(scalar_share=0.3), entries)
def test_add_and_scale(f, g, w):
    assert_entries(f + g, [entry(f, b) + entry(g, b) for b in range(NB)])
    assert_entries(f.scale(w), [entry(f, b).scale(w[b]) for b in range(NB)])
    assert_entries(f + w, [entry(f, b) + w[b] for b in range(NB)])


@PROPS
@given(batched(scalar_share=0.3), st.sampled_from(VARS))
def test_differentiate(f, var):
    assert_entries(differentiate(f, var),
                   [differentiate(entry(f, b), var) for b in range(NB)])


@PROPS
@given(batched(max_terms=20))
def test_taylor_split_reassembles(f):
    back = taylor_split(f).reassemble()
    assert_entries(back, [entry(f, b) for b in range(NB)])
    assert_entries(back, [taylor_split(entry(f, b)).reassemble()
                          for b in range(NB)])


@PROPS
@given(batched())
def test_solve_L1(f):
    assert_entries(solve_L1(f, WITNESS),
                   [solve_L1(entry(f, b), WITNESS) for b in range(NB)],
                   rtol=1e-15)


@PROPS
@given(st.lists(batched(max_terms=6), min_size=2 * GR.l, max_size=2 * GR.l),
       st.lists(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
                          st.floats(0, np.pi)), min_size=NB, max_size=NB))
def test_solve_L2_per_entry_beta(parts, spectra):
    betas = []
    for lo, hi, angle in spectra:
        c, s = np.cos(angle), np.sin(angle)
        V = np.array([[c, -s], [s, c]])
        beta = V @ np.diag([lo, hi]) @ V.T
        betas.append(0.5 * (beta + beta.T))
    beta = np.array(betas)
    b_x, b_y = parts[:GR.l], parts[GR.l:]
    Bx, By = solve_L2(b_x, b_y, beta, WITNESS, GR.K_q)
    for b in range(NB):
        bx = [entry(u, b) for u in b_x]
        by = [entry(u, b) for u in b_y]
        want_x, want_y = solve_L2(bx, by, beta[b], WITNESS, GR.K_q)
        for got, want in zip(Bx + By, want_x + want_y):
            # one matrix gives plain numbers, not 0-d arrays that would
            # read as a batched series
            assert not any(isinstance(c, np.ndarray)
                           for c in want.terms.values())
            assert_entries_one(got, b, want)


def assert_entries_one(got, b, want):
    mine, ref = entry(got, b).terms, want.terms
    scale = max((abs(c) for c in ref.values()), default=0.0)
    for key in set(mine) | set(ref):
        assert abs(mine.get(key, 0.0) - ref.get(key, 0.0)) <= 1e-14 * scale


@PROPS
@given(batched(max_terms=8, scalar_share=0.2), batched(max_terms=8))
def test_poisson_bracket(f, g):
    assert_entries(poisson_bracket(f, g),
                   [poisson_bracket(entry(f, b), entry(g, b))
                    for b in range(NB)])


magnitudes = st.builds(lambda m, e: m * 10.0 ** e,
                       st.integers(-9, 9), st.integers(-20, 0))


@PROPS
@given(st.lists(st.sampled_from(KEYS), min_size=1, max_size=30, unique=True),
       st.data())
def test_prune_per_entry(keys, data):
    # magnitudes down to 1e-20 of the largest: some fall below the relative
    # floor at one entry and not at another
    terms = {key: np.array([complex(data.draw(magnitudes),
                                    data.draw(magnitudes))
                            for _ in range(NB)]) for key in keys}
    f = FTSeries(GR, 1.0, 1.0, terms, _raw=True)
    plain = [entry(f, b) for b in range(NB)]
    f._prune()
    for p in plain:
        p._prune()
    assert_entries(f, plain)
    for key, c in f.terms.items():
        assert c.any()
    assert f.trunc_loss == 0.0   # a batched prune forms no loss


def test_batched_series_form_no_loss():
    # a prune that drops entry 0 of one term, and a product and a bracket
    # whose pairs of modes all sum past K_q = 3: the batched results carry
    # no loss, while the plain series of each entry that drops terms does
    z, k = (0, 0), (2,)
    x1, p, y1 = (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)
    terms = {(z, k, x1): np.array([1e-20, 1.0, 2.0]),
             (z, k, p): np.array([3.0, 1.0, 1.0])}
    pruned = FTSeries(GR, 1.0, 1.0, terms)
    assert pruned.terms[z, k, x1][0] == 0.0 and pruned.trunc_loss == 0.0
    assert FTSeries(GR, 1.0, 1.0, {key: c[0] for key, c in terms.items()}
                    ).trunc_loss > 0.0
    f = FTSeries(GR, 1.0, 1.0, terms, _raw=True)
    g = FTSeries(GR, 1.0, 1.0, {(z, k, y1): np.array([1.0, 2.0, 1j])},
                 _raw=True)
    for op in (multiply, poisson_bracket):
        out = op(f, g)
        assert out.is_zero() and out.trunc_loss == 0.0
        for b in range(NB):
            assert op(entry(f, b), entry(g, b)).trunc_loss > 0.0


def test_l2_cohom_forms_no_batched_pair_loss(monkeypatch):
    # the grid solve's products run on batched series and form no loss;
    # the plain products after the projection still do
    seen = []

    def spy(plan, r, s, fd, gd, outside, _real=ring._pair_loss):
        seen.append((fd[3].ndim, gd[3].ndim))
        return _real(plan, r, s, fd, gd, outside)
    monkeypatch.setattr(ring, "_pair_loss", spy)
    solved = []

    def grid_solve(*args, _real=cohom._grid_solve):
        solved.append(_real(*args))
        return solved[-1]
    monkeypatch.setattr(cohom, "_grid_solve", grid_solve)
    wl = workloads.L2Cohom()
    wl.solve(wl.setup(101, None))
    assert seen and set(seen) == {(1, 1)}
    (_, res, _, _), = solved
    assert res["F"].coef.ndim == res["h"].coef.ndim == 2
    assert res["F"].trunc_loss == res["h"].trunc_loss == 0.0


def test_l2_cohom_projects_the_coefficient_arrays_in_place(monkeypatch):
    # the projection transforms F's and h's per-point coefficient arrays
    # themselves, not a copy of them
    rows, solved = [], []

    def project(*args, _real=cohom.project_phi_rows):
        rows.append(args[0])
        return _real(*args)
    monkeypatch.setattr(cohom, "project_phi_rows", project)

    def grid_solve(*args, _real=cohom._grid_solve):
        solved.append(_real(*args))
        return solved[-1]
    monkeypatch.setattr(cohom, "_grid_solve", grid_solve)
    wl = workloads.L2Cohom()
    wl.solve(wl.setup(101, None))
    (_, res, _, _), = solved
    for name in ("F", "h"):
        coef = res[name].coef
        assert coef.ndim == 2 and len(coef)
        assert any(np.shares_memory(coef, got) for got in rows), name


@settings(max_examples=15, deadline=None)
@given(batched(min_terms=1, max_terms=300, scalar_share=0.1))
def test_max_abs_coeff_and_majorant_norm(f):
    got_max = np.broadcast_to(f.max_abs_coeff(), (NB,))
    got_norm = np.broadcast_to(majorant_norm(f.with_radii(0.9, 0.8)), (NB,))
    for b in range(NB):
        plain = entry(f, b)
        assert got_max[b] == pytest.approx(plain.max_abs_coeff(), rel=1e-15,
                                           abs=0.0)
        assert got_norm[b] == pytest.approx(
            majorant_norm(plain.with_radii(0.9, 0.8)), rel=1e-13, abs=0.0)
