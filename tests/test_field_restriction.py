"""A bracket restricted to the TaylorSplit fields its reader takes.

``series._bracket(f, g, fields)`` forms only the terms whose Taylor
exponents taylor_split reads into the named fields: the batched pair kernel
drops every other pair before it sorts the pairs by slot, so each slot it
forms sums the same pairs in the same order as the whole bracket does.  The
grid solve of kamtori.engine.cohom names one field set per bracket with
N - g, and field a for its tracker row.  These tests check the mask
against taylor_split itself, the restricted kernel against the whole one
bit for bit, the refusal of an unbatched product, and the grid solve
against the same solve with every field kept; a bracket on field a reads
no term of degree above 1.  The grid solve's sums and splits are
restricted the same way: ``taylor_split(f, fields)`` forms only the named
fields, each with the bits it has in the whole split.
"""

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kamtori.series as ring
import kamtori.symplectic as symplectic
from kamtori import engine
from kamtori.engine import cohom
from kamtori.normalform import MODEL_FIELDS
from kamtori.series import (FTSeries, Grading, TaylorSplit, _bracket,
                            _bracket_halves, _field_mask, _plan, taylor_split)
from kamtori.symplectic import poisson_bracket
from output_digest import series_parts, workloads

# the field sets the grid solve's restricted brackets name, in its order:
# those with N - g, and the tracker row's (a) with each channel's generator
GRID_FIELDS = [("b_x", "b_y"), ("b_p",), ("a",),
               ("d_xx", "d_yy", "d_xy", "d_px", "d_py", "d_pp"), MODEL_FIELDS]


@functools.lru_cache(maxsize=None)
def split_fields(gr):
    """For each Taylor index of gr's plan, the TaylorSplit fields that
    taylor_split puts a lone monomial of that exponent into."""
    plan = _plan(gr)
    out = []
    for a in plan.T.keys:
        sp = taylor_split(FTSeries(gr, 1.0, 1.0, {((0,) * gr.l, (0,) * gr.d,
                                                   a): 1.0}))
        out.append({name for name in TaylorSplit.__dataclass_fields__
                    if not all(u.is_zero() for u in leaves(getattr(sp, name)))})
    return out


def leaves(block):
    return [block] if isinstance(block, FTSeries) \
        else [u for row in block for u in leaves(row)]


def kept(gr, fields):
    """The mask over the plan's Taylor ball of the exponents that feed
    fields, read off taylor_split (not off the mask under test)."""
    return np.array([bool(set(fields) & names) for names in split_fields(gr)])


def random_series(gr, rng, n, B):
    """n random terms of gr (fewer if keys repeat), with length-B
    coefficient arrays, or plain complex ones for B None."""
    plan = _plan(gr)
    terms = {}
    for _ in range(n):
        key = tuple(ball.keys[rng.integers(len(ball.keys))]
                    for ball in (plan.J, plan.K, plan.T))
        terms[key] = rng.standard_normal(B) + 1j * rng.standard_normal(B)
    return FTSeries(gr, 0.8, 0.9, terms, _raw=True)


operands = st.builds(
    lambda d, l, D, B, mixed, seed: (lambda gr, rng: (
        random_series(gr, rng, 40, B),
        random_series(gr, rng, 40, None if mixed else B)))(
            Grading(d=d, l=l, K_q=2, K_phi=1, D=D),
            np.random.default_rng(seed)),
    st.sampled_from([1, 2]), st.sampled_from([1, 2]), st.sampled_from([3, 4]),
    st.sampled_from([1, 32]), st.booleans(), st.integers(0, 2 ** 32 - 1))


@pytest.mark.parametrize("fields", GRID_FIELDS, ids=lambda f: "+".join(f))
@settings(max_examples=25, deadline=None)
@given(fg=operands, swap=st.booleans())
def test_restricted_halves_are_the_kept_part_of_the_whole(fields, fg, swap):
    # every half of the restricted kernel holds exactly the whole kernel's
    # slots at the kept Taylor indices, with the same coefficient bytes
    f, g = fg[::-1] if swap else fg
    gr = f.grading
    keep = kept(gr, fields)
    assert np.array_equal(_field_mask(gr, frozenset(fields)), keep)
    whole = _bracket_halves(f, g)
    part = _bracket_halves(f, g, True, _field_mask(gr, frozenset(fields)))
    for (slot, coef, loss), (w_slot, w_coef, w_loss) in zip(part, whole):
        at = keep[_plan(gr).split(w_slot)[2]] if len(w_slot) else []
        assert np.array_equal(slot, w_slot[at])
        assert coef.shape == w_coef[at].shape
        assert coef.tobytes() == w_coef[at].tobytes()
        assert loss == w_loss == 0.0


SPLIT_FIELDS = list(TaylorSplit.__dataclass_fields__)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), l=st.sampled_from([1, 2]),
       B=st.sampled_from([None, 1, 32]),
       fields=st.one_of(st.sampled_from(GRID_FIELDS + [
           ("a", "b_x", "b_y", "b_p")]), st.sets(st.sampled_from(SPLIT_FIELDS),
                                                  min_size=1).map(tuple)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_restricted_split_is_the_named_part_of_the_whole(d, l, B, fields,
                                                         seed):
    # each named field has the whole split's bytes; the others are None
    gr = Grading(d=d, l=l, K_q=2, K_phi=1, D=3)
    f = random_series(gr, np.random.default_rng(seed), 60, B)
    f.trunc_loss = 0.0 if B else 0.25
    whole, part = taylor_split(f), taylor_split(f, fields)
    for name in SPLIT_FIELDS:
        if name in fields:
            assert [series_parts(u) for u in leaves(getattr(part, name))] \
                == [series_parts(u) for u in leaves(getattr(whole, name))]
        else:
            assert getattr(part, name) is None
    # fields=None forms every field, as naming them all does
    every = taylor_split(f, SPLIT_FIELDS)
    for name in SPLIT_FIELDS:
        assert [series_parts(u) for u in leaves(getattr(every, name))] \
            == [series_parts(u) for u in leaves(getattr(whole, name))]


@settings(max_examples=25, deadline=None)
@given(fg=operands, swap=st.booleans())
def test_field_a_reads_terms_of_degree_at_most_one(fg, swap):
    # a degree-0 term of {f, g} pairs a term of f of degree <= 1 with one of
    # g of degree <= 1: cutting f, or f and g at once, to those leaves the
    # bracket on field a byte for byte
    f, g = fg[::-1] if swap else fg
    cut_f, cut_g = (ring.select(u, ring.degrees(u)[2] <= 1) for u in (f, g))
    # an empty cut has no batch axis: both operands would read as unbatched
    assume(0 < len(cut_f.coef) < len(f.coef))
    assume(0 < len(cut_g.coef) < len(g.coef))
    whole = series_parts(_bracket(f, g, ("a",)))
    assert series_parts(_bracket(cut_f, g, ("a",))) == whole
    assert series_parts(_bracket(cut_f, cut_g, ("a",))) == whole


def test_unbatched_product_refuses_fields():
    # an unbatched product would count the pairs it drops as lost; one
    # batched operand makes a batched product (drawn above as "mixed")
    gr = Grading(d=1, l=1, K_q=2, K_phi=1, D=4)
    rng = np.random.default_rng(5)
    f, g = (random_series(gr, rng, 10, None) for _ in range(2))
    for call in (lambda: _bracket(f, g, ("b_p",)),
                 lambda: poisson_bracket(f, g, MODEL_FIELDS)):
        with pytest.raises(ValueError, match="needs a batched operand"):
            call()


def test_grid_solve_names_its_field_sets(monkeypatch):
    # each restricted bracket of the l2-cohom solve names one of the five
    # sets, and each set is named
    seen = []

    def spy(gr, fields, _real=ring._field_mask):
        seen.append(fields)
        return _real(gr, fields)
    monkeypatch.setattr(ring, "_field_mask", spy)
    wl = workloads.L2Cohom()
    wl.solve(wl.setup(0, None))
    assert set(seen) == {frozenset(f) for f in GRID_FIELDS}
    assert seen[-1] == frozenset(MODEL_FIELDS)


@contextlib.contextmanager
def every_field():
    """A context in which every bracket forms every field, and the grid
    solve adds every term of its sums and splits every field of them."""
    real = symplectic._bracket
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symplectic, "_bracket", lambda f, g, fields=None: real(f, g))
        mp.setattr(cohom, "taylor_split",
                   lambda f, fields=None: taylor_split(f))
        mp.setattr(cohom, "_split_sum",
                   lambda f, g, fields: taylor_split(f + g))
        yield


def test_grid_solve_names_the_fields_of_every_split(monkeypatch):
    # no split inside the grid solve forms every field
    seen, inside, grid_solve = [], [], cohom._grid_solve

    def spy(f, fields=None):
        if inside:
            seen.append(fields)
        return taylor_split(f, fields)

    def marked(*args):
        inside.append(True)
        try:
            return grid_solve(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(cohom, "taylor_split", spy)
    monkeypatch.setattr(cohom, "_grid_solve", marked)
    wl = workloads.L2Cohom()
    wl.solve(wl.setup(0, None))
    assert seen and None not in seen
    assert seen[-1] == MODEL_FIELDS


def relative_deviation(got, want):
    """max |got - want| over max |want|, for arrays or batched series."""
    if isinstance(want, FTSeries):
        diff = (got - want).coef
        want = want.coef
    else:
        diff = got - want
    return np.abs(diff).max(initial=0.0) / (np.abs(want).max(initial=0.0)
                                            or 1.0)


def test_coupled_rung_two_matches_the_whole_brackets(monkeypatch):
    # the differential check: rung 2 of coupled-1p1 at eps = 1e-4, solved
    # again from its captured inputs with every field kept, agrees within
    # 1e-14 of each output's largest coefficient
    calls, grid_solve = [], cohom._grid_solve

    def recording(*args):
        calls.append(args)
        return grid_solve(*args)
    monkeypatch.setattr(cohom, "_grid_solve", recording)
    wl = workloads.Coupled()
    wl.EPS = 1e-4
    wl.solve(wl.setup(0, None))
    args = calls[1]
    numbers, series, cond, obstruction = grid_solve(*args)
    with every_field():
        w_numbers, w_series, w_cond, w_obstruction = grid_solve(*args)
    assert numbers.keys() == w_numbers.keys() == {"alpha", "v", "c", "beta",
                                                  "Gamma", "M"}
    for name in numbers:
        assert relative_deviation(numbers[name], w_numbers[name]) <= 1e-14, \
            name
    for name in ("F", "h"):
        assert not w_series[name].is_zero()
        assert relative_deviation(series[name], w_series[name]) <= 1e-14, \
            name
    assert cond == w_cond and obstruction == w_obstruction


def test_l2_cohom_keeps_its_bytes():
    wl = workloads.L2Cohom()
    p = wl.setup(0, None)

    def solve():
        sol = engine.solve_cohomological(
            p["N"], p["f"], p["phix"], p["witness"], sigma=0.025, delta=0.1,
            delta_plus=0.03, grid_size=wl.GRID)
        Nbar = sol.Nbar
        parts = sol.alpha + sol.v + [sol.F, sol.G, Nbar.c, Nbar.h, Nbar.g]
        parts += [u for mat in (Nbar.beta, Nbar.Gamma, Nbar.M)
                  for row in mat for u in row]
        return ([x for u in parts for x in series_parts(u)],
                [sol.residual_plateau, sol.residual_tracker,
                 sol.zero_mode_obstruction, sol.max_condition,
                 sol.projection_defect])
    got = solve()
    with every_field():
        want = solve()
    assert got == want
