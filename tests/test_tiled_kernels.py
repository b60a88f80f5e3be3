"""The tiled product kernels against the untiled ones, bit for bit; a guard
on the memory their temporaries take; and the reality defect of a batched
series.

The block kernel takes its output modes in tiles, and the batched pair
kernel forms its products in chunks of whole slot runs, each within
``BLOCK_TILE_BYTES``.  ``tests/kernel_oracle.py`` keeps both kernels as they
were before, forming every temporary at once.  The budget is monkeypatched
to give one tile, several tiles and the smallest tile, and every slot,
coefficient and loss must equal the oracle's exactly: the coefficients are
random floats, so a change in the order of any sum shows.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kamtori.series as ring
from kamtori.series import (_UNIT, FTSeries, Grading, _block_layout,
                            _bracket_pairs, _kernel, _plan, _tile_modes)
import kernel_oracle

PROPS = settings(max_examples=40, deadline=None)
HUGE = 1 << 62   # a budget no product reaches: one tile, one chunk

gradings = st.builds(Grading, d=st.integers(1, 2), l=st.integers(1, 2),
                     K_q=st.integers(1, 3), K_phi=st.integers(0, 2),
                     D=st.integers(3, 4))


def random_series(gr, rng, n, kind, B=3, r=0.8, s=0.9):
    """n random terms of the grading (fewer if keys repeat): plain complex
    coefficients, real ones (each term with its conjugate mirror), or
    length-B arrays ("batched", some rows plain numbers)."""
    plan = _plan(gr)
    terms = {}
    for _ in range(n):
        key = (plan.J.keys[rng.integers(len(plan.J.keys))],
               plan.K.keys[rng.integers(len(plan.K.keys))],
               plan.T.keys[rng.integers(len(plan.T.keys))])
        size = B if kind == "batched" and rng.random() < 0.8 else None
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        terms[key] = c
        if kind == "real":
            j, k, a = key
            mirror = (tuple(-v for v in j), tuple(-v for v in k), a)
            terms[mirror] = c.real if mirror == key else np.conj(c)
    return FTSeries(gr, r, s, terms, _raw=True)


@st.composite
def operands(draw, kinds, max_terms=40):
    gr = draw(gradings)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind_f, kind_g = draw(st.sampled_from(kinds)), draw(st.sampled_from(kinds))
    return (random_series(gr, rng, draw(st.integers(1, max_terms)), kind_f),
            random_series(gr, rng, draw(st.integers(1, max_terms)), kind_g))


def halves_of(gr, bracket):
    return _bracket_pairs(gr) if bracket else ((_UNIT, _UNIT),)


def assert_parts_equal(got, want):
    """The same output slots, coefficients and losses, bit for bit."""
    assert len(got) == len(want)
    for (slot, coef, loss), (want_slot, want_coef, want_loss) in zip(got, want):
        assert slot.dtype == want_slot.dtype and np.array_equal(slot, want_slot)
        assert coef.shape == want_coef.shape
        assert coef.tobytes() == np.ascontiguousarray(want_coef).tobytes()
        assert loss == want_loss


def one_call_bytes(layout):
    """The bytes of the widest tile the kernel could take: every output
    mode at once."""
    e, c = layout.e, layout.c
    return 16 * len(layout.at) * len(e.taylor) * max(len(c.ij), len(c.taylor))


# fractions of the one-call bytes: one tile, several tiles, the smallest
FRACTIONS = (math.inf, 0.5, 0.2, 0.0)


@PROPS
@given(operands(("complex", "real")), st.booleans(),
       st.sampled_from(FRACTIONS))
def test_block_kernel_matches_untiled(fg, bracket, fraction):
    f, g = fg
    plan = _plan(f.grading)
    layout = _block_layout(plan, f, g)
    halves = halves_of(f.grading, bracket)
    want = kernel_oracle.block_product(plan, layout, halves, f.r, f.s)
    budget = HUGE if fraction == math.inf \
        else max(int(fraction * one_call_bytes(layout)), 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "BLOCK_TILE_BYTES", budget)
        got = ring._block_product(plan, layout, halves, f.r, f.s)
    assert_parts_equal(got, want)


def test_block_kernel_no_output_mode():
    # every mode sum lies past K_q: no output mode, empty halves, and the
    # pairs' loss, at every budget
    gr = Grading(d=1, l=1, K_q=3, K_phi=2, D=4)
    rng = np.random.default_rng(5)
    f = FTSeries(gr, 0.8, 0.9, {((0,), (3,), a): rng.standard_normal()
                                for a in [(0, 0, 0), (1, 0, 0), (0, 1, 1)]},
                 _raw=True)
    g = FTSeries(gr, 0.8, 0.9, {((j,), (1,), (0, 0, 1)): 1.0 + j
                                for j in (-1, 0, 1)}, _raw=True)
    plan = _plan(gr)
    layout = _block_layout(plan, f, g)
    assert len(layout.at) == 0
    for bracket in (False, True):
        halves = halves_of(gr, bracket)
        want = kernel_oracle.block_product(plan, layout, halves, f.r, f.s)
        for budget in (HUGE, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ring, "BLOCK_TILE_BYTES", budget)
                got = ring._block_product(plan, layout, halves, f.r, f.s)
            assert_parts_equal(got, want)
            assert all(not len(coef) for _, coef, _ in got)
        assert max(loss for _, _, loss in want) > 0.0


def test_tile_columns_are_a_multiple_of_4():
    for cols in range(1, 40):
        step = 4 // math.gcd(cols, 4)
        for budget in (1, 1000, 1 << 19, 1 << 22):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ring, "BLOCK_TILE_BYTES", budget)
                modes = _tile_modes(16 * cols * 7, cols)
            assert modes * cols % 4 == 0
            # the widest such tile within the budget, or the narrowest one
            assert modes == step or modes * 16 * cols * 7 <= budget
            assert (modes + step) * 16 * cols * 7 > budget
    # a tile of one output mode when its columns are a multiple of 4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "BLOCK_TILE_BYTES", 1)
        assert _tile_modes(16 * 36, 36) == 1


def coupled_sized_operands():
    """Two unbatched series of the coupled-1p1 grading (K = 6, D = 4) of
    the sizes of that workload's largest block product: 2340 terms on all
    169 modes against 430 on 49 modes, 169 output modes, about 4.6 MB
    gathered in one call."""
    gr = Grading(d=1, l=1, K_q=6, K_phi=6, D=4)
    plan = _plan(gr)
    rng = np.random.default_rng(2340)

    def sample(keys, n):
        keys = [keys[i] for i in sorted(rng.choice(len(keys), n, replace=False))]
        return FTSeries(gr, 1.0, 1.0, dict(zip(keys, rng.standard_normal(n)
                                               + 1j * rng.standard_normal(n))),
                        _raw=True)
    low = [a for a in plan.T.keys if sum(a) <= 2]
    e = sample([(j, k, a) for j in plan.J.keys for k in plan.K.keys
                for a in plan.T.keys], 2340)
    c = sample([(j, k, a) for j in plan.J.keys if abs(j[0]) <= 3
                for k in plan.K.keys if abs(k[0]) <= 3 for a in low], 430)
    return e, c


@pytest.fixture(scope="module")
def coupled_layout():
    e, c = coupled_sized_operands()
    plan = _plan(e.grading)
    layout = _block_layout(plan, e, c)
    assert (len(layout.at), len(layout.c.ij), len(layout.e.taylor)) \
        == (169, 49, 35)
    assert 4.5e6 < 16 * layout.gathered < 5e6
    layout.e.dense, layout.c.dense  # fill the blocks outside the measures
    return plan, layout, e.r, e.s


@pytest.mark.parametrize("budget", [HUGE, 1 << 19, 100_000, 30_000, 1])
def test_block_kernel_at_workload_size_matches_untiled(coupled_layout, budget):
    # 35 columns per output mode: a tile of n modes has 35 n columns, and
    # only n a multiple of 4 keeps zgemm's column edges where they were
    plan, layout, r, s = coupled_layout
    halves = _bracket_pairs(layout.e._f.grading)
    want = kernel_oracle.block_product(plan, layout, halves, r, s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "BLOCK_TILE_BYTES", budget)
        got = ring._block_product(plan, layout, halves, r, s)
    assert_parts_equal(got, want)


def traced_peak(run):
    """run()'s result and the most memory it held above what was held when
    it started, by tracemalloc (numpy reports its arrays to it)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def output_bytes(parts):
    return sum(slot.nbytes + coef.nbytes for slot, coef, _ in parts)


@pytest.mark.parametrize("budget", [ring.BLOCK_TILE_BYTES, HUGE])
def test_block_kernel_memory(coupled_layout, budget):
    # at most 3 budgets (a gathered tile, its product and the pairs read
    # from it) and the output above the operands; with no budget the
    # gathered array alone, about 4.6 MB, breaks the same bound
    plan, layout, r, s = coupled_layout
    halves = _bracket_pairs(layout.e._f.grading)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "BLOCK_TILE_BYTES", budget)
        parts, peak = traced_peak(
            lambda: ring._block_product(plan, layout, halves, r, s))
    bound = 3 * (1 << 19) + output_bytes(parts)
    assert (peak <= bound) == (budget != HUGE), (peak, bound)


def batched_bracket_operands(B=4096):
    """Two batched series (f on modes j in [-2, 2], k in {0, 1}, g on j in
    {0, 1}, k in [-2, 2], all at x y) whose bracket halves d_x f d_y g and
    d_y f d_x g pair 10 x 10 terms into 36 slots, at most 4 pairs to a
    slot: at B = 4096 the products of a half take 6.6 MB at once, against
    2.4 MB of its sums, and a chunk of 8 products (512 KiB) never splits a
    run."""
    gr = Grading(d=1, l=1, K_q=4, K_phi=4, D=3)
    rng = np.random.default_rng(4096)

    def at_xy(modes):
        return FTSeries(gr, 1.0, 1.0, {
            ((j,), (k,), (1, 0, 1)): rng.standard_normal(B)
            + 1j * rng.standard_normal(B) for j, k in modes}, _raw=True)
    return (at_xy([(j, k) for j in range(-2, 3) for k in (0, 1)]),
            at_xy([(j, k) for j in (0, 1) for k in range(-2, 3)]))


@pytest.mark.parametrize("budget", [ring.BLOCK_TILE_BYTES, HUGE])
def test_batched_bracket_memory(budget):
    # the kernel call of a bracket at B = 4096: at most 3 budgets (a
    # chunk's two gathered operand rows and their products) above its
    # output and one derivative array of each operand; with no budget a
    # half's (100, B) products break the same bound
    f, g = batched_bracket_operands()
    halves = _bracket_pairs(f.grading)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "BLOCK_TILE_BYTES", budget)
        parts, peak = traced_peak(lambda: _kernel(f, g, halves, None))
    assert [len(slot) for slot, _, _ in parts] == [0, 0, 36, 36]
    bound = 3 * (1 << 19) + output_bytes(parts) + f.coef.nbytes + g.coef.nbytes
    assert (peak <= bound) == (budget != HUGE), (peak, bound)


def pair_budget(rows, B):
    """A budget of rows products of B entries (HUGE for None)."""
    return HUGE if rows is None else max(rows * 16 * B, 1)


def assert_pair_kernel_matches(f, g, halves, budget):
    plan = _plan(f.grading)
    want = kernel_oracle.pair_product(plan, f, g, halves)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "BLOCK_TILE_BYTES", budget)
        got = ring._pair_product(plan, f, g, halves)
    assert_parts_equal(got, want)
    return want


@PROPS
@given(operands(("batched",)).flatmap(lambda fg: st.tuples(
           st.just(fg[0]), st.sampled_from([fg[1], random_series(
               fg[1].grading, np.random.default_rng(len(fg[1].coef)),
               len(fg[1].coef), "real")]))),
       st.booleans(), st.booleans(), st.sampled_from([None, 7, 2, 1, 0]))
def test_batched_pair_kernel_matches_unchunked(fg, swap, bracket, rows):
    # a batched operand against a batched, a complex or a real one, in
    # either order; chunks of at most 7, 2 or 1 products, or of one run
    f, g = fg[::-1] if swap else fg
    assume(f.coef.ndim == 2 or g.coef.ndim == 2)
    B = max(f.coef.shape[1:] + g.coef.shape[1:])
    assert_pair_kernel_matches(f, g, halves_of(f.grading, bracket),
                               pair_budget(rows, B))


PAIR_GR = Grading(d=1, l=1, K_q=3, K_phi=2, D=4)


def batched(terms, B=5, seed=0):
    rng = np.random.default_rng(seed)
    return FTSeries(PAIR_GR, 0.8, 0.9, {
        key: rng.standard_normal(B) + 1j * rng.standard_normal(B)
        for key in terms}, _raw=True)


def test_batched_pair_kernel_no_output_mode():
    # every k sums past K_q = 3: no slot, and no loss (a batched product
    # forms none)
    f = batched([((0,), (2,), (0, 0, 0)), ((1,), (3,), (1, 0, 0))])
    g = batched([((0,), (2,), (0, 1, 0)), ((0,), (3,), (0, 0, 0))], seed=1)
    for rows in (None, 1, 0):
        want = assert_pair_kernel_matches(f, g, halves_of(PAIR_GR, False),
                                          pair_budget(rows, 5))
        assert not len(want[0][0]) and want[0][2] == 0.0


def test_batched_pair_kernel_runs_of_one_pair():
    # one term against many distinct ones: every slot holds one pair, so
    # every chunk is multiplied straight into its rows
    f = batched([((1,), (0,), (1, 0, 0))])
    g = batched([((j,), (k,), (0, 0, 1)) for j in (-1, 0, 1)
                 for k in (-2, -1, 0, 1)], seed=1)
    for rows in (None, 5, 2, 1, 0):
        want = assert_pair_kernel_matches(f, g, halves_of(PAIR_GR, False),
                                          pair_budget(rows, 5))
        assert len(want[0][0]) == 12


def test_batched_pair_kernel_run_longer_than_a_chunk():
    # modes -1..1 against -1..1: the slot k = 0 sums 3 pairs per j, longer
    # than a chunk of 1 or 2 products
    keys = [((j,), (k,), (0, 0, 0)) for j in (-1, 0, 1) for k in (-1, 0, 1)]
    f, g = batched(keys), batched(keys, seed=1)
    for rows in (None, 4, 2, 1, 0):
        want = assert_pair_kernel_matches(f, g, halves_of(PAIR_GR, False),
                                          pair_budget(rows, 5))
        assert len(want[0][0]) == 25


def reality_defect_oracle(f):
    """The dict form FTSeries.reality_defect replaced (unbatched only)."""
    t = f.terms
    mirror = lambda j, k, a: t.get((tuple(-v for v in j),
                                    tuple(-v for v in k), a), 0)
    return max((abs(c - np.conj(mirror(*key))) for key, c in t.items()),
               default=0.0)


def entries(f):
    """The unbatched series of each entry of a batched f, same key set."""
    return [ring._like(f, f.ij, f.ik, f.it, f.coef[:, b], f.trunc_loss)
            for b in range(f.coef.shape[1])]


@PROPS
@given(gradings, st.integers(0, 2 ** 32 - 1), st.integers(0, 12),
       st.sampled_from(["complex", "real"]), st.booleans())
def test_reality_defect_matches_dict_form(gr, seed, n, kind, drop):
    rng = np.random.default_rng(seed)
    f = random_series(gr, rng, n, kind)
    if drop and len(f.coef):   # a term whose mirror is then missing
        f = ring.select(f, np.arange(len(f.coef)) != rng.integers(len(f.coef)))
    got = f.reality_defect()
    assert type(got) is float and got == reality_defect_oracle(f)
    if kind == "real" and not drop:
        assert got == 0.0


@PROPS
@given(gradings, st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
       st.booleans())
def test_reality_defect_per_entry(gr, seed, n, drop):
    rng = np.random.default_rng(seed)
    f = random_series(gr, rng, n, "batched")
    assume(f.coef.ndim == 2 and len(f.coef) > drop)
    if drop:
        f = ring.select(f, np.arange(len(f.coef)) != rng.integers(len(f.coef)))
    got = f.reality_defect()
    assert got.shape == (3,)
    assert got.tolist() == [u.reality_defect() for u in entries(f)]


def test_reality_defect_per_entry_missing_mirror():
    gr = Grading(d=1, l=1, K_q=3, K_phi=2, D=3)
    a = (1, 0, 0)
    f = FTSeries(gr, 1.0, 1.0, {
        ((1,), (2,), a): np.array([1 + 2j, 3.0, 0.5j]),
        ((-1,), (-2,), a): np.array([1 - 2j, 3.0, 0.5j]),
        ((0,), (1,), a): np.array([0.0, 0.0, 4.0])}, _raw=True)  # no mirror
    assert f.reality_defect().tolist() == [0.0, 0.0, 4.0]
    assert [u.reality_defect() for u in entries(f)] == [0.0, 0.0, 4.0]
    # the middle entry: |0.5j - conj(0.5j)| = 1 at both mode pairs
    f = FTSeries(gr, 1.0, 1.0, {((1,), (2,), a): np.array([1.0, 0.5j]),
                                ((-1,), (-2,), a): np.array([1.0, 0.5j])},
                 _raw=True)
    assert f.reality_defect().tolist() == [0.0, 1.0]
