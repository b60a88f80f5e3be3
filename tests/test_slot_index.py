"""One index per term: every series the ring forms stores its terms by their
slot codes alone, strictly increasing, and the ball indices it derives from
them (ij, ik, it) are read-only and equal _Plan.split of the slots, whether
they were split on first read or handed through by the operation that formed
the series.  The majorant weight is one lookup by slot, bit for bit the
closed form, and on a coupled-1p1 solve no slot is coded or split between a
kernel's output and the series it is merged into."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kamtori.series as ring
import kamtori.symplectic as symplectic
from kamtori.series import (FTSeries, Grading, TaylorSplit, _conjugate,
                            _plan, average_q, differentiate, divide_q_modes,
                            freeze_phi, from_json_dict, ft_sum, multiply,
                            partial_omega, restrict_z0, select, taylor_split,
                            to_json_dict, truncate_fourier)
from kamtori.smalldiv import _assemble, _gather
from kamtori.symplectic import poisson_bracket
from output_digest import workloads

NB = 3
GRADINGS = [Grading(d=d, l=l, K_q=2, K_phi=2, D=3)
            for d, l in itertools.product((1, 2), repeat=2)]


def keys(gr):
    """Every key of the grading."""
    plan = _plan(gr)
    return list(itertools.product(plan.J.keys, plan.K.keys, plan.T.keys))


@st.composite
def operands(draw, batched=None):
    """Two series of one grading (d, l in {1, 2}), raw or pruned, each
    batched or not, on one pair of radii."""
    gr = draw(st.sampled_from(GRADINGS))
    r, s = draw(st.sampled_from([(1.0, 1.0), (0.7, 0.9)]))
    out = []
    for _ in range(2):
        b = draw(st.booleans()) if batched is None else batched
        n = draw(st.integers(0, 14))
        at = draw(st.lists(st.integers(0, len(keys(gr)) - 1), min_size=n,
                           max_size=n, unique=True))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        shape = (n, NB) if b else (n,)
        coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        terms = {keys(gr)[i]: c for i, c in zip(at, coef)}
        out.append(FTSeries(gr, r, s, terms, _raw=draw(st.booleans())))
    return out


def assert_one_index(f):
    """f's slots are strictly increasing codes of the grading, and its ball
    indices are read-only and those of _Plan.split."""
    plan = _plan(f.grading)
    slot = f.slot
    assert slot.ndim == 1 and slot.dtype == np.intp
    assert len(slot) == len(f.coef)
    assert np.all(np.diff(slot) > 0)
    assert np.all((slot >= 0) & (slot < len(plan.J.keys) * plan.NK * plan.NT))
    idx = (f.ij, f.ik, f.it)
    for got, want in zip(idx, plan.split(slot)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
    assert np.array_equal(plan.code(*idx), slot)


def results(f, g):
    """The series of every constructor and ring operation on f and g."""
    gr, r, s = f.grading, f.r, f.s
    plan = _plan(gr)
    out = [f, FTSeries.zero(gr, r, s), FTSeries.constant(gr, r, s, 0.5),
           FTSeries.constant(gr, r, s, np.arange(1.0, NB + 1)),
           FTSeries.term(gr, r, s, (1,) * gr.l, (0,) * gr.d, (1,) * gr.nz, 2j),
           FTSeries.cos_angle(gr, r, s, (1,) * gr.l, (-1,) * gr.d),
           multiply(f, g), poisson_bracket(f, g), f + g, f - g, -f,
           ft_sum(gr, r, s, [f, g, f]), f.scale(2.0),
           f.scale(np.array([0.5, -1.0, 2j])), f.scale(0), _conjugate(f),
           f.copy(), f.with_radii(0.5 * r, 0.0), restrict_z0(f), average_q(f),
           partial_omega(f, [1.3] * gr.d),
           divide_q_modes(f, lambda k: 0.5 + sum(map(abs, k))),
           truncate_fourier(f, 1, 0.25)[0],
           select(f, np.arange(len(f.coef)) % 2 == 0),
           from_json_dict(to_json_dict(f)) if f.coef.ndim == 1 else f]
    out += [differentiate(f, (name, i)) for name, n in
            (("phi", gr.l), ("q", gr.d), ("x", gr.l), ("p", gr.d),
             ("y", gr.l)) for i in range(n)]
    sp = taylor_split(f)
    out += [v for v in vars(sp).values() if isinstance(v, FTSeries)]
    out += [e for v in vars(sp).values() if isinstance(v, list)
            for e in (v if isinstance(v[0], FTSeries) else sum(v, []))]
    out += [sp.reassemble(), TaylorSplit(b_x=sp.b_x, d_xy=sp.d_xy).reassemble()]
    batched = f.coef.ndim == 2 or g.coef.ndim == 2
    part = taylor_split(f, ("a", "b_y", "remainder"))
    out += [part.a, part.remainder] + part.b_y
    if batched:
        out.append(poisson_bracket(f, g, ("b_x", "d_xx", "remainder")))
    else:
        out += [freeze_phi(f, [0.3] * gr.l),
                freeze_phi(f, np.linspace(0, 3, 4 * gr.l).reshape(4, gr.l))]
        if len(f.coef) and len(g.coef):
            # the block kernel, which multiply takes only for large operands
            out.append(ring._product(f, g, ring._block_layout(plan, f, g)))
    slots, b = _gather([f, g], (NB,) if batched else ())
    out += _assemble([f, g], slots, b)
    return out


@settings(max_examples=60)
@given(fg=operands(), read_first=st.booleans())
def test_every_series_has_one_index(fg, read_first):
    f, g = fg
    if read_first:
        # operands whose indices are split already: the operations that
        # keep the terms hand them through
        assert_one_index(f)
        assert_one_index(g)
    for h in results(f, g):
        assert_one_index(h)


@pytest.mark.parametrize("batched", [False, True])
def test_handed_through_indices_are_shared(batched):
    gr = GRADINGS[3]
    f = FTSeries(gr, 1.0, 1.0, {key: (np.arange(1.0, NB + 1) if batched
                                      else 1.0) * (n + 1)
                                for n, key in enumerate(keys(gr)[::37])})
    idx = f._indices()
    for h in (f.copy(), f.with_radii(0.5, 0.5), -f, f.scale(2.0)):
        assert h._idx is idx and h.slot is f.slot
    # a derivative is formed with its indices; no split is needed for them
    d = differentiate(f, ("x", 0))
    assert d._idx is not None
    assert_one_index(d)


WEIGHT_GRADINGS = [Grading(d=1, l=1, K_q=6, K_phi=6, D=4),
                   Grading(d=1, l=2, K_q=3, K_phi=4, D=4),
                   Grading(d=2, l=1, K_q=4, K_phi=2, D=5)]


@pytest.mark.parametrize("gr", WEIGHT_GRADINGS,
                         ids=lambda g: "d%d-l%d" % (g.d, g.l))
@pytest.mark.parametrize("r, s", [(0.0, 0.0), (0.0, 0.9), (0.7, 0.0),
                                  (1.0, 1.0), (0.37, 1.7)])
def test_slot_weight_is_the_closed_form(gr, r, s):
    # at every slot of the grading, bit for bit the closed form on the ball
    # indices, from the same two tables (_Plan.powers) and from np.exp
    plan = _plan(gr)
    slot = np.arange(len(plan.J.keys) * plan.NK * plan.NT)
    ij, ik, it = plan.split(slot)
    n, m = plan.J.norm[ij] + plan.K.norm[ik], plan.T.norm[it]
    exp_r, pow_s = plan.powers(r, s)
    got = plan.weigh(slot, r, s)
    assert got.tobytes() == (exp_r[n] * pow_s[m]).tobytes()
    assert got.tobytes() == (np.exp(n * r) * s ** m.astype(float)).tobytes()
    # one byte per slot, whatever the radii
    assert plan.grade.dtype == np.uint8 and plan.grade.size == len(slot)


def test_no_code_or_split_between_kernel_and_merge(monkeypatch):
    """On a coupled-1p1 solve, from each kernel's output to the series it
    becomes (a bracket's _merge, a product's series, the symplecticity
    check's dense table), no slot is coded and none split."""
    armed, stray, seen = [False], [], []

    def watch(name):
        real = getattr(ring._Plan, name)

        def spy(self, *args):
            seen.append(name)
            if armed[0]:
                stray.append(name)
            return real(self, *args)
        monkeypatch.setattr(ring._Plan, name, spy)

    def wrap(module, name, arm):
        """Arm (a kernel) or disarm (a consumer of its parts) on return."""
        real = getattr(module, name)

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            armed[0] = arm
            returns.append(name)
            return out
        monkeypatch.setattr(module, name, spy)
    returns = []
    watch("code")
    watch("split")
    wrap(ring, "_kernel", True)
    for module, name in ((ring, "_merge"), (ring, "_product"),
                         (symplectic, "_bracket_halves")):
        wrap(module, name, False)
    wl = workloads.Coupled()
    out = wl.solve(wl.setup(101, None))
    assert out["hist"]["failure"] is None and len(out["hist"]["steps"]) >= 2
    assert returns.count("_kernel") > 100
    assert stray == []
    # the spies see the splits that do happen: operands' first reads
    assert "split" in seen
