"""The parameter-tracker row of the grid solve, through the bracket kernel.

kamtori.engine.cohom reads each tracker-row entry, the mean at z = 0 of
{phix_i, F_c} for the linear generator F_c of channel c, off one bracket
restricted to the TaylorSplit field a, with phix_i cut to its terms of
degree <= 1.  These tests compare that row (t0, the entries of channel 0,
and T, those of the alpha channels) byte for byte with the hand-expanded
products of tests/tracker_oracle.py, and count the calls that the row and
the two combinations of the channels, one ft_sum each, leave in one grid
solve.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kamtori.series as ring
import kamtori.symplectic as symplectic
import tracker_oracle
from kamtori.engine import cohom
from kamtori.series import FTSeries, Grading, TaylorSplit, _plan
from output_digest import l2_cohom, series_parts, workloads
from test_field_restriction import random_series


def coupled_1p1():
    wl = workloads.Coupled()
    wl.solve(wl.setup(0, None))


PROBLEMS = {
    "l2-cohom": l2_cohom,
    "l2-cohom-varying": lambda: l2_cohom("l2-cohom-varying", vary=0.01),
    "coupled-1p1": coupled_1p1,
}


@pytest.mark.parametrize("problem", PROBLEMS)
def test_tracker_row_matches_the_hand_expanded_products(problem, monkeypatch):
    # each grid solve's row against the oracle on the blocks (A, B_x, B_y,
    # B_p) that its channels' generators were reassembled from
    blocks, rows, row = [], [], cohom._tracker_row

    class Recording(TaylorSplit):
        def reassemble(self):
            if self.b_p is not None:
                blocks.append((self.a, self.b_x, self.b_y, self.b_p))
            return super().reassemble()

    def recording(phix_B, gens, nb):
        rows.append((phix_B, list(blocks), gens, nb, row(phix_B, gens, nb)))
        blocks.clear()
        return rows[-1][-1]
    monkeypatch.setattr(cohom, "TaylorSplit", Recording)
    monkeypatch.setattr(cohom, "_tracker_row", recording)
    PROBLEMS[problem]()
    # coupled-1p1's second rung: its trackers are no longer the coordinates
    phix_B, channels, gens, nb, got = rows[-1]
    assert len(rows) == (2 if problem == "coupled-1p1" else 1)
    # F_c = A + B.z has no term of degree above 1: only the trackers are cut
    assert all((ring.degrees(F)[2] <= 1).all() for F in gens)
    l = gens[0].grading.l
    assert len(channels) == len(gens) == 1 + l
    assert got.shape == (nb, l, 1 + l)
    want = tracker_oracle.tracker_row(phix_B, channels, nb)
    if problem == "coupled-1p1":
        assert np.any(want)     # the l2-cohom rows are zeros, signed alike
    assert got[:, :, 0].tobytes() == want[:, :, 0].tobytes()      # t0
    assert got[:, :, 1:].tobytes() == want[:, :, 1:].tobytes()    # T


def test_one_grid_solve_combines_twice_and_multiplies_no_tracker(monkeypatch):
    # the linear generator and the residual are each one ft_sum over the
    # channels, each past the first scaled by its alpha (the generator's
    # also over y scaled by the mean of B_y, zero here); the tracker row
    # forms no product outside the bracket kernel
    sums, products, inside, seen = [], [], [], {}
    counter_terms, linear_stage = cohom._counter_terms, cohom._linear_stage

    def summing(gr, r, s, parts, _real=cohom.ft_sum):
        sums.append(list(parts))
        return _real(gr, r, s, parts)

    def marked(*args):
        seen["gens"] = [part[0] for part in args[6]]
        inside.append(True)
        try:
            out = counter_terms(*args)
        finally:
            inside.pop()
        seen["mqby"] = out[2]
        return out

    def linear(*args):
        seen["channels"] = args[8]
        out = linear_stage(*args)
        seen["alpha"] = out[0]
        return out

    for module in (ring, cohom, symplectic):
        def spy(f, g, _real=module.multiply):
            products.append(bool(inside))
            return _real(f, g)
        monkeypatch.setattr(module, "multiply", spy)
    monkeypatch.setattr(cohom, "ft_sum", summing)
    monkeypatch.setattr(cohom, "_counter_terms", marked)
    monkeypatch.setattr(cohom, "_linear_stage", linear)
    wl = workloads.L2Cohom()
    wl.solve(wl.setup(0, None))
    # the third sum is solve_cohomological's G = f - <alpha, phi_x>
    assert len(sums) == 3 and len(sums[2]) == 3
    assert not seen["mqby"].any()
    alpha = seen["alpha"]
    assert alpha.shape[1] == 2 and alpha.any()
    for parts, channels in zip(sums, (seen["gens"], seen["channels"])):
        assert len(channels) == 3 and parts[0] is channels[0]
        weighted = [ch.scale(a) for ch, a in zip(channels[1:], alpha.T)
                    if a.any()]
        assert [series_parts(p) for p in parts[1:]] \
            == [series_parts(p) for p in weighted]
    assert products and not any(products)


def z_free_series(gr, rng, n, B):
    """n random terms of gr at Taylor exponent 0, with length-B
    coefficient arrays: one entry of a TaylorSplit's a or b fields."""
    plan = _plan(gr)
    terms = {(plan.J.keys[rng.integers(len(plan.J.keys))],
              plan.K.keys[rng.integers(len(plan.K.keys))], (0,) * gr.nz):
             rng.standard_normal(B) + 1j * rng.standard_normal(B)
             for _ in range(n)}
    return FTSeries(gr, 0.8, 0.9, terms, _raw=True)


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([1, 2]), l=st.sampled_from([1, 2]),
       B=st.sampled_from([1, 8]), seed=st.integers(0, 2 ** 32 - 1))
def test_random_tracker_row_matches_the_hand_expanded_products(d, l, B,
                                                               seed):
    # trackers of every degree and channels of random blocks, none of
    # whose entries a prune floor reaches
    gr = Grading(d=d, l=l, K_q=2, K_phi=1, D=3)
    rng = np.random.default_rng(seed)
    phix_B = [random_series(gr, rng, 80, B) for _ in range(l)]
    channels = [(z_free_series(gr, rng, 12, B),
                 *([z_free_series(gr, rng, 12, B) for _ in range(n)]
                   for n in (l, l, d))) for _ in range(1 + l)]
    gens = [TaylorSplit(a=A, b_x=Bx, b_y=By, b_p=Bp).reassemble()
            for A, Bx, By, Bp in channels]
    got = cohom._tracker_row(phix_B, gens, B)
    want = tracker_oracle.tracker_row(phix_B, channels, B)
    assert np.any(want)
    assert got.tobytes() == want.tobytes()
