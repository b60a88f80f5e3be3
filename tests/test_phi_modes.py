"""The parameter-mode kernel (kamtori.series.freeze_phi and the evaluations
built on it) against the dict-walking sums it replaced.

tests/phi_oracle.py keeps those sums as they were; every value here must
match them bit for bit, on random real series at l = 1 and l = 2, on a whole
grid and at a single point.  One exception: the old eval_phi_series took
its phases as (i phi) . j, a complex dot product, where the other sums took
i (phi . j); at l = 2 the two round apart.  The kernel takes i (phi . j)
everywhere, so there eval_phi_series matches the oracle's freeze_groups bit
for bit and its own old sum within 1e-15 of sum |c|."""

import numpy as np
import pytest

import phi_oracle as oracle
from conftest import random_real_series
from kamtori.normalform import (eval_phi_series, majorant_at_phi,
                                majorant_on_grid, mat_eval_grid, phi_grid)
from kamtori.series import FTSeries, Grading, freeze_phi

GRADINGS = [Grading(d=1, l=1, K_q=4, K_phi=6, D=4),
            Grading(d=2, l=1, K_q=3, K_phi=4, D=3),
            Grading(d=1, l=2, K_q=4, K_phi=4, D=4),
            Grading(d=2, l=2, K_q=2, K_phi=3, D=3)]
SEEDS = range(6)


def identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def grids(gr, rng):
    """A uniform grid, scattered points and one point (a 1-D phi)."""
    return [phi_grid(gr.l, 64 if gr.l == 1 else 12),
            rng.uniform(0.0, 2 * np.pi, (5, gr.l)),
            rng.uniform(0.0, 2 * np.pi, gr.l)]


def cases(phi_only=False):
    for gr in GRADINGS:
        for seed in SEEDS:
            rng = np.random.default_rng([seed, gr.l, gr.d])
            n = int(rng.integers(0, 30))
            kw = dict(max_k=0, max_deg=0) if phi_only else {}
            f = random_real_series(gr, 0.9, 0.7, rng, n_modes=n,
                                   max_phi=min(gr.K_phi, 3), **kw)
            yield gr, f, grids(gr, rng)


def assert_series_identical(got, want):
    assert identical(got.ij, want.ij)
    assert identical(got.ik, want.ik)
    assert identical(got.it, want.it)
    assert identical(got.coef, want.coef)
    assert got.trunc_loss == want.trunc_loss
    assert (got.r, got.s) == (want.r, want.s)


def test_freeze_phi_matches_oracle():
    for gr, f, pts in cases():
        for phi in pts:
            assert_series_identical(freeze_phi(f, phi),
                                    oracle.freeze_phi(f, phi))


def test_majorant_on_grid_matches_oracle():
    for gr, f, pts in cases():
        for phi in pts:
            grid = np.reshape(phi, (-1, gr.l))
            assert identical(majorant_on_grid(f, grid),
                             oracle.majorant_on_grid(f, grid))
            assert identical(majorant_on_grid(f.with_radii(0.5, 0.3), grid),
                             oracle.majorant_on_grid(f, grid, 0.5, 0.3))
        phi = pts[-1]
        assert majorant_at_phi(f, phi) == oracle.majorant_on_grid(f, [phi])[0]


def test_eval_phi_series_matches_oracle():
    for gr, f, pts in cases(phi_only=True):
        for phi in pts:
            grid = np.reshape(phi, (-1, gr.l))
            got, old = eval_phi_series(f, grid), oracle.eval_phi_series(f, grid)
            if gr.l == 1:
                assert identical(got, old)
                continue
            groups = oracle.freeze_groups(f, grid)
            summed = np.zeros(len(grid), dtype=complex)
            summed += groups.get(((0,) * gr.d, (0,) * gr.nz), 0.0)
            assert identical(got, summed)
            assert np.max(np.abs(got - old), initial=0.0) \
                <= 1e-15 * np.abs(f.coef).sum()


def test_signed_zeros():
    # c = -1 - 0i times the phase 1 + 0i has imaginary part -0; a sum
    # started from zero comes out +0, as the oracle's does, and a frozen
    # coefficient, which starts from its first term, keeps the -0
    for gr in GRADINGS:
        c = FTSeries.constant(gr, 1.0, 1.0, complex(-1.0, -0.0))
        grid = np.zeros((3, gr.l))
        assert_series_identical(freeze_phi(c, grid),
                                oracle.freeze_phi(c, grid))
        got = eval_phi_series(c, grid)
        assert identical(got, oracle.eval_phi_series(c, grid))
        assert not np.signbit(got.imag).any()
        assert identical(mat_eval_grid([[c]], grid),
                         oracle.mat_eval_grid([[c]], grid))


def test_mat_eval_grid_matches_oracle():
    for gr in GRADINGS:
        rng = np.random.default_rng(gr.l)
        mat = [[random_real_series(gr, 1.0, 1.0, rng, n_modes=8, max_k=0,
                                   max_deg=0, max_phi=2) for _ in range(3)]
               for _ in range(2)]
        for phi in grids(gr, rng):
            grid = np.reshape(phi, (-1, gr.l))
            assert identical(mat_eval_grid(mat, grid),
                             oracle.mat_eval_grid(mat, grid))


def test_empty_series():
    for gr in GRADINGS:
        zero = FTSeries.zero(gr, 1.0, 1.0)
        for phi in grids(gr, np.random.default_rng(0)):
            grid = np.reshape(phi, (-1, gr.l))
            assert_series_identical(freeze_phi(zero, phi),
                                    oracle.freeze_phi(zero, phi))
            assert identical(eval_phi_series(zero, grid),
                             oracle.eval_phi_series(zero, grid))
            assert identical(majorant_on_grid(zero, grid),
                             oracle.majorant_on_grid(zero, grid))
            mat = [[zero, zero]]
            assert identical(mat_eval_grid(mat, grid),
                             oracle.mat_eval_grid(mat, grid))


def test_empty_grid():
    gr = GRADINGS[2]
    f = random_real_series(gr, 1.0, 1.0, np.random.default_rng(3))
    none = np.zeros((0, gr.l))
    assert identical(majorant_on_grid(f, none),
                     oracle.majorant_on_grid(f, none))


def test_batched_freeze_holds_each_point():
    # column b of the batched result is the series frozen at point b alone
    gr, f, (grid, *_) = next(cases())
    batched = freeze_phi(f, grid)
    for b in (0, 7, len(grid) - 1):
        single = freeze_phi(f, grid[b])
        frozen = dict(zip(zip(batched.ik.tolist(), batched.it.tolist()),
                          batched.coef[:, b]))
        for key, c in zip(zip(single.ik.tolist(), single.it.tolist()),
                          single.coef):
            assert frozen[key] == c


def test_eval_rejects_series_with_q_or_taylor_terms():
    gr = GRADINGS[0]
    f = FTSeries.cos_angle(gr, 1.0, 1.0, (1,), (1,))
    with pytest.raises(ValueError, match="not phi-only"):
        eval_phi_series(f, phi_grid(1, 8))
    with pytest.raises(ValueError, match="not phi-only"):
        mat_eval_grid([[f]], phi_grid(1, 8))


def test_mat_eval_grid_names_the_failing_point():
    gr = GRADINGS[0]
    sine = FTSeries.term(gr, 1.0, 1.0, (1,), (0,), (0,) * gr.nz, 1.0)
    with pytest.raises(ValueError, match="non-real matrix at phi="):
        mat_eval_grid([[sine]], phi_grid(1, 8))
    cos = FTSeries.cos_angle(gr, 1.0, 1.0, (1,), (0,))
    zero = FTSeries.zero(gr, 1.0, 1.0)
    with pytest.raises(ValueError, match="not symmetric within 1e-08 at phi="):
        mat_eval_grid([[zero, cos], [zero, zero]], phi_grid(1, 8),
                      symmetric_tol=1e-8)
