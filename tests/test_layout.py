"""The coordinate layout that kamtori.series owns: the order of
`coordinates`, the exponent positions of the ball variables behind
`monomial` and `coordinate`, and the per-kind views of a map's one
displacement list."""

import numpy as np
import pytest

from kamtori.series import (Grading, coordinate, coordinates, differentiate,
                            evaluate, monomial, taylor_split)
from kamtori.symplectic import map_from_generator
from conftest import drift_free, random_real_series

SHAPES = [(2, 1), (1, 2)]


def grading(d, l):
    return Grading(d=d, l=l, K_q=3, K_phi=2, D=4)


@pytest.mark.parametrize("d, l", SHAPES)
def test_coordinates_order(d, l):
    want = ([("q", i) for i in range(d)] + [("x", i) for i in range(l)]
            + [("p", i) for i in range(d)] + [("y", i) for i in range(l)])
    assert coordinates(grading(d, l)) == tuple(want)


@pytest.mark.parametrize("d, l", SHAPES)
def test_coordinate_evaluates_to_its_variable(d, l):
    gr = grading(d, l)
    point = {"x": [0.3, 0.7][:l], "p": [0.2, 0.5][:d], "y": [0.11, 0.13][:l]}
    for kind, i in coordinates(gr)[d:]:
        u = coordinate(gr, 1.0, 1.0, kind, i)
        assert evaluate(u, **point) == point[kind][i]
    f = monomial(gr, 1.0, 1.0, 2.0, ("p", 0), ("y", l - 1), ("y", l - 1))
    assert evaluate(f, **point) == pytest.approx(
        2.0 * point["p"][0] * point["y"][l - 1] ** 2, rel=1e-15)


@pytest.mark.parametrize("d, l", SHAPES)
def test_coordinate_derivatives(d, l):
    gr = grading(d, l)
    ball = coordinates(gr)[d:]
    one = ((0,) * l, (0,) * d, (0,) * gr.nz)
    for kind, i in ball:
        u = coordinate(gr, 1.0, 1.0, kind, i)
        for var in ball:
            got = differentiate(u, var)
            if var == (kind, i):
                assert dict(got.terms) == {one: 1.0}
            else:
                assert got.is_zero()


@pytest.mark.parametrize("d, l", SHAPES)
def test_cross_monomial_lands_in_d_px(d, l):
    gr = grading(d, l)
    for i in range(d):
        for j in range(l):
            f = monomial(gr, 1.0, 1.0, 1.0, ("p", i), ("x", j))
            sp = taylor_split(f)
            for ii in range(d):
                for jj in range(l):
                    entry = sp.d_px[ii][jj]
                    if (ii, jj) == (i, j):
                        assert list(entry.terms.values()) == [1.0]
                    else:
                        assert entry.is_zero()
            for block in (sp.d_xx, sp.d_pp, sp.d_yy, sp.d_xy, sp.d_py):
                assert all(e.is_zero() for row in block for e in row)
            assert sp.a.is_zero() and sp.remainder.is_zero()
            assert dict(sp.reassemble().terms) == dict(f.terms)


@pytest.mark.parametrize("d, l", SHAPES)
def test_map_views_are_slices_of_U(d, l):
    gr = Grading(d=d, l=l, K_q=4, K_phi=2, D=4)
    F = random_real_series(gr, 1, 1, np.random.default_rng(10 * d + l),
                           n_modes=4, max_k=2, max_phi=1, max_deg=2,
                           scale=2e-5)
    Phi = map_from_generator(drift_free(F), tol=1e-20)
    assert len(Phi.U) == len(coordinates(gr)) == 2 * (d + l)
    U = Phi.U
    slices = [(Phi.Uq, U[:d]), (Phi.Ux, U[d:d + l]),
              (Phi.Up, U[d + l:2 * d + l]), (Phi.Uy, U[2 * d + l:])]
    for view, want in slices:
        assert len(view) == len(want)
        assert all(a is b for a, b in zip(view, want))
    assert all(a is b for a, b in zip(Phi.components(), U))
