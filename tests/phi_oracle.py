"""The dict-walking parameter-mode sums that kamtori.series.freeze_phi
replaced, kept verbatim as the oracle of tests/test_phi_modes.py: each walks
a series' terms in sorted (j, k, a) order and adds c e^{i j.phi} at every
grid point, with one phase array per mode."""

import math

import numpy as np

from kamtori.series import FTSeries, _l1


def eval_phi_series(f, grid):
    """Evaluate a phi-only series at grid points; returns complex array."""
    vals = np.zeros(len(grid), dtype=complex)
    for (j, k, a), c in sorted(f.terms.items()):
        if _l1(k) or _l1(a):
            raise ValueError("series is not phi-only")
        vals += c * np.exp(1j * grid @ np.asarray(j, dtype=float))
    return vals


def _phases(grid):
    """j -> exp(i j.phi) at every grid point, computed once per mode."""
    cache = {}

    def phase(j):
        got = cache.get(j)
        if got is None:
            got = cache[j] = np.exp(1j * (grid @ np.asarray(j, dtype=float)))
        return got
    return phase


def freeze_groups(f, grid):
    """Sum the parameter modes of f at every grid point: dict (k, a) ->
    complex array over the grid (no pruning)."""
    grid = np.asarray(grid, dtype=float).reshape(-1, f.grading.l)
    phase = _phases(grid)
    groups = {}
    for (j, k, a), c in sorted(f.terms.items()):
        w = c * phase(j)
        cur = groups.get((k, a))
        groups[(k, a)] = w if cur is None else cur + w
    return groups


def freeze_phi(f, phi):
    """Collapse the parameter modes at a numeric phi (result carries j = 0)."""
    zj = (0,) * f.grading.l
    phi = np.asarray(phi, dtype=float)
    groups = freeze_groups(f, phi)
    if phi.ndim == 1:
        groups = {key: complex(c[0]) for key, c in groups.items()}
    new = FTSeries(f.grading, f.r, f.s,
                   {(zj, k, a): c for (k, a), c in groups.items()}, _raw=True)
    new._prune()
    return new


def majorant_on_grid(f, grid, r=None, s=None):
    """Majorant of the (q, z)-series obtained by freezing the parameter, at
    every grid point (array)."""
    r = f.r if r is None else r
    s = f.s if s is None else s
    total = np.zeros(len(grid))
    for (k, a), c in sorted(freeze_groups(f, grid).items()):
        total += np.abs(c) * (math.exp(_l1(k) * r) * s ** _l1(a))
    return total


def mat_eval_grid(mat, grid, symmetric_tol=None):
    """Evaluate a matrix of phi-only series at every grid point: a real
    (B, rows, cols) array.  Raises ValueError naming the first grid point
    where the value is not real (or not symmetric within symmetric_tol)."""
    rows, cols = len(mat), len(mat[0])
    grid = np.asarray(grid, dtype=float).reshape(-1, mat[0][0].grading.l)
    out = np.zeros((len(grid), rows, cols), dtype=complex)
    phase = _phases(grid)
    for i in range(rows):
        for j in range(cols):
            for (jj, k, a), c in sorted(mat[i][j].terms.items()):
                out[:, i, j] += c * phase(jj)
    scale = np.maximum(1.0, np.abs(out).max(axis=(1, 2), initial=0.0))
    bad = np.abs(out.imag).max(axis=(1, 2), initial=0.0) > 1e-10 * scale
    if bad.any():
        raise ValueError("matrix series evaluated to a non-real matrix at "
                         "phi=%s" % grid[np.argmax(bad)])
    res = out.real
    if symmetric_tol is not None:
        bad = np.abs(res - np.swapaxes(res, 1, 2)).max(
            axis=(1, 2), initial=0.0) > symmetric_tol
        if bad.any():
            raise ValueError("matrix series evaluation is not symmetric "
                             "within %g at phi=%s"
                             % (symmetric_tol, grid[np.argmax(bad)]))
    return res
