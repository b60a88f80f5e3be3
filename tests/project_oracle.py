"""The projection of the cohomological solve's per-point results onto
parameter modes as it was before it read the coefficient arrays: one grid
row per numeric column and per term of F and h (walked as a dict), one
{j: c} dict per row back from the FFT, and series built from dicts.

Kept as the test oracle of ``kamtori.engine.cohom._project``."""

import numpy as np

from kamtori.series import FTSeries, _l1

NUMERIC = ("alpha", "v", "c", "beta", "Gamma", "M")


def _phi_modes(l, size, K_phi):
    """Signed parameter modes of the FFT grid in the row-major order of
    phi_grid, and the mask of those kept (|j|_1 <= K_phi)."""
    half = size // 2
    modes = [tuple(m if m <= half else m - size for m in idx)
             for idx in np.ndindex(*([size] * l))]
    keep = np.array([_l1(j) <= K_phi for j in modes], dtype=bool)
    return modes, keep


def project_phi_rows(rows, l, size, K_phi, floors):
    """(list of {j: c} with |c| > floor, per-row defect = total magnitude
    of the dropped high modes, added left to right) of grid-sampled rows,
    by one FFT."""
    rows = np.asarray(rows, dtype=complex)
    n = len(rows)
    hat = np.fft.fftn(rows.reshape((n,) + (size,) * l),
                      axes=tuple(range(1, l + 1))).reshape(n, -1) / size ** l
    modes, keep = _phi_modes(l, size, K_phi)
    mag = np.abs(hat)
    defect = np.zeros(n)
    for col in np.flatnonzero(~keep):
        defect += mag[:, col]
    kept = keep[None, :] & (mag > np.asarray(floors, dtype=float)[:, None])
    out = []
    for row in range(n):
        out.append({modes[i]: complex(hat[row, i])
                    for i in np.flatnonzero(kept[row])})
    return out, defect


def project(numbers, series, l, size, gr, r, s):
    """({name: phi-only series or matrix of them} for the numeric results,
    {name: series} for F and h, the largest projection defect)."""
    npts = size ** l
    rows, floors, slots = [], [], []

    def add_row(vals, slot, floor=None):
        row = np.zeros(npts, dtype=complex)
        row[:] = vals
        rows.append(row)
        floors.append(1e-16 * np.abs(row).max() if floor is None else floor)
        slots.append(slot)

    # a number gets its own coefficient floor; a series one for all its keys
    for name in NUMERIC:
        vals = numbers[name].reshape(npts, -1)
        for col in range(vals.shape[1]):
            add_row(vals[:, col], (name, col))
    for name in ("F", "h"):
        f = series[name]
        floor = 1e-16 * float(np.max(f.max_abs_coeff())) if f.terms else 0.0
        for (_j, k, a), c in sorted(f.terms.items()):
            add_row(c, (name, (k, a)), floor)
    coeffs, defects = project_phi_rows(np.array(rows), l, size, gr.K_phi,
                                       floors)
    zk, za = (0,) * gr.d, (0,) * gr.nz
    scalars = {}
    terms = {"F": {}, "h": {}}
    for (name, slot), cs in zip(slots, coeffs):
        if name in terms:
            k, a = slot
            terms[name].update(((j, k, a), c) for j, c in cs.items())
        else:
            new = FTSeries(gr, r, s, {(j, zk, za): c for j, c in cs.items()},
                           _raw=True)
            scalars.setdefault(name, []).append(new)
    series = {name: FTSeries(gr, r, s, t) for name, t in terms.items()}
    shape = lambda items, rows, cols: [items[i * cols:(i + 1) * cols]
                                       for i in range(rows)]
    scalars["beta"] = shape(scalars["beta"], gr.l, gr.l)
    scalars["Gamma"] = shape(scalars["Gamma"], gr.l, gr.d)
    scalars["M"] = shape(scalars["M"], gr.d, gr.d)
    scalars["c"] = scalars["c"][0]
    return scalars, series, float(np.max(defects))
