"""Normal-form tuples, the one map between their blocks and TaylorSplit's
fields (model_hamiltonian writes, model_blocks reads back), their norms and
distance, nu_max profiling and the source paper's bump over the parameter
torus (which the cohomological solve does not call: it needs beta inside
the bump's plateau on its whole grid)."""

import functools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError
from .series import (BLOCK_TILE_BYTES, FTSeries, _equal_stack, _l1,
                     _phi_sums, _phi_values, _plan, TaylorSplit,
                     ck_norm_estimate)


# -- parameter-grid helpers --------------------------------------------------------


def phi_grid_size(K_phi):
    return max(64, 4 * K_phi + 1)


def phi_grid(l, size):
    """Uniform product grid on T^l: returns array (size^l, l) in row-major order."""
    axis = np.arange(size) * (2 * math.pi / size)
    mesh = np.meshgrid(*([axis] * l), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def eval_phi_series(f, grid):
    """Evaluate a phi-only series at grid points; returns complex array."""
    grid = np.asarray(grid, dtype=float).reshape(-1, f.grading.l)
    return _phi_values([f], grid)[0]


def majorant_on_grid(f, grid):
    """Majorant of the (q, z)-series obtained by freezing the parameter, at
    every grid point (array)."""
    grid = np.asarray(grid, dtype=float).reshape(-1, f.grading.l)
    slot, sums = _phi_sums(f, grid)
    total = np.zeros(len(grid))
    for c, weight in zip(sums, _plan(f.grading).weigh(slot, f.r, f.s).tolist()):
        total += np.abs(c) * weight
    return total


def majorant_at_phi(f, phi):
    """Majorant of the (q, z)-series obtained by freezing the parameter."""
    return float(majorant_on_grid(f, [phi])[0])


@functools.lru_cache(maxsize=None)
def _phi_modes(l, size, K_phi):
    """The parameter modes |j|_1 <= K_phi of the FFT of a grid of phi_grid,
    in lexicographic order, and their columns in the FFT's row-major
    order."""
    half = size // 2
    modes = [tuple(m if m <= half else m - size for m in idx)
             for idx in np.ndindex(*([size] * l))]
    cols = sorted((i for i, j in enumerate(modes) if _l1(j) <= K_phi),
                  key=modes.__getitem__)
    return [modes[i] for i in cols], np.array(cols)


def project_phi_rows(rows, l, size, K_phi, floors):
    """Project many grid-sampled functions onto <= K_phi parameter modes by
    an FFT over the grid axes of each row.

    rows: complex array (n, size^l); floors: per-row coefficient floor.
    Returns (modes, coeffs, kept, defect): the kept modes in lexicographic
    order, their (n, modes) coefficients, the mask of those with |c| >
    floor, and the per-row defect = total magnitude of the dropped high
    modes, summed left to right.  The rows are transformed in blocks of at
    most BLOCK_TILE_BYTES, each filling its own rows of the results; a
    row's results read that row alone, whatever block it falls in."""
    rows = np.asarray(rows, dtype=complex)
    n, npts = len(rows), size ** l
    floors = np.asarray(floors, dtype=float)
    modes, cols = _phi_modes(l, size, K_phi)
    coeffs = np.empty((n, len(cols)), dtype=complex)
    kept = np.empty((n, len(cols)), dtype=bool)
    defect = np.empty(n)
    step = max(BLOCK_TILE_BYTES // (16 * npts), 1)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        hat = np.fft.fftn(rows[lo:hi].reshape((hi - lo,) + (size,) * l),
                          axes=tuple(range(1, l + 1))).reshape(hi - lo, -1)
        hat /= npts
        mag = np.abs(hat)
        kept[lo:hi] = mag[:, cols] > floors[lo:hi, None]
        coeffs[lo:hi] = hat[:, cols]
        # the kept modes add exact zeros to the dropped ones' running sum
        mag[:, cols] = 0.0
        defect[lo:hi] = np.cumsum(mag, axis=1, out=mag)[:, -1]
    return modes, coeffs, kept, defect


def project_phi_values(values, l, size, grading, r, s):
    """Project grid samples of a parameter-periodic function onto <= K_phi modes.

    values: complex array of length size^l in the row-major order of phi_grid.
    Returns (FTSeries with only phi modes, defect = total magnitude of the
    dropped high modes, which bounds the grid error of the representative).
    """
    modes, (coeffs,), (kept,), defect = project_phi_rows(
        np.asarray(values, dtype=complex).reshape(1, -1), l, size,
        grading.K_phi, [1e-300])
    zk = (0,) * grading.d
    za = (0,) * grading.nz
    new = FTSeries(grading, r, s, {(modes[i], zk, za): coeffs[i]
                                   for i in np.flatnonzero(kept)}, _raw=True)
    return new, float(defect[0])


# -- tuple space --------------------------------------------------------------------


def const_matrix(grading, r, s, M):
    """The matrix of constant series M[..., i, j]: numbers, or batched
    series (one entry per point) for a (B, rows, cols) stack."""
    M = np.asarray(M, dtype=float)
    return [[FTSeries.constant(grading, r, s, M[..., i, j])
             for j in range(M.shape[-1])] for i in range(M.shape[-2])]


def mat_eval_grid(mat, grid, symmetric_tol=None):
    """Evaluate a matrix of phi-only series at every grid point: a real
    (B, rows, cols) array.  Raises ValueError naming the first grid point
    where the value is not real (or not symmetric within symmetric_tol)."""
    grid = np.asarray(grid, dtype=float).reshape(-1, mat[0][0].grading.l)
    values = _phi_values([entry for row in mat for entry in row], grid)
    out = np.ascontiguousarray(values.T).reshape(len(grid), len(mat),
                                                 len(mat[0]))
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


@dataclass
class NormalFormTuple:
    """The eight-component tuple (w, c, beta, Gamma, M, Q, g, h).

    w is a fixed frequency vector; c, beta, Gamma, M, Q depend on the
    parameter only; g is the sublevel-supported error slot and h the cubic
    remainder (Taylor degree >= 3 in (x, p, y))."""

    w: np.ndarray
    c: FTSeries
    beta: list
    Gamma: list
    M: list
    Q: list
    g: FTSeries
    h: FTSeries

    @property
    def grading(self):
        return self.c.grading

    @property
    def radii(self):
        return (self.c.r, self.c.s)

    def _walk(self, w, op, *others):
        """The tuple with frequency vector w whose series components are op
        of this tuple's and the others' (entry by entry in the matrices)."""
        def each(x, *ys):
            if isinstance(x, list):
                return [each(*entries) for entries in zip(x, *ys)]
            return op(x, *ys)
        return NormalFormTuple(w, *(
            each(*(getattr(N, f.name) for N in (self,) + others))
            for f in fields(self)[1:]))

    def with_radii(self, r, s):
        """The same components read on radii (r, s), which may only shrink."""
        return self._walk(self.w, lambda e: e.with_radii(r, s))

    def __add__(self, other):
        return self._walk(self.w + other.w, operator.add, other)

    def __sub__(self, other):
        return self._walk(self.w - other.w, operator.sub, other)


def initial_tuple(grading, r, s, omega, M0, h=None):
    """The starting tuple (omega, 0, 0, 0, M0, I_l, 0, h)."""
    gr = grading
    h = h if h is not None else FTSeries.zero(gr, r, s)
    return NormalFormTuple(
        w=np.asarray(omega, dtype=float),
        c=FTSeries.zero(gr, r, s),
        beta=const_matrix(gr, r, s, np.zeros((gr.l, gr.l))),
        Gamma=const_matrix(gr, r, s, np.zeros((gr.l, gr.d))),
        M=const_matrix(gr, r, s, M0),
        Q=const_matrix(gr, r, s, np.eye(gr.l)),
        g=FTSeries.zero(gr, r, s),
        h=h)


def model_hamiltonian(gr, r, s, *, w=None, c=None, beta=None, Gamma=None,
                      M=None, Q=None, h=None):
    """c + <w,p> + 1/2<beta x, x> + <Gamma p, x> + 1/2<Mp,p> + 1/2<Qy,y> + h,
    the one map of the tuple's blocks onto TaylorSplit's fields, reassembled
    (a block left None is zero; w's constants are made on radii (r, s))."""
    b_p = None if w is None else [FTSeries.constant(gr, r, s, x) for x in w]
    d_px = None if Gamma is None else [list(col) for col in zip(*Gamma)]
    return TaylorSplit(a=c, b_p=b_p, d_xx=beta, d_pp=M, d_yy=Q, d_px=d_px,
                       remainder=h).reassemble()


# the TaylorSplit field of each block; MODEL_FIELDS are all model_blocks reads
_BLOCK_FIELDS = {"c": "a", "beta": "d_xx", "Gamma": "d_px", "M": "d_pp",
                 "h": "remainder"}
MODEL_FIELDS = tuple(_BLOCK_FIELDS.values())


def model_blocks(split):
    """model_hamiltonian's inverse on a TaylorSplit: c, beta, Gamma, M, h
    by name (Gamma transposed)."""
    out = {name: getattr(split, field) for name, field in _BLOCK_FIELDS.items()}
    out["Gamma"] = [list(row) for row in zip(*out["Gamma"])]
    return out


def assemble_hamiltonian(N):
    """The tuple's model Hamiltonian plus g, then h: h as the model's
    remainder would round differently."""
    return model_hamiltonian(N.grading, *N.radii, w=N.w, c=N.c, beta=N.beta,
                             Gamma=N.Gamma, M=N.M, Q=N.Q) + N.g + N.h


def nu_max(B):
    """Largest eigenvalue of each symmetrized matrix of a (B, l, l) stack;
    a stack of equal matrices is decomposed once (series._equal_stack)."""
    one = _equal_stack(B)
    nu = np.linalg.eigvalsh(0.5 * (one + np.swapaxes(one, 1, 2)))[:, -1]
    return np.broadcast_to(nu, B.shape[:1])


def nu_max_profile(beta, grid):
    """nu_max of beta at each grid point (ValueError if asymmetric there)."""
    return nu_max(mat_eval_grid(beta, grid, symmetric_tol=1e-8))


# -- bump function -----------------------------------------------------------------


class BumpProjectionError(ConvergenceError):
    pass


def _mollifier_kernel(l, size, a):
    """Compact-support kernel of scale a sampled on the torus grid, normalized
    so that discrete convolution of the all-ones field gives exactly 1."""
    h = 2 * math.pi / size
    axis = np.arange(size) * h
    axis = np.minimum(axis, 2 * math.pi - axis)  # torus distance to 0
    mesh = np.meshgrid(*([axis] * l), indexing="ij")
    rho2 = sum(m * m for m in mesh) / (a * a)
    ker = np.zeros_like(rho2)
    inside = rho2 < 1.0
    ker[inside] = np.exp(-1.0 / (1.0 - rho2[inside]))
    total = ker.sum()
    if total == 0.0:
        raise BumpProjectionError("bump grid too coarse: no kernel sample "
                                  "inside radius a")
    return ker / total


def bump_psi(profile_grid, nu_values, t1, t2, grading, r, s, tol=1e-6):
    """Smooth cutoff: 1 where nu_max < t1, 0 where nu_max > t2, glued in between.

    profile_grid must be the uniform product grid of some size G per dimension
    (row-major, as produced by phi_grid); the mollified indicator is projected
    onto <= K_phi parameter modes and the plateau tolerance is certified on the
    grid.
    """
    if not t2 > t1:
        raise BumpProjectionError("need t2 > t1")
    l = grading.l
    size = round(len(profile_grid) ** (1.0 / l))
    if size ** l != len(profile_grid):
        raise ValueError("profile grid is not a uniform product grid")
    nu = np.asarray(nu_values, dtype=float).reshape((size,) * l)
    a = (t2 - t1) / 4.0
    indicator = (nu < t1 + a).astype(float)
    if indicator.all():
        psi = FTSeries.constant(grading, r, s, 1.0)
        return psi, np.ones(len(profile_grid))
    if not indicator.any():
        return FTSeries.zero(grading, r, s), np.zeros(len(profile_grid))
    spacing = 2 * math.pi / size
    if spacing > a / 2:
        raise BumpProjectionError("bump grid spacing %.3g too coarse for scale "
                                  "a=%.3g; refine the profile grid"
                                  % (spacing, a))
    ker = _mollifier_kernel(l, size, a)
    vals = np.fft.ifftn(np.fft.fftn(indicator) * np.fft.fftn(ker)).real
    psi, defect = project_phi_values(vals.reshape(-1), l, size, grading, r, s)
    back = eval_phi_series(psi, profile_grid).real
    flat_nu = nu.reshape(-1)
    bad_hi = np.max(np.abs(back[flat_nu < t1] - 1.0), initial=0.0)
    bad_lo = np.max(np.abs(back[flat_nu > t2]), initial=0.0)
    overshoot = max(np.max(back, initial=0.0) - 1.0, -np.min(back, initial=0.0))
    if max(bad_hi, bad_lo, overshoot) > tol:
        raise BumpProjectionError(
            "bump projection misses plateau tolerance %.1g "
            "(plateau1=%.3g, plateau0=%.3g, range=%.3g); increase K_phi"
            % (tol, bad_hi, bad_lo, overshoot))
    return psi, back


# -- norms -------------------------------------------------------------------------


def _mat_c2(mat):
    return max(ck_norm_estimate(e, 2, 0) for row in mat for e in row)


def normal_form_norm(N):
    """max of the eight component norms (C^2 in phi for the matrix parts),
    on N's radii (re-tag N with with_radii to take it on smaller ones)."""
    comps = [float(np.linalg.norm(N.w)),
             ck_norm_estimate(N.c, 2, 0),
             _mat_c2(N.beta), _mat_c2(N.Gamma), _mat_c2(N.M), _mat_c2(N.Q),
             ck_norm_estimate(N.g, 2, 2),
             ck_norm_estimate(N.h, 2, 2)]
    return max(comps)


def normal_form_distance(N1, N2):
    return normal_form_norm(N1 - N2)

