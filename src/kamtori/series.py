"""Sparse Fourier-Taylor series on T^l_param x T^d x B^l x B^d x B^l.

Every analytic object in the torus-continuation scheme is represented as a
truncated series

    f(phi, q, x, p, y) = sum  c[j,k,a] * e^{i j.phi} e^{i k.q} x^ax p^ap y^ay

with j in Z^l (parameter modes), k in Z^d (angle modes) and a = (ax, ap, ay)
a Taylor multi-index over the ball variables.  Coefficients are stored
sparsely in a dict keyed by the packed integer tuple (j, k, a).  Real
functions keep the reality symmetry c[-j,-k,a] = conj(c[j,k,a]).

Series are immutable by convention: all operations return new instances.
Terms that fall outside the grading bounds (or below the pruning floor) are
dropped and their majorant mass is accumulated in ``trunc_loss``.

A coefficient may also be a length-B complex array: the series then stands
for B series with one shared key set (one per parameter grid point in the
glued cohomological solve).  The coefficient-wise operations carry arrays as
they are; the reductions (pruning, ``max_abs_coeff``, ``majorant_norm``) act
per entry, and ``trunc_loss`` bounds the loss of every entry.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

PRUNE_FLOOR = 1e-30
REL_PRUNE = 2e-16  # relative floor: rounding debris far below a series' own
                   # scale is dropped (and accounted) to keep term counts sane


@dataclass(frozen=True)
class Grading:
    """Index bounds of the truncated series ring.

    d, l : angle dimension (q) and parameter/normal dimension (phi and x, y)
    K_q, K_phi : max l1 Fourier order in q and phi
    D : max total Taylor degree in (x, p, y)
    """

    d: int
    l: int
    K_q: int
    K_phi: int
    D: int

    def __post_init__(self):
        if self.d < 1 or self.l < 1:
            raise ValueError("need d >= 1 and l >= 1")
        if self.K_q < 1 or self.K_phi < 0:
            raise ValueError("need K_q >= 1 and K_phi >= 0")
        if self.D < 3:
            raise ValueError("need D >= 3 (degree-2 split with O^3 remainder)")

    @property
    def nz(self):
        return 2 * self.l + self.d

    def zero_key(self):
        return ((0,) * self.l, (0,) * self.d, (0,) * self.nz)


def _l1(t):
    return sum(abs(v) for v in t)


def _is_batched(f):
    """True when some coefficient of f is an array (one entry per series)."""
    return np.ndarray in map(type, f.terms.values())


def _coef_matrix(values):
    """Coefficients of a batched series as an (n, B) array (scalars broadcast)."""
    values = list(values)
    try:
        return np.stack(values).astype(complex, copy=False)
    except ValueError:
        width = next(len(c) for c in values if type(c) is np.ndarray)
        out = np.empty((len(values), width), dtype=complex)
        for i, c in enumerate(values):
            out[i] = c
        return out


class GradingError(ValueError):
    pass


class RealityError(ValueError):
    pass


class FTSeries:
    """One truncated Fourier-Taylor series with its domain radii."""

    __slots__ = ("grading", "r", "s", "terms", "trunc_loss", "_kcache")

    def __init__(self, grading, r, s, terms=None, trunc_loss=0.0, _raw=False):
        if not (r > 0 and s > 0):
            raise ValueError("radii must be positive")
        self.grading = grading
        self.r = float(r)
        self.s = float(s)
        self.trunc_loss = float(trunc_loss)
        self._kcache = None
        if _raw:
            self.terms = terms if terms is not None else {}
            return
        self.terms = {}
        if terms:
            for key, c in terms.items():
                self._accumulate(key, c)
        self._prune()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, grading, r, s):
        return cls(grading, r, s, {}, _raw=True)

    @classmethod
    def constant(cls, grading, r, s, value):
        new = cls.zero(grading, r, s)
        if isinstance(value, np.ndarray):
            if value.any():
                new.terms[grading.zero_key()] = value.astype(complex)
        elif value != 0:
            new.terms[grading.zero_key()] = complex(value)
        return new

    @classmethod
    def term(cls, grading, r, s, j, k, alpha, coeff):
        return cls(grading, r, s, {(tuple(j), tuple(k), tuple(alpha)): complex(coeff)})

    @classmethod
    def cos_angle(cls, grading, r, s, j, k, amplitude=1.0):
        """amplitude * cos(j.phi + k.q) as the conjugate mode pair."""
        j, k = tuple(j), tuple(k)
        a = (0,) * grading.nz
        jm = tuple(-v for v in j)
        km = tuple(-v for v in k)
        half = 0.5 * amplitude
        new = cls.zero(grading, r, s)
        new._accumulate((j, k, a), half)
        new._accumulate((jm, km, a), half)
        return new

    @classmethod
    def sin_angle(cls, grading, r, s, j, k, amplitude=1.0):
        j, k = tuple(j), tuple(k)
        a = (0,) * grading.nz
        jm = tuple(-v for v in j)
        km = tuple(-v for v in k)
        new = cls.zero(grading, r, s)
        new._accumulate((j, k, a), -0.5j * amplitude)
        new._accumulate((jm, km, a), 0.5j * amplitude)
        return new

    def copy(self):
        return FTSeries(self.grading, self.r, self.s, dict(self.terms),
                        self.trunc_loss, _raw=True)

    def with_radii(self, r, s):
        """The same coefficients read on radii (r, s), which may only shrink."""
        if r > self.r * (1 + 1e-12) or s > self.s * (1 + 1e-12):
            raise ValueError("cannot grow radii by relabeling")
        return FTSeries(self.grading, r, s, self.terms, self.trunc_loss,
                        _raw=True)

    # -- internal accumulation with bound checks -------------------------------

    def _weight(self, key):
        j, k, a = key
        return math.exp((_l1(j) + _l1(k)) * self.r) * self.s ** _l1(a)

    def _accumulate(self, key, c):
        g = self.grading
        j, k, a = key
        if _l1(j) > g.K_phi or _l1(k) > g.K_q or _l1(a) > g.D:
            mag = abs(c)
            if isinstance(mag, np.ndarray):
                mag = float(mag.max())
            self.trunc_loss += mag * self._weight(key)
            return
        cur = self.terms.get(key)
        self.terms[key] = c if cur is None else cur + c

    def _prune(self, floor=PRUNE_FLOOR, rel=REL_PRUNE):
        if _is_batched(self):
            self._prune_entries(floor, rel)
            return
        if rel:
            floor = max(floor, rel * max((abs(c) for c in self.terms.values()),
                                         default=0.0))
        if not self.terms:
            return
        dead = [key for key, c in self.terms.items() if abs(c) <= floor]
        for key in dead:
            self.trunc_loss += abs(self.terms[key]) * self._weight(key)
            del self.terms[key]

    def _prune_entries(self, floor, rel):
        """_prune of a batched series: each entry against its own floor; a
        key goes once all its entries are zero."""
        keys = list(self.terms)
        coef = _coef_matrix(self.terms.values())
        mag = np.abs(coef)
        if rel:
            floor = np.maximum(floor, rel * mag.max(axis=0))
        dead = mag <= floor
        drop = dead.all(axis=1)
        rows = np.flatnonzero(drop | (dead & (mag > 0.0)).any(axis=1))
        if not len(rows):
            return
        weight = np.array([self._weight(keys[i]) for i in rows])
        loss = (np.where(dead[rows], mag[rows], 0.0) * weight[:, None]).sum(axis=0)
        self.trunc_loss += float(loss.max())
        coef[dead] = 0.0
        for i in rows:
            if drop[i]:
                del self.terms[keys[i]]
            else:
                # a copy, so the surviving rows do not keep all of coef alive
                self.terms[keys[i]] = coef[i].copy()

    def _check_compat(self, other):
        if self.grading != other.grading:
            raise GradingError("grading mismatch")
        if not (math.isclose(self.r, other.r) and math.isclose(self.s, other.s)):
            raise GradingError("radii mismatch: (%g,%g) vs (%g,%g)"
                               % (self.r, self.s, other.r, other.s))

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex, np.ndarray)):
            other = FTSeries.constant(self.grading, self.r, self.s, other)
        self._check_compat(other)
        new = self.copy()
        new.trunc_loss += other.trunc_loss
        for key, c in other.terms.items():
            cur = new.terms.get(key)
            new.terms[key] = c if cur is None else cur + c
        new._prune()
        return new

    __radd__ = __add__

    def __neg__(self):
        new = self.copy()
        new.terms = {key: -c for key, c in new.terms.items()}
        return new

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FTSeries.constant(self.grading, self.r, self.s, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Multiply by a number, or entry-wise by a length-B array."""
        new = self.copy()
        mag = float(np.abs(c).max()) if isinstance(c, np.ndarray) else abs(c)
        if mag == 0:
            new.terms = {}
            return new
        new.terms = {key: v * c for key, v in new.terms.items()}
        new.trunc_loss *= mag
        return new

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    # -- queries ----------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def max_abs_coeff(self):
        """Largest coefficient modulus (per entry for a batched series)."""
        if _is_batched(self):
            return np.abs(_coef_matrix(self.terms.values())).max(axis=0)
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coeff(self, j, k, alpha):
        return self.terms.get((tuple(j), tuple(k), tuple(alpha)), 0.0 + 0.0j)

    def reality_defect(self):
        """Max |c(j,k,a) - conj(c(-j,-k,a))| over stored terms."""
        worst = 0.0
        for (j, k, a), c in self.terms.items():
            mirror = self.terms.get((tuple(-v for v in j), tuple(-v for v in k), a), 0.0)
            worst = max(worst, abs(c - np.conj(mirror)))
        return worst

    def __repr__(self):
        return "FTSeries(%d terms, r=%g, s=%g, loss=%.3g)" % (
            len(self.terms), self.r, self.s, self.trunc_loss)


# -- operations ------------------------------------------------------------------


_VECTOR_THRESHOLD = 4096
# array coefficients make every pair of the plain loop cost numpy calls, so
# batched products switch to the vectorized path much earlier
_BATCH_VECTOR_THRESHOLD = 64


def _keys_to_arrays(f):
    # cached per instance: series are immutable once they enter arithmetic
    if f._kcache is not None and f._kcache[0] == len(f.terms):
        return f._kcache[1], f._kcache[2]
    gr = f.grading
    n = len(f.terms)
    width = gr.l + gr.d + gr.nz
    keys = np.empty((n, width), dtype=np.int64)
    batched = _is_batched(f)
    coef = _coef_matrix(f.terms.values()) if batched \
        else np.empty(n, dtype=complex)
    for i, ((j, k, a), c) in enumerate(f.terms.items()):
        keys[i, :gr.l] = j
        keys[i, gr.l:gr.l + gr.d] = k
        keys[i, gr.l + gr.d:] = a
        if not batched:
            coef[i] = c
    f._kcache = (n, keys, coef)
    return keys, coef


def _multiply_vectorized(f, g):
    gr = f.grading
    l, d = gr.l, gr.d
    A, ca = _keys_to_arrays(f)
    B, cb = _keys_to_arrays(g)
    keys = (A[:, None, :] + B[None, :, :]).reshape(-1, A.shape[1])
    batched = ca.ndim == 2 or cb.ndim == 2
    if batched:
        ca = ca.reshape(len(ca), -1)
        cb = cb.reshape(len(cb), -1)
        coef = (ca[:, None, :] * cb[None, :, :]).reshape(len(keys), -1)
    else:
        coef = (ca[:, None] * cb[None, :]).reshape(-1)
    absj = np.abs(keys[:, :l]).sum(axis=1)
    absk = np.abs(keys[:, l:l + d]).sum(axis=1)
    absa = keys[:, l + d:].sum(axis=1)
    ok = (absj <= gr.K_phi) & (absk <= gr.K_q) & (absa <= gr.D)
    loss = 0.0
    if not ok.all():
        bad = ~ok
        # per entry for batched coefficients (pairs along the last axis)
        loss = float(np.max((np.abs(coef[bad]).T
                             * np.exp((absj[bad] + absk[bad]) * f.r)
                             * f.s ** absa[bad].astype(float)).sum(axis=-1)))
    keys, coef = keys[ok], coef[ok]
    # pack each in-bounds key into one integer for a fast 1-d unique
    # (balanced mixed radix; injective since every slot covers its range)
    mults = np.empty(A.shape[1], dtype=np.int64)
    m = 1
    for col in range(A.shape[1] - 1, -1, -1):
        mults[col] = m
        rng = (2 * gr.K_phi + 1) if col < l else \
              (2 * gr.K_q + 1) if col < l + d else (gr.D + 1)
        m *= rng
        if m > 2 ** 62:
            break
    if m > 2 ** 62:
        uniq, first, inv = np.unique(keys, axis=0, return_index=True,
                                     return_inverse=True)
    else:
        packed = keys @ mults
        uniq, first, inv = np.unique(packed, return_index=True,
                                     return_inverse=True)
    acc = np.zeros((len(uniq),) + coef.shape[1:], dtype=complex)
    np.add.at(acc, inv.reshape(-1), coef)
    new = FTSeries.zero(gr, f.r, f.s)
    new.trunc_loss = loss
    nonzero = acc.any(axis=1) if batched else acc != 0.0
    rows = keys[first].tolist()
    for i, row in enumerate(rows):
        if nonzero[i]:
            new.terms[(tuple(row[:l]), tuple(row[l:l + d]),
                       tuple(row[l + d:]))] = acc[i]
    return new


def multiply(f, g):
    """Coefficient-level product; out-of-grading terms are dropped into trunc_loss."""
    f._check_compat(g)
    gr = f.grading
    n, m = len(f.terms), len(g.terms)
    if n == 0 or m == 0:
        return FTSeries.zero(gr, f.r, f.s)
    batched = _is_batched(f) or _is_batched(g)
    if n * m > (_BATCH_VECTOR_THRESHOLD if batched else _VECTOR_THRESHOLD):
        new = _multiply_vectorized(f, g)
    else:
        new = FTSeries.zero(gr, f.r, f.s)
        fitems = sorted(f.terms.items())
        gitems = sorted(g.terms.items())
        if len(fitems) > len(gitems):
            fitems, gitems = gitems, fitems
        for (j1, k1, a1), c1 in fitems:
            for (j2, k2, a2), c2 in gitems:
                j = tuple(u + v for u, v in zip(j1, j2))
                k = tuple(u + v for u, v in zip(k1, k2))
                a = tuple(u + v for u, v in zip(a1, a2))
                new._accumulate((j, k, a), c1 * c2)
    # propagate the operands' own accumulated loss through the product scale
    if f.trunc_loss or g.trunc_loss:
        new.trunc_loss += float(np.max(f.trunc_loss * g.majorant_norm()
                                       + g.trunc_loss * f.majorant_norm()
                                       + f.trunc_loss * g.trunc_loss))
    new._prune()
    return new


def ft_sum(grading, r, s, parts, scales=None):
    """Sum many series into one pass (avoids quadratic re-copying)."""
    acc = {}
    loss = 0.0
    for idx, p in enumerate(parts):
        w = 1.0 if scales is None else scales[idx]
        if w == 0.0:
            continue
        loss += p.trunc_loss * abs(w)
        for key, c in p.terms.items():
            cur = acc.get(key)
            v = c * w
            acc[key] = v if cur is None else cur + v
    new = FTSeries(grading, r, s, acc, loss, _raw=True)
    new._prune()
    return new


def differentiate(f, var):
    """Exact term-wise derivative.  var is ('phi'|'q'|'x'|'p'|'y', index)."""
    name, i = var
    g = f.grading
    new = FTSeries.zero(g, f.r, f.s)
    new.trunc_loss = f.trunc_loss
    if name in ("phi", "q"):
        if name == "phi":
            if not 0 <= i < g.l:
                raise IndexError("phi index out of range")
        else:
            if not 0 <= i < g.d:
                raise IndexError("q index out of range")
        for (j, k, a), c in f.terms.items():
            n = j[i] if name == "phi" else k[i]
            if n:
                new.terms[(j, k, a)] = c * 1j * n
        return new
    off = {"x": 0, "p": g.l, "y": g.l + g.d}[name]
    dim = {"x": g.l, "p": g.d, "y": g.l}[name]
    if not 0 <= i < dim:
        raise IndexError("%s index out of range" % name)
    pos = off + i
    for (j, k, a), c in f.terms.items():
        n = a[pos]
        if n:
            a2 = a[:pos] + (n - 1,) + a[pos + 1:]
            key = (j, k, a2)
            cur = new.terms.get(key)
            val = c * n
            new.terms[key] = val if cur is None else cur + val
    return new


def average_q(f):
    """Retain the k = 0 angle modes (the q-average M_q f)."""
    zero_k = (0,) * f.grading.d
    new = FTSeries.zero(f.grading, f.r, f.s)
    new.trunc_loss = f.trunc_loss
    for (j, k, a), c in f.terms.items():
        if k == zero_k:
            new.terms[(j, k, a)] = c
    return new


def partial_omega(f, omega):
    """Directional angle derivative <omega, d_q f>: each mode gains i<omega,k>."""
    omega = np.asarray(omega, dtype=float)
    new = FTSeries.zero(f.grading, f.r, f.s)
    new.trunc_loss = f.trunc_loss
    for (j, k, a), c in f.terms.items():
        dot = float(np.dot(omega, k))
        if dot != 0.0:
            new.terms[(j, k, a)] = c * 1j * dot
    return new


def truncate_fourier(f, K, sigma):
    """Drop q-modes with |k|_1 > K; certify the tail at radius r - sigma.

    Returns (truncated series, tail_bound) where the bound is the majorant
    norm of the dropped part evaluated at radii (r - sigma, s); it dominates
    the sup of the discarded tail on the shrunk strip.
    """
    if not 0 < sigma < f.r:
        raise ValueError("need 0 < sigma < r")
    new = FTSeries.zero(f.grading, f.r, f.s)
    new.trunc_loss = f.trunc_loss
    tail = 0.0
    rs = f.r - sigma
    for (j, k, a), c in sorted(f.terms.items()):
        if _l1(k) > K:
            tail += abs(c) * math.exp((_l1(j) + _l1(k)) * rs) * f.s ** _l1(a)
        else:
            new.terms[(j, k, a)] = c
    return new, tail


def majorant_norm(f, r=None, s=None):
    """sum |c| e^{(|j|+|k|) r} s^{|a|}; dominates sup |f| on the (r, s) strip.

    Per entry (an array) for a batched series."""
    r = f.r if r is None else r
    s = f.s if s is None else s
    if r > f.r * (1 + 1e-12) or s > f.s * (1 + 1e-12):
        raise ValueError("majorant radii exceed stored domain")
    if len(f.terms) > 256:
        gr = f.grading
        keys, coef = _keys_to_arrays(f)
        ang = np.abs(keys[:, :gr.l + gr.d]).sum(axis=1)
        deg = keys[:, gr.l + gr.d:].sum(axis=1).astype(float)
        weight = np.exp(ang * r) * s ** deg
        if coef.ndim == 2:
            return (np.abs(coef) * weight[:, None]).sum(axis=0)
        return float(np.sum(np.abs(coef) * weight))
    total = 0.0
    for (j, k, a), c in f.terms.items():
        total += abs(c) * math.exp((_l1(j) + _l1(k)) * r) * s ** _l1(a)
    return total


FTSeries.majorant_norm = majorant_norm


def _phi_multi_indices(l, kmax):
    out = [()]
    for _ in range(l):
        out = [t + (n,) for t in out for n in range(kmax + 1)]
    return [t for t in out if sum(t) <= kmax]


def ck_norm_estimate(f, k1, k2, r=None, s=None):
    """Upper bound on the C^{k1,k2} norm (k1 in phi, k2 in (q,x,p,y)).

    Sums majorant norms of all partial derivatives up to the given orders.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("derivative orders must be >= 0")
    g = f.grading
    total = 0.0
    # enumerate phi-derivatives first, then (q,x,p,y)-derivatives of each
    phi_vars = [("phi", i) for i in range(g.l)]
    zvars = ([("q", i) for i in range(g.d)] + [("x", i) for i in range(g.l)]
             + [("p", i) for i in range(g.d)] + [("y", i) for i in range(g.l)])

    def expand(series, vars_, depth, start, visit):
        visit(series)
        if depth == 0:
            return
        for idx in range(start, len(vars_)):
            dv = differentiate(series, vars_[idx])
            expand(dv, vars_, depth - 1, idx, visit)

    # derivatives commute; enumerate non-decreasing variable sequences so each
    # multi-index appears once
    sums = []

    def visit_phi(sphi):
        def visit_z(sz):
            sums.append(majorant_norm(sz, r, s))
        expand(sphi, zvars, k2, 0, visit_z)

    expand(f, phi_vars, k1, 0, visit_phi)
    for v in sums:
        total += v
    return total


def evaluate(f, phi=None, q=None, x=None, p=None, y=None):
    """Numerically evaluate the finite sum at a real point (defaults: zero)."""
    g = f.grading

    def arr(v, n):
        return np.zeros(n) if v is None else np.asarray(v, dtype=float).reshape(n)

    phi, q = arr(phi, g.l), arr(q, g.d)
    x, p, y = arr(x, g.l), arr(p, g.d), arr(y, g.l)
    zvals = np.concatenate([x, p, y])
    total = 0.0 + 0.0j
    for (j, k, a), c in f.terms.items():
        phase = np.dot(j, phi) + np.dot(k, q)
        mono = 1.0
        for base, expo in zip(zvals, a):
            if expo:
                mono *= base ** expo
        total += c * np.exp(1j * phase) * mono
    scale = majorant_norm(f)
    if abs(total.imag) > 1e-12 * max(scale, 1e-300):
        raise RealityError("imaginary residue %.3g exceeds tolerance (series not real?)"
                           % abs(total.imag))
    return total.real


# -- degree split -----------------------------------------------------------------


@dataclass
class TaylorSplit:
    """Exact partition of a series by Taylor degree 0 / 1 / 2 / >=3.

    The quadratic part is stored as symmetric blocks in the 1/2 <d z, z>
    convention (a diagonal monomial c*x_i^2 contributes d_xx[i][i] = 2c).
    """

    a: FTSeries
    b_x: list
    b_p: list
    b_y: list
    d_xx: list
    d_pp: list
    d_yy: list
    d_xy: list
    d_px: list
    d_py: list
    remainder: FTSeries

    def reassemble(self):
        """Inverse of taylor_split: a + b.z + 1/2 <d z, z> + remainder, coefficient-exact."""
        g = self.a.grading
        total = self.a.copy()

        def pos_of(block, i):
            return {"x": 0, "p": g.l, "y": g.l + g.d}[block] + i

        def addterm(key, c):
            cur = total.terms.get(key)
            total.terms[key] = c if cur is None else cur + c

        def put(src, positions, factor):
            for (j, k, _a), c in src.terms.items():
                key = [0] * g.nz
                for pos in positions:
                    key[pos] += 1
                addterm((j, k, tuple(key)), c * factor)

        for blk, vecs, dim in (("x", self.b_x, g.l), ("p", self.b_p, g.d),
                               ("y", self.b_y, g.l)):
            for i in range(dim):
                put(vecs[i], [pos_of(blk, i)], 1.0)
        # diagonal blocks: 1/2 <d_xx x, x> = sum_i d_xx[i][i]/2 x_i^2
        #                                    + sum_{i<j} d_xx[i][j] x_i x_j
        for blk, mat, dim in (("x", self.d_xx, g.l), ("p", self.d_pp, g.d),
                              ("y", self.d_yy, g.l)):
            for i in range(dim):
                put(mat[i][i], [pos_of(blk, i)] * 2, 0.5)
                for jj in range(i + 1, dim):
                    put(mat[i][jj], [pos_of(blk, i), pos_of(blk, jj)], 1.0)
        # cross blocks carry the full monomial coefficient once
        for i in range(g.l):
            for jj in range(g.l):
                put(self.d_xy[i][jj], [pos_of("x", i), pos_of("y", jj)], 1.0)
        for i in range(g.d):
            for jj in range(g.l):
                put(self.d_px[i][jj], [pos_of("p", i), pos_of("x", jj)], 1.0)
                put(self.d_py[i][jj], [pos_of("p", i), pos_of("y", jj)], 1.0)
        for key, c in self.remainder.terms.items():
            addterm(key, c)
        total._prune(0.0)
        return total


def taylor_split(f):
    g = f.grading
    r, s = f.r, f.s

    def grid(n, m):
        return [[FTSeries.zero(g, r, s) for _ in range(m)] for _ in range(n)]

    a = FTSeries.zero(g, r, s)
    b_x = [FTSeries.zero(g, r, s) for _ in range(g.l)]
    b_p = [FTSeries.zero(g, r, s) for _ in range(g.d)]
    b_y = [FTSeries.zero(g, r, s) for _ in range(g.l)]
    d_xx, d_pp, d_yy = grid(g.l, g.l), grid(g.d, g.d), grid(g.l, g.l)
    d_xy, d_px, d_py = grid(g.l, g.l), grid(g.d, g.l), grid(g.d, g.l)
    rem = FTSeries.zero(g, r, s)
    zero_a = (0,) * g.nz

    def var_of(pos):
        if pos < g.l:
            return ("x", pos)
        if pos < g.l + g.d:
            return ("p", pos - g.l)
        return ("y", pos - g.l - g.d)

    for (j, k, alpha), c in f.terms.items():
        deg = _l1(alpha)
        key0 = (j, k, zero_a)
        if deg == 0:
            a.terms[key0] = a.terms.get(key0, 0.0) + c
        elif deg == 1:
            pos = next(i for i, v in enumerate(alpha) if v)
            name, i = var_of(pos)
            tgt = {"x": b_x, "p": b_p, "y": b_y}[name][i]
            tgt.terms[key0] = tgt.terms.get(key0, 0.0) + c
        elif deg == 2:
            nz = [i for i, v in enumerate(alpha) if v]
            if len(nz) == 1:
                pa = pb = nz[0]
            else:
                pa, pb = nz
            na, ia = var_of(pa)
            nb, ib = var_of(pb)
            if (na, nb) in (("x", "x"), ("p", "p"), ("y", "y")):
                mat = {"x": d_xx, "p": d_pp, "y": d_yy}[na]
                if pa == pb:
                    mat[ia][ia].terms[key0] = mat[ia][ia].terms.get(key0, 0.0) + 2 * c
                else:
                    mat[ia][ib].terms[key0] = mat[ia][ib].terms.get(key0, 0.0) + c
                    mat[ib][ia].terms[key0] = mat[ib][ia].terms.get(key0, 0.0) + c
            else:
                pairs = {("x", "y"): (d_xy, False), ("p", "x"): (d_px, False),
                         ("p", "y"): (d_py, False)}
                if (na, nb) in pairs:
                    mat, _ = pairs[(na, nb)]
                    mat[ia][ib].terms[key0] = mat[ia][ib].terms.get(key0, 0.0) + c
                else:
                    mat, _ = pairs[(nb, na)]
                    mat[ib][ia].terms[key0] = mat[ib][ia].terms.get(key0, 0.0) + c
        else:
            rem.terms[(j, k, alpha)] = c
    for series in [a] + b_x + b_p + b_y + [rem]:
        series._prune(0.0)
    return TaylorSplit(a, b_x, b_p, b_y, d_xx, d_pp, d_yy, d_xy, d_px, d_py, rem)


# -- serialization ----------------------------------------------------------------


def _fmt(v):
    return float("%.17g" % v)


def to_json_dict(f):
    terms = []
    for (j, k, a), c in sorted(f.terms.items()):
        terms.append({"j": list(j), "k": list(k), "alpha": list(a),
                      "re": _fmt(c.real), "im": _fmt(c.imag)})
    g = f.grading
    return {"grading": {"d": g.d, "l": g.l, "K_q": g.K_q, "K_phi": g.K_phi, "D": g.D},
            "radii": [_fmt(f.r), _fmt(f.s)], "terms": terms}


def from_json_dict(data):
    gd = data["grading"]
    g = Grading(gd["d"], gd["l"], gd["K_q"], gd["K_phi"], gd["D"])
    new = FTSeries.zero(g, data["radii"][0], data["radii"][1])
    for t in data["terms"]:
        new.terms[(tuple(t["j"]), tuple(t["k"]), tuple(t["alpha"]))] = complex(t["re"], t["im"])
    return new


def dumps(f):
    return json.dumps(to_json_dict(f), separators=(",", ":"), sort_keys=True)


def loads(text):
    return from_json_dict(json.loads(text))
