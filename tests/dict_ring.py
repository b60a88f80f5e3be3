"""The dict-backed Fourier-Taylor ring that kamtori.series replaced, kept
as the oracle of tests/test_slot_storage.py: each series holds a dict
{(j, k, a): c}, sums are Python merge loops and ck_norm_estimate sums the
majorants of a recursive tree of derivatives.  Three changes: taylor_split's
remainder carries f's trunc_loss, as kamtori.series's does, so a split and
its reassembly keep the truncation bound; a batched prune or product forms
no loss, as kamtori.series's do; and the FTSeries methods that no test
calls (the mode-pair constructors, copy, with_radii, the queries, the
reflected operators and ft_sum's scales) are left out.

Sparse Fourier-Taylor series on T^l_param x T^d x B^l x B^d x B^l.

Every analytic object in the torus-continuation scheme is represented as a
truncated series

    f(phi, q, x, p, y) = sum  c[j,k,a] * e^{i j.phi} e^{i k.q} x^ax p^ap y^ay

with j in Z^l (parameter modes), k in Z^d (angle modes) and a = (ax, ap, ay)
a Taylor multi-index over the ball variables.  Coefficients are stored
sparsely in a dict keyed by the packed integer tuple (j, k, a).  Real
functions keep the reality symmetry c[-j,-k,a] = conj(c[j,k,a]).

Series are immutable by convention: all operations return new instances.
Terms that fall outside the grading bounds (or below the pruning floor) are
dropped and their majorant mass is accumulated in ``trunc_loss``.  Products
run through per-grading index-pair tables (``_Plan``) on per-dict ``_arrays``.

A coefficient may also be a length-B complex array: the series then stands
for B series with one shared key set (one per parameter grid point in the
cohomological solve).  The coefficient-wise operations carry arrays as
they are; the reductions (pruning, ``majorant_norm``) act per entry, and
the prunes and products of batched series form no loss.
"""

import functools
import itertools
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
    return sum(map(abs, t))


class _Ball:
    """The integer vectors of |v|_1 <= K (Taylor exponents: v >= 0) in
    lexicographic order, with their norms."""

    def __init__(self, dim, K, signed):
        self.K, self.lo = K, -K if signed else 0
        pts = np.indices((K - self.lo + 1,) * dim).reshape(dim, -1).T + self.lo
        self.pts = pts = pts[np.abs(pts).sum(axis=1) <= K]
        self.keys = [tuple(v) for v in pts.tolist()]
        self.index = {v: i for i, v in enumerate(self.keys)}
        self.norm = np.abs(pts).sum(axis=1)

    @functools.cached_property
    def sums(self):
        """Tables of pairwise sums, built on first use: the index of v_a + v_b
        (-1 outside the ball) and its norm, for every (a, b)."""
        pts, lo = self.pts, self.lo
        sums = pts[:, None, :] + pts[None, :, :]
        # mixed-radix codes of sums (digits v - 2 lo in [0, 2 (K - lo)]),
        # increasing in the lexicographic order of pts
        radix = (2 * (self.K - lo) + 1) ** np.arange(pts.shape[1] - 1, -1, -1)
        codes = (pts - 2 * lo) @ radix
        sum_codes = (sums - 2 * lo) @ radix
        at = np.searchsorted(codes, sum_codes).clip(max=len(codes) - 1)
        return np.where(codes[at] == sum_codes, at, -1), np.abs(sums).sum(axis=2)


class _Plan:
    """The product plan of a grading: its phi-mode, q-mode and Taylor balls
    J, K, T; lower[p][t], the index of a - e_p for the Taylor exponent a of
    t; and the output slots, slot = (j NK + k) NT + t for ball indices j, k,
    t."""

    def __init__(self, gr):
        J, K, T = self.J, self.K, self.T = (_Ball(gr.l, gr.K_phi, True),
                                            _Ball(gr.d, gr.K_q, True),
                                            _Ball(gr.nz, gr.D, False))
        self.NK, self.NT = len(K.keys), len(T.keys)
        self.lower = [np.array([T.index.get(a[:p] + (a[p] - 1,) + a[p + 1:], -1)
                                for a in T.keys]) for p in range(gr.nz)]

    @functools.cached_property
    def slots(self):
        """The balls' sum tables scaled to output slots; a sum outside a ball
        gets a sentinel that keeps the slot of any pair involving it negative."""
        out = -len(self.J.keys) * self.NK * self.NT
        return [np.where(b.sums[0] >= 0, b.sums[0] * scale, out) for b, scale
                in ((self.J, self.NK * self.NT), (self.K, self.NT), (self.T, 1))]


def _weight(plan, ij, ik, it, r, s):
    """Majorant weights e^{(|j|+|k|) r} s^|a| of terms, in closed form from
    their ball indices in plan (this module's or kamtori.series's)."""
    return np.exp((plan.J.norm[ij] + plan.K.norm[ik]) * r) \
        * s ** plan.T.norm[it].astype(float)


_plan = functools.lru_cache(maxsize=None)(_Plan)


def _is_batched(f):
    """True when some coefficient of f is an array (one entry per series)."""
    return np.ndarray in map(type, f.terms.values())


def _coef_matrix(values):
    """Coefficients of a batched series as an (n, B) array (scalars broadcast)."""
    values = list(values)
    try:
        return np.stack(values).astype(complex, copy=False)
    except ValueError:  # plain numbers among the rows
        width = next(len(c) for c in values if type(c) is np.ndarray)
        return np.stack([np.broadcast_to(c, width) for c in values]).astype(complex)


class _Terms(dict):
    """A series' coefficient dict; ``arrays`` holds its index arrays (see
    ``_arrays``) once built, and every write drops them, so they cannot be
    read stale."""

    arrays = None

    def _dropping(write):
        def method(self, *args, **kwargs):
            self.arrays = None
            return write(self, *args, **kwargs)
        return method

    __setitem__ = _dropping(dict.__setitem__)
    __delitem__ = _dropping(dict.__delitem__)
    __ior__ = _dropping(dict.__ior__)
    clear = _dropping(dict.clear)
    pop = _dropping(dict.pop)
    popitem = _dropping(dict.popitem)
    setdefault = _dropping(dict.setdefault)
    update = _dropping(dict.update)
    del _dropping


class GradingError(ValueError):
    pass


class RealityError(ValueError):
    pass


class FTSeries:
    """One truncated Fourier-Taylor series with its domain radii."""

    __slots__ = ("grading", "r", "s", "_terms", "trunc_loss")

    def __init__(self, grading, r, s, terms=None, trunc_loss=0.0, _raw=False):
        if not (r > 0 and s > 0):
            raise ValueError("radii must be positive")
        self.grading = grading
        self.r = float(r)
        self.s = float(s)
        self.trunc_loss = float(trunc_loss)
        if _raw:
            # a _Terms is shared, a plain dict wrapped once
            self._terms = terms if type(terms) is _Terms else _Terms(terms or ())
            return
        self._terms = {}
        for key, c in (terms or {}).items():
            self._accumulate(key, c)
        self._terms = _Terms(self._terms)
        self._prune()

    @property
    def terms(self):
        """The coefficient dict {(j, k, a): c}."""
        return self._terms

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, grading, r, s, value):
        if isinstance(value, np.ndarray):
            terms = {grading.zero_key(): value.astype(complex)} \
                if value.any() else {}
        else:
            terms = {grading.zero_key(): complex(value)} if value != 0 else {}
        return cls(grading, r, s, terms, _raw=True)

    # -- internal accumulation with bound checks -------------------------------

    def _accumulate(self, key, c):
        g = self.grading
        j, k, a = key
        if _l1(j) > g.K_phi or _l1(k) > g.K_q or _l1(a) > g.D:
            self.trunc_loss += float(np.max(np.abs(c))) * math.exp(
                (_l1(j) + _l1(k)) * self.r) * self.s ** _l1(a)
            return
        cur = self.terms.get(key)
        self.terms[key] = c if cur is None else cur + c

    def _prune(self, floor=PRUNE_FLOOR, rel=REL_PRUNE):
        terms = self.terms
        if not terms:
            return
        ij, ik, it, coef = _arrays(self)
        keep, kept, loss = _prune_arrays(_plan(self.grading), ij, ik, it, coef,
                                         self.r, self.s, floor, rel)
        self.trunc_loss += loss
        if kept is coef and keep.all():
            return
        keys = list(terms)
        pruned = _from_arrays(self, [keys[i] for i in np.flatnonzero(keep)],
                              (ij[keep], ik[keep], it[keep], kept[keep]), 0.0)
        dict.clear(terms)
        dict.update(terms, pruned.terms)
        terms.arrays = pruned.terms.arrays

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
        terms = dict(self.terms)
        for key, c in other.terms.items():
            cur = terms.get(key)
            terms[key] = c if cur is None else cur + c
        new = FTSeries(self.grading, self.r, self.s, terms,
                       self.trunc_loss + other.trunc_loss, _raw=True)
        new._prune()
        return new

    __radd__ = __add__

    def __neg__(self):
        return FTSeries(self.grading, self.r, self.s,
                        {key: -c for key, c in self.terms.items()},
                        self.trunc_loss, _raw=True)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FTSeries.constant(self.grading, self.r, self.s, other)
        return self + (-other)

    def scale(self, c):
        """Multiply by a number, or entry-wise by a length-B array."""
        mag = float(np.abs(c).max()) if isinstance(c, np.ndarray) else abs(c)
        terms = {key: v * c for key, v in self.terms.items()} if mag else {}
        # the loss of a series scaled to zero is kept, not scaled
        return FTSeries(self.grading, self.r, self.s, terms,
                        self.trunc_loss * (mag or 1.0), _raw=True)


# -- operations ------------------------------------------------------------------


def _arrays(f):
    """(phi-mode, q-mode and Taylor indices, coefficients) of f's terms in
    the order of f.terms: the operands of the product kernel.  Built once
    per coefficient dict (_Terms drops them on any write)."""
    terms = f.terms
    if terms.arrays is None:
        plan = _plan(f.grading)
        try:
            idx = [np.fromiter(map(ball.index.__getitem__, part), np.intp,
                               len(terms)) for ball, part in
                   zip((plan.J, plan.K, plan.T), list(zip(*terms)) or [()] * 3)]
        except KeyError as exc:
            raise GradingError("term outside the grading: %s" % (exc,)) from None
        coef = _coef_matrix(terms.values()) if _is_batched(f) \
            else np.fromiter(terms.values(), complex, len(terms))
        if coef.ndim == 2:  # the stacked rows become the values: held once
            dict.update(terms, zip(list(terms), coef))
        terms.arrays = (*idx, coef)
    return terms.arrays


def _from_arrays(f, keys, arrays, trunc_loss):
    """A series on f's grading and radii with these keys and arrays."""
    values = list(arrays[3]) if arrays[3].ndim == 2 else arrays[3].tolist()
    new = FTSeries(f.grading, f.r, f.s, zip(keys, values), trunc_loss, _raw=True)
    new.terms.arrays = arrays
    return new


def _prune_arrays(plan, ij, ik, it, coef, r, s, floor=PRUNE_FLOOR,
                  rel=REL_PRUNE):
    """The prune floors on a series' arrays: an entry at or below
    max(floor, rel x its largest) is dropped and, for an unbatched series,
    its majorant added to the loss (each entry of a batched series against
    its own floor, zeroed in a row that keeps others).  Returns (rows kept,
    coefficients, loss); the coefficients are coef itself when no entry was
    zeroed."""
    mag = np.abs(coef)
    dead = mag <= np.maximum(floor, rel * mag.max(axis=0, initial=0.0))
    if not dead.any():
        return ~dead if coef.ndim == 1 else ~dead[:, 0], coef, 0.0
    lost = dead & (mag > 0.0)
    rows = np.flatnonzero(lost.any(axis=1) if coef.ndim == 2 else lost)
    loss = 0.0
    if len(rows) and coef.ndim == 2:
        coef = np.where(dead, 0.0, coef)
    elif len(rows):
        loss = float((mag[rows] * _weight(plan, ij[rows], ik[rows], it[rows],
                                          r, s)).sum())
    return ~(dead.all(axis=1) if coef.ndim == 2 else dead), coef, loss


def multiply(f, g):
    """Coefficient-level product; out-of-grading terms are dropped into trunc_loss.

    Every pair of terms finds its output slot in the grading's sum tables;
    pairs outside the grading add their majorant to trunc_loss, the rest
    accumulate per slot, and the prune floors act on the accumulated array
    before the product's dict is built."""
    f._check_compat(g)
    loss = 0.0
    # propagate the operands' own accumulated loss through the product scale
    if f.trunc_loss or g.trunc_loss:
        loss = float(np.max(f.trunc_loss * g.majorant_norm()
                            + g.trunc_loss * f.majorant_norm()
                            + f.trunc_loss * g.trunc_loss))
    if not f.terms or not g.terms:
        return FTSeries(f.grading, f.r, f.s, {}, loss, _raw=True)
    plan = _plan(f.grading)
    J, K, T = plan.J, plan.K, plan.T
    fj, fk, ft, fc = _arrays(f)
    gj, gk, gt, gc = _arrays(g)
    js, ks, ts = plan.slots
    slot = js[fj].take(gj, axis=1)
    slot += ks[fk].take(gk, axis=1)
    slot += ts[ft].take(gt, axis=1)
    out = slot < 0
    batched = fc.ndim == 2 or gc.ndim == 2
    if out.any() and not batched:
        # sum over out-of-grading pairs of |c_a| |c_b| e^{(|j|+|k|) r} s^deg
        w = np.exp(J.sums[1] * f.r)[fj].take(gj, axis=1)
        w *= np.exp(K.sums[1] * f.r)[fk].take(gk, axis=1)
        w *= out
        mf = np.abs(fc).reshape(len(fc), -1) * f.s ** T.norm[ft, None].astype(float)
        mg = np.abs(gc).reshape(len(gc), -1) * f.s ** T.norm[gt, None].astype(float)
        loss += float(np.max((mf * (w @ mg)).sum(axis=0)))
    if batched:
        # the in-grading pairs in slot order; pairs sharing a slot are summed
        pairs = np.flatnonzero(~out.ravel())
        pairs = pairs[np.argsort(slot.ravel()[pairs], kind="stable")]
        slot = slot.ravel()[pairs]
        pf, pg = np.divmod(pairs, len(gc))
        coef = fc.reshape(len(fc), -1)[pf] * gc.reshape(len(gc), -1)[pg]
        first = np.flatnonzero(np.diff(slot, prepend=-1))
        acc = coef if len(first) == len(slot) \
            else np.add.reduceat(coef, first, axis=0)
        slot = slot[first]
    else:
        # out-of-grading pairs land in bin 0; only the hit slots go on
        coef = (fc[:, None] * gc).ravel()
        pos = slot.reshape(-1)
        np.maximum(pos, -1, out=pos)
        pos += 1
        re, im = np.bincount(pos, coef.real), np.bincount(pos, coef.imag)
        re[0] = im[0] = 0.0
        hit = np.flatnonzero((re != 0.0) | (im != 0.0))
        acc, slot = re[hit] + 1j * im[hit], hit - 1
    NK, NT = plan.NK, plan.NT
    ij, ik, it = slot // (NK * NT), slot // NT % NK, slot % NT
    keep, acc, pruned = _prune_arrays(plan, ij, ik, it, acc, f.r, f.s)
    arrays = (ij, ik, it, acc) if keep.all() else \
        (ij[keep], ik[keep], it[keep], acc[keep])
    keys = [(J.keys[a], K.keys[b], T.keys[c])
            for a, b, c in zip(*(v.tolist() for v in arrays[:3]))]
    return _from_arrays(f, keys, arrays, loss + pruned)


def ft_sum(grading, r, s, parts):
    """Sum many series into one pass (avoids quadratic re-copying)."""
    acc, loss = {}, 0.0
    for p in parts:
        loss += p.trunc_loss
        for key, c in p.terms.items():
            cur = acc.get(key)
            acc[key] = c if cur is None else cur + c
    new = FTSeries(grading, r, s, acc, loss, _raw=True)
    new._prune()
    return new


def differentiate(f, var):
    """Exact term-wise derivative.  var is ('phi'|'q'|'x'|'p'|'y', index)."""
    name, i = var
    g = f.grading
    if not 0 <= i < {"phi": g.l, "q": g.d, "x": g.l, "p": g.d, "y": g.l}[name]:
        raise IndexError("%s index out of range" % name)
    plan = _plan(g)
    ij, ik, it, coef = _arrays(f)
    if name in ("phi", "q"):
        n = plan.J.pts[ij, i] if name == "phi" else plan.K.pts[ik, i]
        factor = 1j * n
    else:
        pos = {"x": 0, "p": g.l, "y": g.l + g.d}[name] + i
        n = factor = plan.T.pts[it, pos]
        it = plan.lower[pos][it]
    live = n != 0
    keys = itertools.compress(f.terms, live.tolist())
    ij, ik, it, factor = ij[live], ik[live], it[live], factor[live]
    if name not in ("phi", "q"):
        keys = [(j, k, plan.T.keys[t]) for (j, k, _), t in zip(keys, it.tolist())]
    coef = coef[live]
    coef *= factor[:, None] if coef.ndim == 2 else factor
    return _from_arrays(f, keys, (ij, ik, it, coef), f.trunc_loss)


def average_q(f):
    """Retain the k = 0 angle modes (the q-average M_q f)."""
    zero_k = (0,) * f.grading.d
    return FTSeries(f.grading, f.r, f.s,
                    {key: c for key, c in f.terms.items() if key[1] == zero_k},
                    f.trunc_loss, _raw=True)


def partial_omega(f, omega):
    """Directional angle derivative <omega, d_q f>: each mode gains i<omega,k>."""
    omega = np.asarray(omega, dtype=float)
    terms = {}
    for (j, k, a), c in f.terms.items():
        dot = float(np.dot(omega, k))
        if dot != 0.0:
            terms[(j, k, a)] = c * 1j * dot
    return FTSeries(f.grading, f.r, f.s, terms, f.trunc_loss, _raw=True)


def truncate_fourier(f, K, sigma):
    """Drop q-modes with |k|_1 > K; certify the tail at radius r - sigma.

    Returns (truncated series, tail_bound) where the bound is the majorant
    norm of the dropped part evaluated at radii (r - sigma, s); it dominates
    the sup of the discarded tail on the shrunk strip.
    """
    if not 0 < sigma < f.r:
        raise ValueError("need 0 < sigma < r")
    terms = {}
    tail = 0.0
    rs = f.r - sigma
    for (j, k, a), c in sorted(f.terms.items()):
        if _l1(k) > K:
            tail += abs(c) * math.exp((_l1(j) + _l1(k)) * rs) * f.s ** _l1(a)
        else:
            terms[(j, k, a)] = c
    return FTSeries(f.grading, f.r, f.s, terms, f.trunc_loss, _raw=True), tail


def majorant_norm(f, r=None, s=None):
    """sum |c| e^{(|j|+|k|) r} s^{|a|}; dominates sup |f| on the (r, s) strip.

    Per entry (an array) for a batched series."""
    r = f.r if r is None else r
    s = f.s if s is None else s
    if r > f.r * (1 + 1e-12) or s > f.s * (1 + 1e-12):
        raise ValueError("majorant radii exceed stored domain")
    ij, ik, it, coef = _arrays(f)
    weight = _weight(_plan(f.grading), ij, ik, it, r, s)
    if coef.ndim == 2:
        return (np.abs(coef) * weight[:, None]).sum(axis=0)
    return float(np.sum(np.abs(coef) * weight))


FTSeries.majorant_norm = majorant_norm


def ck_norm_estimate(f, k1, k2, r=None, s=None):
    """Upper bound on the C^{k1,k2} norm (k1 in phi, k2 in (q,x,p,y)).

    Sums majorant norms of all partial derivatives up to the given orders.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("derivative orders must be >= 0")
    g = f.grading
    phi_vars = [("phi", i) for i in range(g.l)]
    zvars = ([("q", i) for i in range(g.d)] + [("x", i) for i in range(g.l)]
             + [("p", i) for i in range(g.d)] + [("y", i) for i in range(g.l)])

    def derivatives(series, vars_, depth, start=0):
        # derivatives commute; non-decreasing variable sequences give each
        # multi-index once
        yield series
        for idx in range(start, len(vars_)) if depth else ():
            yield from derivatives(differentiate(series, vars_[idx]), vars_,
                                   depth - 1, idx)

    total = 0.0
    for sphi in derivatives(f, phi_vars, k1):
        for sz in derivatives(sphi, zvars, k2):
            total += majorant_norm(sz, r, s)
    return total


def evaluate(f, phi=None, q=None, x=None, p=None, y=None):
    """Numerically evaluate the finite sum at real points (defaults: zero).

    Each argument's last axis holds its variables (a scalar is one variable);
    leading axes index points and broadcast against each other.  One point
    gives a float, several an array of the points' shape."""
    g = f.grading
    args = [np.zeros(n) if v is None else
            np.asarray(v, dtype=float).reshape(np.shape(v)[:-1] + (n,))
            for v, n in zip((phi, q, x, p, y), (g.l, g.d, g.l, g.d, g.l))]
    shape = np.broadcast_shapes(*(v.shape[:-1] for v in args))
    phi, q, x, p, y = (np.broadcast_to(v, shape + v.shape[-1:])
                       .reshape(-1, v.shape[-1]) for v in args)
    total = np.zeros(len(phi), dtype=complex)
    if f.terms:
        # sum_{mode, monomial} e^{i mode} C[mode, monomial] z^monomial over
        # the modes and monomials f uses
        plan = _plan(g)
        ij, ik, it, coef = _arrays(f)
        modes, im = np.unique(ij * plan.NK + ik, return_inverse=True)
        monos, it = np.unique(it, return_inverse=True)
        C = np.zeros((len(modes), len(monos)), dtype=complex)
        C[im, it] = coef
        phase = phi @ plan.J.pts[modes // plan.NK].T \
            + q @ plan.K.pts[modes % plan.NK].T
        z = np.concatenate([x, p, y], axis=1)
        zpow = np.prod(z[:, None, :] ** plan.T.pts[monos], axis=2)
        total = ((np.exp(1j * phase) @ C) * zpow).sum(axis=1)
    residue = float(np.abs(total.imag).max())
    if residue > 1e-12 * max(majorant_norm(f), 1e-300):
        raise RealityError("imaginary residue %.3g exceeds tolerance (series not real?)"
                           % residue)
    return total.real.reshape(shape) if shape else float(total.real[0])


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
        """Inverse of taylor_split: a + b.z + 1/2 <d z, z> + remainder, with
        every entry of a symmetric block at weight 1/2, coefficient-exact;
        each block's trunc_loss is carried times its monomial's majorant
        weight s^|exponent|, with a's and the remainder's."""
        g, s = self.a.grading, self.a.s
        terms = dict(self.a.terms)
        loss = self.a.trunc_loss

        def add(key, c):
            cur = terms.get(key)
            terms[key] = c if cur is None else cur + c

        for field, i, jj, alpha, weight in _split_plan(g)[0]:
            entry = getattr(self, field)[i]
            if field[0] == "d":
                entry = entry[jj]
            for (j, k, _a), c in entry.terms.items():
                add((j, k, alpha), c * weight)
            loss += entry.trunc_loss * weight * s ** sum(alpha)
        for key, c in self.remainder.terms.items():
            add(key, c)
        total = FTSeries(g, self.a.r, s, terms,
                         loss + self.remainder.trunc_loss, _raw=True)
        total._prune(0.0)
        return total


@functools.lru_cache(maxsize=None)
def _split_plan(g):
    """The TaylorSplit entries of degrees 1 and 2 in reassembly order, as
    (field, i, j, exponent, weight): the entry times weight is its share of
    the coefficient of that exponent; and for each exponent of degree <= 2
    the entries (field, i, j, factor) taylor_split fills from it with factor
    x the coefficient."""
    dims = {"x": g.l, "p": g.d, "y": g.l}
    position = {v: p for p, v in enumerate(
        (n, i) for n in "xpy" for i in range(dims[n]))}

    def alpha(*variables):
        a = [0] * g.nz
        for v in variables:
            a[position[v]] += 1
        return tuple(a)

    entries = [("b_" + n, i, 0, alpha((n, i)), 1.0)
               for n in "xpy" for i in range(dims[n])]
    # symmetric blocks: 1/2 <d_xx x, x> = sum_{i,j} d_xx[i][j]/2 x_i x_j, so
    # x_i^2 fills d_xx[i][i] with twice its coefficient and x_i x_j (i != j)
    # fills both d_xx[i][j] and d_xx[j][i] with it
    entries += [("d_" + 2 * n, i, jj, alpha((n, i), (n, jj)), 0.5)
                for n in "xpy" for i in range(dims[n]) for jj in range(dims[n])]
    # cross blocks carry the full monomial coefficient once
    entries += [("d_xy", i, jj, alpha(("x", i), ("y", jj)), 1.0)
                for i in range(g.l) for jj in range(g.l)]
    entries += [("d_p" + n, i, jj, alpha(("p", i), (n, jj)), 1.0)
                for i in range(g.d) for jj in range(g.l) for n in "xy"]
    fills = {(0,) * g.nz: [("a", 0, 0, 1.0)]}
    for field, i, jj, a, weight in entries:
        factor = 2.0 if weight == 0.5 and i == jj else 1.0
        fills.setdefault(a, []).append((field, i, jj, factor))
    return entries, fills


def taylor_split(f):
    g = f.grading
    fills = _split_plan(g)[1]
    zero_a = (0,) * g.nz
    parts, rem = {}, {}   # parts[(field, i, j)]: the terms of one entry
    for (j, k, alpha), c in f.terms.items():
        if alpha not in fills:
            rem[(j, k, alpha)] = c
            continue
        key0 = (j, k, zero_a)
        for field, i, jj, factor in fills[alpha]:
            terms = parts.setdefault((field, i, jj), {})
            terms[key0] = terms.get(key0, 0.0) + (c if factor == 1.0
                                                  else factor * c)
    new = lambda field, i=0, jj=0: FTSeries(g, f.r, f.s,
                                            parts.get((field, i, jj)), _raw=True)
    dims = {"x": g.l, "p": g.d, "y": g.l}
    blocks = {"a": new("a"),
              "remainder": FTSeries(g, f.r, f.s, rem, f.trunc_loss, _raw=True)}
    for n in "xpy":
        blocks["b_" + n] = [new("b_" + n, i) for i in range(dims[n])]
    for m, n in ("xx", "pp", "yy", "xy", "px", "py"):
        blocks["d_" + m + n] = [[new("d_" + m + n, i, jj) for jj in range(dims[n])]
                                for i in range(dims[m])]
    for series in ([blocks["a"], blocks["remainder"]] + blocks["b_x"]
                   + blocks["b_p"] + blocks["b_y"]):
        series._prune(0.0)
    return TaylorSplit(**blocks)


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
    return FTSeries(g, data["radii"][0], data["radii"][1],
                    {(tuple(t["j"]), tuple(t["k"]), tuple(t["alpha"])):
                     complex(t["re"], t["im"]) for t in data["terms"]}, _raw=True)


def dumps(f):
    return json.dumps(to_json_dict(f), separators=(",", ":"), sort_keys=True)


def loads(text):
    return from_json_dict(json.loads(text))
