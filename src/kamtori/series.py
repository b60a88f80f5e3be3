"""Sparse Fourier-Taylor series on T^l_param x T^d x B^l x B^d x B^l.

Every analytic object in the torus-continuation scheme is represented as a
truncated series

    f(phi, q, x, p, y) = sum  c[j,k,a] * e^{i j.phi} e^{i k.q} x^ax p^ap y^ay

with j in Z^l (parameter modes), k in Z^d (angle modes) and a = (ax, ap, ay)
a Taylor multi-index over the ball variables.  The terms are stored as
arrays in slot order (the sorted (j, k, a) order): the indices of j, k and a
in the grading's balls (``_Plan``) and the coefficients; ``terms`` is a
read-only {(j, k, a): c} view.  Real functions keep the reality symmetry
c[-j,-k,a] = conj(c[j,k,a]).

Series are immutable: all operations return new instances.  Terms that fall
outside the grading bounds (or below the pruning floor) are dropped and
their majorant mass is accumulated in ``trunc_loss``.

A coefficient may also be a length-B complex array: the series then stands
for B series with one shared key set (one per parameter grid point in the
cohomological solve), and the coefficients form an (n, B) array.  The
coefficient-wise operations carry them as they are; the reductions (pruning,
``max_abs_coeff``, ``majorant_norm``) act per entry.  The prunes and
products of batched series form no loss: the grid solve is judged by its
measured residual, so what they drop is never accounted.
"""

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

from .errors import PreconditionError

PRUNE_FLOOR = 1e-30
REL_PRUNE = 2e-16  # relative floor: rounding debris far below a series' own
                   # scale is dropped (and accounted) to keep term counts sane
# the pair count from which an unbatched product may take the block kernel:
# the two kernels' measured crossover lies between 1.5e4 and 2e4 pairs (below
# it the block kernel's fixed cost per call loses)
BLOCK_MIN_PAIRS = 20000
# the bytes of one temporary of either product kernel: the block kernel
# gathers its Fourier contraction per tile of output modes and the batched
# pair kernel forms its products per chunk of whole slot runs, each within
# this budget.  Measured on a 2-vCPU VM: one coupled-1p1 solve peaks at 43.2,
# 43.7, 44.7 and 46.2 MB RSS at 256 KiB, 512 KiB, 1 MiB and 2 MiB (49.0 MB
# untiled), and the l = 2 run takes 4.7 s at 256 and 512 KiB, 5.2-5.6 s at
# 1 MiB
BLOCK_TILE_BYTES = 512 * 1024


class GradingError(PreconditionError):
    pass


class RealityError(PreconditionError):
    pass


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
            raise GradingError("need d >= 1 and l >= 1")
        if self.K_q < 1 or self.K_phi < 0:
            raise GradingError("need K_q >= 1 and K_phi >= 0")
        if self.D < 3:
            raise GradingError("need D >= 3 (degree-2 split with O^3 remainder)")

    @property
    def nz(self):
        return 2 * self.l + self.d

    def zero_key(self):
        return ((0,) * self.l, (0,) * self.d, (0,) * self.nz)


def _l1(t):
    return sum(map(abs, t))


def _equal_stack(stack):
    """stack[:1] when every entry of the (B, ...) float64 stack has the
    bytes of the first, and the stack itself otherwise.  The grid solve's
    per-point matrices are all the same wherever beta does not depend on
    phi; a decomposition of the stack of one, broadcast back to B points,
    then gives each point the bytes its own decomposition would."""
    bits = stack.view(np.int64)
    return stack[:1] if (bits == bits[:1]).all() else stack


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


def _powers(modes, degrees, r, s):
    """_Plan.powers's tables, of any length: e^{n r} for n <= modes and s^n
    for n <= degrees."""
    return np.exp(np.arange(modes + 1) * r), s ** np.arange(degrees + 1.0)


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

    @functools.lru_cache(maxsize=None)
    def taylor_sums(self, shift):
        """The index of a + b less the unit vectors at the positions in shift
        for every pair (a, b) of Taylor exponents (-1 outside the ball or
        with a negative entry).  Each unit vector comes off a if a has the
        entry, else off b: the table is read at the lowered pair, so a pair
        of degree D + 1 may lower back into the ball."""
        table = self.T.sums[0]
        for p in shift:
            low = self.lower[p]
            table = np.where(low[:, None] >= 0, table[low],
                             np.where(low >= 0, table[:, low], -1))
        return table

    def code(self, ij, ik, it):
        return (ij * self.NK + ik) * self.NT + it

    def split(self, slot):
        jk, it = np.divmod(slot, self.NT)
        return (*np.divmod(jk, self.NK), it)

    @functools.lru_cache(maxsize=64)
    def powers(self, r, s):
        """The tables e^{n r} for the mode norms n <= 2 (K_phi + K_q) (a sum
        of two modes) and s^n for the degrees n <= D."""
        return _powers(2 * (self.J.K + self.K.K), self.T.K, r, s)

    @functools.lru_cache(maxsize=256)
    def degree_weights(self, d, r, s):
        """W[t, n] = |factor| s^n at n = |a| - |shift| for the derivative d
        (a _Partial) of a term with Taylor index t and factor 1 on modes:
        the majorant weight of d's term by Taylor index and degree."""
        deg = np.maximum(self.T.norm - len(d.shift), 0)
        W = np.zeros((self.NT, self.T.K + 1))
        factor = d.taylor_factor(self, np.arange(self.NT))
        W[np.arange(self.NT), deg] = self.powers(r, s)[1][deg] \
            * (1 if factor is None else factor)
        return W

    def weight(self, ij, ik, it, r, s):
        """Majorant weights e^{(|j|+|k|) r} s^|a| of terms."""
        exp_r, pow_s = self.powers(r, s)
        return exp_r[self.J.norm[ij] + self.K.norm[ik]] * pow_s[self.T.norm[it]]


_plan = functools.lru_cache(maxsize=None)(_Plan)
# the arrays of every empty series and kernel part: read-only, so that a
# write into one raises instead of reaching every other empty series
_EMPTY = np.zeros(0, dtype=complex)
_NONE = np.zeros(0, dtype=np.intp)
_EMPTY.flags.writeable = _NONE.flags.writeable = False


class _TermsView(Mapping):
    """The read-only {(j, k, a): c} mapping of a series' arrays (rows for a
    batched series); len() does not build the dict behind it."""

    __slots__ = ("_f",)

    def __init__(self, f):
        self._f = f

    def __len__(self):
        return len(self._f.coef)

    def __getitem__(self, key):
        return self._f._terms_dict()[key]

    def __iter__(self):
        return iter(self._f._terms_dict())

    def items(self):
        return self._f._terms_dict().items()


class FTSeries:
    """One truncated Fourier-Taylor series with its domain radii.

    ij, ik, it index the terms' j, k and a in the grading's balls, in slot
    order; coef holds their coefficients, shape (n,) or (n, B) if batched.
    trunc_loss bounds the majorant of the terms dropped in forming the
    series; the ring's prunes and products add none for a batched one.
    A dict of terms is checked against the grading (terms outside it go to
    trunc_loss) and pruned, unless _raw, which takes it as it is."""

    __slots__ = ("grading", "r", "s", "trunc_loss", "ij", "ik", "it", "coef",
                 "_dict", "_maj")

    def __init__(self, grading, r, s, terms=None, trunc_loss=0.0, _raw=False):
        if not (r > 0 and s > 0):
            raise ValueError("radii must be positive")
        self.grading, self.r, self.s = grading, float(r), float(s)
        self.trunc_loss = float(trunc_loss)
        if not terms:
            return self._set(_NONE, _NONE, _NONE, _EMPTY)
        plan = _plan(grading)
        idx, values = [], []
        for (j, k, a), c in terms.items():
            try:
                idx.append((plan.J.index[tuple(j)], plan.K.index[tuple(k)],
                            plan.T.index[tuple(a)]))
            except KeyError:
                if _raw or (_l1(j) <= grading.K_phi and _l1(k) <= grading.K_q
                            and _l1(a) <= grading.D):
                    raise GradingError("term outside the grading: %s"
                                       % ((j, k, a),)) from None
                n, m = _l1(j) + _l1(k), _l1(a)   # _Plan.weight's rule
                exp_r, pow_s = _powers(n, m, self.r, self.s)
                weight = exp_r[n] * pow_s[m]
                self.trunc_loss += float(np.max(np.abs(c)) * weight)
                continue
            values.append(c)
        ij, ik, it = np.array(idx, dtype=np.intp).reshape(-1, 3).T
        order = np.argsort(plan.code(ij, ik, it)).tolist()
        width = next(((len(c),) for c in values if np.ndim(c)), ())
        coef = np.empty((len(values),) + width, dtype=complex)
        for row, i in enumerate(order):  # a scalar fills a batched row
            coef[row] = values[i]
        self._set(ij[order], ik[order], it[order], coef)
        if not _raw:
            self._prune()

    def _set(self, ij, ik, it, coef):
        self.ij, self.ik, self.it = ij, ik, it
        self.coef = coef if len(coef) else _EMPTY
        self._dict = self._maj = None

    @property
    def terms(self):
        """The read-only coefficient mapping {(j, k, a): c}, in slot order."""
        return _TermsView(self)

    def _terms_dict(self):
        """The dict behind terms, built on first use and kept."""
        if self._dict is None:
            plan = _plan(self.grading)
            keys = zip(map(plan.J.keys.__getitem__, self.ij.tolist()),
                       map(plan.K.keys.__getitem__, self.ik.tolist()),
                       map(plan.T.keys.__getitem__, self.it.tolist()))
            self._dict = dict(zip(keys, list(self.coef) if self.coef.ndim == 2
                                  else self.coef.tolist()))
        return self._dict

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, grading, r, s):
        return cls(grading, r, s)

    @classmethod
    def constant(cls, grading, r, s, value):
        value = value.astype(complex) if isinstance(value, np.ndarray) \
            else complex(value)
        terms = {grading.zero_key(): value} if np.any(value) else {}
        return cls(grading, r, s, terms, _raw=True)

    @classmethod
    def term(cls, grading, r, s, j, k, alpha, coeff):
        return cls(grading, r, s, {(tuple(j), tuple(k), tuple(alpha)): complex(coeff)})

    @classmethod
    def cos_angle(cls, grading, r, s, j, k, amplitude=1.0):
        """amplitude * cos(j.phi + k.q) as the conjugate mode pair."""
        a, c = (0,) * grading.nz, 0.5 * amplitude
        mirror = (tuple(-v for v in j), tuple(-v for v in k), a)
        terms = {(tuple(j), tuple(k), a): c}
        terms[mirror] = terms.get(mirror, 0.0) + c
        return cls(grading, r, s, terms)

    def copy(self):
        """The same series, sharing its arrays and kept majorants."""
        new = _like(self, self.ij, self.ik, self.it, self.coef, self.trunc_loss)
        new._maj = self._maj
        return new

    def with_radii(self, r, s):
        """The same coefficients read on radii (r, s), which may only shrink,
        down to 0 (the real torus): the one way to take a series' norms on
        other radii."""
        if not (r >= 0 and s >= 0):
            raise ValueError("radii must be non-negative")
        if r > self.r * (1 + 1e-12) or s > self.s * (1 + 1e-12):
            raise ValueError("cannot grow radii by relabeling")
        new = self.copy()
        new.r, new.s = float(r), float(s)
        return new

    def _prune(self, floor=PRUNE_FLOOR, shared=False):
        """Apply the prune floors in place, on a series being built: no
        one else holds its terms, and its coefficients are zeroed in their
        own array, or in a copy if shared (an array that another series or
        the caller still reads).  The series takes its terms anew, so no
        kept dict or majorant of the entries before the prune survives."""
        if not len(self.coef):
            return
        keep, coef, loss = _prune_arrays(_plan(self.grading), self.ij, self.ik,
                                         self.it, self.coef, self.r, self.s,
                                         floor, shared)
        self.trunc_loss += loss
        if keep is not None:
            self._set(self.ij[keep], self.ik[keep], self.it[keep], coef[keep])
        else:
            self._set(self.ij, self.ik, self.it, coef)

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
        return _merge(self.grading, self.r, self.s, (self, other),
                      self.trunc_loss + other.trunc_loss)

    __radd__ = __add__

    def __neg__(self):
        return _like(self, self.ij, self.ik, self.it, -self.coef, self.trunc_loss)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a number, or entry-wise by a length-B array."""
        mag = float(np.abs(c).max()) if isinstance(c, np.ndarray) else abs(c)
        if not mag:  # the loss of a series scaled to zero is kept, not scaled
            return _like(self, _NONE, _NONE, _NONE, _EMPTY, self.trunc_loss)
        coef = self.coef[:, None] * c if np.ndim(c) and self.coef.ndim == 1 \
            else self.coef * c
        return _like(self, self.ij, self.ik, self.it, coef, self.trunc_loss * mag)

    def __mul__(self, other):
        number = isinstance(other, (int, float, complex))
        return self.scale(other) if number else multiply(self, other)

    # -- queries ----------------------------------------------------------------

    def is_zero(self):
        return not len(self.coef)

    def max_abs_coeff(self):
        """Largest coefficient modulus (per entry for a batched series)."""
        if self.coef.ndim == 2:
            return np.abs(self.coef).max(axis=0)
        return float(np.abs(self.coef).max(initial=0.0))

    def coeff(self, j, k, alpha):
        return self.terms.get((tuple(j), tuple(k), tuple(alpha)), 0.0 + 0.0j)

    def reality_defect(self):
        """Max |c(j,k,a) - conj(c(-j,-k,a))| over stored terms, a missing
        mirror counting as 0 (per entry, an array, for a batched series).
        The mirror of the term at ball indices (i, m, t) sits at (N_J - 1 -
        i, N_K - 1 - m, t), as in _conjugate."""
        plan = _plan(self.grading)
        slot = plan.code(self.ij, self.ik, self.it)
        mirror = plan.code(len(plan.J.keys) - 1 - self.ij,
                           plan.NK - 1 - self.ik, self.it)
        at = np.searchsorted(slot, mirror).clip(max=len(slot) - 1)
        found = slot[at] == mirror
        if self.coef.ndim == 2:
            found = found[:, None]
        d = self.coef - np.where(found, self.coef[at], 0.0).conj()
        # hypot, as abs() of one complex number computes it
        d = np.hypot(d.real, d.imag)
        return d.max(axis=0) if d.ndim == 2 else float(d.max(initial=0.0))

    def __repr__(self):
        return "FTSeries(%d terms, r=%g, s=%g, loss=%.3g)" % (
            len(self.coef), self.r, self.s, self.trunc_loss)


# -- coordinate layout -----------------------------------------------------------


def _sizes(gr):
    """The number of variables of each kind."""
    return {"phi": gr.l, "q": gr.d, "x": gr.l, "p": gr.d, "y": gr.l}


@functools.lru_cache(maxsize=None)
def coordinates(gr):
    """The coordinates (kind, i) that a map moves, in the order q, x, p, y.

    The ball variables x, p, y among them, in this order, are the positions
    of a Taylor exponent."""
    return tuple((kind, i) for kind in "qxpy" for i in range(_sizes(gr)[kind]))


@functools.lru_cache(maxsize=None)
def _positions(gr):
    """The exponent position of each ball variable (kind, i)."""
    return {v: pos for pos, v in enumerate(coordinates(gr)[gr.d:])}


def _exponent(gr, variables):
    """The Taylor exponent of the product of the ball variables."""
    alpha = [0] * gr.nz
    for v in variables:
        alpha[_positions(gr)[v]] += 1
    return tuple(alpha)


def monomial(gr, r, s, coeff, *variables):
    """coeff times the product of the ball variables (kind, i), at phi and q
    mode 0 (a variable listed twice enters squared)."""
    return FTSeries.term(gr, r, s, (0,) * gr.l, (0,) * gr.d,
                         _exponent(gr, variables), coeff)


def coordinate(gr, r, s, kind, i):
    """The ball variable (kind, i) as a series."""
    return monomial(gr, r, s, 1.0, (kind, i))


# -- operations ------------------------------------------------------------------


def _like(f, ij, ik, it, coef, trunc_loss):
    """A series on f's grading and radii from slot-ordered arrays."""
    new = object.__new__(FTSeries)
    new.grading, new.r, new.s, new.trunc_loss = f.grading, f.r, f.s, trunc_loss
    new._set(ij, ik, it, coef)
    return new


def _conjugate(f):
    """The series of the complex conjugate of f on the real domain: the term
    c at (j, k, a) moves to (-j, -k, a) as conj(c).  A mode ball is symmetric
    and in lexicographic order, so -v sits at index N - 1 - i for v at index
    i; the moved terms are sorted back into slot order."""
    plan = _plan(f.grading)
    ij, ik = len(plan.J.keys) - 1 - f.ij, plan.NK - 1 - f.ik
    order = np.argsort(plan.code(ij, ik, f.it), kind="stable")
    return _like(f, ij[order], ik[order], f.it[order], f.coef[order].conj(),
                 f.trunc_loss)


def _merge(gr, r, s, parts, trunc_loss, floor=PRUNE_FLOOR, signs=None):
    """The sum of parts, each a series or an (ij, ik, it, coef) tuple, as
    one pruned series: each part is added at its slots' positions in the
    sorted union of their slots, so a slot sums its terms in part order.
    signs holds each part's sign, 1 or -1 (all 1 by default): a part of
    sign -1 is subtracted.  The sum accumulates in place in one array; a
    lone part of sign 1 is handed through, its arrays shared with the
    caller, and copied only if the prune zeroes an entry."""
    plan = _plan(gr)
    parts = [(p if isinstance(p, tuple) else (p.ij, p.ik, p.it, p.coef), sign)
             for p, sign in zip(parts, itertools.repeat(1) if signs is None
                                else signs)]
    parts = [(p, sign) for p, sign in parts if len(p[3])]
    ij, ik, it, coef = _NONE, _NONE, _NONE, _EMPTY
    shared = False
    if len(parts) == 1:
        (ij, ik, it, coef), sign = parts[0]
        shared = sign > 0
        if not shared:
            coef = -coef
    elif parts:
        codes = [plan.code(*p[:3]) for p, _ in parts]
        slot = np.sort(np.concatenate(codes), kind="stable")
        slot = slot[np.concatenate(([True], slot[1:] != slot[:-1]))]
        width = max(p[3].shape[1] if p[3].ndim == 2 else 0 for p, _ in parts)
        coef = np.zeros((len(slot), width) if width else len(slot), complex)
        for n, (code, (p, sign)) in enumerate(zip(codes, parts)):
            # a scalar part of a batched sum broadcasts over the entries
            c = p[3] if p[3].ndim == coef.ndim else p[3][:, None]
            at = np.searchsorted(slot, code)
            if not n:
                coef[at] = c if sign > 0 else -c
            elif sign > 0:
                coef[at] += c
            else:
                coef[at] -= c
        ij, ik, it = plan.split(slot)
    new = FTSeries(gr, r, s, trunc_loss=trunc_loss)
    new._set(ij, ik, it, coef)
    new._prune(floor, shared)
    return new


# the value a pruned entry of a subtracted part takes: x - (-0 - 0j) is x +
# (0 + 0j) to the bit, signed zeros too, so the part subtracts as its
# negation, pruned to 0j, adds
_NEG_ZERO = complex(-0.0, -0.0)


def _prune_arrays(plan, ij, ik, it, coef, r, s, floor=PRUNE_FLOOR,
                  shared=False, zero=0j):
    """The prune floors on a series' arrays: an entry at or below
    max(floor, REL_PRUNE x its largest) is dropped (each entry of a batched
    series against its own floor, set to zero in a row that keeps others,
    once an entry with a nonzero modulus is dropped).  Returns (rows kept,
    coefficients, loss): the rows are None when no row is dropped, and the
    loss is the majorant of the dropped terms of an unbatched series (0.0
    for a batched one).  The coefficients are coef itself, its entries
    zeroed in place, unless coef is shared (an array that a series or the
    caller still reads), which is copied only if an entry is zeroed.  A NaN
    entry is never dropped."""
    mag = np.abs(coef)
    dead = mag <= np.maximum(floor, REL_PRUNE * mag.max(axis=0, initial=0.0))
    if not dead.any():
        return None, coef, 0.0
    lost = dead & (mag > 0.0)
    if coef.ndim == 2:
        if lost.any():
            if shared:
                coef = np.where(dead, zero, coef)
            else:
                coef[dead] = zero
        gone = dead.all(axis=1)
        return ~gone if gone.any() else None, coef, 0.0
    rows = np.flatnonzero(lost)
    loss = float((mag[rows] * plan.weight(ij[rows], ik[rows], it[rows], r, s))
                 .sum()) if len(rows) else 0.0
    return ~dead, coef, loss


class _Partial:
    """A first partial derivative ('phi'|'q'|'x'|'p'|'y', index) on ball
    indices, or the identity for var None.  d phi_i and d q_i are mode
    derivatives: a term gains the factor i j_i or i k_i.  d x_i, d p_i and
    d y_i are Taylor derivatives: a term gains its exponent a_pos at the
    variable's position pos (its axis) and loses e_pos (shift)."""

    def __init__(self, gr, var):
        self.name, self.axis, self.shift = None, None, ()
        if var is None:
            return
        name, i = var
        if not 0 <= i < _sizes(gr)[name]:
            raise IndexError("%s index out of range" % name)
        self.name = name
        self.axis = _positions(gr).get(var, i)
        if name not in ("phi", "q"):
            self.shift = (self.axis,)

    @property
    def on_modes(self):
        return self.name in ("phi", "q")

    def mode_factor(self, plan, ij, ik):
        """The factors of the modes (ij, ik), or None off the modes."""
        if not self.on_modes:
            return None
        return 1j * (plan.J.pts[ij, self.axis] if self.name == "phi"
                     else plan.K.pts[ik, self.axis])

    def taylor_factor(self, plan, it):
        """The factors of the Taylor indices it, or None off them."""
        return plan.T.pts[it, self.axis] if self.shift else None

    def factor(self, plan, ij, ik, it):
        """The factors of terms, or None for the identity."""
        return self.mode_factor(plan, ij, ik) if self.on_modes \
            else self.taylor_factor(plan, it)

    def magnitude(self, plan, ij, ik, it, s):
        """|factor| s^-|shift| of terms (for a derivative): the majorant
        weight e^{(|j|+|k|) r} s^|a| of a term times this is that of its
        derivative."""
        if self.on_modes:
            return np.abs(self.mode_factor(plan, ij, ik))
        return self.taylor_factor(plan, it) / s


_partial = functools.lru_cache(maxsize=None)(_Partial)
_UNIT = _Partial(None, None)


def multiply(f, g):
    """Coefficient-level product; out-of-grading terms are dropped into trunc_loss.

    Two kernels compute the same product (up to the order of the sums):

    - the pair kernel: every pair of terms finds its output slot in the
      grading's sum tables; pairs outside the grading add their majorant to
      trunc_loss (unless an operand is batched), the rest accumulate per
      slot;
    - the block kernel (``_block_product``): each operand is a dense block
      of its distinct (j, k) modes x its distinct Taylor indices; the
      Fourier convolution is one matrix product of the operand with fewer
      modes and the gathered rows of the other, and the Taylor pairs whose
      exponents sum inside the grading are then summed per output exponent;
      pairs past the grading are never formed, and their majorant is summed
      per pair of modes and per pair of degrees.

    The block kernel runs when both operands are unbatched, they have at
    least BLOCK_MIN_PAIRS pairs of terms and its gathered array holds no
    more entries than those pairs; small and batched products take the pair
    kernel.  Either way the prune floors act on the accumulated array.

    Neither kernel holds a temporary larger than BLOCK_TILE_BYTES, apart
    from its output: the block kernel takes the output modes in tiles, each
    gathering its own rows and forming its own part of the matrix product,
    with a column count that is a multiple of 4 so that the matrix product
    of a tile rounds each entry as the one-call product does; the batched
    pair kernel forms its products in chunks of whole slot runs, so each
    slot sums its pairs in the same order.  Every coefficient is the one
    the untiled kernels form, bit for bit."""
    f._check_compat(g)
    return _product(f, g, _layout(f, g))


def _layout(f, g):
    """The _block_layout of f and g if multiply's rule picks the block
    kernel for them, else None."""
    pairs = len(f.coef) * len(g.coef)
    if f.coef.ndim == g.coef.ndim == 1 and pairs >= BLOCK_MIN_PAIRS:
        layout = _block_layout(_plan(f.grading), f, g)
        if layout.gathered <= pairs:
            return layout
    return None


@functools.lru_cache(maxsize=None)
def _bracket_pairs(gr):
    """The 2 (d + l) derivative pairs (a, b) of the halves d_a f d_b g of a
    bracket {f, g}, in bracket order: (q_i, p_i), (p_i, q_i), then (x_i,
    y_i), (y_i, x_i); the halves alternate in sign, + first."""
    halves = []
    for n, m, count in (("q", "p", gr.d), ("x", "y", gr.l)):
        for i in range(count):
            a, b = _partial(gr, (n, i)), _partial(gr, (m, i))
            halves += [(a, b), (b, a)]
    return tuple(halves)


def _bracket_halves(f, g, losses=True):
    """The half-products of {f, g} as the kernel forms them, unpruned and
    without the operands' trunc_loss: for each pair of _bracket_pairs,
    (output slots, coefficients, majorant of the out-of-grading pairs, or
    None unless losses), from one kernel call on one layout of f and g,
    chosen by multiply's rule.  The coefficients do not carry the half's
    sign (_bracket_signs): the sum subtracts the halves of sign -1."""
    return _kernel(f, g, _bracket_pairs(f.grading), _layout(f, g), losses)


def _bracket_signs(gr):
    """The sign of each half of _bracket_pairs: 1, -1, 1, -1, ..."""
    return (1, -1) * (gr.d + gr.l)


def _bracket(f, g):
    """The Poisson bracket {f, g}: the sum over i of d_qi f d_pi g -
    d_pi f d_qi g and of d_xi f d_yi g - d_yi f d_xi g.

    Each half-product is the product multiply would return for its two
    derivatives: its out-of-grading majorant, the operands' trunc_loss
    carried through its scale and both prune floors.  No derivative is
    built: the factors scale the operands' arrays (pair kernel) or blocks
    (block kernel), and a half finds its output exponents in the sum table
    shifted by its Taylor derivatives (``_bracket_halves``).  The pruned
    halves are then summed as ft_sum sums them."""
    f._check_compat(g)
    gr = f.grading
    signs = _bracket_signs(gr)
    parts = _products(f, g, _bracket_pairs(gr), _bracket_halves(f, g), signs)
    return _merge(gr, f.r, f.s, [p[:4] for p in parts],
                  sum(p[4] for p in parts), signs=signs)


def _product(f, g, layout=None):
    """f g by the block kernel on a _block_layout of f and g, or by the pair
    kernel without one."""
    halves = [(_UNIT, _UNIT)]
    (ij, ik, it, coef, loss), = _products(f, g, halves,
                                          _kernel(f, g, halves, layout))
    return _like(f, ij, ik, it, coef, loss)


def _majorants(plan, f, ds):
    """The majorant norm of d f for each _Partial d in ds, in closed form
    (per entry, an array, for a batched f).  Each is kept on f for f's
    radii, read-only, until _set gives f new terms."""
    if f._maj is None or f._maj[0] != (f.r, f.s):
        f._maj = ((f.r, f.s), {})
    kept = f._maj[1]
    new = [d for d in ds if d not in kept]
    if new:
        w = plan.weight(f.ij, f.ik, f.it, f.r, f.s)
        for d in dict.fromkeys(new):
            m = _weighted(f.coef, w if d.name is None
                          else w * d.magnitude(plan, f.ij, f.ik, f.it, f.s))
            if isinstance(m, np.ndarray):
                m.flags.writeable = False
            kept[d] = m
    return [kept[d] for d in ds]


def _kernel(f, g, halves, layout, losses=True):
    """The products d_a f d_b g for the pairs (a, b) of _Partials in halves,
    as the kernel forms them: (output slots, coefficients, majorant of the
    out-of-grading pairs) each, by the block kernel on a _block_layout of f
    and g, or by the pair kernel without one.  Without losses no majorant of
    the out-of-grading pairs is formed: the entry is None (0.0 for a product
    with no pairs)."""
    if not len(f.coef) or not len(g.coef):
        return [(_NONE, _EMPTY, 0.0)] * len(halves)
    plan = _plan(f.grading)
    # losses goes by position, so a stand-in that forwards *args takes it
    return _pair_product(plan, f, g, halves, losses) if layout is None \
        else _block_product(plan, layout, halves, f.r, f.s, losses)


def _products(f, g, halves, parts, signs=None):
    """The kernel's parts of f and g for halves (``_kernel``), each as
    (ij, ik, it, coef, trunc_loss) of a series pruned against its own
    largest entries, with the operands' trunc_loss carried through its
    scale (a part of batched operands carries none: ``_prune_arrays``).
    Each part is pruned in the kernel's own array; the pruned entries of a
    part that _merge will subtract (sign -1 in signs) take _NEG_ZERO."""
    plan = _plan(f.grading)
    losses = [0.0] * len(halves)
    if f.trunc_loss or g.trunc_loss:
        # propagate the operands' own accumulated loss through each
        # product's scale
        mf = _majorants(plan, f, [a for a, _ in halves])
        mg = _majorants(plan, g, [b for _, b in halves])
        losses = [float(np.max(f.trunc_loss * y + g.trunc_loss * x
                               + f.trunc_loss * g.trunc_loss))
                  for x, y in zip(mf, mg)]
    out = []
    for (slot, acc, dropped), loss, sign in zip(
            parts, losses, itertools.repeat(1) if signs is None else signs):
        if not len(acc):
            out.append((_NONE, _NONE, _NONE, _EMPTY, loss + dropped))
            continue
        # each half is pruned against its own floors
        ij, ik, it = plan.split(slot)
        keep, acc, pruned = _prune_arrays(plan, ij, ik, it, acc, f.r, f.s,
                                          zero=_NEG_ZERO if sign < 0 else 0j)
        if keep is not None:
            ij, ik, it, acc = ij[keep], ik[keep], it[keep], acc[keep]
        out.append((ij, ik, it, acc, loss + dropped + pruned))
    return out


def _kept(plan, f, d):
    """The terms of d f as arrays (ij, ik, it, coef): the terms of f that
    the _Partial d keeps, times their factors, each exponent lowered by
    d's shift (in slot order, as differentiate returns them)."""
    factor = d.factor(plan, f.ij, f.ik, f.it)
    if factor is None:
        return f.ij, f.ik, f.it, f.coef
    r = np.flatnonzero(factor)
    coef = f.coef[r]
    coef *= factor[r, None] if coef.ndim == 2 else factor[r]
    # a -> a - e_pos keeps the slot order of the surviving terms
    it = f.it[r] if not d.shift else plan.lower[d.axis][f.it[r]]
    return f.ij[r], f.ik[r], it, coef


def _pair_product(plan, f, g, halves, losses=True):
    """The products d_a f d_b g over every pair of terms of d_a f and d_b g
    (``_kept``), for each (a, b) in halves: (output slots in order, their
    accumulated coefficients, majorant of the out-of-grading pairs, or None
    unless losses; 0.0 if an operand is batched).  A batched product sums
    its pairs per slot in slot order (``_run_sums``: in chunks of whole runs
    of at most BLOCK_TILE_BYTES of products once they exceed it); an
    unbatched one bins them."""
    js, ks, ts = plan.slots
    out = []
    for a, b in halves:
        fd, gd = (_kept(plan, u, d) for u, d in ((f, a), (g, b)))
        (fj, fk, ft, fc), (gj, gk, gt, gc) = fd, gd
        if not len(fc) or not len(gc):
            out.append((_NONE, _EMPTY, 0.0))
            continue
        slot = js[fj].take(gj, axis=1)
        slot += ks[fk].take(gk, axis=1)
        slot += ts[ft].take(gt, axis=1)
        outside = slot < 0
        batched = fc.ndim == 2 or gc.ndim == 2
        loss = None
        if losses:
            loss = _pair_loss(plan, f.r, f.s, fd, gd, outside) \
                if not batched and outside.any() else 0.0
        if batched:
            # the in-grading pairs in slot order; pairs sharing a slot are summed
            pairs = np.flatnonzero(~outside.ravel())
            pairs = pairs[np.argsort(slot.ravel()[pairs], kind="stable")]
            slot = slot.ravel()[pairs]
            first = _starts(slot)
            out.append((slot[first],
                        _run_sums(fc.reshape(len(fc), -1),
                                  gc.reshape(len(gc), -1),
                                  *np.divmod(pairs, len(gc)), first), loss))
        else:
            # out-of-grading pairs land in bin 0; only the hit slots go on
            coef = (fc[:, None] * gc).ravel()
            pos = slot.reshape(-1)
            np.maximum(pos, -1, out=pos)
            pos += 1
            re = np.bincount(pos, coef.real, minlength=1)
            im = np.bincount(pos, coef.imag, minlength=1)
            re[0] = im[0] = 0.0
            hit = np.flatnonzero((re != 0.0) | (im != 0.0))
            out.append((hit - 1, re[hit] + 1j * im[hit], loss))
    return out


def _run_sums(fc, gc, pf, pg, first):
    """The products fc[pf] gc[pg] of the pairs, 2-d coefficient arrays (an
    unbatched one has one column), summed over each run of pairs that
    starts at first: an (runs, B) array.  Products that exceed
    BLOCK_TILE_BYTES are formed in chunks of whole runs, each within the
    budget unless one run exceeds it (a product within it is one chunk), so
    each run sums its pairs in the same order as in one array; a chunk of
    one-pair runs is multiplied straight into its rows."""
    width = max(fc.shape[1], gc.shape[1])
    acc = np.empty((len(first), width), dtype=complex)
    ends = np.append(first[1:], len(pf))
    rows = max(BLOCK_TILE_BYTES // (width * 16), 1)
    r0 = 0
    while r0 < len(first):
        lo = first[r0]
        # the runs that end within the chunk's rows, or the first alone
        r1 = max(int(np.searchsorted(ends, lo + rows, side="right")), r0 + 1)
        hi = ends[r1 - 1]
        if hi - lo == r1 - r0:
            np.multiply(fc[pf[lo:hi]], gc[pg[lo:hi]], out=acc[r0:r1])
        else:
            np.add.reduceat(fc[pf[lo:hi]] * gc[pg[lo:hi]], first[r0:r1] - lo,
                            axis=0, out=acc[r0:r1])
        r0 = r1
    return acc


def _pair_loss(plan, r, s, fd, gd, outside):
    """The pair kernel's majorant of the out-of-grading pairs of the
    unbatched terms fd and gd (``_kept`` arrays): the sum over the pairs
    marked outside of |c_a| |c_b| e^{(|j|+|k|) r} s^deg."""
    (fj, fk, ft, fc), (gj, gk, gt, gc) = fd, gd
    J, K, T = plan.J, plan.K, plan.T
    exp_r, pow_s = plan.powers(r, s)
    w = exp_r[J.sums[1]][fj].take(gj, axis=1)
    w *= exp_r[K.sums[1]][fk].take(gk, axis=1)
    w *= outside
    mf = np.abs(fc)[:, None] * pow_s[T.norm[ft], None]
    mg = np.abs(gc)[:, None] * pow_s[T.norm[gt], None]
    return float((mf * (w @ mg)).sum(axis=0)[0])


def _starts(v):
    """The positions where the runs of equal values of a sorted array start."""
    new = np.empty(len(v), dtype=bool)
    new[:1] = True
    np.not_equal(v[1:], v[:-1], out=new[1:])
    return np.flatnonzero(new)


def _distinct(values, n):
    """The sorted distinct values of an int array over [0, n), and the
    index of each entry among them."""
    seen = np.zeros(n, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[values]


class _Block:
    """An unbatched series as a dense block: its distinct (j, k) modes in
    order x its distinct Taylor indices, plus one zero row.  The modes and
    Taylor indices are found at once, the dense block filled on first use."""

    def __init__(self, plan, f, r, s):
        mode = f.ij * plan.NK + f.ik    # nondecreasing: the terms are in slot order
        new = np.concatenate(([True], mode[1:] != mode[:-1]))
        self.row = np.cumsum(new) - 1
        self.ij, self.ik = f.ij[new], f.ik[new]
        self.taylor, self.col = _distinct(f.it, plan.NT)
        self._plan, self._f, self._radii = plan, f, (r, s)

    @functools.cached_property
    def dense(self):
        dense = np.zeros((len(self.ij) + 1, len(self.taylor)), dtype=complex)
        dense[self.row, self.col] = self._f.coef
        return dense

    def mags(self, ds):
        """For each _Partial d in ds, the sums of |c| s^|a| over the terms of
        d f (f this block's series) per mode and degree: an (len(ds), modes,
        D + 1) array, from one matrix product of |block| with the weights
        per Taylor index and degree."""
        plan = self._plan
        weights = np.stack([plan.degree_weights(d, *self._radii)[self.taylor]
                            for d in ds])
        out = np.abs(self.dense[:-1]) @ weights
        for n, d in enumerate(ds):
            if d.on_modes:
                out[n] *= np.abs(d.mode_factor(plan, self.ij, self.ik))[:, None]
        return out


@dataclass
class _BlockLayout:
    """The mode plan of a block product: the operand with fewer modes (c)
    is contracted over; for each output mode (oj, ok) and each mode of c,
    ``at`` names the row of the other operand (e) whose mode completes the
    sum (e's zero row if none does); ``inside`` marks the pairs of e's and
    c's modes whose sum lies in the grading; ``swap`` is set when e is the
    second operand."""

    e: _Block
    c: _Block
    oj: np.ndarray
    ok: np.ndarray
    at: np.ndarray
    inside: np.ndarray
    swap: bool

    @property
    def gathered(self):
        """The entries of the block kernel's gathered array: e's rows at
        ``at``, for every output mode.  The kernel rule compares it with the
        pairs of terms; the kernel itself gathers it one tile of output
        modes at a time, at most BLOCK_TILE_BYTES each (``_tile_modes``)."""
        return self.at.size * len(self.e.taylor)


def _block_layout(plan, f, g):
    """The _BlockLayout of nonempty unbatched f and g (no block filled)."""
    a, b = _Block(plan, f, f.r, f.s), _Block(plan, g, f.r, f.s)
    swap = len(b.ij) > len(a.ij)
    e, c = (b, a) if swap else (a, b)
    js = plan.J.sums[0][e.ij[:, None], c.ij]
    ks = plan.K.sums[0][e.ik[:, None], c.ik]
    inside = (js >= 0) & (ks >= 0)
    modes, o = _distinct(js[inside] * plan.NK + ks[inside],
                         len(plan.J.keys) * plan.NK)
    re, rc = np.nonzero(inside)
    at = np.full((len(modes), len(c.ij)), len(e.ij))
    at[o, rc] = re
    return _BlockLayout(e, c, *np.divmod(modes, plan.NK), at, inside, swap)


def _tile_modes(mode_bytes, cols):
    """The output modes of one tile of the block kernel: as many as keep a
    tile of mode_bytes per mode within BLOCK_TILE_BYTES, rounded down so
    that the tile's column count in the matrix product, modes x cols, is a
    multiple of 4 (and at least the smallest such count).  Every tile then
    starts at a column that is a multiple of 4, and each column of a tile's
    product equals the column of the one-call product bit for bit (measured
    with OpenBLAS 0.3.31's Haswell zgemm; at other column counts its column
    edge moved coefficients by about 2e-14)."""
    step = 4 // math.gcd(cols, 4)
    return max(BLOCK_TILE_BYTES // (mode_bytes * step), 1) * step


def _block_product(plan, layout, halves, r, s, losses=True):
    """The block kernel on a _block_layout, for each (a, b) in halves:
    (output slots in order, the coefficients of d_a f d_b g, some of them
    zero, majorant of the out-of-grading pairs, or None unless losses).
    Halves whose mode derivatives agree share one matrix product; Taylor
    factors scale its entries as they are summed.

    The output modes (rows of the layout's at) are taken in tiles of
    ``_tile_modes``: each tile gathers its own rows of e, forms its own
    part of the product and sums its own Taylor pairs, so neither the
    gathered array nor the product exceeds BLOCK_TILE_BYTES (unless one
    step of 4 columns does).  An output mode's sums read only its own
    column of the product, so every coefficient is the one a call with one
    tile forms; a call that fits in one tile makes one gather and one
    matrix product per group."""
    e, c, at = layout.e, layout.c, layout.at
    sides = [(b, a) if layout.swap else (a, b) for a, b in halves]  # (on e, on c)
    products, combos = {}, {}
    for n, (de, dc) in enumerate(sides):
        products.setdefault((de if de.on_modes else None,
                             dc if dc.on_modes else None), []).append(n)
    o_slot = plan.code(layout.oj, layout.ok, 0)
    out, taylor = [None] * len(halves), [None] * len(halves)
    for n, (de, dc) in enumerate(sides):
        # Taylor combination: the pairs (q, p) whose exponents sum inside
        # the ball after the shift, in order of the output exponent t;
        # the others are never read
        shift = tuple(sorted(de.shift + dc.shift))
        if shift not in combos:
            ts = plan.taylor_sums(shift)[c.taylor[:, None], e.taylor]
            q, p = np.nonzero(ts >= 0)
            order = np.argsort(ts[q, p], kind="stable")
            combos[shift] = q[order], p[order], ts[q[order], p[order]]
        q, p, t = combos[shift]
        tc, te = dc.taylor_factor(plan, c.taylor), de.taylor_factor(plan, e.taylor)
        factor = (1 if tc is None else tc[q]) * (1 if te is None else te[p])
        if np.ndim(factor):
            live = factor != 0
            q, p, t, factor = q[live], p[live], t[live], factor[live]
        first = _starts(t)
        taylor[n] = q, p, factor if np.ndim(factor) else None, first
        out[n] = ((o_slot[:, None] + t[first]).ravel(),
                  np.empty((len(at), len(first)), dtype=complex))
    # per group, e's rows and c's block times their mode factors; the
    # groups without a mode factor on e come first and share e's rows
    groups = []
    for (me, mc), members in sorted(products.items(),
                                    key=lambda item: item[0][0] is not None):
        rows = e.dense if me is None else e.dense * np.append(
            me.mode_factor(plan, e.ij, e.ik), 0.0)[:, None]
        cd = c.dense[:-1]
        if mc is not None:
            cd = cd * mc.mode_factor(plan, c.ij, c.ik)[:, None]
        groups.append((rows, cd, members))
    width = _tile_modes(16 * len(e.taylor) * max(len(c.ij), len(c.taylor)),
                        len(e.taylor))
    for lo in range(0, len(at), width):
        tile, src, ed = at[lo:lo + width].T, None, None
        for rows, cd, members in groups:
            if rows is not src:
                # one gathered tile is alive at a time: shared by the groups
                # on e's plain rows, dropped before a scaled one is gathered
                ed = None
                src, ed = rows, rows[tile]
            # Fourier convolution, one matrix product: P[q, o, p] = sum over
            # c's modes m of c[m, q] e[at[o, m], p], each times its mode factor
            P = (cd.T @ ed.reshape(len(c.ij), -1)).reshape(
                len(c.taylor), -1, len(e.taylor))
            for n in members:
                q, p, factor, first = taylor[n]
                terms = P[q, :, p]
                if factor is not None:
                    terms *= factor[:, None]
                # output modes are independent columns of the sums
                np.add.reduceat(terms, first, axis=0,
                                out=out[n][1][lo:lo + width].T)
            del P
    loss = _block_loss(plan, layout, sides, r, s) if losses \
        else [None] * len(out)
    return [(slot, acc.ravel(), x) for (slot, acc), x in zip(out, loss)]


def _block_loss(plan, layout, sides, r, s):
    """The block kernel's majorant of the out-of-grading pairs for each
    (d_e, d_c) in sides, the derivatives on the layout's e and c, from sums
    per mode and degree: pairs of modes outside the ball, then pairs inside
    it whose degrees pass D."""
    e, c, inside = layout.e, layout.c, layout.inside
    em, cm = e.mags([de for de, _ in sides]), c.mags([dc for _, dc in sides])
    w = plan.powers(r, s)[0][plan.J.sums[1][e.ij[:, None], c.ij]
                             + plan.K.sums[1][e.ik[:, None], c.ik]]
    # past[h, m, d]: c's magnitude at mode m over degrees above D - d
    past = np.cumsum(cm[:, :, :0:-1], axis=2)
    past = np.concatenate((np.zeros(past.shape[:2] + (1,)), past), axis=2)
    loss = ((em.sum(axis=2) @ np.where(inside, 0.0, w)) * cm.sum(axis=2)).sum(axis=1) \
        + (em * (np.where(inside, w, 0.0) @ past)).sum(axis=(1, 2))
    return [float(x) for x in loss]


def ft_sum(grading, r, s, parts):
    """Sum many series in one merge (avoids quadratic re-copying)."""
    return _merge(grading, r, s, parts, sum(p.trunc_loss for p in parts))


def differentiate(f, var):
    """Exact term-wise derivative.  var is ('phi'|'q'|'x'|'p'|'y', index)."""
    return _like(f, *_kept(_plan(f.grading), f, _partial(f.grading, tuple(var))),
                 f.trunc_loss)


def degrees(f):
    """The l1 degrees |j|, |k| and |a| of f's terms, as arrays in slot order."""
    plan = _plan(f.grading)
    return plan.J.norm[f.ij], plan.K.norm[f.ik], plan.T.norm[f.it]


def select(f, keep):
    """The terms of f where keep, a mask over them in slot order, holds."""
    return _like(f, f.ij[keep], f.ik[keep], f.it[keep], f.coef[keep],
                 f.trunc_loss)


def restrict_z0(f):
    """Drop every term with a nonzero Taylor exponent (evaluation at z = 0)."""
    return select(f, degrees(f)[2] == 0)


def average_q(f):
    """Retain the k = 0 angle modes (the q-average M_q f)."""
    return select(f, degrees(f)[1] == 0)


def partial_omega(f, omega):
    """Directional angle derivative <omega, d_q f>: each mode gains i<omega,k>."""
    dot = _plan(f.grading).K.pts[f.ik] @ np.asarray(omega, dtype=float)
    live = dot != 0.0
    factor = 1j * dot[live]
    coef = f.coef[live] * (factor[:, None] if f.coef.ndim == 2 else factor)
    return _like(f, f.ij[live], f.ik[live], f.it[live], coef, f.trunc_loss)


def divide_q_modes(f, divisor):
    """Each term with q-mode k != 0 divided by i divisor(k) (called once per
    mode): partial_omega's inverse on zero-mean series for divisor <omega, k>.
    Each part is divided exactly, as Python divides by a pure imaginary."""
    K = _plan(f.grading).K
    f = select(f, K.norm[f.ik] > 0)
    modes, at = np.unique(f.ik, return_inverse=True)
    dot = np.array([divisor(K.keys[m]) for m in modes.tolist()])[at]
    u, c = np.empty_like(f.coef), f.coef.T  # transposed: the terms last
    u.T.real, u.T.imag = c.imag / dot, -c.real / dot
    return _like(f, f.ij, f.ik, f.it, u, f.trunc_loss)


def truncate_fourier(f, K, sigma):
    """Drop q-modes with |k|_1 > K; certify the tail at radius r - sigma.

    Returns (truncated series, tail_bound) where the bound is the majorant
    norm of the dropped part re-tagged to radii (r - sigma, s); it dominates
    the sup of the discarded tail on the shrunk strip.
    """
    if not 0 < sigma < f.r:
        raise ValueError("need 0 < sigma < r")
    drop = degrees(f)[1] > K
    return select(f, ~drop), majorant_norm(
        select(f, drop).with_radii(f.r - sigma, f.s))


def _weighted(coef, w):
    """sum |c| w over the terms (per entry, an array, when batched)."""
    if coef.ndim == 2:
        return (np.abs(coef) * w[:, None]).sum(axis=0)
    return float(np.sum(np.abs(coef) * w))


def majorant_norm(f):
    """sum |c| e^{(|j|+|k|) r} s^{|a|} on f's radii (r, s); dominates sup |f|
    on the (r, s) strip.

    Per entry (a read-only array) for a batched series."""
    return _majorants(_plan(f.grading), f, [_UNIT])[0]


FTSeries.majorant_norm = majorant_norm


def _truncated_product(F):
    """Per row, sum over n (|n| <= order) of prod_v F[:, v, n_v], with
    order = F.shape[2] - 1: the coefficients of t^0 ... t^order in
    prod_v sum_e F[:, v, e] t^e, summed."""
    poly = F[:, 0]
    for v in range(1, F.shape[1]):
        poly = np.stack([sum(poly[:, o - e] * F[:, v, e] for e in range(o + 1))
                         for o in range(F.shape[2])], axis=1)
    return poly.sum(axis=1)


def ck_norm_estimate(f, k1, k2):
    """Upper bound on the C^{k1,k2} norm (k1 in phi, k2 in (q,x,p,y)).

    Sums the majorant norms on f's radii (r, s) of all partial derivatives up
    to the given orders, in closed form: the derivative by multi-indices m
    (phi) and n (q, z) scales a term's majorant by prod |j_i|^m_i prod
    |k_i|^n_i prod a_p^(n_p) s^-n_p, a^(n) the falling factorial a (a - 1)
    ... (a - n + 1).  At s = 0 a derivative in (q, x, p, y) has no such
    bound, so k2 >= 1 is refused there.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("derivative orders must be >= 0")
    plan, s = _plan(f.grading), f.s
    if k2 and s == 0:
        raise ValueError("ck_norm_estimate: no C^k bound with k2 = %d >= 1 "
                         "at s = 0" % k2)
    a = plan.T.pts[f.it, :, None] - np.arange(k2)
    falling = np.cumprod(np.concatenate([np.ones(a.shape[:2] + (1,)), a / s],
                                        axis=2), axis=2)
    phi = _truncated_product(np.abs(plan.J.pts[f.ij, :, None]) ** np.arange(k1 + 1))
    z = _truncated_product(np.concatenate(
        [np.abs(plan.K.pts[f.ik, :, None]) ** np.arange(k2 + 1), falling], axis=1))
    return _weighted(f.coef, phi * z * plan.weight(f.ij, f.ik, f.it, f.r, s))


def evaluate(f, phi=None, q=None, x=None, p=None, y=None):
    """Numerically evaluate the finite sum at real points (defaults: zero).

    Each argument's last axis holds its variables (a scalar is one variable);
    leading axes index points and broadcast against each other.  One point
    gives a float, several an array of the points' shape."""
    values = evaluate_all([f], phi, q, x, p, y)[..., 0]
    return values if values.ndim else float(values)


def evaluate_all(fs, phi=None, q=None, x=None, p=None, y=None):
    """The series fs, all of one grading, evaluated as evaluate does, at the
    same points: an array of the points' shape + (len(fs),).  The phases
    e^{i (j.phi + k.q)} are computed once, over the union of the series'
    modes, and the monomials once over the union of their exponents."""
    g = fs[0].grading
    if any(f.grading != g for f in fs):
        raise GradingError("grading mismatch")
    args = [np.zeros(n) if v is None else
            np.asarray(v, dtype=float).reshape(np.shape(v)[:-1] + (n,))
            for v, n in zip((phi, q, x, p, y), (g.l, g.d, g.l, g.d, g.l))]
    shape = np.broadcast_shapes(*(v.shape[:-1] for v in args))
    phi, q, x, p, y = (np.broadcast_to(v, shape + v.shape[-1:])
                       .reshape(-1, v.shape[-1]) for v in args)
    totals = np.zeros((len(phi), len(fs)), dtype=complex)
    plan = _plan(g)
    # sum_{mode, monomial} e^{i mode} C[mode, monomial] z^monomial over the
    # modes and monomials each series uses
    modes, mode_at = np.unique(np.concatenate([f.ij * plan.NK + f.ik for f in fs]),
                               return_inverse=True)
    monos, mono_at = np.unique(np.concatenate([f.it for f in fs]),
                               return_inverse=True)
    phase = np.exp(1j * (phi @ plan.J.pts[modes // plan.NK].T
                         + q @ plan.K.pts[modes % plan.NK].T))
    z = np.concatenate([x, p, y], axis=1)
    zpow = np.prod(z[:, None, :] ** plan.T.pts[monos], axis=2)
    bound = np.concatenate(([0], np.cumsum([len(f.coef) for f in fs])))
    for n, (f, lo, hi) in enumerate(zip(fs, bound[:-1], bound[1:])):
        if not len(f.coef):
            continue
        fm, im = np.unique(mode_at[lo:hi], return_inverse=True)
        ft, it = np.unique(mono_at[lo:hi], return_inverse=True)
        C = np.zeros((len(fm), len(ft)), dtype=complex)
        C[im, it] = f.coef
        totals[:, n] = ((phase[:, fm] @ C) * zpow[:, ft]).sum(axis=1)
        residue = float(np.abs(totals[:, n].imag).max())
        if residue > 1e-12 * max(majorant_norm(f), 1e-300):
            raise RealityError("imaginary residue %.3g exceeds tolerance "
                               "(series not real?)" % residue)
    return totals.real.reshape(shape + (len(fs),))


# -- parameter modes --------------------------------------------------------------


def _mode_sums(plan, ij, row, coef, n, grid):
    """The terms' c e^{i j.phi} summed into n rows at every point of grid, a
    (B, l) array: an (n, B) complex array.  The terms come sorted by j, a row
    at most once per j; the modes are taken one at a time in ascending
    order."""
    # -0 + x = x for every x, signed zeros too: a sum starts from its first term
    sums = np.full((n, len(grid)), complex(-0.0, -0.0))
    first = np.flatnonzero(np.diff(ij, prepend=-1)).tolist()
    for lo, hi in zip(first, first[1:] + [len(ij)]):
        phase = np.exp(1j * (grid @ plan.J.pts[ij[lo]].astype(float)))
        # (n, 1) x (1, B): numpy multiplies each term as it multiplies a
        # scalar and an array (a (1, 1) x (1,) product rounds otherwise)
        sums[row[lo:hi]] += coef[lo:hi, None] * phase[None, :]
    return sums


def _phi_sums(f, grid):
    """The parameter modes of an unbatched f summed at every point of grid:
    (the (k, a) codes k NT + t of f's distinct slots in order, their (n, B)
    sums)."""
    plan = _plan(f.grading)
    codes, row = _distinct(f.ik * plan.NT + f.it, plan.NK * plan.NT)
    # the terms are in slot order: sorted by j
    return codes, _mode_sums(plan, f.ij, row, f.coef, len(codes), grid)


def _phi_values(fs, grid):
    """The values of unbatched phi-only series at every point of grid: an
    (len(fs), B) complex array; each phase e^{i j.phi} is computed once.
    Raises ValueError if a series has a q-mode or a Taylor term."""
    plan = _plan(fs[0].grading)
    if any(plan.K.norm[f.ik].any() or plan.T.norm[f.it].any() for f in fs):
        raise ValueError("series is not phi-only")
    ij = np.concatenate([f.ij for f in fs])
    which = np.repeat(np.arange(len(fs)), [len(f.ij) for f in fs])
    order = np.argsort(ij, kind="stable")
    sums = _mode_sums(plan, ij[order], which[order],
                      np.concatenate([f.coef for f in fs])[order], len(fs), grid)
    # 0 + the sum: an exact zero comes out +0, as from a sum started at zero
    return sums + 0.0


def freeze_phi(f, phi):
    """Collapse the parameter modes at a numeric phi (result carries j = 0).

    With a (B, l) array of parameter values the result is batched: every
    coefficient holds its value at each of the B points."""
    phi = np.asarray(phi, dtype=float)
    codes, sums = _phi_sums(f, phi.reshape(-1, f.grading.l))
    plan = _plan(f.grading)
    ik, it = np.divmod(codes, plan.NT)
    ij = np.full(len(codes), plan.J.index[(0,) * f.grading.l])
    new = _like(f, ij, ik, it, sums[:, 0] if phi.ndim == 1 else sums, 0.0)
    new._prune()
    return new


# -- degree split -----------------------------------------------------------------


@dataclass
class TaylorSplit:
    """Exact partition of a series by Taylor degree 0 / 1 / 2 / >=3.

    The quadratic part is stored as symmetric blocks in the 1/2 <d z, z>
    convention (a diagonal monomial c*x_i^2 contributes d_xx[i][i] = 2c).
    """

    a: FTSeries = None
    b_x: list = None
    b_p: list = None
    b_y: list = None
    d_xx: list = None
    d_pp: list = None
    d_yy: list = None
    d_xy: list = None
    d_px: list = None
    d_py: list = None
    remainder: FTSeries = None

    def reassemble(self):
        """Inverse of taylor_split: a + b.z + 1/2 <d z, z> + remainder, with
        every entry (i, j) of a symmetric block at weight 1/2 (so an
        asymmetric block counts as its symmetric part), coefficient-exact;
        a block left None is zero.  Each entry's trunc_loss is carried times
        its monomial's majorant, weight x s^|exponent|, and a's and the
        remainder's as they are."""
        some = next(v for v in vars(self).values() if v is not None)
        while isinstance(some, list):
            some = some[0]
        g = some.grading
        index, pow_s = _plan(g).T.index, _plan(g).powers(some.r, some.s)[1]
        parts = [] if self.a is None else [self.a]
        loss = 0.0 if self.a is None else self.a.trunc_loss
        for field, i, jj, alpha, weight in _split_plan(g)[0]:
            block = getattr(self, field)
            if block is not None:
                e = block[i][jj] if field[0] == "d" else block[i]
                parts.append((e.ij, e.ik, np.full(len(e.it), index[alpha]),
                              e.coef * weight))
                if e.trunc_loss:
                    loss += e.trunc_loss * (weight * pow_s[sum(alpha)])
        if self.remainder is not None:
            parts.append(self.remainder)
            loss += self.remainder.trunc_loss
        return _merge(g, some.r, some.s, parts, loss, 0.0)


@functools.lru_cache(maxsize=None)
def _split_plan(g):
    """The TaylorSplit entries of degrees 1 and 2 in reassembly order, as
    (field, i, j, exponent, weight): the entry times weight is its share of
    the coefficient of that exponent; and for each exponent of degree <= 2
    the entries (field, i, j, factor) taylor_split fills from it, each with
    factor x the coefficient, so that the shares add up to it."""
    dims = _sizes(g)
    alpha = lambda *variables: _exponent(g, variables)
    entries = [("b_" + n, i, 0, alpha((n, i)), 1.0)
               for n, i in coordinates(g)[g.d:]]
    # symmetric blocks: 1/2 <d z, z> = sum_{i,j} d[i][j]/2 z_i z_j
    entries += [("d_" + 2 * n, i, jj, alpha((n, i), (n, jj)), 0.5)
                for n in "xpy" for i in range(dims[n]) for jj in range(dims[n])]
    # cross blocks carry the full monomial coefficient once
    entries += [("d_xy", i, jj, alpha(("x", i), ("y", jj)), 1.0)
                for i in range(g.l) for jj in range(g.l)]
    entries += [("d_p" + n, i, jj, alpha(("p", i), (n, jj)), 1.0)
                for i in range(g.d) for jj in range(g.l) for n in "xy"]
    shares = {}
    for *_, a, weight in entries:
        shares[a] = shares.get(a, 0.0) + weight
    fills = {(0,) * g.nz: [("a", 0, 0, 1.0)]}
    for field, i, jj, a, weight in entries:
        fills.setdefault(a, []).append((field, i, jj, 1.0 / shares[a]))
    return entries, fills


def taylor_split(f):
    g = f.grading
    T = _plan(g).T
    fills = _split_plan(g)[1]
    parts = {}   # parts[(field, i, j)]: the series of one entry
    low = T.norm[f.it] <= 2   # exactly the exponents fills covers
    for t in np.flatnonzero(np.bincount(f.it[low])).tolist():
        at = np.flatnonzero(f.it == t)
        for field, i, jj, factor in fills[T.keys[t]]:
            coef = f.coef[at] if factor == 1.0 else factor * f.coef[at]
            parts[(field, i, jj)] = _like(f, f.ij[at], f.ik[at],
                                          np.zeros_like(at), coef, 0.0)
    new = lambda field, i=0, jj=0: parts.get((field, i, jj)) \
        or _like(f, _NONE, _NONE, _NONE, _EMPTY, 0.0)
    dims = _sizes(g)
    # the remainder carries f's loss, so reassembly keeps it
    blocks = {"a": new("a"), "remainder": select(f, ~low)}
    blocks.update(("b_" + n, [new("b_" + n, i) for i in range(dims[n])]) for n in "xpy")
    for m, n in ("xx", "pp", "yy", "xy", "px", "py"):
        blocks["d_" + m + n] = [[new("d_" + m + n, i, jj) for jj in range(dims[n])]
                                for i in range(dims[m])]
    for series in ([blocks["a"], blocks["remainder"]] + blocks["b_x"]
                   + blocks["b_p"] + blocks["b_y"]):
        series._prune(0.0)
    return TaylorSplit(**blocks)


# -- serialization ----------------------------------------------------------------


def to_json_dict(f):
    terms = [{"j": list(j), "k": list(k), "alpha": list(a), "re": c.real,
              "im": c.imag} for (j, k, a), c in f.terms.items()]
    return {"grading": asdict(f.grading), "radii": [f.r, f.s],
            "terms": terms}


def from_json_dict(data):
    g, radii = Grading(**data["grading"]), data["radii"]
    return FTSeries(g, radii[0], radii[1],
                    {(tuple(t["j"]), tuple(t["k"]), tuple(t["alpha"])):
                     complex(t["re"], t["im"]) for t in data["terms"]}, _raw=True)
