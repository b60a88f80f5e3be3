"""Poisson brackets, Hamiltonian vector fields, Lie-series time-1 flows of
generators with the affine <v,q> term, near-identity map composition by Lie
transport, and the integer/shear coordinate reductions that bring a resonant
problem to the parametrized model form."""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .series import (FTSeries, TaylorSplit, _bracket, _bracket_halves,
                     _bracket_pairs, _bracket_signs, _conjugate, _kept, _l1,
                     _majorants, _partial, _plan, coordinate, coordinates,
                     differentiate, ft_sum, majorant_norm, multiply,
                     restrict_z0)

DEFAULT_ORDER_CAP = 12
DEFAULT_SYMP_TOL = 1e-8
EXP_TOL = 1e-18          # an exponential's terms are summed down to this
EXP_ORDER_CAP = 59       # so an exponential may end at its 60th term


class GeneratorTooLargeError(ConvergenceError):
    pass


class SymplecticityError(ConvergenceError):
    pass


class ReductionError(PreconditionError):
    pass


# -- brackets and fields -----------------------------------------------------------


def poisson_bracket(g, h):
    """{g, h} over both symplectic pairs (q, p) and (x, y), as one call of
    the series kernel over its 2 (d + l) derivative products."""
    return _bracket(g, h)


def vector_field(H):
    """(qdot, xdot, pdot, ydot) = (d_p H, d_y H, -d_q H, -d_x H), by kind in
    the order of series.coordinates."""
    field = {}
    for kind, i in coordinates(H.grading):
        field.setdefault(kind, []).append(_base_bracket_with(kind, i, H))
    return tuple(field.values())


@dataclass
class GeneratingFunction:
    """Pair (F, v) defining the affine-Hamiltonian time-1 map of F + <v, q>.

    v is a list of d phi-only series."""

    F: FTSeries
    v: list

    @property
    def grading(self):
        return self.F.grading

    def bracket_with(self, g):
        """{g, F + v.q} = {g, F} - sum_i v_i d_{p_i} g."""
        out = poisson_bracket(g, self.F)
        for i in range(self.grading.d):
            if not self.v[i].is_zero():
                out = out - multiply(self.v[i], differentiate(g, ("p", i)))
        return out

    def bracket_bound(self, g):
        """A closed-form bound on the majorant of bracket_with(g), before it
        is formed: the majorant is submultiplicative, so each half d_a g d_b F
        is at most |d_a g| |d_b F| and each v_i d_{p_i} g at most |v_i|
        |d_{p_i} g|.  It bounds the whole product, the pairs the kernel drops
        past the grading included (per entry, an array, for a batched g)."""
        ds, factors = self._bound_factors
        return sum(x * y for x, y in
                   zip(_majorants(_plan(self.grading), g, ds), factors))

    @functools.cached_property
    def _bound_factors(self):
        """The derivatives of g in the terms of bracket_with(g) and the
        majorants of their other factors: (a, |d_b F|) for each bracket half
        d_a g d_b F, then (p_i, |v_i|)."""
        gr = self.grading
        pairs = _bracket_pairs(gr)
        ds = [a for a, _ in pairs]
        ds += [_partial(gr, ("p", i)) for i in range(gr.d)]
        factors = _majorants(_plan(gr), self.F, [b for _, b in pairs])
        factors += [majorant_norm(vi) for vi in self.v]
        return ds, factors

    def scale_estimate(self):
        return majorant_norm(self.F) + sum(majorant_norm(vi) for vi in self.v)

    def with_radii(self, r, s):
        return GeneratingFunction(self.F.with_radii(r, s),
                                  [vi.with_radii(r, s) for vi in self.v])


def _power_sum(total, term, step, bound, tol, cap, what, weight=None,
               decay=True):
    """total plus the terms t_n, n = 1, 2, ..., each times weight(n) if
    given, where t_1 = term and t_n = step(t_{n-1}) / n, through the first
    term certified to be at most tol: formed, by its majorant, or bounded
    before it is formed, by bound(t_n) / (n + 1) with bound(t) at least the
    majorant of step(t).

    Returns (sum, 2 |weight(n)| x the majorant or bound of that last term,
    its order n); a bounded term is left out of the sum.  Raises
    GeneratorTooLargeError if no term of order <= cap + 1 gets that small
    or, with decay, once a term past the second exceeds half the one before
    it."""
    n, prev = 1, math.inf
    size = lambda n: 1.0 if weight is None else abs(weight(n))
    while True:
        m = majorant_norm(term)
        part = term if weight is None else term.scale(weight(n))
        if m <= tol:
            return total + part, 2.0 * m * size(n), n
        if n > cap:
            raise GeneratorTooLargeError(
                "%s not converged at order cap %d (last term %.3g)"
                % (what, cap, m))
        if decay and n > 2 and m > 0.5 * prev:
            raise GeneratorTooLargeError(
                "%s terms stopped decaying at order %d (%.3g -> %.3g); "
                "generator too large for the working radii" % (what, n, prev, m))
        total = total + part
        prev = m
        n += 1
        b = bound(term) / n
        if b <= tol:
            return total, 2.0 * b * size(n), n
        term = step(term).scale(1.0 / n)


def lie_transform(g, gen, order_cap=DEFAULT_ORDER_CAP, tol=None, first_term=None):
    """g composed with the time-1 flow of the generator, as an iterated-bracket sum.

    Stops at the first term whose majorant falls below tol (default
    1e-14 x majorant of g); enforces decay (each term below half the previous
    one once n >= 2).  Returns (series, remainder_bound, order reached).
    """
    if tol is None:
        tol = 1e-14 * max(majorant_norm(g), 1e-300)
    first = gen.bracket_with(g) if first_term is None else first_term
    return _power_sum(g, first, gen.bracket_with, gen.bracket_bound, tol,
                      order_cap, "lie series")


def lie_tail_integral(u, gen, weight):
    """sum_n w_n u_n for the Lie terms u_n of u (u_0 = u, u_n = {u_{n-1}, gen}/n).

    weight(n) supplies w_n; used for the time-integral remainders of one step:
    int_0^1 (1-t) u o Psi^t dt has w_n = 1/((n+1)(n+2)) and
    int_0^1  t    u o Psi^t dt has w_n = 1/(n+2).
    The sum stops at the rounding floor: at the first Lie term u_n certified
    to be at most the unit roundoff 2^-53 times the majorant of u_0.  The
    weights above fall with n, so w_n u_n is then as small against w_0 u_0.
    Returns (series, remainder_bound, order reached).
    """
    return _power_sum(u.scale(weight(0)), gen.bracket_with(u),
                      gen.bracket_with, gen.bracket_bound,
                      2.0 ** -53 * majorant_norm(u), DEFAULT_ORDER_CAP,
                      "lie tail integral", weight)


# -- symplectic maps ---------------------------------------------------------------


@dataclass
class SymplecticMapSeries:
    """Near-identity map stored as the displacement of each coordinate.

    U holds the displacements in the order of series.coordinates (q, x, p,
    y): Phi(phi, q, x, p, y) = (q + Uq, x + Ux, p + Up, y + Uy); the
    parameter phi is never moved.  A map built as the time-1 flow of a
    generating function keeps it in `generator`; composition needs it on the
    inner map."""

    U: list
    remainder: float = 0.0
    symp_residual: float = None
    generator: GeneratingFunction = None

    @property
    def grading(self):
        return self.U[0].grading

    @property
    def radii(self):
        return (self.U[0].r, self.U[0].s)

    def _kind(self, kind):
        return [u for (k, _), u in zip(coordinates(self.grading), self.U)
                if k == kind]

    Uq = property(lambda self: self._kind("q"))
    Ux = property(lambda self: self._kind("x"))
    Up = property(lambda self: self._kind("p"))
    Uy = property(lambda self: self._kind("y"))

    def components(self):
        return list(self.U)

    def is_identity(self):
        return all(u.is_zero() for u in self.components())

    def displacement_majorant(self):
        return max(majorant_norm(u) for u in self.components())

    def with_radii(self, r, s):
        gen = None if self.generator is None else self.generator.with_radii(r, s)
        return SymplecticMapSeries([u.with_radii(r, s) for u in self.U],
                                   self.remainder, self.symp_residual, gen)


def identity_map(grading, r, s):
    return SymplecticMapSeries([FTSeries.zero(grading, r, s)
                                for _ in coordinates(grading)], 0.0, 0.0)


# {base coordinate, u} = sign d_var u: (sign, var) by the base's kind
_CONJUGATE = {"q": (1.0, "p"), "x": (1.0, "y"), "p": (-1.0, "q"),
              "y": (-1.0, "x")}


def _base_bracket_with(kind, i, u):
    """{base coordinate, u} for base in {q_i, x_i, p_i, y_i}."""
    sign, var = _CONJUGATE[kind]
    d = differentiate(u, (var, i))
    return d if sign > 0 else -d


def _relation_defects(Phi):
    """The majorant defect of each canonical bracket relation of the map, by
    pair of components (a, b), a < b, in the order of
    SymplecticMapSeries.components.

    {base_a + U_a, base_b + U_b} = {base_a, base_b} + {base_a, U_b} - {base_b,
    U_a} + {U_a, U_b}: the canonical constant comes from the bases alone, so
    the defect is the majorant of the other three terms' sum.  Their parts
    (the two derivatives of the displacements, then the half-products of
    {U_a, U_b} as the kernel forms them, each holding a slot at most once)
    are added in that order onto one dense table of the grading's slots
    (a half of sign -1 is subtracted), unpruned, and the sum's majorant is
    taken over the touched slots in slot order on the map's radii.  The
    pairs of terms past the grading touch no slot: the kernel forms no
    majorant of them."""
    gr = Phi.grading
    plan = _plan(gr)
    r, s = Phi.radii
    comps = Phi.U
    bases = [(sign, _partial(gr, (var, i))) for kind, i in coordinates(gr)
             for sign, var in [_CONJUGATE[kind]]]
    acc = np.zeros(len(plan.J.keys) * plan.NK * plan.NT, dtype=complex)
    touched = np.zeros(len(acc), dtype=bool)
    out = {}
    for a, b in itertools.combinations(range(len(comps)), 2):
        (sa, da), (sb, db) = bases[a], bases[b]
        parts = [(plan.code(*t[:3]), sign * t[3], 1) for sign, t in
                 ((sa, _kept(plan, comps[b], da)),
                  (-sb, _kept(plan, comps[a], db)))]
        parts += [(slot, coef, sign) for (slot, coef, _), sign in
                  zip(_bracket_halves(comps[a], comps[b], losses=False),
                      _bracket_signs(gr))]
        for slot, coef, sign in parts:
            if sign > 0:
                acc[slot] += coef
            else:
                acc[slot] -= coef
            touched[slot] = True
        slots = np.flatnonzero(touched)
        out[a, b] = float(np.abs(acc[slots])
                          @ plan.weight(*plan.split(slots), r, s))
        acc[slots] = 0.0
        touched[slots] = False
    return out


def symplecticity_residual(Phi):
    """Max majorant defect of the canonical bracket relations of the map:
    for each pair of components, the majorant of the unpruned sum of the
    bracket halves and the base derivatives (``_relation_defects``)."""
    return max(_relation_defects(Phi).values(), default=0.0)


def map_from_generator(gen, order_cap=DEFAULT_ORDER_CAP, tol=None):
    """Time-1 flow of F + <v, q> as a displacement map (Lie series per
    coordinate); raises SymplecticityError if its bracket residual exceeds
    DEFAULT_SYMP_TOL."""
    gr = gen.grading
    r, s = gen.F.r, gen.F.s
    if tol is None:
        tol = 1e-14 * max(gen.scale_estimate(), 1e-300)
    zero = FTSeries.zero(gr, r, s)
    rem = 0.0

    def flow_disp(kind, i):
        nonlocal rem
        first = _base_bracket_with(kind, i, gen.F)
        if kind == "p" and not gen.v[i].is_zero():
            first = first - gen.v[i]
        if first.is_zero():
            return zero.copy()
        disp, bound, _ = lie_transform(zero, gen, order_cap, tol,
                                       first_term=first)
        rem += bound
        return disp

    U = [flow_disp(kind, i) for kind, i in coordinates(gr)]
    Phi = SymplecticMapSeries(U, remainder=rem, generator=gen)
    resid = symplecticity_residual(Phi)
    Phi.symp_residual = resid
    if resid > DEFAULT_SYMP_TOL:
        raise SymplecticityError("bracket residual %.3g exceeds %.3g"
                                 % (resid, DEFAULT_SYMP_TOL))
    return Phi


# -- composition by substitution ----------------------------------------------------
#
# Kept for the checks that must not share the composition rule they check:
# the conjugacy residual and the zeta profile substitute the cumulative map.


def _exp_of(u):
    """exp(u) for a series u; converges when the majorant of u is moderate."""
    scale = majorant_norm(u)
    if scale > 30.0:
        raise GeneratorTooLargeError("exponential argument majorant %.3g too large"
                                     % scale)
    one = FTSeries.constant(u.grading, u.r, u.s, 1.0)
    step = lambda term: multiply(term, u)
    return _power_sum(one, step(one), step,
                      lambda term: majorant_norm(term) * scale, EXP_TOL,
                      EXP_ORDER_CAP, "exponential series", decay=False)[0]


class _Substituter:
    """Caches the building blocks for substituting a map into series.

    With drop_z_identity the ball variables are replaced by the displacement
    alone (evaluation along z = 0) instead of identity + displacement."""

    def __init__(self, Psi, drop_z_identity):
        self.gr = Psi.grading
        self.r, self.s = Psi.radii
        self.disp = dict(zip(coordinates(self.gr), Psi.U))
        self.drop_z_identity = drop_z_identity
        self._exp_cache = {}
        self._pow_cache = {}
        margin = max(majorant_norm(u) for u in Psi.Uq)
        if margin * self.gr.K_q > 25.0:
            raise GeneratorTooLargeError(
                "angle displacement majorant %.3g exceeds the analyticity margin "
                "for K_q=%d" % (margin, self.gr.K_q))

    def _angle_factor(self, k):
        """exp(i k.Uq).  The map is real, so exp(-i k.Uq) is the conjugate
        of exp(i k.Uq): of each pair +-k, only the k that is lexicographically
        larger takes an exponential, and -k takes its mirror."""
        k = tuple(k)
        got = self._exp_cache.get(k)
        if got is None:
            neg = tuple(-ki for ki in k)
            if k < neg:
                got = _conjugate(self._angle_factor(neg))
            else:
                u = FTSeries.zero(self.gr, self.r, self.s)
                for i, ki in enumerate(k):
                    if ki:
                        u = u + self.disp["q", i].scale(1j * ki)
                got = _exp_of(u) if not u.is_zero() else \
                    FTSeries.constant(self.gr, self.r, self.s, 1.0)
            self._exp_cache[k] = got
        return got

    def _var_power(self, var, n):
        """The n-th power (n >= 1) of the image of the ball variable var."""
        key = (var, n)
        got = self._pow_cache.get(key)
        if got is None:
            if n == 1:
                disp = self.disp[var]
                got = disp.copy() if self.drop_z_identity else \
                    coordinate(self.gr, self.r, self.s, *var) + disp
            else:
                got = multiply(self._var_power(var, n - 1),
                               self._var_power(var, 1))
            self._pow_cache[key] = got
        return got

    def apply(self, f):
        gr = self.gr
        plan = _plan(gr)
        pieces = []
        # slot order: the (j, k, a) order, as the balls are lexicographic
        for ij, ik, it, c in zip(f.ij.tolist(), f.ik.tolist(), f.it.tolist(),
                                 f.coef.tolist()):
            k = plan.K.keys[ik]
            piece = FTSeries.term(gr, self.r, self.s, plan.J.keys[ij], k,
                                  (0,) * gr.nz, c)
            if _l1(k):
                piece = multiply(piece, self._angle_factor(k))
            for var, n in zip(coordinates(gr)[gr.d:], plan.T.keys[it]):
                if n:
                    piece = multiply(piece, self._var_power(var, n))
            pieces.append(piece)
        out = ft_sum(gr, self.r, self.s, pieces)
        out.trunc_loss += f.trunc_loss
        return out


def series_compose(f, Psi, drop_z_identity=False):
    """f o Psi by Taylor substitution (angle shifts via exponential expansion).

    With drop_z_identity the ball variables are replaced by Psi's
    displacement alone (evaluation along z = 0)."""
    if Psi.is_identity():
        return restrict_z0(f) if drop_z_identity else f.copy()
    return _Substituter(Psi, drop_z_identity).apply(f)


def compose_maps(Phi, Psi):
    """Functional composition Phi o Psi of two near-identity maps.

    Psi must carry its generator, on Psi's radii (map_from_generator and
    with_radii keep it there): each displacement u of Phi is transported as
    u o Psi = exp(L_gen) u (Deprit 1969), so no Taylor substitution is
    made."""
    if Psi.is_identity():
        return Phi
    if Phi.is_identity():
        return Psi
    if Psi.generator is None:
        raise TypeError("compose_maps needs the generator of the inner map")
    rem = Phi.remainder + Psi.remainder

    def transport(psi_u, phi_u):
        nonlocal rem
        moved, bound, _ = lie_transform(phi_u, Psi.generator)
        rem += bound
        return psi_u + moved

    return SymplecticMapSeries([transport(a, b)
                                for a, b in zip(Psi.U, Phi.U)], remainder=rem)


# -- integer reduction --------------------------------------------------------------


@dataclass
class LatticeReduction:
    """Unimodular angle change K in SL(m, Z)."""

    K: list  # m x m integer rows


def _int_det(M):
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    M = [[int(v) for v in row] for row in M]
    n = len(M)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if M[i][i] == 0:
            piv = next((r for r in range(i + 1, n) if M[r][i] != 0), None)
            if piv is None:
                return 0
            M[i], M[piv] = M[piv], M[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                M[r][c] = (M[r][c] * M[i][i] - M[r][i] * M[i][c]) // prev
            M[r][i] = 0
        prev = M[i][i]
    return sign * M[n - 1][n - 1]


def unimodular_completion(resonances):
    """Complete independent integer resonances to a unimodular matrix.

    Returns a LatticeReduction whose K has |det| = 1, whose last l rows span
    the saturation of the resonance lattice (so K omega_0 ends in exact zeros
    whenever the input resonances are exact).
    """
    if not resonances:
        raise ReductionError("need at least one resonance")
    R = []
    for vec in resonances:
        row = []
        for v in vec:
            iv = int(round(v))
            if abs(v - iv) > 1e-9:
                raise ReductionError("resonance vector %s is not integer" % (vec,))
            row.append(iv)
        if all(v == 0 for v in row):
            raise ReductionError("zero resonance vector")
        g = 0
        for v in row:
            g = math.gcd(g, abs(v))
        R.append([v // g for v in row])
    l = len(R)
    m = len(R[0])
    if any(len(row) != m for row in R):
        raise ReductionError("resonance vectors differ in length")
    if l >= m:
        raise ReductionError("need fewer resonances than the total angle dimension")
    A = [row[:] for row in R]
    W = [[1 if i == j else 0 for j in range(m)] for i in range(m)]  # U^{-1}

    def col_addmul(j, i, t):  # C_j += t * C_i ; W row_i -= t * row_j
        for r in range(l):
            A[r][j] += t * A[r][i]
        W[i] = [a - t * b for a, b in zip(W[i], W[j])]

    def col_swap(i, j):
        for r in range(l):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        W[i], W[j] = W[j], W[i]

    def col_neg(j):
        for r in range(l):
            A[r][j] = -A[r][j]
        W[j] = [-a for a in W[j]]

    for i in range(l):
        while True:
            nz = [j for j in range(i, m) if A[i][j] != 0]
            if not nz:
                raise ReductionError("resonance vectors are linearly dependent")
            piv = min(nz, key=lambda j: abs(A[i][j]))
            if piv != i:
                col_swap(i, piv)
            done = True
            for j in range(i + 1, m):
                if A[i][j] != 0:
                    t = A[i][j] // A[i][i]
                    if t:
                        col_addmul(j, i, -t)
                    if A[i][j] != 0:
                        done = False
            if done:
                break
        if A[i][i] < 0:
            col_neg(i)
    # rows of W: first l rows span the saturated resonance lattice
    K = [W[j][:] for j in range(l, m)] + [W[i][:] for i in range(l)]
    det = _int_det(K)
    if abs(det) != 1:
        raise ValueError("completion failed: |det| = %d" % abs(det))
    return LatticeReduction(K=K)


# -- series on the pre-reduction domain ---------------------------------------------


@dataclass
class SigmaTerm:
    """One monomial c * e^{i k.theta} I^a on T^m x R^m (angles theta, actions I)."""

    mode: tuple
    powers: tuple
    coeff: complex


def sigma_cos(mode, amplitude=1.0, powers=None):
    m = len(mode)
    powers = (0,) * m if powers is None else tuple(powers)
    return [SigmaTerm(tuple(mode), powers, 0.5 * amplitude),
            SigmaTerm(tuple(-v for v in mode), powers, 0.5 * amplitude)]


def _taylor_exp_vector(grading, r, s, coefvec):
    """Taylor polynomial of exp(i sum_j coefvec[j] x_j) to degree D."""
    u = TaylorSplit(b_x=[FTSeries.constant(grading, r, s, 1j * cj)
                         for cj in coefvec]).reassemble()
    total = FTSeries.constant(grading, r, s, 1.0)
    term = FTSeries.constant(grading, r, s, 1.0)
    for n in range(1, grading.D + 1):
        term = multiply(term, u).scale(1.0 / n)
        if term.is_zero():
            break
        total = total + term
    return total


def _action_substitution(grading, r, s, T):
    """Linear action substitution old_I = T . (p, y): returns replacement series."""
    d = grading.d
    const = lambda row: [FTSeries.constant(grading, r, s, t) for t in row]
    return [TaylorSplit(b_p=const(row[:d]), b_y=const(row[d:])).reassemble()
            for row in T]


def sigma_to_parametrized(terms, d, l, grading, r, s, K, shear_S, x_scale):
    """Carry a Sigma-domain series through the full reduction pipeline.

    Steps: integer angle change K, angle shear q -> q + S^T x paired with
    y -> y - S p, shift x -> x + phi, and the normalization x -> Sn^{-1} x,
    y -> Sn^T y given by x_scale = Sn.
    Returns an FTSeries on the parametrized domain T^l x D.
    """
    m = d + l
    Karr = np.array(K, dtype=float)
    Kinv = np.linalg.inv(Karr)
    Kinv_T = np.rint(Kinv.T).astype(int)
    if np.max(np.abs(Kinv.T - Kinv_T)) > 1e-9:
        raise ValueError("K inverse is not integer; K not unimodular?")
    S = np.asarray(shear_S, dtype=float)  # l x d
    Sn = np.asarray(x_scale, dtype=float)
    # old y = new y - S p : action vector transforms by [(I,0),(-S,I)]
    shear_T = np.eye(m)
    shear_T[d:, :d] = -S
    norm_T = np.eye(m)
    norm_T[d:, d:] = Sn.T  # old y = Sn^T new y
    reps = _action_substitution(grading, r, s, Karr.T @ shear_T @ norm_T)
    Sn_inv = np.linalg.inv(Sn)
    out = FTSeries.zero(grading, r, s)
    for t in sorted(terms, key=lambda t: (t.mode, t.powers)):
        mode = Kinv_T @ np.asarray(t.mode, dtype=int)
        kq, kx = mode[:d], mode[d:]
        piece = FTSeries.term(grading, r, s, tuple(int(v) for v in kx),
                              tuple(int(v) for v in kq), (0,) * grading.nz, t.coeff)
        # ball-variable exponentials: the shear contributes exp(i (S kq).x) and
        # the old x-angle contributes exp(i kx.x); both see the normalization
        cvec = Sn_inv.T @ (np.asarray(kx, dtype=float) + S @ kq)
        if np.any(cvec != 0.0):
            piece = multiply(piece, _taylor_exp_vector(grading, r, s, cvec))
        for a_idx, n in enumerate(t.powers):
            for _ in range(n):
                piece = multiply(piece, reps[a_idx])
        out = out + piece
    return out


def shifted_parametrization(terms, d, l, grading, r, s):
    """Localize around all parallel tori: f(q, x, ...) -> f(q, x + phi, ...).

    The x-angle modes move onto the parameter and re-expand as Taylor factors;
    by construction the output satisfies M_q(d_x f0) = M_q(d_phi f0).  It is
    the reduction with the identity angle change, no shear and no
    normalization.
    """
    return sigma_to_parametrized(terms, d, l, grading, r, s,
                                 np.eye(d + l, dtype=int), np.zeros((l, d)),
                                 np.eye(l))


# -- reduction to the model form -----------------------------------------------------


def reduce_coordinates(N_hessian, omega0, red, h_terms, f_terms, grading, r, s):
    """Blocked reduction of an m-degree-of-freedom problem to the model form.

    Computes the blocks of K Hess K^T, checks the sign conditions (the p-block
    Schur complement must be negative definite and the y-block positive
    definite), applies the shear and the y-normalization to h and f, and
    returns (omega, M0, h0, f0, report).
    """
    d, l = grading.d, grading.l
    m = d + l
    Karr = np.array(red.K, dtype=float)
    omega0 = np.asarray(omega0, dtype=float)
    w_full = Karr @ omega0
    omega, tail = w_full[:d], w_full[d:]
    report = {"K": [list(map(int, row)) for row in red.K],
              "K_omega0": [float(v) for v in w_full],
              "resonant_tail": float(np.max(np.abs(tail), initial=0.0))}
    if report["resonant_tail"] > 1e-12 * max(np.linalg.norm(omega0), 1e-300):
        raise ReductionError("K omega0 does not end in zeros: tail %.3g"
                             % report["resonant_tail"])
    Hess = np.asarray(N_hessian, dtype=float)
    blocked = Karr @ Hess @ Karr.T
    A, B, C = blocked[:d, :d], blocked[:d, d:], blocked[d:, d:]
    eigH = np.linalg.eigvalsh(0.5 * (Hess + Hess.T))
    eigC = np.linalg.eigvalsh(0.5 * (C + C.T))
    report["hessian_eigs"] = [float(v) for v in eigH]
    report["C_eigs"] = [float(v) for v in eigC]
    if np.min(np.abs(eigH)) <= 1e-10 * np.max(np.abs(eigH)):
        raise ReductionError("(ii) failed: full Hessian is singular: eigs %s" % eigH)
    if np.min(np.abs(eigC)) <= 1e-10 * max(np.max(np.abs(eigC)), 1e-300):
        raise ReductionError("(ii) failed: C is singular: eigs %s" % eigC)
    M0 = A - B @ np.linalg.solve(C, B.T)
    Q0 = C
    eigM = np.linalg.eigvalsh(0.5 * (M0 + M0.T))
    report["M0_eigs"] = [float(v) for v in eigM]
    report["Q0_eigs"] = report["C_eigs"]
    if not np.all(eigM < 0.0):
        raise ReductionError("(iii) failed: p-block Schur complement not negative "
                             "definite: eigs %s" % eigM)
    if not np.all(eigC > 0.0):
        raise ReductionError("(iii) failed: y-block C not positive definite: "
                             "eigs %s" % eigC)
    S_shear = np.linalg.solve(C, B.T)  # l x d
    # normalization Sn Q0 Sn^T = I via Cholesky
    Sn = np.linalg.inv(np.linalg.cholesky(Q0))
    report["shear_norm"] = float(np.linalg.norm(S_shear, 2))
    report["normalization"] = [[float(v) for v in row] for row in Sn]
    h0 = sigma_to_parametrized(h_terms, d, l, grading, r, s, K=red.K,
                               shear_S=S_shear, x_scale=Sn)
    f0 = sigma_to_parametrized(f_terms, d, l, grading, r, s, K=red.K,
                               shear_S=S_shear, x_scale=Sn)
    py = np.array([kind != "x" for kind, _ in coordinates(grading)[d:]])
    if (_plan(grading).T.pts[h0.it][:, py].sum(axis=1) < 3).any():
        raise ReductionError("reduced h carries a (p, y)-degree < 3 term")
    return omega, M0, h0, f0, report
