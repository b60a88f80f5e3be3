"""The symplecticity residual as it was computed before it summed the
bracket halves straight from the product kernels: for each pair of map
components, the defect series {base_a, U_b} - {base_b, U_a} + {U_a, U_b}
built with poisson_bracket and series sums (each pruned), then its majorant.

Kept as the test oracle of ``kamtori.symplectic.symplecticity_residual``,
with ``relation_sums``, the per-slot reduction of the kernels' parts as it
was before it summed them on a dense slot table."""

import itertools

import numpy as np

from kamtori.series import (_bracket_halves, _kept, _partial, _plan,
                            coordinates, majorant_norm)
from kamtori.symplectic import _CONJUGATE, _base_bracket_with, poisson_bracket


def relation_defects(Phi):
    """{(a, b): majorant of the defect series} over the pairs a < b of the
    map's components."""
    gr = Phi.grading
    comps = ([("q", i, Phi.Uq[i]) for i in range(gr.d)]
             + [("x", i, Phi.Ux[i]) for i in range(gr.l)]
             + [("p", i, Phi.Up[i]) for i in range(gr.d)]
             + [("y", i, Phi.Uy[i]) for i in range(gr.l)])
    out = {}
    for ai, bi in itertools.combinations(range(len(comps)), 2):
        ka, ia, ua = comps[ai]
        kb, ib, ub = comps[bi]
        res = _base_bracket_with(ka, ia, ub) - _base_bracket_with(kb, ib, ua)
        if not (ua.is_zero() or ub.is_zero()):
            res = res + poisson_bracket(ua, ub)
        out[ai, bi] = majorant_norm(res)
    return out


def symplecticity_residual(Phi):
    """Max majorant defect of the canonical bracket relations of the map."""
    return max(relation_defects(Phi).values(), default=0.0)


def relation_sums(Phi):
    """``_relation_defects`` by a sort and a bincount: the parts of each
    pair (the two base derivatives, then the signed bracket halves) are
    concatenated, their slots sorted by np.unique, and each slot's real and
    imaginary parts summed by np.bincount in part order."""
    gr = Phi.grading
    plan = _plan(gr)
    r, s = Phi.radii
    comps = Phi.U
    bases = [(sign, _partial(gr, (var, i))) for kind, i in coordinates(gr)
             for sign, var in [_CONJUGATE[kind]]]
    out = {}
    for a, b in itertools.combinations(range(len(comps)), 2):
        (sa, da), (sb, db) = bases[a], bases[b]
        parts = [(plan.code(*t[:3]), sign * t[3]) for sign, t in
                 ((sa, _kept(plan, comps[b], da)),
                  (-sb, _kept(plan, comps[a], db)))]
        # the halves alternate in sign, + first
        parts += [(slot, -coef if n % 2 else coef) for n, (slot, coef, _) in
                  enumerate(_bracket_halves(comps[a], comps[b],
                                            losses=False))]
        slots, at = np.unique(np.concatenate([p[0] for p in parts]),
                              return_inverse=True)
        coef = np.concatenate([p[1] for p in parts])
        acc = np.abs(np.bincount(at, coef.real, len(slots))
                     + 1j * np.bincount(at, coef.imag, len(slots)))
        out[a, b] = float(acc @ weight(plan, slots, r, s))
    return out


def weight(plan, slots, r, s):
    """Majorant weights e^{(|j|+|k|) r} s^|a| of the terms at slots, in
    closed form from their ball indices."""
    ij, ik, it = plan.split(slots)
    return np.exp((plan.J.norm[ij] + plan.K.norm[ik]) * r) \
        * s ** plan.T.norm[it].astype(float)
