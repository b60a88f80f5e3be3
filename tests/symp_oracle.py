"""The symplecticity residual as it was computed before it summed the
bracket halves straight from the product kernels: for each pair of map
components, the defect series {base_a, U_b} - {base_b, U_a} + {U_a, U_b}
built with poisson_bracket and series sums (each pruned), then its majorant.

Kept as the test oracle of ``kamtori.symplectic.symplecticity_residual``."""

import itertools

from kamtori.series import majorant_norm
from kamtori.symplectic import _base_bracket_with, poisson_bracket


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
