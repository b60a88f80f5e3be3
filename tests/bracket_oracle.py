"""The Poisson bracket as it was computed before the one-call kernel: every
half-product as a product of two derivative series, merged by ft_sum.

    {g, h} = sum_i (d_qi g d_pi h - d_pi g d_qi h)
           + sum_i (d_xi g d_yi h - d_yi g d_xi h)

Kept as the test oracle of ``kamtori.symplectic.poisson_bracket``."""

from kamtori.series import differentiate, ft_sum, multiply


def halves(g, h):
    """The 2 (d + l) half-products of {g, h}, in bracket order, with their
    signs."""
    gr = g.grading
    parts, scales = [], []
    for i in range(gr.d):
        parts.append(multiply(differentiate(g, ("q", i)), differentiate(h, ("p", i))))
        scales.append(1.0)
        parts.append(multiply(differentiate(g, ("p", i)), differentiate(h, ("q", i))))
        scales.append(-1.0)
    for i in range(gr.l):
        parts.append(multiply(differentiate(g, ("x", i)), differentiate(h, ("y", i))))
        scales.append(1.0)
        parts.append(multiply(differentiate(g, ("y", i)), differentiate(h, ("x", i))))
        scales.append(-1.0)
    return parts, scales


def poisson_bracket(g, h):
    """{g, h} over both symplectic pairs (q, p) and (x, y)."""
    g._check_compat(h)
    parts, scales = halves(g, h)
    return ft_sum(g.grading, g.r, g.s,
                  [p if w > 0 else -p for p, w in zip(parts, scales)])
