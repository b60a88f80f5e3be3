"""The summation loop of the Lie series, the Lie tail integrals and the
exponential as it was before it stopped on a bound of the next term: every
term is formed, and the loop stops at the first whose majorant is at most
tol, so the last bracket of a Lie series is formed only to be found small.

Kept as the test oracle of ``kamtori.symplectic._power_sum``; it takes (and
ignores) the same bound argument, so it can stand in for the loop.  The tail
integral as it was before it stopped at the rounding floor, summed down to
TAIL_TOL, is kept on it as the oracle of ``lie_tail_integral``."""

import math

from kamtori.series import majorant_norm
from kamtori.symplectic import DEFAULT_ORDER_CAP, GeneratorTooLargeError

TAIL_TOL = 1e-300        # the old tail integral's terms went down to this


def power_sum(total, term, step, bound, tol, cap, what, weight=None,
              decay=True):
    """total plus the terms t_n, n = 1, 2, ..., each times weight(n) if
    given, where t_1 = term and t_n = step(t_{n-1}) / n, through the first
    term whose majorant is at most tol.

    Returns (sum, 2 |weight(n)| x the majorant of that last term, its order
    n).  Raises GeneratorTooLargeError if no term of order <= cap + 1 gets
    that small or, with decay, once a term past the second exceeds half the
    one before it."""
    n, prev = 1, math.inf
    while True:
        m = majorant_norm(term)
        w = 1.0 if weight is None else weight(n)
        part = term if weight is None else term.scale(w)
        if m <= tol:
            return total + part, 2.0 * m * abs(w), n
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
        term = step(term).scale(1.0 / n)


def tail_integral(u, gen, weight):
    """sum_n w_n u_n for the Lie terms u_n of u (u_0 = u, u_n = {u_{n-1},
    gen}/n), every term formed down to TAIL_TOL: (series, remainder bound,
    order reached)."""
    return power_sum(u.scale(weight(0)), gen.bracket_with(u),
                     gen.bracket_with, None, TAIL_TOL, DEFAULT_ORDER_CAP,
                     "lie tail integral", weight)
