"""The shrinking ladder of radii, error targets and sublevel thresholds.

Per rung: sigma_n = min(r0, s0) / (40 * 2^n), so that sum 10 sigma_n equals
min(r0, s0)/2 and the angle radius never drops below r0/2; eps follows the
3/2-power law; delta_n = (sigma_n / |log eps_n|)^(4 tau) with the glue level
delta_plus_n = (1/8) (sigma_n / (4 |log eps_n|))^(2 tau).
"""

import math
from dataclasses import dataclass

from ..errors import ConvergenceError, PreconditionError


class StepFailure(ConvergenceError):
    """The scheme could not take a rung; `measures` holds what the rung had
    measured before it failed."""

    def __init__(self, reason, measures=None):
        super().__init__(reason)
        self.measures = measures or {}


@dataclass
class ScheduleRow:
    n: int
    r: float
    s: float
    sigma: float
    eps: float
    delta: float
    delta_plus: float


@dataclass
class Schedule:
    rows: list
    truncation_reason: str = None


def build_schedule(r0, s0, eps0, tau, *, n_max=8):
    """Emit rungs until n_max (at least 1) or until a consistency check
    fails (at rung 0 that raises StepFailure: no rung can be scheduled).

    Checks per rung: the glue level stays below the sublevel threshold
    (delta_plus < delta) and the threshold chain is gradual (delta_n <= 8
    delta_{n-1}).  The analytic smallness conditions compare against
    constants that are not computable, so steps are validated by their
    measured postconditions instead, and the vanishing-point condition
    nu_max(beta(phi0)) <= 0 is measured directly.
    """
    if not (0 < eps0 < 1):
        raise ValueError("need 0 < eps0 < 1 (measured perturbation size)")
    if n_max < 1:
        raise PreconditionError("n_max = %s schedules no rung; need n_max >= 1"
                                % n_max)
    base = min(r0, s0)
    rows = []
    r, s = float(r0), float(s0)
    eps = float(eps0)
    reason = None
    for n in range(n_max):
        sigma = base / (40.0 * 2 ** n)
        L = abs(math.log(eps))
        delta = (sigma / L) ** (4 * tau)
        delta_plus = 0.125 * (sigma / (4 * L)) ** (2 * tau)
        checks = []
        if not delta_plus < delta:
            checks.append("glue level delta_plus=%.3g not below delta=%.3g"
                          % (delta_plus, delta))
        if rows and not delta <= 8.0 * rows[-1].delta:
            checks.append("delta grew faster than 8x")
        if checks:
            reason = "; ".join(checks)
            break
        rows.append(ScheduleRow(n=n, r=r, s=s, sigma=sigma, eps=eps, delta=delta,
                                delta_plus=delta_plus))
        r -= 10.0 * sigma
        s -= sigma
        eps = eps ** 1.5
    if not rows:
        raise StepFailure("perturbation too large to schedule: rung 0 fails "
                          "its checks: %s" % reason)
    assert rows[-1].r - 10 * rows[-1].sigma > r0 / 2 - 1e-12
    assert rows[-1].s - rows[-1].sigma > s0 / 2 - 1e-12
    return Schedule(rows=rows, truncation_reason=reason)
