"""Counter-term diagnostics: the averaged energy profile zeta, whose
critical points select the torus.  The paper's identities alpha = grad zeta
and the beta relation are checked by the tests (tests/identity_checks.py)."""

from ..series import (FTSeries, TaylorSplit, average_q, multiply,
                      partial_omega)
from ..symplectic import SymplecticMapSeries, series_compose
from .cohom import restrict_z0


def compute_zeta(state, H0_series):
    """zeta(phi) = M_q(F o Phi + <Phi_p, w - dw Phi_q> - <Phi_y, dw Phi_x>)(phi, 0)
    with F the energy above the plain rotation term."""
    gr = state.grading
    omega = state.N.w
    r, s = state.r, state.s
    F = H0_series.with_radii(r, s) - TaylorSplit(
        b_p=[FTSeries.constant(gr, r, s, w) for w in omega]).reassemble()
    Phi0 = SymplecticMapSeries([restrict_z0(u) for u in state.Phi.U])
    total = series_compose(F, Phi0, drop_z_identity=True)
    for i in range(gr.d):
        up = Phi0.Up[i]
        duq = partial_omega(Phi0.Uq[i], omega)
        if not (up.is_zero() or duq.is_zero()):
            total = total - multiply(up, duq)
    for i in range(gr.l):
        uy = Phi0.Uy[i]
        dux = partial_omega(Phi0.Ux[i], omega)
        if not (uy.is_zero() or dux.is_zero()):
            total = total - multiply(uy, dux)
    return average_q(total)
