"""Counter-term diagnostics: the averaged energy profile zeta, whose
critical points select the torus.  The paper's identities alpha = grad zeta
and the beta relation are checked by the tests (tests/identity_checks.py)."""

from ..normalform import model_hamiltonian
from ..series import average_q, multiply, partial_omega
from ..symplectic import SymplecticMapSeries, series_compose
from .cohom import restrict_z0


def compute_zeta(state, H0_series):
    """zeta(phi) = M_q(F o Phi + <Phi_p, w - dw Phi_q> - <Phi_y, dw Phi_x>)(phi, 0)
    with F the energy above the plain rotation term."""
    gr = state.grading
    omega = state.N.w
    r, s = state.r, state.s
    F = H0_series.with_radii(r, s) - model_hamiltonian(gr, r, s, w=omega)
    Phi0 = SymplecticMapSeries([restrict_z0(u) for u in state.Phi.U])
    total = series_compose(F, Phi0, drop_z_identity=True)
    for conj, u in zip(Phi0.Up + Phi0.Uy, Phi0.Uq + Phi0.Ux):
        du = partial_omega(u, omega)
        if not (conj.is_zero() or du.is_zero()):
            total = total - multiply(conj, du)
    return average_q(total)
