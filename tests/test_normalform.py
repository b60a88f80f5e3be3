import math

import numpy as np
import pytest

from kamtori.normalform import (assemble_hamiltonian, bump_psi,
                                const_matrix, initial_tuple,
                                normal_form_distance, nu_max_profile,
                                phi_grid, phi_grid_size, project_phi_values)
from kamtori.series import FTSeries, Grading, ck_norm_estimate, taylor_split
from conftest import GOLDEN
from normalform_tools import (copy_tuple, is_normal_form, tuple_from_json,
                              tuple_to_json)


class TestAssembly:
    def test_initial_model(self, g11):
        N0 = initial_tuple(g11, 1, 1, [GOLDEN], [[-1.0]])
        H = assemble_hamiltonian(N0)
        assert H.coeff((0,), (0,), (0, 1, 0)) == pytest.approx(GOLDEN)
        assert H.coeff((0,), (0,), (0, 2, 0)) == pytest.approx(-0.5)
        assert H.coeff((0,), (0,), (0, 0, 2)) == pytest.approx(0.5)
        assert len(H.terms) == 3

    def test_zero_tuple(self, g11):
        N = initial_tuple(g11, 1, 1, [0.0], [[0.0]], Q0=[[0.0]])
        assert assemble_hamiltonian(N).is_zero()

    def test_split_recovers_blocks(self, g11, rng):
        beta = [[FTSeries.cos_angle(g11, 1, 1, (1,), (0,), 0.3)]]
        Gamma = [[FTSeries.sin_angle(g11, 1, 1, (1,), (0,), 0.2)]]
        N = initial_tuple(g11, 1, 1, [GOLDEN], [[-1.0]])
        N.beta, N.Gamma = beta, Gamma
        sp = taylor_split(assemble_hamiltonian(N))
        assert (sp.d_xx[0][0] - beta[0][0]).max_abs_coeff() < 1e-15
        assert (sp.d_px[0][0] - Gamma[0][0]).max_abs_coeff() < 1e-15
        assert (sp.d_pp[0][0] + FTSeries.constant(g11, 1, 1, 1.0)).max_abs_coeff() < 1e-15

    M_ASYM = [[-1.0, 0.3], [0.2, 2.0]]   # M01 != M10

    def lossy_tuple(self):
        """A d = 2 tuple with an asymmetric M whose beta, Gamma, M and Q
        entries carry trunc_loss; returns it with the loss the products
        entry x monomial carried: each entry's loss times the monomial's
        majorant |coeff| s^2, summed."""
        gr = Grading(d=2, l=1, K_q=2, K_phi=2, D=3)
        r, s = 1.0, 0.7
        N = initial_tuple(gr, r, s, [GOLDEN, 1.0], self.M_ASYM, Q0=[[1.5]])
        N.beta = const_matrix(gr, r, s, [[0.4]])
        N.Gamma = [[FTSeries.cos_angle(gr, r, s, (1,), (0, 0), 0.2),
                    FTSeries.constant(gr, r, s, -0.1)]]
        want = 0.0
        for n, (name, coeff) in enumerate((("M", 0.5), ("Q", 0.5),
                                           ("beta", 0.5), ("Gamma", 1.0))):
            for i, row in enumerate(getattr(N, name)):
                for j, entry in enumerate(row):
                    entry.trunc_loss = 1e-9 * (n + 1) * (i + 2 * j + 1)
                    want += entry.trunc_loss * coeff * s ** 2
        return N, want

    def test_blocks_carry_their_loss(self):
        N, want = self.lossy_tuple()
        assert assemble_hamiltonian(N).trunc_loss == pytest.approx(want,
                                                                   rel=1e-14)

    def test_asymmetric_M_counts_as_its_symmetric_part(self):
        # 1/2 <M p, p> puts (M01 + M10)/2 on p0 p1, not the upper entry
        N, _ = self.lossy_tuple()
        H = assemble_hamiltonian(N)
        M = self.M_ASYM
        assert H.coeff((0,), (0, 0), (0, 1, 1, 0)) == (M[0][1] + M[1][0]) / 2

    def test_linear_in_tuple(self, g11):
        N1 = initial_tuple(g11, 1, 1, [1.0], [[-1.0]])
        N2 = initial_tuple(g11, 1, 1, [2.0], [[-3.0]])
        diff = assemble_hamiltonian(N1 + N2) - assemble_hamiltonian(N1) \
            - assemble_hamiltonian(N2)
        assert diff.max_abs_coeff() < 1e-15


class TestNuMax:
    def test_constant_diag(self):
        g = Grading(d=1, l=2, K_q=4, K_phi=4, D=3)
        beta = const_matrix(g, 1, 1, np.diag([-1.0, 2.0]))
        grid = phi_grid(2, 8)
        nu = nu_max_profile(beta, grid)
        assert np.allclose(nu, 2.0)

    def test_cosine_profile(self, g11):
        beta = [[FTSeries.cos_angle(g11, 1, 1, (1,), (0,))]]
        grid = phi_grid(1, 64)
        nu = nu_max_profile(beta, grid)
        assert np.max(np.abs(nu - np.cos(grid[:, 0]))) < 1e-14

    def test_matches_power_iteration(self, rng):
        g = Grading(d=1, l=2, K_q=4, K_phi=4, D=3)
        M = rng.standard_normal((2, 2))
        sym = 0.5 * (M + M.T)
        beta = const_matrix(g, 1, 1, sym)
        grid = phi_grid(2, 8)
        nu = nu_max_profile(beta, grid)
        # power iteration on sym + cI to make it positive definite
        shift = 3.0
        v = rng.standard_normal(2)
        A = sym + shift * np.eye(2)
        for _ in range(400):
            v = A @ v
            v /= np.linalg.norm(v)
        lam = float(v @ A @ v) - shift
        assert np.max(np.abs(nu - lam)) < 1e-9


class TestIsNormalForm:
    def test_zero_g_any_delta(self, g11):
        N0 = initial_tuple(g11, 1, 1, [GOLDEN], [[-1.0]])
        for delta in [0.0, 0.5, 5.0]:
            ok, rep = is_normal_form(N0, [GOLDEN], delta, 1e-12)
            assert ok and rep["w_matches"]

    def test_wrong_frequency(self, g11):
        N0 = initial_tuple(g11, 1, 1, [GOLDEN], [[-1.0]])
        ok, _ = is_normal_form(N0, [1.0], 0.5, 1e-12)
        assert not ok

    def test_concentrated_g_inside_vs_outside_sublevel(self, g11):
        # beta = cos(phi): the sublevel set for delta = 0 is {cos phi <= 0};
        # a window concentrated at phi = 0 stays clear of it, the same window
        # shifted to phi = pi lands inside it
        N = initial_tuple(g11, 1, 1, [GOLDEN], [[-1.0]])
        N.beta = [[FTSeries.cos_angle(g11, 1, 1, (1,), (0,))]]
        grid = phi_grid(1, phi_grid_size(g11.K_phi))
        nu = np.cos(grid[:, 0])
        window = ((1.0 + nu) / 2.0) ** 8      # band-limited, peak at phi = 0
        gser, _ = project_phi_values(window, 1, len(grid), g11, 1, 1)
        N.g = gser
        ok, rep = is_normal_form(N, [GOLDEN], 0.0, 0.05, grid)
        assert ok, rep
        shifted = ((1.0 - nu) / 2.0) ** 8     # peak at phi = pi, in sublevel
        gbad, _ = project_phi_values(shifted, 1, len(grid), g11, 1, 1)
        N.g = gbad
        ok2, rep2 = is_normal_form(N, [GOLDEN], 0.0, 0.05, grid)
        assert not ok2 and rep2["violations"]

    def test_monotone_in_delta(self, g11):
        N = initial_tuple(g11, 1, 1, [GOLDEN], [[-1.0]])
        N.beta = [[FTSeries.cos_angle(g11, 1, 1, (1,), (0,))]]
        grid = phi_grid(1, phi_grid_size(g11.K_phi))
        vals = np.where(np.cos(grid[:, 0]) > 0.6, 1.0, 0.0)
        N.g, _ = project_phi_values(vals, 1, len(grid), g11, 1, 1)
        outcomes = [is_normal_form(N, [GOLDEN], delta, 2e-2, grid)[0]
                    for delta in [0.0, 0.3, 0.9]]
        # once it holds for some delta it holds for all smaller ones
        for i in range(len(outcomes) - 1):
            if not outcomes[i]:
                assert not any(outcomes[i + 1:])


class TestBump:
    def test_always_below_t1(self, g11):
        grid = phi_grid(1, 256)
        psi, vals = bump_psi(grid, np.full(256, -2.0), -1.0, 1.0, g11, 1, 1)
        assert np.allclose(vals, 1.0)

    def test_always_above_t2(self, g11):
        grid = phi_grid(1, 256)
        psi, vals = bump_psi(grid, np.full(256, 2.0), -1.0, 1.0, g11, 1, 1)
        assert np.allclose(vals, 0.0)

    def test_cosine_vs_direct_convolution_oracle(self):
        g = Grading(d=1, l=1, K_q=2, K_phi=320, D=3)
        n = 1024
        grid = phi_grid(1, n)
        nu = np.cos(grid[:, 0])
        psi, vals = bump_psi(grid, nu, -0.5, 0.5, g, 1, 1, tol=1e-6)
        # independent direct convolution on the same 1024-grid
        a = 0.25
        h = 2 * math.pi / n
        ind = (nu < -0.5 + a).astype(float)
        dist = np.minimum(grid[:, 0], 2 * math.pi - grid[:, 0])
        ker = np.where(dist < a, np.exp(-1.0 / (1.0 - (dist / a) ** 2),
                                        where=dist < a, out=np.zeros(n)), 0.0)
        ker = ker / ker.sum()
        direct = np.real(np.fft.ifft(np.fft.fft(ind) * np.fft.fft(ker)))
        assert np.max(np.abs(vals - direct)) < 1e-4

    def test_plateaus_and_range(self):
        g = Grading(d=1, l=1, K_q=2, K_phi=320, D=3)
        grid = phi_grid(1, 2048)
        nu = np.cos(grid[:, 0])
        psi, vals = bump_psi(grid, nu, -0.5, 0.5, g, 1, 1, tol=1e-6)
        assert np.max(np.abs(vals[nu < -0.5] - 1.0)) <= 1e-6
        assert np.max(np.abs(vals[nu > 0.5])) <= 1e-6
        assert vals.min() >= -1e-6 and vals.max() <= 1 + 1e-6

    def test_projection_overshoot_suggests_bigger_Kphi(self):
        g = Grading(d=1, l=1, K_q=2, K_phi=8, D=3)
        grid = phi_grid(1, 2048)
        nu = np.cos(grid[:, 0])
        from kamtori.normalform import BumpProjectionError
        with pytest.raises(BumpProjectionError, match="K_phi"):
            bump_psi(grid, nu, -0.1, 0.1, g, 1, 1, tol=1e-6)

    def test_gluing_kills_complement(self):
        # psi times a function supported on {nu > t2} is residually small
        g = Grading(d=1, l=1, K_q=2, K_phi=320, D=3)
        grid = phi_grid(1, 2048)
        nu = np.cos(grid[:, 0])
        psi, vals = bump_psi(grid, nu, -0.5, 0.5, g, 1, 1)
        mask = nu > 0.5
        assert np.max(np.abs(vals[mask])) <= 1e-6


class TestNorms:
    def test_distance_zero(self, g11):
        N = initial_tuple(g11, 1, 1, [GOLDEN], [[-1.0]])
        assert normal_form_distance(N, copy_tuple(N)) == 0.0

    def test_w_euclidean(self):
        g = Grading(d=2, l=1, K_q=4, K_phi=4, D=3)
        N1 = initial_tuple(g, 1, 1, [1.0, 2.0], np.diag([-1.0, -1.0]))
        N2 = initial_tuple(g, 1, 1, [1.3, 2.4], np.diag([-1.0, -1.0]))
        assert normal_form_distance(N1, N2) == pytest.approx(0.5)

    def test_max_over_components(self, g11, rng):
        N1 = initial_tuple(g11, 1, 1, [GOLDEN], [[-1.0]])
        N2 = copy_tuple(N1)
        N2.beta = [[FTSeries.cos_angle(g11, 1, 1, (1,), (0,), 0.7)]]
        N2.c = FTSeries.constant(g11, 1, 1, 0.2)
        d = normal_form_distance(N1, N2, r=0.0)
        comp_beta = ck_norm_estimate(N2.beta[0][0], 2, 0, 0.0, 1.0)
        assert d == pytest.approx(max(comp_beta, 0.2))

    def test_with_radii_retags_every_component(self, g11):
        N = initial_tuple(g11, 1, 1, [GOLDEN], [[-1.0]])
        N.beta = [[FTSeries.cos_angle(g11, 1, 1, (1,), (0,), 0.1)]]
        R = N.with_radii(0.8, 0.9)
        pairs = [(getattr(N, key), getattr(R, key))
                 for key in ("c", "g", "h")] + [
            (getattr(N, key)[0][0], getattr(R, key)[0][0])
            for key in ("beta", "Gamma", "M", "Q")]
        for old, new in pairs:
            assert (new.r, new.s) == (0.8, 0.9)
            assert new.terms == old.terms
        assert np.array_equal(R.w, N.w) and N.radii == (1.0, 1.0)

    def test_difference_undoes_sum(self, g11):
        N1 = initial_tuple(g11, 1, 1, [1.0], [[-1.0]])
        N2 = initial_tuple(g11, 1, 1, [2.0], [[-3.0]])
        N2.beta = [[FTSeries.cos_angle(g11, 1, 1, (1,), (0,), 0.1)]]
        assert normal_form_distance((N1 + N2) - N2, N1) == 0.0

    def test_json_round_trip(self, g11):
        N = initial_tuple(g11, 1, 1, [GOLDEN], [[-1.0]])
        N.beta = [[FTSeries.cos_angle(g11, 1, 1, (1,), (0,), 0.1)]]
        back = tuple_from_json(tuple_to_json(N))
        assert normal_form_distance(N, back) == 0.0
