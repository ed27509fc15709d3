import numpy as np
import pytest

from qglab import (
    Grid,
    Params,
    advect,
    biot_savart,
    coriolis_buoyancy,
    dealias,
    decompose,
    derivative,
    from_spectral,
    hs_inner,
    l2_inner,
    l2_norm,
    max_divergence,
    osc_vorticity_source,
    potential_vorticity,
    qg_diffusion_symbol,
    random_scalar,
    random_state,
    sobolev_norm,
    to_spectral,
)
from qglab.pe_solver import _linear_symbols
from qglab.spectral import _plane_bytes, _slab_planes

from half_spectrum import full_osc_vorticity_source


def qg_field(grid, rng):
    """Random band-limited quasi-geostrophic state."""
    return biot_savart(grid, random_scalar(grid, rng))


class TestPotentialVorticity:
    def test_zero(self, grid32):
        U = np.zeros((4,) + grid32.shape, dtype=complex)
        assert l2_norm(potential_vorticity(grid32, U)) == 0.0

    def test_gradient_velocity_has_no_vorticity(self, grid32):
        # v = (d1 phi, d2 phi, 0): mixed partials cancel
        g = grid32
        x1, x2, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        phi = to_spectral(g, np.sin(w * x1) * np.sin(w * x2))
        U = np.zeros((4,) + grid32.shape, dtype=complex)
        U[0] = derivative(g, phi, 1)
        U[1] = derivative(g, phi, 2)
        assert l2_norm(potential_vorticity(grid32, U)) < 1e-15

    def test_analytic_value(self, grid32):
        # v2 = cos(w x1): pv = d1 v2 = -w sin(w x1)
        g = grid32
        x1, _, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        U = np.zeros((4,) + grid32.shape, dtype=complex)
        U[1] = to_spectral(g, np.cos(w * x1))
        pv = from_spectral(g, potential_vorticity(g, U, froude=1.0))
        assert np.abs(pv + w * np.sin(w * x1)).max() < 1e-12

    def test_froude_scaling_on_theta(self, grid32, rng):
        U = np.zeros((4,) + grid32.shape, dtype=complex)
        U[3] = random_scalar(grid32, rng)
        pv_half = potential_vorticity(grid32, U, froude=0.5)
        pv_one = potential_vorticity(grid32, U, froude=1.0)
        assert np.abs(2.0 * pv_half - pv_one).max() < 1e-15


class TestBiotSavart:
    def test_single_mode_inversion(self, grid32):
        # omega = -w sin(w x1) -> U = (0, cos(w x1), 0, 0)
        g = grid32
        x1, _, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        om = to_spectral(g, -w * np.sin(w * x1))
        U = biot_savart(g, om, froude=1.0)
        assert np.abs(from_spectral(g, U[1]) - np.cos(w * x1)).max() < 1e-12
        for comp in (0, 2, 3):
            assert l2_norm(U[comp]) < 1e-14

    def test_zero(self, grid32):
        U = biot_savart(grid32, np.zeros(grid32.shape, dtype=complex))
        assert l2_norm(U) == 0.0

    @pytest.mark.parametrize("froude", [1.0, 0.5])
    def test_exact_inversion_identity(self, grid32, rng, froude):
        om = random_scalar(grid32, rng)
        back = potential_vorticity(grid32, biot_savart(grid32, om, froude), froude)
        assert l2_norm(back - om) / l2_norm(om) <= 1e-12

    def test_result_divergence_free(self, grid32, rng):
        U = biot_savart(grid32, random_scalar(grid32, rng))
        assert max_divergence(grid32, U) <= 1e-12


class TestProjectors:
    def test_pure_qg_field(self, grid32):
        g = grid32
        x1, _, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        U = np.zeros((4,) + grid32.shape, dtype=complex)
        U[1] = to_spectral(g, np.cos(w * x1))
        dec = decompose(g, U)
        assert l2_norm(dec.qg - U) / l2_norm(U) <= 1e-12
        assert l2_norm(dec.osc) <= 1e-12 * l2_norm(U)

    def test_pure_oscillating_field(self, grid32):
        # vertical velocity mode has zero potential vorticity
        g = grid32
        x1, _, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        U = np.zeros((4,) + grid32.shape, dtype=complex)
        U[2] = to_spectral(g, np.cos(w * x1))
        dec = decompose(g, U)
        assert l2_norm(dec.qg) <= 1e-13
        assert l2_norm(dec.osc - U) <= 1e-13 * l2_norm(U)

    def test_idempotence(self, grid32, rng):
        U = random_state(grid32, rng)
        dec = decompose(grid32, U)
        qg, osc = dec.qg, dec.osc
        assert l2_norm(decompose(grid32, qg).qg - qg) / l2_norm(qg) <= 1e-12
        assert l2_norm(decompose(grid32, osc).osc - osc) / l2_norm(osc) <= 1e-12

    def test_decomposition_contract(self, grid32, rng):
        U = random_state(grid32, rng)
        dec = decompose(grid32, U)
        assert l2_norm(dec.qg + dec.osc - U) / l2_norm(U) <= 1e-12
        assert (
            l2_norm(potential_vorticity(grid32, dec.osc))
            <= 1e-10 * l2_norm(dec.omega)
        )
        assert l2_norm(decompose(grid32, dec.osc).qg) <= 1e-10 * l2_norm(U)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_hs_orthogonality(self, grid32, rng, s):
        U = random_state(grid32, rng)
        dec = decompose(grid32, U)
        na = sobolev_norm(grid32, dec.osc, s)
        nb = sobolev_norm(grid32, dec.qg, s)
        assert abs(hs_inner(grid32, dec.osc, dec.qg, s)) <= 1e-10 * na * nb

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_skew_coupling_orthogonal_to_osc(self, grid32, rng, s):
        U = random_state(grid32, rng)  # divergence-free
        au = coriolis_buoyancy(U)
        osc = decompose(grid32, U).osc
        bound = 1e-10 * sobolev_norm(grid32, au, s) * sobolev_norm(grid32, osc, s)
        assert abs(hs_inner(grid32, au, osc, s)) <= bound

    def test_qg_part_divergence_free(self, grid32, rng):
        U = random_state(grid32, rng, divergence_free=False)
        assert max_divergence(grid32, decompose(grid32, U).qg) <= 1e-10


class TestCoriolisBuoyancy:
    def test_column_one(self, grid32, rng):
        gfield = random_scalar(grid32, rng)
        U = np.zeros((4,) + grid32.shape, dtype=complex)
        U[0] = gfield
        out = coriolis_buoyancy(U)
        assert np.abs(out[1] - gfield).max() == 0.0
        assert l2_norm(out[0]) == l2_norm(out[2]) == l2_norm(out[3]) == 0.0

    def test_column_three(self, grid32, rng):
        gfield = random_scalar(grid32, rng)
        U = np.zeros((4,) + grid32.shape, dtype=complex)
        U[2] = gfield
        out = coriolis_buoyancy(U, froude=1.0)
        assert np.abs(out[3] + gfield).max() == 0.0
        assert l2_norm(out[:3]) == 0.0

    def test_skew_in_l2_and_h1(self, grid32, rng):
        U = random_state(grid32, rng)
        au = coriolis_buoyancy(U)
        rel_l2 = abs(l2_inner(au, U)) / (l2_norm(au) * l2_norm(U))
        rel_h1 = abs(hs_inner(grid32, au, U, 1.0)) / (
            sobolev_norm(grid32, au, 1.0) * sobolev_norm(grid32, U, 1.0)
        )
        assert rel_l2 <= 1e-12 and rel_h1 <= 1e-12


class TestQGDiffusion:
    def test_horizontal_mode_symbol(self, grid32):
        # froude=1, mode (2 pi / L) e1: multiplier is -nu (2 pi / L)^2
        g = grid32
        x1, _, x3 = g.mesh()
        w = 2 * np.pi / g.box_length
        f = to_spectral(g, np.sin(w * x1))
        out = qg_diffusion_symbol(g, 1e-2, 5e-3, 1.0) * f
        assert np.abs(from_spectral(g, out) + 1e-2 * w**2 * np.sin(w * x1)).max() < 1e-14

    def test_vertical_mode_symbol(self, grid32):
        # froude=1, mode (2 pi / L) e3: multiplier is -nu' (2 pi / L)^2
        g = grid32
        _, _, x3 = g.mesh()
        w = 2 * np.pi / g.box_length
        f = to_spectral(g, np.sin(w * x3))
        out = qg_diffusion_symbol(g, 1e-2, 5e-3, 1.0) * f
        assert np.abs(from_spectral(g, out) + 5e-3 * w**2 * np.sin(w * x3)).max() < 1e-14

    def test_equal_viscosity_collapses_to_laplacian(self, grid32, rng):
        f = random_scalar(grid32, rng)
        out = qg_diffusion_symbol(grid32, 7e-3, 7e-3, 1.0) * f
        ref = -7e-3 * grid32.kd_mag2 * f
        assert l2_norm(out - ref) <= 1e-12 * l2_norm(ref)

    def test_symbol_nonpositive_and_dominates_min_viscosity(self, grid32):
        sym = qg_diffusion_symbol(grid32, 1e-2, 5e-3, 1.0)
        assert sym.max() <= 0.0
        lower = -5e-3 * grid32.kd_mag2
        assert np.all(sym <= lower + 1e-15)

    def test_matches_projected_full_diffusion_on_qg_fields(self, grid32, rng):
        # QG(M U) = gamma U on the propagator's M = L - (1/eps) P A: the
        # rotation term P A U vanishes on balanced U, its QG part with it
        U = qg_field(grid32, rng)
        gam = qg_diffusion_symbol(grid32, 1e-2, 5e-3, 1.0) * U
        M = _linear_symbols(grid32, Params(epsilon=0.05, nu=1e-2, nu_prime=5e-3))
        mu = np.einsum("mab,bm->am", M, U.reshape(4, -1)).reshape(U.shape)
        ref = decompose(grid32, mu).qg
        assert l2_norm(gam - ref) / l2_norm(gam) <= 1e-10


class TestTransportVorticityIdentity:
    def test_commutation_on_qg_fields(self, grid32, rng):
        U = qg_field(grid32, rng)
        lhs = advect(grid32, U[:3], potential_vorticity(grid32, U))
        rhs = potential_vorticity(grid32, advect(grid32, U[:3], U))
        assert l2_norm(lhs - rhs) <= 1e-8 * l2_norm(lhs)

    def test_h1_energy_cancellation(self, grid32, rng):
        U = qg_field(grid32, rng)
        adv = advect(grid32, U[:3], U)
        rel = abs(hs_inner(grid32, adv, U, 1.0)) / (
            sobolev_norm(grid32, adv, 1.0) * sobolev_norm(grid32, U, 1.0)
        )
        assert rel <= 1e-8


class TestOscVorticitySource:
    def test_zero_when_no_oscillating_part(self, grid32, rng):
        U = qg_field(grid32, rng)
        zero = np.zeros_like(U)
        out = osc_vorticity_source(grid32, zero, U, U)
        assert l2_norm(out) == 0.0

    def test_zero_for_pure_qg_with_theta(self, grid32, rng):
        U = qg_field(grid32, rng)
        assert l2_norm(U[3]) > 0  # carries buoyancy
        out = osc_vorticity_source(grid32, np.zeros_like(U), U, U)
        assert l2_norm(out) == 0.0

    def test_single_mode_hand_expansion(self, grid32):
        # v_osc = (0, 0, cos(w x3)), v2 = cos(w x1): only the first term
        # survives and equals w^2 sin(w x3) sin(w x1)
        g = grid32
        x1, _, x3 = g.mesh()
        w = 2 * np.pi / g.box_length
        U_osc = np.zeros((4,) + grid32.shape, dtype=complex)
        U_osc[2] = to_spectral(g, np.cos(w * x3))
        U = np.zeros((4,) + grid32.shape, dtype=complex)
        U[1] = to_spectral(g, np.cos(w * x1))
        U_qg = np.zeros_like(U)
        out = osc_vorticity_source(g, U_osc, U, U_qg)
        expected = w**2 * np.sin(w * x3) * np.sin(w * x1)
        assert np.abs(from_spectral(g, out) - expected).max() < 1e-12

    @pytest.mark.parametrize("froude", [1.0, 0.5])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_bit_identical_to_whole_cube_transforms(self, n, froude):
        # three unrelated band-limited states of white noise; from n = 32 the
        # 18 factors take more than one slab of the pipeline
        g = Grid(n)
        rng = np.random.default_rng([n, int(4 * froude)])
        states = dealias(g, to_spectral(g, rng.standard_normal((3, 4) + (n,) * 3)))
        assert (_slab_planes(n, _plane_bytes(n, 18, 1)) < n) == (n >= 32)
        assert np.array_equal(osc_vorticity_source(g, *states, froude),
                              full_osc_vorticity_source(g, *states, froude))

    @pytest.mark.parametrize("n", [16, 32])
    def test_off_band_modes_are_dropped(self, n):
        # the inputs are cut to the 2/3 band: the source of a state with
        # off-band modes is, bit for bit, that of its dealiased state
        g = Grid(n)
        states = to_spectral(g, np.random.default_rng(n).standard_normal((3, 4) + (n,) * 3))
        assert not np.array_equal(states, dealias(g, states))
        assert np.array_equal(osc_vorticity_source(g, *states, 0.5),
                              osc_vorticity_source(g, *dealias(g, states), 0.5))

    def test_horizontal_variation_term_vanishes(self, grid32):
        # same pair but v_osc3 varying in x1: d3 v_osc3 = 0 kills term one,
        # and d1 v_osc3 multiplies d3 v2 = 0
        g = grid32
        x1, _, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        U_osc = np.zeros((4,) + grid32.shape, dtype=complex)
        U_osc[2] = to_spectral(g, np.cos(w * x1))
        U = np.zeros((4,) + grid32.shape, dtype=complex)
        U[1] = to_spectral(g, np.cos(w * x1))
        out = osc_vorticity_source(g, U_osc, U, np.zeros_like(U))
        assert l2_norm(out) < 1e-15
