import numpy as np
import pytest

import qglab.qg_solver
from qglab import (
    BlowUpError,
    Grid,
    Params,
    biot_savart,
    dealias,
    energy_check,
    l2_inner,
    l2_norm,
    potential_vorticity,
    qg_diffusion_symbol,
    qg_rhs,
    qg_run,
    qg_step,
    random_scalar,
    sobolev_norm,
    to_spectral,
)
from qglab.config import DiagConfig
from qglab.diagnostics import _hs_norms, hs_channel

from half_spectrum import (
    assert_channels_match,
    count_fields,
    half_spectrum_qg_channels,
    patch_full_transforms,
)


def diag(cadence=10, snapshot_every=0):
    return DiagConfig(cadence=cadence, snapshot_every=snapshot_every)


def full_band_vorticity(grid):
    """Mean-zero white noise with modes outside the 2/3 band."""
    om = 0.1 * to_spectral(grid, np.random.default_rng(9).standard_normal((grid.n,) * 3))
    om[0, 0, 0] = 0.0
    assert np.any(om[~grid.dealias_mask])
    return om


class TestQGRhs:
    def test_zero(self, grid16, params):
        om = np.zeros(grid16.shape, dtype=complex)
        assert l2_norm(qg_rhs(grid16, om, params)) == 0.0

    def test_single_mode_self_advection_vanishes(self, grid16, params):
        # one mode: velocity is perpendicular to the vorticity gradient
        # (the cut drops the transform's roundoff off the band)
        g = grid16
        x1, x2, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        om = dealias(g, to_spectral(g, np.sin(w * x1) * np.cos(2 * w * x2)))
        assert l2_norm(qg_rhs(g, om, params)) <= 1e-14 * l2_norm(om)

    def test_advection_conserves_l2(self, grid16, rng, params):
        om = random_scalar(grid16, rng)
        rhs = qg_rhs(grid16, om, params)
        assert abs(l2_inner(rhs, om)) <= 1e-8 * l2_norm(rhs) * l2_norm(om)

    def test_matches_velocity_form_advection(self, grid16, rng, params):
        from qglab import advect

        om = random_scalar(grid16, rng)
        v = biot_savart(grid16, om, params.froude)[:3]
        ref = -advect(grid16, v, om)
        assert np.abs(qg_rhs(grid16, om, params) - ref).max() < 1e-15

    @pytest.mark.parametrize("n", [16, 32])
    def test_pruned_inverse_is_bit_identical(self, n, params, monkeypatch):
        # the reference takes the full irfftn and the masked rfftn of the
        # same batches, in place of both compact passes
        grid = Grid(n)
        om = random_scalar(grid, np.random.default_rng(n))
        got = qg_rhs(grid, om, params)
        patch_full_transforms(monkeypatch, qglab.qg_solver)
        assert np.array_equal(got, qg_rhs(grid, om, params))

    def test_rejects_off_band_vorticity(self, grid16, params):
        om = full_band_vorticity(grid16)
        with pytest.raises(ValueError, match="2/3 band"):
            qg_rhs(grid16, om, params)


class TestQGStep:
    def test_single_mode_exact_decay(self, grid16, params):
        # advection vanishes on one mode, so the step is the exact
        # diffusion factor exp(gamma dt); the cut drops the transform's
        # roundoff off the band
        g = grid16
        x1, _, x3 = g.mesh()
        w = 2 * np.pi / g.box_length
        om0 = dealias(g, to_spectral(g, np.sin(w * x1) * np.cos(w * x3)))
        sym = qg_diffusion_symbol(g, params.nu, params.nu_prime, params.froude)
        om = om0.copy()
        t, dt = 0.0, 0.01
        for _ in range(50):
            om = qg_step(g, om, dt, params)
            t += dt
        exact = np.exp(t * sym) * om0
        assert l2_norm(om - exact) <= 1e-10 * l2_norm(exact)

    def test_zero(self, grid16, params):
        om = np.zeros(grid16.shape, dtype=complex)
        assert l2_norm(qg_step(grid16, om, 0.01, params)) == 0.0

    def test_rejects_off_band_vorticity(self, grid16, params):
        om = full_band_vorticity(grid16)
        with pytest.raises(ValueError, match="2/3 band"):
            qg_step(grid16, om, 0.01, params)
        assert np.isfinite(qg_step(grid16, dealias(grid16, om), 0.01, params)).all()

    def test_accepts_nested_lists(self, grid8, params):
        om = random_scalar(grid8, np.random.default_rng(2))
        assert np.array_equal(qg_step(grid8, om.tolist(), 0.01, params),
                              qg_step(grid8, om, 0.01, params))

    def test_transform_counts(self, grid8, params, monkeypatch):
        # 4 fields in and 1 out per evaluation, 4 evaluations per step
        om = random_scalar(grid8, np.random.default_rng(2))
        with count_fields(monkeypatch) as fields:
            qg_step(grid8, om, 0.01, params)
        assert fields() == 4 * (4 + 1)


class TestQGRun:
    @pytest.mark.parametrize("froude", [1.0, 0.5])
    @pytest.mark.parametrize("n", [16, 32])
    def test_run_is_a_loop_of_public_steps(self, n, froude):
        # the compact run loop against qg_step on the half-spectrum, bit for
        # bit; the channels are the band norms of the stepped vorticities, bit
        # for bit, and their half-spectrum norms to 1e-14
        grid = Grid(n)
        p = Params(epsilon=0.02, nu=1e-2, nu_prime=5e-3, froude=froude)
        om = dealias(grid, random_scalar(grid, np.random.default_rng([n, 3])))
        rec = qg_run(grid, om, p, 0.02, 1e-3, diag(cadence=5, snapshot_every=5))
        states = [om]
        for _ in range(20):
            om = qg_step(grid, om, 1e-3, p)
            states.append(om)
        assert all(np.array_equal(got, want)
                   for got, want in zip(rec.snapshots, states[::5], strict=True))
        assert np.array_equal(rec.final_state, states[-1])
        band = grid._band
        weights = band.norm_weights((0.0, 1.0))
        norms = np.array([_hs_norms(band.cut(w), weights) for w in states[::5]])
        for j, s in enumerate((0.0, 1.0)):
            got = rec.series.channel(hs_channel("omega", s))
            assert np.array_equal(got, norms[:, j])
            want = [sobolev_norm(grid, w, s) for w in states[::5]]
            assert np.abs(got - want).max() <= 1e-14 * max(want)

    @pytest.mark.parametrize("froude", [1.0, 0.5])
    @pytest.mark.parametrize("n", [16, 32])
    def test_channels_match_the_half_spectrum(self, n, froude):
        # every record's band evaluation against the half-spectrum one
        grid = Grid(n)
        p = Params(epsilon=0.02, nu=1e-2, nu_prime=5e-3, froude=froude)
        om = dealias(grid, random_scalar(grid, np.random.default_rng([n, 3])))
        rec = qg_run(grid, om, p, 0.01, 1e-3, diag(cadence=2, snapshot_every=2))
        assert_channels_match(rec.series, [
            half_spectrum_qg_channels(grid, w, froude) for w in rec.snapshots])

    def test_zero_run(self, grid16, params):
        om0 = np.zeros(grid16.shape, dtype=complex)
        rec = qg_run(grid16, om0, params, 0.1, 0.01, diag())
        assert l2_norm(rec.final_state) == 0.0
        assert all(v == 0.0 for v in rec.series.channels["hs_omega_0"])

    def test_l2_never_increases(self, grid16, rng, params):
        om0 = random_scalar(grid16, rng)
        rec = qg_run(grid16, om0, params, 0.5, 0.005, diag())
        e = rec.series.channel("hs_omega_0")
        assert np.all(e[1:] <= e[:-1] * (1 + 1e-8))

    def test_energy_inequality(self, grid16, rng, params):
        om0 = random_scalar(grid16, rng)
        rec = qg_run(grid16, om0, params, 0.5, 0.005, diag())
        report = energy_check(rec.series, params.nu, params.nu_prime,
                              field="omega")
        assert report.passed

    def test_velocity_snapshots_reconstruct(self, grid16, rng, params):
        om0 = random_scalar(grid16, rng)
        rec = qg_run(grid16, om0, params, 0.1, 0.01, diag(snapshot_every=10))
        for i in (0, len(rec.snapshots) - 1):
            U = biot_savart(grid16, rec.snapshots[i], params.froude)
            back = potential_vorticity(grid16, U, params.froude)
            assert l2_norm(back - rec.snapshots[i]) <= 1e-12 * l2_norm(back)

    def test_default_diag_keeps_no_snapshot(self, grid16, rng, params):
        rec = qg_run(grid16, random_scalar(grid16, rng), params, 0.1, 0.01, diag())
        assert rec.snapshot_times == [] and rec.snapshots == []
        assert len(rec.series) == 2

    def test_snapshot_cadence_must_align(self, grid16, rng, params):
        with pytest.raises(ValueError, match="snapshot_every"):
            qg_run(grid16, random_scalar(grid16, rng), params, 0.1, 0.01,
                   diag(snapshot_every=15))

    def test_self_convergence_order_four(self, grid16, rng):
        p = Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3)
        om0 = random_scalar(grid16, rng)
        finals = {}
        for dt in (0.02, 0.01, 0.005):
            finals[dt] = qg_run(grid16, om0, p, 0.1, dt, diag()).final_state
        e1 = l2_norm(finals[0.02] - finals[0.01])
        e2 = l2_norm(finals[0.01] - finals[0.005])
        order = np.log2(e1 / e2)
        assert abs(order - 4.0) <= 0.5

    def test_initial_vorticity_cut_to_the_band(self, grid16, params):
        # a full-band vorticity runs exactly as its 2/3-band part
        om0 = full_band_vorticity(grid16)
        finals = [qg_run(grid16, om, params, 0.05, 0.01, diag()).final_state
                  for om in (om0, dealias(grid16, om0))]
        assert np.array_equal(finals[0], finals[1])

    def test_blow_up_detection(self, grid8):
        # huge, nearly inviscid data: advection overflows the guard
        om0 = 1e8 * random_scalar(grid8, np.random.default_rng(7))
        p = Params(epsilon=1e-2, nu=1e-30, nu_prime=1e-30)
        with pytest.raises(BlowUpError) as info:
            qg_run(grid8, om0, p, 1.0, 0.01, diag())
        steps = round(info.value.time / 0.01)
        assert steps >= 1 and info.value.time == steps * 0.01

    def test_rejects_time_grid_mismatch(self, grid16, rng, params):
        om0 = random_scalar(grid16, rng)
        with pytest.raises(ValueError):
            qg_run(grid16, om0, params, 0.1, 0.03, diag())
