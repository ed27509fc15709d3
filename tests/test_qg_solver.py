import numpy as np
import pytest

from qglab import (
    Params,
    biot_savart,
    energy_check,
    l2_inner,
    l2_norm,
    potential_vorticity,
    qg_diffusion_symbol,
    qg_rhs,
    qg_run,
    qg_step,
    random_scalar,
    to_spectral,
)
from qglab.config import DiagConfig


def diag(cadence=10):
    return DiagConfig(s_list=(-1.0, 0.0, 0.5, 1.0, 1.5), cadence=cadence)


class TestQGRhs:
    def test_zero(self, grid16, params):
        om = np.zeros(grid16.shape, dtype=complex)
        assert l2_norm(qg_rhs(grid16, om, params)) == 0.0

    def test_single_mode_self_advection_vanishes(self, grid16, params):
        # one mode: velocity is perpendicular to the vorticity gradient
        g = grid16
        x1, x2, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        om = to_spectral(g, np.sin(w * x1) * np.cos(2 * w * x2))
        assert l2_norm(qg_rhs(g, om, params)) <= 1e-14 * l2_norm(om)

    def test_advection_conserves_l2(self, grid16, rng, params):
        om = random_scalar(grid16, rng)
        rhs = qg_rhs(grid16, om, params)
        assert abs(l2_inner(rhs, om)) <= 1e-8 * l2_norm(rhs) * l2_norm(om)

    def test_matches_velocity_form_advection(self, grid16, rng, params):
        from qglab import advect_scalar

        om = random_scalar(grid16, rng)
        v = biot_savart(grid16, om, params.froude)[:3]
        ref = -advect_scalar(grid16, v, om)
        assert np.abs(qg_rhs(grid16, om, params) - ref).max() < 1e-15


class TestQGStep:
    def test_single_mode_exact_decay(self, grid16, params):
        # advection vanishes on one mode, so the step is the exact
        # diffusion factor exp(gamma dt)
        g = grid16
        x1, _, x3 = g.mesh()
        w = 2 * np.pi / g.box_length
        om0 = to_spectral(g, np.sin(w * x1) * np.cos(w * x3))
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


class TestQGRun:
    def test_zero_run(self, grid16, params):
        om0 = np.zeros(grid16.shape, dtype=complex)
        rec = qg_run(grid16, om0, params, 0.1, 0.01, diag())
        assert l2_norm(rec.final_omega) == 0.0
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
        rec = qg_run(grid16, om0, params, 0.1, 0.01, diag())
        for i in (0, len(rec.omega_snapshots) - 1):
            U = rec.u_snapshot(i)
            back = potential_vorticity(grid16, U, params.froude)
            assert l2_norm(back - rec.omega_snapshots[i]) <= 1e-12 * l2_norm(back)

    def test_self_convergence_order_four(self, grid16, rng):
        p = Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3)
        om0 = random_scalar(grid16, rng)
        finals = {}
        for dt in (0.02, 0.01, 0.005):
            finals[dt] = qg_run(grid16, om0, p, 0.1, dt, diag()).final_omega
        e1 = l2_norm(finals[0.02] - finals[0.01])
        e2 = l2_norm(finals[0.01] - finals[0.005])
        order = np.log2(e1 / e2)
        assert abs(order - 4.0) <= 0.5

    def test_rejects_time_grid_mismatch(self, grid16, rng, params):
        om0 = random_scalar(grid16, rng)
        with pytest.raises(ValueError):
            qg_run(grid16, om0, params, 0.1, 0.03, diag())
