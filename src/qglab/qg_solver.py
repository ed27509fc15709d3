r"""Time integration of the quasi-geostrophic limit system.

The evolved unknown is the scalar potential vorticity:

    d pv / dt + v . grad pv = gamma(pv),
    U = biot_savart(pv),  v = velocity part of U,

a transport-diffusion equation closed by the Biot-Savart inversion. The
diffusion multiplier gamma is real and non-positive, so its exponential is a
plain decay factor per mode; stepping uses the same integrating-factor RK4
as the full solver, with the diffusion handled exactly and only advection
entering the stages. The advecting velocity has zero third component, so
each stage costs four scalar transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .diagnostics import NormSeries, hs_channel, sobolev_norm
from .operators import biot_savart, qg_diffusion_symbol
from .pe_solver import BlowUpError, _lawson_rk4, _step_count
from .spectral import (
    derivative,
    enforce_mean_zero,
    from_spectral,
    inverse_anisotropic_laplacian,
    l2_norm,
    spectral_product,
)

__all__ = ["qg_rhs", "qg_step", "qg_run", "QGRunRecord"]


def qg_rhs(grid, omega, params):
    """Advection term -v . grad pv (diffusion is handled exactly elsewhere)."""
    grid.check_shape(np.asarray(omega))
    phi = inverse_anisotropic_laplacian(grid, omega, params.froude)
    p = from_spectral(grid, np.stack([
        -derivative(grid, phi, 2),   # v1
        derivative(grid, phi, 1),    # v2
        derivative(grid, omega, 1),  # d1 pv
        derivative(grid, omega, 2),  # d2 pv
    ]))
    prod = p[0] * p[2] + p[1] * p[3]
    return -spectral_product(grid, prod)


def qg_step(grid, omega, dt, params):
    """One integrating-factor RK4 step with the exact diffusion factor."""
    sym = qg_diffusion_symbol(grid, params.nu, params.nu_prime, params.froude)
    return _lawson_rk4(omega, dt, partial(qg_rhs, grid, params=params),
                       partial(np.multiply, np.exp(0.5 * dt * sym)))


@dataclass
class QGRunRecord:
    """Diagnostics and vorticity snapshots of one limit-system run.

    Vorticity snapshots are stored at the diagnostic cadence; the
    velocity-form snapshots are exact multiplier reconstructions, available
    through :meth:`u_snapshot`.
    """

    grid: object
    params: object
    dt: float
    series: NormSeries
    snapshot_times: list
    omega_snapshots: list
    final_omega: np.ndarray

    def u_snapshot(self, i):
        return biot_savart(self.grid, self.omega_snapshots[i],
                           self.params.froude)


def qg_run(grid, omega0, params, t_end, dt, diag):
    """Integrate the vorticity to t_end recording diagnostics.

    The vorticity L2 norm must not grow; at desk scale a triggered blow-up
    guard means a defect, not physics.
    """
    omega0 = np.asarray(omega0)
    grid.check_shape(omega0)
    n_steps = _step_count(t_end, dt)

    sym = qg_diffusion_symbol(grid, params.nu, params.nu_prime, params.froude)
    rhs = partial(qg_rhs, grid, params=params)
    ehalf = partial(np.multiply, np.exp(0.5 * dt * sym))

    omega = enforce_mean_zero(omega0.astype(np.complex128))
    series = NormSeries()
    snapshot_times, omega_snapshots = [], []
    l2_initial = l2_norm(omega)

    def record(t, om):
        U = biot_savart(grid, om, params.froude)
        values = {
            hs_channel("omega", 0.0): sobolev_norm(grid, om, 0.0),
            hs_channel("omega", 1.0): sobolev_norm(grid, om, 1.0),
        }
        for s in diag.s_list:
            values[hs_channel("Uqg", s)] = sobolev_norm(grid, U, s)
        series.append(t, values)
        snapshot_times.append(t)
        omega_snapshots.append(om.copy())

    record(0.0, omega)

    for step in range(1, n_steps + 1):
        t = step * dt
        omega = _lawson_rk4(omega, dt, rhs, ehalf)
        omega = enforce_mean_zero(omega)
        if not np.isfinite(omega.view(np.float64)).all():
            raise BlowUpError(t, "non-finite vorticity")
        if l2_initial > 0 and l2_norm(omega) > 1e6 * l2_initial:
            raise BlowUpError(t, "vorticity L2 norm grew by 1e6")
        if step % diag.cadence == 0 or step == n_steps:
            record(t, omega)

    return QGRunRecord(
        grid=grid,
        params=params,
        dt=dt,
        series=series,
        snapshot_times=snapshot_times,
        omega_snapshots=omega_snapshots,
        final_omega=omega,
    )
