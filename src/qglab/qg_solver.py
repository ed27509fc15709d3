r"""Time integration of the quasi-geostrophic limit system.

The evolved unknown is the scalar potential vorticity:

    d pv / dt + v . grad pv = gamma(pv),
    U = biot_savart(pv),  v = velocity part of U,

a transport-diffusion equation closed by the Biot-Savart inversion. The
diffusion multiplier gamma is real and non-positive, so its exponential is a
plain decay factor per mode; stepping uses the same integrating-factor RK4
as the full solver, with the diffusion handled exactly and only advection
entering the stages. The advecting velocity has zero third component, so
each stage costs four scalar transforms, whose inverse skips the lines the
2/3 band leaves at zero (see the spectral module doc).

The vorticity lives on the 2/3 band: ``qg_run`` cuts ``omega0`` to it, as
``pe_run`` cuts U0, and ``qg_step`` and ``qg_rhs`` raise ValueError on a
field with modes outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .diagnostics import NormSeries, hs_channel, sobolev_norm
from .operators import biot_savart, qg_diffusion_symbol
from .pe_solver import BlowUpError, _lawson_rk4, _step_count
from .spectral import (
    _band_to_physical,
    _require_band,
    dealias,
    enforce_mean_zero,
    inverse_anisotropic_laplacian,
    l2_norm,
    spectral_product,
)

__all__ = ["qg_rhs", "qg_step", "qg_run", "QGRunRecord"]


def qg_rhs(grid, omega, params):
    """Advection term -v . grad pv (diffusion is handled exactly elsewhere)
    of a vorticity on the 2/3 band; ValueError otherwise."""
    omega = np.asarray(omega)
    grid.check_shape(omega)
    _require_band(grid, omega, "qg_rhs")
    return _qg_rhs(grid, omega, params)


def _qg_rhs(grid, omega, params):
    """qg_rhs without its checks."""
    ikd1, ikd2 = 1j * grid.kd1, 1j * grid.kd2
    phi = inverse_anisotropic_laplacian(grid, omega, params.froude)
    batch = np.empty((4,) + grid.shape, dtype=np.complex128)
    np.multiply(-ikd2, phi, out=batch[0])   # v1
    np.multiply(ikd1, phi, out=batch[1])    # v2
    np.multiply(ikd1, omega, out=batch[2])  # d1 pv
    np.multiply(ikd2, omega, out=batch[3])  # d2 pv
    p = _band_to_physical(grid, batch)
    prod = np.multiply(p[0], p[2], out=p[0])
    prod += np.multiply(p[1], p[3], out=p[1])
    return spectral_product(grid, np.negative(prod, out=prod))


def qg_step(grid, omega, dt, params):
    """One integrating-factor RK4 step with the exact diffusion factor, of a
    vorticity on the 2/3 band; ValueError otherwise."""
    grid.check_shape(omega)
    _require_band(grid, omega, "qg_step")
    sym = qg_diffusion_symbol(grid, params.nu, params.nu_prime, params.froude)
    return _lawson_rk4(omega, dt, partial(_qg_rhs, grid, params=params),
                       partial(np.multiply, np.exp(0.5 * dt * sym)))


@dataclass
class QGRunRecord:
    """Diagnostics and optional vorticity snapshots of one limit-system run.

    Vorticity snapshots are stored at the records that
    ``diag.snapshot_every`` divides; the velocity-form snapshots are exact
    multiplier reconstructions, available through :meth:`u_snapshot`.
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

    omega0 is cut to the 2/3 band. A vorticity copy is kept at each record
    that ``diag.snapshot_every`` divides, as in ``pe_run``. The vorticity L2
    norm must not grow; at desk scale a triggered blow-up guard means a
    defect, not physics.
    """
    omega0 = np.asarray(omega0)
    grid.check_shape(omega0)
    n_steps = _step_count(t_end, dt)
    if diag.snapshot_every and diag.snapshot_every % diag.cadence != 0:
        raise ValueError("snapshot_every must be a multiple of the diag cadence")

    sym = qg_diffusion_symbol(grid, params.nu, params.nu_prime, params.froude)
    rhs = partial(_qg_rhs, grid, params=params)
    ehalf = partial(np.multiply, np.exp(0.5 * dt * sym))

    omega = enforce_mean_zero(dealias(grid, omega0.astype(np.complex128)))
    series = NormSeries()
    snapshot_times, omega_snapshots = [], []
    l2_initial = l2_norm(omega)

    def record(step, t, om):
        U = biot_savart(grid, om, params.froude)
        values = {
            hs_channel("omega", 0.0): sobolev_norm(grid, om, 0.0),
            hs_channel("omega", 1.0): sobolev_norm(grid, om, 1.0),
        }
        for s in diag.s_list:
            values[hs_channel("Uqg", s)] = sobolev_norm(grid, U, s)
        series.append(t, values)
        if diag.snapshot_every and step % diag.snapshot_every == 0:
            snapshot_times.append(t)
            omega_snapshots.append(om.copy())

    record(0, 0.0, omega)

    for step in range(1, n_steps + 1):
        t = step * dt
        omega = _lawson_rk4(omega, dt, rhs, ehalf)
        if not np.isfinite(omega.view(np.float64)).all():
            raise BlowUpError(t, "non-finite vorticity")
        if l2_initial > 0 and l2_norm(omega) > 1e6 * l2_initial:
            raise BlowUpError(t, "vorticity L2 norm grew by 1e6")
        if step % diag.cadence == 0 or step == n_steps:
            record(step, t, omega)

    return QGRunRecord(
        grid=grid,
        params=params,
        dt=dt,
        series=series,
        snapshot_times=snapshot_times,
        omega_snapshots=omega_snapshots,
        final_omega=omega,
    )
