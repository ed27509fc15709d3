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

from functools import partial

import numpy as np

from .diagnostics import S_LIST, hs_channel, sobolev_norm
from .operators import biot_savart, qg_diffusion_symbol
from .pe_solver import _lawson_rk4, _run
from .spectral import (
    _band_to_physical,
    _require_band,
    dealias,
    enforce_mean_zero,
    inverse_anisotropic_laplacian,
    l2_norm,
    spectral_product,
)

__all__ = ["qg_rhs", "qg_step", "qg_run"]


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


def _qg_stepper(grid, dt, params):
    """qg_step without its checks, as a function of the vorticity."""
    sym = qg_diffusion_symbol(grid, params.nu, params.nu_prime, params.froude)
    return partial(_lawson_rk4, h=dt, rhs=partial(_qg_rhs, grid, params=params),
                   expo_half=partial(np.multiply, np.exp(0.5 * dt * sym)))


def qg_step(grid, omega, dt, params):
    """One integrating-factor RK4 step with the exact diffusion factor, of a
    vorticity on the 2/3 band; ValueError otherwise."""
    grid.check_shape(omega)
    _require_band(grid, omega, "qg_step")
    return _qg_stepper(grid, dt, params)(omega)


def qg_run(grid, omega0, params, t_end, dt, diag):
    """Integrate the vorticity to t_end into a ``pe_solver.RunRecord``.

    omega0 is cut to the 2/3 band. A vorticity copy is kept at each record
    that ``diag.snapshot_every`` divides, as in ``pe_run``. The vorticity L2
    norm must not grow; at desk scale a triggered blow-up guard means a
    defect, not physics.
    """
    omega0 = np.asarray(omega0)
    grid.check_shape(omega0)

    def channels(step, t, om):
        U = biot_savart(grid, om, params.froude)
        values = {
            hs_channel("omega", 0.0): sobolev_norm(grid, om, 0.0),
            hs_channel("omega", 1.0): sobolev_norm(grid, om, 1.0),
        }
        for s in S_LIST:
            values[hs_channel("Uqg", s)] = sobolev_norm(grid, U, s)
        return values

    return _run(
        grid, params, t_end, dt, diag, omega0,
        cut=lambda om: enforce_mean_zero(dealias(grid, om.astype(np.complex128))),
        make_step=lambda: _qg_stepper(grid, dt, params),
        guard=("vorticity L2 norm", l2_norm),
        channels=channels,
    )
