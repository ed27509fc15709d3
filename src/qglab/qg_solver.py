r"""Time integration of the quasi-geostrophic limit system.

The evolved unknown is the scalar potential vorticity:

    d pv / dt + v . grad pv = gamma(pv),
    U = biot_savart(pv),  v = velocity part of U,

a transport-diffusion equation closed by the Biot-Savart inversion. The
diffusion multiplier gamma is real and non-positive, so its exponential is a
plain decay factor per mode; stepping uses the same integrating-factor RK4
as the full solver, with the diffusion handled exactly and only advection
entering the stages. The advecting velocity has zero third component, so
each stage costs four scalar transforms in and one out, which go through
the slab pipeline of the spectral module doc; the four stages of a step
share its buffers.

The vorticity lives on the 2/3 band: ``qg_run`` cuts ``omega0`` to it, as
``pe_run`` cuts U0, and ``qg_step`` and ``qg_rhs`` raise ValueError on a
field with modes outside it. ``qg_run`` steps the band in the compact layout
of the spectral module doc, through the run loop ``pe_solver._run`` that
makes every conversion, with its inverse-Laplacian symbol and diffusion
factor built once per run; ``qg_step`` and ``qg_rhs`` keep the half-spectrum
and convert per call.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .diagnostics import S_LIST, _hs_norms, hs_channel
from .operators import biot_savart, qg_diffusion_symbol
from .pe_solver import _lawson_rk4, _run
from .spectral import (
    _anisotropic_symbol,
    _band_pipeline,
    _pipeline_buffers,
    _require_band,
    _solve_anisotropic,
    enforce_mean_zero,
)

__all__ = ["qg_rhs", "qg_step", "qg_run"]


def qg_rhs(grid, omega, params):
    """Advection term -v . grad pv (diffusion is handled exactly elsewhere)
    of a vorticity on the 2/3 band; ValueError otherwise."""
    omega = np.asarray(omega)
    grid.check_shape(omega)
    _require_band(grid, omega, "qg_rhs")
    return _qg_rhs(grid, omega, params.froude)


def _qg_rhs(grid, omega, froude):
    """qg_rhs without its checks, at Froude number ``froude``."""
    band = grid._band
    return band.expand(_qg_rhs_band(grid, band.cut(omega),
                                    _anisotropic_symbol(band, froude)))


def _qg_rhs_band(grid, omega, sym, buffers=None):
    """-v . grad pv of a compact vorticity, compact; ``sym`` is the compact
    symbol of the inverse anisotropic Laplacian (``spectral._anisotropic_symbol``)."""
    band = grid._band
    ikd1, ikd2 = 1j * band.kd1, 1j * band.kd2
    phi = _solve_anisotropic(omega, sym)
    batch = np.empty((4,) + band.shape, dtype=np.complex128)
    np.multiply(-ikd2, phi, out=batch[0])   # v1
    np.multiply(ikd1, phi, out=batch[1])    # v2
    np.multiply(ikd1, omega, out=batch[2])  # d1 pv
    np.multiply(ikd2, omega, out=batch[3])  # d2 pv
    return _band_pipeline(grid, batch, _negative_transport, 1, buffers)[0]


def _negative_transport(p):
    """-(v1 d1 pv + v2 d2 pv) of a physical slab (v1, v2, d1 pv, d2 pv),
    shape (1, S, n, n), written over p."""
    prod = np.multiply(p[0], p[2], out=p[0])
    prod += np.multiply(p[1], p[3], out=p[1])
    return np.negative(prod, out=prod)[None]


def _qg_stepper(grid, dt, params):
    """The step of compact vorticities, without checks or conversions. The
    four right-hand sides of a step share one set of slab-pipeline buffers,
    freed with the step."""
    band = grid._band
    sym = qg_diffusion_symbol(band, params.nu, params.nu_prime, params.froude)
    rhs = partial(_qg_rhs_band, grid, sym=_anisotropic_symbol(band, params.froude))
    expo_half = partial(np.multiply, np.exp(0.5 * dt * sym))

    def step(omega):
        return _lawson_rk4(omega, dt, partial(rhs, buffers=_pipeline_buffers(grid, 4, 1)),
                           expo_half)

    return step


def qg_step(grid, omega, dt, params):
    """One integrating-factor RK4 step with the exact diffusion factor, of a
    vorticity on the 2/3 band; ValueError otherwise."""
    omega = np.asarray(omega)
    grid.check_shape(omega)
    _require_band(grid, omega, "qg_step")
    band = grid._band
    return band.expand(_qg_stepper(grid, dt, params)(band.cut(omega)))


def qg_run(grid, omega0, params, t_end, dt, diag):
    """Integrate the vorticity to t_end into a ``pe_solver.RunRecord``.

    omega0 is cut to the 2/3 band. Each record holds the H^0 and H^1 norms
    of the vorticity and the H^s norms of its Biot-Savart state for s in
    ``diagnostics.S_LIST``, evaluated on the compact band as in ``pe_run``.
    A vorticity copy is kept at each record that ``diag.snapshot_every``
    divides, as in ``pe_run``. The vorticity L2 norm must not grow; at desk
    scale a triggered blow-up guard means a defect, not physics.
    """
    omega0 = np.asarray(omega0)
    grid.check_shape(omega0)
    band = grid._band
    fields = {"omega": (0.0, 1.0), "Uqg": S_LIST}
    weights = {f: band.norm_weights(s) for f, s in fields.items()}
    names = {f: [hs_channel(f, x) for x in s] for f, s in fields.items()}

    def channels(step, t, om):
        # on the compact band: each field's norms in one fused reduction
        values = dict(zip(names["omega"], _hs_norms(om, weights["omega"])))
        U = biot_savart(band, om, params.froude)
        values.update(zip(names["Uqg"], _hs_norms(U, weights["Uqg"])))
        return values

    return _run(
        grid, params, t_end, dt, diag, omega0,
        prepare=enforce_mean_zero,
        make_step=lambda: _qg_stepper(grid, dt, params),
        guard=("vorticity L2 norm", 0.0),
        channels=channels,
    )
