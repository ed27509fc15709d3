"""Well-prepared initial data for the convergence experiments.

The balanced part is the Biot-Savart reconstruction of a random smooth
vorticity with a Gaussian ring spectrum around |k| = spectrum_peak_k, scaled
to a target H^1 norm; it depends only on the seed, never on epsilon. The
oscillating part is the oscillating projection of an independent smooth
divergence-free draw, scaled to a target H^-1 norm (c * epsilon for the
well-prepared families driven by the sweep), with an extra spectral factor
(1 + |k|)^(-delta) biasing it toward smoother content. The sum is mean-zero
and exactly divergence-free by construction; it is re-projected once more on
the way out so the solver precondition holds to roundoff.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigError
from .operators import biot_savart, decompose
from .diagnostics import S_LIST, _hs_norms, sobolev_norm
from .spectral import enforce_mean_zero, leray_project, random_scalar

__all__ = ["make_well_prepared_data"]


def make_well_prepared_data(grid, config, *, osc_h_minus1=None):
    """Build the configured initial state (balanced + small oscillating).

    ``osc_h_minus1`` overrides the target H^-1 norm of the oscillating part;
    by default it is init.osc_amplitude * params.epsilon. Extreme box lengths
    and amplitudes raise :class:`ConfigError`: a draw vanishes or overflows.
    """
    init = config.init
    froude = config.params.froude
    if osc_h_minus1 is None:
        osc_h_minus1 = init.osc_amplitude * config.params.epsilon

    rng = np.random.default_rng(init.seed)
    omega_raw = random_scalar(grid, rng, init.spectrum_peak_k)
    U_qg = np.zeros((4,) + grid.shape, dtype=np.complex128)
    if init.qg_amplitude > 0:
        qg_raw = biot_savart(grid, omega_raw, froude)
        h1 = sobolev_norm(grid, qg_raw, 1.0)
        if h1 == 0:
            raise ConfigError("balanced draw vanished; change grid.box_length,"
                              " init.seed or init.spectrum_peak_k")
        U_qg = (init.qg_amplitude / h1) * qg_raw

    U_osc = np.zeros_like(U_qg)
    if osc_h_minus1 > 0:
        osc_rng = np.random.default_rng((init.seed, 1, 0))
        raw = np.stack([random_scalar(grid, osc_rng, init.spectrum_peak_k,
                                      init.osc_extra_smoothness) for _ in range(4)])
        candidate = decompose(grid, leray_project(grid, raw), froude).osc
        hm1 = sobolev_norm(grid, candidate, -1.0)
        if not hm1 > 1e-12:
            raise ConfigError("oscillating draw vanished; change grid.box_length,"
                              " init.spectrum_peak_k or init.osc_extra_smoothness")
        U_osc = (osc_h_minus1 / hm1) * candidate

    U0 = enforce_mean_zero(leray_project(grid, U_qg + U_osc))
    # U0 is band-limited, so its norms are those of its band
    band = grid._band
    if not np.isfinite(_hs_norms(band.cut(U0), band.norm_weights(S_LIST))).all():
        raise ConfigError("initial data have a non-finite H^s norm; change "
                          "init.qg_amplitude, init.osc_amplitude or grid.box_length")
    return U0
