r"""Structural operators of the quasi-geostrophic decomposition.

A 4-component state U = (v1, v2, v3, theta) carries the scalar potential
vorticity

    pv(U) = d1 v2 - d2 v1 - F d3 theta.

Per Fourier mode the real vector r(xi) = (-xi2, xi1, 0, -F*xi3) spans the
quasi-geostrophic subspace: the Biot-Savart inversion is
U = r(xi) * pv_hat / |r(xi)|^2 (equivalently (-d2, d1, 0, -F d3) applied to
the inverse anisotropic Laplacian of the vorticity). :func:`decompose`, the
one QG/oscillating split, takes the mode-wise orthogonal projection onto
r(xi) as the QG part; the complement carries the fast oscillations. The two
parts are orthogonal in every H^s mode by mode, QG fields are divergence-free
(xi . (-xi2, xi1, 0) = 0), and a field is oscillating iff its potential
vorticity vanishes.

The skew coupling matrix rotates the horizontal velocity and exchanges
vertical velocity with buoyancy:

    A U = (-v2, v1, theta/F, -v3/F),

the anisotropic diffusion L U = (nu lap v, nu' lap theta) is the diagonal of
the propagator's symbol (``pe_solver._symbols``), and the limit dynamics
dissipate vorticity through the order-2 multiplier

    gamma(xi) = -|xi|^2 (nu (xi1^2 + xi2^2) + nu' F^2 xi3^2)
                / (xi1^2 + xi2^2 + F^2 xi3^2),

which collapses to nu d11 + nu d22 + nu' d33 at F = 1 and to nu*lap when
nu = nu'. For quasi-geostrophic U the identity gamma(U) = QG(L U) holds mode
by mode; ``checks.structure_defects`` checks it on that symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .spectral import (
    derivative,
    from_spectral,
    inverse_anisotropic_laplacian,
    spectral_product,
)

__all__ = [
    "potential_vorticity",
    "biot_savart",
    "decompose",
    "Decomposition",
    "coriolis_buoyancy",
    "qg_diffusion_symbol",
    "osc_vorticity_source",
]


def potential_vorticity(grid, U, froude=1.0):
    """pv(U) = d1 v2 - d2 v1 - F d3 theta."""
    return (
        derivative(grid, U[1], 1)
        - derivative(grid, U[0], 2)
        - froude * derivative(grid, U[3], 3)
    )


def biot_savart(grid, omega, froude=1.0):
    """Reconstruct the quasi-geostrophic state with the given vorticity."""
    phi = inverse_anisotropic_laplacian(grid, omega, froude)
    return np.stack(
        [
            -derivative(grid, phi, 2),
            derivative(grid, phi, 1),
            np.zeros_like(phi),
            -froude * derivative(grid, phi, 3),
        ]
    )


@dataclass
class Decomposition:
    """QG/oscillating split of a state plus its potential vorticity."""

    qg: np.ndarray
    osc: np.ndarray
    omega: np.ndarray


def decompose(grid, U, froude=1.0):
    """The QG part biot_savart(pv(U)), the oscillating rest U - QG, and pv(U)."""
    omega = potential_vorticity(grid, U, froude)
    qg = biot_savart(grid, omega, froude)
    return Decomposition(qg=qg, osc=U - qg, omega=omega)


def coriolis_buoyancy(U, froude=1.0):
    """Pointwise skew coupling (-v2, v1, theta/F, -v3/F)."""
    return np.stack([-U[1], U[0], U[3] / froude, -U[2] / froude])


def qg_diffusion_symbol(grid, nu, nu_prime, froude=1.0):
    """Real multiplier of the limit-system vorticity diffusion (<= 0)."""
    num = nu * (grid.kd1**2 + grid.kd2**2) + nu_prime * froude**2 * grid.kd3**2
    den = grid.kd1**2 + grid.kd2**2 + froude**2 * grid.kd3**2
    return np.divide(-grid.kd_mag2 * num, den, out=np.zeros_like(den), where=den > 0)


def osc_vorticity_source(grid, U_osc, U, U_qg, froude=1.0):
    """Quadratic vorticity source carried by the oscillating motions.

    Five pseudo-spectral products, each with one oscillating factor:

        d3 v3_osc * (d1 v2 - d2 v1) - d1 v3_osc * d3 v2 + d2 v3_osc * d3 v1
        + F d3 v_qg . grad theta_osc + F d3 v_osc . grad theta,

    the theta terms carrying the F of pv's -F d3 theta.

    Vanishes identically when the oscillating part is zero.
    """
    for W in (U_osc, U, U_qg):
        grid.check_shape(np.asarray(W), 4)

    dh = partial(derivative, grid)

    terms = [
        dh(U_osc[2], 3),                    # 0
        dh(U[1], 1) - dh(U[0], 2),          # 1
        dh(U_osc[2], 1),                    # 2
        dh(U[1], 3),                        # 3
        dh(U_osc[2], 2),                    # 4
        dh(U[0], 3),                        # 5
    ]
    terms += [dh(U_qg[j], 3) for j in range(3)]                # 6..8
    terms += [froude * dh(U_osc[3], ax) for ax in (1, 2, 3)]  # 9..11
    terms += [dh(U_osc[j], 3) for j in range(3)]               # 12..14
    terms += [froude * dh(U[3], ax) for ax in (1, 2, 3)]       # 15..17

    p = from_spectral(grid, np.stack(terms))
    q = p[0] * p[1] - p[2] * p[3] + p[4] * p[5]
    q += p[6] * p[9] + p[7] * p[10] + p[8] * p[11]
    q += p[12] * p[15] + p[13] * p[16] + p[14] * p[17]
    return spectral_product(grid, q)
