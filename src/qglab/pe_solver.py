r"""Time integration of the penalized rotating-Boussinesq system.

The evolved unknown is the Leray-projected, pressure-free spectral state
U = (v1, v2, v3, theta):

    dU/dt = M U - P(v . grad U),      M = L - (1/eps) P A,

where P is the Leray projector extended by the identity on theta, L the
anisotropic diffusion and A the skew rotation/buoyancy coupling. Per Fourier
mode M is a real 4x4 matrix; each run builds its exponential for the step
size in use, so the arbitrarily stiff (1/eps) oscillation and the diffusion
are integrated exactly and only advection constrains the step.

The nonlinear term is taken in rotational form, N(U) = -P(omega x v,
v . grad theta) with omega = curl v: on the 2/3 band it equals -P(v . grad U)
(they differ by grad |v|^2 / 2, which P removes) and transforms 13 fields, not 19.
Its 9-field inverse transform skips, in place, the lines the band leaves at
zero (see the spectral module doc), with the bits of a full inverse.

Stepping is the integrating-factor (Lawson) form of classical RK4 with the
half-step factor Eh = exp(dt/2 M) alone, exp(dt M) = Eh Eh:

    k1 = N(U)
    k2 = N(Eh (U + (dt/2) k1))
    k3 = N(Eh U + (dt/2) k2)
    k4 = N(Eh (Eh U + dt k3))
    U_next = Eh (Eh (U + (dt/6) k1) + (dt/3) (k2 + k3)) + (dt/6) k4.

M commutes with rotations about the vertical axis, so Eh at xi is
R Eh(xi') R^T with xi' = (|xi_h|, 0, xi3) and R = diag(R_phi, 1, 1) turning
xi' into xi. Eh is therefore built once per class (k1^2 + k2^2, |k3|), by
batched scaling-and-squaring, which stays accurate where M is non-normal or
defective, and rotated into each mode of the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg

from .diagnostics import S_LIST, NormSeries, hs_channel, sobolev_norm
from .config import _step_count
from .operators import coriolis_buoyancy, decompose
from .spectral import (
    _band_to_physical,
    _leray_in_place,
    _require_band,
    dealias,
    enforce_mean_zero,
    leray_project,
    max_divergence,
    spectral_product,
)

__all__ = [
    "BlowUpError",
    "LinearPropagator",
    "build_propagator",
    "pe_step",
    "pe_run",
    "RunRecord",
]


class BlowUpError(RuntimeError):
    """Raised when a run leaves the regime the solver can represent."""

    def __init__(self, time, reason):
        super().__init__(f"blow-up at t={time:.6g}: {reason}")
        self.time = time
        self.reason = reason


def _symbols(kd, params):
    """Real 4x4 symbol of M = L - (1/eps) P A at each row of an (m, 3)
    wavevector array, shape (m, 4, 4); A is ``coriolis_buoyancy``."""
    k2 = np.einsum("mi,mi->m", kd, kd)
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)

    proj = np.zeros((kd.shape[0], 4, 4))
    proj[:, :3, :3] = np.eye(3) - kd[:, :, None] * kd[:, None, :] * inv_k2[:, None, None]
    proj[:, 3, 3] = 1.0

    m = -(1.0 / params.epsilon) * (proj @ coriolis_buoyancy(np.eye(4), params.froude))
    m[:, np.arange(3), np.arange(3)] -= params.nu * k2[:, None]
    m[:, 3, 3] -= params.nu_prime * k2
    return m


def _linear_symbols(grid, params):
    """The symbol at every stored mode, shape (n^2 (n/2+1), 4, 4);
    M(-xi) = M(xi), so the half-spectrum covers all."""
    kd = np.stack(
        [np.broadcast_to(k, grid.shape).ravel()
         for k in (grid.kd1, grid.kd2, grid.kd3)],
        axis=-1,
    )
    return _symbols(kd, params)


@dataclass
class LinearPropagator:
    """Per-mode exponentials of the stiff linear symbol.

    ``half`` is a C-contiguous (4, 4, n, n, n//2+1) real array; ``half[a, b]``
    is the (a, b) entry of exp(dt/2 * M) over the half-spectrum, each mode's
    matrix its symmetry class's exponential rotated by diag(R_phi, 1, 1)
    (see :func:`build_propagator`), and exp(dt * M) is applied as two half
    steps. ``matrix_at(i, j, k)`` recovers the conventional 4x4 matrix of a
    single mode, 0 <= k <= n/2.
    """

    grid: object
    dt: float
    half: np.ndarray = field(repr=False)

    def apply_half(self, U):
        # unrolled 4x4 multiply-accumulate beats einsum/matmul here
        mats = self.half
        out = np.empty_like(U)
        for a in range(4):
            np.multiply(mats[a, 0], U[0], out=out[a])
            out[a] += mats[a, 1] * U[1]
            out[a] += mats[a, 2] * U[2]
            out[a] += mats[a, 3] * U[3]
        return out

    def matrix_at(self, i, j, k):
        m = np.ascontiguousarray(self.half[:, :, i, j, k])
        return m @ m


def clear_propagator_cache():
    """No-op kept for the benchmark, its only caller: nothing is cached."""


def _rotate_pair(x, y, cos, sin):
    """(x, y) <- (cos x - sin y, sin x + cos y), in place."""
    t = sin * x
    x *= cos
    x -= sin * y
    y *= cos
    y += t


def build_propagator(grid, params, dt):
    """Per-mode exponential of (dt/2) * (L - (1/eps) P A); the k=0 mode maps
    to 0. Every call builds a new factor, owned by its caller.

    M commutes with rotations about the vertical axis, which act as
    R = diag(R_phi, 1, 1) on (v1, v2, v3, theta). So one ``expm`` per class
    (k1^2 + k2^2, |k3|) of the Nyquist-zeroed integer wavenumbers, taken at
    xi' = (|xi_h|, 0, xi3), gives every mode of the class as R E' R^T with
    cos phi = xi1 / |xi_h|, sin phi = xi2 / |xi_h| (the identity at xi_h = 0).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")

    n = grid.n
    k = grid.k_int.copy()
    k[n // 2] = 0  # the integer wavenumbers behind grid.kd*
    h2, h_cls = np.unique(k[:, None] ** 2 + k[None, :] ** 2, return_inverse=True)
    k3, k3_cls = np.unique(np.abs(k[: n // 2 + 1]), return_inverse=True)
    scale = 2.0 * np.pi / grid.box_length
    xi = np.zeros((h2.size, k3.size, 3))
    xi[:, :, 0] = scale * np.sqrt(h2)[:, None]
    xi[:, :, 2] = scale * k3
    ec = scipy.linalg.expm((0.5 * float(dt)) * _symbols(xi.reshape(-1, 3), params))
    # gather from a contiguous (4, 4, classes) table: a C-contiguous factor
    cls = h_cls.reshape(n, n, 1) * k3.size + k3_cls
    half = np.take(np.ascontiguousarray(ec.transpose(1, 2, 0)), cls, axis=-1)

    h_mag = np.sqrt(grid.kd1**2 + grid.kd2**2)
    cos = np.divide(grid.kd1, h_mag, out=np.ones_like(h_mag), where=h_mag > 0)
    sin = np.divide(grid.kd2, h_mag, out=np.zeros_like(h_mag), where=h_mag > 0)
    for b in range(4):  # R E'
        _rotate_pair(half[0, b], half[1, b], cos, sin)
    for a in range(4):  # (R E') R^T
        _rotate_pair(half[a, 0], half[a, 1], cos, sin)
    half[:, :, 0, 0, 0] = 0.0
    return LinearPropagator(grid=grid, dt=float(dt), half=half)


def _nonlinear(grid, U):
    """N(U) = -P(omega x v, v . grad theta) for U on the 2/3 band, dealiased
    and mean-zero; the products v x omega and v . (-grad theta) carry the sign."""
    ikd = [1j * k for k in (grid.kd1, grid.kd2, grid.kd3)]
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    batch = np.empty((9,) + grid.shape, dtype=np.complex128)  # v, omega, -grad theta
    batch[:3] = U[:3]
    for i, j, k in cyclic:
        np.multiply(ikd[j], U[k], out=batch[3 + i])
        batch[3 + i] -= ikd[k] * U[j]
        np.multiply(-ikd[i], U[3], out=batch[6 + i])
    v, omega, grad = _band_to_physical(grid, batch).reshape(
        (3, 3) + (grid.n,) * 3)
    prod = np.empty((4,) + v.shape[1:])
    for i, j, k in cyclic:
        np.multiply(v[j], omega[k], out=prod[i])
        prod[i] -= v[k] * omega[j]
    np.einsum("jxyz,jxyz->xyz", v, grad, out=prod[3])
    return _leray_in_place(grid, spectral_product(grid, prod))


def _lawson_rk4(U, h, rhs, expo_half):
    """One integrating-factor RK4 step of size h for dU/dt = M U + rhs(U);
    ``expo_half`` applies exp(h/2 M), and exp(h M) is two such applies."""
    k1 = rhs(U)
    k2 = rhs(expo_half(U + (0.5 * h) * k1))
    EhU = expo_half(U)
    k3 = rhs(EhU + (0.5 * h) * k2)
    k4 = rhs(expo_half(EhU + h * k3))
    k2 += k3
    return expo_half(expo_half(U + (h / 6.0) * k1) + (h / 3.0) * k2) + (h / 6.0) * k4


def pe_step(U, prop, *, nonlinear=True):
    """One integrating-factor RK4 step of size prop.dt. A nonlinear step needs
    U on the 2/3 band (see the module doc) and raises ValueError otherwise."""
    if nonlinear:
        _require_band(prop.grid, U, "pe_step")
        out = _lawson_rk4(U, prop.dt, partial(_nonlinear, prop.grid),
                          prop.apply_half)
    else:
        out = prop.apply_half(prop.apply_half(U))
    if not np.isfinite(out.view(np.float64)).all():
        raise BlowUpError(float("nan"), "non-finite state after step")
    return out


@dataclass
class RunRecord:
    """Diagnostics, snapshots and final state of a run (vorticities: qg_run)."""

    grid: object
    params: object
    dt: float
    series: NormSeries
    snapshot_times: list
    snapshots: list
    final_state: np.ndarray


def _run(grid, params, t_end, dt, diag, state0, *, cut, make_step, guard,
         channels):
    """The loop of :func:`pe_run` and ``qg_solver.qg_run``: checks the step
    count and snapshot cadence, builds ``make_step()``, then steps
    ``cut(state0)``, which no other frame holds. It records ``channels(step,
    t, state)`` at step 0, every ``diag.cadence`` steps and the end, with a
    state copy where ``diag.snapshot_every`` divides the step, and raises
    BlowUpError at the step's time when ``guard = (name, norm)`` leaves 1e6
    times its start (nan and inf do) or the step raises one."""
    n_steps = _step_count(t_end, dt)
    if diag.snapshot_every and diag.snapshot_every % diag.cadence != 0:
        raise ValueError("snapshot_every must be a multiple of the diag cadence")
    step = make_step()
    state = cut(state0)
    name, norm = guard
    limit = 1e6 * norm(state)
    series = NormSeries()
    snapshot_times, snapshots = [], []
    for i in range(n_steps + 1):
        t = i * dt
        if i > 0:
            try:
                state = step(state)
            except BlowUpError as err:
                raise BlowUpError(t, err.reason) from None
            size = norm(state)
            if not size <= limit:
                raise BlowUpError(t, f"{name} grew to {size:.3g}")
        if i % diag.cadence == 0 or i == n_steps:
            series.append(t, channels(i, t, state))
            if diag.snapshot_every and i % diag.snapshot_every == 0:
                snapshot_times.append(t)
                snapshots.append(state.copy())
    return RunRecord(grid, params, dt, series, snapshot_times, snapshots, state)


def pe_run(grid, U0, params, t_end, dt, diag, *, extra_diag=None):
    """Integrate to t_end recording diagnostics; returns a :class:`RunRecord`.

    Each record holds the H^s norms of U and of its oscillating part for s in
    ``diagnostics.S_LIST`` and ``max_div``; ``extra_diag(step, t, dec)`` adds
    channels from its :class:`Decomposition`. U0 is cut to the 2/3 band and
    Leray-projected once; the steps keep it there and divergence-free, since
    the propagator maps solenoidal fields to solenoidal fields and N(U) is a
    projected, dealiased product, and ``max_div`` records how well. The mean
    is zeroed once at entry and stays exactly zero: the propagator maps the
    k=0 mode to zero and N(U) is mean-zero. A non-finite state or an H^1
    norm beyond 1e6 times its initial value raises :class:`BlowUpError`.
    """
    U0 = np.asarray(U0)
    grid.check_shape(U0, 4)

    def channels(step, t, U):
        values = {}
        dec = decompose(grid, U, params.froude)
        for s in S_LIST:
            values[hs_channel("U", s)] = sobolev_norm(grid, U, s)
            values[hs_channel("Uosc", s)] = sobolev_norm(grid, dec.osc, s)
        values["max_div"] = max_divergence(grid, U)
        if extra_diag is not None:
            values.update(extra_diag(step, t, dec))
        return values

    return _run(
        grid, params, t_end, dt, diag, U0,
        cut=lambda U: enforce_mean_zero(
            leray_project(grid, dealias(grid, U.astype(complex)))),
        make_step=lambda: partial(pe_step, prop=build_propagator(grid, params, dt)),
        guard=("H^1 norm", partial(sobolev_norm, grid, s=1.0)),
        channels=channels,
    )
