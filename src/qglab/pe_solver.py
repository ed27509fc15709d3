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
Its 9 fields in and 4 out go through the slab pipeline of the spectral
module doc, with the bits of full transforms; the four N(U) of a step share
its buffers.

Stepping is the integrating-factor (Lawson) form of classical RK4 with the
half-step factor Eh = exp(dt/2 M) alone, exp(dt M) = Eh Eh:

    k1 = N(U)
    k2 = N(Eh (U + (dt/2) k1))
    k3 = N(Eh U + (dt/2) k2)
    k4 = N(Eh (Eh U + dt k3))
    U_next = Eh (Eh (U + (dt/6) k1) + (dt/3) (k2 + k3)) + (dt/6) k4.

M commutes with rotations about the vertical axis, so Eh at xi is
R Eh(xi') R^T with xi' = (|xi_h|, 0, xi3) and R = diag(R_phi, 1, 1) turning
xi' into xi. Eh is therefore built once per class (k1^2 + k2^2, |k3|) of the
modes asked for, by batched scaling-and-squaring, which stays accurate where
M is non-normal or defective, and rotated into each mode of the class. One
builder, ``_factor``, makes the factor at any set of modes: the compact
factor a run steps with, the one mode of ``matrix_at`` and the row blocks
of a linear ``pe_step``; nothing off the band is held.

Runs step only the 2/3 band, in the compact layout of the spectral module
doc. The run loop ``_run``, shared with ``qg_solver.qg_run``, makes every
conversion: it cuts the initial state to the band at entry, its blow-up
guard and the records' channels read the compact state against the band's
own H^s weights, and it expands the state back to the half-spectrum only
for a snapshot and the final state. ``pe_step`` keeps the half-spectrum and
converts per call;
its linear form builds and applies the factor one block of k1 rows at a
time, so no factor of the whole half-spectrum is held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg

from .diagnostics import S_LIST, NormSeries, _hs_norms, hs_channel
from .config import _step_count
from .operators import coriolis_buoyancy, decompose
from .spectral import (
    _band_pipeline,
    _leray_in_place,
    _pipeline_buffers,
    _require_band,
    _slab_planes,
    enforce_mean_zero,
    max_divergence,
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
    wavevector array, shape (m, 4, 4).

    P A is the solver's own projector, ``spectral._leray_in_place``, run on
    the columns of A = ``coriolis_buoyancy(np.eye(4), F)`` held once per
    mode; L = (nu lap v, nu' lap theta) then goes on the diagonal.
    """
    k2 = np.einsum("mi,mi->m", kd, kd)
    a = coriolis_buoyancy(np.eye(4), params.froude)
    pa = _leray_in_place(kd.T[:, None, :], k2,
                         np.repeat(a[:, :, None], kd.shape[0], axis=-1))
    m = -(1.0 / params.epsilon) * np.ascontiguousarray(pa.transpose(2, 0, 1))
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


def _apply(mats, U):
    """The per-mode product mats U of a (4, 4) + S factor and a (4,) + S
    state, in any layout S."""
    # unrolled 4x4 multiply-accumulate beats einsum/matmul here
    out = np.empty_like(U)
    for a in range(4):
        np.multiply(mats[a, 0], U[0], out=out[a])
        out[a] += mats[a, 1] * U[1]
        out[a] += mats[a, 2] * U[2]
        out[a] += mats[a, 3] * U[3]
    return out


@dataclass
class LinearPropagator:
    """Per-mode exponentials of the stiff linear symbol.

    ``half`` is the C-contiguous (4, 4, 2b+1, 2b+1, b+1) factor
    exp(dt/2 * M) on the 2/3 band in the compact layout of the spectral
    module doc, the one a run steps with, and the only array held.
    ``factor_at`` builds the factor at any stored modes from ``params`` and
    ``dt``, exp(dt * M) is applied as two half steps, and
    ``matrix_at(i, j, k)`` recovers the conventional 4x4 matrix of a single
    mode, 0 <= k <= n/2.
    """

    grid: object
    params: object
    dt: float
    half: np.ndarray = field(repr=False)

    def factor_at(self, i, j, k):
        """exp(dt/2 * M) at the stored modes (i, j, k), shape (4, 4) + S for
        integer index arrays that broadcast to S; built, never cached."""
        return _factor(self.grid, self.params, self.dt, i, j, k)

    def apply_half(self, U):
        """exp(dt/2 * M) U for a state in the compact layout."""
        return _apply(self.half, U)

    def matrix_at(self, i, j, k):
        m = self.factor_at([i], [j], [k])[..., 0]
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


def _factor(grid, params, dt, i, j, k):
    """exp(dt/2 * M) at the stored modes (i, j, k), integer index arrays
    that broadcast to S, with 0 <= k <= n/2; shape (4, 4) + S, C-contiguous,
    and the k=0 mode maps to 0.

    One batched ``expm`` per class (k1^2 + k2^2, |k3|) of the modes'
    Nyquist-zeroed integer wavenumbers, taken at xi' = (|xi_h|, 0, xi3), and
    each mode takes its class's matrix E' rotated to R E' R^T with
    cos phi = xi1 / |xi_h|, sin phi = xi2 / |xi_h| (the identity at xi_h = 0).
    """
    i, j, k = np.asarray(i), np.asarray(j), np.asarray(k)
    nh = grid.n // 2
    if np.any(k < 0) or np.any(k > nh):
        raise ValueError(f"k3 index must lie in 0..{nh}")
    kint = grid.k_int.copy()
    kint[nh] = 0
    key = (kint[i] ** 2 + kint[j] ** 2) * nh + np.abs(kint[k])  # |k3| < n/2
    keys, cls = np.unique(key.ravel(), return_inverse=True)
    xi = np.zeros((keys.size, 3))
    xi[:, 0] = np.sqrt(keys // nh)
    xi[:, 2] = keys % nh
    xi *= 2.0 * np.pi / grid.box_length
    ec = scipy.linalg.expm((0.5 * float(dt)) * _symbols(xi, params))
    half = np.take(np.ascontiguousarray(ec.transpose(1, 2, 0)),
                   cls.reshape(key.shape), axis=-1)
    kd = grid.kd1.ravel()
    kd1, kd2 = kd[i], kd[j]
    h_mag = np.sqrt(kd1**2 + kd2**2)
    cos = np.divide(kd1, h_mag, out=np.ones_like(h_mag), where=h_mag > 0)
    sin = np.divide(kd2, h_mag, out=np.zeros_like(h_mag), where=h_mag > 0)
    for b in range(4):  # R E'
        _rotate_pair(half[0, b], half[1, b], cos, sin)
    for a in range(4):  # (R E') R^T
        _rotate_pair(half[a, 0], half[a, 1], cos, sin)
    half[:, :, np.broadcast_to((i == 0) & (j == 0) & (k == 0), half.shape[2:])] = 0.0
    return half


def build_propagator(grid, params, dt):
    """The :class:`LinearPropagator` of (dt/2) * (L - (1/eps) P A), its
    factor built by ``_factor`` on the 2/3 band; every call builds a new
    one, owned by its caller."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return LinearPropagator(grid=grid, params=params, dt=float(dt),
                            half=_factor(grid, params, dt, *grid._band.index))


_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _rotational_products(p):
    """v x omega and v . (-grad theta) of a physical slab
    (v, omega, -grad theta), shape (4, S, n, n)."""
    v, omega, grad = p[:3], p[3:6], p[6:]
    prod = np.empty((4,) + p.shape[1:])
    for i, j, k in _CYCLIC:
        np.multiply(v[j], omega[k], out=prod[i])
        prod[i] -= v[k] * omega[j]
    np.einsum("jxyz,jxyz->xyz", v, grad, out=prod[3])
    return prod


def _nonlinear_band(grid, U, buffers=None):
    """N(U) = -P(omega x v, v . grad theta) of a compact state, compact,
    dealiased and mean-zero; the products v x omega and v . (-grad theta)
    carry the sign. ``buffers``: those of ``spectral._band_pipeline``."""
    band = grid._band
    kd = (band.kd1, band.kd2, band.kd3)
    ikd = [1j * k for k in kd]
    batch = np.empty((9,) + band.shape, dtype=np.complex128)  # v, omega, -grad theta
    batch[:3] = U[:3]
    for i, j, k in _CYCLIC:
        np.multiply(ikd[j], U[k], out=batch[3 + i])
        batch[3 + i] -= ikd[k] * U[j]
        np.multiply(-ikd[i], U[3], out=batch[6 + i])
    return _leray_in_place(kd, band.kd_mag2,
                           _band_pipeline(grid, batch, _rotational_products, 4, buffers))


def _nonlinear(grid, U):
    """N(U) of a half-spectrum state on the 2/3 band, as a half-spectrum."""
    band = grid._band
    return band.expand(_nonlinear_band(grid, band.cut(U)))


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


def _finite(U):
    """U, or BlowUpError if any of its values is not finite."""
    if not np.isfinite(U.view(np.float64)).all():
        raise BlowUpError(float("nan"), "non-finite state after step")
    return U


def _band_stepper(prop):
    """The nonlinear step of compact states, with the finiteness check of
    ``pe_step`` but not its band check or conversions. The four N(U) of a
    step share one set of slab-pipeline buffers, freed with the step."""
    grid = prop.grid

    def step(U):
        rhs = partial(_nonlinear_band, grid, buffers=_pipeline_buffers(grid, 9, 4))
        return _finite(_lawson_rk4(U, prop.dt, rhs, prop.apply_half))

    return step


def pe_step(U, prop, *, nonlinear=True):
    """One integrating-factor RK4 step of size prop.dt of a half-spectrum
    state. A nonlinear step needs U on the 2/3 band (see the module doc) and
    raises ValueError otherwise; a linear one applies the factor at every
    stored mode, built for the call one block of k1 rows at a time."""
    grid = prop.grid
    U = np.asarray(U)
    grid.check_shape(U, 4)
    if nonlinear:
        _require_band(grid, U, "pe_step")
        return grid._band.expand(_band_stepper(prop)(grid._band.cut(U)))
    n, nh = grid.n, grid.n // 2 + 1
    out = np.empty_like(U)
    # a k1 row's factor and the temporaries of its build: about 256 bytes a
    # mode; the rows go by |k1|, so that +k1 and -k1, whose symmetry classes
    # are the same, mostly share a block and its expm
    rows = _slab_planes(n, 256 * n * nh)
    order = np.argsort(np.abs(grid.k_int), kind="stable")
    for i in range(0, n, rows):
        block = order[i:i + rows]
        half = prop.factor_at(block[:, None, None], *np.ogrid[:n, :nh])
        out[:, block] = _apply(half, _apply(half, U[:, block]))
    return _finite(out)


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


def _run(grid, params, t_end, dt, diag, state0, *, prepare, make_step, guard,
         channels):
    """The loop of :func:`pe_run` and ``qg_solver.qg_run``: checks the step
    count and snapshot cadence, builds ``make_step()``, a step on compact
    states, then steps ``prepare`` of ``state0`` cut to the compact band,
    which no other frame holds. It records ``channels(step, t, state)`` on
    the compact state at step 0, every ``diag.cadence`` steps and the end,
    expands the state to the half-spectrum only for the snapshot where
    ``diag.snapshot_every`` divides the step and for the final state, and
    raises BlowUpError at the step's time when ``guard = (name, s)``, an H^s
    norm, leaves 1e6 times its start (nan and inf do) or the step raises
    one."""
    n_steps = _step_count(t_end, dt)
    if diag.snapshot_every and diag.snapshot_every % diag.cadence != 0:
        raise ValueError("snapshot_every must be a multiple of the diag cadence")
    step = make_step()
    band = grid._band
    state = prepare(band.cut(np.asarray(state0)).astype(np.complex128, copy=False))
    name, s = guard
    weights = band.norm_weights((s,))

    def norm(U):
        return _hs_norms(U, weights)[0]

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
                snapshots.append(band.expand(state))
    return RunRecord(grid, params, dt, series, snapshot_times, snapshots,
                     band.expand(state))


def pe_run(grid, U0, params, t_end, dt, diag, *, extra_diag=None):
    """Integrate to t_end recording diagnostics; returns a :class:`RunRecord`.

    Each record holds the H^s norms of U and of its oscillating part for s in
    ``diagnostics.S_LIST`` and ``max_div``, all evaluated on the compact band
    (see ``_pe_channels``); ``extra_diag(step, t, dec)`` adds channels from
    its :class:`Decomposition`, which is compact too: its fields are in the
    layout of ``grid._band``, whose tables ``decompose``, ``biot_savart`` and
    the band's ``norm_weights`` take in place of the grid's.

    U0 is cut to the 2/3 band and Leray-projected once; the steps keep it
    there and divergence-free, since the propagator maps solenoidal fields
    to solenoidal fields and N(U) is a projected, dealiased product, and
    ``max_div`` records how well. The mean
    is zeroed once at entry and stays exactly zero: the propagator maps the
    k=0 mode to zero and N(U) is mean-zero. A non-finite state or an H^1
    norm beyond 1e6 times its initial value raises :class:`BlowUpError`.
    """
    U0 = np.asarray(U0)
    grid.check_shape(U0, 4)
    band = grid._band
    return _run(
        grid, params, t_end, dt, diag, U0,
        prepare=lambda U: enforce_mean_zero(
            _leray_in_place((band.kd1, band.kd2, band.kd3), band.kd_mag2, U)),
        make_step=lambda: _band_stepper(build_propagator(grid, params, dt)),
        guard=("H^1 norm", 1.0),
        channels=_pe_channels(grid, params.froude, extra_diag),
    )


def _pe_channels(grid, froude, extra_diag=None):
    """The record of :func:`pe_run`, ``channels(step, t, U)`` of a compact
    state: the decomposition and ``max_div`` on the band's tables, and each
    field's H^s norms in one fused reduction against the band's weights,
    built once here."""
    band = grid._band
    weights = band.norm_weights(S_LIST)
    names = {f: [hs_channel(f, s) for s in S_LIST] for f in ("U", "Uosc")}

    def channels(step, t, U):
        dec = decompose(band, U, froude)
        values = dict(zip(names["U"], _hs_norms(U, weights)))
        values.update(zip(names["Uosc"], _hs_norms(dec.osc, weights)))
        values["max_div"] = max_divergence(band, U)
        if extra_diag is not None:
            values.update(extra_diag(step, t, dec))
        return values

    return channels
