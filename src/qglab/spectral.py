r"""Periodic-box spectral core: grids, transforms, multipliers, advection.

Fields live on the uniform n^3 grid of the torus [0, L)^3. Every field is
real, so its Fourier cube is conjugate-symmetric and only the half-spectrum
0 <= k3 <= n/2 is stored, shape (..., n, n, n/2+1), with average
normalization:

    coeff[k] = (1/n^3) * sum_x f(x) exp(-i 2*pi*k.x / L).

Each stored mode on an interior k3 plane stands for itself and its
conjugate partner at -k; the k3 = 0 and Nyquist planes hold both partners.
Parseval is therefore the plane-weighted sum

    mean(|f|^2) = sum_k w(k3) |coeff[k]|^2,   w = 2 inside, 1 on k3 = 0, n/2.

All L2 norms and inner products below use that box-average convention and
weight, which makes every norm a weighted coefficient sum. The compact band
below holds no Nyquist plane, so there w = 1 on k3 = 0 alone; one rule,
``_doubled_planes``, reads which planes count twice from a layout's shape, for
``l2_norm`` and ``l2_inner`` on either layout and for the H^s weights
(``Grid.norm_weights``, ``_Band.norm_weights``), which one builder makes per
call and nothing holds.

Differentiation multiplies by i*xi with xi = (2*pi/L)*k and the Nyquist row
zeroed (the odd-derivative ambiguity of the +/- n/2 mode). The same
Nyquist-zeroed table feeds every operator symbol here, so compositions like
inverse_laplacian(laplacian(f)) are exact identities on dealiased data.

Quadratic terms are formed pseudo-spectrally and cut with the 2/3 rule
(coefficients with any |k_j| > n/3 are zeroed), which keeps the retained band
alias-free for products of two such fields.

Transforms are scipy.fft (pocketfft) calls over the last three axes, one
batched call per direction for any leading field axes.

The solvers step only the band. ``pe_run`` and ``qg_run`` hold their state
in a private compact layout (``_Band``), shape (..., 2b+1, 2b+1, b+1) with
b = band_edge: the k1 and k2 rows [0..b, n-b..n-1] in FFT order and the k3
planes 0..b. Their run loop cuts the initial state to it once, reads every
record's channels there against the band's own H^s weights, and expands the
state back to the half-spectrum only for a snapshot and the final state;
``pe_step``, ``qg_step`` and ``qg_rhs`` convert per call.

Their products go through one slab pipeline, ``_band_pipeline``, which never
holds a whole cube of any field. The k1 inverse pass runs on the compact
lines; then each x1 slab of a few planes takes the k2 pass, the real pass,
the caller's product and the forward real pass, whose k3 <= b planes it
keeps; last come the forward k1 pass and the k2 pass on the band's k1 rows.
The slab's planes are as many as fit one fixed working set, ``_SLAB_BYTES``,
so a small grid is a single slab, and ``_pipeline_bytes`` states what a call
holds; a solver step lends the four products of its stages one set of the
pipeline's buffers. A line of zeros transforms to exact zeros,
each transformed line goes through the same pocketfft arithmetic as in
``irfftn`` and ``rfftn``, which take their axes in this order, and the
per-pass 1/n scalings are exact powers of two, so the physical slabs equal
``from_spectral``'s and the result the band of ``rfftn``'s, bit for bit.

The pipeline is the one path of the program's pseudo-spectral products, the
solvers' and the oscillating vorticity source's
(``operators.osc_vorticity_source``). Only ``advect``, the convective
reference, forms its products on whole cubes, through ``spectral_product``:
the masked full transform, which the pipeline matches.

The dynamical convention throughout the package is mean-zero: the k=0
coefficient of every evolved field is pinned to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as _fft

__all__ = [
    "Grid",
    "Params",
    "to_spectral",
    "from_spectral",
    "enforce_mean_zero",
    "derivative",
    "inverse_anisotropic_laplacian",
    "dealias",
    "leray_project",
    "advect",
    "l2_norm",
    "l2_inner",
    "max_divergence",
    "random_scalar",
    "random_state",
]

_AXES = (-3, -2, -1)


class Grid:
    """Cubic periodic grid with its half-spectrum wavevector tables.

    n must be a power of two, at least 8. Spectral fields have shape
    ``shape = (n, n, n//2 + 1)``. ``kd1/kd2/kd3`` are the scaled,
    Nyquist-zeroed wavevectors used by every operator symbol; ``kmag2`` keeps
    the true +/- n/2 magnitudes for the norm weights, the low-pass and the
    random draws. ``band_edge = n // 3`` bounds the 2/3 band, |k_j| <=
    band_edge, which ``dealias_mask`` marks. The tables are all a grid
    holds, besides the compact band ``_band`` once a run asks for it: H^s
    weights and ``kd_mag`` are built per call.
    """

    def __init__(self, n, box_length=2.0 * np.pi):
        n = int(n)
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {n}")
        if not 0.0 < box_length < np.inf:
            raise ValueError(f"box length must be positive and finite, got {box_length}")
        self.n = n
        self.box_length = float(box_length)
        nh = n // 2 + 1
        self.shape = (n, n, nh)

        k_int = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
        self.k_int = k_int.astype(np.int64)
        scale = 2.0 * np.pi / self.box_length

        k = scale * k_int
        kd = k.copy()
        kd[n // 2] = 0.0  # Nyquist mode carries no derivative
        self.kd1 = kd.reshape(n, 1, 1)
        self.kd2 = kd.reshape(1, n, 1)
        self.kd3 = kd[:nh].reshape(1, 1, nh)
        self.kd_mag2 = self.kd1**2 + self.kd2**2 + self.kd3**2
        self.kmag2 = (
            k.reshape(n, 1, 1) ** 2 + k.reshape(1, n, 1) ** 2
            + k[:nh].reshape(1, 1, nh) ** 2
        )

        self.band_edge = n // 3
        keep = np.abs(self.k_int) <= self.band_edge
        self.dealias_mask = (
            keep.reshape(n, 1, 1) & keep.reshape(1, n, 1)
            & keep[:nh].reshape(1, 1, nh)
        )

    @property
    def kd_mag(self):
        """|xi| of the Nyquist-zeroed tables, computed per call."""
        return np.sqrt(self.kd_mag2)

    @cached_property
    def _band(self):
        """The compact stepping layout of this grid (see the module doc)."""
        return _Band(self)

    def mesh(self):
        """Physical coordinate arrays x1, x2, x3, each of shape (n, n, n)."""
        x = np.arange(self.n) * (self.box_length / self.n)
        return np.meshgrid(x, x, x, indexing="ij")

    def norm_weights(self, s):
        """The half-spectrum H^s weights for each s of a sequence, shape
        (len(s),) + shape (see ``_hs_weights``)."""
        return _hs_weights(self.kmag2, s)

    def check_shape(self, f, ncomp=None):
        if ncomp is None:
            if f.shape[-3:] != self.shape:
                raise ValueError(
                    f"field shape {f.shape} does not match grid n={self.n}"
                )
        elif f.shape != (ncomp,) + self.shape:
            raise ValueError(
                f"expected shape {(ncomp,) + self.shape}, got {f.shape}"
            )

    def __repr__(self):
        return f"Grid(n={self.n}, box_length={self.box_length:g})"


class _Band:
    """The 2/3 band of a grid as one compact array, the solvers' private
    stepping layout: shape (..., 2b+1, 2b+1, b+1) with b = grid.band_edge,
    k1 and k2 rows [0..b, n-b..n-1] in FFT order, k3 planes 0..b.

    ``kd1/kd2/kd3`` and ``kd_mag2`` are the grid's Nyquist-zeroed tables cut
    to the band, and ``kd_mag`` is the square root of ``kd_mag2``, held once
    here, so every per-mode operation gives the same bits here as on the
    half-spectrum. The band holds no Nyquist mode, so ``kd_mag2`` is also
    the true squared magnitude that its H^s weights take.
    """

    def __init__(self, grid):
        n, b = grid.n, grid.band_edge
        self.shape = (2 * b + 1, 2 * b + 1, b + 1)
        self._half_shape = grid.shape
        self._rows = np.r_[0:b + 1, n - b:n]
        # (half-spectrum, compact) indices of the four blocks of the band
        halves = ((slice(0, b + 1), slice(0, b + 1)), (slice(n - b, n), slice(b + 1, None)))
        self._blocks = [((..., f1, f2, slice(0, b + 1)), (..., c1, c2, slice(None)))
                        for f1, c1 in halves for f2, c2 in halves]
        # the half-spectrum indices of the compact modes, broadcastable
        self.index = (self._rows[:, None, None], self._rows[None, :, None],
                      np.arange(b + 1))
        self.kd1 = grid.kd1[self._rows]
        self.kd2 = grid.kd2[:, self._rows]
        self.kd3 = grid.kd3[..., :b + 1]
        self.kd_mag2 = self.cut(grid.kd_mag2)
        self.kd_mag = np.sqrt(self.kd_mag2)

    def norm_weights(self, s):
        """The band's H^s weights for each s of a sequence, shape (len(s),)
        + shape: the band of ``Grid.norm_weights``, bit for bit."""
        return _hs_weights(self.kd_mag2, s)

    def cut(self, f):
        """The band of half-spectra (..., n, n, n//2+1), as a new compact array."""
        return f[..., self._rows[:, None], self._rows, :self.shape[-1]]

    def expand(self, c, out=None):
        """Half-spectra holding the compact ``c`` on the band, written into
        ``out`` (whose off-band modes are left as they are) or into zeros."""
        if out is None:
            out = np.zeros(c.shape[:-3] + self._half_shape, dtype=c.dtype)
        for full, comp in self._blocks:
            out[full] = c[comp]
        return out


def _doubled_planes(shape):
    """The slice of k3 planes of a half-spectrum or of the compact band that
    count twice in a full-spectrum sum, since they stand for their conjugate
    partners too: all but k3 = 0 and the Nyquist plane, which exists only
    where the k1 axis has even length, that is, on a half-spectrum."""
    return slice(1, shape[-1] - 1 if shape[-3] % 2 == 0 else None)


def _hs_weights(kmag2, s):
    """|xi|^(2s) times the k3 plane weight, k=0 zeroed, for each s of a
    sequence, shape (len(s),) + kmag2.shape: ``kmag2`` holds the true squared
    mode magnitudes of a half-spectrum or of the band. ValueError for an s
    outside the supported range [-2, 3]."""
    w = np.empty((len(s),) + kmag2.shape)
    with np.errstate(divide="ignore"):
        for row, si in zip(w, map(float, s)):
            if not -2.0 <= si <= 3.0:
                raise ValueError(f"s={si} outside the supported range [-2, 3]")
            row[...] = kmag2 ** si
    w[..., _doubled_planes(kmag2.shape)] *= 2.0
    w[..., 0, 0, 0] = 0.0
    return w


@dataclass(frozen=True)
class Params:
    """Physical constants: Rossby number, viscosities, Froude number."""

    epsilon: float
    nu: float
    nu_prime: float
    froude: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (0.0 < self.nu < np.inf and 0.0 < self.nu_prime < np.inf):
            raise ValueError("viscosities must be positive and finite")
        if not 0.0 < self.froude <= 1.0:
            raise ValueError(f"froude must lie in (0, 1], got {self.froude}")

    @property
    def nu_min(self):
        return min(self.nu, self.nu_prime)

    @property
    def nu_max(self):
        return max(self.nu, self.nu_prime)


def to_spectral(grid, samples):
    """Forward real transform of samples (..., n, n, n), average-normalized;
    returns the half-spectrum (..., n, n, n//2+1)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[-3:] != (grid.n,) * 3:
        raise ValueError(
            f"sample shape {samples.shape} does not match grid n={grid.n}"
        )
    return _fft.rfftn(samples, axes=_AXES, norm="forward")


def from_spectral(grid, coeffs):
    """Inverse transform of half-spectra (..., n, n, n//2+1) back to real
    samples (..., n, n, n); any leading axes form one batched transform."""
    coeffs = np.asarray(coeffs)
    grid.check_shape(coeffs)
    return _fft.irfftn(coeffs, s=(grid.n,) * 3, axes=_AXES, norm="forward")


# the bytes one slab of ``_band_pipeline`` may take at once: half the 4 MB L2
# cache per core of the 2-vCPU x86-64 machine it was measured on, where it
# ran N(U) at n = 16, 32 and 64 no slower than 1 or 4 MB did
_SLAB_BYTES = 2 << 20


def _slab_planes(n, plane_bytes):
    """Planes per slab when a plane takes ``plane_bytes``: as many as fit in
    ``_SLAB_BYTES``, at least one, spread evenly over the n planes."""
    slabs = -(-n // max(1, min(n, _SLAB_BYTES // plane_bytes)))
    return -(-n // slabs)


def _in_place(transform, view, **kwargs):
    """A complex pass over ``view`` that leaves its result there, copied
    back if scipy returned a new array."""
    out = transform(view, overwrite_x=True, norm="forward", **kwargs)
    if not np.may_share_memory(out, view):
        view[...] = out


def _plane_bytes(n, nf, nout):
    """The bytes one x1 plane of ``_band_pipeline``'s slab takes for ``nf``
    fields in and ``nout`` out: the k2 buffer and the physical fields, the
    products and their real pass."""
    return 8 * n * (2 * (n // 2 + 1) + n) * (nf + nout)


def _pipeline_bytes(n, nf, nout):
    """The working set of ``_band_pipeline`` on an n^3 grid: the k1 lines and
    the forward real pass of ``_pipeline_buffers``, and one slab,
    ``_SLAB_BYTES`` or one x1 plane if that is larger."""
    b = n // 3
    return (16 * n * (b + 1) * (nf * (2 * b + 1) + nout * n)
            + max(_SLAB_BYTES, _plane_bytes(n, nf, nout)))


def _pipeline_buffers(grid, nf, nout):
    """The buffers of ``_band_pipeline`` for ``nf`` fields in and ``nout``
    out: the k1 lines (nf, n, 2b+1, b+1), the forward real pass (nout, n, n,
    b+1) and the k2 buffer of one slab (nf, S, n, n/2+1), whose k3 > b planes
    stay zero. A caller that keeps them for many calls saves their
    allocation each time."""
    n, b = grid.n, grid.band_edge
    nh = n // 2 + 1
    size = _slab_planes(n, _plane_bytes(n, nf, nout))
    return (np.empty((nf, n, 2 * b + 1, b + 1), dtype=np.complex128),
            np.empty((nout, n, n, b + 1), dtype=np.complex128),
            np.zeros((nf, size, n, nh), dtype=np.complex128))


def _band_pipeline(grid, batch, product, nout, buffers=None):
    """The compact band of ``product`` of the physical fields whose band is
    the compact ``batch`` (F, 2b+1, 2b+1, b+1), dealiased and mean-zero, with
    the bits of ``from_spectral`` and of the band of ``rfftn`` (see the
    module doc).

    ``product(p)`` takes a slab of physical fields, shape (F, S, n, n), and
    returns the slab of its ``nout`` products, shape (nout, S, n, n).
    ``buffers`` are ``_pipeline_buffers(grid, F, nout)``, made for the call
    if not given.
    """
    n, b = grid.n, grid.band_edge
    lines, spec, work = buffers or _pipeline_buffers(grid, len(batch), nout)
    lines[:, :b + 1] = batch[:, :b + 1]
    lines[:, b + 1:n - b] = 0.0
    lines[:, n - b:] = batch[:, b + 1:]
    _in_place(_fft.ifft, lines, axis=1)
    size = work.shape[1]
    for x0 in range(0, n, size):
        s = min(size, n - x0)
        slab = work[:, :s, :, :b + 1]
        slab[:, :, :b + 1] = lines[:, x0:x0 + s, :b + 1]
        slab[:, :, b + 1:n - b] = 0.0
        slab[:, :, n - b:] = lines[:, x0:x0 + s, b + 1:]
        _in_place(_fft.ifft, slab, axis=2)
        p = _fft.irfft(work[:, :s], n=n, axis=-1, norm="forward")
        spec[:, x0:x0 + s] = _fft.rfft(product(p), axis=-1, norm="forward")[..., :b + 1]
    _in_place(_fft.fft, spec, axis=1)
    _in_place(_fft.fft, spec[:, :b + 1], axis=2)
    _in_place(_fft.fft, spec[:, n - b:], axis=2)
    return enforce_mean_zero(grid._band.cut(spec))


def _require_band(grid, f, who):
    """ValueError unless f is zero off the 2/3 band; reads the three
    off-band slabs as views."""
    n, b = grid.n, grid.band_edge
    if (np.any(f[..., b + 1:n - b, :, :]) or np.any(f[..., b + 1:n - b, :])
            or np.any(f[..., b + 1:])):
        raise ValueError(f"{who}: field has modes outside the 2/3 band")


def enforce_mean_zero(f):
    """Pin the k=0 coefficient(s) to zero, in place; returns f."""
    f[..., 0, 0, 0] = 0.0
    return f


def derivative(grid, f, axis):
    """Spectral partial derivative along axis 1, 2 or 3."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    kd = (grid.kd1, grid.kd2, grid.kd3)[axis - 1]
    return 1j * kd * f


def _anisotropic_symbol(tables, froude):
    """xi1^2 + xi2^2 + F^2 xi3^2 on the wavevector tables of a Grid or of
    its compact band, minus the symbol of d11 + d22 + F^2 d33."""
    return tables.kd1**2 + tables.kd2**2 + froude**2 * tables.kd3**2


def _solve_anisotropic(f, sym):
    """-f / sym where sym > 0, and 0 elsewhere."""
    return np.divide(-f, sym, out=np.zeros_like(f), where=sym > 0)


def inverse_anisotropic_laplacian(grid, f, froude=1.0):
    """Invert d11 + d22 + F^2 d33; the k=0 mode (and any mode the
    Nyquist-zeroed symbol cannot see) maps to zero."""
    return _solve_anisotropic(f, _anisotropic_symbol(grid, froude))


def dealias(grid, f):
    """2/3-rule cut: zero every coefficient with any |k_j| > n/3."""
    return f * grid.dealias_mask


def leray_project(grid, v):
    """Remove the gradient part of the velocity, per mode.

    Accepts a 3-component velocity or a 4-component state (the last,
    buoyancy component passes through untouched). Output satisfies
    xi . v_hat = 0 on every mode.
    """
    v = np.asarray(v)
    if v.shape[0] not in (3, 4):
        raise ValueError(f"expected 3 or 4 components, got shape {v.shape}")
    grid.check_shape(v)
    return _leray_in_place((grid.kd1, grid.kd2, grid.kd3), grid.kd_mag2, v.copy())


def _leray_in_place(kd, k2, v):
    """Leray projection of an owned 3- or 4-component array, in place:
    v[:3] -= kd (kd . v[:3]) / k2 wherever k2 > 0, any v[3] untouched.

    ``kd`` holds the three wavevector components and ``k2`` their squared
    magnitude; each v[i] broadcasts against kd[i] and k2. This is the one
    projector of the package: ``leray_project``, the solver's N(U) and the
    per-mode symbol M = L - (1/eps) P A that the propagator exponentiates
    (``pe_solver._symbols``) all run it.
    """
    div = kd[0] * v[0] + kd[1] * v[1] + kd[2] * v[2]
    np.divide(div, k2, out=div, where=k2 > 0)
    for i in range(3):
        v[i] -= kd[i] * div
    return v


def spectral_product(grid, prod):
    """Dealiased mean-zero half-spectrum of a physical-space product, by
    the full forward transform: the reference the slab pipeline matches."""
    return enforce_mean_zero(dealias(grid, to_spectral(grid, prod)))


def advect(grid, v, U):
    """Pseudo-spectral v . grad U for a scalar field or a stack of fields.

    Transforms v to physical space once, then each field of U in turn: its
    gradient to physical space, the product and its transform back with the
    2/3 cut; the (analytically zero-mean, for divergence-free v) k=0 output
    coefficient is pinned to zero.
    """
    v = np.asarray(v)
    U = np.asarray(U)
    grid.check_shape(v, 3)
    grid.check_shape(U)
    pv = from_spectral(grid, v)
    out = np.empty(U.shape, dtype=np.complex128)
    grad = np.empty((3,) + grid.shape, dtype=np.complex128)
    for idx in np.ndindex(U.shape[:-3]):
        for kd, g in zip((grid.kd1, grid.kd2, grid.kd3), grad):
            np.multiply(1j * kd, U[idx], out=g)
        prod = np.einsum("jxyz,jxyz->xyz", pv, from_spectral(grid, grad))
        out[idx] = spectral_product(grid, prod)
    return out


def _plane_sum(a):
    """Full-spectrum sum of a per-mode real quantity stored on a half-spectrum
    or on the band: twice the sum, less k3 = 0 and any Nyquist plane, the
    planes that ``_doubled_planes`` leaves out."""
    nyquist = _doubled_planes(a.shape).stop
    total = 2.0 * a.sum() - a[..., 0].sum()
    return total if nyquist is None else total - a[..., nyquist].sum()


def l2_norm(f):
    """Box-average L2 norm of half-spectra or compact band arrays, all
    components pooled."""
    return float(np.sqrt(_plane_sum(np.abs(f) ** 2)))


def l2_inner(f, g):
    """Box-average L2 inner product (real part) of half-spectra or compact
    band arrays."""
    return float(_plane_sum((f * np.conj(g)).real))


def max_divergence(grid, v):
    """max_k |xi . v_hat| / (|xi| max|v_hat|), the relative divergence, on
    the wavevector tables of a Grid or of its compact band."""
    kd = (grid.kd1, grid.kd2, grid.kd3)
    div = np.abs(kd[0] * v[0] + kd[1] * v[1] + kd[2] * v[2])
    kmag = grid.kd_mag
    rel = np.divide(div, kmag, out=np.zeros_like(div), where=kmag > 0)
    vmax = np.abs(v[:3]).max()
    if vmax == 0.0:
        return 0.0
    return float(rel.max() / vmax)


def random_scalar(grid, rng, peak_k=2.0, extra_smoothness=0.0):
    """Random smooth mean-zero scalar: white noise shaped by a Gaussian
    ring spectrum around |k| = peak_k, optionally damped by
    (1 + |k|)^(-extra_smoothness), dealiased."""
    noise = rng.standard_normal((grid.n,) * 3)
    f = to_spectral(grid, noise)
    kmag = np.sqrt(grid.kmag2) * (grid.box_length / (2.0 * np.pi))
    f *= np.exp(-0.5 * (kmag - peak_k) ** 2)
    if extra_smoothness:
        f *= (1.0 + kmag) ** (-extra_smoothness)
    return enforce_mean_zero(dealias(grid, f))


def random_state(grid, rng, divergence_free=True):
    """Random smooth mean-zero 4-component state, optionally solenoidal."""
    U = np.stack([random_scalar(grid, rng) for _ in range(4)])
    if divergence_free:
        U = leray_project(grid, U)
    return U
