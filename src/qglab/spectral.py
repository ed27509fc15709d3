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
weight, which makes every norm a weighted coefficient sum.

Differentiation multiplies by i*xi with xi = (2*pi/L)*k and the Nyquist row
zeroed (the odd-derivative ambiguity of the +/- n/2 mode). The same
Nyquist-zeroed table feeds every operator symbol here, so compositions like
inverse_laplacian(laplacian(f)) are exact identities on dealiased data.

Quadratic terms are formed pseudo-spectrally and cut with the 2/3 rule
(coefficients with any |k_j| > n/3 are zeroed), which keeps the retained band
alias-free for products of two such fields.

Transforms are scipy.fft (pocketfft) calls over the last three axes, one
batched call per direction for any leading field axes. The solvers' inverse
transforms take a cheaper route to the same bits: their batches are zero off
the band, so ``_band_to_physical`` runs the two complex passes in place and
only on the lines the band reaches (k2 and k3 in the band for the k1 pass,
k3 in the band for the k2 pass), then the real pass on every line. A line of
zeros transforms to exact zeros, and each transformed line goes through the
same pocketfft arithmetic as in ``irfftn``, so the output equals
``from_spectral``'s bit for bit.

The dynamical convention throughout the package is mean-zero: the k=0
coefficient of every evolved field is pinned to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Cubic periodic grid with cached half-spectrum wavevector tables.

    n must be a power of two, at least 8. Spectral fields have shape
    ``shape = (n, n, n//2 + 1)``. ``kd1/kd2/kd3`` are the scaled,
    Nyquist-zeroed wavevectors used by every operator symbol; ``kmag2`` keeps
    the true +/- n/2 magnitudes and is reserved for norm weights.
    ``band_edge = n // 3`` bounds the 2/3 band, |k_j| <= band_edge, which
    ``dealias_mask`` marks.
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
        self._norm_weights = {}

    def mesh(self):
        """Physical coordinate arrays x1, x2, x3, each of shape (n, n, n)."""
        x = np.arange(self.n) * (self.box_length / self.n)
        return np.meshgrid(x, x, x, indexing="ij")

    def norm_weights(self, s):
        """|xi|^(2s) times the k3 plane weight, k=0 zeroed, cached per s."""
        s = float(s)
        w = self._norm_weights.get(s)
        if w is None:
            with np.errstate(divide="ignore"):
                w = self.kmag2 ** s
            w[..., 1:-1] *= 2.0
            w[0, 0, 0] = 0.0
            w.setflags(write=False)
            self._norm_weights[s] = w
        return w

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


def _in_place(transform, view, **kwargs):
    """A complex pass over ``view`` that leaves its result there, copied
    back if scipy returned a new array."""
    out = transform(view, overwrite_x=True, norm="forward", **kwargs)
    if not np.may_share_memory(out, view):
        view[...] = out


def _band_to_physical(grid, batch):
    """``from_spectral`` of an owned batch of half-spectra that is zero off
    the 2/3 band, bit for bit; the batch is overwritten.

    The k1 pass runs on the two band blocks of k2 within the band's k3
    planes, the k2 pass on the band's k3 planes; every other line of those
    passes is zero in and zero out.
    """
    n, b = grid.n, grid.band_edge
    _in_place(_fft.ifftn, batch[..., :b + 1, :b + 1], axes=(-3,))
    _in_place(_fft.ifftn, batch[..., n - b:, :b + 1], axes=(-3,))
    _in_place(_fft.ifftn, batch[..., :b + 1], axes=(-2,))
    return _fft.irfftn(batch, s=(n,), axes=(-1,), norm="forward",
                       overwrite_x=True)


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


def inverse_anisotropic_laplacian(grid, f, froude=1.0):
    """Invert d11 + d22 + F^2 d33; the k=0 mode (and any mode the
    Nyquist-zeroed symbol cannot see) maps to zero."""
    sym = grid.kd1**2 + grid.kd2**2 + froude**2 * grid.kd3**2
    out = np.divide(-f, sym, out=np.zeros_like(f), where=sym > 0)
    return out


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
    return _leray_in_place(grid, v.copy())


def _leray_in_place(grid, v):
    """Leray projection of an owned 3- or 4-component array, in place."""
    kd = (grid.kd1, grid.kd2, grid.kd3)
    div = kd[0] * v[0] + kd[1] * v[1] + kd[2] * v[2]
    np.divide(div, grid.kd_mag2, out=div, where=grid.kd_mag2 > 0)
    for i in range(3):
        v[i] -= kd[i] * div
    return v


def spectral_product(grid, prod):
    """Dealiased mean-zero half-spectrum of a physical-space product."""
    out = _fft.rfftn(prod, axes=_AXES, norm="forward")
    out *= grid.dealias_mask
    return enforce_mean_zero(out)


def advect(grid, v, U):
    """Pseudo-spectral v . grad U for a scalar field or a stack of fields.

    Transforms to physical space, multiplies, transforms back and applies the
    2/3 cut; the (analytically zero-mean, for divergence-free v) k=0 output
    coefficient is pinned to zero.
    """
    v = np.asarray(v)
    U = np.asarray(U)
    grid.check_shape(v, 3)
    grid.check_shape(U)
    n, lead = grid.n, U.shape[:-3]
    m = int(np.prod(lead))
    # gradients are written straight into the transform batch, the largest
    # temporary of a step, rather than built apart and copied in
    stack = np.empty((3 + 3 * m,) + grid.shape, dtype=np.complex128)
    stack[:3] = v
    for kd, out in zip((grid.kd1, grid.kd2, grid.kd3),
                       stack[3:].reshape((3, m) + grid.shape)):
        np.multiply(1j * kd, U.reshape((m,) + grid.shape), out=out)
    p = from_spectral(grid, stack)
    prod = np.einsum("jxyz,jixyz->ixyz", p[:3], p[3:].reshape(3, m, n, n, n))
    return spectral_product(grid, prod.reshape(lead + (n,) * 3))


def _plane_sum(a):
    """Full-spectrum sum of a per-mode real quantity stored on the half
    spectrum: interior k3 planes count twice."""
    return 2.0 * a.sum() - a[..., 0].sum() - a[..., -1].sum()


def l2_norm(f):
    """Box-average L2 norm of half-spectra, all components pooled."""
    return float(np.sqrt(_plane_sum(np.abs(f) ** 2)))


def l2_inner(f, g):
    """Box-average L2 inner product of half-spectra (real part)."""
    return float(_plane_sum((f * np.conj(g)).real))


def max_divergence(grid, v):
    """max_k |xi . v_hat| / (|xi| max|v_hat|), the relative divergence."""
    kd = (grid.kd1, grid.kd2, grid.kd3)
    div = np.abs(kd[0] * v[0] + kd[1] * v[1] + kd[2] * v[2])
    kmag = np.sqrt(grid.kd_mag2)
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
