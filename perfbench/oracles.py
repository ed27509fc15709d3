r"""Correctness oracles and method properties, computed apart from qglab.

Nothing here calls into the program's numerics: the oracles start from
physical samples (or from the paper's formulas) and use ``numpy.fft`` on
the full complex cube, a hand-written matrix exponential and plain
least squares. The conventions they share with the program are those of
the paper and the package documentation: the box [0, L)^3, average-
normalized coefficients, derivative symbols with the Nyquist row zeroed,
and the 2/3 cut |k_j| <= n/3 on every axis.
"""

from __future__ import annotations

import math

import numpy as np

_AXES = (-3, -2, -1)


class CheckFailed(AssertionError):
    """An output of the program disagrees with an oracle or a property."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# --- wavenumbers and the linear symbol ------------------------------------------

def wavenumbers(n, box_length):
    """Integer wavenumbers (fft order) and the Nyquist-zeroed scaled ones."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    kd = k.copy()
    kd[n // 2] = 0.0
    return k, (2.0 * np.pi / box_length) * kd


def mode_symbol(xi, epsilon, nu, nu_prime, froude):
    """M = L - (1/eps) P A at one wavevector, a real 4x4 matrix.

    L = diag(-nu, -nu, -nu, -nu') |xi|^2, P is the Leray projection on the
    velocity and the identity on theta, A U = (-v2, v1, theta/F, -v3/F).
    The zero mode maps to zero (mean-zero convention).
    """
    xi = np.asarray(xi, dtype=float)
    k2 = float(xi @ xi)
    if k2 == 0.0:
        return np.zeros((4, 4))
    proj = np.eye(4)
    proj[:3, :3] -= np.outer(xi, xi) / k2
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = -1.0, 1.0
    a[2, 3], a[3, 2] = 1.0 / froude, -1.0 / froude
    return np.diag([-nu * k2] * 3 + [-nu_prime * k2]) - (proj @ a) / epsilon


def expm_taylor(a, terms=30):
    """exp(a) by scaling, a Taylor sum and repeated squaring."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=1).max())
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    b = a / 2.0**squarings
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, terms + 1):
        term = term @ b / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def pick_modes(n, rng):
    """Six distinct integer modes, none the negative of another.

    Two are purely vertical, (0, 0, +-1) and (0, 0, +-2), and two more have
    every |k_j| <= 2: the low modes are where the symbol's eigenvector basis
    is ill-conditioned. The last two lie anywhere strictly inside the
    Nyquist band, so each mode is a plain complex pair.
    """
    top = n // 2 - 1
    chosen = [(0, 0, int(k3 * rng.choice((-1, 1)))) for k3 in (1, 2)]

    def draw(reach, count):
        target = len(chosen) + count
        while len(chosen) < target:
            m = tuple(int(x) for x in rng.integers(-reach, reach + 1, size=3))
            if (m[:2] != (0, 0) and m not in chosen
                    and tuple(-x for x in m) not in chosen):
                chosen.append(m)

    draw(2, 2)
    draw(top, 2)
    return chosen


def plane_wave_state(n, box_length, modes, amplitudes):
    """Physical samples of sum_m 2 Re(a_m exp(i xi_m . x)), shape (4, n, n, n)."""
    j = np.arange(n)
    out = np.zeros((4, n, n, n))
    for (k1, k2, k3), amp in zip(modes, amplitudes):
        phase = np.exp(2j * np.pi * (
            k1 * j[:, None, None] + k2 * j[None, :, None] + k3 * j[None, None, :]) / n)
        out += 2.0 * (amp[:, None, None, None] * phase).real
    return out


def mode_coefficients(samples, modes):
    """Average-normalized coefficient 4-vectors of a real field at modes."""
    n = samples.shape[-1]
    coeff = np.fft.fftn(samples, axes=_AXES) / n**3
    return [coeff[:, k1 % n, k2 % n, k3 % n] for k1, k2, k3 in modes]


def propagator_error(modes, amplitudes, evolved, box_length, epsilon, nu,
                     nu_prime, froude, dt):
    """Largest relative error of exp(dt M) a at each mode.

    ``evolved`` holds the physical samples of the program's linear step
    applied to :func:`plane_wave_state` of the same modes and amplitudes.
    """
    n = evolved.shape[-1]
    scale = 2.0 * np.pi / box_length
    worst = 0.0
    for m, amp, got in zip(modes, amplitudes, mode_coefficients(evolved, modes)):
        xi = scale * np.asarray(m, dtype=float)
        want = expm_taylor(dt * mode_symbol(xi, epsilon, nu, nu_prime, froude)) @ amp
        worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    return worst


# --- advection ------------------------------------------------------------------------

def advection(samples, box_length):
    """Physical samples of the dealiased, mean-zero v . grad U.

    ``samples`` is the (4, n, n, n) state U = (v1, v2, v3, theta) in
    physical space; gradients and the product's cut use the full complex
    transform.
    """
    n = samples.shape[-1]
    k, kd = wavenumbers(n, box_length)
    xi = (kd[:, None, None], kd[None, :, None], kd[None, None, :])
    keep = np.abs(k) <= n / 3.0
    mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    out = np.empty_like(samples)
    for i in range(4):
        hat = np.fft.fftn(samples[i])
        prod = sum(samples[j] * np.fft.ifftn(1j * xi[j] * hat).real for j in range(3))
        prod_hat = np.fft.fftn(prod) * mask
        prod_hat[0, 0, 0] = 0.0
        out[i] = np.fft.ifftn(prod_hat).real
    return out


def relative_divergence(samples, box_length):
    """max_k |xi . v_hat| / (|xi| max |v_hat|) from physical velocity samples."""
    n = samples.shape[-1]
    _, kd = wavenumbers(n, box_length)
    xi = (kd[:, None, None], kd[None, :, None], kd[None, None, :])
    hat = [np.fft.fftn(samples[j]) / n**3 for j in range(3)]
    div = np.abs(sum(xi[j] * hat[j] for j in range(3)))
    kmag = np.sqrt(sum(x**2 for x in xi))
    rel = np.divide(div, kmag, out=np.zeros_like(div), where=kmag > 0)
    vmax = max(float(np.abs(h).max()) for h in hat)
    return float(rel.max() / vmax) if vmax > 0 else 0.0


# --- method properties -----------------------------------------------------------------

def energy_violation(t, l2, h1, nu_min, mono_tol=1e-8, slack=1e-6):
    """None if the energy inequalities hold on a recorded series, else why.

    The squared L2 norm must not increase between records (relative
    ``mono_tol``), and E(t) + 2 nu_min int_0^t ||grad||^2 <= E(0)(1 + slack)
    with the trapezoid rule on the recorded times.
    """
    t, e, g = (np.asarray(x, dtype=float) for x in (t, l2, h1))
    e, g = e**2, g**2
    rise = np.nonzero(e[1:] > e[:-1] * (1.0 + 2.0 * mono_tol))[0]
    if rise.size:
        return f"L2 energy rises at t={t[rise[0] + 1]:.6g}"
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t))])
    ratio = float(((e + 2.0 * nu_min * cum) / e[0]).max()) if e[0] > 0 else 0.0
    if ratio > 1.0 + slack:
        return f"dissipation budget exceeded: ratio {ratio:.12g}"
    return None


def loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    lx0 = lx - lx.mean()
    return float(lx0 @ (ly - ly.mean()) / (lx0 @ lx0))


def strictly_decreasing(values):
    return all(a > b for a, b in zip(values, values[1:]))
