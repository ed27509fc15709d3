r"""Norms, truncations, residuals and global-existence condition monitors.

Homogeneous Sobolev norms are spectral sums over the nonzero modes,

    ||f||_{H^s} = ( sum_{k != 0} |xi_k|^(2s) |f_hat_k|^2 )^(1/2),

with the box-average coefficient normalization of :mod:`qglab.spectral`, so
s = 0 reproduces the physical L2 norm exactly. The sum runs over the full
spectrum; on the stored half-spectrum it carries the k3 plane weight of
:meth:`Grid.norm_weights`. The combined space-time norm
of a time series is

    ||f||_{E^s_T}^2 = sup_{t <= T} ||f(t)||_{H^s}^2
                      + min(nu, nu') * int_0^T ||f(tau)||_{H^(s+1)}^2 dtau,

with the time integral taken by the trapezoid rule on the recorded cadence.

The smooth low-pass at scale 2^m multiplies each mode by chi(|xi| / 2^m)
where chi is 1 below 3/4, 0 above 4/3, and a descending quintic smoothstep in
between. The high-frequency tail it leaves obeys

    ||(Id - lowpass_m) f||_{H^s} <= ((3/4) 2^m)^(-alpha) ||f||_{H^(s+alpha)}

for any alpha > 0, since the tail is supported on |xi| > (3/4) 2^m.

Two run monitors evaluate global-existence conditions with a user-supplied
constant (the sharp constants are not explicit): the smallness thresholds on
the initial oscillating part and on the Rossby number,

    ||P U0||_{H^-1} <= (1/C^2) min(nu,nu')^4 / ||U0||_{H^1}^3
                       * exp(-C ||U0||_{L2} ||U0||_{H^1} / min(nu,nu')^2),
    eps <= (1/C^2) min(nu,nu')^4
           / ( ||U0||_{H^1}^4 (||U0||_{H^1/2} + max(nu,nu')) )
           * exp(-C ||U0||_{L2} ||U0||_{H^1} / min(nu,nu')^2),

and the bootstrap budget int_0^T ||U_osc||_{H^3/2}^2 dtau compared against
ln(2)/C * min(nu, nu').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    decompose,
    osc_vorticity_source,
    potential_vorticity,
    qg_diffusion_symbol,
)
from .spectral import advect, derivative, l2_norm

__all__ = [
    "S_LIST",
    "NormSeries",
    "hs_channel",
    "sobolev_norm",
    "hs_inner",
    "space_time_norm",
    "lowpass_profile",
    "lowpass",
    "TailBound",
    "tail_bound_check",
    "vorticity_residual",
    "BootstrapReport",
    "bootstrap_monitor",
    "SmallnessReport",
    "smallness_condition",
    "EnergyReport",
    "energy_check",
]

# every run's H^s channels: the E^s metrics read s and s+1 for s = -1, 0, 1/2
S_LIST = (-1.0, 0.0, 0.5, 1.0, 1.5)

MONO_TOL = 1e-8  # energy_check: relative L2 rise allowed between records
BUDGET_SLACK = 1e-6  # energy_check: relative slack on the dissipation budget


class NormSeries:
    """Time-aligned named diagnostic channels.

    The channel set is fixed by the first append; every value must be finite.
    Serializes to CSV with a leading ``t`` column and %.17g formatting, which
    round-trips float64 exactly.
    """

    def __init__(self):
        self.times = []
        self.channels = {}

    def append(self, t, values):
        checked = {name: float(v) for name, v in values.items()}
        for name, value in checked.items():
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {value!r} for channel {name}")
        if not self.channels:
            for name in checked:
                self.channels[name] = []
        elif set(checked) != set(self.channels):
            raise ValueError(
                f"channel set changed: {sorted(checked)} vs {sorted(self.channels)}"
            )
        for name, value in checked.items():
            self.channels[name].append(value)
        self.times.append(float(t))

    def __len__(self):
        return len(self.times)

    def channel(self, name):
        if name not in self.channels:
            raise KeyError(
                f"missing channel {name!r}; have {sorted(self.channels)}"
            )
        return np.asarray(self.channels[name])

    def time_array(self):
        return np.asarray(self.times)

    def to_csv(self, path):
        names = sorted(self.channels)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(["t"] + names) + "\n")
            for i, t in enumerate(self.times):
                row = [t] + [self.channels[name][i] for name in names]
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

    @classmethod
    def from_csv(cls, path):
        series = cls()
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header[0] != "t":
                raise ValueError(f"expected leading 't' column in {path}")
            names = header[1:]
            for line in fh:
                parts = [float(x) for x in line.strip().split(",")]
                series.append(parts[0], dict(zip(names, parts[1:])))
        return series


def hs_channel(field, s):
    """Canonical channel name for the H^s norm of a named field."""
    return f"hs_{field}_{float(s):g}"


def sobolev_norm(grid, f, s):
    """Homogeneous H^s norm of a scalar or multi-component spectral field."""
    s = float(s)
    if not -2.0 <= s <= 3.0:
        raise ValueError(f"s={s} outside the supported range [-2, 3]")
    # in place: pe_run's records call this while holding a whole decomposition
    a = np.abs(f)
    a *= a
    a *= grid.norm_weights(s)
    return float(np.sqrt(np.sum(a)))


def hs_inner(grid, f, g, s):
    """Homogeneous H^s inner product (real part), components pooled."""
    w = grid.norm_weights(float(s))
    return float(np.sum(w * f * np.conj(g)).real)


def space_time_norm(series, field, s, nu, nu_prime):
    """sup-in-time H^s norm combined with dissipation-weighted H^(s+1)."""
    t = series.time_array()
    hs = series.channel(hs_channel(field, s))
    hs1 = series.channel(hs_channel(field, s + 1))
    dissipation = np.trapezoid(hs1**2, t)
    return float(np.sqrt(hs.max() ** 2 + min(nu, nu_prime) * dissipation))


def lowpass_profile(r):
    """Radial cutoff: 1 below 3/4, 0 above 4/3, quintic smoothstep between."""
    r = np.asarray(r, dtype=float)
    lo, hi = 0.75, 4.0 / 3.0
    u = np.clip((r - lo) / (hi - lo), 0.0, 1.0)
    return 1.0 - (6.0 * u**5 - 15.0 * u**4 + 10.0 * u**3)


def lowpass(grid, f, m):
    """Smooth low-pass at scale 2^m: multiply each mode by chi(|xi|/2^m)."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    kmag = np.sqrt(grid.kmag2)
    return lowpass_profile(kmag / 2.0**m) * f


@dataclass(frozen=True)
class TailBound:
    lhs: float
    rhs: float
    passed: bool


def tail_bound_check(grid, f, m, s, alpha):
    """Compare the high-pass tail norm against its support bound."""
    tail = f - lowpass(grid, f, m)
    lhs = sobolev_norm(grid, tail, s)
    rhs = (0.75 * 2.0**m) ** (-alpha) * sobolev_norm(grid, f, s + alpha)
    return TailBound(lhs=lhs, rhs=rhs, passed=lhs <= rhs * (1.0 + 1e-10))


def vorticity_residual(record, params):
    """Residual of the potential-vorticity balance along a stored run.

    Checks, at each interior snapshot time,

        dt_pv + v . grad pv - gamma(pv)
            = F (nu - nu') lap d3 theta_osc + quadratic source,

    where F (nu - nu') lap d3 theta_osc = pv(L U_osc), since pv(U_osc) = 0,
    and the source is :func:`osc_vorticity_source`. The time derivative is
    taken from centered differences of the snapshot vorticities. Returns a
    NormSeries with one channel ``vorticity_residual`` holding the L2
    residual relative to the largest of the five assembled terms.
    """
    snaps = record.snapshots
    times = record.snapshot_times
    if len(snaps) < 3:
        raise ValueError(
            f"need at least 3 snapshots for the residual, have {len(snaps)}"
        )
    spacings = np.diff(times)
    if not np.allclose(spacings, spacings[0], rtol=1e-9, atol=0.0):
        raise ValueError("snapshot times are not uniformly spaced")
    ds = float(spacings[0])

    grid = record.grid
    F = params.froude
    out = NormSeries()
    pv = [potential_vorticity(grid, W, F) for W in snaps]
    gamma = qg_diffusion_symbol(grid, params.nu, params.nu_prime, F)
    for i in range(1, len(snaps) - 1):
        U = snaps[i]
        dec = decompose(grid, U, F)
        dt_pv = (pv[i + 1] - pv[i - 1]) / (2.0 * ds)
        adv = advect(grid, U[:3], dec.omega)
        diff = gamma * dec.omega
        visc = (F * (params.nu - params.nu_prime) * -grid.kd_mag2
                * derivative(grid, dec.osc[3], 3))
        source = osc_vorticity_source(grid, dec.osc, U, dec.qg, F)
        resid = dt_pv + adv - diff - visc - source
        scale = max(map(l2_norm, (dt_pv, adv, diff, visc, source)))
        value = l2_norm(resid) / scale if scale > 0 else 0.0
        out.append(times[i], {"vorticity_residual": value})
    return out


@dataclass(frozen=True)
class BootstrapReport:
    integral: float
    threshold: float
    ratio: float


def bootstrap_monitor(series, nu, nu_prime, c_const=1.0):
    """Time-integrated squared H^3/2 oscillating norm vs its budget."""
    t = series.time_array()
    h32 = series.channel(hs_channel("Uosc", 1.5))
    integral = float(np.trapezoid(h32**2, t))
    threshold = math.log(2.0) / c_const * min(nu, nu_prime)
    return BootstrapReport(
        integral=integral, threshold=threshold, ratio=integral / threshold
    )


@dataclass(frozen=True)
class SmallnessReport:
    threshold_osc: float
    threshold_eps: float
    measured_osc: float
    measured_eps: float
    margin_osc: float
    margin_eps: float
    c_big: float


def smallness_condition(grid, U0, params, c_big=1.0):
    """Evaluate both global-existence smallness thresholds literally."""
    if c_big <= 0:
        raise ValueError(f"c_big must be positive, got {c_big}")
    nu_min = params.nu_min
    l2 = sobolev_norm(grid, U0, 0.0)
    h_half = sobolev_norm(grid, U0, 0.5)
    h1 = sobolev_norm(grid, U0, 1.0)
    expo = math.exp(-c_big * l2 * h1 / nu_min**2) if h1 > 0 else 1.0
    if h1 > 0:
        threshold_osc = nu_min**4 / (c_big**2 * h1**3) * expo
        threshold_eps = (
            nu_min**4 / (c_big**2 * h1**4 * (h_half + params.nu_max)) * expo
        )
    else:
        threshold_osc = math.inf
        threshold_eps = math.inf
    measured_osc = sobolev_norm(grid, decompose(grid, U0, params.froude).osc, -1.0)
    return SmallnessReport(
        threshold_osc=threshold_osc,
        threshold_eps=threshold_eps,
        measured_osc=measured_osc,
        measured_eps=params.epsilon,
        margin_osc=threshold_osc - measured_osc,
        margin_eps=threshold_eps - params.epsilon,
        c_big=c_big,
    )


@dataclass(frozen=True)
class EnergyReport:
    passed: bool
    monotone: bool
    max_budget_ratio: float
    first_violation_time: float | None


def energy_check(series, nu, nu_prime, *, field="U"):
    """Discrete energy balance of a recorded run.

    Requires the L2 norm to be non-increasing to ``MONO_TOL`` (relative,
    between consecutive records) and the dissipation budget

        E(t) + 2 min(nu, nu') int_0^t ||grad .||_{L2}^2 <= E(0) (1 + BUDGET_SLACK)

    to hold with the trapezoid rule at every recorded time.
    """
    t = series.time_array()
    e = series.channel(hs_channel(field, 0.0)) ** 2
    g = series.channel(hs_channel(field, 1.0)) ** 2
    monotone = True
    first_violation = None
    for i in range(1, len(t)):
        if e[i] > e[i - 1] * (1.0 + 2.0 * MONO_TOL) + 1e-300:
            monotone = False
            first_violation = float(t[i])
            break
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t))])
    lhs = e + 2.0 * min(nu, nu_prime) * cum
    denom = e[0] if e[0] > 0 else 1.0
    max_ratio = float(lhs.max() / denom)
    budget_ok = max_ratio <= 1.0 + BUDGET_SLACK
    if not budget_ok and first_violation is None:
        first_violation = float(t[int(np.argmax(lhs))])
    return EnergyReport(
        passed=monotone and budget_ok,
        monotone=monotone,
        max_budget_ratio=max_ratio,
        first_violation_time=first_violation,
    )
