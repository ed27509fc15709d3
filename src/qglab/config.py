"""Flat key=value run configuration.

A config file is plain text, one ``dotted.key = value`` per line, with ``#``
comments and blank lines ignored. The dataclasses below declare every key,
``section.field``, and each field's annotation picks its parser; the params
section is :class:`qglab.spectral.Params`. Unknown keys are errors. Every
field has a default matching the standard desk-scale scenario, so an empty
file is a valid config. The list sweep.epsilons is comma-separated. Numbers
must be finite: ``nan`` and ``inf`` are rejected.

Documented ranges:

* grid.n: power of two, 8 .. 256; grid.box_length > 0, with |xi|^(2s) a finite
  nonzero float for s in ``diagnostics.S_LIST`` at |xi| = 2 pi/L and sqrt(3) pi n/L
* params.*: positive; params.froude in (0, 1] (checked by ``Params``)
* time.dt: positive, tiling t_end in whole diag.cadence periods of at most
  10^7 steps in all, or ``auto``
* time.t_end > 0
* init.seed: non-negative integer; init.spectrum_peak_k in [1, n/3)
* init.qg_amplitude >= 0 (target H^1 norm of the balanced part)
* init.osc_amplitude >= 0 (well-prepared coefficient c: the oscillating
  part is scaled to H^-1 norm c * epsilon)
* init amplitudes: no H^s norm (s in ``S_LIST``) of data at their targets may
  overflow over that |xi| range, at the largest of all the epsilons
* init.osc_extra_smoothness >= 0
* diag.cadence: positive steps; diag.snapshot_every: 0 (off) or a positive
  multiple of cadence, for the full and the limit run alike
* sweep.epsilons: strictly decreasing positive values
* memory: the estimated peak of a sweep of the config (``_peak_bytes``), the
  largest run a config drives, must fit in the memory the system reports
  available; for ``time.dt = auto`` it is checked again at the step count
  that ``sweep.resolve_time`` takes, before any run
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .diagnostics import S_LIST
from .spectral import Params, _pipeline_bytes

__all__ = [
    "ConfigError",
    "GridConfig",
    "TimeConfig",
    "InitConfig",
    "DiagConfig",
    "SweepConfig",
    "RunConfig",
    "default_config",
    "parse_config_text",
    "load_config",
]


class ConfigError(ValueError):
    """Invalid, unknown or out-of-range configuration input."""


@dataclass
class GridConfig:
    n: int = 32
    box_length: float = 2.0 * math.pi


@dataclass
class TimeConfig:
    dt: float | None = None  # None = auto policy
    t_end: float = 1.0


@dataclass
class InitConfig:
    seed: int = 7
    spectrum_peak_k: float = 2.0
    qg_amplitude: float = 0.5
    osc_amplitude: float = 0.1
    osc_extra_smoothness: float = 0.25


@dataclass
class DiagConfig:
    cadence: int = 10
    snapshot_every: int = 0


@dataclass
class SweepConfig:
    epsilons: tuple = (0.1, 0.05, 0.02, 0.01)


@dataclass
class RunConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    params: Params = field(
        default_factory=lambda: Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3)
    )
    time: TimeConfig = field(default_factory=TimeConfig)
    init: InitConfig = field(default_factory=InitConfig)
    diag: DiagConfig = field(default_factory=DiagConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def with_epsilon(self, eps):
        return replace(self, params=replace(self.params, epsilon=eps))


def default_config():
    return RunConfig()


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_float_list(key, raw):
    return tuple(_parse_float(key, x) for x in raw.split(",") if x.strip())


def _parse_dt(key, raw):
    if raw.strip().lower() == "auto":
        return None
    return _parse_float(key, raw)


# a field's parser, by its annotation (a string: annotations are postponed)
_PARSER_BY_TYPE = {
    "int": _parse_int,
    "float": _parse_float,
    "float | None": _parse_dt,
    "tuple": _parse_float_list,
}


def _set_key(cfg, key, raw):
    section_name, _, name = key.partition(".")
    types = {
        f"{s.name}.{f.name}": f.type
        for s in fields(cfg) for f in fields(getattr(cfg, s.name))
    }
    if key not in types:
        raise ConfigError(f"unknown config key {key!r}")
    value = _PARSER_BY_TYPE[types[key]](key, raw)
    try:
        section = replace(getattr(cfg, section_name), **{name: value})
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None
    setattr(cfg, section_name, section)


def parse_config_text(text):
    """Parse ``key = value`` lines over the defaults."""
    cfg = default_config()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        _set_key(cfg, key, raw)
    validate_config(cfg)
    return cfg


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None


def load_config(path):
    return parse_config_text(_read_text(path))


# the most steps a config may ask for: beyond it a dt is a slip, not a run
_MAX_STEPS = 10**7


def _check_steps(dt, n_steps):
    """n_steps, or ConfigError if it exceeds ``_MAX_STEPS``."""
    if n_steps > _MAX_STEPS:
        raise ConfigError(f"time.dt={dt:g} gives {n_steps} steps, more than "
                          f"the {_MAX_STEPS} a run may take")
    return n_steps


def _step_count(t_end, dt):
    """Number of steps of size dt in t_end; ConfigError unless it is whole
    and at most ``_MAX_STEPS``."""
    n_steps = int(round(t_end / dt)) if t_end / dt < math.inf else 0
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-8 * max(t_end, dt):
        raise ConfigError(f"dt={dt} does not divide t_end={t_end}")
    return _check_steps(dt, n_steps)


def _available_bytes():
    """MemAvailable from /proc/meminfo in bytes; None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


# the interpreter with numpy, scipy and qglab loaded: 64 MB measured on
# Linux x86-64 with numpy 2.4 and scipy 1.17, rounded up
_BASE_BYTES = 70e6


def _peak_bytes(cfg, n_steps=None):
    """Estimated peak resident bytes of a sweep of ``cfg`` over ``n_steps``
    steps, which holds the most of any command: one complex half-spectrum
    field is 16 n^2 (n/2+1) bytes, one compact band field 16 (2b+1)^2 (b+1)
    with b = n//3.

    * the compact state, the Lawson stages and the transform batch (49 band
      fields), the compact 4x4 factor (8 band fields) and the real H^s
      weights a run holds for its records and its guard (11, as 6 band
      fields);
    * the larger of a step's transforms and a record. A step's transforms
      are the slab pipeline's working set for its 9 inverse and 4 forward
      fields, ``spectral._pipeline_bytes``, about 53 n^3 bytes. A record
      reads every channel on the compact state: its decomposition, the
      reference vorticity cut to the band, that vorticity's Biot-Savart
      state, the gaps and the temporaries of the norms, 19 band fields (the
      traced peak at n = 32, 64 and 128), plus the one expansion of the
      state to the half-spectrum (4 fields) that a snapshot or the final
      state takes;
    * the grid's tables, the initial data's draws with the H^s weights of
      their scalings (built per call, held by nothing) and the allocator's
      slack: 8 half-spectrum fields, fitted to the measured peaks of sweeps
      at n = 32, 64 and 128;
    * held records: the initial state and the final state of every epsilon
      (8 fields each), the reference vorticity at every record (1 field
      each) and any snapshots (4 fields each, every epsilon).

    ``n_steps`` defaults to the step count of ``time.dt``; ``auto`` is
    resolved only once the initial data exist, so it is taken here at its
    least, t_end / dt = 1000, and ``sweep.resolve_time`` checks again at the
    count it resolves.
    """
    n, b = cfg.grid.n, cfg.grid.n // 3
    half = 16 * n * n * (n // 2 + 1)
    band = 16 * (2 * b + 1) ** 2 * (b + 1)
    d, n_eps = cfg.diag, len(cfg.sweep.epsilons)
    if n_steps is None and cfg.time.dt is None:
        n_steps = math.ceil(1000 / d.cadence) * d.cadence
    elif n_steps is None:
        n_steps = _step_count(cfg.time.t_end, cfg.time.dt)
    snapshots = n_steps // d.snapshot_every + 1 if d.snapshot_every else 0
    held = n_eps * (8 + 4 * snapshots) + n_steps // d.cadence + 1
    step = _pipeline_bytes(n, 9, 4)
    working = 63 * band + max(step, 19 * band + 4 * half) + 8 * half
    return _BASE_BYTES + working + held * half


def validate_config(cfg):
    """The config-level rules, checked before any grid or data are built."""
    g, t, i, d, s = cfg.grid, cfg.time, cfg.init, cfg.diag, cfg.sweep
    if g.n < 8 or g.n > 256 or (g.n & (g.n - 1)) != 0:
        raise ConfigError(f"grid.n must be a power of two in [8, 256], got {g.n}")
    if g.box_length <= 0:
        raise ConfigError("grid.box_length must be positive")
    with np.errstate(all="ignore"):
        xi = np.array([2.0, math.sqrt(3.0) * g.n]) * math.pi / g.box_length
        weights = np.power.outer(xi, 2.0 * np.array(S_LIST))
    if not np.all((weights > 0) & (weights < np.inf)):
        raise ConfigError(f"grid.box_length={g.box_length:g}: |xi|^(2s) out of range")
    if t.dt is not None and t.dt <= 0:
        raise ConfigError("time.dt must be positive or auto")
    if t.t_end <= 0:
        raise ConfigError("time.t_end must be positive")
    if i.seed < 0:
        raise ConfigError("init.seed must be non-negative")
    if not 1.0 <= i.spectrum_peak_k < g.n / 3.0:
        raise ConfigError(
            f"init.spectrum_peak_k must lie in [1, n/3), got {i.spectrum_peak_k}"
        )
    if i.qg_amplitude < 0 or i.osc_amplitude < 0 or i.osc_extra_smoothness < 0:
        raise ConfigError("init amplitudes and smoothness must be non-negative")
    if d.cadence < 1:
        raise ConfigError("diag.cadence must be a positive step count")
    if d.snapshot_every < 0 or (d.snapshot_every and d.snapshot_every % d.cadence):
        raise ConfigError("diag.snapshot_every must be 0 or a multiple of cadence")
    if t.dt is not None and (steps := _step_count(t.t_end, t.dt)) % d.cadence:
        raise ConfigError(f"time.dt: {steps} steps is not a multiple of diag.cadence")
    if not s.epsilons:
        raise ConfigError("sweep.epsilons must not be empty")
    if any(e <= 0 for e in s.epsilons):
        raise ConfigError("sweep.epsilons must be positive")
    if any(a <= b for a, b in zip(s.epsilons, s.epsilons[1:])):
        raise ConfigError("sweep.epsilons must be strictly decreasing")
    # ||f||_{H^s}^2 <= target^2 max |xi|^(2s - 2 sigma) for the H^sigma target
    # of each part, times 4 for the sum of the two parts
    eps_max = max(cfg.params.epsilon, *s.epsilons)
    for key, target, sigma in (("init.qg_amplitude", i.qg_amplitude, 1.0),
                               ("init.osc_amplitude", i.osc_amplitude * eps_max, -1.0)):
        with np.errstate(all="ignore"):
            squares = 4.0 * np.square(target) * weights * xi[:, None] ** (-2.0 * sigma)
        if target > 0 and not np.all(squares < np.inf):
            raise ConfigError(f"{key}: an H^s norm of the initial data would "
                              f"overflow at grid.box_length={g.box_length:g}")
    _check_memory(cfg)
    return cfg


def _check_memory(cfg, n_steps=None):
    """ConfigError unless a sweep of ``cfg`` over ``n_steps`` steps (see
    ``_peak_bytes``) fits in the memory the system reports available."""
    need, have = _peak_bytes(cfg, n_steps), _available_bytes()
    if have is not None and need > have:
        raise ConfigError(f"grid.n={cfg.grid.n}: a sweep of this config, its "
                          f"records included, needs about {need / 1e9:.2g} GB, "
                          f"more than the {have / 1e9:.2g} GB of memory available")
