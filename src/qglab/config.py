"""Flat key=value run configuration.

A config file is plain text, one ``dotted.key = value`` per line, with ``#``
comments and blank lines ignored. The dataclasses below declare every key,
``section.field``, and each field's annotation picks its parser; the params
section is :class:`qglab.spectral.Params`. Unknown keys are errors. Every
field has a default matching the standard desk-scale scenario, so an empty
file is a valid config. The list sweep.epsilons is comma-separated. Numbers
must be finite: ``nan`` and ``inf`` are rejected.

Documented ranges:

* grid.n: power of two, 8 .. 256; grid.box_length > 0
* params.*: positive; params.froude in (0, 1] (checked by ``Params``)
* time.dt: positive, or ``auto`` for min(0.5 dx / max|v0|, t_end/1000)
* time.t_end > 0
* init.seed: non-negative integer; init.spectrum_peak_k in [1, n/3)
* init.qg_amplitude >= 0 (target H^1 norm of the balanced part)
* init.osc_amplitude >= 0 (well-prepared coefficient c: the oscillating
  part is scaled to H^-1 norm c * epsilon)
* init.osc_extra_smoothness >= 0
* diag.cadence: positive steps; diag.snapshot_every: 0 (off) or a positive
  multiple of cadence, for the full and the limit run alike
* sweep.epsilons: strictly decreasing positive values
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .spectral import Params

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
    "apply_overrides",
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


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config_text(text)


def apply_overrides(cfg, overrides):
    """Apply repeatable ``key=value`` strings on top of a config."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        _set_key(cfg, key, raw)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    g, t, i, d, s = cfg.grid, cfg.time, cfg.init, cfg.diag, cfg.sweep
    if g.n < 8 or g.n > 256 or (g.n & (g.n - 1)) != 0:
        raise ConfigError(f"grid.n must be a power of two in [8, 256], got {g.n}")
    if g.box_length <= 0:
        raise ConfigError("grid.box_length must be positive")
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
    if not s.epsilons:
        raise ConfigError("sweep.epsilons must not be empty")
    if any(e <= 0 for e in s.epsilons):
        raise ConfigError("sweep.epsilons must be positive")
    if any(a <= b for a, b in zip(s.epsilons, s.epsilons[1:])):
        raise ConfigError("sweep.epsilons must be strictly decreasing")
    return cfg
