"""Rossby-number sweep: runs, convergence metrics, rate fits, export.

One limit-system run serves as the reference for every epsilon. Each full
run records, on the shared time grid, the oscillating-part norms, the
vorticity gap to the reference and the balanced-part gap; per epsilon the
sweep reduces these (``_METRICS``) to

* ||U_osc||_{E^s} for s in {-1, 0, 1/2},
* sup_t ||osc part||_{L2},
* sup_t ||pv gap||_{L2},
* ||balanced gap||_{E^s} for s in {1/2, 1},

and fits log(metric) against log(epsilon) by least squares. The oscillating
part of the data is scaled to H^-1 norm c * epsilon, so the oscillating
metrics (``osc_es_*``, ``sup_osc_l2``) fall like epsilon by construction:
their slopes read about 1 and say nothing about the limit. The test of the
limit is the gap to the reference run, ``omega_diff_sup_l2`` (the pv gap)
and ``qg_diff_es_*`` (the balanced gap).

Exports are CSV (%.17g, exact float64 round-trip) plus a gnuplot script for
the log-log figures.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import _check_memory, _check_steps, _step_count, validate_config
from .diagnostics import _hs_norms, hs_channel, space_time_norm
from .initial_data import make_well_prepared_data
from .operators import biot_savart, potential_vorticity
from .pe_solver import BlowUpError, pe_run
from .qg_solver import qg_run
from .spectral import Grid, from_spectral

__all__ = ["SweepResult", "run_convergence_sweep", "fit_rate", "export",
           "resolve_time"]

log = logging.getLogger(__name__)

# each metric's reducer of a full run's series at nu, nu', in export order
_METRICS = {
    "osc_es_-1": lambda ser, nu, nup: space_time_norm(ser, "Uosc", -1.0, nu, nup),
    "osc_es_0": lambda ser, nu, nup: space_time_norm(ser, "Uosc", 0.0, nu, nup),
    "osc_es_0.5": lambda ser, nu, nup: space_time_norm(ser, "Uosc", 0.5, nu, nup),
    "sup_osc_l2": lambda ser, nu, nup: float(ser.channel(hs_channel("Uosc", 0)).max()),
    "omega_diff_sup_l2": lambda ser, nu, nup: float(ser.channel("l2_omega_diff").max()),
    "qg_diff_es_0.5": lambda ser, nu, nup: space_time_norm(ser, "qgdiff", 0.5, nu, nup),
    "qg_diff_es_1": lambda ser, nu, nup: space_time_norm(ser, "qgdiff", 1.0, nu, nup),
}
METRIC_NAMES = tuple(_METRICS)

_QGDIFF_S = (0.5, 1.0, 1.5, 2.0)


def resolve_time(config, grid, U0):
    """Step size and count of a validated config: time.dt as given, or for
    ``auto`` the advective CFL min(0.5 dx / max|v0|, t_end/1000) (the linear
    part is exact) rounded down to tile t_end in whole diag.cadence periods.
    ConfigError if that is more than ``config._MAX_STEPS`` steps, or if a
    sweep over them would not fit in memory: ``validate_config`` can count
    only the least steps of ``auto``."""
    t_end = config.time.t_end
    if config.time.dt is not None:
        return config.time.dt, _step_count(t_end, config.time.dt)
    cadence = config.diag.cadence
    vmax = float(np.abs(from_spectral(grid, np.asarray(U0)[:3])).max())
    cfl = 0.5 * (grid.box_length / grid.n) / vmax if vmax > 0 else math.inf
    dt_raw = min(cfl, t_end / 1000.0)
    n_steps = int(math.ceil(t_end / dt_raw / cadence)) * cadence
    _check_memory(config, _check_steps(t_end / n_steps, n_steps))
    return t_end / n_steps, n_steps


@dataclass
class SweepResult:
    """Per-epsilon convergence metrics with fitted log-log rates."""

    epsilons: tuple
    metrics: dict
    rates: dict
    pe_records: list
    qg_record: object

    def metric_row(self, i):
        return {name: self.metrics[name][i] for name in METRIC_NAMES}


def fit_rate(eps_list, metric_list):
    """Least-squares slope of log(metric) vs log(eps).

    Nonpositive or non-finite metric values are excluded (logged); fewer
    than two usable points yields NaNs. Returns (slope, intercept,
    rms_residual).
    """
    eps = np.asarray(eps_list, dtype=float)
    met = np.asarray(metric_list, dtype=float)
    if eps.shape != met.shape:
        raise ValueError("epsilon and metric lists differ in length")
    if np.any(eps <= 0):
        raise ValueError("epsilons must be positive")
    good = np.isfinite(met) & (met > 0)
    if not good.all():
        log.warning("fit_rate: excluding %d nonpositive metric point(s)",
                    int((~good).sum()))
    if good.sum() < 2:
        return (math.nan, math.nan, math.nan)
    x = np.log(eps[good])
    y = np.log(met[good])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return (float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))))


def _reference_diag(grid, qg_record, froude, cadence):
    """The extra channels of a full run against the reference run
    ``qg_record``, whose snapshots are its vorticities at every record:
    ``extra_diag(step, t, dec)`` of a compact decomposition (see ``pe_run``).
    Each record cuts the reference vorticity to the band and reads the pv
    gap's band H^0 norm and the balanced gap's H^s norms, one fused
    reduction each."""
    band = grid._band
    weights = band.norm_weights((0.0,) + _QGDIFF_S)
    names = [hs_channel("qgdiff", s) for s in _QGDIFF_S]

    def extra_diag(step, t, dec):
        # both runs record at step i * cadence of the same dt and n_steps
        ref = band.cut(qg_record.snapshots[step // cadence])
        values = {"l2_omega_diff": _hs_norms(dec.omega - ref, weights[:1])[0]}
        dqg = dec.qg - biot_savart(band, ref, froude)
        values.update(zip(names, _hs_norms(dqg, weights[1:])))
        return values

    return extra_diag


def run_convergence_sweep(config):
    """Validate the config, run the reference and one full run per epsilon
    (each announced at INFO on this module's logger); reduce and fit.

    A blow-up in any run aborts the sweep, naming the offending epsilon.
    """
    validate_config(config)
    grid = Grid(config.grid.n, config.grid.box_length)
    epsilons = tuple(config.sweep.epsilons)
    froude = config.params.froude
    cadence = config.diag.cadence

    initial = {
        eps: make_well_prepared_data(grid, config.with_epsilon(eps))
        for eps in epsilons
    }
    dt, _ = resolve_time(config, grid, initial[epsilons[0]])

    omega0 = potential_vorticity(grid, initial[epsilons[0]], froude)
    qg_record = qg_run(
        grid, omega0, config.params, config.time.t_end, dt,
        replace(config.diag, snapshot_every=cadence),
    )

    metrics = {name: [] for name in METRIC_NAMES}
    pe_records = []
    for eps in epsilons:
        log.info("running epsilon=%g", eps)
        params = config.with_epsilon(eps).params
        try:
            record = pe_run(
                grid, initial[eps], params, config.time.t_end, dt, config.diag,
                extra_diag=_reference_diag(grid, qg_record, froude, cadence),
            )
        except BlowUpError as err:
            raise BlowUpError(err.time, f"epsilon={eps:g}: {err.reason}") from None
        pe_records.append(record)
        for name, reduce in _METRICS.items():
            metrics[name].append(reduce(record.series, params.nu, params.nu_prime))

    rates = {name: fit_rate(epsilons, metrics[name]) for name in METRIC_NAMES}
    return SweepResult(epsilons, metrics, rates, pe_records, qg_record)


_GNUPLOT_TEMPLATE = """\
# log-log convergence figure for the epsilon sweep
set datafile separator ","
set terminal pngcairo size 900,600
set output "sweep.png"
set logscale xy
set xlabel "epsilon"
set ylabel "metric"
set key outside right
set grid
plot \\
{plot_lines}
"""


def export(result, out_dir):
    """Write a sweep's CSV files and gnuplot script; returns their paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if not isinstance(result, SweepResult):
            raise TypeError(f"cannot export {type(result).__name__}")

        written = []
        sweep_csv = out / "sweep.csv"
        with open(sweep_csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(["eps"] + list(METRIC_NAMES)) + "\n")
            for i, eps in enumerate(result.epsilons):
                row = [eps] + [result.metrics[m][i] for m in METRIC_NAMES]
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
        written.append(sweep_csv)

        rates_csv = out / "rates.csv"
        with open(rates_csv, "w", encoding="utf-8") as fh:
            fh.write("metric,slope,intercept,rms_residual\n")
            for name in METRIC_NAMES:
                slope, intercept, resid = result.rates[name]
                fh.write(
                    f"{name},{slope:.17g},{intercept:.17g},{resid:.17g}\n"
                )
        written.append(rates_csv)

        plot_lines = ", \\\n".join(
            f'    "sweep.csv" using 1:{i + 2} with linespoints title "{name}"'
            for i, name in enumerate(METRIC_NAMES)
        )
        gp = out / "sweep.gp"
        gp.write_text(_GNUPLOT_TEMPLATE.format(plot_lines=plot_lines),
                      encoding="utf-8")
        written.append(gp)

        for record, eps in zip(result.pe_records, result.epsilons):
            path = out / f"series_pe_eps{eps:g}.csv"
            record.series.to_csv(path)
            written.append(path)
        qg_path = out / "series_qg.csv"
        result.qg_record.series.to_csv(qg_path)
        written.append(qg_path)
        return written
    except OSError as err:
        raise OSError(f"export to {out} failed: {err}") from err
