"""The benchmark's three workloads, their rounds, checks and metrics.

Every workload runs the default scenario (nu = 1e-2, nu' = 5e-3, F = 1,
dt = 1e-3) with the benchmark's seed as ``init.seed``. A round is the same
fixed set of operations every time; an operation is one solver run or one
sweep together with its checks. A BlowUpError or a failed check fails the
operation and the run goes on.

Timing is taken from outside: the benchmark times its own calls, and the
spans of ``build_propagator``, ``make_well_prepared_data``, ``pe_run`` and
``qg_run`` (see spans.install_probes) move propagator builds and initial
data made inside the program into set-up, whoever calls them. The propagator
cache is cleared before every round, so every round pays its builds.
"""

from __future__ import annotations

import csv
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import qglab

import oracles
import spans
from oracles import CheckFailed, require

SCENARIO = """\
params.nu = 1e-2
params.nu_prime = 5e-3
params.froude = 1
time.dt = 1e-3
"""

# relative-divergence ceiling of the method, and the oracle tolerances
DIV_LIMIT = 1e-10
PROPAGATOR_TOL = 1e-8
ADVECT_TOL = 1e-10
RESIDUAL_LIMIT = 1e-2

END_TO_END = (
    ("setup_s", "s"),
    ("pe_steps_per_s", "steps/s"),
    ("qg_steps_per_s", "steps/s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit); a name "<span>.<key>" reads that key of the span's
# per-round layer row, the rest are derived in layer_metrics
PER_LAYER = (
    ("spectral.fft.fields_per_pe_step", "count"),
    ("spectral.fft.fields_per_qg_step", "count"),
    ("spectral.fft.self_s", "s"),
    ("spectral.fft.bytes", "B-computed"),
    ("spectral.advect.self_s", "s"),
    ("spectral.spectral_product.self_s", "s"),
    ("spectral.leray_project.calls", "count"),
    ("spectral.leray_project.self_s", "s"),
    ("pe_solver.build_propagator.self_s", "s"),
    ("pe_solver.build_propagator.fallback_modes", "count"),
    ("pe_solver.build_propagator.bytes", "B-computed"),
    ("pe_solver.propagator_apply.calls", "count"),
    ("pe_solver.propagator_apply.self_s", "s"),
    ("pe_solver.pe_step.ms", "ms"),
    ("pe_solver.pe_run.self_s", "s"),
    ("qg_solver.qg_rhs.calls", "count"),
    ("qg_solver.qg_rhs.self_s", "s"),
    ("qg_solver.qg_run.self_s", "s"),
    ("operators.project_osc.self_s", "s"),
    ("operators.project_qg.self_s", "s"),
    ("operators.biot_savart.self_s", "s"),
    ("operators.potential_vorticity.self_s", "s"),
    ("operators.osc_vorticity_source.self_s", "s"),
    ("diagnostics.vorticity_residual.self_s", "s"),
    ("diagnostics.records", "count"),
    ("diagnostics.sobolev_norm.calls", "count"),
    ("diagnostics.sobolev_norm.self_s", "s"),
    ("initial_data.make_well_prepared_data.self_s", "s"),
    ("sweep.export.self_s", "s"),
    ("sweep.export.bytes", "B-computed"),
    ("trace.overhead_s", "s"),
)

SETUP_SPANS = ("pe_solver.build_propagator", "initial_data.make_well_prepared_data")


@dataclass
class Sample:
    """One round's end-to-end timings."""

    setup_s: float
    pe_s: float
    pe_steps: int
    qg_s: float
    qg_steps: int
    wall_s: float


class Outcome:
    """Operation tally of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, name, op):
        """Run one operation; a blow-up or a failed check fails it."""
        self.attempted += 1
        try:
            op()
        except CheckFailed as err:
            self.failed += 1
            self.correct = False
            print(f"check failed in {name}: {err}", file=sys.stderr)
        except qglab.BlowUpError as err:
            self.failed += 1
            print(f"blow-up in {name}: {err}", file=sys.stderr)


def _config(text, seed):
    return qglab.parse_config_text(SCENARIO + text + f"init.seed = {seed}\n")


def _params(cfg, epsilon=None):
    p = cfg.params
    return qglab.Params(p.epsilon if epsilon is None else epsilon,
                        p.nu, p.nu_prime, p.froude)


def _steps(cfg):
    return round(cfg.time.t_end / cfg.time.dt)


def _spans_named(recorder, name, since=0.0):
    return [s for s in recorder.spans if s.name == name and s.start >= since]


def _timings(recorder, body_start, setup_region, body, n_steps):
    """Sample from the benchmark's own timers and the probe spans."""
    moved = sum(s.duration for name in SETUP_SPANS
                for s in _spans_named(recorder, name, body_start))
    in_pe = spans.under(recorder.spans, "pe_solver.pe_run")
    pe_builds = sum(s.duration for s, flag in zip(recorder.spans, in_pe)
                    if flag and s.name == "pe_solver.build_propagator")
    pe_runs = _spans_named(recorder, "pe_solver.pe_run")
    qg_runs = _spans_named(recorder, "qg_solver.qg_run")
    return Sample(
        setup_s=setup_region + moved,
        pe_s=sum(s.duration for s in pe_runs) - pe_builds,
        pe_steps=n_steps * len(pe_runs),
        qg_s=sum(s.duration for s in qg_runs),
        qg_steps=n_steps * len(qg_runs),
        wall_s=body - moved,
    )


# --- checks shared by the workloads ------------------------------------------------

def check_pe_record(grid, params, record):
    s = record.series
    why = oracles.energy_violation(s.time_array(), s.channel("hs_U_0"),
                                   s.channel("hs_U_1"), params.nu_min)
    require(why is None, f"eps={params.epsilon:g}: {why}")
    max_div = float(s.channel("max_div").max())
    require(max_div <= DIV_LIMIT, f"recorded max_div {max_div:.3g}")
    samples = qglab.from_spectral(grid, record.final_state)
    div = oracles.relative_divergence(samples[:3], grid.box_length)
    require(div <= DIV_LIMIT, f"final-state relative divergence {div:.3g}")


def check_qg_record(params, record):
    s = record.series
    why = oracles.energy_violation(s.time_array(), s.channel("hs_omega_0"),
                                   s.channel("hs_omega_1"), params.nu_min)
    require(why is None, f"limit run: {why}")


def check_propagator(grid, params, prop, seed):
    """The program's linear step on seeded plane waves against exp(dt M)."""
    rng = np.random.default_rng([seed, 17, grid.n])
    modes = oracles.pick_modes(grid.n, rng)
    amps = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in modes]
    state = oracles.plane_wave_state(grid.n, grid.box_length, modes, amps)
    stepped = qglab.pe_step(qglab.to_spectral(grid, state), prop, nonlinear=False)
    err = oracles.propagator_error(
        modes, amps, qglab.from_spectral(grid, stepped), grid.box_length,
        params.epsilon, params.nu, params.nu_prime, params.froude, prop.dt)
    require(err <= PROPAGATOR_TOL,
            f"propagator at modes {modes}: relative error {err:.3g}")


def check_advect(grid, U):
    samples = qglab.from_spectral(grid, U)
    got = qglab.from_spectral(grid, qglab.advect(grid, U[:3], U))
    want = oracles.advection(samples, grid.box_length)
    err = float(np.abs(got - want).max() / np.abs(want).max())
    require(err <= ADVECT_TOL, f"advect: relative error {err:.3g}")


# --- workloads ---------------------------------------------------------------------

class PairWorkload:
    """One pe_run and one qg_run from the same initial data."""

    def __init__(self, text, residual):
        self.text = text
        self.residual = residual

    def round(self, seed, recorder, install, outcome, work_dir):
        qglab.pe_solver.clear_propagator_cache()
        recorder.reset()
        install(recorder, qglab)
        t0 = time.perf_counter()
        cfg = _config(self.text, seed)
        grid = qglab.Grid(cfg.grid.n, cfg.grid.box_length)
        U0 = qglab.make_well_prepared_data(grid, cfg)
        params = _params(cfg)
        omega0 = qglab.potential_vorticity(grid, U0, params.froude)
        t1 = time.perf_counter()
        got = {}
        try:
            got["pe"] = qglab.pe_run(grid, U0, params, cfg.time.t_end,
                                     cfg.time.dt, cfg.diag)
            if self.residual:
                got["residual"] = qglab.vorticity_residual(got["pe"], params)
        except qglab.BlowUpError as err:
            got["pe_error"] = err
        try:
            got["qg"] = qglab.qg_run(grid, omega0, params, cfg.time.t_end,
                                     cfg.time.dt, cfg.diag)
        except qglab.BlowUpError as err:
            got["qg_error"] = err
        t2 = time.perf_counter()
        recorder.remove()
        n_steps = _steps(cfg)
        sample = _timings(recorder, t1, t1 - t0, t2 - t1, n_steps)
        props = recorder.take_results("pe_solver.build_propagator")

        def pe_op():
            if "pe_error" in got:
                raise got["pe_error"]
            record = got["pe"]
            check_pe_record(grid, params, record)
            if self.residual:
                worst = float(got["residual"].channel("vorticity_residual").max())
                require(worst <= RESIDUAL_LIMIT,
                        f"vorticity residual {worst:.3g} > {RESIDUAL_LIMIT}")
            require(len(props) == 1, f"{len(props)} propagator builds, expected 1")
            check_propagator(grid, params, props[0], seed)
            check_advect(grid, record.final_state)

        def qg_op():
            if "qg_error" in got:
                raise got["qg_error"]
            check_qg_record(params, got["qg"])

        outcome.run("pe_run", pe_op)
        outcome.run("qg_run", qg_op)
        return sample, n_steps


class SweepWorkload:
    """run_convergence_sweep plus export into a throwaway directory."""

    def __init__(self, text):
        self.text = text

    def round(self, seed, recorder, install, outcome, work_dir):
        qglab.pe_solver.clear_propagator_cache()
        recorder.reset()
        out_dir = Path(tempfile.mkdtemp(dir=work_dir))
        install(recorder, qglab)
        t0 = time.perf_counter()
        cfg = _config(self.text, seed)
        t1 = time.perf_counter()
        got = {}
        try:
            got["result"] = qglab.run_convergence_sweep(cfg)
            qglab.export(got["result"], out_dir)
        except qglab.BlowUpError as err:
            got["error"] = err
        t2 = time.perf_counter()
        recorder.remove()
        n_steps = _steps(cfg)
        sample = _timings(recorder, t1, t1 - t0, t2 - t1, n_steps)
        props = recorder.take_results("pe_solver.build_propagator")

        def sweep_op():
            if "error" in got:
                raise got["error"]
            self.check(cfg, got["result"], out_dir, props, seed)

        try:
            outcome.run("sweep", sweep_op)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return sample, n_steps

    @staticmethod
    def check(cfg, result, out_dir, props, seed):
        grid = qglab.Grid(cfg.grid.n, cfg.grid.box_length)
        eps = list(result.epsilons)
        m = result.metrics
        for name in ("sup_osc_l2", "omega_diff_sup_l2"):
            require(oracles.strictly_decreasing(m[name]),
                    f"{name} does not strictly decrease along eps: {m[name]}")
        slope = oracles.loglog_slope(eps, m["osc_es_0"])
        require(slope >= 0.3, f"osc_es_0 slope {slope:.4g} < 0.3")
        require(abs(result.rates["osc_es_0"][0] - slope) <= 1e-9,
                f"fitted osc_es_0 slope {result.rates['osc_es_0'][0]!r} "
                f"differs from least squares {slope!r}")
        for name in ("qg_diff_es_0.5", "qg_diff_es_1"):
            require(m[name][-1] <= 0.5 * m[name][0],
                    f"{name} at eps={eps[-1]:g} is not half of eps={eps[0]:g}")
        with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        require([float(r["eps"]) for r in rows] == eps, "sweep.csv eps column")
        for name, values in m.items():
            require([float(r[name]) for r in rows] == list(values),
                    f"sweep.csv column {name} differs from the metrics")
        with open(out_dir / "rates.csv", newline="", encoding="utf-8") as fh:
            for r in csv.DictReader(fh):
                want = tuple(result.rates[r["metric"]])
                have = (float(r["slope"]), float(r["intercept"]),
                        float(r["rms_residual"]))
                require(np.array_equal(have, want, equal_nan=True),
                        f"rates.csv row {r['metric']} differs from the fit")
        for e, record in zip(eps, result.pe_records):
            check_pe_record(grid, _params(cfg, e), record)
        check_qg_record(_params(cfg), result.qg_record)
        require(len(props) == len(eps),
                f"{len(props)} propagator builds for {len(eps)} epsilons")
        for e, prop in zip(eps, props):
            check_propagator(grid, _params(cfg, e), prop, seed)
        check_advect(grid, result.pe_records[-1].final_state)


WORKLOADS = {
    "pair-n32": PairWorkload(
        "grid.n = 32\nparams.epsilon = 0.01\ntime.t_end = 0.05\n"
        "diag.cadence = 10\ndiag.snapshot_every = 10\n",
        residual=True),
    "pair-n64": PairWorkload(
        "grid.n = 64\nparams.epsilon = 0.01\ntime.t_end = 0.02\n"
        "diag.cadence = 10\n",
        residual=False),
    "sweep-n16": SweepWorkload(
        "grid.n = 16\ntime.t_end = 0.05\ndiag.cadence = 1\n"
        "sweep.epsilons = 0.1, 0.05, 0.02, 0.01\n"),
}


# --- reductions --------------------------------------------------------------------

def end_to_end(samples, peak_rss_mb):
    """Set-up and wall time are medians over rounds; the step rates are
    steps completed per second spent in the solver, over the whole run."""
    med = statistics.median
    values = {
        "setup_s": med(s.setup_s for s in samples),
        "pe_steps_per_s": sum(s.pe_steps for s in samples) / sum(s.pe_s for s in samples),
        "qg_steps_per_s": sum(s.qg_steps for s in samples) / sum(s.qg_s for s in samples),
        "wall_s": med(s.wall_s for s in samples),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(span_list, qg_steps):
    """Per-layer values of one traced round (trace.overhead_s excluded)."""
    table = spans.layer_table(span_list)

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def fields_under(name):
        return sum(s.counts.get("fields", 0)
                   for s, flag in zip(span_list, spans.under(span_list, name))
                   if flag and s.name == "spectral.fft")

    pe_steps = get("pe_solver.pe_step", "calls")
    derived = {
        "spectral.fft.fields_per_pe_step":
            fields_under("pe_solver.pe_step") / pe_steps if pe_steps else 0.0,
        "spectral.fft.fields_per_qg_step": fields_under("qg_solver.qg_run") / qg_steps,
        "pe_solver.pe_step.ms":
            1e3 * get("pe_solver.pe_step", "total_s") / pe_steps if pe_steps else 0.0,
        "diagnostics.records":
            get("pe_solver.pe_run", "records") + get("qg_solver.qg_run", "records"),
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name != "trace.overhead_s":
            span, key = name.rsplit(".", 1)
            out[name] = get(span, key)
    return out
