import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import qglab.config
import qglab.pe_solver
import qglab.sweep
from qglab import Grid, NormSeries, export, fit_rate, random_state, run_convergence_sweep
from qglab.config import ConfigError, default_config
from qglab.sweep import _METRICS, METRIC_NAMES, SweepResult, resolve_time

from half_spectrum import assert_channels_match, half_spectrum_pe_channels


class TestFitRate:
    def test_linear_metric(self):
        eps = [0.1, 0.05, 0.02, 0.01]
        slope, intercept, resid = fit_rate(eps, eps)
        assert abs(slope - 1.0) <= 1e-12
        assert abs(intercept) <= 1e-12
        assert resid <= 1e-12

    def test_constant_metric(self):
        slope, _, _ = fit_rate([0.1, 0.05, 0.02], [3.0, 3.0, 3.0])
        assert abs(slope) <= 1e-12

    def test_square_root_with_noise(self):
        rng = np.random.default_rng(0)
        eps = np.array([0.1, 0.05, 0.02, 0.01, 0.005])
        metric = np.sqrt(eps) * (1.0 + 0.01 * rng.standard_normal(len(eps)))
        slope, _, _ = fit_rate(eps, metric)
        assert abs(slope - 0.5) <= 0.05

    def test_nonpositive_points_excluded(self):
        slope, _, _ = fit_rate([0.1, 0.05, 0.02], [0.1, 0.0, 0.02])
        assert abs(slope - 1.0) <= 1e-12

    def test_degenerate_fit_is_nan(self):
        slope, intercept, resid = fit_rate([0.1], [1.0])
        assert math.isnan(slope) and math.isnan(intercept) and math.isnan(resid)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_rate([0.1, -0.05], [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_rate([0.1, 0.05], [1.0])


def tiny_sweep_config(epsilons=(0.2, 0.1)):
    cfg = default_config()
    cfg.grid.n = 16
    cfg.time.t_end = 0.05
    cfg.time.dt = 0.0025
    cfg.diag.cadence = 5
    cfg.sweep.epsilons = tuple(epsilons)
    return cfg


class TestResolveTime:
    def test_auto_dt_policy(self, grid16, rng):
        cfg = default_config()  # time.dt = auto, t_end = 1, cadence 10
        U0 = random_state(grid16, rng)
        dt, n_steps = resolve_time(cfg, grid16, U0)
        assert 0 < dt <= 1e-3
        assert n_steps % cfg.diag.cadence == 0 and n_steps * dt == pytest.approx(1.0)
        tiny = 1e-6 * U0
        dt, n_steps = resolve_time(cfg, grid16, tiny)
        assert dt == pytest.approx(1e-3)
        assert n_steps % cfg.diag.cadence == 0


    def test_auto_step_count_bounded(self, grid16, rng):
        # the cadence rounds the auto count up past the bound
        cfg = default_config()
        cfg.diag.cadence = 20_000_000
        with pytest.raises(ConfigError, match="gives 20000000 steps"):
            resolve_time(cfg, grid16, random_state(grid16, rng))


class TestRunConvergenceSweep:
    @pytest.mark.parametrize("dt", [0.003, 0.00625])
    def test_ragged_config_rejected_before_any_data(self, dt, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("initial data drawn before the config was checked")

        monkeypatch.setattr(qglab.sweep, "make_well_prepared_data", no_data)
        cfg = tiny_sweep_config()
        cfg.time.dt = dt
        with pytest.raises(ConfigError):
            run_convergence_sweep(cfg)

    def test_auto_dt_refused_when_its_records_do_not_fit(self, monkeypatch):
        # n=32, t_end=1000: validated at the least auto count, 1000 steps (118
        # MB), the CFL limit then takes 4690 steps (221 MB), more than 150 MB
        def no_run(*args, **kwargs):
            raise AssertionError("reference run started")

        monkeypatch.setattr(qglab.sweep, "qg_run", no_run)
        monkeypatch.setattr(qglab.config, "_available_bytes", lambda: 150e6)
        cfg = default_config()
        cfg.time.t_end = 1000.0
        with pytest.raises(ConfigError, match="grid.n=32: .* 0.22 GB"):
            run_convergence_sweep(cfg)

    def test_grid_holds_only_its_tables(self, monkeypatch):
        # the sweep's data, runs and records build their weights per call
        grids = []

        def recorded_grid(*args):
            grids.append(Grid(*args))
            return grids[-1]

        monkeypatch.setattr(qglab.sweep, "Grid", recorded_grid)
        run_convergence_sweep(tiny_sweep_config())
        held, built = vars(grids[0]), vars(Grid(16))
        assert set(held) == set(built) | {"_band"}
        assert all(np.array_equal(held[name], table) for name, table in built.items())

    def test_tiny_sweep_structure(self):
        cfg = tiny_sweep_config()
        result = run_convergence_sweep(cfg)
        assert result.epsilons == (0.2, 0.1)
        for name in METRIC_NAMES:
            assert len(result.metrics[name]) == 2
            assert all(np.isfinite(v) for v in result.metrics[name])
            slope, intercept, resid = result.rates[name]
            assert np.isfinite(slope)
        assert len(result.pe_records) == 2

    @pytest.mark.parametrize("froude", [1.0, 0.5])
    @pytest.mark.parametrize("n", [16, 32])
    def test_channels_and_metrics_match_the_half_spectrum(self, n, froude):
        # each run's records against their half-spectrum evaluation, and the
        # metrics and rates reduced from that evaluation; the rates to 1e-14
        # of max(|value|, 1), since they are in log units and the rms
        # residual of a near-exact fit is a difference of close logs
        cfg = tiny_sweep_config(epsilons=(0.1, 0.05, 0.02))
        cfg.grid.n = n
        cfg.params = replace(cfg.params, froude=froude)
        cfg.time.t_end, cfg.time.dt = 0.01, 1e-3
        cfg.diag.cadence = cfg.diag.snapshot_every = 2
        result = run_convergence_sweep(cfg)
        grid = result.qg_record.grid
        metrics = {name: [] for name in METRIC_NAMES}
        for eps, record in zip(result.epsilons, result.pe_records, strict=True):
            wanted = [half_spectrum_pe_channels(grid, W, froude, reference)
                      for W, reference in zip(record.snapshots,
                                              result.qg_record.snapshots, strict=True)]
            assert_channels_match(record.series, wanted)
            series = NormSeries()
            for t, values in zip(record.series.times, wanted):
                series.append(t, values)
            for name, reduce in _METRICS.items():
                metrics[name].append(reduce(series, cfg.params.nu, cfg.params.nu_prime))
        for name in METRIC_NAMES:
            got, want = np.array(result.metrics[name]), np.array(metrics[name])
            assert np.all(np.abs(got - want) <= 1e-14 * want), name
            got, want = np.array(result.rates[name]), np.array(fit_rate(result.epsilons, want))
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0)), name

    def test_single_epsilon_has_nan_slope(self):
        cfg = tiny_sweep_config(epsilons=(0.1,))
        result = run_convergence_sweep(cfg)
        for name in METRIC_NAMES:
            assert math.isnan(result.rates[name][0])

    def test_deterministic_metrics(self):
        cfg = tiny_sweep_config()
        r1 = run_convergence_sweep(cfg)
        r2 = run_convergence_sweep(tiny_sweep_config())
        for name in METRIC_NAMES:
            assert r1.metrics[name] == r2.metrics[name]

    def test_each_run_frees_its_propagator(self, monkeypatch):
        # a factor is dead by the next build, and all are once the sweep returns
        build = qglab.pe_solver.build_propagator
        refs, alive_at_build = [], []

        def tracked(*args):
            gc.collect()
            alive_at_build.append(sum(r() is not None for r in refs))
            prop = build(*args)
            refs.append(weakref.ref(prop))
            return prop

        monkeypatch.setattr(qglab.pe_solver, "build_propagator", tracked)
        result = run_convergence_sweep(tiny_sweep_config(epsilons=(0.2, 0.1, 0.05)))
        gc.collect()
        assert len(result.pe_records) == 3
        assert alive_at_build == [0, 0, 0]
        assert all(r() is None for r in refs)

    def test_blow_up_names_offending_epsilon(self):
        from qglab import BlowUpError

        cfg = tiny_sweep_config()
        # a gigantic oscillating part violates the CFL in the full runs but
        # is invisible to the vorticity reference, which stays healthy
        cfg.init.osc_amplitude = 1e10
        with pytest.raises(BlowUpError, match="epsilon=0.2"):
            run_convergence_sweep(cfg)


class TestExport:
    def test_sweep_files(self, tmp_path):
        cfg = tiny_sweep_config()
        result = run_convergence_sweep(cfg)
        paths = export(result, tmp_path / "out")
        names = {p.name for p in paths}
        assert "sweep.csv" in names
        assert "rates.csv" in names
        assert "sweep.gp" in names
        assert "series_qg.csv" in names
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(result.epsilons)
        header = lines[0].split(",")
        assert header[0] == "eps" and set(METRIC_NAMES) <= set(header)
        # values round-trip at 17 significant digits
        row = lines[1].split(",")
        for name, value in zip(header[1:], row[1:]):
            assert float(value) == result.metrics[name][0]

    def test_zero_row_export(self, tmp_path):
        empty = SweepResult(epsilons=(), metrics={n: [] for n in METRIC_NAMES},
                            rates={n: (math.nan,) * 3 for n in METRIC_NAMES},
                            pe_records=[], qg_record=None)
        # qg_record is absent; only the sweep-level files are written
        empty.qg_record = _EmptySeriesHolder()
        paths = export(empty, tmp_path)
        sweep_csv = [p for p in paths if p.name == "sweep.csv"][0]
        lines = sweep_csv.read_text().strip().splitlines()
        assert len(lines) == 1  # header only


class _EmptySeriesHolder:
    series = NormSeries()
