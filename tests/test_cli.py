import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import qglab
from qglab import NormSeries
from qglab.cli import cli_main
from qglab.config import ConfigError, default_config, parse_config_text

TINY_CONFIG = """
# desk-scale smoke configuration
grid.n = 16
time.t_end = 0.05
time.dt = 0.0025
diag.cadence = 5
sweep.epsilons = 0.2, 0.1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestConfigParsing:
    def test_defaults_cover_empty_file(self):
        cfg = parse_config_text("")
        assert cfg.grid.n == 32
        assert cfg.params.nu != cfg.params.nu_prime  # unequal by default
        assert cfg.sweep.epsilons == (0.1, 0.05, 0.02, 0.01)

    def test_shipped_config_matches_defaults(self):
        from pathlib import Path

        from qglab.config import load_config

        path = Path(__file__).resolve().parents[1] / "configs" / "acceptance.cfg"
        assert load_config(path) == default_config()

    def test_parses_values_and_comments(self):
        cfg = parse_config_text(TINY_CONFIG)
        assert cfg.grid.n == 16
        assert cfg.time.dt == 0.0025
        assert cfg.sweep.epsilons == (0.2, 0.1)

    def test_osc_amplitude_bound_reads_the_largest_epsilon(self):
        parse_config_text("init.osc_amplitude = 1e100")
        with pytest.raises(ConfigError, match="init.osc_amplitude"):
            parse_config_text("init.osc_amplitude = 1e100\n"
                              "sweep.epsilons = 1e100, 0.1")

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="grid.sizes"):
            parse_config_text("grid.sizes = 32")

    @pytest.mark.parametrize("key", ["params.nu_min", "with_epsilon.x"])
    def test_non_fields_are_unknown_keys(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config_text(f"{key} = 1")

    def test_rendered_defaults_parse_back(self):
        # every field must have a parser, so a new field without one fails
        cfg = default_config()
        lines = []
        for section in fields(cfg):
            for f in fields(getattr(cfg, section.name)):
                value = getattr(getattr(cfg, section.name), f.name)
                if isinstance(value, tuple):
                    raw = ", ".join(repr(x) for x in value)
                else:
                    raw = "auto" if value is None else repr(value)
                lines.append(f"{section.name}.{f.name} = {raw}")
        assert len(lines) == 16
        assert parse_config_text("\n".join(lines)) == cfg

    def test_memory_preflight(self, monkeypatch):
        # the estimate grows with n and with the records a sweep holds, and
        # only a config that cannot fit is refused; no reading, no refusal
        monkeypatch.setattr(qglab.config, "_available_bytes", lambda: 8e9)
        short = "time.dt = 1e-3\ntime.t_end = 0.02\n"
        peaks = [qglab.config._peak_bytes(parse_config_text(f"grid.n = {n}\n" + short))
                 for n in (16, 32, 64, 128)]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))
        assert (qglab.config._peak_bytes(parse_config_text("grid.n = 64\n"))
                > qglab.config._peak_bytes(parse_config_text("grid.n = 64\n" + short)))
        parse_config_text("grid.n = 128\n")
        with pytest.raises(ConfigError, match="grid.n=256"):
            parse_config_text("grid.n = 256\n" + short)
        monkeypatch.setattr(qglab.config, "_available_bytes", lambda: None)
        parse_config_text("grid.n = 256\n" + short)

    def test_one_epsilon_n256_sweep_fits_in_8_gb(self, monkeypatch):
        # records read the compact band: the estimate no longer holds a
        # record's 25 half-spectrum fields
        monkeypatch.setattr(qglab.config, "_available_bytes", lambda: 8e9)
        parse_config_text("grid.n = 256\ntime.t_end = 0.01\ntime.dt = 1e-3\n"
                          "diag.cadence = 10\nsweep.epsilons = 0.1\n")

    def test_available_memory_reads_meminfo(self):
        have = qglab.config._available_bytes()
        if os.path.exists("/proc/meminfo"):
            assert have > 0
        else:
            assert have is None

    def test_step_count_bounded(self):
        # 10^12 steps tile t_end in whole cadence periods, but no run should
        # take them
        text = ("grid.n = 8\ninit.spectrum_peak_k = 1\ntime.dt = 1e-12\n"
                "time.t_end = 1\ndiag.cadence = 1000000000000")
        with pytest.raises(ConfigError, match=r"time.dt=1e-12 gives 1000000000000 steps"):
            parse_config_text(text)
        parse_config_text("grid.n = 8\ninit.spectrum_peak_k = 1\ntime.dt = 1e-7\n"
                          "time.t_end = 1\ndiag.cadence = 10000000")

    def test_params_range_error_names_the_key(self):
        with pytest.raises(ConfigError, match="params.nu_prime"):
            parse_config_text("params.nu_prime = -1")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config_text("grid.n = large")

    def test_auto_dt(self):
        cfg = parse_config_text("time.dt = auto")
        assert cfg.time.dt is None

    @pytest.mark.parametrize(
        "line",
        [
            "grid.n = 20",
            "params.froude = 0",
            "params.froude = 1.5",
            "sweep.epsilons = 0.01, 0.1",  # not decreasing
            "sweep.epsilons = 0.1, -0.05",
            "diag.cadence = 0",
            "init.spectrum_peak_k = 30",
            "time.t_end = -1",
            "time.t_end = nan",
            "time.t_end = inf",
            "time.dt = nan",
            "time.dt = 1e-320",  # t_end/dt overflows to inf
            "time.dt = 0.003",  # not a whole number of steps in t_end
            "time.dt = 0.04",  # 25 steps, not a multiple of diag.cadence
            "params.epsilon = inf",
            "params.nu = nan",
            "init.qg_amplitude = inf",
            "grid.box_length = inf",
            "sweep.epsilons = nan, 0.1",
        ],
    )
    def test_range_validation(self, line):
        with pytest.raises(ConfigError):
            parse_config_text(line)

    def test_overrides(self, tmp_path, capsys, monkeypatch):
        # the overrides are parsed with the file, after it, in one pass
        parsed = []

        def parse(text):
            parsed.append(parse_config_text(text))
            return parsed[-1]

        monkeypatch.setattr(qglab.cli, "parse_config_text", parse)
        path = tmp_path / "empty.cfg"
        path.write_text("")
        code = cli_main(["check-conditions", "--config", str(path),
                         "--override", "params.epsilon=0.2",
                         "--override", "grid.n = 16"])
        assert code == 0
        cfg = parsed[-1]
        assert cfg.params.epsilon == 0.2 and cfg.grid.n == 16
        capsys.readouterr()
        code = cli_main(["check-conditions", "--config", str(path),
                         "--override", "nonsense"])
        assert code == 1
        assert "'nonsense'" in capsys.readouterr().err


def _run_module(argv):
    """``python -m qglab.cli`` in a fresh process, on this checkout's source."""
    src = Path(qglab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-m", "qglab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestCLI:
    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        code = cli_main(["run-pe", "--config", str(tmp_path / "absent.cfg")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_override_key(self, config_path, capsys):
        code = cli_main(
            ["run-qg", "--config", str(config_path), "--override", "foo.bar=1"]
        )
        assert code == 1
        assert "foo.bar" in capsys.readouterr().err

    def test_bad_numbers_rejected_before_any_run(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("pe_run called before the config was checked")

        monkeypatch.setattr(qglab.cli, "pe_run", no_run)
        cfg = default_config()
        float_keys = [
            f"{s.name}.{f.name}" for s in fields(cfg)
            for f in fields(getattr(cfg, s.name)) if f.type != "int"
        ]
        assert len(float_keys) == 12
        bad = [(key, raw) for key in float_keys for raw in ("nan", "inf", "-inf")]
        bad.append(("params.froude", "1.5"))
        # finite, but the initial data vanish or overflow
        bad += [("grid.box_length", "1e300"), ("grid.box_length", "1e-300"),
                ("init.qg_amplitude", "1e300"), ("init.osc_amplitude", "1e300")]
        for key, raw in bad:
            code = cli_main(["run-pe", "--config", str(config_path),
                             "--out", str(tmp_path / "out"),
                             "--override", f"{key}={raw}"])
            err = capsys.readouterr().err
            assert code == 1, (key, raw)
            assert err.startswith("error: ") and key in err, (key, raw, err)
        assert not (tmp_path / "out").exists()

    def test_override_repairs_the_file(self, tmp_path, capsys):
        # the file alone is invalid (peak 6 needs n > 18); n=32 repairs it
        path = tmp_path / "peak.cfg"
        path.write_text("grid.n = 16\ninit.spectrum_peak_k = 6\n")
        code = cli_main(["check-conditions", "--config", str(path)])
        assert code == 1
        assert "spectrum_peak_k" in capsys.readouterr().err
        code = cli_main(["check-conditions", "--config", str(path),
                         "--override", "grid.n=32"])
        assert code == 0
        assert "margin" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run-pe", "decompose"])
    @pytest.mark.parametrize("dt", ["0.003", "0.00625"])
    def test_ragged_dt_rejected_before_the_data(
        self, command, dt, config_path, tmp_path, capsys, monkeypatch
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("initial data drawn before the config was checked")

        monkeypatch.setattr(qglab.cli, "make_well_prepared_data", no_data)
        code = cli_main([command, "--config", str(config_path),
                         "--out", str(tmp_path / "out"),
                         "--override", f"time.dt={dt}"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key", ["init.qg_amplitude", "init.osc_amplitude"])
    def test_huge_amplitude_rejected_before_the_data(
        self, key, config_path, tmp_path, capsys, monkeypatch
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("initial data drawn before the config was checked")

        monkeypatch.setattr(qglab.cli, "make_well_prepared_data", no_data)
        code = cli_main(["run-pe", "--config", str(config_path),
                         "--out", str(tmp_path / "out"),
                         "--override", f"{key}=1e300"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("box_length", ["1e-300", "1e-120", "1e300"])
    def test_extreme_box_length_rejected_before_the_grid(
        self, box_length, config_path, tmp_path, capsys, monkeypatch
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("Grid built before the config was checked")

        monkeypatch.setattr(qglab.cli, "Grid", no_grid)
        code = cli_main(["run-pe", "--config", str(config_path),
                         "--out", str(tmp_path / "out"),
                         "--override", f"grid.box_length={box_length}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "grid.box_length" in err

    @pytest.mark.parametrize("command", ["run-pe", "sweep"])
    def test_config_beyond_available_memory_rejected_before_the_grid(
        self, command, config_path, tmp_path, capsys, monkeypatch
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("Grid built before the config was checked")

        monkeypatch.setattr(qglab.cli, "Grid", no_grid)
        monkeypatch.setattr(qglab.sweep, "Grid", no_grid)
        # the n=64 sweep of the tiny config is estimated at 195 MB, n=16 at 74 MB
        monkeypatch.setattr(qglab.config, "_available_bytes", lambda: 150e6)
        code = cli_main([command, "--config", str(config_path),
                         "--out", str(tmp_path / "out"), "--override", "grid.n=64"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: grid.n=64: ") and "GB" in err
        assert not (tmp_path / "out").exists()

    def test_sweep_refused_at_its_auto_step_count(self, tmp_path, capsys, monkeypatch):
        # the defaults at t_end=1000 pass validation at the least auto step
        # count and are refused once auto resolves to the CFL limit
        def no_run(*args, **kwargs):
            raise AssertionError("reference run started")

        monkeypatch.setattr(qglab.sweep, "qg_run", no_run)
        monkeypatch.setattr(qglab.config, "_available_bytes", lambda: 150e6)
        path = tmp_path / "defaults.cfg"
        path.write_text("")
        code = cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--override", "time.t_end=1000"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: grid.n=32: ")
        assert not (tmp_path / "out").exists()

    def test_run_pe(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["run-pe", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        series = NormSeries.from_csv(out / "pe_series.csv")
        assert len(series) > 1
        assert "hs_Uosc_1.5" in series.channels
        assert "energy: ok" in capsys.readouterr().out

    def test_run_qg(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["run-qg", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        series = NormSeries.from_csv(out / "qg_series.csv")
        assert "hs_omega_0" in series.channels
        assert "energy: ok" in capsys.readouterr().out

    def test_run_qg_reports_an_energy_violation(self, config_path, tmp_path,
                                                monkeypatch, capsys):
        # the vorticity energy check is read from the run's own omega channels
        seen = {}

        def failing(series, nu, nu_prime, *, field="U"):
            seen["field"] = field
            return qglab.diagnostics.EnergyReport(
                passed=False, monotone=False, max_budget_ratio=1.5,
                first_violation_time=0.01)

        monkeypatch.setattr(qglab.cli, "energy_check", failing)
        code = cli_main(["run-qg", "--config", str(config_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert "energy: FAILED at t=0.01" in capsys.readouterr().out
        assert seen["field"] == "omega"

    def test_sweep(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["sweep", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        text = (out / "sweep.csv").read_text()
        assert len(text.strip().splitlines()) == 3  # header + 2 epsilons
        assert (out / "sweep.gp").exists()
        assert "slope" in capsys.readouterr().out

    def test_s_list_is_an_unknown_key(self, tmp_path, capsys):
        # the H^s channels are fixed (diagnostics.S_LIST), so a config that
        # still sets the old key is rejected, not silently ignored
        path = tmp_path / "old.cfg"
        path.write_text(TINY_CONFIG + "diag.s_list = -1, 0, 0.5, 1, 1.5\n")
        out = tmp_path / "out"
        code = cli_main(["sweep", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert "unknown config key 'diag.s_list'" in capsys.readouterr().err
        assert not out.exists()

    def test_python_m_cli_help(self):
        proc = _run_module(["--help"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: qglab")

    def test_sweep_logs_progress_to_stderr(self, config_path, tmp_path):
        proc = _run_module(["sweep", "--config", str(config_path),
                            "--out", str(tmp_path / "out"),
                            "--override", "sweep.epsilons = 0.1",
                            "--override", "time.t_end = 0.0125"])
        assert proc.returncode == 0, proc.stderr
        assert "running epsilon=0.1" in proc.stderr
        assert "running epsilon" not in proc.stdout

    def test_decompose(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = cli_main(["decompose", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        qg = np.load(out / "initial_qg.npy")
        osc = np.load(out / "initial_osc.npy")
        assert qg.shape == osc.shape == (4, 16, 16, 9)
        norms = (out / "initial_norms.csv").read_text().splitlines()
        assert norms[0] == "field,s,norm"
        assert len(norms) == 1 + 3 * 5
        assert np.isfinite(qg).all() and np.isfinite(osc).all()
        # parts reconstruct the stored initial data
        grid = qglab.Grid(16)
        U0 = qglab.make_well_prepared_data(grid, parse_config_text(TINY_CONFIG))
        back = qglab.from_spectral(grid, qg + osc)
        want = qglab.from_spectral(grid, U0)
        assert np.abs(back - want).max() <= 1e-12

    def test_check_conditions(self, config_path, capsys):
        code = cli_main(["check-conditions", "--config", str(config_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "margin" in out

    def test_blow_up_exit_code(self, config_path, tmp_path, capsys):
        # absurd amplitude forces the blow-up guard
        code = cli_main(
            [
                "run-pe",
                "--config", str(config_path),
                "--out", str(tmp_path / "out"),
                "--override", "init.qg_amplitude=1e9",
                "--override", "time.dt=0.0025",
            ]
        )
        assert code == 2
        assert "blow-up" in capsys.readouterr().err
