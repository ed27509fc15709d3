"""Command-line front end.

Subcommands:

* ``run-pe``            one full (penalized) run from the configured data
* ``run-qg``            one limit-system run from the balanced vorticity
* ``sweep``             the epsilon sweep with metrics, rates and exports
* ``decompose``         QG/oscillating split of the configured initial data;
                        ``initial_qg.npy`` and ``initial_osc.npy`` hold complex
                        half-spectra of shape (4, n, n, n//2+1)
* ``check-invariants``  the structural property suite at n=32
* ``check-conditions``  smallness-condition margins for the configured data

Exit codes: 0 success, 1 validation error, 2 runtime blow-up, 3 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .checks import run_all
from .config import ConfigError, _read_text, parse_config_text
from .diagnostics import S_LIST, energy_check, smallness_condition, sobolev_norm
from .initial_data import make_well_prepared_data
from .operators import decompose, potential_vorticity
from .pe_solver import BlowUpError, pe_run
from .qg_solver import qg_run
from .spectral import Grid
from .sweep import (
    METRIC_NAMES,
    export,
    resolve_time,
    run_convergence_sweep,
)

__all__ = ["main", "cli_main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qglab",
        description="Pseudo-spectral laboratory for rotating stratified flow "
                    "and its quasi-geostrophic limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    needs_config = {
        "run-pe": "single full run",
        "run-qg": "single limit-system run",
        "sweep": "epsilon sweep",
        "decompose": "split the configured initial data",
        "check-conditions": "evaluate smallness margins",
    }
    for name, desc in needs_config.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="path to key=value config")
        if name != "check-conditions":
            p.add_argument("--out", default="./out", help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="extra config line (repeatable)")
    sub.add_parser("check-invariants", help="structural property suite")
    return parser


def _load(args):
    return parse_config_text("\n".join([_read_text(args.config), *args.override]))


def _setup(cfg):
    grid = Grid(cfg.grid.n, cfg.grid.box_length)
    U0 = make_well_prepared_data(grid, cfg)
    dt, n_steps = resolve_time(cfg, grid, U0)
    return grid, U0, dt, n_steps


def _report_energy(series, params, field):
    report = energy_check(series, params.nu, params.nu_prime, field=field)
    flag = "ok" if report.passed else f"FAILED at t={report.first_violation_time:g}"
    print(f"energy: {flag}")


def _cmd_run_pe(args):
    cfg = _load(args)
    grid, U0, dt, n_steps = _setup(cfg)
    print(f"run-pe: n={grid.n} eps={cfg.params.epsilon:g} dt={dt:g} steps={n_steps}")
    record = pe_run(grid, U0, cfg.params, cfg.time.t_end, dt, cfg.diag)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "pe_series.csv"
    record.series.to_csv(path)
    _report_energy(record.series, cfg.params, "U")
    print(f"wrote {path}")
    return 0


def _cmd_run_qg(args):
    cfg = _load(args)
    grid, U0, dt, n_steps = _setup(cfg)
    omega0 = potential_vorticity(grid, U0, cfg.params.froude)
    print(f"run-qg: n={grid.n} dt={dt:g} steps={n_steps}")
    record = qg_run(grid, omega0, cfg.params, cfg.time.t_end, dt, cfg.diag)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "qg_series.csv"
    record.series.to_csv(path)
    _report_energy(record.series, cfg.params, "omega")
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args):
    cfg = _load(args)
    result = run_convergence_sweep(cfg)
    paths = export(result, args.out)
    print(f"{'eps':>10} " + " ".join(f"{m:>18}" for m in METRIC_NAMES))
    for i, eps in enumerate(result.epsilons):
        row = result.metric_row(i)
        print(f"{eps:>10g} " + " ".join(f"{row[m]:>18.6g}" for m in METRIC_NAMES))
    print("fitted log-log slopes vs eps:")
    for name in METRIC_NAMES:
        slope, _, resid = result.rates[name]
        print(f"  {name:>18}: slope={slope:8.4f}  rms_residual={resid:8.4f}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_decompose(args):
    cfg = _load(args)
    grid, U0, _, _ = _setup(cfg)
    parts = decompose(grid, U0, cfg.params.froude)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "initial_qg.npy", parts.qg)
    np.save(out / "initial_osc.npy", parts.osc)
    norms_path = out / "initial_norms.csv"
    with open(norms_path, "w", encoding="utf-8") as fh:
        fh.write("field,s,norm\n")
        for label, field in (("U", U0), ("U_qg", parts.qg), ("U_osc", parts.osc)):
            for s in S_LIST:
                fh.write(f"{label},{s:g},{sobolev_norm(grid, field, s):.17g}\n")
    for name in ("initial_qg.npy", "initial_osc.npy", "initial_norms.csv"):
        print(f"wrote {out / name}")
    return 0


def _cmd_check_conditions(args):
    cfg = _load(args)
    grid, U0, _, _ = _setup(cfg)
    report = smallness_condition(grid, U0, cfg.params)
    print(f"smallness evaluation (constant C = {report.c_big:g}):")
    print(f"  oscillating part H^-1: measured {report.measured_osc:.6g}  "
          f"threshold {report.threshold_osc:.6g}  margin {report.margin_osc:.6g}")
    print(f"  rossby number:         measured {report.measured_eps:.6g}  "
          f"threshold {report.threshold_eps:.6g}  margin {report.margin_eps:.6g}")
    return 0


def _cmd_check_invariants(args):
    results = run_all(n=32)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  worst={r.worst:.3e}  tol={r.tolerance:.0e}")
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} invariant checks passed")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "run-pe": _cmd_run_pe,
    "run-qg": _cmd_run_qg,
    "sweep": _cmd_sweep,
    "decompose": _cmd_decompose,
    "check-conditions": _cmd_check_conditions,
    "check-invariants": _cmd_check_invariants,
}


def cli_main(argv=None):
    logging.basicConfig(format="%(message)s")
    logging.getLogger("qglab").setLevel(logging.INFO)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BlowUpError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
