"""Acceptance suite: one test per numbered criterion, at the stated
tolerances, printing one pass/fail line each (run with -s to stream them).

The expensive artifacts (the epsilon sweep and the vorticity-balance runs)
are computed once per module and shared between criteria.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qglab import (
    Grid,
    Params,
    build_propagator,
    energy_check,
    l2_norm,
    lowpass_profile,
    make_well_prepared_data,
    pe_run,
    potential_vorticity,
    qg_run,
    random_state,
    smallness_condition,
    sobolev_norm,
    vorticity_residual,
)
from qglab.checks import structure_defects, truncation_defects
from qglab.config import default_config
from qglab.pe_solver import _linear_symbols
from qglab.sweep import run_convergence_sweep

from half_spectrum import half_index

INVISCID = 1e-30  # positive, but exp(-nu k^2 dt) == 1.0 exactly in float64


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def grid():
    return Grid(32)


@pytest.fixture(scope="module")
def sweep_result():
    return run_convergence_sweep(default_config())


@pytest.fixture(scope="module")
def residual_records(grid):
    """Default scenario at eps=0.1, sampled over the initial window, at the
    base resolution (dt=1e-3, spacing 10 dt) and with both halved."""
    cfg = default_config()
    U0 = make_well_prepared_data(grid, cfg)
    records = {}
    for dt in (1e-3, 5e-4):
        diag = dataclasses.replace(cfg.diag, snapshot_every=10)
        records[dt] = pe_run(grid, U0, cfg.params, 0.3, dt, diag)
    return records


def test_criterion_1_structure_suite(grid):
    t0 = time.time()
    tol_tight = 1e-10   # projections, orthogonality, skewness, solenoidality
    tol_prod = 1e-8     # pseudo-spectral product identities
    worst = structure_defects(grid, np.random.default_rng(101), 200)
    elapsed = time.time() - t0
    tight = ("projections", "orthogonality", "skewness", "solenoidal",
             "diffusion identity")
    products = ("transport/vorticity", "H1 cancellation")
    ok = (
        max(worst[k] for k in tight) <= tol_tight
        and max(worst[k] for k in products) <= tol_prod
        and elapsed < 60.0
    )
    detail = f"200 fields in {elapsed:.1f}s; " + ", ".join(
        f"{k} {v:.1e}" for k, v in worst.items())
    report(1, ok, detail)


def test_criterion_2_linear_oracle():
    t0 = time.time()
    small = Grid(8)
    rng = np.random.default_rng(202)

    def oracle(M, dt, w0):
        def rhs(t, y):
            dw = M @ (y[:4] + 1j * y[4:])
            return np.concatenate([dw.real, dw.imag])

        sol = solve_ivp(rhs, (0.0, dt), np.concatenate([w0.real, w0.imag]),
                        method="DOP853", rtol=1e-12, atol=1e-14)
        return sol.y[:4, -1] + 1j * sol.y[4:, -1]

    worst_match = 0.0
    for _ in range(50):
        nu = float(10 ** rng.uniform(-3, -1))
        nu_prime = nu * float(10 ** rng.uniform(0.1, 1.0))  # nu != nu'
        p = Params(epsilon=float(10 ** rng.uniform(-3, 0)), nu=nu,
                   nu_prime=nu_prime)
        msym = _linear_symbols(small, p).reshape(small.shape + (4, 4))
        idx = half_index(8, rng.integers(0, 8, size=3))
        if idx == (0, 0, 0):
            idx = (1, 2, 3)
        w0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for dt in (1e-2, 1e-1):
            prop = build_propagator(small, p, dt)
            got = prop.matrix_at(*idx) @ w0
            want = oracle(msym[idx], dt, w0)
            worst_match = max(
                worst_match, float(np.abs(got - want).max() / np.abs(want).max())
            )

    # inviscid norm preservation over 100 steps on the solenoidal subspace
    p = Params(epsilon=0.05, nu=INVISCID, nu_prime=INVISCID)
    prop = build_propagator(small, p, 0.01)
    kd = (small.kd1, small.kd2, small.kd3)
    worst_drift = 0.0
    for _ in range(50):
        idx = half_index(8, rng.integers(0, 8, size=3))
        kvec = np.array(
            [kd[0][idx[0], 0, 0], kd[1][0, idx[1], 0], kd[2][0, 0, idx[2]]]
        )
        if np.all(kvec == 0):
            continue
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w[:3] -= kvec * (kvec @ w[:3]) / (kvec @ kvec)
        z = w.copy()
        mat = prop.matrix_at(*idx)
        for _ in range(100):
            z = mat @ z
        worst_drift = max(
            worst_drift,
            float(abs(np.linalg.norm(z) - np.linalg.norm(w)) / np.linalg.norm(w)),
        )

    elapsed = time.time() - t0
    ok = worst_match <= 1e-8 and worst_drift <= 1e-10
    report(
        2, ok,
        f"50 random modes in {elapsed:.1f}s; oracle mismatch {worst_match:.2e} "
        f"(tol 1e-8), inviscid 100-step drift {worst_drift:.2e} (tol 1e-10)",
    )


def test_criterion_3_solver_orders(grid):
    cfg = default_config()
    U0 = make_well_prepared_data(grid, cfg)
    params = cfg.params
    t_end = 0.1
    dts = (0.02, 0.01, 0.005)

    pe_finals = {dt: pe_run(grid, U0, params, t_end, dt, cfg.diag).final_state
                 for dt in dts}
    pe_order = float(
        np.log2(
            l2_norm(pe_finals[0.02] - pe_finals[0.01])
            / l2_norm(pe_finals[0.01] - pe_finals[0.005])
        )
    )

    omega0 = potential_vorticity(grid, U0)
    qg_finals = {dt: qg_run(grid, omega0, params, t_end, dt, cfg.diag).final_state
                 for dt in dts}
    qg_order = float(
        np.log2(
            l2_norm(qg_finals[0.02] - qg_finals[0.01])
            / l2_norm(qg_finals[0.01] - qg_finals[0.005])
        )
    )

    ok = abs(pe_order - 4.0) <= 0.5 and abs(qg_order - 4.0) <= 0.5
    report(
        3, ok,
        f"dt-halving orders on the default scenario (t_end=0.1): "
        f"full solver {pe_order:.3f}, limit solver {qg_order:.3f} (4.0 +/- 0.5)",
    )


def test_criterion_4_vorticity_residual(residual_records):
    params = default_config().params
    values = {
        dt: vorticity_residual(rec, params).channel("vorticity_residual")
        for dt, rec in residual_records.items()
    }
    base = float(values[1e-3].max())
    refined = float(values[5e-4].max())
    ratio = base / refined
    ok = base <= 1e-2 and 2.5 <= ratio <= 6.0 and refined <= 1e-3
    report(
        4, ok,
        f"residual {base:.2e} (tol 1e-2) at spacing 10*dt; halving dt and "
        f"spacing shrinks it {ratio:.2f}x (approx 4x); refined {refined:.2e} "
        f"(tol 1e-3)",
    )


def test_criterion_5_convergence_sweep(sweep_result):
    res = sweep_result
    sup_osc = res.metrics["sup_osc_l2"]
    omega_gap = res.metrics["omega_diff_sup_l2"]
    decreasing = all(a > b for a, b in zip(sup_osc, sup_osc[1:])) and all(
        a > b for a, b in zip(omega_gap, omega_gap[1:])
    )
    slope = res.rates["osc_es_0"][0]
    qg_gap = res.metrics["qg_diff_es_0.5"]
    halved = qg_gap[-1] <= 0.5 * qg_gap[0]
    ok = decreasing and slope >= 0.3 and halved
    # recorded, not asserted: the bootstrap budget ratio at the smallest eps
    cfg = default_config()
    from qglab import bootstrap_monitor

    boot = bootstrap_monitor(res.pe_records[-1].series, cfg.params.nu,
                             cfg.params.nu_prime)
    report(
        5, ok,
        f"sup osc L2 {['%.3e' % v for v in sup_osc]} and pv gap "
        f"{['%.3e' % v for v in omega_gap]} strictly decreasing: {decreasing}; "
        f"osc dissipation-norm slope {slope:.3f} (>= 0.3); balanced gap at "
        f"eps=0.01 is {qg_gap[-1] / qg_gap[0]:.3f} of eps=0.1 (<= 0.5); "
        f"[recorded] bootstrap budget ratio at eps=0.01: {boot.ratio:.3e}",
    )


def test_criterion_6_truncation_suite(grid):
    rng = np.random.default_rng(606)
    # chi plateau/support values are exact
    exact = (
        lowpass_profile(0.75) == 1.0
        and lowpass_profile(0.5) == 1.0
        and lowpass_profile(4.0 / 3.0) == 0.0
        and lowpass_profile(2.0) == 0.0
    )
    ratio, tail_ok = truncation_defects(grid, rng, 25)
    contraction_ok = ratio <= 1 + 1e-14
    ok = exact and tail_ok and contraction_ok
    report(
        6, ok,
        f"chi plateau/support exact: {exact}; tail bounds (m=1..5, all (s,a)): "
        f"{tail_ok}; low-pass contraction: {contraction_ok} (worst H^s ratio "
        f"{ratio:.16f})",
    )


def test_criterion_7_energy_inequalities(sweep_result, residual_records):
    cfg = default_config()
    reports = []
    for rec in list(sweep_result.pe_records) + list(residual_records.values()):
        reports.append(energy_check(rec.series, cfg.params.nu, cfg.params.nu_prime))
    qg_rep = energy_check(sweep_result.qg_record.series, cfg.params.nu,
                          cfg.params.nu_prime, field="omega")
    reports.append(qg_rep)
    ok = all(r.passed for r in reports)
    worst = max(r.max_budget_ratio for r in reports)
    report(
        7, ok,
        f"{len(reports)} acceptance runs satisfy the discrete energy "
        f"inequalities; worst budget ratio {worst:.9f} (tol 1 + 1e-6)",
    )


def test_criterion_8_condition_evaluator(grid):
    rng = np.random.default_rng(808)
    U0 = random_state(grid, rng)
    p = Params(epsilon=0.1, nu=0.5, nu_prime=0.4)
    rep1 = smallness_condition(grid, U0, p, c_big=1.0)
    rep2 = smallness_condition(grid, 2.0 * U0, p, c_big=1.0)

    l2 = sobolev_norm(grid, U0, 0.0)
    h_half = sobolev_norm(grid, U0, 0.5)
    h1 = sobolev_norm(grid, U0, 1.0)
    expo = np.exp(-(2 * l2) * (2 * h1) / 0.4**2)
    want_osc = 0.4**4 / (2 * h1) ** 3 * expo
    want_eps = 0.4**4 / ((2 * h1) ** 4 * (2 * h_half + 0.5)) * expo
    err_osc = abs(rep2.threshold_osc - want_osc) / want_osc
    err_eps = abs(rep2.threshold_eps - want_eps) / want_eps
    moved = rep2.threshold_osc < rep1.threshold_osc
    ok = err_osc <= 1e-12 and err_eps <= 1e-12 and moved
    report(
        8, ok,
        f"doubling the data reproduces the recomputed thresholds to "
        f"{max(err_osc, err_eps):.2e} (tol 1e-12)",
    )
