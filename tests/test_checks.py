import dataclasses

import numpy as np

import qglab.operators
import qglab.pe_solver
import qglab.qg_solver
from qglab import Grid, derivative, from_spectral
from qglab.checks import CheckResult, run_all, structure_defects
from qglab.cli import cli_main
from qglab.spectral import spectral_product


def test_suite_passes_on_small_grid():
    results = run_all(n=16, draws=6, seed=5)
    assert results
    for r in results:
        assert r.passed, f"{r.name}: worst {r.worst:.3e} > tol {r.tolerance:.1e}"


def test_suite_fails_on_a_broken_potential_vorticity(monkeypatch):
    # drop the -F d3 theta term: the QG split no longer annihilates pv(osc)
    def pv_without_buoyancy(grid, U, froude=1.0):
        return derivative(grid, U[1], 1) - derivative(grid, U[0], 2)

    monkeypatch.setattr(qglab.operators, "potential_vorticity", pv_without_buoyancy)
    monkeypatch.setattr(qglab.checks, "potential_vorticity", pv_without_buoyancy)
    worst = structure_defects(Grid(16), np.random.default_rng(5), 3)
    assert worst["projections"] > 1e-10
    results = {r.name: r for r in run_all(n=16, draws=3, seed=5)}
    assert not results["QG/osc idempotence and complement"].passed


def test_suite_fails_on_an_unrotated_propagator(monkeypatch):
    # without the rotation every mode gets its class matrix at phi = 0
    monkeypatch.setattr(qglab.pe_solver, "_rotate_pair", lambda *args: None)
    results = {r.name: r for r in run_all(n=8, draws=1, seed=5)}
    assert not results["propagator equals per-mode expm on every stored mode"].passed


def test_suite_fails_on_a_flipped_buoyancy_transport(monkeypatch):
    # the full solver's N(U) with the sign of its theta component flipped
    nonlinear = qglab.pe_solver._nonlinear

    def flipped(grid, U):
        out = nonlinear(grid, U)
        out[3] *= -1.0
        return out

    monkeypatch.setattr(qglab.pe_solver, "_nonlinear", flipped)
    worst = structure_defects(Grid(16), np.random.default_rng(5), 3)
    assert worst["transport/vorticity"] > 1e-8
    results = {r.name: r for r in run_all(n=16, draws=3, seed=5)}
    assert not results["transport/vorticity commutation on QG fields"].passed


def test_suite_fails_on_a_reversed_qg_transport(monkeypatch):
    # the limit solver's transport with a wrong-handed Biot-Savart velocity
    qg_rhs = qglab.qg_solver._qg_rhs
    monkeypatch.setattr(qglab.qg_solver, "_qg_rhs",
                        lambda grid, omega, froude: -qg_rhs(grid, omega, froude))
    worst = structure_defects(Grid(16), np.random.default_rng(5), 3)
    assert worst["transport/vorticity"] > 1e-8
    results = {r.name: r for r in run_all(n=16, draws=3, seed=5)}
    assert not results["transport/vorticity commutation on QG fields"].passed


def test_suite_fails_on_swapped_diffusivities(monkeypatch):
    # the propagator's L with nu and nu' exchanged: the diffusion identity
    # reads the symbol the propagator exponentiates, so it must see this
    symbols = qglab.pe_solver._symbols

    def swapped(kd, params):
        return symbols(kd, dataclasses.replace(params, nu=params.nu_prime,
                                               nu_prime=params.nu))

    monkeypatch.setattr(qglab.pe_solver, "_symbols", swapped)
    worst = structure_defects(Grid(16), np.random.default_rng(5), 3)
    assert worst["diffusion identity"] > 1e-10
    results = {r.name: r for r in run_all(n=16, draws=3, seed=5)}
    assert not results["QG diffusion = QG projection of full diffusion"].passed


def test_suite_fails_on_a_flipped_vorticity_source(monkeypatch):
    # Chemin's source with its first product, d3 v3_osc (d1 v2 - d2 v1),
    # sign-flipped: the pv balance of N(U) on every draw must see it
    source = qglab.operators.osc_vorticity_source

    def flipped(grid, U_osc, U, U_qg, froude=1.0):
        p = from_spectral(grid, np.stack([
            derivative(grid, U_osc[2], 3),
            derivative(grid, U[1], 1) - derivative(grid, U[0], 2)]))
        return (source(grid, U_osc, U, U_qg, froude)
                - 2.0 * spectral_product(grid, p[0] * p[1]))

    monkeypatch.setattr(qglab.checks, "osc_vorticity_source", flipped)
    worst = structure_defects(Grid(16), np.random.default_rng(5), 3)
    assert worst["transport/vorticity"] > 1e-8
    results = {r.name: r for r in run_all(n=16, draws=3, seed=5)}
    assert not results["transport/vorticity commutation on QG fields"].passed


def test_suite_fails_on_a_projector_without_its_vertical_term(monkeypatch):
    # the solver's projector with xi3 v3 dropped from the divergence: the
    # propagator's symbol runs it, so the diffusion identity must see it
    def projector(kd, k2, v):
        div = kd[0] * v[0] + kd[1] * v[1]
        np.divide(div, k2, out=div, where=k2 > 0)
        for i in range(3):
            v[i] -= kd[i] * div
        return v

    monkeypatch.setattr(qglab.pe_solver, "_leray_in_place", projector)
    worst = structure_defects(Grid(16), np.random.default_rng(5), 3)
    assert worst["diffusion identity"] > 1e-10
    results = {r.name: r for r in run_all(n=16, draws=3, seed=5)}
    assert not results["QG diffusion = QG projection of full diffusion"].passed


def test_check_invariants_cli(monkeypatch, capsys):
    fake = [
        CheckResult(name="alpha", worst=1e-13, tolerance=1e-10),
        CheckResult(name="beta", worst=0.0, tolerance=0.0),
    ]
    monkeypatch.setattr("qglab.cli.run_all", lambda n=32: fake)
    assert cli_main(["check-invariants"]) == 0
    out = capsys.readouterr().out
    assert "PASS  alpha" in out and "2/2" in out

    fake.append(CheckResult(name="gamma", worst=1.0, tolerance=1e-10))
    assert cli_main(["check-invariants"]) == 1
    assert "FAIL  gamma" in capsys.readouterr().out
