import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

import oracles
from oracles import CheckFailed


def test_expm_taylor_matches_scipy_and_an_ode_solve():
    rng = np.random.default_rng(3)
    for scale in (1e-3, 0.3, 5.0, 40.0):
        a = scale * rng.standard_normal((4, 4))
        want = scipy.linalg.expm(a)
        assert np.abs(oracles.expm_taylor(a) - want).max() <= 1e-12 * np.abs(want).max()
    a = 0.2 * rng.standard_normal((4, 4))
    sol = solve_ivp(lambda t, y: (a @ y.reshape(4, 4)).ravel(), (0.0, 1.0),
                    np.eye(4).ravel(), method="DOP853", rtol=1e-13, atol=1e-15)
    assert np.abs(oracles.expm_taylor(a) - sol.y[:, -1].reshape(4, 4)).max() <= 1e-11


def test_mode_symbol_structure():
    xi = np.array([1.0, -2.0, 3.0])
    m = oracles.mode_symbol(xi, epsilon=0.1, nu=1e-2, nu_prime=5e-3, froude=0.5)
    k2 = xi @ xi
    # the velocity rows of P A are solenoidal: xi . (M U)_v = -nu k2 xi . v
    u = np.array([0.3, 0.1, -0.2, 0.7])
    u[:3] -= xi * (xi @ u[:3]) / k2
    assert abs(xi @ (m @ u)[:3]) <= 1e-12
    # purely vertical mode: v3 is frozen by P, theta is driven by v3 (Jordan-like)
    mv = oracles.mode_symbol([0.0, 0.0, 2.0], 0.01, 1e-2, 5e-3, 1.0)
    assert mv[2, 3] == 0.0 and mv[3, 2] == pytest.approx(100.0)
    assert not oracles.mode_symbol([0.0, 0.0, 0.0], 0.1, 1e-2, 5e-3, 1.0).any()


def test_pick_modes_are_distinct_and_include_vertical_and_low_ones():
    for seed in range(20):
        modes = oracles.pick_modes(8, np.random.default_rng(seed))
        assert len(modes) == 6
        assert sorted(abs(m[2]) for m in modes[:2] if m[:2] == (0, 0)) == [1, 2]
        assert all(max(abs(x) for x in m) <= 2 for m in modes[2:4])
        keys = set(modes) | {tuple(-x for x in m) for m in modes}
        assert len(keys) == 2 * len(modes)
        assert all(max(abs(x) for x in m) < 4 for m in modes)


def test_plane_waves_round_trip_through_mode_coefficients():
    rng = np.random.default_rng(1)
    modes = oracles.pick_modes(8, rng)
    amps = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in modes]
    field = oracles.plane_wave_state(8, 2 * np.pi, modes, amps)
    for got, want in zip(oracles.mode_coefficients(field, modes), amps):
        assert np.abs(got - want).max() <= 1e-13


def test_propagator_oracle_agrees_with_the_program():
    import qglab

    grid = qglab.Grid(8)
    params = qglab.Params(epsilon=0.01, nu=1e-2, nu_prime=5e-3)
    prop = qglab.build_propagator(grid, params, 1e-3)
    rng = np.random.default_rng(5)
    modes = oracles.pick_modes(8, rng)
    amps = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in modes]
    state = oracles.plane_wave_state(8, grid.box_length, modes, amps)
    stepped = qglab.pe_step(qglab.to_spectral(grid, state), prop, nonlinear=False)
    evolved = qglab.from_spectral(grid, stepped)
    args = (grid.box_length, 0.01, 1e-2, 5e-3, 1.0)
    assert oracles.propagator_error(modes, amps, evolved, *args, 1e-3) <= 1e-8
    # the oracle sees a wrong step size
    assert oracles.propagator_error(modes, amps, evolved, *args, 2e-3) > 1e-4


def test_advection_of_plane_waves_is_exact():
    n, L = 16, 2 * np.pi
    x = np.arange(n) * L / n
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    # v = (sin y, cos z, 0), U components chosen inside the 2/3 band
    U = np.stack([np.sin(Y), np.cos(Z), np.zeros_like(X), np.cos(X + 2 * Y)])
    want = np.stack([
        np.cos(Z) * np.cos(Y),                       # v . grad sin y
        np.zeros_like(X),                            # v . grad cos z, v3 = 0
        np.zeros_like(X),
        -np.sin(X + 2 * Y) * (np.sin(Y) + 2 * np.cos(Z)),
    ])
    got = oracles.advection(U, L)
    assert np.abs(got - want).max() <= 1e-12


def test_advection_cut_removes_products_beyond_the_band():
    n, L = 12, 2 * np.pi
    x = np.arange(n) * L / n
    X = np.meshgrid(x, x, x, indexing="ij")[0]
    U = np.stack([np.cos(3 * X), np.zeros_like(X), np.zeros_like(X), np.sin(3 * X)])
    # v1 d1 theta = 3 cos^2(3x) = 1.5 + 1.5 cos(6x); mean and |k|=6 > 4 removed
    got = oracles.advection(U, L)
    assert np.abs(got[3]).max() <= 1e-12


def test_advection_oracle_agrees_with_the_program():
    import qglab

    grid = qglab.Grid(16)
    U = qglab.random_state(grid, np.random.default_rng(2))
    got = qglab.from_spectral(grid, qglab.advect(grid, U[:3], U))
    want = oracles.advection(qglab.from_spectral(grid, U), grid.box_length)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_relative_divergence():
    n, L = 8, 2 * np.pi
    x = np.arange(n) * L / n
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    solenoidal = np.stack([np.sin(Y), np.sin(Z), np.sin(X)])
    assert oracles.relative_divergence(solenoidal, L) <= 1e-15
    gradient = np.stack([np.cos(X), np.zeros_like(X), np.zeros_like(X)])
    assert oracles.relative_divergence(gradient, L) == pytest.approx(1.0)


def test_energy_violation():
    t = np.linspace(0.0, 1.0, 101)
    nu = 0.1
    # exact decay e^{-2 nu k^2 t} of one mode with |k| = 1 meets the budget
    l2 = np.exp(-nu * t)
    assert oracles.energy_violation(t, l2, l2, nu) is None
    rising = l2.copy()
    rising[50] *= 1.01
    assert "rises" in oracles.energy_violation(t, rising, rising, nu)
    # the same energy curve cannot pay for twice the dissipation
    assert "budget" in oracles.energy_violation(t, l2, 2.0 * l2, nu)


def test_loglog_slope_and_monotonicity():
    eps = [0.1, 0.05, 0.02, 0.01]
    assert oracles.loglog_slope(eps, [3.0 * e**0.75 for e in eps]) == pytest.approx(0.75)
    assert oracles.strictly_decreasing([4, 3, 2.5, 1])
    assert not oracles.strictly_decreasing([4, 3, 3, 1])


def test_require():
    oracles.require(True, "fine")
    with pytest.raises(CheckFailed, match="broken"):
        oracles.require(False, "broken")
