
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

import qglab.pe_solver
from qglab import (
    BlowUpError,
    Grid,
    Params,
    advect,
    build_propagator,
    dealias,
    decompose,
    energy_check,
    hs_inner,
    l2_norm,
    leray_project,
    make_well_prepared_data,
    max_divergence,
    pe_run,
    pe_step,
    potential_vorticity,
    qg_run,
    random_state,
    smallness_condition,
    sobolev_norm,
    to_spectral,
    vorticity_residual,
)
from qglab.config import ConfigError, DiagConfig, RunConfig
from qglab.diagnostics import S_LIST, _hs_norms, hs_channel
from qglab.pe_solver import _linear_symbols, _nonlinear, _pe_channels
from qglab.sweep import _reference_diag

from half_spectrum import (
    assert_channels_match,
    count_fields,
    half_index,
    half_spectrum_pe_channels,
    patch_full_transforms,
    traced_peak,
)

INVISCID = 1e-30  # positive but exp(-nu k^2 dt) == 1.0 exactly in float64


def dense_ode_oracle(M, dt, w0, rtol=1e-12):
    """Independent dense integration of dw/dt = M w over [0, dt]."""

    def rhs(t, y):
        dw = M @ (y[:4] + 1j * y[4:])
        return np.concatenate([dw.real, dw.imag])

    sol = solve_ivp(rhs, (0.0, dt), np.concatenate([w0.real, w0.imag]),
                    method="DOP853", rtol=rtol, atol=1e-14)
    return sol.y[:4, -1] + 1j * sol.y[4:, -1]


def symbol_reference(kvec, params):
    """Literal assembly of the 4x4 linear symbol, independent of the solver."""
    k = np.asarray(kvec, dtype=float)
    k2 = k @ k
    proj = np.eye(4)
    if k2 > 0:
        proj[:3, :3] -= np.outer(k, k) / k2
    F = params.froude
    a4 = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0 / F],
            [0.0, 0.0, -1.0 / F, 0.0],
        ]
    )
    m = -(1.0 / params.epsilon) * (proj @ a4)
    m[:3, :3] += -params.nu * k2 * np.eye(3)
    m[3, 3] += -params.nu_prime * k2
    return m


class TestLinearSymbols:
    def test_matches_literal_assembly(self, grid8, params):
        m = _linear_symbols(grid8, params).reshape(grid8.shape + (4, 4))
        rng = np.random.default_rng(3)
        for _ in range(20):
            idx = half_index(8, rng.integers(0, 8, size=3))
            kvec = [
                float(grid8.kd1[idx[0], 0, 0]),
                float(grid8.kd2[0, idx[1], 0]),
                float(grid8.kd3[0, 0, idx[2]]),
            ]
            ref = symbol_reference(kvec, params)
            assert np.abs(m[idx] - ref).max() < 1e-14


class TestPropagator:
    def test_heat_kernel_limit(self, grid8):
        # huge epsilon: rotation negligible, equal viscosities -> diagonal decay
        p = Params(epsilon=1e12, nu=1e-2, nu_prime=1e-2)
        prop = build_propagator(grid8, p, 0.1)
        rng = np.random.default_rng(5)
        for _ in range(10):
            idx = half_index(8, rng.integers(0, 8, size=3))
            if idx == (0, 0, 0):
                continue
            k2 = (
                grid8.kd1[idx[0], 0, 0] ** 2
                + grid8.kd2[0, idx[1], 0] ** 2
                + grid8.kd3[0, 0, idx[2]] ** 2
            )
            ref = np.exp(-1e-2 * 0.1 * k2) * np.eye(4)
            assert np.abs(prop.matrix_at(*idx) - ref).max() < 1e-10

    @pytest.mark.parametrize("froude", [1.0, 0.5])
    def test_vertical_mode_rotation_block(self, grid8, froude):
        # xi parallel to e3, inviscid: horizontal block is a rotation by dt/eps
        p = Params(epsilon=0.05, nu=INVISCID, nu_prime=INVISCID, froude=froude)
        prop = build_propagator(grid8, p, 0.01)
        got = prop.matrix_at(0, 0, 2)
        angle = 0.01 / 0.05
        rot = np.array(
            [[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]]
        )
        assert np.abs(got[:2, :2] - rot).max() < 1e-12
        # v3 row frozen, theta picks up the shear term (defective block)
        assert np.abs(got[2] - [0, 0, 1, 0]).max() < 1e-12
        assert np.abs(got[3] - [0, 0, angle / froude, 1]).max() < 1e-12

    @pytest.mark.parametrize("box_length", [2 * np.pi, 3.0])
    @pytest.mark.parametrize("froude", [1.0, 0.5])
    @pytest.mark.parametrize("n", [8, 16])
    def test_class_build_matches_per_mode_expm(self, n, froude, box_length):
        # every stored mode: the k3 = 0 and Nyquist planes, the k1 = n/2 and
        # k2 = n/2 rows, and modes whose rotation angle is not a multiple of pi/2
        grid = Grid(n, box_length)
        p = Params(epsilon=0.03, nu=1e-2, nu_prime=3e-3, froude=froude)
        dt = 0.01
        prop = build_propagator(grid, p, dt)
        full = prop.factor_at(*np.ogrid[:n, :n, :n // 2 + 1])
        assert full.flags.c_contiguous and prop.half.flags.c_contiguous
        # the compact factor a run steps with is the band of the full one
        assert np.array_equal(prop.half, grid._band.cut(full))
        got = np.moveaxis(full, (0, 1), (-2, -1))
        want = scipy.linalg.expm((dt / 2) * _linear_symbols(grid, p))
        want = want.reshape(grid.shape + (4, 4))
        want[0, 0, 0] = 0.0
        err = np.abs(got - want).max(axis=(-2, -1))
        assert err[0, 0, 0] == 0.0
        assert np.all(err <= 1e-13 * np.abs(want).max(axis=(-2, -1)))

    def test_one_expm_per_symmetry_class(self, grid32, params, monkeypatch):
        # (k1^2 + k2^2, |k3|) takes 671 values on the 4851 band modes the
        # build covers, and 120 x 16 on the 17408 stored modes
        batches = []
        expm = scipy.linalg.expm

        def counting(a):
            batches.append(np.shape(a))
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counting)
        prop = build_propagator(grid32, params, 0.01)
        assert batches == [(671, 4, 4)]
        prop.factor_at(*np.ogrid[:32, :32, :17])
        assert batches == [(671, 4, 4), (1920, 4, 4)]

    def test_holds_only_the_band_factor(self, grid8, params):
        prop = build_propagator(grid8, params, 0.01)
        arrays = [name for name, value in vars(prop).items()
                  if isinstance(value, np.ndarray)]
        assert arrays == ["half"]

    def test_rejects_unstored_k3_index(self, grid8, params):
        # k3 = 7 or -1 would wrap to a stored plane with the wrong |k3|
        prop = build_propagator(grid8, params, 0.01)
        for k in (7, 5, -1):
            with pytest.raises(ValueError, match="k3 index"):
                prop.matrix_at(1, 0, k)
        with pytest.raises(ValueError, match="k3 index"):
            prop.factor_at(*np.ogrid[:8, :8, :6])
        assert np.isfinite(prop.matrix_at(1, 0, 4)).all()

    def test_zero_mode_maps_to_zero(self, grid8, params):
        prop = build_propagator(grid8, params, 0.01)
        assert np.abs(prop.matrix_at(0, 0, 0)).max() == 0.0

    @pytest.mark.parametrize("froude", [1.0, 0.5])
    @pytest.mark.parametrize("dt", [1e-2, 1e-1])
    def test_matches_dense_ode_oracle(self, grid8, dt, froude):
        rng = np.random.default_rng(11)
        m_all = None
        for _ in range(25):
            p = Params(
                epsilon=float(10 ** rng.uniform(-3, 0)),
                nu=float(10 ** rng.uniform(-3, -1)),
                nu_prime=float(10 ** rng.uniform(-3, -1)),
                froude=froude,
            )
            prop = build_propagator(grid8, p, dt)
            m_all = _linear_symbols(grid8, p).reshape(grid8.shape + (4, 4))
            idx = half_index(8, rng.integers(0, 8, size=3))
            if idx == (0, 0, 0):
                idx = (1, 2, 3)
            w0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            got = prop.matrix_at(*idx) @ w0
            want = dense_ode_oracle(m_all[idx], dt, w0)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_norm_preservation_inviscid(self, grid8):
        p = Params(epsilon=0.07, nu=INVISCID, nu_prime=INVISCID)
        prop = build_propagator(grid8, p, 0.01)
        rng = np.random.default_rng(4)
        kd = (grid8.kd1, grid8.kd2, grid8.kd3)
        for _ in range(20):
            idx = half_index(8, rng.integers(0, 8, size=3))
            kvec = np.array(
                [kd[0][idx[0], 0, 0], kd[1][0, idx[1], 0], kd[2][0, 0, idx[2]]]
            )
            if np.all(kvec == 0):
                continue
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            # force the divergence-free subspace
            v = w[:3] - kvec * (kvec @ w[:3]) / (kvec @ kvec)
            w = np.concatenate([v, w[3:]])
            z = w.copy()
            for _ in range(100):
                z = prop.matrix_at(*idx) @ z
            assert abs(np.linalg.norm(z) - np.linalg.norm(w)) <= 1e-10 * np.linalg.norm(w)

    def test_divergence_free_subspace_invariant(self, grid8, params):
        prop = build_propagator(grid8, params, 0.05)
        rng = np.random.default_rng(8)
        band = grid8._band
        U = band.cut(random_state(grid8, rng))
        out = band.expand(prop.apply_half(prop.apply_half(U)))
        assert max_divergence(grid8, out) <= 1e-12

    def test_rejects_nonpositive_dt(self, grid8, params):
        with pytest.raises(ValueError):
            build_propagator(grid8, params, 0.0)


def small_diag(cadence=10, snapshot_every=0):
    return DiagConfig(cadence=cadence, snapshot_every=snapshot_every)


class TestNonlinear:
    @pytest.mark.parametrize("froude", [1.0, 0.5])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_rotational_form_matches_convective_form(self, n, froude):
        # balanced part plus an oscillating admixture, both at Froude number F
        grid = Grid(n)
        rng = np.random.default_rng([n, int(10 * froude)])
        for _ in range(3):
            U = random_state(grid, rng)
            dec = decompose(grid, U, froude)
            U = dec.qg + 0.3 * dec.osc
            got = _nonlinear(grid, U)
            want = -leray_project(grid, advect(grid, U[:3], U))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            assert got[:, 0, 0, 0].tolist() == [0.0] * 4
            assert max_divergence(grid, got) <= 1e-12
            assert not np.any(got[:, ~grid.dealias_mask])

    @pytest.mark.parametrize("n", [16, 32])
    def test_pruned_inverse_is_bit_identical(self, n, monkeypatch):
        # the reference takes the full irfftn and the masked rfftn of the
        # same batches, in place of both compact passes
        grid = Grid(n)
        U = random_state(grid, np.random.default_rng(n))
        got = _nonlinear(grid, U)
        patch_full_transforms(monkeypatch, qglab.pe_solver)
        assert np.array_equal(got, _nonlinear(grid, U))

    def test_transform_and_apply_counts(self, grid8, params, monkeypatch):
        # 9 fields in and 4 out per evaluation, 4 evaluations per step;
        # the half-step factor is applied 5 times, the full step is 2 halves
        prop = build_propagator(grid8, params, 0.01)
        U = random_state(grid8, np.random.default_rng(2))
        applies = []
        apply = qglab.pe_solver._apply

        def counting_apply(mats, V):
            applies.append(1)
            return apply(mats, V)

        monkeypatch.setattr(qglab.pe_solver, "_apply", counting_apply)
        with count_fields(monkeypatch) as fields:
            pe_step(U, prop)
        assert (fields(), len(applies)) == (4 * (9 + 4), 5)
        applies.clear()
        with count_fields(monkeypatch) as fields:
            pe_step(U, prop, nonlinear=False)
        assert (fields(), len(applies)) == (0, 2)


class TestPEStep:
    def test_zero_state_stays_zero(self, grid8, params):
        prop = build_propagator(grid8, params, 0.01)
        U = np.zeros((4,) + grid8.shape, dtype=complex)
        assert l2_norm(pe_step(U, prop)) == 0.0

    def test_nonlinear_step_rejects_off_band_state(self, grid16, params):
        # the rotational N(U) is exact only on the 2/3 band
        rng = np.random.default_rng(9)
        U = leray_project(grid16, to_spectral(grid16, rng.standard_normal((4,) + (16,) * 3)))
        U[:, 0, 0, 0] = 0.0
        prop = build_propagator(grid16, params, 0.01)
        with pytest.raises(ValueError, match="2/3 band"):
            pe_step(U, prop)
        assert np.isfinite(pe_step(dealias(grid16, U), prop)).all()
        assert np.isfinite(pe_step(U, prop, nonlinear=False)).all()

    def test_shape_checked_first(self, grid16, params):
        prop = build_propagator(grid16, params, 0.01)
        bad = (np.zeros(grid16.shape, dtype=complex),
               np.zeros((4,) + Grid(32).shape, dtype=complex))
        for U in bad:
            for nonlinear in (True, False):
                with pytest.raises(ValueError, match="expected shape"):
                    pe_step(U, prop, nonlinear=nonlinear)

    def test_linear_l2_conservation_inviscid(self, grid8):
        p = Params(epsilon=0.05, nu=INVISCID, nu_prime=INVISCID)
        prop = build_propagator(grid8, p, 0.01)
        rng = np.random.default_rng(6)
        U = random_state(grid8, rng)
        e0 = l2_norm(U)
        for _ in range(100):
            U = pe_step(U, prop, nonlinear=False)
        assert abs(l2_norm(U) - e0) <= 1e-10 * e0

    def test_linear_single_mode_matches_oracle_trajectory(self, grid8, params):
        # nonlinearity off: the step is exactly the cached matrix power
        dt = 0.01
        prop = build_propagator(grid8, params, dt)
        m = _linear_symbols(grid8, params).reshape(grid8.shape + (4, 4))
        idx = (2, 1, 3)
        w0 = np.array([0.3 - 0.1j, 0.2j, -0.5, 0.9 + 0.4j])
        kvec = np.array(
            [grid8.kd1[idx[0], 0, 0], grid8.kd2[0, idx[1], 0], grid8.kd3[0, 0, idx[2]]]
        )
        w0[:3] -= kvec * (kvec @ w0[:3]) / (kvec @ kvec)
        U = np.zeros((4,) + grid8.shape, dtype=complex)
        U[:, idx[0], idx[1], idx[2]] = w0
        w = w0.copy()
        for _ in range(100):
            U = pe_step(U, prop, nonlinear=False)
            w = dense_ode_oracle(m[idx], dt, w, rtol=1e-13)
        got = U[:, idx[0], idx[1], idx[2]]
        assert np.abs(got - w).max() <= 1e-8 * np.abs(w).max()

    @pytest.mark.parametrize("n", [16, 64])
    def test_linear_step_at_off_band_modes(self, n):
        # the half-spectrum factor a linear step builds reaches |k_j| = n/2 - 1,
        # where the benchmark's propagator oracle draws modes
        grid = Grid(n)
        p = Params(epsilon=0.01, nu=1e-2, nu_prime=5e-3, froude=0.5)
        prop = build_propagator(grid, p, 1e-3)
        top = n // 2 - 1
        modes = [(top, 1, top), (n - top, top, 2), (3, n - top, 0), (n - top, n - top, top)]
        rng = np.random.default_rng(n)
        U = np.zeros((4,) + grid.shape, dtype=complex)
        for idx in modes:
            U[(slice(None),) + idx] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = pe_step(U, prop, nonlinear=False)
        for idx in modes:
            want = prop.matrix_at(*idx) @ U[(slice(None),) + idx]
            got = out[(slice(None),) + idx]
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            out[(slice(None),) + idx] = 0.0
        assert not np.any(out)


    @pytest.mark.parametrize("nonlinear, bound", [(True, 48e6), (False, 15e6)])
    def test_traced_peak_at_n64(self, nonlinear, bound):
        # traced at n=64: 41 MB for a nonlinear step through the slab
        # pipeline (60 MB through whole-cube transforms) and 11 MB for a
        # linear one built by blocks of k1 rows (37 MB for the whole
        # half-spectrum factor at once)
        grid = Grid(64)
        prop = build_propagator(grid, Params(epsilon=0.01, nu=1e-2, nu_prime=5e-3), 1e-3)
        U = random_state(grid, np.random.default_rng(64))
        assert traced_peak(pe_step, U, prop, nonlinear=nonlinear) <= bound


class TestPERun:
    @pytest.mark.parametrize("froude", [1.0, 0.5])
    @pytest.mark.parametrize("n", [16, 32])
    def test_run_is_a_loop_of_public_steps(self, n, froude):
        # the compact run loop against pe_step on the half-spectrum, bit for
        # bit; the channels are the band norms of the stepped states, bit for
        # bit, and their half-spectrum norms to 1e-14
        grid = Grid(n)
        p = Params(epsilon=0.02, nu=1e-2, nu_prime=5e-3, froude=froude)
        U0 = make_well_prepared_data(grid, RunConfig(params=p))
        rec = pe_run(grid, U0, p, 0.02, 1e-3, small_diag(cadence=5, snapshot_every=5))
        prop = build_propagator(grid, p, 1e-3)
        U = leray_project(grid, dealias(grid, U0))
        U[:, 0, 0, 0] = 0.0
        states = [U]
        for _ in range(20):
            U = pe_step(U, prop)
            states.append(U)
        assert rec.snapshot_times == [0.0, 0.005, 0.01, 0.015, 0.02]
        assert all(np.array_equal(got, want)
                   for got, want in zip(rec.snapshots, states[::5], strict=True))
        assert np.array_equal(rec.final_state, states[-1])
        band = grid._band
        weights = band.norm_weights(S_LIST)
        norms = np.array([_hs_norms(band.cut(W), weights) for W in states[::5]])
        for j, s in enumerate(S_LIST):
            got = rec.series.channel(hs_channel("U", s))
            assert np.array_equal(got, norms[:, j])
            want = [sobolev_norm(grid, W, s) for W in states[::5]]
            assert np.abs(got - want).max() <= 1e-14 * max(want)

    @pytest.mark.parametrize("froude", [1.0, 0.5])
    @pytest.mark.parametrize("n", [16, 32])
    def test_channels_match_the_half_spectrum(self, n, froude):
        # every record's band evaluation against the half-spectrum one
        grid = Grid(n)
        p = Params(epsilon=0.02, nu=1e-2, nu_prime=5e-3, froude=froude)
        U0 = make_well_prepared_data(grid, RunConfig(params=p))
        rec = pe_run(grid, U0, p, 0.01, 1e-3, small_diag(cadence=2, snapshot_every=2))
        assert_channels_match(rec.series, [
            half_spectrum_pe_channels(grid, W, froude) for W in rec.snapshots])

    def test_runs_cache_no_half_spectrum_weights(self, params):
        # H^s weights are built per call: after the data, both runs and the
        # half-spectrum norms the grid holds its tables and the runs' band
        grid = Grid(16)
        U0 = make_well_prepared_data(grid, RunConfig(params=params))
        pe_run(grid, U0, params, 0.02, 0.01, small_diag(cadence=1))
        qg_run(grid, potential_vorticity(grid, U0), params, 0.02, 0.01,
               small_diag(cadence=1))
        sobolev_norm(grid, U0, 1.0)
        hs_inner(grid, U0, U0, -1.0)
        smallness_condition(grid, U0, params)
        held, built = vars(grid), vars(Grid(16))
        assert set(held) == set(built) | {"_band"}
        assert all(np.array_equal(held[name], table) for name, table in built.items())

    def test_traced_peak_of_one_record_at_n64(self):
        # one sweep-style record, pe_run's channels and the sweep's against
        # the reference vorticity, on the compact band: traced at 12.4 MB
        # (19 band fields), against 47.6 MB through the half-spectrum
        grid = Grid(64)
        U = random_state(grid, np.random.default_rng(64))
        reference = SimpleNamespace(snapshots=[potential_vorticity(grid, U)])
        channels = _pe_channels(grid, 1.0, _reference_diag(grid, reference, 1.0, 1))
        assert traced_peak(channels, 0, 0.0, grid._band.cut(U)) <= 16e6

    def test_zero_initial_data(self, grid8, params):
        U0 = np.zeros((4,) + grid8.shape, dtype=complex)
        rec = pe_run(grid8, U0, params, 0.1, 0.01, small_diag())
        assert l2_norm(rec.final_state) == 0.0
        assert all(v == 0.0 for v in rec.series.channels["hs_U_0"])

    def test_flat_energy_inviscid_linear_for_every_epsilon(self, grid8, rng):
        U0 = dealias(grid8, random_state(grid8, rng))
        energies = []
        for eps in (1.0, 0.1, 0.01):
            p = Params(epsilon=eps, nu=INVISCID, nu_prime=INVISCID)
            prop = build_propagator(grid8, p, 0.01)
            U = U0
            e = [sobolev_norm(grid8, U, 0.0)]
            for _ in range(10):  # to t = 0.1
                U = pe_step(U, prop, nonlinear=False)
                e.append(sobolev_norm(grid8, U, 0.0))
            e = np.array(e)
            assert np.abs(e - e[0]).max() <= 1e-10 * e[0]
            energies.append(e)
        for e in energies[1:]:
            assert np.abs(e - energies[0]).max() <= 1e-10 * energies[0][0]

    def test_qg_data_stays_qg_with_equal_viscosities(self, grid16, rng):
        # single-mode balanced state: advection self-cancels and the
        # vorticity diffusion matches the projected full diffusion, so the
        # full run tracks the limit run
        g = grid16
        x1, _, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        from qglab import potential_vorticity, qg_run, to_spectral

        U0 = np.zeros((4,) + grid16.shape, dtype=complex)
        U0[1] = to_spectral(g, 0.3 * np.cos(w * x1))
        p = Params(epsilon=0.1, nu=8e-3, nu_prime=8e-3)
        rec = pe_run(g, U0, p, 0.5, 0.005, small_diag())
        osc = decompose(g, rec.final_state).osc
        assert l2_norm(osc) <= 1e-8 * l2_norm(rec.final_state)
        limit = qg_run(g, potential_vorticity(g, U0), p, 0.5, 0.005, small_diag())
        gap = l2_norm(potential_vorticity(g, rec.final_state) - limit.final_state)
        assert gap <= 1e-8 * l2_norm(limit.final_state)

    def test_energy_inequality_and_monotonicity(self, grid16, rng, params):
        U0 = random_state(grid16, rng)
        U0 *= 0.5 / sobolev_norm(grid16, U0, 1.0)
        rec = pe_run(grid16, U0, params, 0.5, 0.005, small_diag())
        report = energy_check(rec.series, params.nu, params.nu_prime)
        assert report.passed
        assert report.max_budget_ratio <= 1.0 + 1e-6

    def test_divergence_free_over_run(self, grid16, rng, params):
        U0 = random_state(grid16, rng)
        rec = pe_run(grid16, U0, params, 0.2, 0.005, small_diag())
        assert np.asarray(rec.series.channels["max_div"]).max() <= 1e-8

    def test_self_convergence_order_four(self, grid16, rng):
        p = Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3)
        U0 = random_state(grid16, rng)
        U0 *= 0.5 / sobolev_norm(grid16, U0, 1.0)
        finals = {}
        for dt in (0.02, 0.01, 0.005):
            finals[dt] = pe_run(grid16, U0, p, 0.1, dt, small_diag()).final_state
        e1 = l2_norm(finals[0.02] - finals[0.01])
        e2 = l2_norm(finals[0.01] - finals[0.005])
        order = np.log2(e1 / e2)
        assert abs(order - 4.0) <= 0.5

    def test_initial_state_cut_to_the_band(self, grid16, params):
        # a full-band solenoidal state runs exactly as its 2/3-band part
        rng = np.random.default_rng(9)
        U0 = leray_project(grid16, to_spectral(grid16, rng.standard_normal((4,) + (16,) * 3)))
        U0[:, 0, 0, 0] = 0.0
        assert np.any(U0[:, ~grid16.dealias_mask])
        finals = [pe_run(grid16, U, params, 0.05, 0.01, small_diag()).final_state
                  for U in (U0, dealias(grid16, U0))]
        assert l2_norm(finals[0] - finals[1]) <= 1e-14 * l2_norm(finals[1])

    def test_blow_up_detection(self, grid8):
        # gigantic data + inviscid: advection drives a clean overflow
        rng = np.random.default_rng(7)
        U0 = 1e8 * random_state(grid8, rng)
        p = Params(epsilon=1e-2, nu=INVISCID, nu_prime=INVISCID)
        with pytest.raises(BlowUpError) as info:
            pe_run(grid8, U0, p, 1.0, 0.01, small_diag())
        # stamped with the time of the step that failed
        steps = round(info.value.time / 0.01)
        assert steps >= 1 and info.value.time == steps * 0.01

    def test_rejects_time_grid_mismatch(self, grid8, params, rng):
        U0 = random_state(grid8, rng)
        with pytest.raises(ValueError):
            pe_run(grid8, U0, params, 0.1, 0.03, small_diag())

    def test_snapshot_cadence_must_align(self, grid8, params, rng):
        U0 = random_state(grid8, rng)
        with pytest.raises(ValueError):
            pe_run(grid8, U0, params, 0.1, 0.01, small_diag(snapshot_every=15))

    def test_arguments_checked_before_the_build(self, grid8, params, rng,
                                                monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("propagator built before the arguments were checked")

        monkeypatch.setattr(qglab.pe_solver, "build_propagator", no_build)
        U0 = random_state(grid8, rng)
        with pytest.raises(ConfigError, match="does not divide"):
            pe_run(grid8, U0, params, 0.1, 0.03, small_diag())
        with pytest.raises(ValueError, match="snapshot_every"):
            pe_run(grid8, U0, params, 0.1, 0.01, small_diag(snapshot_every=15))

    @pytest.mark.parametrize("system", ["pe", "qg"])
    def test_initial_state_freed_after_the_first_step(self, grid8, params, rng,
                                                      monkeypatch, system):
        # the run loop must hold the only reference to the state it cut, so a
        # large run carries no extra state for its whole length
        module, attr = {"pe": (qglab.pe_solver, "_lawson_rk4"),
                        "qg": (qglab.qg_solver, "_lawson_rk4")}[system]
        original = getattr(module, attr)
        first, alive_at_step_2 = [], []

        def wrapper(state, *args, **kwargs):
            if not first:
                first.append(weakref.ref(state))
            elif not alive_at_step_2:
                gc.collect()
                alive_at_step_2.append(first[0]() is not None)
            return original(state, *args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)
        diag = small_diag(cadence=1, snapshot_every=1)
        U0 = random_state(grid8, rng)
        if system == "pe":
            pe_run(grid8, U0, params, 0.03, 0.01, diag)
        else:
            qg_run(grid8, potential_vorticity(grid8, U0), params, 0.03, 0.01, diag)
        assert alive_at_step_2 == [False]


class TestVorticityResidualOnRuns:
    def test_residual_small_and_second_order(self, grid16, rng):
        # mostly balanced data with a small oscillating admixture, as in the
        # well-prepared runs whose balance the residual certifies
        p = Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3)
        U0 = random_state(grid16, rng)
        dec = decompose(grid16, U0)
        U0 = dec.qg + 0.02 * dec.osc
        U0 *= 0.5 / sobolev_norm(grid16, U0, 1.0)
        values = {}
        for dt in (2e-3, 1e-3):
            diag = small_diag(cadence=10, snapshot_every=10)
            rec = pe_run(grid16, U0, p, 0.2, dt, diag)
            values[dt] = vorticity_residual(rec, p).channel("vorticity_residual")
        assert values[2e-3].max() <= 1e-2
        # refined run meets the tighter bound
        assert values[1e-3].max() <= 1e-3
        ratio = values[2e-3].max() / values[1e-3].max()
        assert 2.5 <= ratio <= 6.0

    def test_residual_at_froude_half(self, grid16):
        # pv(L U_osc) = F (nu - nu') lap d3 theta_osc and the source's theta
        # terms carry F: without those factors the worst residual here stays
        # near 5.5e-2 whatever the step
        cfg = RunConfig(params=Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3, froude=0.5))
        U0 = make_well_prepared_data(grid16, cfg)
        worst = {}
        for dt in (1e-3, 5e-4):
            rec = pe_run(grid16, U0, cfg.params, 0.1, dt,
                         small_diag(cadence=10, snapshot_every=10))
            worst[dt] = vorticity_residual(rec, cfg.params).channel(
                "vorticity_residual").max()
        assert worst[1e-3] <= 2e-3
        assert worst[1e-3] / worst[5e-4] >= 3.5

    def test_pure_qg_equal_viscosities_consistency(self, grid16, rng):
        # nu = nu' and balanced data: the source terms vanish and the
        # residual is the limit-equation consistency error, second order in
        # the snapshot spacing and step
        p = Params(epsilon=0.1, nu=8e-3, nu_prime=8e-3)
        U0 = decompose(grid16, random_state(grid16, rng)).qg
        U0 *= 0.5 / sobolev_norm(grid16, U0, 1.0)
        diag = small_diag(cadence=10, snapshot_every=10)
        rec = pe_run(grid16, U0, p, 0.2, 1e-3, diag)
        vals = vorticity_residual(rec, p).channel("vorticity_residual")
        assert vals.max() <= 1e-3

    def test_zero_run_residual_guarded(self, grid8, params):
        U0 = np.zeros((4,) + grid8.shape, dtype=complex)
        diag = small_diag(cadence=10, snapshot_every=10)
        rec = pe_run(grid8, U0, params, 0.05, 1e-3, diag)
        vals = vorticity_residual(rec, params).channel("vorticity_residual")
        assert np.all(vals == 0.0)

    def test_insufficient_snapshots(self, grid8, params, rng):
        rec = pe_run(grid8, random_state(grid8, rng), params, 0.05, 1e-3,
                     small_diag(cadence=10, snapshot_every=50))
        with pytest.raises(ValueError):
            vorticity_residual(rec, params)

    def test_qg_run_record_refused_before_any_operator(self, grid16, params, rng):
        # a qg_run record's snapshots are vorticities, which would broadcast
        # against the wavevector tables until advect failed on them
        omega = potential_vorticity(grid16, random_state(grid16, rng))
        rec = qg_run(grid16, omega, params, 0.03, 1e-3,
                     small_diag(cadence=10, snapshot_every=10))
        assert len(rec.snapshots) == 4
        with pytest.raises(ValueError, match="needs a pe_run record"):
            vorticity_residual(rec, params)
