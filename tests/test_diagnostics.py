import math

import numpy as np
import pytest

from qglab import (
    NormSeries,
    Params,
    bootstrap_monitor,
    hs_channel,
    l2_norm,
    lowpass,
    lowpass_profile,
    make_well_prepared_data,
    random_scalar,
    random_state,
    smallness_condition,
    sobolev_norm,
    space_time_norm,
    tail_bound_check,
    to_spectral,
)
from qglab.config import default_config


class TestNormSeries:
    def test_append_and_channels(self):
        s = NormSeries()
        s.append(0.0, {"a": 1.0, "b": 2.0})
        s.append(0.1, {"a": 1.5, "b": 2.5})
        assert s.time_array().tolist() == [0.0, 0.1]
        assert s.channel("a").tolist() == [1.0, 1.5]

    def test_channel_set_fixed(self):
        s = NormSeries()
        s.append(0.0, {"a": 1.0})
        with pytest.raises(ValueError):
            s.append(0.1, {"b": 1.0})

    def test_rejects_non_finite(self):
        s = NormSeries()
        with pytest.raises(ValueError):
            s.append(0.0, {"a": float("nan")})

    def test_missing_channel(self):
        s = NormSeries()
        s.append(0.0, {"a": 1.0})
        with pytest.raises(KeyError):
            s.channel("nope")

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        s = NormSeries()
        for i in range(7):
            s.append(i * math.pi / 30, {"x": rng.random(), "y": rng.random() * 1e-9})
        path = tmp_path / "series.csv"
        s.to_csv(path)
        back = NormSeries.from_csv(path)
        assert back.times == s.times
        assert back.channels == s.channels


class TestSobolevNorm:
    def test_cosine_value(self, grid32):
        # two modes at |xi| = 2 pi / L with coefficients 1/2:
        # norm = ((2 pi / L)^(2s) / 2)^(1/2)
        g = grid32
        x1, _, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        f = to_spectral(g, np.cos(w * x1))
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            expected = w**s / math.sqrt(2.0)
            assert abs(sobolev_norm(g, f, s) - expected) < 1e-13

    def test_zero(self, grid32):
        assert sobolev_norm(grid32, np.zeros(grid32.shape, complex), 1.0) == 0.0

    def test_s0_is_l2(self, grid32, rng):
        f = random_scalar(grid32, rng)
        assert abs(sobolev_norm(grid32, f, 0.0) - l2_norm(f)) <= 1e-12 * l2_norm(f)

    def test_state_pools_components(self, grid32, rng):
        U = random_state(grid32, rng)
        total = math.sqrt(sum(sobolev_norm(grid32, U[i], 1.0) ** 2 for i in range(4)))
        assert abs(sobolev_norm(grid32, U, 1.0) - total) <= 1e-12 * total

    def test_range_validation(self, grid32, rng):
        f = random_scalar(grid32, rng)
        with pytest.raises(ValueError):
            sobolev_norm(grid32, f, 3.5)
        with pytest.raises(ValueError):
            sobolev_norm(grid32, f, -2.5)

    def test_interpolation_inequality(self, grid32, rng):
        for _ in range(20):
            f = random_scalar(grid32, rng)
            lhs = sobolev_norm(grid32, f, 1.5)
            rhs = sobolev_norm(grid32, f, 0.0) ** 0.25 * sobolev_norm(grid32, f, 2.0) ** 0.75
            assert lhs <= rhs * (1 + 1e-10)


class TestSpaceTimeNorm:
    def _series(self, pairs):
        s = NormSeries()
        for t, h0, h1 in pairs:
            s.append(t, {hs_channel("f", 0.0): h0, hs_channel("f", 1.0): h1})
        return s

    def test_zero(self):
        s = self._series([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        assert space_time_norm(s, "f", 0.0, 1e-2, 5e-3) == 0.0

    def test_constant_channel_closed_form(self):
        # sup^2 + min(nu,nu') * T * c'^2 under the trapezoid rule
        c, cp, T = 0.7, 1.3, 2.0
        s = self._series([(t, c, cp) for t in np.linspace(0.0, T, 9)])
        got = space_time_norm(s, "f", 0.0, 1e-2, 5e-3)
        assert abs(got - math.sqrt(c**2 + 5e-3 * T * cp**2)) < 1e-14

    def test_dominates_sup(self):
        vals = [(0.0, 0.2, 1.0), (0.5, 0.6, 2.0), (1.0, 0.4, 0.5)]
        s = self._series(vals)
        assert space_time_norm(s, "f", 0.0, 1e-2, 5e-3) >= 0.6

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(2)
        pairs = [(0.1 * i, rng.random(), rng.random()) for i in range(11)]
        # prefix series end at t = 0.2, 0.5 and 1.0
        values = [space_time_norm(self._series(pairs[:m]), "f", 0.0, 1e-2, 5e-3)
                  for m in (3, 6, 11)]
        assert values[0] <= values[1] <= values[2]

    def test_missing_channel(self):
        s = self._series([(0.0, 1.0, 1.0)])
        with pytest.raises(KeyError):
            space_time_norm(s, "g", 0.0, 1e-2, 5e-3)


class TestLowpass:
    def test_profile_plateau_and_support(self):
        assert lowpass_profile(0.5) == 1.0
        assert lowpass_profile(0.75) == 1.0
        assert lowpass_profile(4.0 / 3.0) == 0.0
        assert lowpass_profile(2.0) == 0.0

    def test_profile_midpoint_value(self):
        # quintic smoothstep evaluated directly
        u = (1.0 - 0.75) / (4.0 / 3.0 - 0.75)
        expected = 1.0 - (6 * u**5 - 15 * u**4 + 10 * u**3)
        assert abs(lowpass_profile(1.0) - expected) < 1e-15
        assert 0.0 < lowpass_profile(1.0) < 1.0

    def test_profile_monotone(self):
        r = np.linspace(0.0, 2.0, 400)
        chi = lowpass_profile(r)
        assert np.all(np.diff(chi) <= 1e-15)

    def test_low_modes_unchanged_high_modes_zeroed(self, grid32):
        g = grid32
        f = np.zeros(g.shape, complex)
        f[2, 0, 0] = f[-2, 0, 0] = 1.0  # |xi| = 2 <= (3/4) 2^2
        assert np.abs(lowpass(g, f, 2) - f).max() == 0.0
        f = np.zeros(g.shape, complex)
        f[6, 0, 0] = f[-6, 0, 0] = 1.0  # |xi| = 6 >= (4/3) 2^2
        assert np.abs(lowpass(g, f, 2)).max() == 0.0

    def test_contraction(self, grid32, rng):
        f = to_spectral(grid32, rng.standard_normal((32, 32, 32)))
        f[0, 0, 0] = 0.0
        for m in range(0, 6):
            for s in (-1.0, 0.0, 1.0):
                assert sobolev_norm(grid32, lowpass(grid32, f, m), s) <= (
                    sobolev_norm(grid32, f, s) * (1 + 1e-14)
                )

    def test_rejects_negative_scale(self, grid32, rng):
        with pytest.raises(ValueError):
            lowpass(grid32, random_scalar(grid32, rng), -1)


class TestTailBound:
    def test_band_limited_tail_is_zero(self, grid32):
        f = np.zeros(grid32.shape, complex)
        f[1, 1, 0] = f[-1, -1, 0] = 1.0  # |xi| = sqrt(2) < (3/4) 2^2
        tb = tail_bound_check(grid32, f, 2, 0.0, 0.5)
        assert tb.lhs == 0.0 and tb.passed

    def test_single_high_mode_hand_values(self, grid32):
        # mode pair |xi| = 2^(m+1) with m=2: chi(2)=0 so the tail keeps it
        # all; the two conjugate partners of modulus 2 have L2 norm 2 sqrt(2)
        m, s, alpha = 2, 1.0, 0.5
        f = np.zeros(grid32.shape, complex)
        f[8, 0, 0] = f[-8, 0, 0] = 2.0
        amp = 2.0 * math.sqrt(2.0)
        tb = tail_bound_check(grid32, f, m, s, alpha)
        assert abs(tb.lhs - 8.0**s * amp) < 1e-12
        assert abs(tb.rhs - (0.75 * 2.0**m) ** (-alpha) * 8.0 ** (s + alpha) * amp) < 1e-12
        assert tb.passed

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("s,alpha", [(-1.0, 0.5), (0.0, 1.0), (1.0, 0.25)])
    def test_random_fields_pass(self, grid32, rng, m, s, alpha):
        f = to_spectral(grid32, rng.standard_normal((32, 32, 32)))
        f[0, 0, 0] = 0.0
        assert tail_bound_check(grid32, f, m, s, alpha).passed


class TestBootstrapMonitor:
    def _series(self, pairs):
        s = NormSeries()
        for t, v in pairs:
            s.append(t, {hs_channel("Uosc", 1.5): v})
        return s

    def test_zero(self):
        s = self._series([(0.0, 0.0), (1.0, 0.0)])
        rep = bootstrap_monitor(s, 1e-2, 5e-3)
        assert rep.integral == 0.0 and rep.ratio == 0.0

    def test_constant_channel(self):
        c, T = 0.3, 2.0
        s = self._series([(t, c) for t in np.linspace(0, T, 21)])
        rep = bootstrap_monitor(s, 1e-2, 5e-3, c_const=2.0)
        assert abs(rep.integral - c**2 * T) < 1e-12
        assert abs(rep.threshold - math.log(2.0) / 2.0 * 5e-3) < 1e-15
        assert abs(rep.ratio - rep.integral / rep.threshold) < 1e-12


class TestEnergyCheck:
    def _series(self, rows):
        from qglab import energy_check  # noqa: F401  (re-exported)

        s = NormSeries()
        for t, e, g in rows:
            s.append(t, {hs_channel("U", 0.0): e, hs_channel("U", 1.0): g})
        return s

    def test_zero_run(self):
        from qglab import energy_check

        s = self._series([(0.1 * i, 0.0, 0.0) for i in range(5)])
        assert energy_check(s, 1e-2, 5e-3).passed

    def test_flat_inviscid_energy(self):
        from qglab import energy_check

        for records in (5, 1):  # one record: an empty budget integral
            s = self._series([(0.1 * i, 1.0, 0.0) for i in range(records)])
            rep = energy_check(s, 1e-2, 5e-3)
            assert rep.passed and rep.max_budget_ratio == 1.0

    def test_monotone_violation_flagged(self):
        from qglab import energy_check

        s = self._series([(0.0, 1.0, 0.0), (0.1, 1.1, 0.0)])
        rep = energy_check(s, 1e-2, 5e-3)
        assert not rep.passed and not rep.monotone
        assert rep.first_violation_time == pytest.approx(0.1)

    def test_budget_violation_flagged(self):
        from qglab import energy_check

        # norms decay too slowly for the claimed dissipation
        s = self._series([(0.0, 1.0, 10.0), (1.0, 1.0 - 1e-9, 10.0)])
        rep = energy_check(s, 1e-2, 5e-3)
        assert not rep.passed and rep.monotone
        assert rep.max_budget_ratio > 1.0 + 1e-6

    def test_viscous_decay_passes(self, grid16, rng):
        # a real viscous run decays strictly
        from qglab import Params, energy_check, pe_run, random_state
        from qglab.config import DiagConfig

        p = Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3)
        U0 = random_state(grid16, rng)
        diag = DiagConfig(cadence=5)
        rec = pe_run(grid16, U0, p, 0.2, 0.005, diag)
        e = rec.series.channel(hs_channel("U", 0.0))
        assert np.all(np.diff(e) < 0.0)
        assert energy_check(rec.series, p.nu, p.nu_prime).passed


class TestSmallnessCondition:
    def test_pure_qg_data_has_positive_osc_margin(self, grid32):
        cfg = default_config()
        cfg.init.osc_amplitude = 0.0
        U0 = make_well_prepared_data(grid32, cfg)
        p = Params(epsilon=1e-12, nu=0.5, nu_prime=0.5)
        rep = smallness_condition(grid32, U0, p)
        assert rep.measured_osc <= 1e-10 * sobolev_norm(grid32, U0, -1.0)
        assert rep.margin_osc > 0.0
        assert rep.margin_eps > 0.0

    def test_doubling_data_matches_formula(self, grid32, rng):
        # moderate viscosities keep the exponential factor representable
        U0 = random_state(grid32, rng)
        p = Params(epsilon=0.1, nu=0.5, nu_prime=0.4)
        rep1 = smallness_condition(grid32, U0, p, c_big=1.0)
        rep2 = smallness_condition(grid32, 2.0 * U0, p, c_big=1.0)

        # direct recomputation of the scaled thresholds
        l2 = sobolev_norm(grid32, U0, 0.0)
        h_half = sobolev_norm(grid32, U0, 0.5)
        h1 = sobolev_norm(grid32, U0, 1.0)
        nu_min, nu_max = 0.4, 0.5
        expo2 = math.exp(-(2 * l2) * (2 * h1) / nu_min**2)
        want_osc = nu_min**4 / (2 * h1) ** 3 * expo2
        want_eps = nu_min**4 / ((2 * h1) ** 4 * (2 * h_half + nu_max)) * expo2
        assert abs(rep2.threshold_osc - want_osc) <= 1e-12 * want_osc
        assert abs(rep2.threshold_eps - want_eps) <= 1e-12 * want_eps
        # doubling divides the algebraic prefactor by 8 and shrinks the
        # exponential factor accordingly
        ratio = rep2.threshold_osc / rep1.threshold_osc
        assert abs(ratio - math.exp(-3 * l2 * h1 / nu_min**2) / 8.0) <= 1e-10 * ratio
        assert rep2.measured_osc == pytest.approx(2.0 * rep1.measured_osc, rel=1e-12)

    def test_large_constant_kills_margins(self, grid32, rng):
        U0 = random_state(grid32, rng)
        p = Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3)
        rep = smallness_condition(grid32, U0, p, c_big=1e6)
        assert rep.threshold_osc < 1e-30
        assert rep.margin_osc < 0.0
        assert rep.margin_eps < 0.0

    def test_rejects_bad_constant(self, grid32, rng):
        U0 = random_state(grid32, rng)
        p = Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3)
        with pytest.raises(ValueError):
            smallness_condition(grid32, U0, p, c_big=0.0)
