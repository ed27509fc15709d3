import numpy as np
import pytest

from qglab import (
    decompose,
    l2_norm,
    make_well_prepared_data,
    max_divergence,
    sobolev_norm,
)
from qglab.config import default_config


class TestMakeWellPreparedData:
    def test_pure_balanced_data(self, grid32):
        cfg = default_config()
        cfg.init.osc_amplitude = 0.0
        U0 = make_well_prepared_data(grid32, cfg)
        osc = decompose(grid32, U0).osc
        assert sobolev_norm(grid32, osc, -1.0) <= 1e-10 * sobolev_norm(grid32, U0, -1.0)
        assert abs(sobolev_norm(grid32, U0, 1.0) - cfg.init.qg_amplitude) <= 1e-10

    def test_pure_oscillating_data(self, grid32):
        cfg = default_config()
        cfg.init.qg_amplitude = 0.0
        cfg.init.osc_amplitude = 1.0  # coefficient; target = 1.0 * epsilon
        U0 = make_well_prepared_data(grid32, cfg)
        target = cfg.params.epsilon
        dec = decompose(grid32, U0)
        got = sobolev_norm(grid32, dec.osc, -1.0)
        assert abs(got - target) <= 1e-10 * target
        assert l2_norm(dec.qg) <= 1e-10 * l2_norm(U0)

    def test_explicit_amplitude_override(self, grid32):
        cfg = default_config()
        U0 = make_well_prepared_data(grid32, cfg, osc_h_minus1=0.037)
        got = sobolev_norm(grid32, decompose(grid32, U0).osc, -1.0)
        assert abs(got - 0.037) <= 1e-10 * 0.037

    def test_balanced_part_independent_of_epsilon(self, grid32):
        cfg = default_config()
        # the balanced construction never sees epsilon: bit-for-bit equal
        pure = [
            make_well_prepared_data(grid32, cfg.with_epsilon(eps), osc_h_minus1=0.0)
            for eps in (0.1, 0.01)
        ]
        assert np.array_equal(pure[0], pure[1])
        # re-extracting it through the projector only adds roundoff from the
        # epsilon-scaled oscillating admixture
        qg_parts = []
        for eps in (0.1, 0.01):
            U0 = make_well_prepared_data(grid32, cfg.with_epsilon(eps))
            qg_parts.append(decompose(grid32, U0).qg)
        scale = np.abs(qg_parts[0]).max()
        assert np.abs(qg_parts[0] - qg_parts[1]).max() <= 1e-14 * scale

    def test_deterministic_in_seed(self, grid32):
        cfg = default_config()
        a = make_well_prepared_data(grid32, cfg)
        b = make_well_prepared_data(grid32, cfg)
        assert np.array_equal(a, b)
        cfg.init.seed = 8
        c = make_well_prepared_data(grid32, cfg)
        assert not np.array_equal(a, c)

    def test_solenoidal_mean_zero_dealiased(self, grid32):
        cfg = default_config()
        U0 = make_well_prepared_data(grid32, cfg)
        assert max_divergence(grid32, U0) <= 1e-12
        assert np.abs(U0[:, 0, 0, 0]).max() == 0.0
        assert np.abs(U0 * ~grid32.dealias_mask).max() == 0.0

    def test_default_scenario_h1_scale(self, grid32):
        # balanced amplitude 0.5 with a small oscillating admixture
        cfg = default_config()
        U0 = make_well_prepared_data(grid32, cfg)
        assert sobolev_norm(grid32, U0, 1.0) == pytest.approx(0.5, rel=0.05)
