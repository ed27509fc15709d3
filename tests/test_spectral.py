import numpy as np
import pytest

from qglab import (
    Grid,
    Params,
    advect,
    dealias,
    derivative,
    enforce_mean_zero,
    from_spectral,
    hs_inner,
    inverse_anisotropic_laplacian,
    l2_inner,
    l2_norm,
    leray_project,
    max_divergence,
    random_scalar,
    random_state,
    sobolev_norm,
    to_spectral,
)
from qglab.spectral import (
    _SLAB_BYTES,
    _band_pipeline,
    _pipeline_buffers,
    _pipeline_bytes,
    _plane_bytes,
    _require_band,
    spectral_product,
)

from qglab.diagnostics import S_LIST
from qglab.sweep import _QGDIFF_S

from half_spectrum import full_pipeline, traced_peak


class TestGrid:
    @pytest.mark.parametrize("n", [7, 6, 12, 4, 0])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            Grid(n)

    @pytest.mark.parametrize("box_length", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_box_lengths(self, box_length):
        with pytest.raises(ValueError):
            Grid(8, box_length)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_wavevector_tables(self, n):
        g = Grid(n)
        assert len(g.k_int) == n
        assert (g.k_int == 0).sum() == 1
        # symmetric under k -> -k except the Nyquist mode
        nonzero = sorted(int(k) for k in g.k_int if k not in (0, -n // 2))
        assert nonzero == sorted(-k for k in nonzero)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_band_edge_bounds_the_mask(self, n):
        g = Grid(n)
        assert g.band_edge == n // 3
        keep = np.abs(g.k_int) <= n / 3
        want = keep[:, None, None] & keep[None, :, None] & keep[None, None, : n // 2 + 1]
        assert np.array_equal(g.dealias_mask, want)

    def test_nyquist_zeroed_for_derivatives(self):
        g = Grid(16)
        assert g.kd1[8, 0, 0] == 0.0
        assert g.kmag2[8, 0, 0] > 0.0


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Params(epsilon=0.0, nu=1e-2, nu_prime=1e-2)
        with pytest.raises(ValueError):
            Params(epsilon=0.1, nu=-1e-2, nu_prime=1e-2)
        with pytest.raises(ValueError):
            Params(epsilon=0.1, nu=1e-2, nu_prime=1e-2, froude=1.5)
        for bad in (np.nan, np.inf):
            for name in ("epsilon", "nu", "nu_prime", "froude"):
                kwargs = dict(epsilon=0.1, nu=1e-2, nu_prime=1e-2, froude=1.0)
                kwargs[name] = bad
                with pytest.raises(ValueError):
                    Params(**kwargs)
        p = Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3)
        assert p.nu_min == 5e-3 and p.nu_max == 1e-2


class TestTransforms:
    def test_constant_field_is_pure_mean(self, grid32):
        f = to_spectral(grid32, np.ones((32, 32, 32)))
        assert abs(f[0, 0, 0] - 1.0) < 1e-14
        off = f.copy()
        off[0, 0, 0] = 0.0
        assert np.abs(off).max() < 1e-14
        # the mean-zero convention then maps it to zero
        assert np.abs(enforce_mean_zero(f)).max() == 0.0

    def test_cosine_coefficients(self, grid32):
        # hand Fourier series: cos = (e^{i k x} + e^{-i k x})/2
        x1, _, _ = grid32.mesh()
        f = to_spectral(grid32, np.cos(2 * np.pi * x1 / grid32.box_length))
        assert abs(f[1, 0, 0] - 0.5) < 1e-13
        assert abs(f[-1, 0, 0] - 0.5) < 1e-13
        f[1, 0, 0] = f[-1, 0, 0] = 0.0
        assert np.abs(f).max() < 1e-13

    def test_round_trip(self, grid32, rng):
        phys = rng.standard_normal((32, 32, 32))
        back = from_spectral(grid32, to_spectral(grid32, phys))
        assert np.abs(back - phys).max() / np.abs(phys).max() <= 1e-12

    def test_round_trip_batch(self, grid16, rng):
        phys = rng.standard_normal((5, 16, 16, 16))
        back = from_spectral(grid16, to_spectral(grid16, phys))
        assert np.abs(back - phys).max() <= 1e-12

    def test_matches_full_complex_transform(self, grid16, rng):
        phys = rng.standard_normal((16, 16, 16))
        fast = to_spectral(grid16, phys)
        ref = (np.fft.fftn(phys) / 16**3)[..., :9]
        assert np.abs(fast - ref).max() < 1e-15

    def test_shape_mismatch(self, grid32):
        with pytest.raises(ValueError):
            to_spectral(grid32, np.zeros((16, 16, 16)))

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_parseval(self, n, rng):
        g = Grid(n)
        phys = rng.standard_normal((n, n, n))
        # energy only on the k3 = 0 and Nyquist planes, which count once
        planes = rng.standard_normal((2, n, n, 1))
        edge = planes[0] + planes[1] * (-1.0) ** np.arange(n)
        for f in (phys, edge):
            assert abs(l2_norm(to_spectral(g, f)) - np.sqrt(np.mean(f**2))) < 1e-12

    @pytest.mark.parametrize("s", [-1.0, 0.5, 1.0])
    def test_sobolev_matches_full_cube(self, grid16, rng, s):
        n = 16
        a = rng.standard_normal((n, n, n))
        b = a + rng.standard_normal((n, n, n))
        full_a, full_b = (np.fft.fftn(x) / n**3 for x in (a, b))
        k = np.fft.fftfreq(n, d=1.0 / n) * (2 * np.pi / grid16.box_length)
        k2 = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
        w = np.zeros_like(k2)
        w[k2 > 0] = k2[k2 > 0] ** s
        want_norm = np.sqrt(np.sum(w * np.abs(full_a) ** 2))
        want_inner = np.sum(w * full_a * np.conj(full_b)).real
        fa, fb = to_spectral(grid16, a), to_spectral(grid16, b)
        assert abs(sobolev_norm(grid16, fa, s) - want_norm) <= 1e-12 * want_norm
        got_inner = hs_inner(grid16, fa, fb, s)
        assert abs(got_inner - want_inner) <= 1e-12 * abs(want_inner)


class TestDerivative:
    def test_sine_derivative(self, grid32):
        # analytic: d/dx1 sin(2 pi x1 / L) = (2 pi / L) cos(...)
        g = grid32
        x1, _, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        d = derivative(g, to_spectral(g, np.sin(w * x1)), 1)
        assert np.abs(from_spectral(g, d) - w * np.cos(w * x1)).max() < 1e-12

    def test_transverse_derivative_vanishes(self, grid32):
        g = grid32
        x1, _, _ = g.mesh()
        d = derivative(g, to_spectral(g, np.sin(x1)), 2)
        assert np.abs(d).max() < 1e-15

    def test_mixed_partials_commute(self, grid32, rng):
        f = random_scalar(grid32, rng)
        d13 = derivative(grid32, derivative(grid32, f, 1), 3)
        d31 = derivative(grid32, derivative(grid32, f, 3), 1)
        assert np.abs(d13 - d31).max() <= 1e-14 * np.abs(d13).max()

    def test_bad_axis(self, grid32, rng):
        with pytest.raises(ValueError):
            derivative(grid32, random_scalar(grid32, rng), 0)


class TestInverseAnisotropicLaplacian:
    def test_inverts_derivative_composition(self, grid32, rng):
        g = grid32
        f = random_scalar(g, rng)
        for froude in (1.0, 0.5):
            lap = sum(
                froude ** (2 * (ax == 3)) * derivative(g, derivative(g, f, ax), ax)
                for ax in (1, 2, 3)
            )
            back = inverse_anisotropic_laplacian(g, lap, froude)
            assert l2_norm(back - f) / l2_norm(f) <= 1e-12

    def test_single_horizontal_mode(self, grid32):
        # symbol at xi = (2 pi / L) e1 is -(2 pi / L)^2 for every froude
        g = grid32
        x1, _, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        f = to_spectral(g, np.sin(w * x1))
        for froude in (1.0, 0.3):
            out = from_spectral(g, inverse_anisotropic_laplacian(g, f, froude))
            assert np.abs(out + np.sin(w * x1) / w**2).max() < 1e-13

    def test_single_vertical_mode_froude_half(self, grid32):
        # symbol at xi = (2 pi / L) e3 with F = 1/2 is -(1/4)(2 pi / L)^2
        g = grid32
        _, _, x3 = g.mesh()
        w = 2 * np.pi / g.box_length
        f = to_spectral(g, np.sin(w * x3))
        out = from_spectral(g, inverse_anisotropic_laplacian(g, f, 0.5))
        assert np.abs(out + 4.0 * np.sin(w * x3) / w**2).max() < 1e-12


class TestDealias:
    def test_band_limited_unchanged(self, grid32, rng):
        f = np.zeros(grid32.shape, dtype=complex)
        f[:9, :9, :9] = rng.standard_normal((9, 9, 9))  # max frequency n/4
        assert np.abs(dealias(grid32, f) - f).max() == 0.0

    def test_high_frequency_removed(self):
        for n in (8, 32):
            g = Grid(n)
            f = np.zeros(g.shape, dtype=complex)
            f[n // 2 - 1, 0, 0] = f[1 - n // 2, 0, 0] = 1.0
            assert np.abs(dealias(g, f)).max() == 0.0

    def test_idempotent(self, grid32, rng):
        f = to_spectral(grid32, rng.standard_normal((32, 32, 32)))
        once = dealias(grid32, f)
        assert np.abs(dealias(grid32, once) - once).max() == 0.0


class TestLeray:
    def test_gradient_fields_are_killed(self, grid32, rng):
        g = grid32
        phi = random_scalar(g, rng)
        grad = np.stack([derivative(g, phi, ax) for ax in (1, 2, 3)])
        assert l2_norm(leray_project(g, grad)) <= 1e-12 * l2_norm(grad)

    def test_divergence_free_unchanged(self, grid32, rng):
        v = random_state(grid32, rng)[:3]
        assert l2_norm(leray_project(grid32, v) - v) <= 1e-12 * l2_norm(v)

    def test_single_compressive_mode(self, grid32):
        # v = (sin(2 pi x1 / L), 0, 0): xi parallel to v_hat at +/- e1
        g = grid32
        x1, _, _ = g.mesh()
        w = 2 * np.pi / g.box_length
        v = np.zeros((3,) + g.shape, dtype=complex)
        v[0] = to_spectral(g, np.sin(w * x1))
        assert l2_norm(leray_project(g, v)) <= 1e-13

    def test_output_divergence_free(self, grid32, rng):
        u = random_state(grid32, rng, divergence_free=False)
        assert max_divergence(grid32, leray_project(grid32, u)) <= 1e-10

    def test_idempotent_and_self_adjoint(self, grid32, rng):
        u = random_state(grid32, rng, divergence_free=False)[:3]
        w = random_state(grid32, rng, divergence_free=False)[:3]
        pu = leray_project(grid32, u)
        assert l2_norm(leray_project(grid32, pu) - pu) <= 1e-12 * l2_norm(pu)
        lhs = l2_inner(pu, w)
        rhs = l2_inner(u, leray_project(grid32, w))
        assert abs(lhs - rhs) <= 1e-12 * l2_norm(u) * l2_norm(w)

    def test_theta_passthrough(self, grid32, rng):
        U = random_state(grid32, rng, divergence_free=False)
        assert np.abs(leray_project(grid32, U)[3] - U[3]).max() == 0.0


class TestAdvect:
    def test_hand_product(self, grid32):
        # v = (0, 0, cos(w x1)) is solenoidal; theta = sin(w x3):
        # v . grad theta = w cos(w x1) cos(w x3)
        g = grid32
        x1, _, x3 = g.mesh()
        w = 2 * np.pi / g.box_length
        v = np.zeros((3,) + g.shape, dtype=complex)
        v[2] = to_spectral(g, np.cos(w * x1))
        U = np.zeros((4,) + g.shape, dtype=complex)
        U[3] = to_spectral(g, np.sin(w * x3))
        out = advect(g, v, U)
        expected = w * np.cos(w * x1) * np.cos(w * x3)
        assert np.abs(from_spectral(g, out[3]) - expected).max() < 1e-12
        assert l2_norm(out[:3]) < 1e-15

    def test_scalar_field_matches_state_component(self, grid32, rng):
        U = random_state(grid32, rng)
        out = advect(grid32, U[:3], U[3])
        assert out.shape == grid32.shape
        assert l2_norm(out - advect(grid32, U[:3], U)[3]) <= 1e-14 * l2_norm(out)

    def test_zero_velocity(self, grid32, rng):
        U = random_state(grid32, rng)
        out = advect(grid32, np.zeros_like(U[:3]), U)
        assert l2_norm(out) == 0.0

    def test_skew_symmetry(self, grid32, rng):
        U = random_state(grid32, rng)
        adv = advect(grid32, U[:3], U)
        rel = abs(l2_inner(adv, U)) / (l2_norm(adv) * l2_norm(U))
        assert rel <= 1e-8

    def test_grid_mismatch(self, grid32, grid16, rng):
        U = random_state(grid16, rng)
        with pytest.raises(ValueError):
            advect(grid32, U[:3], U)

    def test_traced_peak_at_n64(self):
        # v is transformed once, then one field of U at a time: 32 MB traced
        # at n=64, where one batch of all 15 fields took 84 MB
        g = Grid(64)
        U = random_state(g, np.random.default_rng(0))
        assert traced_peak(advect, g, U[:3], U) <= 40e6


class TestMeanZero:
    def test_random_fields_are_mean_zero(self, grid32, rng):
        f = random_scalar(grid32, rng)
        assert f[0, 0, 0] == 0.0
        U = random_state(grid32, rng)
        assert np.abs(U[:, 0, 0, 0]).max() == 0.0


def band_edge_batch(grid, lead, rng):
    """White noise cut to the 2/3 band, with every band-edge plane
    |k_j| = n//3 carrying energy."""
    f = dealias(grid, to_spectral(grid, rng.standard_normal(lead + (grid.n,) * 3)))
    b = grid.band_edge
    for edge in (f[..., b, :, :], f[..., -b, :, :], f[..., b, :],
                 f[..., -b, :], f[..., b]):
        assert np.any(edge)
    return f


class TestBandLayout:
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_cut_expand_round_trip(self, n):
        g = Grid(n)
        band = g._band
        b = g.band_edge
        assert band.shape == (2 * b + 1, 2 * b + 1, b + 1)
        rng = np.random.default_rng(n)
        f = to_spectral(g, rng.standard_normal((2,) + (n,) * 3))
        c = band.cut(f)
        assert c.shape == (2,) + band.shape
        # the cut keeps exactly the band: its expansion is the 2/3 cut
        assert np.array_equal(band.expand(c), dealias(g, f))
        assert np.array_equal(band.cut(band.expand(c)), c)
        for name in ("kd1", "kd2", "kd3", "kd_mag2", "kd_mag"):
            table = np.broadcast_to(getattr(g, name), g.shape)
            assert np.array_equal(np.broadcast_to(getattr(band, name), band.shape),
                                  band.cut(table))

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_norm_weights_are_the_band_of_the_grid_weights(self, n):
        # every s a run or the sweep reads, bit for bit
        g = Grid(n)
        orders = sorted(set(S_LIST) | set(_QGDIFF_S))
        weights = g._band.norm_weights(orders)
        assert weights.shape == (len(orders),) + g._band.shape
        assert np.array_equal(weights, g._band.cut(g.norm_weights(orders)))

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_l2_of_the_band_is_l2_of_the_field(self, n):
        # one plane rule for both layouts: the band counts k3 = 0 once and
        # has no Nyquist plane
        g = Grid(n)
        rng = np.random.default_rng(n)
        f, h = dealias(g, to_spectral(g, rng.standard_normal((2, 2) + (n,) * 3)))
        cf, ch = g._band.cut(f), g._band.cut(h)
        assert abs(l2_norm(cf) - l2_norm(f)) <= 1e-15 * l2_norm(f)
        assert abs(l2_inner(cf, ch) - l2_inner(f, h)) <= 1e-15 * l2_norm(f) * l2_norm(h)


def physical_slabs(g, f):
    """The physical slabs ``_band_pipeline`` hands its product for the band
    of f, joined along x1, and the number of slabs."""
    slabs = []

    def product(p):
        slabs.append(p.copy())
        return p[:1]

    _band_pipeline(g, g._band.cut(f), product, 1)
    return np.concatenate(slabs, axis=1), len(slabs)


class TestBandToPhysical:
    # the pipeline's inverse half: the physical slabs it hands the product
    @pytest.mark.parametrize("lead", [(4,), (9,)])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_bit_identical_to_from_spectral(self, n, lead):
        g = Grid(n)
        f = band_edge_batch(g, lead, np.random.default_rng([n, lead[0]]))
        assert np.array_equal(physical_slabs(g, f)[0], from_spectral(g, f))

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_copy_back_when_scipy_returns_a_new_array(self, n, monkeypatch):
        import scipy.fft

        original, calls = scipy.fft.ifft, []

        def fresh(x, **kwargs):
            calls.append(1)
            return original(np.array(x), **kwargs)

        monkeypatch.setattr(scipy.fft, "ifft", fresh)
        g = Grid(n)
        f = band_edge_batch(g, (4,), np.random.default_rng(n))
        p, slabs = physical_slabs(g, f)
        assert np.array_equal(p, from_spectral(g, f))
        assert len(calls) == 1 + slabs  # the k1 pass, then one k2 pass a slab


class TestBandProduct:
    # the pipeline's forward half, and spectral_product, the full transform it matches
    @pytest.mark.parametrize("lead", [(), (4,)])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_bit_identical_to_masked_rfftn(self, n, lead):
        g = Grid(n)
        prod = np.random.default_rng([n, len(lead)]).standard_normal(lead + (n,) * 3)
        want = to_spectral(g, prod) * g.dealias_mask
        want[..., 0, 0, 0] = 0.0
        assert np.array_equal(spectral_product(g, prod), want)
        fields = prod.reshape((-1,) + (n,) * 3)
        done = []

        def product(p):
            x0 = sum(done)
            done.append(p.shape[1])
            return fields[:, x0:x0 + p.shape[1]]

        got = _band_pipeline(g, np.zeros((1,) + g._band.shape, dtype=complex),
                             product, len(fields))
        assert sum(done) == n
        assert np.array_equal(g._band.expand(got), want.reshape((-1,) + g.shape))


class TestBandPipeline:
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_bit_identical_to_full_transforms(self, n):
        g = Grid(n)
        f = band_edge_batch(g, (9,), np.random.default_rng([n, 9]))

        def product(p):
            return p[:4] * p[4:8] - p[8:]

        assert np.array_equal(_band_pipeline(g, g._band.cut(f), product, 4),
                              full_pipeline(g, g._band.cut(f), product, 4))

    @pytest.mark.parametrize("nf, nout", [(9, 4), (4, 1), (18, 1)])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_working_set_bounds_the_buffers(self, n, nf, nout):
        # the k1 lines and the forward pass exactly, and a slab of as many
        # planes as fit in the larger of _SLAB_BYTES and one plane
        lines, spec, work = _pipeline_buffers(Grid(n), nf, nout)
        slab = _pipeline_bytes(n, nf, nout) - lines.nbytes - spec.nbytes
        assert slab == max(_SLAB_BYTES, _plane_bytes(n, nf, nout))
        assert work.shape[1] * _plane_bytes(n, nf, nout) <= slab

    @pytest.mark.parametrize("n, one_slab", [(16, True), (64, False)])
    def test_slabs(self, n, one_slab):
        # a small grid is a single slab; a larger one is cut into several
        g = Grid(n)
        f = band_edge_batch(g, (9,), np.random.default_rng(n))
        assert (physical_slabs(g, f)[1] == 1) == one_slab


class TestRequireBand:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_one_off_band_coefficient_on_any_axis_is_caught(self, n):
        g = Grid(n)
        b = g.band_edge
        _require_band(g, np.ones((2,) + g.shape) * g.dealias_mask, "t")
        for idx in ((b + 1, 0, 0), (n - b - 1, b, b), (0, b + 1, 0),
                    (b, n - b - 1, 0), (0, 0, b + 1), (b, -b, n // 2)):
            f = np.zeros((2,) + g.shape, dtype=complex)
            f[(1,) + idx] = 1e-300
            with pytest.raises(ValueError, match="2/3 band"):
                _require_band(g, f, "t")
