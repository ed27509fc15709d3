"""Helpers shared by the solver tests: mode lookup in the stored
half-spectrum, a field count over every scipy.fft entry point, the full
transforms that the slab pipeline must reproduce, the oscillating vorticity
source through whole-cube transforms, the run channels evaluated on the
half-spectrum, and the traced memory peak of one call."""

import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

import numpy as np
import scipy.fft

from qglab import (
    biot_savart,
    decompose,
    derivative,
    enforce_mean_zero,
    from_spectral,
    l2_norm,
    max_divergence,
    sobolev_norm,
    to_spectral,
)
from qglab.spectral import spectral_product
from qglab.diagnostics import S_LIST, hs_channel
from qglab.sweep import _QGDIFF_S

_REAL_PASSES = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
_COMPLEX_PASSES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")


def half_index(n, idx):
    """Where mode idx = (i, j, k) of the full n^3 cube lives in the stored
    half-spectrum: k > n/2 folds to its conjugate partner (-i, -j, -k) mod n.
    Exact for per-mode matrices, since M(-xi) = M(xi)."""
    i, j, k = (int(x) for x in idx)
    if k > n // 2:
        return (-i % n, -j % n, -k % n)
    return (i, j, k)


@contextmanager
def count_fields(monkeypatch):
    """Yields a function giving the fields transformed inside the block, in
    whole cubes.

    Every scipy.fft entry point is counted. A 3-D transform of a field has
    exactly one real pass, whole or in slabs, so a real pass counts the n^3
    cubes of its real side (its input forward, its output inverse; n is the
    length of that side's last axis); a complex pass must act on a batch of
    as many fields (the leading axes of its input) as some real pass did.
    """
    calls = []

    def counting(real, fn):
        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            samples = out if np.iscomplexobj(x) else np.asarray(x)
            calls.append((real, int(np.prod(np.shape(x)[:-3])),
                          Fraction(samples.size, samples.shape[-1] ** 3)))
            return out
        return wrapper

    def fields():
        real = [(lead, cubes) for is_real, lead, cubes in calls if is_real]
        assert ({lead for is_real, lead, _ in calls if not is_real}
                <= {lead for lead, _ in real})
        return sum(cubes for _, cubes in real)

    with monkeypatch.context() as m:
        for names, real in ((_REAL_PASSES, True), (_COMPLEX_PASSES, False)):
            for name in names:
                m.setattr(scipy.fft, name, counting(real, getattr(scipy.fft, name)))
        yield fields


def full_pipeline(grid, batch, product, nout, buffers=None):
    """``spectral._band_pipeline`` through full transforms: ``irfftn`` of the
    expanded batch, the product of the whole cube as one slab, and the band
    of the masked ``rfftn``; ``buffers`` is ignored."""
    p = from_spectral(grid, grid._band.expand(batch))
    full = to_spectral(grid, product(p)) * grid.dealias_mask
    return enforce_mean_zero(grid._band.cut(full))


def patch_full_transforms(monkeypatch, module):
    """Make ``module`` run its products through ``full_pipeline``."""
    monkeypatch.setattr(module, "_band_pipeline", full_pipeline)


def full_osc_vorticity_source(grid, U_osc, U, U_qg, froude=1.0):
    """``operators.osc_vorticity_source`` on whole cubes: its 18 factors
    on the half-spectrum, inverse-transformed in three groups of six, and
    the forward transform of ``spectral_product``."""
    for W in (U_osc, U, U_qg):
        grid.check_shape(np.asarray(W), 4)

    dh = partial(derivative, grid)

    def samples(*factors):
        return from_spectral(grid, np.stack(factors))

    # the sum's three groups of six factors, inverse-transformed one group
    # at a time
    p = samples(dh(U_osc[2], 3), dh(U[1], 1) - dh(U[0], 2), dh(U_osc[2], 1),
                dh(U[1], 3), dh(U_osc[2], 2), dh(U[0], 3))
    q = p[0] * p[1] - p[2] * p[3] + p[4] * p[5]
    for W, V in ((U_qg, U_osc), (U_osc, U)):  # F d3 v_W . grad theta_V
        del p
        p = samples(*[dh(W[j], 3) for j in range(3)],
                    *[froude * dh(V[3], ax) for ax in (1, 2, 3)])
        q += p[0] * p[3] + p[1] * p[4] + p[2] * p[5]
    return spectral_product(grid, q)


def half_spectrum_pe_channels(grid, U, froude, reference=None):
    """The channels of one ``pe_run`` record of U, each norm taken on the
    half-spectrum by ``sobolev_norm``; ``reference``, a half-spectrum
    vorticity, adds the sweep's channels against it, the pv gap by
    ``l2_norm``."""
    dec = decompose(grid, U, froude)
    values = {"max_div": max_divergence(grid, U)}
    for s in S_LIST:
        values[hs_channel("U", s)] = sobolev_norm(grid, U, s)
        values[hs_channel("Uosc", s)] = sobolev_norm(grid, dec.osc, s)
    if reference is not None:
        values["l2_omega_diff"] = l2_norm(dec.omega - reference)
        dqg = dec.qg - biot_savart(grid, reference, froude)
        for s in _QGDIFF_S:
            values[hs_channel("qgdiff", s)] = sobolev_norm(grid, dqg, s)
    return values


def half_spectrum_qg_channels(grid, omega, froude):
    """The channels of one ``qg_run`` record of omega, on the half-spectrum."""
    U = biot_savart(grid, omega, froude)
    values = {hs_channel("omega", s): sobolev_norm(grid, omega, s) for s in (0.0, 1.0)}
    values.update({hs_channel("Uqg", s): sobolev_norm(grid, U, s) for s in S_LIST})
    return values


def assert_channels_match(series, wanted):
    """Every channel of ``series`` against the half-spectrum values of each
    record, a list of dicts: ``max_div`` bit for bit, the norms to 1e-14
    relative."""
    assert set(series.channels) == set(wanted[0])
    for name in series.channels:
        got = series.channel(name)
        want = np.array([w[name] for w in wanted])
        if name == "max_div":
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= 1e-14 * want), name


def traced_peak(fn, *args, **kwargs):
    """The peak bytes tracemalloc sees during one call of fn, its result
    included."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
