"""Helpers shared by the solver tests: mode lookup in the stored
half-spectrum, a field count over every scipy.fft entry point, the full
transforms that the slab pipeline must reproduce, and the traced memory
peak of one call."""

import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import scipy.fft

from qglab import enforce_mean_zero, from_spectral, to_spectral

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


def traced_peak(fn, *args, **kwargs):
    """The peak bytes tracemalloc sees during one call of fn, its result
    included."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
