"""Helpers shared by the solver tests: mode lookup in the stored
half-spectrum, a field count over every scipy.fft entry point, and the full
transforms that the compact passes must reproduce."""

from contextlib import contextmanager

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
    """Yields a function giving the fields transformed inside the block.

    Every scipy.fft entry point is counted. A 3-D transform of a field has
    exactly one real pass, so a field counts once, at that pass (the leading
    axes of its input); a complex pass must act on a batch of as many fields
    as some real pass did.
    """
    calls = []

    def counting(real, fn):
        def wrapper(x, *args, **kwargs):
            calls.append((real, int(np.prod(np.shape(x)[:-3]))))
            return fn(x, *args, **kwargs)
        return wrapper

    def fields():
        real = [f for is_real, f in calls if is_real]
        assert {f for is_real, f in calls if not is_real} <= set(real)
        return sum(real)

    with monkeypatch.context() as m:
        for names, real in ((_REAL_PASSES, True), (_COMPLEX_PASSES, False)):
            for name in names:
                m.setattr(scipy.fft, name, counting(real, getattr(scipy.fft, name)))
        yield fields


def patch_full_transforms(monkeypatch, module):
    """Make ``module`` call full transforms in place of the compact passes:
    ``irfftn`` of the expanded batch, and the band of the masked ``rfftn``."""

    def inverse(grid, batch):
        return from_spectral(grid, grid._band.expand(batch))

    def forward(grid, prod):
        full = to_spectral(grid, prod) * grid.dealias_mask
        return enforce_mean_zero(grid._band.cut(full))

    monkeypatch.setattr(module, "_band_to_physical", inverse)
    monkeypatch.setattr(module, "_band_product", forward)
