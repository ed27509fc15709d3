import os

# One thread per BLAS/OpenMP pool, set before numpy loads them: under
# concurrent load their default pools oversubscribe the cores, and the
# batched small-matrix work of the propagator build slows a hundredfold.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from qglab import Grid, Params  # noqa: E402


@pytest.fixture(scope="session")
def grid32():
    return Grid(32)


@pytest.fixture(scope="session")
def grid16():
    return Grid(16)


@pytest.fixture(scope="session")
def grid8():
    return Grid(8)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def params():
    return Params(epsilon=0.1, nu=1e-2, nu_prime=5e-3)
