"""Mode lookup in the stored half-spectrum, shared by the solver tests."""


def half_index(n, idx):
    """Where mode idx = (i, j, k) of the full n^3 cube lives in the stored
    half-spectrum: k > n/2 folds to its conjugate partner (-i, -j, -k) mod n.
    Exact for per-mode matrices, since M(-xi) = M(xi)."""
    i, j, k = (int(x) for x in idx)
    if k > n // 2:
        return (-i % n, -j % n, -k % n)
    return (i, j, k)
