"""Structural property suite behind ``qglab check-invariants``.

Every check draws seeded random fields, measures the worst relative defect
of one structural identity, and compares it against a fixed tolerance, so a
deployed install can vet itself without pytest. The identities of the
QG/oscillating structure are computed once, by :func:`structure_defects`;
acceptance criterion 1 calls that same function with its own draws and
tolerances, and criterion 6 calls :func:`truncation_defects` likewise.
The identities hold on the terms the runs execute, looked up at call time:
N(U) of ``pe_solver._nonlinear``, the QG transport of ``qg_solver._qg_rhs``
and the symbol M = L - (1/eps) P A of ``pe_solver._linear_symbols`` and the
gamma of ``qg_diffusion_symbol`` that the two propagators exponentiate. M's
P is the projector N(U) runs, so these identities vet it too. On every
solenoidal draw the potential-vorticity balance is checked term by term:
pv(N(U)) + v . grad pv(U) equals the oscillating source of
``osc_vorticity_source``, and pv(M U) equals gamma pv(U) plus the
F (nu - nu') lap d3 theta_osc term of the paper's nu != nu' case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import pe_solver, qg_solver
from .diagnostics import (
    hs_inner,
    lowpass,
    sobolev_norm,
    tail_bound_check,
)
from .operators import (
    _osc_diffusion_pv,
    biot_savart,
    coriolis_buoyancy,
    decompose,
    osc_vorticity_source,
    potential_vorticity,
    qg_diffusion_symbol,
)
from .pe_solver import build_propagator
from .spectral import (
    Grid,
    Params,
    advect,
    from_spectral,
    inverse_anisotropic_laplacian,
    l2_inner,
    l2_norm,
    leray_project,
    max_divergence,
    random_scalar,
    random_state,
    to_spectral,
)

__all__ = ["CheckResult", "STRUCTURE_CHECKS", "run_all", "structure_defects",
           "truncation_defects"]

# each identity of structure_defects: its row in run_all and its tolerance,
# which acceptance criterion 1 reads too
STRUCTURE_CHECKS = {
    "projections": ("QG/osc idempotence and complement", 1e-10),
    "orthogonality": ("H^s orthogonality (s=0,1/2,1)", 1e-10),
    "skewness": ("skew coupling orthogonality (L2, H^1)", 1e-12),
    "solenoidal": ("QG fields solenoidal", 1e-10),
    "transport/vorticity": ("transport/vorticity commutation on QG fields", 1e-8),
    "diffusion identity": ("QG diffusion = QG projection of full diffusion", 1e-10),
    "H1 cancellation": ("energy cancellation on QG fields (pv form)", 1e-8),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tolerance: float

    @property
    def passed(self):
        return self.worst <= self.tolerance


def _rel(defect, scale):
    return defect / max(scale, 1e-300)


def structure_defects(grid, rng, draws):
    """Worst relative defect of each QG/oscillating identity over ``draws``,
    each draw evaluated at F = 1 and F = 0.5.

    Each draw takes one solenoidal :func:`random_state` U and one balanced
    W = biot_savart(random_scalar). On U it measures the projector, H^s
    orthogonality (s = 0, 1/2, 1), skewness and solenoidality identities and
    the potential-vorticity balance of each term the propagator and N(U)
    carry:

        pv(N(U)) + v . grad pv(U) = S(U)        ("transport/vorticity"),
        pv(M U) = gamma pv(U) + F (nu - nu') lap d3 theta_osc
                                                ("diffusion identity"),

    with S = ``osc_vorticity_source`` and M = L - (1/eps) P A. pv removes
    gradients, so it cannot tell one projector from another; the diffusion
    identity therefore also takes max_divergence(M U), which is zero only
    if M maps solenoidal fields to solenoidal fields. On W it measures the
    transport/pv commutation pv(N(W)) = QG transport of pv(W), the energy
    cancellation <pv N(W), pv W>_{L2} = 0 (which is <N(W), W>_{H^1} = 0 at
    F = 1; the key keeps its name "H1 cancellation") and QG(M W) = gamma W.
    """
    worst = dict.fromkeys(STRUCTURE_CHECKS, 0.0)

    def bump(key, *defects):
        worst[key] = max(worst[key], *defects)

    def apply(M, V):
        return np.einsum("ab...,b...->a...", M, V)

    # per F: the propagator's M, as (4, 4) + grid.shape, and the limit
    # solver's gamma; QG P A W = 0
    nu, nu_prime = 1e-2, 5e-3
    symbols = [(F, np.ascontiguousarray(np.moveaxis(
                    pe_solver._linear_symbols(grid, Params(0.05, nu, nu_prime, F)),
                    0, -1)).reshape((4, 4) + grid.shape),
                qg_diffusion_symbol(grid, nu, nu_prime, F)) for F in (1.0, 0.5)]
    for _ in range(draws):
        U, omega = random_state(grid, rng), random_scalar(grid, rng)
        nl_u = pe_solver._nonlinear(grid, U)
        for F, M, gamma in symbols:
            dec = decompose(grid, U, F)
            au = coriolis_buoyancy(U, F)
            bump("projections",
                 _rel(l2_norm(decompose(grid, dec.qg, F).qg - dec.qg), l2_norm(dec.qg)),
                 _rel(l2_norm(decompose(grid, dec.osc, F).osc - dec.osc),
                      l2_norm(dec.osc)),
                 l2_norm(dec.qg + dec.osc - U) / l2_norm(U),
                 _rel(l2_norm(potential_vorticity(grid, dec.osc, F)),
                      l2_norm(dec.omega)))
            for s in (0.0, 0.5, 1.0):
                n_osc = sobolev_norm(grid, dec.osc, s)
                bump("orthogonality",
                     _rel(abs(hs_inner(grid, dec.osc, dec.qg, s)),
                          n_osc * sobolev_norm(grid, dec.qg, s)),
                     _rel(abs(hs_inner(grid, au, dec.osc, s)),
                          sobolev_norm(grid, au, s) * n_osc))
            bump("skewness",
                 _rel(abs(l2_inner(au, U)), l2_norm(au) * l2_norm(U)),
                 _rel(abs(hs_inner(grid, au, U, 1.0)),
                      sobolev_norm(grid, au, 1.0) * sobolev_norm(grid, U, 1.0)))
            bump("solenoidal", max_divergence(grid, dec.qg))

            source = osc_vorticity_source(grid, dec.osc, U, dec.qg, F)
            balance = (potential_vorticity(grid, nl_u, F)
                       + advect(grid, U[:3], dec.omega))
            bump("transport/vorticity",
                 _rel(l2_norm(balance - source), l2_norm(source)))
            mu = apply(M, U)
            diffusion = gamma * dec.omega + _osc_diffusion_pv(
                grid, dec.osc[3], nu, nu_prime, F)
            bump("diffusion identity",
                 _rel(l2_norm(potential_vorticity(grid, mu, F) - diffusion),
                      l2_norm(diffusion)),
                 max_divergence(grid, mu))

            W = biot_savart(grid, omega, F)
            pv_w = potential_vorticity(grid, W, F)
            pv_nl = potential_vorticity(grid, pe_solver._nonlinear(grid, W), F)
            rhs = qg_solver._qg_rhs(grid, pv_w, F)
            bump("transport/vorticity", _rel(l2_norm(pv_nl - rhs), l2_norm(rhs)))
            bump("H1 cancellation",
                 _rel(abs(l2_inner(pv_nl, pv_w)), l2_norm(pv_nl) * l2_norm(pv_w)))
            gam = gamma * W
            bump("diffusion identity",
                 _rel(l2_norm(gam - decompose(grid, apply(M, W), F).qg), l2_norm(gam)))
    return worst


def truncation_defects(grid, rng, draws):
    """Worst H^s ratio ||lowpass(f, m)|| / ||f|| (s = -1, 0, 1) and whether
    every high-frequency tail bound holds, for m = 1..5 over ``draws``
    mean-free transforms of white noise."""
    worst_ratio, tail_ok = 0.0, True
    for _ in range(draws):
        f = to_spectral(grid, rng.standard_normal((grid.n,) * 3))
        f[0, 0, 0] = 0.0
        for m in range(1, 6):
            low = lowpass(grid, f, m)
            for s in (-1.0, 0.0, 1.0):
                worst_ratio = max(worst_ratio,
                                  sobolev_norm(grid, low, s) / sobolev_norm(grid, f, s))
            for s, alpha in ((-1.0, 0.5), (0.0, 1.0), (1.0, 0.25)):
                tail_ok &= tail_bound_check(grid, f, m, s, alpha).passed
    return worst_ratio, tail_ok


def run_all(n=32, draws=50, seed=2024):
    """Run every invariant check; returns a list of CheckResult."""
    grid = Grid(n)
    rng = np.random.default_rng(seed)
    results = []

    def add(name, worst, tol):
        results.append(CheckResult(name=name, worst=float(worst), tolerance=tol))

    # transform round trip and Parseval
    worst_rt, worst_pars = 0.0, 0.0
    for _ in range(draws):
        phys = rng.standard_normal((n, n, n))
        f = to_spectral(grid, phys)
        back = from_spectral(grid, f)
        worst_rt = max(worst_rt, np.abs(back - phys).max() / np.abs(phys).max())
        # sobolev_norm excludes k=0; compare on the mean-free part
        mean_free = phys - phys.mean()
        rms = np.sqrt(np.mean(mean_free**2))
        worst_pars = max(
            worst_pars,
            abs(rms - sobolev_norm(grid, to_spectral(grid, mean_free), 0.0)) / rms,
        )
    add("transform round-trip", worst_rt, 1e-12)
    add("Parseval (L2 = H^0)", worst_pars, 1e-12)

    # Leray projector: idempotent, self-adjoint, annihilates gradients
    worst = 0.0
    for _ in range(draws):
        u = random_state(grid, rng, divergence_free=False)
        proj = leray_project(grid, u)
        worst = max(worst, l2_norm(leray_project(grid, proj) - proj) / l2_norm(proj))
        w = random_state(grid, rng, divergence_free=False)
        lhs = l2_inner(leray_project(grid, u)[:3], w[:3])
        rhs = l2_inner(u[:3], leray_project(grid, w)[:3])
        worst = max(worst, abs(lhs - rhs) / (l2_norm(u[:3]) * l2_norm(w[:3])))
        worst = max(worst, max_divergence(grid, proj))
    add("Leray idempotent/self-adjoint/solenoidal", worst, 1e-12)

    # inverse anisotropic Laplacian inverts the derivative composition
    worst = 0.0
    for froude in (1.0, 0.5):
        for _ in range(draws // 2 + 1):
            g = random_scalar(grid, rng)
            lap = -(grid.kd1**2 + grid.kd2**2 + froude**2 * grid.kd3**2) * g
            back = inverse_anisotropic_laplacian(grid, lap, froude)
            worst = max(worst, l2_norm(back - g) / l2_norm(g))
    add("inverse anisotropic Laplacian", worst, 1e-12)

    # the solvers' nonlinear term is skew on solenoidal, dealiased states
    worst = 0.0
    for _ in range(draws):
        U = random_state(grid, rng)
        nl = pe_solver._nonlinear(grid, U)
        worst = max(worst, _rel(abs(l2_inner(nl, U)), l2_norm(nl) * l2_norm(U)))
    add("advection skew-symmetry", worst, 1e-8)

    worst = structure_defects(grid, rng, draws)
    for key, (name, tol) in STRUCTURE_CHECKS.items():
        add(name, worst[key], tol)

    ratio, tail_ok = truncation_defects(grid, rng, draws)
    add("low-pass H^s contraction", max(ratio - 1.0, 0.0), 1e-14)
    add("high-frequency tail bound", 0.0 if tail_ok else 1.0, 0.0)

    # interpolation: H^3/2 between H^0 and H^2
    worst = 0.0
    for _ in range(draws):
        f = random_scalar(grid, rng)
        lhs = sobolev_norm(grid, f, 1.5)
        rhs = sobolev_norm(grid, f, 0.0) ** 0.25 * sobolev_norm(grid, f, 2.0) ** 0.75
        worst = max(worst, (lhs - rhs) / rhs)
    add("H^3/2 interpolation inequality", max(worst, 0.0), 1e-10)

    # inviscid propagator preserves the solenoidal norm; both rows read the
    # factor that pe_step(nonlinear=False) applies, at every stored mode
    small = Grid(8)
    stored = np.ogrid[:small.n, :small.n, :small.n // 2 + 1]
    params = Params(epsilon=0.05, nu=1e-30, nu_prime=1e-30)
    half = build_propagator(small, params, 0.01).factor_at(*stored)
    worst = 0.0
    for _ in range(draws):
        w = random_state(small, rng)
        norm0 = l2_norm(w)
        z = w
        for _ in range(20):
            z = pe_solver._apply(half, pe_solver._apply(half, z))
        worst = max(worst, abs(l2_norm(z) - norm0) / norm0)
    add("inviscid propagator norm preservation", worst, 1e-10)

    # the per-class build against one expm per stored mode, also where the
    # stiff eps = 1e-4 takes ||(dt/2) M||_1 to about 100 and the squarings
    worst = 0.0
    dt = 0.01
    for epsilon in (0.05, 1e-4):
        params = Params(epsilon=epsilon, nu=1e-2, nu_prime=5e-3, froude=0.5)
        got = np.moveaxis(build_propagator(small, params, dt).factor_at(*stored),
                          (0, 1), (-2, -1))
        want = scipy.linalg.expm((0.5 * dt) * pe_solver._linear_symbols(small, params))
        want = want.reshape(small.shape + (4, 4))
        want[0, 0, 0] = 0.0
        scale = np.maximum(np.abs(want).max(axis=(-2, -1)), 1e-300)
        worst = max(worst, (np.abs(got - want).max(axis=(-2, -1)) / scale).max())
    add("propagator equals per-mode expm on every stored mode", worst, 1e-12)

    return results
