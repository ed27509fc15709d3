"""Pseudo-spectral laboratory for rotating stratified Boussinesq flow and
its quasi-geostrophic limit on a periodic box."""

from .config import (
    ConfigError,
    DiagConfig,
    RunConfig,
    default_config,
    load_config,
    parse_config_text,
)
from .diagnostics import (
    NormSeries,
    bootstrap_monitor,
    energy_check,
    hs_channel,
    hs_inner,
    lowpass,
    lowpass_profile,
    smallness_condition,
    sobolev_norm,
    space_time_norm,
    tail_bound_check,
    vorticity_residual,
)
from .initial_data import make_well_prepared_data
from .operators import (
    Decomposition,
    biot_savart,
    coriolis_buoyancy,
    decompose,
    osc_vorticity_source,
    potential_vorticity,
    qg_diffusion_symbol,
)
from .pe_solver import (
    BlowUpError,
    LinearPropagator,
    build_propagator,
    pe_run,
    pe_step,
)
from .qg_solver import qg_rhs, qg_run, qg_step
from .spectral import (
    Grid,
    Params,
    advect,
    dealias,
    derivative,
    enforce_mean_zero,
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
from .sweep import SweepResult, export, fit_rate, run_convergence_sweep

__version__ = "0.1.0"
