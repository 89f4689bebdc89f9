"""Numerical laboratory for relaxation of a near-planar Mullins-Sekerka interface.

Simulates the two-dimensional interface flow driven by the jump of the
normal derivative of the curvature potential, and verifies the algebraic
and differential relations among distance, energy and dissipation along
the trajectories, including the theorem-level decay rates.
"""

from .errors import (
    ConfigError,
    CrossCheckFailure,
    InsufficientSamples,
    MSLabError,
    RegimeNeverEntered,
    SlopeBlowup,
    SlopeGateViolation,
    SolverDivergence,
    ZeroModeNonzero,
)
from .spectral import (
    Grid,
    SpectralProfile,
    derivative,
    dual_pairing_norm,
    fractional_operator,
    harmonic_extension,
    interpolation_gap,
    seminorm,
)
from .geometry import (
    InterfaceState,
    build_state,
    energy,
    sup_height,
    sup_slope,
    to_arclength,
    total_arclength,
)
from .field import (
    FieldHistory,
    HalfStripField,
    StripConfig,
    default_strip_config,
    dissipation,
    exterior_response,
    linear_dtn,
    normal_velocity,
    solve_exterior_fields,
    solve_strip,
)
from .evolution import (
    EvolutionConfig,
    Trajectory,
    exact_linear_observables,
    kernel_mask,
    linear_solve_exact,
    nonlinear_step,
    run,
)
from .diagnostics import (
    RatioReport,
    TriadSample,
    check_algebraic,
    check_curvature_evolution,
    check_decay_rates,
    check_differential,
    check_lyapunov,
    compute_H,
    triad_series,
)
from .config import RunConfig, build_initial_profile, load_config, parse_config

__version__ = "0.1.0"
