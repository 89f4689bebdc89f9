"""Numerical laboratory for relaxation of a near-planar Mullins-Sekerka interface.

Simulates the two-dimensional interface flow driven by the jump of the
normal derivative of the curvature potential, and verifies the algebraic
and differential relations among distance, energy and dissipation along
the trajectories, including the theorem-level decay rates.
"""

from .errors import (
    ConfigError,
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
    fractional_operator,
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
    ExteriorResponse,
    HalfStripField,
    SolveRecord,
    StripConfig,
    default_strip_config,
    dissipation,
    exterior_response,
    normal_velocity,
    solve_exterior_fields,
    solve_strip,
)
from .evolution import (
    EvolutionConfig,
    Trajectory,
    kernel_mask,
    linear_solve_exact,
    nonlinear_step,
    run,
)
from .diagnostics import (
    RatioReport,
    TriadSample,
    check_algebraic,
    check_decay_rates,
    check_differential,
    check_lyapunov,
    compute_H,
    triad_series,
)
from .config import RunConfig, build_initial_profile, load_config, parse_config

__version__ = "0.1.0"
