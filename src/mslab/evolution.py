"""Time evolution of the interface.

Two engines share one driver: the linearized flow is solved exactly per
Fourier mode (multiplier exp(-mobility*|k|^3 t)), and the full nonlinear
flow h_t = -sqrt(1+h_x^2) V is advanced with a first-order IMEX step that
treats the stiff linear part implicitly.  :func:`run` is the flow's one
mean-zero gate, and both engines then hold c_0 = 0 exactly.  The module
also provides the self-similar kernel mask of the linear flow and its
closed-form Fourier observables.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import SlopeBlowup, SolverDivergence
from .field import FieldHistory, StripConfig, exterior_response
from .geometry import build_state, sup_slope
from .spectral import Grid, SpectralProfile, fractional_operator


#: largest t_end/dt a configuration may ask for: 1e6 nonlinear steps take
#: hours at N=512, and the linear engine then makes up to that many snapshots
MAX_STEPS = 10**6


@dataclass(frozen=True)
class EvolutionConfig:
    engine: str
    dt: float
    t_end: float
    grid: Grid
    strip: StripConfig = None
    mobility: float = 2.0
    output_every: int = 1
    slope_gate: float = 1.0

    def __post_init__(self):
        if self.engine not in ("linear", "nonlinear"):
            raise ValueError("engine must be 'linear' or 'nonlinear'")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValueError(f"t_end/dt exceeds the limit of {MAX_STEPS} steps")
        if self.mobility <= 0:
            raise ValueError("mobility must be positive")
        if not 0.0 < self.slope_gate <= 1.0:
            raise ValueError("slope_gate must lie in (0, 1]")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")
        if self.engine == "nonlinear" and self.strip is None:
            raise ValueError("the nonlinear engine needs a strip configuration")


@dataclass
class Trajectory:
    """Time-ordered snapshots plus the reason the run ended.

    ``iterations`` and ``residuals`` hold the (plus, minus) GMRES
    iteration counts and max-norm residuals of the exterior solve behind
    every nonlinear step, snapshot or not.
    """

    times: list = dataclass_field(default_factory=list)
    states: list = dataclass_field(default_factory=list)
    status: str = "completed"
    iterations: list = dataclass_field(default_factory=list)
    residuals: list = dataclass_field(default_factory=list)

    def append(self, t, state):
        if self.times and t <= self.times[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        self.times.append(float(t))
        self.states.append(state)

    def __len__(self):
        return len(self.times)


def linear_solve_exact(h0, t, mobility):
    """Exact solution of the linearized flow: hhat(k,t) = exp(-mu |k|^3 t) hhat0.

    No time stepping is involved; the semigroup property holds to round-off.
    The multiplier is defined for every mode and keeps the zero mode, so
    data with mass keep their mass (the self-similar kernel comparison).
    """
    k = np.abs(h0.grid.wavenumbers)
    return SpectralProfile.from_coeffs(h0.grid, h0.coeffs * np.exp(-mobility * k**3 * t))


def _dealias_mask(grid):
    m = np.rint(grid.wavenumbers * grid.length / (2.0 * np.pi)).astype(int)
    return np.abs(m) <= grid.num_points // 3


def nonlinear_step(state, cfg):
    """One IMEX step of the full flow.

    The stiff multiplier mobility*|k|^3 is treated implicitly; the
    remainder N(h) = -sqrt(1+h_x^2) V + mobility*|d/dx|^3 h is evaluated
    explicitly from the exterior response of ``state``, which stays on the
    state for the diagnostics to read.  Products are dealiased with the
    2/3 rule, and the result is re-projected to mean zero.
    """
    if sup_slope(state) > cfg.slope_gate:
        raise SlopeBlowup(
            f"slope {sup_slope(state):.6f} exceeds gate {cfg.slope_gate}"
        )
    grid = state.grid
    v = exterior_response(state, cfg.strip).velocity
    stiff = fractional_operator(state.h, 3.0)
    remainder = -state.line_element * v.samples + cfg.mobility * stiff.samples
    nhat = np.where(_dealias_mask(grid), np.fft.fft(remainder) / grid.num_points, 0.0)
    k = np.abs(grid.wavenumbers)
    new_coeffs = (state.h.coeffs + cfg.dt * nhat) / (1.0 + cfg.dt * cfg.mobility * k**3)
    new_coeffs[0] = 0.0
    new_state = build_state(SpectralProfile.from_coeffs(grid, new_coeffs))
    if sup_slope(new_state) > cfg.slope_gate:
        raise SlopeBlowup(
            f"slope {sup_slope(new_state):.6f} exceeds gate {cfg.slope_gate} after step"
        )
    return new_state


def run(h0, cfg):
    """Advance h0 to t_end, recording snapshots every ``output_every`` steps
    and at the last step, which may close a shorter interval.

    The linear engine evaluates the exact mode solution at the snapshot
    times; the nonlinear engine steps with :func:`nonlinear_step`.  Its
    loop owns a :class:`~mslab.field.FieldHistory`, so each exterior solve
    after the first starts GMRES from the fields of the last two states;
    the iteration counts and residuals of every step go to
    ``Trajectory.iterations`` and ``Trajectory.residuals``.  A gate
    violation or solver failure halts the run with the matching status
    instead of raising.  A profile that passes the mean-zero gate is
    projected to an exact zero mode before the first state is built.
    """
    h0.require_mean_zero("the flow")
    h0 = h0.without_mean()
    if h0.grid != cfg.grid:
        raise ValueError("initial profile and configuration use different grids")
    state0 = build_state(h0)
    if sup_slope(state0) > cfg.slope_gate:
        raise SlopeBlowup(
            f"initial slope {sup_slope(state0):.6f} exceeds gate {cfg.slope_gate}"
        )
    traj = Trajectory()
    traj.append(0.0, state0)
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(cfg.t_end, cfg.dt):
        n_steps = int(np.ceil(cfg.t_end / cfg.dt))
    if cfg.t_end == 0.0 or n_steps == 0:
        return traj

    if cfg.engine == "linear":
        for step in (*range(cfg.output_every, n_steps, cfg.output_every), n_steps):
            t = step * cfg.dt
            traj.append(t, build_state(linear_solve_exact(h0, t, cfg.mobility)))
        return traj

    state = state0
    history = FieldHistory()
    for step in range(1, n_steps + 1):
        t = step * cfg.dt
        snapshot = step % cfg.output_every == 0 or step == n_steps
        try:
            response = exterior_response(state, cfg.strip, history)
            state = nonlinear_step(state, cfg)
        except SlopeBlowup:
            traj.status = "slope_blowup"
            return traj
        except SolverDivergence:
            traj.status = "solver_failure"
            return traj
        traj.iterations.append(response.iterations)
        traj.residuals.append(response.residuals)
        if snapshot:
            traj.append(t, state)
    return traj


def kernel_mask(grid):
    """Self-similar mask G of the linear flow, Ghat(k) = exp(-|k|^3).

    Continuum normalization Ghat(0) = 1 makes the cell integral equal one;
    the returned profile is even with G(0) approaching Gamma(4/3)/pi as the
    cell grows.
    """
    k = np.abs(grid.wavenumbers)
    coeffs = np.exp(-(k**3)) / grid.length
    return SpectralProfile.from_coeffs(grid, coeffs.astype(complex))


def exact_linear_observables(h0, t, mobility):
    """Closed-form Fourier observables of the linearized flow.

    Returns ``(E_lin, D_lin, H0)`` where ``E_lin = || |d/dx| h(t) ||_2^2``,
    ``D_lin = || |d/dx|^{5/2} h(t) ||_2^2`` and ``H0 = sum L |c_m|^2/|k_m|``
    for the initial data.  These are the discrete versions of the scaled
    integrals ``t E = int |t^{1/3}k|^3 exp(-2 mu |t^{1/3}k|^3) |h0|^2/|k|``
    (and exponent 6 for ``t^2 D``), the oracle for the decay-rate checks.
    """
    h0.require_mean_zero("the linear observables")
    k = np.abs(h0.grid.wavenumbers)
    nz = k != 0.0
    weight = h0.grid.length * np.abs(h0.coeffs[nz]) ** 2
    decay = np.exp(-2.0 * mobility * k[nz] ** 3 * t)
    e_lin = float(np.sum(k[nz] ** 2 * decay * weight))
    d_lin = float(np.sum(k[nz] ** 5 * decay * weight))
    h0_norm = float(np.sum(weight / k[nz]))
    return e_lin, d_lin, h0_norm
