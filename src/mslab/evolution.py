"""Time evolution of the interface.

Two engines share one driver: the linearized flow is solved exactly per
Fourier mode (multiplier exp(-mobility*|k|^3 t)), and the full nonlinear
flow h_t = -sqrt(1+h_x^2) V is advanced with a first-order IMEX step that
treats its own small-slope linearisation -LINEAR_RATE*|k|^3 implicitly.
The mobility is a parameter of the linear engine only; the nonlinear flow
has none.  :func:`run` is the flow's one mean-zero gate, and both engines
then hold c_0 = 0 exactly.  A :class:`Trajectory` keeps each snapshot with
the response of its engine's flow at it, and one solve record per
nonlinear step.  The module also provides the self-similar kernel mask of
the linear flow.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import SlopeBlowup, SolverDivergence
from .field import StripConfig, exterior_response, prescribed_response
from .geometry import build_state, sup_slope
from .spectral import Grid, SpectralProfile, fractional_operator


#: each phase adds |k| to the jump of the normal derivative, so at small
#: slope the flow is hhat_t = -LINEAR_RATE |k|^3 hhat
LINEAR_RATE = 2.0

#: largest t_end/dt a configuration may ask for: 1e6 nonlinear steps take
#: hours at N=512, and the linear engine then makes up to that many snapshots
MAX_STEPS = 10**6


@dataclass(frozen=True)
class EvolutionConfig:
    """Engine, time step and grid of a run.

    ``mobility`` is the rate of the linear engine, hhat_t = -mobility
    |k|^3 hhat.  The nonlinear engine has no mobility, and a nonlinear
    configuration whose ``mobility`` is not :data:`LINEAR_RATE` is
    rejected.  ``strip`` is parsed and never read: the exterior solve has
    no strip, and the field stays only because the benchmark passes it.
    """

    engine: str
    dt: float
    t_end: float
    grid: Grid
    strip: StripConfig = None
    mobility: float = LINEAR_RATE
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
        if abs(round(self.t_end / self.dt) * self.dt - self.t_end) > 1e-9 * max(self.t_end, self.dt):
            raise ValueError("t_end must be a whole number of steps dt")
        if self.mobility <= 0:
            raise ValueError("mobility must be positive")
        if not 0.0 < self.slope_gate <= 1.0:
            raise ValueError("slope_gate must lie in (0, 1]")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")
        if self.engine == "nonlinear" and self.mobility != LINEAR_RATE:
            raise ValueError(
                f"the nonlinear flow has no mobility (its linear rate is {LINEAR_RATE}); "
                "mobility sets the linear engine only"
            )


@dataclass
class Trajectory:
    """Time-ordered snapshots plus the failure that ended the run.

    ``responses`` holds the :class:`~mslab.field.ExteriorResponse` of the
    engine's flow at each kept state, in step with ``states``.  ``solves``
    holds the :class:`~mslab.field.SolveRecord` of the exterior solve
    behind every completed nonlinear step, snapshot or not.  ``failure``
    is the SlopeBlowup or SolverDivergence that ended the run, or None; it
    is kept without its traceback, whose frames would hold the failed
    solve's N x N kernel.
    """

    times: list = dataclass_field(default_factory=list)
    states: list = dataclass_field(default_factory=list)
    responses: list = dataclass_field(default_factory=list)
    solves: list = dataclass_field(default_factory=list)
    failure: Exception = None

    @property
    def status(self):
        """``completed``, ``slope_blowup`` or ``solver_failure``."""
        if self.failure is None:
            return "completed"
        return "slope_blowup" if isinstance(self.failure, SlopeBlowup) else "solver_failure"

    def append(self, t, state, response):
        if self.times and t <= self.times[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        self.times.append(float(t))
        self.states.append(state)
        self.responses.append(response)

    def __len__(self):
        return len(self.times)


def linear_solve_exact(h0, t, mobility):
    """Exact solution of the linearized flow: hhat(k,t) = exp(-mu |k|^3 t) hhat0.

    No time stepping is involved; the semigroup property holds to round-off.
    The multiplier is defined for every mode and keeps the zero mode, so
    data with mass keep their mass (the self-similar kernel comparison).
    """
    k3 = np.float_power(h0.grid.wavenumbers, 3)
    return SpectralProfile.from_coeffs(h0.grid, h0.coeffs * np.exp(-mobility * k3 * t))


def linear_response(state, mobility):
    """The response of the linear flow h_t = -mobility |d/dx|^3 h at a state.

    The flow moves the interface h_t = -sqrt(1+h_x^2) V with the normal
    velocity V = mobility |d/dx|^3 h / sqrt(1+h_x^2), one spectral
    multiply, and D = -integral kappa V ds is then exactly the rate at
    which it lowers the arclength energy.
    """
    v = mobility * fractional_operator(state.h, 3.0).samples / state.line_element
    return prescribed_response(state, v)


def nonlinear_step(state, cfg):
    """One IMEX step of the full flow: the exterior response of ``state``
    and the state the step leads to.

    The stiff multiplier LINEAR_RATE*|k|^3, the flow's own small-slope
    linearisation, is treated implicitly; the remainder
    N(h) = -sqrt(1+h_x^2) V + LINEAR_RATE*|d/dx|^3 h is evaluated
    explicitly from the exterior response of ``state``.  Products are
    dealiased with the 2/3 rule of :attr:`~mslab.spectral.Grid.dealiased`,
    and the result is re-projected to mean zero.  The step gates no slope:
    :func:`run` gates the state it starts from and every state a step
    returns.
    """
    grid = state.grid
    response = exterior_response(state)
    stiff = fractional_operator(state.h, 3.0)
    remainder = -state.line_element * response.velocity.samples + LINEAR_RATE * stiff.samples
    nhat = np.where(grid.dealiased, SpectralProfile.from_samples(grid, remainder).coeffs, 0.0)
    k3 = np.float_power(grid.wavenumbers, 3)
    new_coeffs = (state.h.coeffs + cfg.dt * nhat) / (1.0 + cfg.dt * LINEAR_RATE * k3)
    new_coeffs[0] = 0.0
    return response, build_state(SpectralProfile.from_coeffs(grid, new_coeffs))


def snapshot_steps(cfg):
    """The steps whose states a run keeps: 0, every ``output_every``-th
    step and the last, which may close a shorter interval."""
    n_steps = round(cfg.t_end / cfg.dt)
    return sorted({*range(0, n_steps, cfg.output_every), n_steps})


def run(h0, cfg):
    """Advance h0 to t_end, keeping the snapshots of :func:`snapshot_steps`.

    Every kept state is kept with the response of its engine's flow, in
    ``Trajectory.responses``, so the diagnostics solve nothing.  The
    linear engine evaluates the exact mode solution at the snapshot times
    and keeps the response of that flow (:func:`linear_response`): a
    linear run makes no exterior solve and cannot fail one.  The nonlinear
    engine steps with :func:`nonlinear_step`, which solves the state it
    steps from; the loop keeps that state with its response and records
    the solve in ``Trajectory.solves``.  The final state is kept after its
    own solve.  A slope past the gate after a step, or a failed solve (an
    unresolved state included), ends the run in ``Trajectory.failure``
    instead of raising.  A profile that passes the mean-zero gate is
    projected to an exact zero mode before the first state is built.
    """
    h0.require_mean_zero("the flow")
    h0 = h0.without_mean()
    if h0.grid != cfg.grid:
        raise ValueError("initial profile and configuration use different grids")
    state = build_state(h0)
    if sup_slope(state) > cfg.slope_gate:
        raise SlopeBlowup(
            f"initial slope {sup_slope(state):.6f} exceeds gate {cfg.slope_gate}"
        )
    traj = Trajectory()
    steps = snapshot_steps(cfg)

    if cfg.engine == "linear":
        for step in steps:
            if step:
                state = build_state(linear_solve_exact(h0, step * cfg.dt, cfg.mobility))
            traj.append(step * cfg.dt, state, linear_response(state, cfg.mobility))
        return traj

    kept = set(steps)
    try:
        for step in range(1, steps[-1] + 1):
            previous = state
            response, state = nonlinear_step(previous, cfg)
            if step - 1 in kept:
                traj.append((step - 1) * cfg.dt, previous, response)
            if sup_slope(state) > cfg.slope_gate:
                raise SlopeBlowup(
                    f"slope {sup_slope(state):.6f} exceeds gate {cfg.slope_gate} after step"
                )
            traj.solves.append(response.solve)
        traj.append(steps[-1] * cfg.dt, state, exterior_response(state))
    except (SlopeBlowup, SolverDivergence) as exc:
        traj.failure = exc.with_traceback(None)
    return traj


def kernel_mask(grid):
    """Self-similar mask G of the linear flow, Ghat(k) = exp(-|k|^3).

    Continuum normalization Ghat(0) = 1 makes the cell integral equal one;
    the returned profile is even with G(0) approaching Gamma(4/3)/pi as the
    cell grows.
    """
    coeffs = np.exp(-np.float_power(grid.wavenumbers, 3)) / grid.length
    return SpectralProfile.from_coeffs(grid, coeffs)
