"""Triad series and verification checks along trajectories.

Every inequality proved for the flow is operationalized as a
:class:`RatioReport`: the empirical supremum of LHS/RHS over the usable
samples of a trajectory, compared against a fixed per-check threshold
(default 10 for the universal-constant bounds).  Both sides are float64
columns of the triad (:func:`triad_columns`), and
:meth:`RatioReport.from_sides` alone decides which samples count and
whether a check fails: a NaN or Inf never passes.
"""

from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from .errors import InsufficientSamples, RegimeNeverEntered
from .geometry import energy, sup_height, sup_slope, to_arclength
from .spectral import derivative, resample, resolved_grid, seminorm

#: a sample whose rhs is finite and at most RHS_FLOOR times the largest finite
#: |rhs| of its check is left out, so an equilibrium gives no 0/0; relative to
#: the check's own column, the floor scales with the run, as every check must
#: under h -> lambda h(x/lambda, t/lambda^3)
RHS_FLOOR = 1e-14
DEFAULT_THRESHOLD = 10.0
LYAPUNOV_EPSILON = 1e-3
LATE_TIME_FACTOR = 5.0
#: the slope/energy bracket is exact algebra, so it is held to one up to round-off
EXACT_THRESHOLD = 1.0 + 1e-9
#: every power in a check: numpy's ``power`` may run a SIMD kernel whose last bit
#: depends on the CPU; ``float_power`` calls the C library's ``pow``, as Python floats do
_pow = np.float_power

#: every check computable from the triad CSV, in report order: name ->
#: threshold.  :func:`run_checks` runs them all; the families
#: :func:`check_differential`, :func:`check_algebraic` and
#: :func:`check_lyapunov` between them emit exactly these names.
CSV_CHECKS = {
    "energy_dissipation": 2e-2,
    "dissipation_rate": DEFAULT_THRESHOLD,
    "distance_rate": DEFAULT_THRESHOLD,
    "lyapunov_e2d": 1e-3,
    "curvature_l2": DEFAULT_THRESHOLD,
    "slope_e2d": DEFAULT_THRESHOLD,
    "hhalf_h": DEFAULT_THRESHOLD,
    "energy_hd": DEFAULT_THRESHOLD,
    "height_interp": DEFAULT_THRESHOLD,
    "kappa_half_d": DEFAULT_THRESHOLD,
    "kappa_neg1_e": DEFAULT_THRESHOLD,
    "slope_energy_hi": EXACT_THRESHOLD,
    "slope_energy_lo": EXACT_THRESHOLD,
    "height_l3": DEFAULT_THRESHOLD,
}


@dataclass(frozen=True)
class TriadSample:
    """One time-stamped record of the triad and auxiliary norms.

    The fields, in order, are the columns of the triad CSV
    (:data:`TRIAD_FIELDS`): :func:`triad_series` computes every one and
    ``mslab verify`` parses every one back, so each check of
    :data:`CSV_CHECKS` runs from the file.  The last five are
    profile-level norms: the squared Hdot^{1/2} and Hdot^{-1} seminorms of
    the curvature in arclength, ||h_x||_2, ||h_xx||_2 and ||h||_{L^3}.
    """

    t: float
    E: float
    D: float
    H: float
    Hhalf: float
    sup_slope: float
    sup_h: float
    E2D: float
    intVs2: float
    curv_L2: float
    kappa_half_sq: float
    kappa_neg1_sq: float
    hx_l2: float
    hxx_l2: float
    h_l3: float


#: columns of the triad CSV, in order
TRIAD_FIELDS = tuple(f.name for f in fields(TriadSample))


@dataclass(frozen=True)
class RatioReport:
    """Outcome of one inequality check over a trajectory: ``passed`` is None
    for a check that did not run (its regime was never entered), ``t_sup``
    is the sample time of the supremum (None without a usable sample) and
    ``num_excluded`` counts the samples that :data:`RHS_FLOOR` left out."""

    name: str
    empirical_sup: float
    threshold: float
    passed: bool
    num_samples: int
    t_sup: float | None
    num_excluded: int

    @classmethod
    @np.errstate(all="ignore")
    def from_sides(cls, name, lhs, rhs, threshold, times):
        """Supremum of lhs/rhs over float64 arrays sampled at ``times``.

        A sample is left out only when its rhs is finite and at most
        :data:`RHS_FLOOR` times the largest finite |rhs|, so equilibria give
        no 0/0; any other non-finite side or ratio fails the check.  Without
        a usable sample the check passes vacuously.
        """
        lhs, rhs, times = np.broadcast_arrays(np.asarray(lhs, dtype=float), rhs, times)
        finite = np.isfinite(rhs)
        kept = ~(finite & (rhs <= RHS_FLOOR * np.abs(rhs[finite]).max(initial=0.0)))
        ratios, excluded = lhs[kept] / rhs[kept], int(np.sum(~kept))
        if not len(ratios):
            return cls(name, 0.0, float(threshold), True, 0, None, excluded)
        worst = np.argmax(ratios)  # the first NaN, if there is one
        sup = float(ratios[worst])
        passed = bool(np.isfinite(rhs[kept]).all() and np.isfinite(ratios).all() and sup <= threshold)
        return cls(name, sup, float(threshold), passed, len(ratios), float(times[kept][worst]), excluded)


def triad_table(samples):
    """The float64 (samples x :data:`TRIAD_FIELDS`) table of a triad series."""
    rows = [[getattr(s, name) for name in TRIAD_FIELDS] for s in samples]
    return np.array(rows, dtype=float).reshape(-1, len(TRIAD_FIELDS))


def triad_columns(samples):
    """The float64 column of each :class:`TriadSample` field, as an attribute."""
    return SimpleNamespace(**dict(zip(TRIAD_FIELDS, triad_table(samples).T)))


def late_window(t, h0_norm):
    """Start t_late = 5*H0^{3/4} of the late-time window, and the mask of ``t`` in it."""
    t_late = LATE_TIME_FACTOR * h0_norm ** 0.75
    return t_late, np.asarray(t) >= t_late


#: states that one sweep of :func:`compute_H` stacks
_H_BLOCK = 64
#: entries of the (states x panels x columns) arrays that one block of the
#: sweep holds, so that a block stays in cache; a block has at least one row
_H_BLOCK_ENTRIES = 2**14


def compute_H(profiles):
    """Squared gradient-flow distance to the flat interface, one per height
    profile.

    H is the Dirichlet energy of the potential of the signed indicator
    chi of the region between the graph and the flat line.  It is
    evaluated per Fourier mode in x with the one-dimensional Green's
    function exp(-|k||z-z'|)/(2|k|); chi is piecewise constant in z on the
    panels cut by the node heights, so the z-integrals are carried out in
    closed form panel by panel.  The zero mode contributes
    integral |Phi'|^2 dz with Phi'(z) = -integral_{-inf}^z chi_0.

    The cross-panel sum needs, for each panel p, the carry
    sum_{q<p} conj(c_q) (1 - e^{-k w_q}) e^{-k (z_p - z_{q+1})}, which the
    z-sorted panels pass on by the decay recursion
    carry_{p+1} = e^{-k w_p} carry_p + conj(c_p) (1 - e^{-k w_p}); every
    factor is at most one.

    ``profiles`` share one grid, and one sweep serves a stack of up to
    :data:`_H_BLOCK` of them, so the recursion runs once per panel row for
    the whole stack.  Each array has a leading profile axis, and a profile
    with fewer panels than the stack's most is padded with zero-width panels,
    for which e^{-k w} = 1 and 1 - e^{-k w} = 0: they add exact zeros and
    pass the carry on unchanged.  The panel transforms are built
    max(1, :data:`_H_BLOCK_ENTRIES` // (stack N)) rows at a time, so time is
    O(N^2) per profile and memory O(_H_BLOCK N).  Returns a float64 array,
    one H per profile, each computed on the grid of its input profile:
    :func:`triad_series` chooses that grid.
    """
    profiles = list(profiles)
    out = np.empty(len(profiles))
    for start in range(0, len(profiles), _H_BLOCK):
        out[start:start + _H_BLOCK] = _stacked_H(profiles[start:start + _H_BLOCK])
    return out


def _stacked_H(stack):
    """H of each profile of ``stack`` by one sweep over its padded panels."""
    grid = stack[0].grid
    n, count = grid.num_points, len(stack)
    panels = []
    for h in stack:
        if h.grid != grid:
            raise ValueError("compute_H needs profiles of one grid")
        h.require_mean_zero("H")
        panels.append(np.unique(np.concatenate(([0.0], h.samples))))
    samples = np.array([h.samples for h in stack])
    rows = max(len(breaks) for breaks in panels) - 1
    # padding panels have width 0 and chi = 0, so no column is active there
    widths = np.zeros((count, rows))
    chi = np.zeros((count, rows))
    bounds = np.zeros((count, rows))
    for s, breaks in enumerate(panels):
        w = np.diff(breaks)
        centers = breaks[:-1] + 0.5 * w
        widths[s, : len(w)] = w
        chi[s, : len(w)] = -np.sign(centers)  # chi on a panel's active columns; no centre is 0
        # (h - z) chi < 0 is h chi < z chi = -|z| exactly, as chi is 1 or -1
        bounds[s, : len(w)] = -np.abs(centers)
    k = grid.wavenumbers[1:]

    step = max(1, _H_BLOCK_ENTRIES // (count * n))
    # summed over the rows of a block once the sweep ends
    modal = np.zeros((count, step, n // 2))
    carry = np.zeros((count, n // 2), dtype=complex)
    chi0 = np.empty((count, rows))
    for start in range(0, rows, step):
        block = slice(start, start + step)
        # a column is active where the panel lies between 0 and h(x)
        active = samples[:, None, :] * chi[:, block, None] < bounds[:, block, None]
        chat = np.fft.rfft(active, axis=2)  # the panel transform times n chi
        chi0[:, block] = chat[..., 0].real * (chi[:, block] / n)
        c = chat[..., 1:]
        kw = widths[:, block, None] * k
        decay = np.exp(-kw)
        one_minus = 1.0 - decay
        weight = one_minus * chi[:, block, None]
        term = np.conj(c) * weight
        carries = np.empty_like(term)
        for p in range(term.shape[1]):
            carries[:, p] = carry
            carry *= decay[:, p]
            carry += term[:, p]
        # in units of 2/(n k)^2, as chi^2 = 1: the same-panel integral
        # k w - (1 - e^{-k w}) and the cross-panel term Re(c carry) chi (1 - e^{-k w})
        same = (c.real**2 + c.imag**2) * (kw - one_minus)
        modal[:, : term.shape[1]] += same + (c * carries).real * weight

    per_mode = modal.sum(axis=1) / (n * n * np.float_power(k, 3))
    total = np.sum(grid.multiplicity[1:] * per_mode, axis=1)

    # zero mode: Phi' is piecewise linear with slope -chi_0 per panel
    phi_prime = np.zeros((count, rows + 1))
    np.cumsum(-chi0 * widths, axis=1, out=phi_prime[:, 1:])
    a = phi_prime[:, :-1]
    b = phi_prime[:, 1:]
    total += np.sum(widths * (a * a + a * b + b * b) / 3.0, axis=1)

    # the quadratic form is nonnegative; round-off can leave a tiny
    # negative total once the profile has decayed to machine level
    return np.maximum(grid.length * total, 0.0)


def triad_series(traj, strip=None):
    """Compute one :class:`TriadSample` per snapshot of a trajectory.

    V and D are read from ``traj.responses``, the response of the engine's
    flow that :func:`mslab.evolution.run` kept with each state, so no state
    is solved.  V is thus the velocity of the engine that made the run and
    D the rate at which that flow lowers E.  Every column is one formula
    for both engines; D, E2D and intVs2 depend on the engine through V
    alone.  int V_s^2 ds is evaluated on the x-grid as
    int V_x^2/sqrt(1+h_x^2) dx.  H of every snapshot comes from one
    :func:`compute_H` call on one grid, the largest
    :func:`~mslab.spectral.resolved_grid` of the snapshots' h, to which each
    h is truncated, so dH/dt never crosses a change of grid.  Every other
    column is computed on the state's own grid.  ``strip`` is not read; it
    stays only because the benchmark passes it.
    """
    grid = max((resolved_grid(state.h) for state in traj.states), key=lambda g: g.num_points, default=None)
    distances = compute_H([resample(state.h, grid) for state in traj.states]).tolist()
    out = []
    for t, state, response, distance in zip(traj.times, traj.states, traj.responses, distances):
        e = energy(state)
        d = response.dissipation
        v_x = derivative(response.velocity, 1).samples
        kappa_arc = to_arclength(state, state.curvature).without_mean()
        out.append(TriadSample(
            t=t,
            E=e,
            D=d,
            H=distance,
            Hhalf=seminorm(state.h, -0.5) ** 2,
            sup_slope=sup_slope(state),
            sup_h=sup_height(state),
            E2D=e * e * d,
            intVs2=float(state.grid.spacing * np.sum(v_x**2 / state.line_element)),
            curv_L2=float(state.grid.spacing * np.sum(state.curvature.samples**2 * state.line_element)),
            kappa_half_sq=seminorm(kappa_arc, 0.5) ** 2,
            kappa_neg1_sq=seminorm(kappa_arc, -1.0) ** 2,
            hx_l2=state.slope.l2_norm(),
            hxx_l2=derivative(state.h, 2).l2_norm(),
            h_l3=float(np.float_power(
                state.grid.spacing * np.sum(np.float_power(np.abs(state.h.samples), 3)), 1.0 / 3.0
            )),
        ))
    return out


def _check_usable(samples, minimum):
    if len(samples) < minimum:
        raise InsufficientSamples(f"need at least {minimum} samples, got {len(samples)}")


def _reports(sides, times):
    """One report per named ``(lhs, rhs)`` pair sampled at ``times``, at
    its threshold of :data:`CSV_CHECKS`."""
    return [RatioReport.from_sides(name, lhs, rhs, CSV_CHECKS[name], times)
            for name, (lhs, rhs) in sides.items()]


@np.errstate(all="ignore")
def check_algebraic(samples):
    """Lemma-level algebraic inequality checks, one report per inequality.

    The bracket between the energy and the squared slope norm
    (``slope_energy_hi``/``slope_energy_lo``) is exact algebra, so its
    threshold is :data:`EXACT_THRESHOLD` rather than the universal-constant
    default.
    """
    _check_usable(samples, 3)
    c = triad_columns(samples)
    sides = {
        "curvature_l2": (c.curv_L2, _pow(c.E, 1.0 / 3.0) * _pow(c.D, 2.0 / 3.0)),
        "slope_e2d": (c.sup_slope, _pow(c.E2D, 1.0 / 6.0)),
        "hhalf_h": (c.Hhalf, c.H),
        "energy_hd": (c.E, np.sqrt(c.H * c.D)),
        "height_interp": (c.sup_h, _pow(c.Hhalf * _pow(c.E, 2), 1.0 / 6.0)),
        "kappa_half_d": (c.kappa_half_sq, c.D),
        "kappa_neg1_e": (c.kappa_neg1_sq, c.E),
        "slope_energy_hi": (_pow(c.hx_l2, 2), (1.0 + np.sqrt(2.0)) * c.E),
        "slope_energy_lo": (2.0 * c.E, _pow(c.hx_l2, 2)),
        "height_l3": (
            c.h_l3, _pow(c.Hhalf, 1.0 / 3.0) * _pow(c.hx_l2, 1.0 / 6.0) * _pow(c.hxx_l2, 1.0 / 6.0)
        ),
    }
    return _reports(sides, c.t)


def _three_point_stencils(times):
    """The derivative and the two-panel mean of a column (time along its
    last axis) at the interior samples of ``times``, from the gap a before
    and the gap b after each: f' ~ [-b/(a(a+b)), (b-a)/(ab), a/(b(a+b))],
    evaluated as the centered difference plus (b-a)/(a+b) times the
    difference of the one-sided slopes, and by Simpson's rule for uneven
    panels 1/(a+b) int f dt ~ [2-b/a, (a+b)^2/(ab), 2-a/b]/6.  With a = b
    they are the centered difference and the 1-4-1 rule.  Times that repeat
    or go back, or fewer than three, raise :class:`InsufficientSamples`.
    """
    _check_usable(times, 3)
    gaps = np.diff(np.asarray(times, dtype=float))
    if not np.all(gaps > 0.0):
        raise InsufficientSamples("snapshot times must increase; found equal or decreasing t")
    a, b = gaps[:-1], gaps[1:]
    span = a + b

    def derivative(f):
        before, mid, after = f[..., :-2], f[..., 1:-1], f[..., 2:]
        return (after - before) / span + (b - a) / span * ((mid - before) / a - (after - mid) / b)

    def mean(f):
        before, mid, after = f[..., :-2], f[..., 1:-1], f[..., 2:]
        return ((2.0 - b / a) * before + span * span / (a * b) * mid + (2.0 - a / b) * after) / 6.0

    return derivative, mean


@np.errstate(all="ignore")
def check_differential(samples):
    """Verification of the differential relations on three-point stencils,
    which :func:`_three_point_stencils` builds for any increasing times.

    ``energy_dissipation`` measures E(t_{i+1}) - E(t_{i-1}) = -int D dt in
    integrated form, |(E_{i+1} - E_{i-1})/(a+b) + mean D| / D_i with
    Simpson's rule for the mean, so coarse snapshots do not add the O(dt^2)
    error of a difference quotient.  ``dissipation_rate`` bounds
    (dD/dt + int V_s^2)/(D^{5/2} + E D^3) from above and ``distance_rate``
    does the same for dH/dt against H^{1/2} E^{1/6} D^{7/12}.  Only interior
    samples enter, so there is no one-sided bias at the trajectory ends.
    """
    c = triad_columns(samples)
    derivative, mean = _three_point_stencils(c.t)
    mid = slice(1, -1)
    E, D = c.E[mid], c.D[mid]
    sides = {
        "energy_dissipation": (np.abs((c.E[2:] - c.E[:-2]) / (c.t[2:] - c.t[:-2]) + mean(c.D)), D),
        "dissipation_rate": (derivative(c.D) + c.intVs2[mid], _pow(D, 2.5) + E * _pow(D, 3)),
        "distance_rate": (derivative(c.H), np.sqrt(c.H[mid]) * _pow(E, 1.0 / 6.0) * _pow(D, 7.0 / 12.0)),
    }
    return _reports(sides, c.t[mid])


def check_lyapunov(samples):
    """E^2 D must be nonincreasing once it has entered the smallness regime.

    Reports the largest relative step increase after the first sample with
    E^2 D <= :data:`LYAPUNOV_EPSILON`; a flat state (identically zero) is vacuously
    nonincreasing, and a NaN or Inf step fails.
    """
    _check_usable(samples, 2)
    c = triad_columns(samples)
    inside = np.nonzero(c.E2D <= LYAPUNOV_EPSILON)[0]
    if len(inside) == 0:
        raise RegimeNeverEntered(f"E^2 D never dropped below epsilon = {LYAPUNOV_EPSILON:.3e}")
    tail = c.E2D[inside[0]:]
    # a decrease counts as no increase; a step up from an exact zero is measured
    # against RHS_FLOOR times the largest E^2 D, and a flat state has no usable step
    increase = np.maximum(np.diff(tail), 0.0)
    floor = np.maximum(tail[:-1], RHS_FLOOR * tail.max())
    return RatioReport.from_sides(
        "lyapunov_e2d", increase, floor, CSV_CHECKS["lyapunov_e2d"], c.t[inside[0] + 1:]
    )


def run_checks(samples):
    """Every check of :data:`CSV_CHECKS` at its threshold, in that order; a
    Lyapunov check whose regime is never entered is reported with
    ``passed`` None."""
    reports = check_differential(samples) + check_algebraic(samples)
    try:
        reports.append(check_lyapunov(samples))
    except RegimeNeverEntered:
        reports.append(RatioReport("lyapunov_e2d", 0.0, CSV_CHECKS["lyapunov_e2d"], None, 0, None, 0))
    by_name = {r.name: r for r in reports}
    return [by_name[name] for name in CSV_CHECKS]


@np.errstate(all="ignore")
def check_decay_rates(samples, h0_norm):
    """Theorem-rate supremum checks against the initial distance H0.

    All-samples sups of t*E/H0 and H/H0; on the late-time window
    t >= 5*H0^{3/4} also t^2*D/H0 plus the slope and height rates; and the
    height interpolation sup|h|/(H E^2)^{1/6}.  When no sample reaches the
    late window, its three checks did not run and report ``passed=None``.
    """
    if h0_norm <= 0:
        raise ValueError("H0 must be positive")
    _check_usable(samples, 1)
    c = triad_columns(samples)
    _, late = late_window(c.t, h0_norm)
    t, tl = c.t, c.t[late]
    root = np.sqrt(h0_norm)
    sides = {
        "rate_te": (t * c.E, h0_norm, t),
        "rate_h": (c.H, h0_norm, t),
        "rate_t2d": (_pow(tl, 2) * c.D[late], h0_norm, tl),
        "rate_slope": (_pow(tl, 2.0 / 3.0) * c.sup_slope[late], root, tl),
        "rate_height": (_pow(tl, 1.0 / 3.0) * c.sup_h[late], root, tl),
        "height_he2": (c.sup_h, _pow(c.H * _pow(c.E, 2), 1.0 / 6.0), t),
    }
    reports = [RatioReport.from_sides(name, lhs, rhs, DEFAULT_THRESHOLD, times)
               for name, (lhs, rhs, times) in sides.items()]
    unrun = () if late.any() else ("rate_t2d", "rate_slope", "rate_height")
    return [replace(r, passed=None) if r.name in unrun else r for r in reports]
