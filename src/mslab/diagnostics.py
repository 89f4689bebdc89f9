"""Triad series and verification checks along trajectories.

Every inequality proved for the flow is operationalized as a
:class:`RatioReport`: the empirical supremum of LHS/RHS over the usable
samples of a trajectory, compared against a fixed per-check threshold
(default 10 for the universal-constant bounds).  Samples whose
right-hand side falls below 1e-14 are excluded so equilibria do not
produce 0/0 ratios.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InsufficientSamples, RegimeNeverEntered
from .field import exterior_response
from .geometry import energy, sup_height, sup_slope, to_arclength
from .spectral import SpectralProfile, derivative, seminorm

RHS_FLOOR = 1e-14
DEFAULT_THRESHOLD = 10.0
LYAPUNOV_EPSILON = 1e-3
LATE_TIME_FACTOR = 5.0
CURVATURE_EVOLUTION_THRESHOLD = 0.05
#: the slope/energy bracket is exact algebra, so it is held to one up to round-off
EXACT_THRESHOLD = 1.0 + 1e-9

#: every check computable from the triad CSV, in report order: name ->
#: (family, default threshold).  A run configuration selects from these
#: names only; the families are :func:`check_differential`,
#: :func:`check_algebraic` and :func:`check_lyapunov`, which between them
#: emit exactly these names.
CSV_CHECKS = {
    "energy_dissipation": ("differential", 2e-2),
    "dissipation_rate": ("differential", DEFAULT_THRESHOLD),
    "distance_rate": ("differential", DEFAULT_THRESHOLD),
    "lyapunov_e2d": ("lyapunov", 1e-3),
    "curvature_l2": ("algebraic", DEFAULT_THRESHOLD),
    "slope_e2d": ("algebraic", DEFAULT_THRESHOLD),
    "hhalf_h": ("algebraic", DEFAULT_THRESHOLD),
    "energy_hd": ("algebraic", DEFAULT_THRESHOLD),
    "height_interp": ("algebraic", DEFAULT_THRESHOLD),
    "kappa_half_d": ("algebraic", DEFAULT_THRESHOLD),
    "kappa_neg1_e": ("algebraic", DEFAULT_THRESHOLD),
    "slope_energy_hi": ("algebraic", EXACT_THRESHOLD),
    "slope_energy_lo": ("algebraic", EXACT_THRESHOLD),
    "height_l3": ("algebraic", DEFAULT_THRESHOLD),
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
    """Outcome of one inequality check over a trajectory; ``passed`` is
    None for a check that did not run (its regime was never entered)."""

    name: str
    empirical_sup: float
    threshold: float
    passed: bool
    num_samples: int

    @classmethod
    def from_ratios(cls, name, ratios, threshold):
        """Supremum of the usable ratios; a NaN or Inf among them fails."""
        ratios = np.array([r for r in ratios if r is not None], dtype=float)
        sup = float(ratios.max()) if len(ratios) else 0.0
        passed = bool(np.isfinite(ratios).all() and sup <= threshold)
        return cls(name, sup, float(threshold), passed, len(ratios))


def _ratio(lhs, rhs):
    if rhs < RHS_FLOOR:
        return None
    return lhs / rhs


#: rows of the (panels x modes) arrays that :func:`compute_H` holds at once
_H_BLOCK = 64


def compute_H(state):
    """Squared gradient-flow distance to the flat interface.

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
    factor is at most one.  The panel transforms are built in blocks of
    :data:`_H_BLOCK` rows, so time is O(N^2) and memory O(block N).
    """
    h = state.h
    h.require_mean_zero("H")
    samples = h.samples
    n = h.grid.num_points
    if np.all(samples == 0.0):
        return 0.0

    breaks = np.unique(np.concatenate(([0.0], samples)))
    widths = np.diff(breaks)
    centers = breaks[:-1] + 0.5 * widths
    chi = -np.sign(centers)  # chi on a panel's active columns; no centre is 0
    k_pos = 2.0 * np.pi * np.arange(1, n // 2 + 1) / h.grid.length

    modal = np.zeros(n // 2)
    carry = np.zeros(n // 2, dtype=complex)
    chi0 = np.empty(len(widths))
    for start in range(0, len(widths), _H_BLOCK):
        rows = slice(start, start + _H_BLOCK)
        # a column is active where the panel lies between 0 and h(x)
        active = (samples[None, :] - centers[rows, None]) * chi[rows, None] < 0.0
        chat = np.fft.rfft(active, axis=1) * (chi[rows, None] / n)
        chi0[rows] = chat[:, 0].real
        c = chat[:, 1:]
        kw = np.outer(widths[rows], k_pos)
        decay = np.exp(-kw)
        one_minus = 1.0 - decay
        term = np.conj(c) * one_minus
        carries = np.empty_like(term)
        for p in range(len(term)):
            carries[p] = carry
            carry *= decay[p]
            carry += term[p]
        # in units of 2/k^2: the same-panel integral k w - (1 - e^{-k w})
        # and the cross-panel term Re(c carry)(1 - e^{-k w})
        modal += np.sum(
            np.abs(c) ** 2 * (kw - one_minus) + (c * carries).real * one_minus, axis=0
        )

    per_mode = modal / k_pos**3
    pair_weight = np.full(n // 2, 2.0)
    pair_weight[-1] = 1.0  # the unpaired -N/2 mode counts once
    total = float(np.sum(pair_weight * per_mode))

    # zero mode: Phi' is piecewise linear with slope -chi_0 per panel
    phi_prime = np.concatenate(([0.0], np.cumsum(-chi0 * widths)))
    a = phi_prime[:-1]
    b = phi_prime[1:]
    total += float(np.sum(widths * (a * a + a * b + b * b) / 3.0))

    # the quadratic form is nonnegative; round-off can leave a tiny
    # negative total once the profile has decayed to machine level
    return max(h.grid.length * total, 0.0)


def triad_series(traj, strip):
    """Compute one :class:`TriadSample` per snapshot of a trajectory.

    V and D come from :func:`mslab.field.exterior_response`, so a state the
    run already stepped from with this strip is not solved again.
    int V_s^2 ds is evaluated on the x-grid as int V_x^2/sqrt(1+h_x^2) dx.
    """
    out = []
    for t, state in zip(traj.times, traj.states):
        e = energy(state)
        response = exterior_response(state, strip)
        d = response.dissipation
        h_dist = compute_H(state)
        hhalf = seminorm(state.h, -0.5) ** 2

        v_x = derivative(response.velocity, 1).samples
        int_vs2 = float(state.grid.spacing * np.sum(v_x**2 / state.line_element))
        curv_l2 = float(
            state.grid.spacing
            * np.sum(state.curvature.samples**2 * state.line_element)
        )
        kappa_arc = to_arclength(state, state.curvature).without_mean()
        sample = TriadSample(
            t=t,
            E=e,
            D=d,
            H=h_dist,
            Hhalf=hhalf,
            sup_slope=sup_slope(state),
            sup_h=sup_height(state),
            E2D=e * e * d,
            intVs2=int_vs2,
            curv_L2=curv_l2,
            kappa_half_sq=seminorm(kappa_arc, 0.5) ** 2,
            kappa_neg1_sq=seminorm(kappa_arc, -1.0) ** 2,
            hx_l2=state.slope.l2_norm(),
            hxx_l2=derivative(state.h, 2).l2_norm(),
            h_l3=float(
                (state.grid.spacing * np.sum(np.abs(state.h.samples) ** 3)) ** (1.0 / 3.0)
            ),
        )
        out.append(sample)
    return out


def _check_usable(samples, minimum):
    if len(samples) < minimum:
        raise InsufficientSamples(
            f"need at least {minimum} samples, got {len(samples)}"
        )


def _reports(ratios, thresholds=None):
    """One report per named ratio list, at the given threshold, else the
    default of :data:`CSV_CHECKS`, else :data:`DEFAULT_THRESHOLD`."""
    defaults = {name: threshold for name, (_, threshold) in CSV_CHECKS.items()}
    thresholds = {**defaults, **(thresholds or {})}
    return [
        RatioReport.from_ratios(name, r, thresholds.get(name, DEFAULT_THRESHOLD))
        for name, r in ratios.items()
    ]


def check_algebraic(samples, thresholds=None):
    """Lemma-level algebraic inequality checks, one report per inequality.

    The bracket between the energy and the squared slope norm
    (``slope_energy_hi``/``slope_energy_lo``) is exact algebra, so its
    default threshold is :data:`EXACT_THRESHOLD` rather than the
    universal-constant default.
    """
    _check_usable(samples, 3)
    pairs = {
        "curvature_l2": [(s.curv_L2, s.E ** (1.0 / 3.0) * s.D ** (2.0 / 3.0)) for s in samples],
        "slope_e2d": [(s.sup_slope, s.E2D ** (1.0 / 6.0)) for s in samples],
        "hhalf_h": [(s.Hhalf, s.H) for s in samples],
        "energy_hd": [(s.E, np.sqrt(s.H * s.D)) for s in samples],
        "height_interp": [(s.sup_h, (s.Hhalf * s.E**2) ** (1.0 / 6.0)) for s in samples],
        "kappa_half_d": [(s.kappa_half_sq, s.D) for s in samples],
        "kappa_neg1_e": [(s.kappa_neg1_sq, s.E) for s in samples],
        "slope_energy_hi": [(s.hx_l2**2, (1.0 + np.sqrt(2.0)) * s.E) for s in samples],
        "slope_energy_lo": [(2.0 * s.E, s.hx_l2**2) for s in samples],
        "height_l3": [
            (s.h_l3, s.Hhalf ** (1.0 / 3.0) * s.hx_l2 ** (1.0 / 6.0) * s.hxx_l2 ** (1.0 / 6.0))
            for s in samples
        ],
    }
    ratios = {name: [_ratio(lhs, rhs) for lhs, rhs in p] for name, p in pairs.items()}
    return _reports(ratios, thresholds)


def _uniform_cadence(times):
    """Common time step of the snapshots and how many samples lie on it.

    The short last interval of a run whose end is off its output cadence
    (:func:`mslab.evolution.run`) is left out; other uneven spacing, and
    times that repeat or go back, raise.
    """
    gaps = np.diff(np.asarray(times, dtype=float))
    if not np.all(gaps > 0.0):
        raise InsufficientSamples("snapshot times must increase; found equal or decreasing t")

    def uneven(g):
        return np.ptp(g) > 1e-6 * g.mean()

    if len(gaps) > 2 and uneven(gaps) and not uneven(gaps[:-1]) and gaps[-1] < gaps[0]:
        gaps = gaps[:-1]
    if len(gaps) < 2:
        raise InsufficientSamples("centered differences need >= 3 evenly spaced samples")
    if uneven(gaps):
        raise InsufficientSamples("centered differences need a uniform cadence")
    return gaps.mean(), len(gaps) + 1


def check_differential(samples, thresholds=None):
    """Verification of the differential relations on three-sample stencils.

    ``energy_dissipation`` measures the integrated identity
    E(t+dt) - E(t-dt) = -int D dt with Simpson's rule for the integral,
    |E_{i+1} - E_{i-1} + (dt/3)(D_{i-1} + 4 D_i + D_{i+1})| / (2 dt D_i),
    so coarse snapshots do not add the O(dt^2) error of a difference
    quotient.  ``dissipation_rate`` bounds (dD/dt + int V_s^2)/(D^{5/2} +
    E D^3) from above and ``distance_rate`` does the same for dH/dt against
    H^{1/2} E^{1/6} D^{7/12}, both with centered differences.  Only
    interior samples enter, so there is no one-sided bias at the
    trajectory ends.
    """
    _check_usable(samples, 3)
    dt, count = _uniform_cadence([s.t for s in samples])

    ee, dd, dh = [], [], []
    for i in range(1, count - 1):
        prev, mid, nxt = samples[i - 1], samples[i], samples[i + 1]
        de = (nxt.E - prev.E) / (2.0 * dt)
        d_simpson = (prev.D + 4.0 * mid.D + nxt.D) / 6.0
        ddis = (nxt.D - prev.D) / (2.0 * dt)
        dhd = (nxt.H - prev.H) / (2.0 * dt)
        ee.append(_ratio(abs(de + d_simpson), mid.D))
        dd.append(_ratio(ddis + mid.intVs2, mid.D**2.5 + mid.E * mid.D**3))
        dh.append(
            _ratio(dhd, np.sqrt(mid.H) * mid.E ** (1.0 / 6.0) * mid.D ** (7.0 / 12.0))
        )
    return _reports(
        {"energy_dissipation": ee, "dissipation_rate": dd, "distance_rate": dh}, thresholds
    )


def check_lyapunov(samples, step_tol=CSV_CHECKS["lyapunov_e2d"][1]):
    """E^2 D must be nonincreasing once it has entered the smallness regime.

    Reports the largest relative step increase after the first sample with
    E^2 D <= :data:`LYAPUNOV_EPSILON`; a flat state (identically zero) is vacuously
    nonincreasing, and a NaN or Inf step fails.
    """
    _check_usable(samples, 2)
    values = np.array([s.E2D for s in samples])
    inside = np.nonzero(values <= LYAPUNOV_EPSILON)[0]
    if len(inside) == 0:
        raise RegimeNeverEntered(
            f"E^2 D never dropped below epsilon = {LYAPUNOV_EPSILON:.3e}"
        )
    tail = values[inside[0]:]
    steps = np.diff(tail) / np.maximum(tail[:-1], RHS_FLOOR)
    worst = float(np.max(steps, initial=0.0))
    passed = bool(np.isfinite(steps).all() and worst <= step_tol)
    return RatioReport("lyapunov_e2d", worst, float(step_tol), passed, len(steps))


def run_named_checks(samples, checks):
    """Evaluate the configured ``(name, threshold)`` checks of
    :data:`CSV_CHECKS`, each family once, and return the reports in the
    order of ``checks``; a Lyapunov check whose regime is never entered is
    reported with ``passed`` None."""
    thresholds = dict(checks)
    families = {CSV_CHECKS[name][0] for name in thresholds}
    reports = []
    if "differential" in families:
        reports += check_differential(samples, thresholds)
    if "algebraic" in families:
        reports += check_algebraic(samples, thresholds)
    if "lyapunov" in families:
        step_tol = thresholds["lyapunov_e2d"]
        try:
            reports.append(check_lyapunov(samples, step_tol=step_tol))
        except RegimeNeverEntered:
            reports.append(RatioReport("lyapunov_e2d", 0.0, step_tol, None, 0))
    by_name = {r.name: r for r in reports}
    return [by_name[name] for name, _ in checks]


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
    t_late = LATE_TIME_FACTOR * h0_norm ** 0.75
    late = [s for s in samples if s.t >= t_late]
    root = np.sqrt(h0_norm)
    ratios = {
        "rate_te": [_ratio(s.t * s.E, h0_norm) for s in samples],
        "rate_h": [_ratio(s.H, h0_norm) for s in samples],
        "rate_t2d": [_ratio(s.t**2 * s.D, h0_norm) for s in late],
        "rate_slope": [_ratio(s.t ** (2.0 / 3.0) * s.sup_slope, root) for s in late],
        "rate_height": [_ratio(s.t ** (1.0 / 3.0) * s.sup_h, root) for s in late],
        "height_he2": [_ratio(s.sup_h, (s.H * s.E**2) ** (1.0 / 6.0)) for s in samples],
    }
    reports = _reports(ratios)
    if late:
        return reports
    return [
        replace(r, passed=None) if r.name in ("rate_t2d", "rate_slope", "rate_height") else r
        for r in reports
    ]


def _lowpass(values, grid, keep_modes):
    coeffs = np.fft.fft(values) / grid.num_points
    m = np.fft.fftfreq(grid.num_points) * grid.num_points
    coeffs[np.abs(m) > keep_modes] = 0.0
    return np.fft.ifft(coeffs * grid.num_points).real


def check_curvature_evolution(traj, strip):
    """Material-derivative identity for the curvature along the flow.

    Along particle paths the curvature obeys Dkappa/dt = -V_ss - kappa^2 V.
    The left side is reconstructed from centered time differences of kappa
    at fixed x plus the convective correction V h_x kappa_x / sqrt(1+h_x^2)
    (grid points travel vertically, particles travel along the normal).
    Both sides are low-pass filtered to the lowest N/8 modes before the
    relative L2 defect is taken, and the largest defect is held to
    :data:`CURVATURE_EVOLUTION_THRESHOLD`.
    """
    dt, count = _uniform_cadence(traj.times)
    grid = traj.states[0].grid
    keep = max(2, grid.num_points // 8)

    defects = []
    for i in range(1, count - 1):
        state = traj.states[i]
        v = exterior_response(state, strip).velocity.samples
        kappa = state.curvature
        kappa_t = (
            traj.states[i + 1].curvature.samples - traj.states[i - 1].curvature.samples
        ) / (2.0 * dt)
        convect = (
            v * state.slope.samples * derivative(kappa, 1).samples / state.line_element
        )
        lhs = kappa_t + convect

        v_s = derivative(SpectralProfile.from_samples(grid, v), 1).samples / state.line_element
        v_ss = derivative(SpectralProfile.from_samples(grid, v_s), 1).samples / state.line_element
        rhs = -v_ss - kappa.samples**2 * v

        lhs_f = _lowpass(lhs, grid, keep)
        rhs_f = _lowpass(rhs, grid, keep)
        scale = np.linalg.norm(rhs_f)
        if scale < RHS_FLOOR:
            continue
        defects.append(np.linalg.norm(lhs_f - rhs_f) / scale)

    return RatioReport.from_ratios("curvature_evolution", defects, CURVATURE_EVOLUTION_THRESHOLD)
