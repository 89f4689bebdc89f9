import numpy as np
import pytest

from mslab.diagnostics import RatioReport, _three_point_stencils
from mslab.field import GRADING
from mslab.geometry import build_state, sup_slope
from mslab.spectral import Grid, SpectralProfile, derivative

CURVATURE_EVOLUTION_THRESHOLD = 0.05


def band_limited_profile(grid, rng, max_mode=None, decay=2.0, mean_zero=True):
    """Random smooth profile with exponentially decaying random coefficients
    on the half-spectrum modes 1 .. max_mode."""
    n = grid.num_points
    if max_mode is None:
        max_mode = n // 4
    coeffs = np.zeros(n // 2 + 1, dtype=complex)
    for m in range(1, max_mode + 1):
        coeffs[m] = (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(-decay * m / max_mode)
    if not mean_zero:
        coeffs[0] = rng.standard_normal()
    return SpectralProfile.from_coeffs(grid, coeffs)


def bump_state(n, length=16.0):
    """Gaussian bump of amplitude 0.15 and width 1, mean removed."""
    grid = Grid(length, n)
    h = 0.15 * np.exp(-((grid.nodes - 0.5 * length) ** 2))
    return build_state(SpectralProfile.from_samples(grid, h - h.mean()))


def wavelet_state(n, length=16.0, slope=0.9):
    """Wavelet u e^{-u^2}, mean removed, scaled to sup|h_x| = slope."""
    grid = Grid(length, n)
    u = grid.nodes - 0.5 * length
    h = u * np.exp(-(u**2))
    h -= h.mean()
    scale = slope / sup_slope(build_state(SpectralProfile.from_samples(grid, h)))
    return build_state(SpectralProfile.from_samples(grid, scale * h))


def full_wavenumbers(grid):
    """k_m of the full spectrum, m = -N/2 .. N/2-1 in numpy's fftfreq order,
    built apart from the package's half-spectrum ``Grid.wavenumbers``."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.num_points, d=grid.spacing)


def dft_oracle(samples, grid):
    """Direct-summation discrete transform, independent of numpy.fft's
    transforms: the full spectrum, in the order of :func:`full_wavenumbers`."""
    n = grid.num_points
    x = grid.nodes
    out = np.empty(n, dtype=complex)
    for m_idx, k in enumerate(full_wavenumbers(grid)):
        out[m_idx] = np.sum(samples * np.exp(-1j * k * x)) / n
    return out


def harmonic_extension(g, depths):
    """Harmonic extension of boundary data ``g`` into the half-plane.

    Per-mode Poisson damping ``c_m * exp(-|k_m| z)`` evaluated at each
    requested depth; the zero mode is propagated unchanged.  Returns an
    array of shape ``(len(depths), N)`` whose row i holds the field at
    depth ``depths[i]`` (row 0 of depth 0 is the boundary trace itself).
    """
    depths = np.atleast_1d(np.asarray(depths, dtype=float))
    if np.any(depths < 0):
        raise ValueError("depths must be nonnegative")
    k = np.abs(full_wavenumbers(g.grid))
    damp = np.exp(-np.outer(depths, k))
    return np.fft.ifft(damp * np.fft.fft(g.samples)[None, :], axis=1).real


def strip_levels(strip):
    """Levels zt = Z*expm1(alpha*eta)/expm1(alpha) at eta = i/m of a strip,
    alpha = log(GRADING): the depth map whose derivative
    ``StripConfig.jacobian()`` is."""
    alpha = np.log(GRADING)
    eta = np.arange(strip.num_layers + 1) / strip.num_layers
    return strip.depth * np.expm1(alpha * eta) / np.expm1(alpha)


def simpson_weights(m):
    """Composite Simpson weights on m unit-spaced intervals, with the 3/8
    rule on the last three intervals when m is odd."""
    w = np.zeros(m + 1)
    even = m - 3 * (m % 2)
    w[: even + 1 : 2] = 2.0 / 3.0
    w[1:even:2] = 4.0 / 3.0
    w[0] = w[even] = 1.0 / 3.0
    if m % 2:
        w[even:] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    return w


def eta_derivative(values, deta):
    """Fourth-order d/deta at every level: centered inside, one-sided at
    the two ends and off-centre next to them."""
    f = values
    d = np.empty_like(f)
    d[2:-2] = f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]
    d[0] = -25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]
    d[1] = -3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]
    d[-2] = 3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]
    d[-1] = 25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]
    return d / (12.0 * deta)


def row_x_derivative(values, grid):
    """Spectral d/dx of each row, with the Nyquist mode dropped."""
    n = grid.num_points
    mult = 2j * np.pi * np.fft.rfftfreq(n, d=grid.spacing)
    mult[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(values, axis=1) * mult, n, axis=1)


def strip_volume_dissipation(fields, state):
    """D as the Dirichlet energy of a solved strip pair: the volume
    quadrature of |grad f|^2 over both phases in original coordinates
    (Simpson in eta weighted by the exact map Jacobian, fourth-order
    eta-differences, rectangle in x).  It reads the field in the volume,
    so it is independent of the boundary pairing of
    ``mslab.field.exterior_response``."""
    volume = 0.0
    # the (plus, minus) fields were solved with the slopes (h_x, -h_x)
    for s, field in zip((1.0, -1.0), fields):
        m = field.strip.num_layers
        jac = field.strip.jacobian()
        fx = row_x_derivative(field.values, state.grid)
        fzeta = eta_derivative(field.values, 1.0 / m) / jac[:, None]
        comp1 = fx - s * state.slope.samples[None, :] * fzeta
        density = (comp1**2 + fzeta**2).sum(axis=1) * state.grid.spacing
        volume += float((simpson_weights(m) * jac / m) @ density)
    return volume


def exact_linear_observables(h0, t, mobility):
    """Closed-form Fourier observables of the linearized flow.

    Returns ``(E_lin, D_lin, H0)`` where ``E_lin = || |d/dx| h(t) ||_2^2``,
    ``D_lin = || |d/dx|^{5/2} h(t) ||_2^2`` and ``H0 = sum L |c_m|^2/|k_m|``
    for the initial data.  These are the discrete versions of the scaled
    integrals ``t E = int |t^{1/3}k|^3 exp(-2 mu |t^{1/3}k|^3) |h0|^2/|k|``
    (and exponent 6 for ``t^2 D``), the oracle for the decay-rate checks.
    """
    h0.require_mean_zero("the linear observables")
    k = np.abs(full_wavenumbers(h0.grid))
    nz = k != 0.0
    weight = h0.grid.length * np.abs(np.fft.fft(h0.samples)[nz] / h0.grid.num_points) ** 2
    decay = np.exp(-2.0 * mobility * k[nz] ** 3 * t)
    e_lin = float(np.sum(k[nz] ** 2 * decay * weight))
    d_lin = float(np.sum(k[nz] ** 5 * decay * weight))
    h0_norm = float(np.sum(weight / k[nz]))
    return e_lin, d_lin, h0_norm


def _lowpass(values, grid, keep_modes):
    coeffs = np.fft.fft(values)
    coeffs[np.abs(np.fft.fftfreq(grid.num_points) * grid.num_points) > keep_modes] = 0.0
    return np.fft.ifft(coeffs).real


def check_curvature_evolution(traj):
    """Material-derivative identity for the curvature along the flow.

    Along particle paths the curvature obeys Dkappa/dt = -V_ss - kappa^2 V.
    The left side is reconstructed from the three-point time derivative of
    kappa at fixed x (the stencil of ``check_differential``, on any
    increasing snapshot times) plus the convective correction
    V h_x kappa_x / sqrt(1+h_x^2) (grid points travel vertically,
    particles travel along the normal).
    Both sides are low-pass filtered to the lowest N/8 modes before the
    relative L2 defect is taken, and the largest defect is held to
    :data:`CURVATURE_EVOLUTION_THRESHOLD`.
    """
    time_derivative, _ = _three_point_stencils(traj.times)
    grid = traj.states[0].grid
    keep = max(2, grid.num_points // 8)
    kappa_ts = time_derivative(np.array([state.curvature.samples for state in traj.states]).T).T

    sides = []
    for state, response, kappa_t in zip(traj.states[1:-1], traj.responses[1:-1], kappa_ts):
        v = response.velocity.samples
        kappa, ds = state.curvature, state.line_element
        lhs = kappa_t + v * state.slope.samples * derivative(kappa, 1).samples / ds
        v_s = derivative(SpectralProfile.from_samples(grid, v), 1).samples / ds
        v_ss = derivative(SpectralProfile.from_samples(grid, v_s), 1).samples / ds
        rhs = -v_ss - kappa.samples**2 * v
        lhs_f, rhs_f = _lowpass(lhs, grid, keep), _lowpass(rhs, grid, keep)
        sides.append((np.linalg.norm(lhs_f - rhs_f), np.linalg.norm(rhs_f)))

    defect, scale = np.reshape(sides, (-1, 2)).T
    return RatioReport.from_sides(
        "curvature_evolution", defect, scale, CURVATURE_EVOLUTION_THRESHOLD, traj.times[1:-1]
    )


def dense_arclength(state, q):
    """Arclength profile of q by explicit O(N^2) sums, independent of numpy.fft.

    s(x) is the antiderivative of the line element summed mode by mode, and
    c_m = (dx/S) sum_l q(x_l) sqrt(1+h_x^2)(x_l) e^{-i k_m s(x_l)} runs over
    every mode and node of the full spectrum; ``SpectralProfile.from_coeffs``
    keeps the modes 0 .. N/2 and the real part of the Nyquist mode.
    """
    grid = state.grid
    n = grid.num_points
    x = grid.nodes
    le = state.line_element
    k = full_wavenumbers(grid)
    c = np.exp(-1j * np.outer(k, x)) @ le / n
    paired = (k != 0.0) & (np.arange(n) != n // 2)
    anti = c[paired] / (1j * k[paired])
    s = c[0].real * x + ((np.exp(1j * np.outer(x, k[paired])) - 1.0) @ anti).real
    arc = Grid(grid.spacing * np.sum(le), n)
    weights = (grid.spacing / arc.length) * q.samples * le
    half = np.abs(full_wavenumbers(arc)[: n // 2 + 1])
    return SpectralProfile.from_coeffs(arc, np.exp(-1j * np.outer(half, s)) @ weights)


def panel_sweep_H(state):
    """Squared distance H by the per-panel carry loop, the reference for
    the blocked sweep of ``mslab.diagnostics.compute_H``.

    Same closed-form panel integrals and the same decay recursion for the
    carry, but written out independently: the whole (panels x modes)
    arrays are built at once, the active columns come from the interval
    between min(h, 0) and max(h, 0), and the same-panel and cross-panel
    sums are kept apart in their own units.
    """
    h = state.h
    samples = h.samples
    n = h.grid.num_points
    if np.all(samples == 0.0):
        return 0.0

    lo = np.minimum(samples, 0.0)
    hi = np.maximum(samples, 0.0)
    breaks = np.unique(np.concatenate(([0.0], samples)))
    widths = np.diff(breaks)
    keep = widths > 0.0
    z_lo = breaks[:-1][keep]
    widths = widths[keep]
    centers = z_lo + 0.5 * widths

    # chi = -sign(h) on the interval between 0 and h(x), sampled per column
    active = (centers[:, None] > lo[None, :]) & (centers[:, None] < hi[None, :])
    strength = np.where(active, -np.sign(samples)[None, :], 0.0)
    chat = np.fft.rfft(strength, axis=1) / n  # (panels, n//2+1)

    k_pos = 2.0 * np.pi * np.arange(1, n // 2 + 1) / h.grid.length
    decay = np.exp(-np.outer(widths, k_pos))  # exp(-k * panel width)

    # same-panel double integral of exp(-k|z-z'|): 2*(w/k - (1-e^{-kw})/k^2)
    same = 2.0 * (widths[:, None] / k_pos[None, :] - (1.0 - decay) / k_pos[None, :] ** 2)
    modal = np.sum(np.abs(chat[:, 1:]) ** 2 * same, axis=0)

    # cross panels via a cumulative sweep: panels are sorted, so the gap
    # factors accumulate as products of per-panel decays
    carry = np.zeros(n // 2, dtype=complex)
    cross = np.zeros(n // 2)
    for p in range(len(widths)):
        c_p = chat[p, 1:]
        one_minus = 1.0 - decay[p]
        cross += 2.0 * (c_p * carry).real * one_minus / k_pos**2
        carry = decay[p] * carry + np.conj(c_p) * one_minus

    per_mode = (modal + cross) / (2.0 * k_pos)
    pair_weight = np.full(n // 2, 2.0)
    pair_weight[-1] = 1.0  # the unpaired -N/2 mode counts once
    total = float(np.sum(pair_weight * per_mode))

    # zero mode: Phi' is piecewise linear with slope -chi_0 per panel
    chi0 = strength.mean(axis=1)
    phi_prime = np.concatenate(([0.0], np.cumsum(-chi0 * widths)))
    a = phi_prime[:-1]
    b = phi_prime[1:]
    total += float(np.sum(widths * (a * a + a * b + b * b) / 3.0))

    return max(h.grid.length * total, 0.0)


def poisson_box_energy(state, n_x=128, n_z=768, z_half=None):
    """2-d finite-difference Poisson oracle for the squared distance H.

    Solves -Laplace(phi) = chi on the periodic-in-x cell with Dirichlet
    walls at z = +-z_half using the 5-point stencil, and returns the
    integral of chi*phi.  Fully independent of the spectral Green's
    function evaluation in the package.
    """
    import scipy.sparse as sparse
    import scipy.sparse.linalg as spla

    grid = state.grid
    length = grid.length
    if z_half is None:
        z_half = 0.5 * length
    dx = length / n_x
    dz = 2.0 * z_half / n_z
    x = dx * np.arange(n_x)
    z = -z_half + dz * np.arange(1, n_z)
    h_at = state.h.evaluate(x)

    lo = np.minimum(h_at, 0.0)
    hi = np.maximum(h_at, 0.0)
    sgn = -np.sign(h_at)
    z_lo = z[None, :] - 0.5 * dz
    z_hi = z[None, :] + 0.5 * dz
    overlap = np.clip(np.minimum(z_hi, hi[:, None]) - np.maximum(z_lo, lo[:, None]), 0.0, None)
    chi = sgn[:, None] * overlap / dz  # (n_x, n_z-1)

    n_unknown = n_x * (n_z - 1)
    idx = np.arange(n_unknown).reshape(n_x, n_z - 1)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, r.shape).ravel())

    add(idx, idx, 2.0 / dx**2 + 2.0 / dz**2)
    add(idx, np.roll(idx, 1, axis=0), -1.0 / dx**2)
    add(idx, np.roll(idx, -1, axis=0), -1.0 / dx**2)
    add(idx[:, 1:], idx[:, :-1], -1.0 / dz**2)
    add(idx[:, :-1], idx[:, 1:], -1.0 / dz**2)
    matrix = sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_unknown, n_unknown),
    )
    rhs = chi.ravel()
    phi = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    return float(np.sum(chi.ravel() * phi) * dx * dz)


@pytest.fixture
def rng():
    return np.random.default_rng(20170)
