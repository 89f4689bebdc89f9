import numpy as np
import pytest

from mslab.geometry import build_state, sup_slope
from mslab.spectral import Grid, SpectralProfile


def band_limited_profile(grid, rng, max_mode=None, decay=2.0, mean_zero=True):
    """Random smooth profile with exponentially decaying random coefficients."""
    n = grid.num_points
    if max_mode is None:
        max_mode = n // 4
    coeffs = np.zeros(n, dtype=complex)
    for m in range(1, max_mode + 1):
        c = (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(-decay * m / max_mode)
        coeffs[m] = c
        coeffs[n - m] = np.conj(c)
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


def dft_oracle(samples, grid):
    """Direct-summation discrete transform, independent of numpy.fft."""
    n = grid.num_points
    x = grid.nodes
    out = np.empty(n, dtype=complex)
    for m_idx, k in enumerate(grid.wavenumbers):
        out[m_idx] = np.sum(samples * np.exp(-1j * k * x)) / n
    return out


def dense_arclength(state, q):
    """Arclength profile of q by explicit O(N^2) sums, independent of numpy.fft.

    s(x) is the antiderivative of the line element summed mode by mode, and
    c_m = (dx/S) sum_l q(x_l) sqrt(1+h_x^2)(x_l) e^{-i k_m s(x_l)} runs over
    every mode and node.  The coefficients get the Hermitian projection of
    ``SpectralProfile.from_coeffs``, the unpaired -N/2 mode included.
    """
    grid = state.grid
    n = grid.num_points
    x = grid.nodes
    le = state.line_element
    k = grid.wavenumbers
    c = np.exp(-1j * np.outer(k, x)) @ le / n
    paired = (k != 0.0) & (np.arange(n) != n // 2)
    anti = c[paired] / (1j * k[paired])
    s = c[0].real * x + ((np.exp(1j * np.outer(x, k[paired])) - 1.0) @ anti).real
    arc = Grid(grid.spacing * np.sum(le), n)
    weights = (grid.spacing / arc.length) * q.samples * le
    return SpectralProfile.from_coeffs(arc, np.exp(-1j * np.outer(arc.wavenumbers, s)) @ weights)


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
