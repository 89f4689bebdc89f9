"""Two-phase exterior problem for the interface potential.

The harmonic field f (Laplace off the interface, f = curvature on it) is
computed after straightening each phase onto a half-strip with the change
of variable zt = z - h(x).  The straightened operator is the uniformly
elliptic -div(a grad f) with a = J^T J, J = [[1, -h_x], [0, 1]]; the lower
phase is mirrored onto zt >= 0, which flips the sign of the off-diagonal
coupling.  The strip is truncated at depth Z with a homogeneous Dirichlet
condition on the decaying part of the field; the x-mean of the boundary
data extends as a constant (its half-plane harmonic extension) and is
added back after the solve.

Discretization: second-order finite differences on a tensor grid, periodic
in x, geometrically graded toward zt = 0 through the smooth map
zt = Z*(exp(alpha*eta)-1)/(exp(alpha)-1), solved with a sparse direct
factorization.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import CrossCheckFailure, SlopeGateViolation, SolverDivergence, ZeroModeNonzero
from .geometry import sup_slope
from .spectral import SpectralProfile, derivative, graded_depths

#: smallest eigenvalue of a = J^T J at slope 1; positivity floor of the metric
METRIC_EIGENVALUE_FLOOR = (3.0 - np.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class StripConfig:
    """Truncated half-strip: depth, number of layers, geometric grading.

    ``grading`` is the total growth factor of the layer thicknesses across
    the strip (1 = uniform); successive thicknesses form an exact geometric
    progression.
    """

    depth: float
    num_layers: int
    grading: float = 32.0

    def __post_init__(self):
        if self.depth <= 0:
            raise ValueError("strip depth must be positive")
        if self.num_layers < 16:
            raise ValueError("need at least 16 layers")
        if self.grading < 1.0:
            raise ValueError("grading must be >= 1")

    @property
    def alpha(self):
        return np.log(self.grading)

    def levels(self):
        return graded_depths(self.depth, self.num_layers, self.grading)

    def jacobian(self):
        """dz/deta at the levels of the smooth grading map."""
        eta = np.arange(self.num_layers + 1) / self.num_layers
        if self.grading == 1.0:
            return np.full(self.num_layers + 1, self.depth)
        return self.depth * self.alpha * np.exp(self.alpha * eta) / np.expm1(self.alpha)


def default_strip_config(grid, num_layers=64, grading=32.0, decay_target=1e-4):
    """Depth chosen so the slowest periodic mode decays below ``decay_target``."""
    k_min = 2.0 * np.pi / grid.length
    return StripConfig(float(np.log(1.0 / decay_target) / k_min), num_layers, grading)


class HalfStripField:
    """Solved field on one straightened half-strip.

    ``values`` has shape (num_layers+1, N); row 0 is the boundary data, the
    last row the truncation level.  ``coefficient`` holds the straightening
    metric a(x) = J^T J as an (N, 2, 2) array (the mirrored lower strip
    carries the opposite off-diagonal sign).
    """

    __slots__ = ("side", "values", "coefficient", "strip", "grid")

    def __init__(self, side, values, coefficient, strip, grid):
        if side not in ("plus", "minus"):
            raise ValueError("side must be 'plus' or 'minus'")
        values = np.ascontiguousarray(values, dtype=float)
        coefficient = np.ascontiguousarray(coefficient, dtype=float)
        values.setflags(write=False)
        coefficient.setflags(write=False)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "strip", strip)
        object.__setattr__(self, "grid", grid)

    def __setattr__(self, name, value):
        raise AttributeError("HalfStripField is immutable")


def _metric(hx, side_sign):
    n = hx.shape[0]
    a = np.empty((n, 2, 2))
    a[:, 0, 0] = 1.0
    a[:, 0, 1] = -side_sign * hx
    a[:, 1, 0] = -side_sign * hx
    a[:, 1, 1] = 1.0 + hx**2
    return a


def solve_strip(grid, hx_samples, data, strip, side="plus", top_data=None):
    """Direct solve of the straightened problem with prescribed boundary data.

    ``data`` is imposed at zt = 0 and ``top_data`` (default zero) at the
    truncation depth.  This is the raw kernel behind
    :func:`solve_exterior_fields`; tests drive it with synthetic data.
    """
    n = grid.num_points
    m = strip.num_layers
    s = 1.0 if side == "plus" else -1.0
    hx = np.asarray(hx_samples, dtype=float)
    data = np.asarray(data, dtype=float)
    hxx = derivative(SpectralProfile.from_samples(grid, hx), 1).samples
    dx = grid.spacing
    deta = 1.0 / m
    jac = strip.jacobian()
    alpha = strip.alpha

    i_idx = np.arange(1, m)
    jac_i = jac[i_idx][:, None]
    one_hx2 = (1.0 + hx**2)[None, :]
    coef_a = one_hx2 / jac_i**2
    coef_b = s * hxx[None, :] / jac_i + one_hx2 * alpha / jac_i**2
    cross = s * hx[None, :] / (2.0 * jac_i * dx * deta)

    c_center = 2.0 / dx**2 + 2.0 * coef_a / deta**2
    c_ew = np.full((m - 1, n), -1.0 / dx**2)
    c_n = -coef_a / deta**2 + coef_b / (2.0 * deta)
    c_s = -coef_a / deta**2 - coef_b / (2.0 * deta)

    rows_i, cols_j = np.meshgrid(np.arange(m - 1), np.arange(n), indexing="ij")
    row_id = (rows_i * n + cols_j).ravel()

    entries_r = []
    entries_c = []
    entries_v = []
    rhs = np.zeros((m - 1) * n)
    if top_data is None:
        top_data = np.zeros(n)
    else:
        top_data = np.asarray(top_data, dtype=float)

    def add(di, dj, val):
        ii = rows_i + di
        jj = (cols_j + dj) % n
        inside = (ii >= 0) & (ii <= m - 2)
        entries_r.append(row_id[inside.ravel()])
        entries_c.append((ii[inside] * n + jj[inside]).ravel())
        entries_v.append(val[inside].ravel())
        # Dirichlet neighbours move to the right-hand side
        bottom = ii == -1
        if bottom.any():
            rhs[row_id[bottom.ravel()]] -= val[bottom] * data[jj[bottom]]
        top = ii == m - 1
        if top.any():
            rhs[row_id[top.ravel()]] -= val[top] * top_data[jj[top]]

    add(0, 0, c_center)
    add(0, 1, c_ew)
    add(0, -1, c_ew)
    add(1, 0, c_n)
    add(-1, 0, c_s)
    add(1, 1, cross)
    add(1, -1, -cross)
    add(-1, 1, -cross)
    add(-1, -1, cross)

    matrix = sparse.csc_matrix(
        (np.concatenate(entries_v), (np.concatenate(entries_r), np.concatenate(entries_c))),
        shape=((m - 1) * n, (m - 1) * n),
    )
    try:
        solution = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    except RuntimeError as exc:  # singular factorization
        raise SolverDivergence(f"sparse factorization failed: {exc}") from exc
    residual = np.abs(matrix @ solution - rhs).max()
    if residual > 1e-8 * max(1.0, np.abs(rhs).max()):
        raise SolverDivergence(f"elliptic residual {residual:.3e} exceeds tolerance")

    values = np.empty((m + 1, n))
    values[0] = data
    values[1:m] = solution.reshape(m - 1, n)
    values[m] = top_data
    return HalfStripField(side, values, _metric(hx, s), strip, grid)


def solve_exterior_fields(state, cfg):
    """Solve both half-strips with the curvature as Dirichlet data.

    The x-mean of the curvature extends harmonically as a constant, so it
    is split off, the decaying remainder is solved with the truncation
    condition, and the constant is added back; the boundary row of each
    returned field equals the curvature samples exactly.
    """
    if sup_slope(state) > 1.0:
        raise SlopeGateViolation(
            f"exterior solve requires sup|h_x| <= 1, got {sup_slope(state):.6f}"
        )
    kappa = state.curvature.samples
    mean = kappa.mean()
    hx = state.slope.samples
    fields = []
    for side in ("plus", "minus"):
        raw = solve_strip(state.grid, hx, kappa - mean, cfg, side=side)
        values = raw.values + mean
        values[0] = kappa
        fields.append(HalfStripField(side, values, raw.coefficient, cfg, state.grid))
    return fields[0], fields[1]


def _eta_derivative_at_boundary(values, strip):
    """Second-order one-sided d/dzt at zt = 0."""
    m = strip.num_layers
    deta = 1.0 / m
    f_eta = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * deta)
    return f_eta / strip.jacobian()[0]


def normal_velocity(fields, state):
    """Jump-based normal speed V = -[grad f . n] on the interface.

    In straightened coordinates the tangential contributions of the two
    sides cancel and V = sqrt(1+h_x^2) * (df/dzt|_+ + dg/dw|_-) with
    one-sided second-order stencils at the boundary row.  The result is
    mean-zero up to discretization error (mass conservation).
    """
    plus, minus = fields
    d_plus = _eta_derivative_at_boundary(plus.values, plus.strip)
    d_minus = _eta_derivative_at_boundary(minus.values, minus.strip)
    v = state.line_element * (d_plus + d_minus)
    return SpectralProfile.from_samples(state.grid, v)


def _row_x_derivative(values, grid):
    k = grid.wavenumbers.copy()
    mult = 1j * k
    mult[grid.num_points // 2] = 0.0
    return np.fft.ifft(np.fft.fft(values, axis=1) * mult[None, :], axis=1).real


def dissipation(fields, state):
    """Dissipation D = -integral_Gamma kappa V ds over both phases.

    The boundary pairing uses the same one-sided boundary derivative as
    :func:`normal_velocity`, so it is the rate at which the discrete energy
    falls.  In the continuum it equals the Dirichlet energy of the field;
    the volume quadrature of |grad f|^2 in original coordinates (trapezoid
    in depth, rectangle in x) serves as a cross-check, and a mismatch
    beyond 2 percent signals an under-resolved strip.
    """
    volume = 0.0
    for field in fields:
        s = 1.0 if field.side == "plus" else -1.0
        strip = field.strip
        m = strip.num_layers
        jac = strip.jacobian()
        fx = _row_x_derivative(field.values, field.grid)
        fzeta = np.empty_like(field.values)
        deta = 1.0 / m
        fzeta[0] = _eta_derivative_at_boundary(field.values, strip)
        fzeta[1:m] = (field.values[2:] - field.values[:-2]) / (2.0 * deta)
        fzeta[m] = (3.0 * field.values[m] - 4.0 * field.values[m - 1] + field.values[m - 2]) / (2.0 * deta)
        fzeta[1:] /= jac[1:, None]
        comp1 = fx - s * state.slope.samples[None, :] * fzeta
        density = (comp1**2 + fzeta**2).sum(axis=1) * field.grid.spacing
        z = strip.levels()
        weights = np.empty(m + 1)
        weights[0] = 0.5 * (z[1] - z[0])
        weights[1:m] = 0.5 * (z[2:] - z[:-2])
        weights[m] = 0.5 * (z[m] - z[m - 1])
        volume += float(weights @ density)

    v = normal_velocity(fields, state)
    kappa = state.curvature.samples
    boundary = -float(
        state.grid.spacing * np.sum(kappa * v.samples * state.line_element)
    )
    scale = max(abs(volume), abs(boundary))
    if scale > 1e-14 and abs(volume - boundary) > 0.02 * scale:
        raise CrossCheckFailure(
            f"dissipation quadrature {volume:.6e} and boundary pairing "
            f"{boundary:.6e} differ by more than 2 percent"
        )
    return boundary


def linear_dtn(profile, mobility):
    """Linearized evolution multiplier: -mobility*|k|^3 per mode."""
    profile.require_mean_zero(ZeroModeNonzero, "linearized operator")
    k = profile.grid.wavenumbers
    return SpectralProfile.from_coeffs(
        profile.grid, -mobility * np.abs(k) ** 3 * profile.coeffs
    )
