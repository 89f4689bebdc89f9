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
zt = Z*(exp(alpha*eta)-1)/(exp(alpha)-1).  The 9-point operator is applied
as a stencil, never assembled, and inverted by matrix-free GMRES
right-preconditioned with the exact inverse of the flat (h = 0) operator:
an FFT in x leaves one tridiagonal system in eta per mode (Concus & Golub,
SIAM J. Numer. Anal. 10, 1973).  There is no direct factorization.
:func:`exterior_response` is the one place that decides when a state is
solved: at most once per strip, keeping only the normal velocity, the two
dissipation values and the solver statistics on the state.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckFailure, SlopeGateViolation, SolverDivergence, ZeroModeNonzero
from .geometry import sup_slope
from .spectral import SpectralProfile, derivative, graded_depths

#: smallest eigenvalue of a = J^T J at slope 1; positivity floor of the metric
METRIC_EIGENVALUE_FLOOR = (3.0 - np.sqrt(5.0)) / 2.0

#: GMRES stops once the 2-norm residual falls to this fraction of |b|
GMRES_TOLERANCE = 1e-12

#: GMRES iterations after which the strip solve raises SolverDivergence
GMRES_MAX_ITERATIONS = 100

#: factor by which the slowest periodic mode decays across the default strip depth
DEPTH_DECAY = 1e-4


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


def default_strip_config(grid, num_layers=64):
    """Depth chosen so the slowest periodic mode decays below :data:`DEPTH_DECAY`."""
    k_min = 2.0 * np.pi / grid.length
    return StripConfig(float(np.log(1.0 / DEPTH_DECAY) / k_min), num_layers)


class HalfStripField:
    """Solved field on one straightened half-strip.

    ``values`` has shape (num_layers+1, N); row 0 is the boundary data, the
    last row the truncation level.  ``coefficient`` holds the straightening
    metric a(x) = J^T J as an (N, 2, 2) array (the mirrored lower strip
    carries the opposite off-diagonal sign).  ``iterations`` and
    ``residual`` are the GMRES iteration count and the max-norm residual
    of the solve that produced the field.
    """

    __slots__ = ("side", "values", "coefficient", "strip", "grid", "iterations", "residual")

    def __init__(self, side, values, coefficient, strip, grid, iterations=0, residual=0.0):
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
        object.__setattr__(self, "iterations", int(iterations))
        object.__setattr__(self, "residual", float(residual))

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


@lru_cache(maxsize=16)
def _flat_inverse(grid, strip):
    """Exact inverse of the h = 0 operator on the interior levels.

    In x the operator is the periodic second difference, diagonal in the
    discrete Fourier basis with symbol (2 - 2cos(k dx))/dx^2; in eta it is
    tridiagonal with a = 1/J^2, b = alpha/J^2.  Each of the N/2+1 real-FFT
    columns is one tridiagonal system, and one Thomas sweep solves them all.
    The factors depend only on the grid and the strip, so they are built
    once per pair and shared, read-only, by every solve.
    """
    n = grid.num_points
    m = strip.num_layers
    dx = grid.spacing
    deta = 1.0 / m
    jac = strip.jacobian()[1:m, None]
    a = 1.0 / jac**2
    b = strip.alpha / jac**2
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    diag = 2.0 * a / deta**2 + (2.0 - 2.0 * np.cos(k * dx))[None, :] / dx**2
    upper = -a / deta**2 + b / (2.0 * deta)
    lower = -a / deta**2 - b / (2.0 * deta)

    pivot = np.empty_like(diag)  # reciprocal Thomas pivots
    ratio = np.empty_like(diag)  # eliminated upper diagonal, divided by the pivot
    elim = np.zeros_like(diag)  # forward elimination multipliers
    pivot[0] = 1.0 / diag[0]
    ratio[0] = upper[0] * pivot[0]
    for r in range(1, m - 1):
        elim[r] = lower[r] * pivot[r - 1]
        pivot[r] = 1.0 / (diag[r] - lower[r] * ratio[r - 1])
        ratio[r] = upper[r] * pivot[r]
    for factor in (pivot, ratio, elim):
        factor.setflags(write=False)

    def apply(residual):
        y = np.fft.rfft(residual, axis=1)
        for r in range(1, m - 1):
            y[r] -= elim[r] * y[r - 1]
        y *= pivot
        for r in range(m - 3, -1, -1):
            y[r] -= ratio[r] * y[r + 1]
        return np.fft.irfft(y, n, axis=1)

    return apply


def _gmres(operator, precondition, rhs):
    """Right-preconditioned GMRES from zero (Saad & Schultz 1986).

    Modified Gram-Schmidt Arnoldi with Givens rotations on the
    preconditioned operator; stops at a 2-norm residual of
    GMRES_TOLERANCE * |rhs| and returns (solution, iterations).  Zero data
    give exact zeros.
    """
    beta = np.linalg.norm(rhs)
    if beta == 0.0:
        return np.zeros_like(rhs), 0
    cap = GMRES_MAX_ITERATIONS
    basis = np.empty((cap + 1,) + rhs.shape)
    hess = np.zeros((cap + 1, cap))
    cos = np.zeros(cap)
    sin = np.zeros(cap)
    g = np.zeros(cap + 1)
    g[0] = beta
    basis[0] = rhs / beta
    for j in range(cap):
        w = operator(precondition(basis[j]))
        for i in range(j + 1):
            hess[i, j] = np.vdot(basis[i], w)
            w -= hess[i, j] * basis[i]
        norm = np.linalg.norm(w)
        for i in range(j):
            hess[i, j], hess[i + 1, j] = (
                cos[i] * hess[i, j] + sin[i] * hess[i + 1, j],
                cos[i] * hess[i + 1, j] - sin[i] * hess[i, j],
            )
        rho = np.hypot(hess[j, j], norm)
        cos[j], sin[j] = hess[j, j] / rho, norm / rho
        hess[j, j] = rho
        g[j + 1] = -sin[j] * g[j]
        g[j] *= cos[j]
        if abs(g[j + 1]) <= GMRES_TOLERANCE * beta:
            break
        basis[j + 1] = w / norm
    else:
        raise SolverDivergence(
            f"GMRES did not converge in {cap} iterations: "
            f"relative residual {abs(g[cap]) / beta:.3e}"
        )
    k = j + 1
    y = np.linalg.solve(hess[:k, :k], g[:k])
    return precondition(np.tensordot(y, basis[:k], axes=1)), k


def solve_strip(grid, hx_samples, data, strip, side="plus", top_data=None):
    """Matrix-free solve of the straightened problem with prescribed boundary data.

    ``data`` is imposed at zt = 0 and ``top_data`` (default zero) at the
    truncation depth.  The 9-point operator acts as a stencil on the
    interior levels and is inverted by GMRES, right-preconditioned with the
    exact flat-interface inverse (FFT in x, Thomas in eta); no matrix is
    assembled or factorized.  The solve must meet the residual gate
    max|A u - b| <= 1e-8 * max(1, max|b|), and the returned field records
    its iteration count and that residual.  This is the raw kernel behind
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

    jac_i = jac[1:m, None]
    one_hx2 = (1.0 + hx**2)[None, :]
    coef_a = one_hx2 / jac_i**2
    coef_b = s * hxx[None, :] / jac_i + one_hx2 * alpha / jac_i**2
    cross = s * hx[None, :] / (2.0 * jac_i * dx * deta)

    c_center = 2.0 / dx**2 + 2.0 * coef_a / deta**2
    c_ew = -1.0 / dx**2
    c_n = -coef_a / deta**2 + coef_b / (2.0 * deta)
    c_s = -coef_a / deta**2 - coef_b / (2.0 * deta)

    def stencil(full):
        """The operator on the interior rows of an (m+1, N) level array."""
        mid, up, down = full[1:m], full[2:], full[: m - 1]
        across = up - down  # the four corners share one coefficient up to sign
        return (
            c_center * mid
            + c_ew * (np.roll(mid, -1, axis=1) + np.roll(mid, 1, axis=1))
            + c_n * up
            + c_s * down
            + cross * (np.roll(across, -1, axis=1) - np.roll(across, 1, axis=1))
        )

    values = np.zeros((m + 1, n))
    values[0] = data
    if top_data is not None:
        values[m] = top_data
    # Dirichlet neighbours move to the right-hand side
    rhs = -stencil(values)
    interior = np.zeros((m + 1, n))

    def operator(u):
        interior[1:m] = u
        return stencil(interior)

    solution, iterations = _gmres(operator, _flat_inverse(grid, strip), rhs)
    residual = np.abs(operator(solution) - rhs).max()
    if residual > 1e-8 * max(1.0, np.abs(rhs).max()):
        raise SolverDivergence(
            f"elliptic residual {residual:.3e} exceeds tolerance after {iterations} GMRES iterations"
        )
    values[1:m] = solution
    return HalfStripField(side, values, _metric(hx, s), strip, grid, iterations, residual)


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
        fields.append(
            HalfStripField(
                side, values, raw.coefficient, cfg, state.grid, raw.iterations, raw.residual
            )
        )
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


class ExteriorResponse(NamedTuple):
    """What the flow and the diagnostics read from one exterior solve.

    ``velocity`` is the normal speed V, ``boundary`` the pairing
    D_bnd = -integral kappa V ds and ``volume`` the quadrature D_vol of
    |grad f|^2; ``iterations`` and ``residuals`` hold the GMRES iteration
    count and max-norm residual of the (plus, minus) solves.  The field
    arrays themselves are not kept.
    """

    velocity: SpectralProfile
    boundary: float
    volume: float
    iterations: tuple
    residuals: tuple

    @property
    def dissipation(self):
        """D_bnd, after the 2 percent cross-check against D_vol."""
        scale = max(abs(self.volume), abs(self.boundary))
        if scale > 1e-14 and abs(self.volume - self.boundary) > 0.02 * scale:
            raise CrossCheckFailure(
                f"dissipation quadrature {self.volume:.6e} and boundary pairing "
                f"{self.boundary:.6e} differ by more than 2 percent"
            )
        return self.boundary


def _eta_derivative(values, deta):
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


def _simpson_weights(m):
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


def _response(fields, state):
    volume = 0.0
    for field in fields:
        s = 1.0 if field.side == "plus" else -1.0
        strip = field.strip
        m = strip.num_layers
        jac = strip.jacobian()
        fx = _row_x_derivative(field.values, field.grid)
        fzeta = _eta_derivative(field.values, 1.0 / m) / jac[:, None]
        comp1 = fx - s * state.slope.samples[None, :] * fzeta
        density = (comp1**2 + fzeta**2).sum(axis=1) * field.grid.spacing
        # Simpson in eta: dz = J deta with the exact Jacobian of the grading map
        volume += float((_simpson_weights(m) * jac / m) @ density)

    v = normal_velocity(fields, state)
    kappa = state.curvature.samples
    boundary = -float(
        state.grid.spacing * np.sum(kappa * v.samples * state.line_element)
    )
    return ExteriorResponse(
        v,
        boundary,
        volume,
        tuple(field.iterations for field in fields),
        tuple(field.residual for field in fields),
    )


def dissipation(fields, state):
    """Dissipation D = -integral_Gamma kappa V ds over both phases.

    The boundary pairing uses the same one-sided boundary derivative as
    :func:`normal_velocity`, so it is the rate at which the discrete energy
    falls.  In the continuum it equals the Dirichlet energy of the field;
    the volume quadrature of |grad f|^2 in original coordinates (Simpson
    in eta weighted by the exact map Jacobian, fourth-order eta-differences,
    rectangle in x) serves as a cross-check, and a mismatch beyond 2
    percent signals an under-resolved strip.
    """
    return _response(fields, state).dissipation


def exterior_response(state, strip):
    """V, D_bnd and D_vol of a state, from at most one solve per strip.

    The response is kept on the state, keyed by the strip, so the step
    that leaves a state and the diagnostics that read it share one
    :func:`solve_exterior_fields`.  Reading ``.dissipation`` applies the
    cross-check; reading ``.velocity`` does not.
    """
    if strip not in state.exterior:
        state.exterior[strip] = _response(solve_exterior_fields(state, strip), state)
    return state.exterior[strip]


def linear_dtn(profile, mobility):
    """Linearized evolution multiplier: -mobility*|k|^3 per mode."""
    profile.require_mean_zero(ZeroModeNonzero, "linearized operator")
    k = profile.grid.wavenumbers
    return SpectralProfile.from_coeffs(
        profile.grid, -mobility * np.abs(k) ** 3 * profile.coeffs
    )
