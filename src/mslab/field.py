"""Two-phase exterior problem for the interface potential.

The harmonic field f (Laplace off the interface, f = curvature on it) is
computed after straightening each phase onto a half-strip with the change
of variable zt = z - h(x).  The straightened operator is the uniformly
elliptic -div(a grad f) with a = J^T J, J = [[1, -h_x], [0, 1]].  The
lower phase is the upper phase of the mirrored interface -h, so one
half-strip problem, solved with the slopes h_x and -h_x, serves both.  The
strip is truncated at depth Z, where the field takes the x-mean of the
boundary data as Dirichlet data: that constant is its own half-plane
harmonic extension, and the decaying remainder vanishes there.

Discretization: second-order finite differences on a tensor grid, periodic
in x, geometrically graded toward zt = 0 through the smooth map
zt = Z*(exp(alpha*eta)-1)/(exp(alpha)-1) of :class:`StripConfig`, whose
Jacobian gives the one set of eta-coefficients (:func:`_eta_coefficients`)
that the operator and its preconditioner share.  The 9-point operator is applied
as a stencil, never assembled, and inverted by matrix-free GMRES
right-preconditioned with the exact inverse of the flat (h = 0) operator:
an FFT in x and the eigenvectors of the tridiagonal eta-operator
diagonalise it (fast diagonalisation; Lynch, Rice & Thomas, Numer. Math.
6, 1964).  There is no direct factorization.
:func:`exterior_response` is the one place that decides when a state is
solved: at most once per strip, keeping only the normal velocity, the two
dissipation values and the solver statistics on the state.  A stepping
loop may pass it a :class:`FieldHistory`; GMRES then starts from the
linear extrapolation of the fields of the last two solved states (Fischer,
Comput. Methods Appl. Mech. Engrg. 163, 1998) and stops at the same
absolute residual as from zero.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckFailure, SlopeGateViolation, SolverDivergence
from .geometry import sup_slope
from .spectral import SpectralProfile, derivative

#: GMRES stops once the 2-norm residual falls to this fraction of |b|
GMRES_TOLERANCE = 1e-12

#: GMRES iterations after which the strip solve raises SolverDivergence
GMRES_MAX_ITERATIONS = 100

#: factor by which the slowest periodic mode decays across the default strip depth
DEPTH_DECAY = 1e-4


@dataclass(frozen=True)
class StripConfig:
    """Truncated half-strip: depth, number of layers, geometric grading.

    The levels are zt = Z*(exp(alpha*eta)-1)/(exp(alpha)-1) at eta = i/m
    with alpha = log(grading), so successive layer thicknesses form an exact
    geometric progression and ``grading`` is the growth of the Jacobian
    dzt/deta across the strip (1 = uniform).
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
        if np.log(self.grading) >= 2 * self.num_layers:
            # the eta-stencil's coefficient of the level above would turn nonnegative
            raise ValueError("grading must satisfy log(grading) < 2*num_layers")

    @property
    def alpha(self):
        return np.log(self.grading)

    def _graded_map(self):
        """(zt, dzt/deta) at the levels; grading 1 is the uniform limit."""
        eta = np.arange(self.num_layers + 1) / self.num_layers
        if self.grading == 1.0:
            return self.depth * eta, np.full(self.num_layers + 1, self.depth)
        growth = np.expm1(self.alpha)
        return (
            self.depth * np.expm1(self.alpha * eta) / growth,
            self.depth * self.alpha * np.exp(self.alpha * eta) / growth,
        )

    def levels(self):
        return self._graded_map()[0]

    def jacobian(self):
        return self._graded_map()[1]


def default_strip_config(grid, num_layers=64):
    """Depth chosen so the slowest periodic mode decays below :data:`DEPTH_DECAY`."""
    k_min = 2.0 * np.pi / grid.length
    return StripConfig(float(np.log(1.0 / DEPTH_DECAY) / k_min), num_layers)


class HalfStripField(NamedTuple):
    """Solved field on one straightened upper half-strip.

    ``values`` has shape (num_layers+1, N) and is read-only; row 0 is the
    boundary data, the last row the truncation level.  ``iterations`` and
    ``residual`` are the GMRES iteration count and the max-norm residual
    of the solve that produced the field.
    """

    values: np.ndarray
    strip: StripConfig
    iterations: int
    residual: float


def _eta_coefficients(strip):
    """1/J, a = 1/J^2 and b = alpha/J^2 on the interior levels, as columns.

    With J = dzt/deta and J' = alpha J, d/dzt = (1/J) d/deta and
    -d2/dzt2 = -a d2/deta2 + b d/deta: the eta-part of the flat operator.
    """
    jac = strip.jacobian()[1:-1, None]
    return 1.0 / jac, 1.0 / jac**2, strip.alpha / jac**2


@lru_cache(maxsize=16)
def _flat_inverse(grid, strip):
    """Exact inverse of the h = 0 operator on the interior levels.

    In x the operator is the periodic second difference, diagonal in the
    discrete Fourier basis with symbol (2 - 2cos(k dx))/dx^2; in eta it is
    the tridiagonal T of :func:`_eta_coefficients`.  Each pair of
    off-diagonals of T has a positive product (:class:`StripConfig` keeps
    log(grading) < 2 num_layers), so T = D Q diag(lam) Q^T D^-1 with D
    diagonal and Q, lam the eigenvectors and eigenvalues of the symmetric
    tridiagonal D^-1 T D (fast diagonalisation; Lynch, Rice & Thomas,
    Numer. Math. 6, 1964).  An apply is one real matmul by Q^T D^-1, an
    FFT in x, a division by lam + symbol, the inverse FFT and a matmul by
    D Q.  The factors depend only on the grid and the strip, so they are
    built once per pair and shared, read-only, by every solve.
    """
    n = grid.num_points
    m = strip.num_layers
    dx = grid.spacing
    deta = 1.0 / m
    _, a, b = _eta_coefficients(strip)
    a, b = a[:, 0], b[:, 0]
    upper = -a / deta**2 + b / (2.0 * deta)  # coefficient of the level above
    lower = -a / deta**2 - b / (2.0 * deta)  # coefficient of the level below
    # D^-1 T D is symmetric when (d_{i+1}/d_i)^2 = lower_{i+1}/upper_i
    d = np.concatenate(([1.0], np.cumprod(np.sqrt(lower[1:] / upper[:-1]))))
    off = -np.sqrt(upper[:-1] * lower[1:])
    lam, q = np.linalg.eigh(np.diag(2.0 * a / deta**2) + np.diag(off, 1) + np.diag(off, -1))
    to_modes = q.T / d[None, :]
    from_modes = d[:, None] * q
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    inv_symbol = 1.0 / (lam[:, None] + (2.0 - 2.0 * np.cos(k * dx))[None, :] / dx**2)
    for factor in (to_modes, from_modes, inv_symbol):
        factor.setflags(write=False)

    def apply(residual):
        y = np.fft.rfft(to_modes @ residual, axis=1)
        y *= inv_symbol
        return from_modes @ np.fft.irfft(y, n, axis=1)

    return apply


def _gmres(operator, precondition, rhs, guess=None):
    """Right-preconditioned GMRES (Saad & Schultz 1986), started from ``guess``.

    Modified Gram-Schmidt Arnoldi with Givens rotations on the
    preconditioned operator, applied to the residual of the guess; returns
    (guess + P(sum y_i v_i), iterations).  It stops at the absolute target
    |r| <= GMRES_TOLERANCE * |rhs|, so the accuracy does not depend on the
    guess.  A guess whose residual is not below |rhs| is dropped and the
    solve starts from zero; zero data give exact zeros in 0 iterations
    whatever the guess.
    """
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0
    target = GMRES_TOLERANCE * rhs_norm
    cap = GMRES_MAX_ITERATIONS
    basis = np.empty((cap + 1,) + rhs.shape)
    basis[0] = rhs
    if guess is not None:
        np.subtract(rhs, operator(guess), out=basis[1])
        if np.linalg.norm(basis[1]) < rhs_norm:
            basis[0] = basis[1]
        else:
            guess = None
    beta = np.linalg.norm(basis[0])
    if beta <= target:  # only a guess can start at the target
        return guess.astype(rhs.dtype), 0
    basis[0] /= beta
    hess = np.zeros((cap + 1, cap))
    cos = np.zeros(cap)
    sin = np.zeros(cap)
    g = np.zeros(cap + 1)
    g[0] = beta
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
        if abs(g[j + 1]) <= target:
            break
        basis[j + 1] = w / norm
    else:
        raise SolverDivergence(
            f"GMRES did not converge in {cap} iterations: "
            f"relative residual {abs(g[cap]) / rhs_norm:.3e}"
        )
    k = j + 1
    y = np.linalg.solve(hess[:k, :k], g[:k])
    solution = precondition(np.tensordot(y, basis[:k], axes=1))
    if guess is not None:
        solution += guess
    return solution, k


def solve_strip(grid, hx_samples, data, strip, top_data=None, guess=None):
    """Matrix-free solve of the straightened problem with prescribed boundary data.

    The field lives above the interface of slope ``hx_samples``; the phase
    below is the same problem for the slope -h_x.  ``data`` is imposed at
    zt = 0 and ``top_data`` (default zero) at the truncation depth.  The
    9-point operator acts as a stencil on the interior levels and is
    inverted by GMRES, right-preconditioned with the exact flat-interface
    inverse (FFT in x, eigenvectors in eta); no matrix is assembled or
    factorized.  ``guess``, an (num_layers-1, N) array of interior values,
    is where GMRES starts; it changes the iteration count, not the target.
    The solve must meet the residual gate max|A u - b| <= 1e-8 * max(1,
    max|b|), and the returned field records its iteration count and that
    residual.  This is the raw kernel behind :func:`solve_exterior_fields`;
    tests drive it with synthetic data.
    """
    n = grid.num_points
    m = strip.num_layers
    hx = np.asarray(hx_samples, dtype=float)
    data = np.asarray(data, dtype=float)
    hxx = derivative(SpectralProfile.from_samples(grid, hx), 1).samples
    dx = grid.spacing
    deta = 1.0 / m
    # the flat coefficients scaled by 1 + h_x^2, plus the h_xx d/dzt term
    inv_jac, a, b = _eta_coefficients(strip)
    one_hx2 = (1.0 + hx**2)[None, :]
    coef_a = one_hx2 * a
    coef_b = hxx[None, :] * inv_jac + one_hx2 * b
    cross = hx[None, :] * inv_jac / (2.0 * dx * deta)

    c_center = 2.0 / dx**2 + 2.0 * coef_a / deta**2
    c_ew = -1.0 / dx**2
    c_n = -coef_a / deta**2 + coef_b / (2.0 * deta)
    c_s = -coef_a / deta**2 - coef_b / (2.0 * deta)

    def stencil(full):
        """The operator on the interior rows of an (m+1, N+2) level array
        whose first and last columns repeat the periodic neighbours."""
        across = full[2:] - full[: m - 1]  # the four corners share one coefficient up to sign
        return (
            c_center * full[1:m, 1:-1]
            + c_ew * (full[1:m, 2:] + full[1:m, :-2])
            + c_n * full[2:, 1:-1]
            + c_s * full[: m - 1, 1:-1]
            + cross * (across[:, 2:] - across[:, :-2])
        )

    values = np.zeros((m + 1, n))
    values[0] = data
    if top_data is not None:
        values[m] = top_data
    # Dirichlet neighbours move to the right-hand side
    rhs = -stencil(np.pad(values, ((0, 0), (1, 1)), mode="wrap"))
    interior = np.zeros((m + 1, n + 2))

    def operator(u):
        interior[1:m, 1:-1] = u
        interior[1:m, 0] = u[:, -1]
        interior[1:m, -1] = u[:, 0]
        return stencil(interior)

    solution, iterations = _gmres(operator, _flat_inverse(grid, strip), rhs, guess)
    residual = np.abs(operator(solution) - rhs).max()
    if residual > 1e-8 * max(1.0, np.abs(rhs).max()):
        raise SolverDivergence(
            f"elliptic residual {residual:.3e} exceeds tolerance after {iterations} GMRES iterations"
        )
    values[1:m] = solution
    values.setflags(write=False)
    return HalfStripField(values, strip, iterations, float(residual))


def solve_exterior_fields(state, strip, guesses=(None, None)):
    """Solve the (upper, lower) phases, :func:`solve_strip` with the
    slopes (h_x, -h_x), with the curvature as Dirichlet data.

    The x-mean of the curvature extends harmonically as a constant, so it
    is the data at the truncation depth; a constant solves the discrete
    operator exactly, and the boundary row of each field equals the
    curvature samples exactly.  ``guesses`` holds the (plus, minus) GMRES
    starts of :func:`solve_strip`.
    """
    if sup_slope(state) > 1.0:
        raise SlopeGateViolation(
            f"exterior solve requires sup|h_x| <= 1, got {sup_slope(state):.6f}"
        )
    hx = state.slope.samples
    kappa = state.curvature.samples
    top = np.full(state.grid.num_points, kappa.mean())
    return tuple(
        solve_strip(state.grid, slope, kappa, strip, top, guess)
        for slope, guess in zip((hx, -hx), guesses)
    )


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
    # the (plus, minus) fields were solved with the slopes (h_x, -h_x)
    for s, field in zip((1.0, -1.0), fields):
        strip = field.strip
        m = strip.num_layers
        jac = strip.jacobian()
        fx = _row_x_derivative(field.values, state.grid)
        fzeta = _eta_derivative(field.values, 1.0 / m) / jac[:, None]
        comp1 = fx - s * state.slope.samples[None, :] * fzeta
        density = (comp1**2 + fzeta**2).sum(axis=1) * state.grid.spacing
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


class FieldHistory:
    """The interior fields of the last two solved states, per side.

    A stepping loop owns one history and hands it to
    :func:`exterior_response`, which starts each solve from
    :meth:`guesses` and then :meth:`record`s the new fields.  Two buffers
    per side are rotated in place: the extrapolation 2 u_n - u_{n-1} is
    written over u_{n-1}, and the next record copies the new field into
    that same buffer, so after the second step nothing is allocated.  The
    buffers are single precision: a start needs no more, since the
    extrapolation error lies far above their rounding and GMRES corrects
    to the same absolute target, and they halve what the history adds to
    the peak memory of a run.
    """

    def __init__(self):
        self._pairs = []  # (plus, minus) interior fields, oldest first
        self._spare = None  # the buffers that hold the current extrapolation

    def guesses(self):
        """(plus, minus) GMRES starts: none, the last fields, or their
        linear extrapolation from the last two."""
        if not self._pairs:
            return (None, None)
        if len(self._pairs) == 1:
            return self._pairs[0]
        older, newest = self._pairs
        for old, new in zip(older, newest):
            old -= new
            np.subtract(new, old, out=old)
        self._pairs, self._spare = [newest], older
        return older

    def record(self, fields):
        """Keep the interior values of the (plus, minus) fields just solved."""
        pair = self._spare or tuple(np.empty_like(f.values[1:-1], np.float32) for f in fields)
        self._spare = None
        for buffer, field in zip(pair, fields):
            np.copyto(buffer, field.values[1:-1])
        self._pairs = self._pairs[-1:] + [pair]


def exterior_response(state, strip, history=None):
    """V, D_bnd and D_vol of a state, from at most one solve per strip.

    The response is kept on the state, keyed by the strip, so the step
    that leaves a state and the diagnostics that read it share one
    :func:`solve_exterior_fields`.  When it solves and a
    :class:`FieldHistory` is given, GMRES starts from the history's
    guesses and the new fields are recorded in it; the response and the
    state keep no field arrays.  Reading ``.dissipation`` applies the
    cross-check; reading ``.velocity`` does not.
    """
    if strip not in state.exterior:
        if history is None:
            fields = solve_exterior_fields(state, strip)
        else:
            fields = solve_exterior_fields(state, strip, history.guesses())
            history.record(fields)
        state.exterior[strip] = _response(fields, state)
    return state.exterior[strip]


def linear_dtn(profile, mobility):
    """Linearized evolution multiplier: -mobility*|k|^3 per mode."""
    profile.require_mean_zero("linearized operator")
    k = profile.grid.wavenumbers
    return SpectralProfile.from_coeffs(
        profile.grid, -mobility * np.abs(k) ** 3 * profile.coeffs
    )
