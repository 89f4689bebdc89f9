"""Two-phase exterior problem for the interface potential.

The harmonic field f (Laplace off the interface, f = curvature on it,
bounded in both phases) moves the interface with the normal velocity V,
the jump of the normal derivative of f across it, and dissipates the
energy at the rate D, the Dirichlet energy of f.  :func:`exterior_response`
computes both with the periodic single-layer potential (Zhu, Chen & Hou,
J. Comput. Phys. 127, 1996): f = S[sigma] + c with the Green's function
G = -(1/4pi) log(cosh(2pi dz/L) - cos(2pi dx/L)), f = kappa on the curve
and integral sigma ds = 0, so V = -sigma and the mass flux integral V ds
vanishes by construction.  The logarithm splits into log(4 sin^2(pi dx/L)),
whose periodic integral is the Fourier multiplier 1/(2|k|) (Kress, *Linear
Integral Equations*), and the smooth, periodic log R with
R = 1 + sinh^2(pi dz/L)/sin^2(pi dx/L), which the trapezoid rule
integrates spectrally.  With phi = sigma sqrt(1+h_x^2) = 2|D| psi and
c = mean(psi) the equation is the second kind (I + M 2|D|) psi = kappa,
M the trapezoid matrix of -(1/4pi) log R; a flat interface gives M = 0.
GMRES solves it unpreconditioned from zero in a handful of iterations.
The share of the spectral energy of psi above the 2/3 cut is the
resolution signal: past :data:`RESOLUTION_TAIL_MAX` the solve raises
:class:`~mslab.errors.SolverDivergence`, as on a GMRES or residual
failure, so every state the flow solves is resolved.  The solve runs on
the smallest grid that resolves the curvature, its data, and V returns to
the state's grid by zero-padding.  The solve keeps nothing:
a run keeps each state's response beside the state, in its trajectory.

A second-order straightened strip, which no command runs, is the
reference the tests hold the integral against: each phase mapped
onto a half-strip with zt = z - h(x), where the operator is the uniformly
elliptic -div(a grad f) with a = J^T J, J = [[1, -h_x], [0, 1]], and the
lower phase is the upper phase of the mirrored interface -h.  The strip is
truncated at depth Z with the x-mean of the boundary data as Dirichlet
data there.  Discretization: second-order finite differences on a tensor
grid, periodic in x, geometrically graded toward zt = 0 through the map
zt = Z*(exp(alpha*eta)-1)/(exp(alpha)-1) of :class:`StripConfig`, with
alpha = log(:data:`GRADING`).  The 9-point operator is applied as a
stencil and inverted by matrix-free GMRES right-preconditioned with the
exact inverse of the flat operator (fast diagonalisation; Lynch, Rice &
Thomas, Numer. Math. 6, 1964).
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SlopeGateViolation, SolverDivergence
from .geometry import build_state, sup_slope
from .spectral import Grid, SpectralProfile, derivative, is_resolved, resample, resolved_grid

#: GMRES stops once the 2-norm residual falls to this fraction of |b|, and a
#: solve raises on a max-norm residual above ten times that
GMRES_TOLERANCE = 1e-12

#: GMRES iterations after which a solve raises SolverDivergence
GMRES_MAX_ITERATIONS = 100

#: largest grid a run may ask for: the kernel of a state is N^2 float64, 128 MB
#: at this cap
MAX_POINTS = 4096

#: rows of the kernel built at once, so the temporaries stay O(block N)
_KERNEL_BLOCK = 64

#: largest share of the spectral energy of psi above the 2/3 cut at which a
#: state counts as resolved; a larger tail makes the solve raise.
#: Measured before it was fixed: at most 5.0e-11 on the benchmark's workloads
#: (seeds 0-4) and 1.2e-25 on the README example, at most 6.8e-5 on the test
#: runs that must pass, and 1.0 on a mode just above the cut.  Under grid
#: halving a tail of 1.7e-3 came with a D error of 3.9e-3 (steep wavelet,
#: N = 64) and one of 3.8e-6 with 2.2e-7 (N = 128): the limit refuses D about
#: where its error passes the 1.7e-3 the second-order strip used to carry.
RESOLUTION_TAIL_MAX = 1e-3

#: factor by which the slowest periodic mode decays across the default strip depth
DEPTH_DECAY = 1e-4

#: growth of the Jacobian dzt/deta of the depth map across every strip
GRADING = 32.0

_ALPHA = np.log(GRADING)


@dataclass(frozen=True)
class StripConfig:
    """Truncated half-strip: depth and number of layers.

    The levels are zt = Z*(exp(alpha*eta)-1)/(exp(alpha)-1) at eta = i/m
    with alpha = log(:data:`GRADING`), so successive layer thicknesses form
    an exact geometric progression and the Jacobian dzt/deta grows by
    GRADING across the strip.  The solver reads only that Jacobian, never
    the levels themselves.
    """

    depth: float
    num_layers: int

    def __post_init__(self):
        if self.depth <= 0:
            raise ValueError("strip depth must be positive")
        if self.num_layers < 16:
            raise ValueError("need at least 16 layers")

    def jacobian(self):
        """dzt/deta at the levels, the one place the depth map is written."""
        eta = np.arange(self.num_layers + 1) / self.num_layers
        return self.depth * _ALPHA * np.exp(_ALPHA * eta) / np.expm1(_ALPHA)


def default_strip_config(grid, num_layers=64):
    """Depth chosen so the slowest periodic mode decays below :data:`DEPTH_DECAY`.

    The config's ``strip`` key builds this, and no command reads it; it
    stays because the benchmark passes it."""
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
    return 1.0 / jac, 1.0 / jac**2, _ALPHA / jac**2


@lru_cache(maxsize=16)
def _flat_inverse(grid, strip):
    """Exact inverse of the h = 0 operator on the interior levels.

    In x the operator is the periodic second difference, diagonal in the
    discrete Fourier basis with symbol (2 - 2cos(k dx))/dx^2; in eta it is
    the tridiagonal T of :func:`_eta_coefficients`.  Both off-diagonals
    of T are negative while alpha < 2 num_layers, which always holds
    (alpha = log 32 < 16 <= num_layers), so each pair has a positive
    product and T = D Q diag(lam) Q^T D^-1 with D diagonal and Q, lam the
    eigenvectors and eigenvalues of the symmetric tridiagonal D^-1 T D
    (fast diagonalisation; Lynch, Rice & Thomas, Numer. Math. 6, 1964).
    An apply is one real matmul by Q^T D^-1, an FFT in x, a division by
    lam + symbol, the inverse FFT and a matmul by D Q.  The factors depend
    only on the grid and the strip, so they are built once per pair and
    shared, read-only, by every solve.
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
    inv_symbol = 1.0 / (lam[:, None] + (2.0 - 2.0 * np.cos(grid.wavenumbers * dx))[None, :] / dx**2)
    for factor in (to_modes, from_modes, inv_symbol):
        factor.setflags(write=False)

    def apply(residual):
        y = np.fft.rfft(to_modes @ residual, axis=1)
        y *= inv_symbol
        return from_modes @ np.fft.irfft(y, n, axis=1)

    return apply


def _gmres(operator, precondition, rhs):
    """Right-preconditioned GMRES (Saad & Schultz 1986), started from zero.

    Modified Gram-Schmidt Arnoldi with Givens rotations on the
    preconditioned operator; returns (P(sum y_i v_i), iterations).  It
    stops at |r| <= GMRES_TOLERANCE * |rhs|.  Zero data give exact zeros in
    0 iterations.
    """
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0
    target = GMRES_TOLERANCE * rhs_norm
    cap = GMRES_MAX_ITERATIONS
    basis = np.empty((cap + 1,) + rhs.shape)
    basis[0] = rhs / rhs_norm
    hess = np.zeros((cap + 1, cap))
    cos = np.zeros(cap)
    sin = np.zeros(cap)
    g = np.zeros(cap + 1)
    g[0] = rhs_norm
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
    return precondition(np.tensordot(y, basis[:k], axes=1)), k


def _checked_residual(operator, solution, rhs, iterations):
    """max|A u - b| of a GMRES solution, which must meet the gate
    10 * GMRES_TOLERANCE * |b|, ten times the 2-norm target GMRES stops at."""
    residual = float(np.abs(operator(solution) - rhs).max())
    if residual > 10.0 * GMRES_TOLERANCE * np.linalg.norm(rhs):
        raise SolverDivergence(
            f"elliptic residual {residual:.3e} exceeds tolerance after {iterations} GMRES iterations"
        )
    return residual


class _StripOperator:
    """The 9-point operator on an (num_layers-1, N) array of interior values.

    An apply copies u into a level array whose boundary rows stay zero and
    whose first and last columns repeat the periodic neighbours, then sums
    the stencil term by term into a new output array.  The level array and
    the two work buffers are allocated once per system, so the output is
    the only array an apply allocates.
    """

    def __init__(self, center, ew, north, south, cross):
        m1, n = center.shape
        self._coefficients = (center, ew, north, south, cross)
        self._levels = np.zeros((m1 + 2, n + 2))
        self._across = np.empty((m1, n + 2))
        self._term = np.empty((m1, n))

    def __call__(self, u):
        center, ew, north, south, cross = self._coefficients
        full, across, term = self._levels, self._across, self._term
        full[1:-1, 1:-1] = u
        full[1:-1, 0] = u[:, -1]
        full[1:-1, -1] = u[:, 0]
        out = np.multiply(center, full[1:-1, 1:-1])
        np.add(full[1:-1, 2:], full[1:-1, :-2], out=term)
        term *= ew
        out += term
        np.multiply(north, full[2:, 1:-1], out=term)
        out += term
        np.multiply(south, full[:-2, 1:-1], out=term)
        out += term
        # the four corners share one coefficient up to sign
        np.subtract(full[2:], full[:-2], out=across)
        np.subtract(across[:, 2:], across[:, :-2], out=term)
        term *= cross
        out += term
        return out


def _strip_system(grid, hx_samples, data, strip, top_data=None):
    """(operator, rhs, values) of the straightened problem.

    ``operator`` is the :class:`_StripOperator` of the 9-point stencil on
    an (num_layers-1, N) array of interior values.  ``rhs`` carries the
    Dirichlet neighbours: only the two rows next to the boundary levels
    see them, so it is formed from those rows alone, without an apply.
    ``values`` is the (num_layers+1, N) level array with the boundary rows
    set and zero interior.
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

    values = np.zeros((m + 1, n))
    values[0] = data
    rhs = np.zeros((m - 1, n))
    # a Dirichlet level reaches the interior row next to it through that
    # row's coefficient for it and the two corners on the level
    rhs[0] = -(c_s[0] * data + cross[0] * (np.roll(data, 1) - np.roll(data, -1)))
    if top_data is not None:
        values[m] = top_data
        top = values[m]
        rhs[-1] = -(c_n[-1] * top + cross[-1] * (np.roll(top, -1) - np.roll(top, 1)))
    return _StripOperator(c_center, c_ew, c_n, c_s, cross), rhs, values


def solve_strip(grid, hx_samples, data, strip, top_data=None):
    """Matrix-free solve of the straightened problem with prescribed boundary data.

    The field lives above the interface of slope ``hx_samples``; the phase
    below is the same problem for the slope -h_x.  ``data`` is imposed at
    zt = 0 and ``top_data`` (default zero) at the truncation depth.  The
    9-point operator acts as a stencil on the interior levels and is
    inverted by GMRES, right-preconditioned with the exact flat-interface
    inverse (FFT in x, eigenvectors in eta); no matrix is assembled or
    factorized.
    The solve must meet the residual gate max|A u - b| <= 10 *
    GMRES_TOLERANCE * |b|, ten times the 2-norm target GMRES stops at, and
    the returned field records its iteration count and that residual.
    This is the raw kernel behind :func:`solve_exterior_fields`; tests
    drive it with synthetic data.
    """
    operator, rhs, values = _strip_system(grid, hx_samples, data, strip, top_data)
    solution, iterations = _gmres(operator, _flat_inverse(grid, strip), rhs)
    residual = _checked_residual(operator, solution, rhs, iterations)
    values[1:-1] = solution
    values.setflags(write=False)
    return HalfStripField(values, strip, iterations, residual)


def solve_exterior_fields(state, strip):
    """Solve the (upper, lower) phases, :func:`solve_strip` with the
    slopes (h_x, -h_x), with the curvature as Dirichlet data.

    The x-mean of the curvature is the data at the truncation depth; a
    constant solves the discrete operator exactly, and the boundary row of
    each field equals the curvature samples exactly.  This second-order
    strip pair is the reference the tests hold :func:`exterior_response`
    against.
    """
    if sup_slope(state) > 1.0:
        raise SlopeGateViolation(
            f"exterior solve requires sup|h_x| <= 1, got {sup_slope(state):.6f}"
        )
    hx = state.slope.samples
    kappa = state.curvature.samples
    top = np.full(state.grid.num_points, kappa.mean())
    return tuple(solve_strip(state.grid, slope, kappa, strip, top) for slope in (hx, -hx))


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


def _boundary_pairing(state, v):
    """-integral kappa V ds on the x-grid, for normal velocity samples ``v``."""
    kappa = state.curvature.samples
    return -float(state.grid.spacing * np.sum(kappa * v * state.line_element))


def dissipation(fields, state):
    """D = -integral_Gamma kappa V ds of a strip pair, with V from
    :func:`normal_velocity`: the boundary pairing, which in the continuum
    is the Dirichlet energy of the field over both phases."""
    return _boundary_pairing(state, normal_velocity(fields, state).samples)


class SolveRecord(NamedTuple):
    """Statistics of one boundary-integral solve.

    ``iterations`` and ``residual`` are the GMRES iteration count and the
    max-norm residual.  ``tail`` is the resolution signal: the share of
    the spectral energy of psi (its mean left out) in the modes outside
    the 2/3 cut :attr:`~mslab.spectral.Grid.dealiased`, which the
    nonlinear step discards; it is at most :data:`RESOLUTION_TAIL_MAX`.
    ``points`` is the size of the grid the solve ran on, which
    :func:`exterior_response` chooses.
    """

    iterations: int
    residual: float
    tail: float
    points: int


class ExteriorResponse(NamedTuple):
    """What the flow and the diagnostics read about the motion of one state.

    ``velocity`` is the normal speed V of the engine's flow and
    ``dissipation`` the pairing D = -integral kappa V ds, the rate at which
    that flow lowers the energy.  ``solve`` is the :class:`SolveRecord` of
    the boundary-integral solve behind V, or None for a flow that gives V
    itself (:func:`prescribed_response`, the linear engine).  No array of
    more than N values is kept.
    """

    velocity: SpectralProfile
    dissipation: float
    solve: SolveRecord


def prescribed_response(state, v):
    """The :class:`ExteriorResponse` of a flow that gives its own normal
    velocity samples ``v``: D is the boundary pairing of ``v``, as for a
    solved state, and there is no solve to record."""
    return ExteriorResponse(SpectralProfile.from_samples(state.grid, v), _boundary_pairing(state, v), None)


def _log_kernel(state):
    """The N x N matrix log R_ij of the smooth part of the single layer.

    R_ij - 1 = sinh^2(a_i - a_j) / sin^2(pi (i - j)/N) with a = pi z/L is
    built in blocks of :data:`_KERNEL_BLOCK` rows: 2 sinh(a_i - a_j) =
    e^{a_i} e^{-a_j} - e^{-a_i} e^{a_j} is one product of an (N x 2) and a
    (2 x N) matrix, and 1/sin^2 depends on (j - i) mod N alone, so each
    block reads it from windows onto one periodic sequence.  log1p is the
    only function evaluated on N^2 values.  The diagonal is the limit
    R_ii = 1 + h_x^2.
    """
    n = state.grid.num_points
    a = (np.pi / state.grid.length) * state.h.samples
    up, down = np.exp(a), np.exp(-a)
    left, right = np.column_stack((up, -down)), np.vstack((down, up))
    quarter_csc2 = np.zeros(n)  # 1/(4 sin^2(pi d/N)), d = (j - i) mod N; d = 0 is the diagonal
    quarter_csc2[1:] = 0.25 / np.sin(np.pi * np.arange(1, n) / n) ** 2
    # windows[n - i, j] = quarter_csc2[(j - i) mod n], row i of the circulant
    windows = sliding_window_view(np.tile(quarter_csc2, 2), n)
    slope2 = state.slope.samples**2
    kernel = np.empty((n, n))
    for start in range(0, n, _KERNEL_BLOCK):
        stop = min(start + _KERNEL_BLOCK, n)
        block = kernel[start:stop]
        np.dot(left[start:stop], right, out=block)
        block *= block
        block *= windows[n - stop + 1 : n - start + 1][::-1]
        rows = np.arange(start, stop)
        block[rows - start, rows] = slope2[start:stop]
        np.log1p(block, out=block)
    return kernel


def _solve(state):
    """V on the state's grid and the :class:`SolveRecord` of the
    second-kind equation (I + M 2|D|) psi = kappa, solved by
    unpreconditioned GMRES from zero.

    M = -(dx/4pi) log R is applied as the kernel of :func:`_log_kernel`
    times a scalar, and the kernel lives only for this solve.
    V = -(2|D| psi)/sqrt(1+h_x^2), so integral V ds is the zero mode of
    2|D| psi and vanishes to round-off.  A tail above
    :data:`RESOLUTION_TAIL_MAX`, or a NaN one, raises SolverDivergence.
    """
    grid = state.grid
    n = grid.num_points
    log_kernel = _log_kernel(state)
    scale = -grid.spacing / (4.0 * np.pi)
    two_dtn = 2.0 * grid.wavenumbers

    def density(psi):
        return np.fft.irfft(two_dtn * np.fft.rfft(psi), n)

    def operator(psi):
        return psi + log_kernel @ (scale * density(psi))

    kappa = state.curvature.samples
    psi, iterations = _gmres(operator, lambda r: r, kappa)
    residual = _checked_residual(operator, psi, kappa, iterations)
    power = grid.multiplicity * np.abs(np.fft.rfft(psi)) ** 2
    power[0] = 0.0  # the mean of psi is the constant c, not a shape
    total = power.sum()
    tail = float(power[~grid.dealiased].sum() / total) if total > 0.0 else 0.0
    if not tail <= RESOLUTION_TAIL_MAX:
        raise SolverDivergence(
            f"{tail:.3e} of the boundary density's spectral energy lies above "
            f"the 2/3 cut (limit {RESOLUTION_TAIL_MAX:.0e}): the grid does not "
            "resolve the interface"
        )
    v = -density(psi) / state.line_element
    return SpectralProfile.from_samples(grid, v), SolveRecord(iterations, residual, tail, n)


def exterior_response(state):
    """V, D and the :class:`SolveRecord` of a state, from one
    boundary-integral solve; nothing is kept.

    The solve's data is the curvature.  It runs on the first grid, from the
    :func:`~mslab.spectral.resolved_grid` of h up by doubling, where the
    curvature of h truncated there :func:`~mslab.spectral.is_resolved` (the
    state's own curvature carries a round-off floor that grows like k^2),
    or else on the state's grid, where the resolution check decides.  V is
    zero-padded back to the state's grid and D paired there, as for
    :func:`prescribed_response`.  A failed solve raises SolverDivergence.
    """
    grid = resolved_grid(state.h)
    while True:
        solved = state if grid == state.grid else build_state(resample(state.h, grid))
        if solved is state or is_resolved(solved.curvature):
            break
        grid = Grid(grid.length, 2 * grid.num_points)
    velocity, record = _solve(solved)
    velocity = resample(velocity, state.grid)
    return ExteriorResponse(velocity, _boundary_pairing(state, velocity.samples), record)
