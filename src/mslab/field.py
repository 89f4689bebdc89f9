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
zt = Z*(exp(alpha*eta)-1)/(exp(alpha)-1) of :class:`StripConfig`, with
alpha = log(:data:`GRADING`) the same for every strip.  The map's Jacobian
gives the one set of eta-coefficients (:func:`_eta_coefficients`) that
the operator and its preconditioner share.  The 9-point operator is
applied as a stencil, never assembled, summed into buffers made once per
system; the Dirichlet data enter the right-hand side through the two rows
next to the boundary levels alone.  It is inverted by matrix-free GMRES
right-preconditioned with the exact inverse of the flat (h = 0) operator:
an FFT in x and the eigenvectors of the tridiagonal eta-operator
diagonalise it (fast diagonalisation; Lynch, Rice & Thomas, Numer. Math.
6, 1964).  There is no direct factorization.
:func:`exterior_response` is the one place that decides when a state is
solved: at most once per strip, keeping only the normal velocity, the two
dissipation values and the solver statistics on the state.  The volume
quadrature behind the dissipation's cross-check is made only for states
that the caller keeps.  A stepping loop may pass it a
:class:`FieldHistory`; GMRES then starts from the combination of the
fields of the last :data:`START_FIELDS` solved states whose residual under
the current operator is least (Fischer, Comput. Methods Appl. Mech.
Engrg. 163, 1998; Parks et al., SIAM J. Sci. Comput. 28, 2006) and stops
at the same absolute residual as from zero.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckFailure, SlopeGateViolation, SolverDivergence
from .geometry import sup_slope
from .spectral import SpectralProfile, derivative

#: GMRES stops once the 2-norm residual falls to this fraction of |b|, and
#: :func:`solve_strip` raises on a max-norm residual above ten times that
GMRES_TOLERANCE = 1e-12

#: GMRES iterations after which the strip solve raises SolverDivergence
GMRES_MAX_ITERATIONS = 100

#: past solutions per side whose least-residual combination starts a warm solve
START_FIELDS = 5

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
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    inv_symbol = 1.0 / (lam[:, None] + (2.0 - 2.0 * np.cos(k * dx))[None, :] / dx**2)
    for factor in (to_modes, from_modes, inv_symbol):
        factor.setflags(write=False)

    def apply(residual):
        y = np.fft.rfft(to_modes @ residual, axis=1)
        y *= inv_symbol
        return from_modes @ np.fft.irfft(y, n, axis=1)

    return apply


def _projected_start(operator, span, basis):
    """The start of least residual in the span of past solutions.

    The images A w_i of the vectors in ``span`` go into basis[1:], where
    modified Gram-Schmidt turns them into orthonormal q_i with
    A W = Q R; an image that it reduces below 1e-10 of its norm is
    dropped together with its w_i.  The start x0 = W c with R c = Q^T b
    minimises |b - A x0|, and its residual b - Q Q^T b is written over
    basis[0], which holds b, without applying A again.  Returns the
    (c_i, w_i) pairs of the start.
    """
    kept = []
    r = np.zeros((len(span), len(span)))
    for w in span:
        j = len(kept)
        image = basis[1 + j]
        image[...] = operator(w)
        norm = np.linalg.norm(image)
        for i in range(j):
            r[i, j] = np.vdot(basis[1 + i], image)
            image -= r[i, j] * basis[1 + i]
        r[j, j] = np.linalg.norm(image)
        if r[j, j] <= 1e-10 * norm:
            continue
        image /= r[j, j]
        kept.append(w)
    if not kept:
        return ()
    k = len(kept)
    qtb = np.empty(k)
    for i in range(k):
        qtb[i] = np.vdot(basis[1 + i], basis[0])
        basis[0] -= qtb[i] * basis[1 + i]
    return tuple(zip(np.linalg.solve(r[:k, :k], qtb), kept))


def _gmres(operator, precondition, rhs, span=()):
    """Right-preconditioned GMRES (Saad & Schultz 1986), started in ``span``.

    The start x0 is the least-residual combination of the past solutions
    in ``span`` (:func:`_projected_start`); an empty span starts from zero.
    Modified Gram-Schmidt Arnoldi with Givens rotations on the
    preconditioned operator, applied to the residual of x0; returns
    (x0 + P(sum y_i v_i), iterations).  It stops at the absolute target
    |r| <= GMRES_TOLERANCE * |rhs|, so the accuracy does not depend on the
    start.  Zero data give exact zeros in 0 iterations whatever the span.
    """
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0
    target = GMRES_TOLERANCE * rhs_norm
    cap = GMRES_MAX_ITERATIONS
    basis = np.empty((max(cap, len(span)) + 1,) + rhs.shape)
    basis[0] = rhs
    start = _projected_start(operator, span, basis)  # (c_i, w_i) pairs: x0 = sum c_i w_i

    def plus_start(x):
        for c, w in start:
            x += np.multiply(c, w, dtype=float)  # double precision for a single-precision w
        return x

    beta = np.linalg.norm(basis[0])
    if beta <= target:  # only a start can be at the target
        return plus_start(np.zeros_like(rhs)), 0
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
    return plus_start(precondition(np.tensordot(y, basis[:k], axes=1))), k


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


def solve_strip(grid, hx_samples, data, strip, top_data=None, span=()):
    """Matrix-free solve of the straightened problem with prescribed boundary data.

    The field lives above the interface of slope ``hx_samples``; the phase
    below is the same problem for the slope -h_x.  ``data`` is imposed at
    zt = 0 and ``top_data`` (default zero) at the truncation depth.  The
    9-point operator acts as a stencil on the interior levels and is
    inverted by GMRES, right-preconditioned with the exact flat-interface
    inverse (FFT in x, eigenvectors in eta); no matrix is assembled or
    factorized.  GMRES starts from the least-residual combination of the
    (num_layers-1, N) arrays of interior values in ``span`` (see
    :func:`_gmres`), from zero when it is empty; the span changes the
    iteration count, not the target.
    The solve must meet the residual gate max|A u - b| <= 10 *
    GMRES_TOLERANCE * |b|, ten times the 2-norm target GMRES stops at, and
    the returned field records its iteration count and that residual.
    This is the raw kernel behind :func:`solve_exterior_fields`; tests
    drive it with synthetic data.
    """
    operator, rhs, values = _strip_system(grid, hx_samples, data, strip, top_data)
    solution, iterations = _gmres(operator, _flat_inverse(grid, strip), rhs, span)
    residual = np.abs(operator(solution) - rhs).max()
    if residual > 10.0 * GMRES_TOLERANCE * np.linalg.norm(rhs):
        raise SolverDivergence(
            f"elliptic residual {residual:.3e} exceeds tolerance after {iterations} GMRES iterations"
        )
    values[1:-1] = solution
    values.setflags(write=False)
    return HalfStripField(values, strip, iterations, float(residual))


def solve_exterior_fields(state, strip, spans=((), ())):
    """Solve the (upper, lower) phases, :func:`solve_strip` with the
    slopes (h_x, -h_x), with the curvature as Dirichlet data.

    The x-mean of the curvature extends harmonically as a constant, so it
    is the data at the truncation depth; a constant solves the discrete
    operator exactly, and the boundary row of each field equals the
    curvature samples exactly.  ``spans`` holds the (plus, minus) GMRES
    start spans of :func:`solve_strip`.
    """
    if sup_slope(state) > 1.0:
        raise SlopeGateViolation(
            f"exterior solve requires sup|h_x| <= 1, got {sup_slope(state):.6f}"
        )
    hx = state.slope.samples
    kappa = state.curvature.samples
    top = np.full(state.grid.num_points, kappa.mean())
    return tuple(
        solve_strip(state.grid, slope, kappa, strip, top, span)
        for slope, span in zip((hx, -hx), spans)
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
    """Spectral d/dx of each row, with the Nyquist mode dropped."""
    n = grid.num_points
    mult = 2j * np.pi * np.fft.rfftfreq(n, d=grid.spacing)
    mult[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(values, axis=1) * mult, n, axis=1)


class ExteriorResponse(NamedTuple):
    """What the flow and the diagnostics read from one exterior solve.

    ``velocity`` is the normal speed V, ``boundary`` the pairing
    D_bnd = -integral kappa V ds and ``volume`` the quadrature D_vol of
    |grad f|^2, or None for a state its caller does not keep (see
    :func:`exterior_response`); ``iterations`` and ``residuals`` hold the
    GMRES iteration count and max-norm residual of the (plus, minus)
    solves.  The field arrays themselves are not kept.
    """

    velocity: SpectralProfile
    boundary: float
    volume: float | None
    iterations: tuple
    residuals: tuple

    @property
    def dissipation(self):
        """D_bnd, after the 2 percent cross-check against D_vol.

        A response built without D_vol raises instead: the check cannot
        run, and it must not pass unseen.
        """
        if self.volume is None:
            raise RuntimeError(
                "this exterior response was built without the volume quadrature "
                "(its state was not kept), so its dissipation cannot be cross-checked"
            )
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


def _volume_quadrature(fields, state):
    """D_vol, the volume quadrature of |grad f|^2 over both phases (see
    :func:`dissipation`)."""
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
    return volume


def _response(fields, state, kept=True):
    """The :class:`ExteriorResponse` of solved fields; D_vol only if ``kept``."""
    v = normal_velocity(fields, state)
    kappa = state.curvature.samples
    boundary = -float(
        state.grid.spacing * np.sum(kappa * v.samples * state.line_element)
    )
    return ExteriorResponse(
        v,
        boundary,
        _volume_quadrature(fields, state) if kept else None,
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
    """The interior fields of the last :data:`START_FIELDS` solved states, per side.

    A stepping loop owns one history and hands it to
    :func:`exterior_response`, which starts each solve from
    :meth:`guesses` and passes the new fields to :meth:`record`.  Per
    side it keeps the newest field u_n in double precision and the
    START_FIELDS - 1 latest increments u_{j+1} - u_j in single precision,
    which span the same space as the last START_FIELDS fields.  An
    increment is formed in double precision and rounded once, so its
    rounding error is relative to the increment; fields rounded whole
    would lose the small differences between them that the projection
    combines.  Once the history is full, a record reuses the buffer of the
    oldest increment, so nothing is allocated.
    """

    def __init__(self):
        self._newest = None  # (plus, minus) interior fields, double precision
        self._increments = ([], [])  # per side, single precision, newest first

    def guesses(self):
        """(plus, minus) GMRES start spans: empty, or the newest field
        followed by the increments, whose least-residual combination
        :func:`_gmres` starts from."""
        if self._newest is None:
            return ((), ())
        return tuple((newest, *increments) for newest, increments in zip(self._newest, self._increments))

    def record(self, fields):
        """Keep the interior values of the (plus, minus) fields just solved."""
        if self._newest is None:
            self._newest = tuple(f.values[1:-1].copy() for f in fields)
            return
        for newest, increments, field in zip(self._newest, self._increments, fields):
            if len(increments) < START_FIELDS - 1:
                increments.insert(0, np.empty(newest.shape, np.float32))
            else:
                increments.insert(0, increments.pop())
            np.subtract(field.values[1:-1], newest, out=increments[0])
            newest[...] = field.values[1:-1]


def exterior_response(state, strip, history=None, kept=True):
    """V, D_bnd and D_vol of a state, from at most one solve per strip.

    The response is kept on the state, keyed by the strip, so the step
    that leaves a state and the diagnostics that read it share one
    :func:`solve_exterior_fields`.  When it solves and a
    :class:`FieldHistory` is given, GMRES starts from the combination of
    the history's last fields with the least residual under this state's
    operator, and the new fields are recorded in it; the response and the
    state keep no field arrays.  The volume quadrature D_vol is read only
    through ``.dissipation`` of a state that someone keeps, so a caller
    that drops the state after stepping from it passes ``kept=False`` and
    the solve skips the quadrature; that response's ``.dissipation``
    raises, and a later call finds it cached as it is.  Reading
    ``.dissipation`` applies the cross-check; reading ``.velocity`` does
    not.
    """
    if strip not in state.exterior:
        if history is None:
            fields = solve_exterior_fields(state, strip)
        else:
            fields = solve_exterior_fields(state, strip, history.guesses())
            history.record(fields)
        state.exterior[strip] = _response(fields, state, kept)
    return state.exterior[strip]
