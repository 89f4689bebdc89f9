"""Geometric quantities of the graph interface z = h(x).

An :class:`InterfaceState` caches the slope, curvature and line element of
the interface.  Seminorms along the curve reuse the flat spectral calculus
on a profile re-expressed in arclength (:func:`to_arclength`): its Fourier
coefficients are integrals over the x-grid after the change of variables
s = s(x), valid while the slope stays bounded by one.  The x-nodes land at
nonuniform points s(x_l), so the integrals form a type-1 nonuniform FFT,
evaluated in O(N log N) by Gaussian gridding (Dutt & Rokhlin, SIAM J. Sci.
Comput. 14, 1993; Greengard & Lee, SIAM Rev. 46, 2004).
"""

import numpy as np

from .errors import SlopeGateViolation
from .spectral import Grid, SpectralProfile, derivative

#: Gaussian gridding of the type-1 transform: oversampling ratio R and
#: spreading half-width M_sp, fixed for about 1e-13 relative accuracy
_OVERSAMPLING = 2
_SPREAD_HALF_WIDTH = 14


class InterfaceState:
    """Height profile plus cached geometric fields of the interface.

    ``exterior`` is filled by :func:`mslab.field.exterior_response`: the
    response of the exterior problem per strip configuration.
    """

    __slots__ = ("h", "slope", "curvature", "line_element", "exterior")

    def __init__(self, h, slope, curvature, line_element):
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "curvature", curvature)
        line_element = np.ascontiguousarray(line_element, dtype=float)
        line_element.setflags(write=False)
        object.__setattr__(self, "line_element", line_element)
        object.__setattr__(self, "exterior", {})

    def __setattr__(self, name, value):
        raise AttributeError("InterfaceState is immutable")

    @property
    def grid(self):
        return self.h.grid


def build_state(h):
    """Populate all cached fields from a height profile.

    The slope is the exact spectral derivative of ``h``; the curvature is
    the spectral ``h_xx`` divided pointwise by the cubed line element.
    """
    slope = derivative(h, 1)
    hxx = derivative(h, 2)
    line_element = np.sqrt(1.0 + slope.samples**2)
    curvature = SpectralProfile.from_samples(h.grid, hxx.samples / line_element**3)
    return InterfaceState(h, slope, curvature, line_element)


def energy(state):
    """Excess arclength over the flat interface, integral of sqrt(1+h_x^2)-1.

    Evaluated with the (spectrally accurate) periodic rectangle rule.  The
    algebraically equivalent form integral h_x^2/(sqrt(1+h_x^2)+1) dx is
    used to avoid cancellation for small slopes.
    """
    hx2 = state.slope.samples ** 2
    return float(state.grid.spacing * np.sum(hx2 / (state.line_element + 1.0)))


def sup_slope(state):
    """Grid maximum of |h_x|, the quantity the slope gate acts on."""
    return state.slope.max_abs()


def sup_height(state):
    return state.h.max_abs()


def total_arclength(state):
    return float(state.grid.spacing * np.sum(state.line_element))


def to_arclength(state, q):
    """Re-express a profile q(x) in arclength, on ``Grid(S, N)``.

    With s(x) the spectral antiderivative of the line element and S the
    total arclength, the change of variables s = s(x) gives the Fourier
    coefficients as integrals over the x-grid,

        c_j = (1/S) int_0^S q(x(s)) e^{-i k_j s} ds
            = (1/S) int_0^L q(x) e^{-i k_j s(x)} s'(x) dx,

    whose periodic integrand makes the rectangle rule spectrally accurate.
    The sum over the nonuniform points s(x_l) is evaluated by
    :func:`_type1_nufft`, in O(N log N) time and O(N) memory.
    """
    if sup_slope(state) > 1.0:
        raise SlopeGateViolation(
            "arclength resampling requires sup|h_x| <= 1, got "
            f"{sup_slope(state):.6f}"
        )
    grid = state.grid
    arc = Grid(total_arclength(state), grid.num_points)
    le = SpectralProfile.from_samples(grid, state.line_element)
    k = grid.wavenumbers
    anti = np.zeros_like(le.coeffs)
    nz = k != 0.0
    anti[nz] = le.coeffs[nz] / (1j * k[nz])
    anti[grid.num_points // 2] = 0.0
    osc = SpectralProfile.from_coeffs(grid, anti).samples
    s = le.mean * grid.nodes + osc - osc[0]
    weights = (grid.spacing / arc.length) * q.samples * state.line_element
    coeffs = _type1_nufft((2.0 * np.pi / arc.length) * s, weights, arc.num_points)
    return SpectralProfile.from_coeffs(arc, coeffs)


def _type1_nufft(theta, weights, n):
    """Sums c_m = sum_l w_l e^{-i m theta_l} over the n modes in fftfreq order.

    Gaussian gridding (Greengard & Lee 2004): spread the real weights onto
    a periodic grid of R n points with the kernel e^{-d^2/(4 tau)}, take one
    FFT, and divide by the kernel's Fourier coefficients
    sqrt(tau/pi) e^{-m^2 tau}.  The temporaries are 2 M_sp x n.
    """
    size = _OVERSAMPLING * n
    spacing = 2.0 * np.pi / size
    tau = np.pi * _SPREAD_HALF_WIDTH / (n**2 * _OVERSAMPLING * (_OVERSAMPLING - 0.5))
    offsets = np.arange(1 - _SPREAD_HALF_WIDTH, _SPREAD_HALF_WIDTH + 1)[:, None]
    cells = offsets + np.floor(theta / spacing).astype(np.int64)
    spread = weights * np.exp(-((theta - spacing * cells) ** 2) / (4.0 * tau))
    gridded = np.bincount((cells % size).ravel(), spread.ravel(), size)
    modes = np.fft.fftfreq(n, 1.0 / n)
    transform = np.fft.fft(gridded)[modes.astype(np.int64) % size]
    return (np.sqrt(np.pi / tau) / size) * np.exp(tau * modes**2) * transform
