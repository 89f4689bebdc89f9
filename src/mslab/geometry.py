"""Geometric quantities of the graph interface z = h(x).

An :class:`InterfaceState` caches the slope, tangent angle, curvature and
line element of the interface.  Seminorms along the curve reuse the flat
spectral calculus on a profile re-expressed in arclength
(:func:`to_arclength`): its Fourier coefficients are integrals over the
x-grid after the change of variables s = s(x), valid while the slope stays
bounded by one.
"""

import numpy as np

from .errors import SlopeGateViolation
from .spectral import Grid, SpectralProfile, derivative


class InterfaceState:
    """Height profile plus cached geometric fields of the interface.

    ``exterior`` is filled by :func:`mslab.field.exterior_response`: the
    response of the exterior problem per strip configuration.
    """

    __slots__ = ("h", "slope", "angle", "curvature", "line_element", "exterior")

    def __init__(self, h, slope, angle, curvature, line_element):
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "curvature", curvature)
        angle = np.ascontiguousarray(angle, dtype=float)
        line_element = np.ascontiguousarray(line_element, dtype=float)
        angle.setflags(write=False)
        line_element.setflags(write=False)
        object.__setattr__(self, "angle", angle)
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
    angle = np.arctan(slope.samples)
    curvature = SpectralProfile.from_samples(h.grid, hxx.samples / line_element**3)
    return InterfaceState(h, slope, angle, curvature, line_element)


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
    coeffs = np.exp(-1j * np.outer(arc.wavenumbers, s)) @ weights
    return SpectralProfile.from_coeffs(arc, coeffs)
