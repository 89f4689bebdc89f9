"""Periodic spectral calculus on a uniform 1-d grid.

The real line is truncated to a periodic cell of length ``L`` sampled at
``N`` equispaced nodes.  Profiles are held jointly as samples and Fourier
coefficients.  Conventions used everywhere in this package:

* a real profile is held by its half spectrum: the modes ``m = 0 .. N/2``,
  angular wavenumbers ``k_m = 2*pi*m/L`` (so ``-k**2`` is the multiplier of
  ``d2/dx2`` and ``|d/dx|**2`` composes exactly with it) and coefficients
  ``c_m = (1/N) * sum_j f(x_j) exp(-i k_m x_j)``, i.e.
  ``numpy.fft.rfft(samples)/N``, with ``c_0`` and ``c_{N/2}`` real;
* mode m stands for the pair ``+-m``, the mean and the Nyquist mode for
  themselves (:attr:`Grid.multiplicity`), so Parseval reads
  ``integral f**2 dx = L * sum_m multiplicity_m |c_m|**2``.

The zero mode of every fractional operator ``|d/dx|**sigma`` is mapped to
zero; negative orders additionally require a mean-zero profile.  Every
mean-zero gate of the package is :meth:`SpectralProfile.require_mean_zero`,
which raises :class:`~mslab.errors.ZeroModeNonzero`.

A profile moves between grids of one cell only by :func:`resample`, exact
truncation or zero-padding of its coefficients, and :func:`resolved_grid`
is the package's one rule for the smallest grid that holds a profile.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroModeNonzero

#: a profile is mean-zero when |c_0| <= MEAN_ZERO_RTOL max|c_m|; the test is
#: relative at every amplitude, and a profile that is zero throughout passes it
MEAN_ZERO_RTOL = 1e-12

#: a coefficient above RESOLUTION_RTOL max|c_m| is content that a grid must
#: hold inside its 2/3 cut (:func:`resolved_grid`); at 1e-13 the round-off
#: floor of a curvature already reaches the Nyquist mode
RESOLUTION_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid of ``num_points`` nodes on a cell of ``length``."""

    length: float
    num_points: int

    def __post_init__(self):
        n = self.num_points
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError("grid length must be positive and finite")
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("num_points must be a power of two >= 8")

    @property
    def spacing(self):
        return self.length / self.num_points

    @cached_property
    def nodes(self):
        x = self.spacing * np.arange(self.num_points)
        x.setflags(write=False)
        return x

    @cached_property
    def wavenumbers(self):
        """k_m = 2 pi m / L of the half-spectrum modes m = 0 .. N/2."""
        k = 2.0 * np.pi * (np.arange(self.num_points // 2 + 1) * (1.0 / self.length))
        k.setflags(write=False)
        return k

    @cached_property
    def multiplicity(self):
        """Full-spectrum modes per mode: 2 for the pair +-m, 1 for the mean and the Nyquist mode."""
        count = np.full(self.num_points // 2 + 1, 2.0)
        count[[0, -1]] = 1.0
        count.setflags(write=False)
        return count

    @cached_property
    def dealiased(self):
        """The 2/3 cut m <= N//3 on the half-spectrum modes: the modes the
        nonlinear step keeps and the exterior solve's resolution tail leaves out."""
        kept = np.arange(self.num_points // 2 + 1) <= self.num_points // 3
        kept.setflags(write=False)
        return kept


class SpectralProfile:
    """A real periodic function held as grid samples plus its half spectrum.

    Instances are immutable; the sample and coefficient arrays are read-only
    views.  Construct with :meth:`from_samples` or :meth:`from_coeffs`.
    """

    __slots__ = ("grid", "samples", "coeffs")

    def __init__(self, grid, samples, coeffs):
        object.__setattr__(self, "grid", grid)
        samples = np.ascontiguousarray(samples, dtype=float)
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        samples.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralProfile is immutable")

    @classmethod
    def from_samples(cls, grid, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (grid.num_points,):
            raise ValueError("sample array does not match the grid")
        coeffs = np.fft.rfft(samples) / grid.num_points
        return cls(grid, samples, coeffs)

    @classmethod
    def from_coeffs(cls, grid, coeffs):
        coeffs = np.array(coeffs, dtype=complex)
        if coeffs.shape != (grid.num_points // 2 + 1,):
            raise ValueError("coefficient array does not match the grid")
        # the mean and the Nyquist mode of a real profile are real
        coeffs[[0, -1]] = coeffs[[0, -1]].real
        samples = np.fft.irfft(coeffs * grid.num_points, grid.num_points)
        return cls(grid, samples, coeffs)

    @property
    def mean(self):
        return self.coeffs[0].real

    def is_mean_zero(self):
        scale = np.abs(self.coeffs).max()
        return abs(self.coeffs[0]) <= MEAN_ZERO_RTOL * scale

    def require_mean_zero(self, what):
        """Raise :class:`ZeroModeNonzero` unless the profile is mean-zero."""
        if not self.is_mean_zero():
            raise ZeroModeNonzero(
                f"{what} needs a mean-zero profile; |coeff(0)| = {abs(self.coeffs[0]):.3e}"
            )

    def without_mean(self):
        """The profile with its zero mode set to exactly zero."""
        coeffs = self.coeffs.copy()
        coeffs[0] = 0.0
        return SpectralProfile.from_coeffs(self.grid, coeffs)

    def max_abs(self):
        return float(np.abs(self.samples).max())

    def l2_norm(self):
        """L2 norm over the cell, sqrt(dx * sum f_j**2)."""
        return float(np.sqrt(self.grid.spacing * np.sum(self.samples**2)))

    def evaluate(self, points):
        """Trigonometric interpolation of the profile at arbitrary points."""
        points = np.atleast_1d(np.asarray(points, dtype=float))
        phases = np.exp(1j * np.outer(points, self.grid.wavenumbers))
        return (phases @ (self.grid.multiplicity * self.coeffs)).real


def fractional_operator(p, sigma):
    """Apply ``|d/dx|**sigma``: multiply coefficient m by ``|k_m|**sigma``.

    The zero mode is mapped to zero for every ``sigma``.  Negative orders
    raise :class:`~mslab.errors.ZeroModeNonzero` unless the profile is
    mean-zero.
    """
    if sigma < 0:
        p.require_mean_zero("fractional operator of negative order")
    k = p.grid.wavenumbers
    mult = np.zeros_like(k)
    mult[1:] = np.float_power(k[1:], sigma)
    return SpectralProfile.from_coeffs(p.grid, p.coeffs * mult)


def derivative(p, order=1):
    """Exact spectral derivative ``(d/dx)**order``; an odd order leaves an
    imaginary Nyquist coefficient, which :meth:`SpectralProfile.from_coeffs` drops."""
    mult = (1j * p.grid.wavenumbers) ** order
    return SpectralProfile.from_coeffs(p.grid, p.coeffs * mult)


def seminorm(p, sigma):
    """Homogeneous Sobolev seminorm ``|| |d/dx|**sigma p ||_2``.

    Discrete Parseval evaluation ``sqrt(L * sum multiplicity_m k_m**(2 sigma)
    |c_m|**2)`` with the zero mode excluded.
    """
    if sigma < 0:
        p.require_mean_zero("seminorm of negative order")
    grid = p.grid
    weights = grid.multiplicity[1:] * np.float_power(grid.wavenumbers[1:], 2.0 * sigma)
    return float(np.sqrt(grid.length * np.sum(weights * np.abs(p.coeffs[1:]) ** 2)))


def resample(p, grid):
    """The profile on ``grid``, a grid of the same cell, by exact truncation
    or zero-padding of its Fourier coefficients.

    The smaller grid's Nyquist mode M/2 is scaled by the ratio of its two
    multiplicities: truncation folds the pair +-M/2 into it and padding
    splits it in halves, so padding then truncating gives back the
    coefficients bit for bit.  Every other mode is copied, c_0 included, so
    a mean-zero profile stays exactly mean-zero.  A profile already on
    ``grid`` is returned as it is.
    """
    if grid == p.grid:
        return p
    if grid.length != p.grid.length:
        raise ValueError("resampling keeps the cell length")
    half = min(p.grid.num_points, grid.num_points) // 2
    out = np.zeros(grid.num_points // 2 + 1, dtype=complex)
    out[:half] = p.coeffs[:half]
    out[half] = p.coeffs[half] * (p.grid.multiplicity[half] / grid.multiplicity[half])
    return SpectralProfile.from_coeffs(grid, out)


def resolved_grid(p):
    """The smallest power-of-two grid of the cell, at most the profile's own,
    whose 2/3 cut :attr:`Grid.dealiased` holds every coefficient above
    :data:`RESOLUTION_RTOL` max|c_m|.

    The test is relative, so h -> lambda h(x/lambda) keeps the grid, and a
    profile that is zero throughout gets the smallest grid, 8 points.
    """
    top = _top_mode(p)
    n = 8
    while n // 3 < top and n < p.grid.num_points:
        n *= 2
    return Grid(p.grid.length, n)


def is_resolved(p):
    """Whether the 2/3 cut of the profile's own grid holds every coefficient
    above :data:`RESOLUTION_RTOL` max|c_m|, the test of :func:`resolved_grid`."""
    return _top_mode(p) <= p.grid.num_points // 3


def _top_mode(p):
    magnitude = np.abs(p.coeffs)
    # a NaN coefficient is never below the bound, so it makes the Nyquist mode the top
    return np.flatnonzero(~(magnitude <= RESOLUTION_RTOL * magnitude.max())).max(initial=0)
