"""Periodic spectral calculus on a uniform 1-d grid.

The real line is truncated to a periodic cell of length ``L`` sampled at
``N`` equispaced nodes.  Profiles are held jointly as samples and Fourier
coefficients.  Conventions used everywhere in this package:

* angular wavenumbers ``k_m = 2*pi*m/L`` for ``m = -N/2 .. N/2-1``, so the
  second derivative has multiplier ``-k**2`` and ``|d/dx|**2`` composes
  exactly with ``-d2/dx2``;
* coefficients ``c_m = (1/N) * sum_j f(x_j) exp(-i k_m x_j)``, i.e.
  ``numpy.fft.fft(samples)/N``, so Parseval reads
  ``integral f**2 dx = L * sum_m |c_m|**2``.

The zero mode of every fractional operator ``|d/dx|**sigma`` is mapped to
zero; negative orders additionally require a mean-zero profile.  Every
mean-zero gate of the package is :meth:`SpectralProfile.require_mean_zero`,
which raises :class:`~mslab.errors.ZeroModeNonzero`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroModeNonzero

#: a profile is mean-zero when |c_0| <= max(MEAN_ZERO_RTOL max|c_m|, MEAN_ZERO_ATOL);
#: the floor keeps decayed profiles (every mode at round-off) from tripping the test
MEAN_ZERO_RTOL = 1e-12
MEAN_ZERO_ATOL = 1e-15


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
        k = 2.0 * np.pi * np.fft.fftfreq(self.num_points, d=self.spacing)
        k.setflags(write=False)
        return k


class SpectralProfile:
    """A real periodic function held as grid samples plus Fourier coefficients.

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
        coeffs = np.fft.fft(samples) / grid.num_points
        return cls(grid, samples, coeffs)

    @classmethod
    def from_coeffs(cls, grid, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (grid.num_points,):
            raise ValueError("coefficient array does not match the grid")
        # enforce Hermitian symmetry so the samples are exactly real
        n = grid.num_points
        sym = 0.5 * (coeffs + np.conj(coeffs[np.r_[0, n - 1:0:-1]]))
        samples = np.fft.ifft(sym * n).real
        return cls(grid, samples, sym)

    @property
    def mean(self):
        return self.coeffs[0].real

    def is_mean_zero(self):
        scale = np.abs(self.coeffs).max()
        return abs(self.coeffs[0]) <= max(MEAN_ZERO_RTOL * scale, MEAN_ZERO_ATOL)

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
        return (phases @ self.coeffs).real


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
    nz = k != 0.0
    mult[nz] = np.abs(k[nz]) ** sigma
    return SpectralProfile.from_coeffs(p.grid, p.coeffs * mult)


def derivative(p, order=1):
    """Exact spectral derivative ``(d/dx)**order``.

    The unpaired -N/2 mode is zeroed for odd orders so the result stays
    real-valued.
    """
    k = p.grid.wavenumbers
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[p.grid.num_points // 2] = 0.0
    return SpectralProfile.from_coeffs(p.grid, p.coeffs * mult)


def seminorm(p, sigma):
    """Homogeneous Sobolev seminorm ``|| |d/dx|**sigma p ||_2``.

    Discrete Parseval evaluation ``sqrt(L * sum |k_m|**(2 sigma) |c_m|**2)``
    with the zero mode excluded.
    """
    if sigma < 0:
        p.require_mean_zero("seminorm of negative order")
    k = p.grid.wavenumbers
    nz = k != 0.0
    weights = np.abs(k[nz]) ** (2.0 * sigma)
    return float(np.sqrt(p.grid.length * np.sum(weights * np.abs(p.coeffs[nz]) ** 2)))


def dual_pairing_norm(p, sigma):
    """Norm of ``p`` acting on the unit ball of ``H^sigma``: seminorm(p, -sigma).

    Dual characterization: sup over test profiles zeta of
    ``integral p zeta dx`` with ``|| |d/dx|**sigma zeta ||_2 = 1``, attained
    by ``zeta`` proportional to ``|d/dx|**(-2 sigma) p``.
    """
    p.require_mean_zero("dual pairing norm")
    return seminorm(p, -sigma)


def interpolation_gap(p, s1, s2, theta):
    """Ratio of the interpolated seminorm to the Hoelder product of the ends.

    Returns ``seminorm(p, theta*s1 + (1-theta)*s2)`` divided by
    ``seminorm(p, s1)**theta * seminorm(p, s2)**(1-theta)``; at most 1 up to
    round-off.  A zero profile returns 0 by convention.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    num = seminorm(p, theta * s1 + (1.0 - theta) * s2)
    d1 = seminorm(p, s1)
    d2 = seminorm(p, s2)
    if d1 == 0.0 or d2 == 0.0:
        if num == 0.0:
            return 0.0
        raise ZeroDivisionError(
            "interpolation endpoints vanish while the midpoint does not; "
            "profile state is corrupted"
        )
    return num / (d1**theta * d2 ** (1.0 - theta))


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
    k = np.abs(g.grid.wavenumbers)
    damp = np.exp(-np.outer(depths, k))
    n = g.grid.num_points
    return np.fft.ifft(damp * g.coeffs[None, :] * n, axis=1).real

