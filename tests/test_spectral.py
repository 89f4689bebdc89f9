import math

import numpy as np
import pytest

from mslab.errors import ZeroModeNonzero
from mslab.field import StripConfig
from mslab.spectral import (
    Grid,
    SpectralProfile,
    derivative,
    fractional_operator,
    resample,
    resolved_grid,
    seminorm,
)
from conftest import band_limited_profile, dft_oracle, full_wavenumbers, harmonic_extension, strip_levels


@pytest.fixture
def grid():
    return Grid(2.0 * np.pi, 64)


class TestGrid:
    def test_invariants(self, grid):
        assert grid.spacing * grid.num_points == pytest.approx(grid.length, rel=1e-15)
        k = grid.wavenumbers
        n = grid.num_points
        # the nonnegative half of numpy's full spectrum, Nyquist mode included
        assert np.array_equal(k, np.abs(full_wavenumbers(grid)[: n // 2 + 1]))
        assert k[-1] == np.pi * n / grid.length
        assert np.array_equal(grid.multiplicity, np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0])
        assert grid.multiplicity.sum() == n

    @pytest.mark.parametrize("n", [4, 12, 100])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            Grid(1.0, n)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Grid(-1.0, 64)


class TestProfile:
    def test_round_trip(self, grid, rng):
        samples = rng.standard_normal(grid.num_points)
        p = SpectralProfile.from_samples(grid, samples)
        back = SpectralProfile.from_coeffs(grid, p.coeffs)
        assert np.abs(back.samples - samples).max() <= 1e-12 * np.abs(samples).max()

    def test_from_coeffs_keeps_the_real_mean_and_nyquist(self, grid, rng):
        half = grid.num_points // 2 + 1
        coeffs = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        p = SpectralProfile.from_coeffs(grid, coeffs)
        assert p.coeffs.shape == (half,)
        assert p.coeffs[0] == coeffs[0].real and p.coeffs[-1] == coeffs[-1].real
        assert np.array_equal(p.coeffs[1:-1], coeffs[1:-1])
        # coeffs stay the transform of the samples: the direct sum, and a round trip
        scale = np.abs(p.coeffs).max()
        assert np.abs(dft_oracle(p.samples, grid)[:half] - p.coeffs).max() <= 1e-13 * scale
        back = SpectralProfile.from_samples(grid, p.samples)
        assert np.abs(back.coeffs - p.coeffs).max() <= 1e-13 * scale

    def test_mean_zero_flag(self, grid):
        p = SpectralProfile.from_samples(grid, np.sin(grid.nodes))
        assert p.is_mean_zero()
        q = SpectralProfile.from_samples(grid, 1.0 + np.sin(grid.nodes))
        assert not q.is_mean_zero()

    def test_mean_zero_gate_raises(self, grid):
        q = SpectralProfile.from_samples(grid, 1.0 + np.sin(grid.nodes))
        with pytest.raises(ZeroModeNonzero, match="widget"):
            q.require_mean_zero("widget")

    def test_mean_zero_gate_is_relative_at_every_amplitude(self, grid):
        # the tiny profile is the unit one times 1e-20, so it has mass as well
        wave = np.cos(2.0 * np.pi * grid.nodes / grid.length)
        for samples in (0.5e-20 + 1e-20 * wave, 0.5 + wave):
            with pytest.raises(ZeroModeNonzero):
                SpectralProfile.from_samples(grid, samples).require_mean_zero("widget")
        assert SpectralProfile.from_samples(grid, np.zeros(grid.num_points)).is_mean_zero()

    def test_without_mean(self, grid):
        q = SpectralProfile.from_samples(grid, 1.0 + np.sin(grid.nodes))
        p = q.without_mean()
        assert p.coeffs[0] == 0.0 and p.is_mean_zero()
        assert np.abs(p.samples - np.sin(grid.nodes)).max() <= 1e-14

    def test_parseval(self, grid, rng):
        for _ in range(100):
            p = band_limited_profile(grid, rng, mean_zero=False)
            quad = grid.spacing * np.sum(p.samples**2)
            spec = grid.length * np.sum(grid.multiplicity * np.abs(p.coeffs) ** 2)
            assert quad == pytest.approx(spec, rel=1e-10)

    def test_immutability(self, grid):
        p = SpectralProfile.from_samples(grid, np.sin(grid.nodes))
        with pytest.raises(ValueError):
            p.samples[0] = 1.0
        with pytest.raises(AttributeError):
            p.samples = None

    def test_evaluate_matches_nodes(self, grid, rng):
        p = band_limited_profile(grid, rng)
        vals = p.evaluate(grid.nodes[::5])
        assert np.abs(vals - p.samples[::5]).max() <= 1e-12


class TestResampling:
    def test_pad_then_truncate_is_bit_identical(self, grid, rng):
        # max_mode N/2 fills the Nyquist mode, which padding splits in halves
        p = band_limited_profile(grid, rng, max_mode=grid.num_points // 2)
        for n in (128, 1024):
            padded = resample(p, Grid(grid.length, n))
            assert padded.coeffs[0] == 0.0
            back = resample(padded, grid)
            assert np.array_equal(back.coeffs, p.coeffs) and np.array_equal(back.samples, p.samples)
            assert back.coeffs[0] == 0.0
        assert resample(p, grid) is p

    def test_truncation_keeps_a_resolved_profile(self, grid, rng):
        p = band_limited_profile(grid, rng, max_mode=10)
        coarse = resample(p, Grid(grid.length, 32))
        assert coarse.coeffs[0] == 0.0
        assert np.abs(coarse.samples - p.samples[::2]).max() <= 1e-14 * np.abs(p.samples).max()
        with pytest.raises(ValueError):
            resample(p, Grid(2.0 * grid.length, 32))

    @staticmethod
    def mode(n, m, amplitude=1.0, length=2.0 * np.pi):
        coeffs = np.zeros(n // 2 + 1, dtype=complex)
        coeffs[m] = 0.5 * amplitude
        return SpectralProfile.from_coeffs(Grid(length, n), coeffs)

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_two_thirds_cut_decides_the_grid(self, n):
        assert resolved_grid(self.mode(4 * n, n // 3)).num_points == n
        assert resolved_grid(self.mode(4 * n, n // 3 + 1)).num_points == 2 * n
        # never finer than the profile's own grid, resolved or not
        assert resolved_grid(self.mode(n, n // 3 + 1)).num_points == n

    def test_flat_and_scaled_profiles(self, grid, rng):
        assert resolved_grid(SpectralProfile.from_samples(grid, np.zeros(64))) == Grid(grid.length, 8)
        p = band_limited_profile(Grid(grid.length, 512), rng, max_mode=40, decay=30.0)
        chosen = resolved_grid(p)
        assert 64 <= chosen.num_points < 512
        # h -> 2 h(x/2) scales every coefficient by 2 and keeps the modes
        scaled = SpectralProfile.from_coeffs(Grid(2.0 * grid.length, 512), 2.0 * p.coeffs)
        assert resolved_grid(scaled) == Grid(2.0 * grid.length, chosen.num_points)

    def test_rounding_noise_below_the_tolerance_is_not_content(self, grid):
        p = self.mode(256, 5)
        modes = np.arange(p.coeffs.size)
        coeffs = p.coeffs + 1e-13 * np.exp(1j * modes)
        noisy = SpectralProfile.from_coeffs(p.grid, coeffs)
        assert resolved_grid(noisy).num_points == 16
        nan = SpectralProfile.from_coeffs(p.grid, np.where(modes == 3, np.nan, p.coeffs))
        assert resolved_grid(nan).num_points == 256


class TestFractionalOperator:
    def test_identity_at_order_zero(self, grid, rng):
        p = band_limited_profile(grid, rng)
        q = fractional_operator(p, 0.0)
        assert np.abs(q.samples - (p.samples - p.mean)).max() <= 1e-13

    def test_order_two_is_minus_second_derivative(self, grid, rng):
        p = band_limited_profile(grid, rng)
        q = fractional_operator(p, 2.0)
        d2 = derivative(p, 2)
        assert np.abs(q.samples + d2.samples).max() <= 1e-11 * max(1.0, q.max_abs())

    def test_single_mode_half_order(self, grid):
        # oracle: direct-summation transform of cos(3x), multiplier sqrt(3)
        samples = np.cos(3.0 * grid.nodes)
        coeffs = dft_oracle(samples, grid)
        k = full_wavenumbers(grid)
        mult = np.where(k != 0.0, np.abs(k) ** 0.5, 0.0)
        expected = np.fft.ifft(coeffs * mult * grid.num_points).real
        p = SpectralProfile.from_samples(grid, samples)
        q = fractional_operator(p, 0.5)
        assert np.abs(q.samples - expected).max() <= 1e-12
        assert np.abs(q.samples - np.sqrt(3.0) * samples).max() <= 1e-12

    def test_order_three_multiplier_is_the_c_library_pow(self):
        # np.power may run a vector kernel that differs from pow in the last bit
        grid = Grid(16.0, 512)
        q = fractional_operator(SpectralProfile.from_coeffs(grid, np.ones(257)), 3.0)
        assert np.array_equal(q.coeffs.real, [math.pow(k, 3) for k in grid.wavenumbers])

    def test_negative_order_needs_mean_zero(self, grid):
        p = SpectralProfile.from_samples(grid, 1.0 + np.cos(grid.nodes))
        with pytest.raises(ZeroModeNonzero):
            fractional_operator(p, -0.5)

    def test_semigroup(self, grid, rng):
        p = band_limited_profile(grid, rng)
        for a, b in [(0.5, 1.0), (-0.5, 2.0), (1.3, -0.4)]:
            two_step = fractional_operator(fractional_operator(p, a), b)
            direct = fractional_operator(p, a + b)
            scale = max(direct.max_abs(), 1e-30)
            assert np.abs(two_step.samples - direct.samples).max() <= 1e-10 * scale


class TestSeminorm:
    def test_zero_profile(self, grid):
        p = SpectralProfile.from_samples(grid, np.zeros(grid.num_points))
        assert seminorm(p, 0.7) == 0.0

    def test_cos_first_order_quadrature_oracle(self, grid):
        # independent oracle: quadrature of (d/dx cos x)^2 = sin^2 over a period
        xs = np.linspace(0.0, 2.0 * np.pi, 20001)
        oracle = np.sqrt(np.trapezoid(np.sin(xs) ** 2, xs))
        p = SpectralProfile.from_samples(grid, np.cos(grid.nodes))
        assert seminorm(p, 1.0) == pytest.approx(oracle, rel=1e-7)
        assert seminorm(p, 1.0) == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_matches_l2_of_fractional_operator(self, grid, rng):
        for sigma in (0.5, 1.5, -0.5):
            p = band_limited_profile(grid, rng)
            assert seminorm(p, sigma) == pytest.approx(
                fractional_operator(p, sigma).l2_norm(), rel=1e-10
            )


class TestDualPairingNorm:
    """The norm of p on the unit ball of H^sigma is seminorm(p, -sigma)."""

    def test_zero(self, grid):
        p = SpectralProfile.from_samples(grid, np.zeros(grid.num_points))
        assert seminorm(p, -0.5) == 0.0

    def test_single_mode_saturation(self, grid):
        p = SpectralProfile.from_samples(grid, np.cos(2.0 * grid.nodes))
        product = seminorm(p, -0.5) * seminorm(p, 0.5)
        assert product == pytest.approx(p.l2_norm() ** 2, rel=1e-10)

    def test_brute_force_maximization(self, grid, rng):
        # oracle: maximize the pairing over random unit test profiles
        sigma = 0.5
        p = band_limited_profile(grid, rng)
        norm = seminorm(p, -sigma)
        best = 0.0
        for _ in range(50):
            zeta = band_limited_profile(grid, rng)
            pairing = grid.spacing * np.sum(p.samples * zeta.samples)
            best = max(best, abs(pairing) / seminorm(zeta, sigma))
        assert best <= norm * (1.0 + 1e-10)
        optimal = fractional_operator(p, -2.0 * sigma)
        pairing = grid.spacing * np.sum(p.samples * optimal.samples)
        assert abs(pairing) / seminorm(optimal, sigma) == pytest.approx(norm, rel=1e-9)


def interpolation_gap(p, s1, s2, theta):
    """Interpolated seminorm over the Hoelder product of the two ends."""
    mid = seminorm(p, theta * s1 + (1.0 - theta) * s2)
    return mid / (seminorm(p, s1) ** theta * seminorm(p, s2) ** (1.0 - theta))


class TestInterpolationGap:
    def test_single_mode_is_one(self, grid):
        p = SpectralProfile.from_samples(grid, np.sin(3.0 * grid.nodes))
        assert interpolation_gap(p, 0.2, 1.7, 0.4) == pytest.approx(1.0, abs=1e-12)

    def test_two_modes_in_unit_interval(self, grid):
        p = SpectralProfile.from_samples(grid, np.cos(grid.nodes) + np.cos(4.0 * grid.nodes))
        gap = interpolation_gap(p, 0.0, 1.0, 0.5)
        assert 0.0 < gap <= 1.0

    def test_hundred_random_profiles(self, grid, rng):
        for _ in range(100):
            p = band_limited_profile(grid, rng)
            s1, s2 = sorted(rng.uniform(-1.0, 2.5, size=2))
            theta = rng.uniform(0.05, 0.95)
            assert interpolation_gap(p, s1, s2, theta) <= 1.0 + 1e-10


class TestHarmonicExtension:
    def test_depth_zero_is_trace(self, grid, rng):
        g = band_limited_profile(grid, rng, mean_zero=False)
        field = harmonic_extension(g, [0.0])
        assert np.abs(field[0] - g.samples).max() <= 1e-12

    def test_single_mode_decay(self, grid):
        g = SpectralProfile.from_samples(grid, np.cos(grid.nodes))
        z = 0.7
        field = harmonic_extension(g, [z])
        assert np.abs(field[0] - np.exp(-z) * g.samples).max() <= 1e-12

    def test_zero_mode_propagates_unchanged(self, grid):
        g = SpectralProfile.from_samples(grid, np.full(grid.num_points, 2.5))
        field = harmonic_extension(g, [0.0, 3.0, 10.0])
        assert np.abs(field - 2.5).max() <= 1e-12

    def test_dirichlet_energy_identity(self, grid):
        # 2-d quadrature oracle for the half-strip Dirichlet energy
        g = SpectralProfile.from_samples(
            grid, np.cos(2.0 * grid.nodes) + np.cos(5.0 * grid.nodes)
        )
        depths = strip_levels(StripConfig(6.0, 400))
        field = harmonic_extension(g, depths)
        k = full_wavenumbers(grid)
        fx = np.fft.ifft(np.fft.fft(field, axis=1) * (1j * k)[None, :], axis=1).real
        fz = np.gradient(field, depths, axis=0)
        density = (fx**2 + fz**2).sum(axis=1) * grid.spacing
        energy = np.trapezoid(density, depths)
        assert energy == pytest.approx(seminorm(g, 0.5) ** 2, rel=0.01)
