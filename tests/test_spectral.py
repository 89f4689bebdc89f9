import numpy as np
import pytest

from mslab.errors import ZeroModeNonzero
from mslab.field import StripConfig
from mslab.spectral import (
    Grid,
    SpectralProfile,
    derivative,
    dual_pairing_norm,
    fractional_operator,
    harmonic_extension,
    interpolation_gap,
    seminorm,
)
from conftest import band_limited_profile, dft_oracle


@pytest.fixture
def grid():
    return Grid(2.0 * np.pi, 64)


class TestGrid:
    def test_invariants(self, grid):
        assert grid.spacing * grid.num_points == pytest.approx(grid.length, rel=1e-15)
        k = grid.wavenumbers
        n = grid.num_points
        # antisymmetric about zero except the unpaired -N/2 mode
        for m in range(1, n // 2):
            assert k[m] == -k[n - m]
        assert k[n // 2] == -np.pi * n / grid.length

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

    def test_hermitian_symmetry(self, grid, rng):
        p = SpectralProfile.from_samples(grid, rng.standard_normal(grid.num_points))
        n = grid.num_points
        mirrored = np.conj(p.coeffs[np.r_[0, n - 1:0:-1]])
        assert np.abs(p.coeffs - mirrored).max() <= 1e-13 * np.abs(p.coeffs).max()

    def test_mean_zero_flag(self, grid):
        p = SpectralProfile.from_samples(grid, np.sin(grid.nodes))
        assert p.is_mean_zero()
        q = SpectralProfile.from_samples(grid, 1.0 + np.sin(grid.nodes))
        assert not q.is_mean_zero()

    def test_mean_zero_gate_raises(self, grid):
        q = SpectralProfile.from_samples(grid, 1.0 + np.sin(grid.nodes))
        with pytest.raises(ZeroModeNonzero, match="widget"):
            q.require_mean_zero("widget")

    def test_without_mean(self, grid):
        q = SpectralProfile.from_samples(grid, 1.0 + np.sin(grid.nodes))
        p = q.without_mean()
        assert p.coeffs[0] == 0.0 and p.is_mean_zero()
        assert np.abs(p.samples - np.sin(grid.nodes)).max() <= 1e-14

    def test_parseval(self, grid, rng):
        for _ in range(100):
            p = band_limited_profile(grid, rng, mean_zero=False)
            quad = grid.spacing * np.sum(p.samples**2)
            spec = grid.length * np.sum(np.abs(p.coeffs) ** 2)
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
        k = grid.wavenumbers
        mult = np.where(k != 0.0, np.abs(k) ** 0.5, 0.0)
        expected = np.fft.ifft(coeffs * mult * grid.num_points).real
        p = SpectralProfile.from_samples(grid, samples)
        q = fractional_operator(p, 0.5)
        assert np.abs(q.samples - expected).max() <= 1e-12
        assert np.abs(q.samples - np.sqrt(3.0) * samples).max() <= 1e-12

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
    def test_zero(self, grid):
        p = SpectralProfile.from_samples(grid, np.zeros(grid.num_points))
        assert dual_pairing_norm(p, 0.5) == 0.0

    def test_single_mode_saturation(self, grid):
        p = SpectralProfile.from_samples(grid, np.cos(2.0 * grid.nodes))
        product = dual_pairing_norm(p, 0.5) * seminorm(p, 0.5)
        assert product == pytest.approx(p.l2_norm() ** 2, rel=1e-10)

    def test_brute_force_maximization(self, grid, rng):
        # oracle: maximize the pairing over random unit test profiles
        sigma = 0.5
        p = band_limited_profile(grid, rng)
        norm = dual_pairing_norm(p, sigma)
        best = 0.0
        for _ in range(50):
            zeta = band_limited_profile(grid, rng)
            pairing = grid.spacing * np.sum(p.samples * zeta.samples)
            best = max(best, abs(pairing) / seminorm(zeta, sigma))
        assert best <= norm * (1.0 + 1e-10)
        optimal = fractional_operator(p, -2.0 * sigma)
        pairing = grid.spacing * np.sum(p.samples * optimal.samples)
        assert abs(pairing) / seminorm(optimal, sigma) == pytest.approx(norm, rel=1e-9)


class TestInterpolationGap:
    def test_single_mode_is_one(self, grid):
        p = SpectralProfile.from_samples(grid, np.sin(3.0 * grid.nodes))
        assert interpolation_gap(p, 0.2, 1.7, 0.4) == pytest.approx(1.0, abs=1e-12)

    def test_two_modes_in_unit_interval(self, grid):
        p = SpectralProfile.from_samples(grid, np.cos(grid.nodes) + np.cos(4.0 * grid.nodes))
        gap = interpolation_gap(p, 0.0, 1.0, 0.5)
        assert 0.0 < gap <= 1.0

    def test_zero_profile_is_zero(self, grid):
        p = SpectralProfile.from_samples(grid, np.zeros(grid.num_points))
        assert interpolation_gap(p, 0.0, 1.0, 0.5) == 0.0

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
        depths = StripConfig(6.0, 400, 50.0).levels()
        field = harmonic_extension(g, depths)
        k = grid.wavenumbers
        fx = np.fft.ifft(np.fft.fft(field, axis=1) * (1j * k)[None, :], axis=1).real
        fz = np.gradient(field, depths, axis=0)
        density = (fx**2 + fz**2).sum(axis=1) * grid.spacing
        energy = np.trapezoid(density, depths)
        assert energy == pytest.approx(seminorm(g, 0.5) ** 2, rel=0.01)
