import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from mslab.errors import SlopeGateViolation
from mslab.geometry import (
    build_state,
    energy,
    sup_slope,
    to_arclength,
    total_arclength,
)
from mslab.spectral import Grid, SpectralProfile, derivative, seminorm
from conftest import band_limited_profile, bump_state, dense_arclength, wavelet_state


@pytest.fixture
def grid():
    return Grid(2.0 * np.pi, 128)


def profile(grid, values):
    return SpectralProfile.from_samples(grid, values)


class TestBuildState:
    def test_flat(self, grid):
        state = build_state(profile(grid, np.zeros(grid.num_points)))
        assert state.curvature.max_abs() == 0.0
        assert np.abs(np.arctan(state.slope.samples)).max() == 0.0
        assert np.abs(state.line_element - 1.0).max() == 0.0

    def test_single_mode_curvature_pointwise(self, grid):
        # direct arithmetic oracle at every node
        eps, k = 0.05, 2
        x = grid.nodes
        state = build_state(profile(grid, eps * np.sin(k * x)))
        expected = (
            -eps * k**2 * np.sin(k * x) / (1.0 + eps**2 * k**2 * np.cos(k * x) ** 2) ** 1.5
        )
        assert np.abs(state.curvature.samples - expected).max() <= 1e-8 * np.abs(expected).max()

    def test_slope_critical_point(self, grid):
        state = build_state(profile(grid, np.cos(grid.nodes)))
        assert abs(state.slope.samples[0]) <= 1e-13

    def test_angle_slope_bracket(self, grid, rng):
        # |theta| <= |h_x| <= (pi/2)|theta| pointwise while sup|h_x| <= 1
        p = band_limited_profile(grid, rng)
        scale = 0.8 / max(build_state(p).slope.max_abs(), 1e-30)
        state = build_state(profile(grid, scale * p.samples))
        hx = np.abs(state.slope.samples)
        th = np.abs(np.arctan(state.slope.samples))
        mask = hx > 1e-12
        assert np.all(th[mask] <= hx[mask] * (1.0 + 1e-12))
        assert np.all(hx[mask] <= 0.5 * np.pi * th[mask] * (1.0 + 1e-12))

    def test_curvature_two_forms_agree(self, grid):
        # (h_x/sqrt(1+h_x^2))_x versus h_xx/(1+h_x^2)^{3/2}
        state = build_state(profile(grid, 0.3 * np.sin(grid.nodes) + 0.1 * np.cos(2 * grid.nodes)))
        tangent = SpectralProfile.from_samples(
            grid, state.slope.samples / state.line_element
        )
        first_form = derivative(tangent, 1).samples
        second_form = state.curvature.samples
        rel = np.linalg.norm(first_form - second_form) / np.linalg.norm(second_form)
        assert rel <= 1e-6

    def test_curvature_is_dtheta_ds(self, grid):
        state = build_state(profile(grid, 0.25 * np.sin(grid.nodes)))
        theta = SpectralProfile.from_samples(grid, np.arctan(state.slope.samples))
        theta_arc = to_arclength(state, theta)
        dtheta_ds = derivative(theta_arc, 1)
        kappa_arc = to_arclength(state, state.curvature)
        rel = np.linalg.norm(dtheta_ds.samples - kappa_arc.samples) / np.linalg.norm(
            kappa_arc.samples
        )
        assert rel <= 1e-4


class TestEnergy:
    def test_flat_zero(self, grid):
        assert energy(build_state(profile(grid, np.zeros(grid.num_points)))) == 0.0

    def test_cos_quadrature_oracle(self, grid):
        eps = 0.3
        oracle, _ = quad(lambda x: np.sqrt(1.0 + eps**2 * np.sin(x) ** 2) - 1.0, 0, 2 * np.pi)
        state = build_state(profile(grid, eps * np.cos(grid.nodes)))
        assert energy(state) == pytest.approx(oracle, rel=1e-10)
        assert energy(state) == pytest.approx(eps**2 * np.pi / 2.0, rel=eps**2)

    def test_energy_identity(self, grid, rng):
        # E = integral h_x^2/(sqrt(1+h_x^2)+1) dx, exact per quadrature node
        p = band_limited_profile(grid, rng)
        state = build_state(p)
        hx2 = state.slope.samples**2
        identity = grid.spacing * np.sum(hx2 / (np.sqrt(1.0 + hx2) + 1.0))
        assert energy(state) == pytest.approx(identity, rel=1e-14)

    def test_bracket_against_slope_norm(self, grid, rng):
        p = band_limited_profile(grid, rng)
        scale = 0.9 / max(build_state(p).slope.max_abs(), 1e-30)
        state = build_state(profile(grid, scale * p.samples))
        e = energy(state)
        hx_sq = grid.spacing * np.sum(state.slope.samples**2)
        assert 2.0 * e <= hx_sq * (1.0 + 1e-12)
        assert hx_sq <= (1.0 + np.sqrt(2.0)) * e * (1.0 + 1e-12)


class TestSupSlope:
    def test_flat(self, grid):
        assert sup_slope(build_state(profile(grid, np.zeros(grid.num_points)))) == 0.0

    def test_sampled_analytic_max(self, grid):
        state = build_state(profile(grid, 0.3 * np.sin(2.0 * grid.nodes)))
        assert sup_slope(state) == pytest.approx(0.6, rel=1e-3)

    def test_homogeneity(self, grid, rng):
        p = band_limited_profile(grid, rng)
        s1 = sup_slope(build_state(p))
        s2 = sup_slope(build_state(profile(grid, 3.5 * p.samples)))
        assert s2 == pytest.approx(3.5 * s1, rel=1e-12)


class TestToArclength:
    def test_flat_identity(self, grid, rng):
        state = build_state(profile(grid, np.zeros(grid.num_points)))
        q = band_limited_profile(grid, rng)
        out = to_arclength(state, q)
        assert out.grid.length == pytest.approx(grid.length, rel=1e-14)
        assert np.abs(out.samples - q.samples).max() <= 1e-11

    def test_constant_stays_constant(self, grid):
        state = build_state(profile(grid, 0.3 * np.sin(grid.nodes)))
        q = profile(grid, np.full(grid.num_points, 1.7))
        out = to_arclength(state, q)
        assert np.abs(out.samples - 1.7).max() <= 1e-10

    def test_total_arclength_replaces_length(self, grid):
        state = build_state(profile(grid, 0.3 * np.sin(grid.nodes)))
        out = to_arclength(state, state.h)
        assert out.grid.length == pytest.approx(total_arclength(state), rel=1e-12)
        assert out.grid.length > grid.length

    def test_seminorm_equivalence_bracket(self, grid, rng):
        # empirical check of the graph/arclength norm equivalence
        state = build_state(profile(grid, 0.2 * np.sin(grid.nodes)))
        for _ in range(10):
            q = band_limited_profile(grid, rng)
            q_arc = to_arclength(state, q)
            ratio = seminorm(q_arc, 0.5) / seminorm(q, 0.5)
            assert 0.5 <= ratio <= 2.0

    def test_slope_gate(self, grid):
        state = build_state(profile(grid, 1.2 * np.sin(grid.nodes)))
        with pytest.raises(SlopeGateViolation):
            to_arclength(state, state.h)

    def test_pointwise_oracle_on_curved_interface(self, grid):
        # preimages of the uniform arclength nodes by root finding on a
        # quadrature of the line element, independent of the spectral route
        x = grid.nodes
        state = build_state(profile(grid, 0.3 * np.sin(x) + 0.1 * np.cos(2 * x)))
        q = profile(grid, np.cos(x) + 0.5 * np.sin(3 * x))
        out = to_arclength(state, q)

        def line_element(y):
            return np.sqrt(1.0 + (0.3 * np.cos(y) - 0.2 * np.sin(2 * y)) ** 2)

        def s_of(y):
            return quad(line_element, 0.0, y, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

        assert out.grid.length == pytest.approx(s_of(grid.length), rel=1e-13)
        pre = np.array(
            [0.0]
            + [brentq(lambda y, t=t: s_of(y) - t, 0.0, grid.length, xtol=1e-14)
               for t in out.grid.nodes[1:]]
        )
        exact = np.cos(pre) + 0.5 * np.sin(3 * pre)
        assert np.abs(out.samples - exact).max() <= 1e-11

    def test_inverse_seminorm_of_curvature_is_angle_variance(self, grid):
        # kappa = dtheta/ds, so || |d_s|^{-1} kappa ||^2 = int (theta - mean)^2 ds
        x = grid.nodes
        state = build_state(profile(grid, 0.3 * np.sin(x) + 0.1 * np.cos(2 * x)))
        kappa_arc = to_arclength(state, state.curvature).without_mean()
        theta, le = np.arctan(state.slope.samples), state.line_element
        theta_bar = np.sum(theta * le) / np.sum(le)
        oracle = grid.spacing * np.sum((theta - theta_bar) ** 2 * le)
        assert seminorm(kappa_arc, -1.0) ** 2 == pytest.approx(oracle, rel=1e-12)

    def test_stays_on_the_grid(self, grid, monkeypatch):
        # the change of variables needs no evaluation off the x-grid
        def refuse(self, points):
            raise AssertionError("off-grid evaluation")

        monkeypatch.setattr(SpectralProfile, "evaluate", refuse)
        state = build_state(profile(grid, 0.3 * np.sin(grid.nodes)))
        to_arclength(state, state.curvature)

    @pytest.mark.parametrize("make", [bump_state, wavelet_state])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_matches_direct_sum(self, make, n):
        # every mode, Nyquist included, against the explicit O(N^2) sum
        state = make(n)
        out = to_arclength(state, state.curvature)
        direct = dense_arclength(state, state.curvature)
        assert out.grid == direct.grid
        scale = np.abs(direct.coeffs).max()
        assert np.abs(out.coeffs - direct.coeffs).max() <= 1e-12 * scale

    def test_no_dense_phase_matrix(self):
        # an N x N complex phase matrix alone would be 64 MiB at N = 2048
        state = bump_state(2048)
        tracemalloc.start()
        try:
            to_arclength(state, state.curvature)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
