import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mslab import field
from mslab.cli import main
from mslab.errors import CrossCheckFailure, SolverDivergence
from mslab.evolution import EvolutionConfig, run
from mslab.field import (
    StripConfig,
    default_strip_config,
    exterior_response,
    solve_exterior_fields,
    solve_strip,
)
from mslab.geometry import build_state, sup_slope
from mslab.spectral import Grid, SpectralProfile


L = 2.0 * np.pi
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def mean_zero(grid, samples):
    return SpectralProfile.from_samples(grid, samples - samples.mean()).without_mean()


def steep_wavelet(slope):
    """Wavelet on a cell of length 16, N=256, scaled to sup|h_x| = slope."""
    grid = Grid(16.0, 256)
    u = grid.nodes - 8.0
    w = mean_zero(grid, u * np.exp(-(u**2)))
    scale = slope / sup_slope(build_state(w)) * (1.0 - 1e-12)
    return grid, build_state(mean_zero(grid, scale * w.samples))


class TestGmres:
    @pytest.mark.parametrize("layers", [16, 48])
    @pytest.mark.parametrize("grading", [1.0, 8.0, 32.0, 1000.0])
    def test_flat_interface_takes_one_iteration(self, grading, layers):
        # the preconditioner is the exact inverse of the h = 0 operator;
        # measured: worst residual 2.3e-9, at grading 1000 with 48 layers
        grid = Grid(L, 64)
        strip = StripConfig(depth=4.0, num_layers=layers, grading=grading)
        result = solve_strip(grid, np.zeros(64), np.cos(2.0 * grid.nodes), strip)
        assert result.iterations == 1
        assert result.residual <= 1e-8

    def test_zero_data_takes_no_iteration(self):
        grid = Grid(L, 64)
        strip = StripConfig(depth=4.0, num_layers=16)
        result = solve_strip(grid, 0.5 * np.cos(grid.nodes), np.zeros(64), strip)
        assert result.iterations == 0
        assert result.residual == 0.0
        assert not result.values.any()

    def test_steep_wavelet_statistics_on_the_response(self):
        grid, state = steep_wavelet(1.0)
        strip = default_strip_config(grid, num_layers=48)
        response = exterior_response(state, strip)
        assert len(response.iterations) == len(response.residuals) == 2
        # measured: 25 iterations per side
        assert all(0 < it <= 40 for it in response.iterations)
        # the gate is 1e-8 * max(1, max|b|) >= 1e-8
        assert all(0.0 < r <= 1e-8 for r in response.residuals)


class TestSolverFailure:
    """A solve that runs out of GMRES iterations, with the cap lowered to 2."""

    @pytest.fixture(autouse=True)
    def two_iterations(self, monkeypatch):
        monkeypatch.setattr(field, "GMRES_MAX_ITERATIONS", 2)

    def test_solve_strip_raises_with_iteration_count(self):
        grid, state = steep_wavelet(0.9)
        strip = default_strip_config(grid, num_layers=48)
        kappa = state.curvature.samples
        with pytest.raises(SolverDivergence) as err:
            solve_strip(grid, state.slope.samples, kappa - kappa.mean(), strip)
        assert "2 iterations" in str(err.value)
        assert "residual" in str(err.value)

    def test_run_ends_with_solver_failure(self):
        grid = Grid(L, 64)
        strip = StripConfig(depth=9.2, num_layers=24, grading=16.0)
        cfg = EvolutionConfig("nonlinear", dt=1e-4, t_end=3e-4, grid=grid, strip=strip)
        traj = run(mean_zero(grid, 0.2 * np.sin(grid.nodes)), cfg)
        assert traj.status == "solver_failure"
        assert len(traj) == 1

    def test_simulate_exits_4(self, tmp_path):
        raw = {
            "initial_data": {"preset": "gaussian_bump", "amplitude": 0.15, "width": 1.0},
            "evolution": {
                "engine": "nonlinear",
                "dt": 1e-4,
                "t_end": 3e-4,
                "grid": {"length": 16.0, "num_points": 128},
                "strip": {"num_layers": 24, "grading": 32.0},
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 4


class TestVolumeQuadrature:
    @pytest.mark.parametrize("m", [16, 17, 32, 33])
    def test_simpson_weights_integrate_cubics(self, m):
        eta = np.arange(m + 1) / m
        w = field._simpson_weights(m) / m
        for p in range(4):
            assert w @ eta**p == pytest.approx(1.0 / (p + 1), rel=1e-13)

    def test_eta_derivative_exact_on_quartics(self):
        m = 20
        eta = np.arange(m + 1) / m
        f = (1.0 - 2.0 * eta + 3.0 * eta**2 - eta**3 + 0.5 * eta**4)[:, None]
        exact = -2.0 + 6.0 * eta - 3.0 * eta**2 + 2.0 * eta**3
        assert np.abs(field._eta_derivative(f, 1.0 / m)[:, 0] - exact).max() <= 1e-10

    @pytest.mark.parametrize("m", [32, 33])
    def test_resolved_bump_passes_the_cross_check(self, m):
        # the trapezoid-in-depth quadrature read +2.09% here and raised
        grid = Grid(16.0, 1024)
        u = grid.nodes - 8.0
        state = build_state(mean_zero(grid, 0.15 * np.exp(-((u / 0.95) ** 2))))
        response = exterior_response(state, default_strip_config(grid, num_layers=m))
        assert response.dissipation == response.boundary
        # measured: -0.34% at m=32, -0.32% at m=33
        assert abs(response.volume / response.boundary - 1.0) <= 0.005

    def test_under_resolved_strip_still_far_off(self):
        # measured mismatch 470%: the guard still sees an under-resolved strip
        grid = Grid(L, 64)
        state = build_state(SpectralProfile.from_samples(grid, 0.05 * np.cos(8.0 * grid.nodes)))
        coarse = StripConfig(depth=9.2, num_layers=16, grading=1.0)
        response = field._response(solve_exterior_fields(state, coarse), state)
        assert response.volume / response.boundary - 1.0 >= 1.0
        with pytest.raises(CrossCheckFailure):
            response.dissipation


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-c", "import sys, mslab.cli; assert 'scipy' not in sys.modules"],
        check=True,
        env=env,
    )
