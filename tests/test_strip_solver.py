import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mslab import field
from mslab.cli import main
from mslab.errors import SolverDivergence
from mslab.evolution import EvolutionConfig, run
from mslab.field import (
    StripConfig,
    default_strip_config,
    dissipation,
    exterior_response,
    solve_exterior_fields,
    solve_strip,
)
from mslab.geometry import build_state, sup_slope
from mslab.spectral import Grid, SpectralProfile
from conftest import eta_derivative, row_x_derivative, simpson_weights, strip_volume_dissipation


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
    @pytest.mark.parametrize("depth", [1.0, 8.0, 32.0, 1000.0])
    def test_flat_interface_takes_one_iteration(self, depth, layers):
        # the preconditioner is the exact inverse of the h = 0 operator;
        # measured: worst residual 2.6e-10, at depth 1 with 48 layers
        grid = Grid(L, 64)
        strip = StripConfig(depth=depth, num_layers=layers)
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
        response = exterior_response(state)
        # measured: 5 iterations, and a residual of 1.5e-13 under the gate
        # 10 * GMRES_TOLERANCE * |kappa|
        assert 0 < response.solve.iterations <= 8
        limit = 10.0 * field.GMRES_TOLERANCE * np.linalg.norm(state.curvature.samples)
        assert 0.0 < response.solve.residual <= limit


class TestResidualGate:
    """The residual gate of ``solve_strip`` follows ``GMRES_TOLERANCE``."""

    def test_early_gmres_stop_raises(self, monkeypatch):
        # GMRES stopped at 1e-9 |b| leaves max|Au - b| = 1.3e-7 (measured),
        # above the gate 10 * GMRES_TOLERANCE * |b| = 2.2e-8
        early = field._gmres

        def stops_at_1e9(*args):
            with monkeypatch.context() as patch:
                patch.setattr(field, "GMRES_TOLERANCE", 1e-9)
                return early(*args)

        monkeypatch.setattr(field, "_gmres", stops_at_1e9)
        grid, state = steep_wavelet(0.9)
        strip = default_strip_config(grid, num_layers=48)
        kappa = state.curvature.samples
        with pytest.raises(SolverDivergence, match="elliptic residual"):
            solve_strip(grid, state.slope.samples, kappa - kappa.mean(), strip)


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
        # the steep wavelet's exterior solve takes 5 iterations
        grid, state = steep_wavelet(0.9)
        cfg = EvolutionConfig("nonlinear", dt=1e-4, t_end=3e-4, grid=grid)
        traj = run(state.h, cfg)
        assert traj.status == "solver_failure"
        assert len(traj) == 0

    def test_simulate_exits_4(self, tmp_path):
        raw = {
            "initial_data": {"preset": "gaussian_bump", "amplitude": 0.15, "width": 1.0},
            "evolution": {
                "engine": "nonlinear",
                "dt": 1e-4,
                "t_end": 3e-4,
                "grid": {"length": 16.0, "num_points": 128},
                "strip": {"num_layers": 24},
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 4


class TestVolumeQuadrature:
    """The volume quadrature of the strip field (``conftest``), an
    independent reading of D in its Dirichlet-energy form."""

    @pytest.mark.parametrize("m", [16, 17, 32, 33])
    def test_simpson_weights_integrate_cubics(self, m):
        eta = np.arange(m + 1) / m
        w = simpson_weights(m) / m
        for p in range(4):
            assert w @ eta**p == pytest.approx(1.0 / (p + 1), rel=1e-13)

    def test_eta_derivative_exact_on_quartics(self):
        m = 20
        eta = np.arange(m + 1) / m
        f = (1.0 - 2.0 * eta + 3.0 * eta**2 - eta**3 + 0.5 * eta**4)[:, None]
        exact = -2.0 + 6.0 * eta - 3.0 * eta**2 + 2.0 * eta**3
        assert np.abs(eta_derivative(f, 1.0 / m)[:, 0] - exact).max() <= 1e-10

    def test_row_x_derivative_is_spectral_without_nyquist(self):
        grid = Grid(16.0, 64)
        x = grid.nodes
        k1, k2, nyquist = 2.0 * np.pi / 16.0, 2.0 * np.pi * 31 / 16.0, np.pi * 64 / 16.0
        rows = np.array([np.sin(k1 * x), np.cos(k2 * x) + 2.0, np.cos(nyquist * x)])
        exact = np.array([k1 * np.cos(k1 * x), -k2 * np.sin(k2 * x), np.zeros_like(x)])
        assert np.abs(row_x_derivative(rows, grid) - exact).max() <= 1e-12 * k2

    @pytest.mark.parametrize("m", [32, 33])
    def test_resolved_bump_passes_the_cross_check(self, m):
        # the boundary integral's solve passes its resolution check, and the
        # strip's volume quadrature agrees with it: measured 5.4e-5 at m=32
        # and 5.1e-5 at m=33, where the strip's boundary pairing is off by
        # 3.5e-3 and 3.3e-3
        grid = Grid(16.0, 1024)
        u = grid.nodes - 8.0
        state = build_state(mean_zero(grid, 0.15 * np.exp(-((u / 0.95) ** 2))))
        response = exterior_response(state)
        fields = solve_exterior_fields(state, default_strip_config(grid, num_layers=m))
        assert abs(strip_volume_dissipation(fields, state) / response.dissipation - 1.0) <= 2e-4

    def test_under_resolved_strip_still_far_off(self):
        # measured mismatch 167% against the strip's own boundary pairing
        grid = Grid(L, 128)
        state = build_state(SpectralProfile.from_samples(grid, 0.02 * np.cos(40.0 * grid.nodes)))
        fields = solve_exterior_fields(state, StripConfig(depth=9.2, num_layers=16))
        assert strip_volume_dissipation(fields, state) / dissipation(fields, state) - 1.0 >= 1.0


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-c", "import sys, mslab.cli; assert 'scipy' not in sys.modules"],
        check=True,
        env=env,
    )
