import math

import numpy as np
import pytest
from scipy.integrate import quad

from mslab import evolution, field
from mslab.errors import SlopeBlowup, SolverDivergence, ZeroModeNonzero
from mslab.evolution import (
    MAX_STEPS,
    EvolutionConfig,
    Trajectory,
    kernel_mask,
    linear_solve_exact,
    nonlinear_step,
    run,
)
from mslab.diagnostics import triad_series
from mslab.field import StripConfig, default_strip_config, exterior_response
from mslab.geometry import build_state, sup_slope
from mslab.spectral import Grid, SpectralProfile, seminorm
from conftest import band_limited_profile, exact_linear_observables, wavelet_state


L = 2.0 * np.pi


def mode_profile(grid, k, amplitude=1.0):
    return SpectralProfile.from_samples(grid, amplitude * np.cos(k * grid.nodes))


class TestLinearSolveExact:
    def test_time_zero_identity(self, rng):
        grid = Grid(L, 64)
        h0 = band_limited_profile(grid, rng)
        out = linear_solve_exact(h0, 0.0, 2.0)
        assert np.abs(out.samples - h0.samples).max() <= 1e-14

    def test_single_mode_multiplier(self):
        grid = Grid(L, 64)
        h0 = mode_profile(grid, 1)
        out = linear_solve_exact(h0, 1.0, 1.0)
        assert np.abs(out.samples - np.exp(-1.0) * h0.samples).max() <= 1e-14

    def test_semigroup(self, rng):
        grid = Grid(L, 64)
        h0 = band_limited_profile(grid, rng)
        one = linear_solve_exact(linear_solve_exact(h0, 0.3, 2.0), 0.5, 2.0)
        two = linear_solve_exact(h0, 0.8, 2.0)
        assert np.abs(one.samples - two.samples).max() <= 1e-12 * h0.max_abs()

    def test_rejects_mass(self, strip):
        # run is the flow's one mean-zero gate, on both engines; the exact
        # multiplier is defined for every mode and keeps the mass
        grid = Grid(L, 64)
        h0 = SpectralProfile.from_samples(grid, 1.0 + np.cos(grid.nodes))
        for engine in ("linear", "nonlinear"):
            cfg = EvolutionConfig(engine, dt=1e-3, t_end=1e-3, grid=grid, strip=strip)
            with pytest.raises(ZeroModeNonzero):
                run(h0, cfg)
        out = linear_solve_exact(h0, 1.0, 2.0)
        assert out.mean == pytest.approx(h0.mean, rel=1e-14)


@pytest.fixture(scope="module")
def strip():
    return StripConfig(depth=9.2, num_layers=64)


class TestNonlinearStep:
    def test_equilibrium(self, strip):
        grid = Grid(L, 64)
        cfg = EvolutionConfig("nonlinear", dt=1e-3, t_end=1e-3, grid=grid, strip=strip)
        state = build_state(SpectralProfile.from_samples(grid, np.zeros(64)))
        _, out = nonlinear_step(state, cfg)
        assert out.h.max_abs() == 0.0

    def test_small_amplitude_matches_exact_linear(self, strip):
        grid = Grid(L, 256)
        h0 = mode_profile(grid, 2, 1e-3)
        cfg = EvolutionConfig("nonlinear", dt=1e-5, t_end=1e-5, grid=grid, strip=strip)
        _, stepped = nonlinear_step(build_state(h0), cfg)
        exact = linear_solve_exact(h0, 1e-5, 2.0)
        assert np.abs(stepped.h.samples - exact.samples).max() <= 1e-6 * h0.max_abs()

    def test_dt_self_convergence_first_order(self, strip):
        grid = Grid(L, 128)
        h0 = mode_profile(grid, 1, 0.2)
        t_end = 8e-3
        results = {}
        for divider in (1, 2, 4, 8):
            dt = 1e-3 / divider
            cfg = EvolutionConfig(
                "nonlinear", dt=dt, t_end=t_end, grid=grid, strip=strip,
                output_every=10**9,
            )
            results[divider] = run(h0, cfg).states[-1].h.samples
        reference = results[8]
        errs = [np.abs(results[d] - reference).max() for d in (1, 2, 4)]
        assert errs[0] / errs[1] >= 1.8
        assert errs[1] / errs[2] >= 1.8


class TestRun:
    def test_linear_engine_delegates(self, rng):
        grid = Grid(L, 64)
        h0 = band_limited_profile(grid, rng)
        h0 = SpectralProfile.from_samples(
            grid, 0.5 * h0.samples / sup_slope(build_state(h0))
        )
        cfg = EvolutionConfig("linear", dt=0.05, t_end=0.3, grid=grid, output_every=2)
        traj = run(h0, cfg)
        assert traj.status == "completed"
        for t, state in zip(traj.times, traj.states):
            exact = linear_solve_exact(h0, t, 2.0)
            assert np.abs(state.h.samples - exact.samples).max() <= 1e-13
        assert traj.solves == []

    @pytest.mark.parametrize("engine", ["linear", "nonlinear"])
    def test_snapshot_rule_with_off_cadence_end(self, engine, strip):
        # every output_every steps, and the last step even when off cadence
        grid = Grid(L, 32)
        h0 = mode_profile(grid, 1, amplitude=1e-3)
        cfg = EvolutionConfig(
            engine, dt=1e-3, t_end=7e-3, grid=grid, strip=strip, output_every=3
        )
        traj = run(h0, cfg)
        assert traj.times == pytest.approx([0.0, 3e-3, 6e-3, 7e-3], rel=1e-12)

    def test_residual_mean_is_projected_out(self):
        # a zero mode inside the gate would outlive the decay of the other
        # modes, until the triad's negative-order seminorms reject the state
        grid = Grid(16.0, 128)
        u = grid.nodes - 8.0
        bump = SpectralProfile.from_samples(grid, 0.05 * np.exp(-(u**2))).without_mean()
        coeffs = bump.coeffs.copy()
        coeffs[0] = 5e-13 * np.abs(coeffs).max()
        h0 = SpectralProfile.from_coeffs(grid, coeffs)
        strip = default_strip_config(grid, num_layers=32)
        for engine, dt, t_end in [("nonlinear", 1e-3, 2e-3), ("linear", 0.5, 40.0)]:
            cfg = EvolutionConfig(
                engine, dt=dt, t_end=t_end, grid=grid, strip=strip, output_every=10
            )
            traj = run(h0, cfg)
            assert all(state.h.coeffs[0] == 0.0 for state in traj.states)
        # the last loop ran the linear engine, whose late states have decayed
        assert len(triad_series(traj, strip)) == len(traj)

    def test_step_limit(self):
        grid = Grid(L, 32)
        EvolutionConfig("linear", dt=1e-6, t_end=MAX_STEPS * 1e-6, grid=grid)
        with pytest.raises(ValueError, match="limit"):
            EvolutionConfig("linear", dt=1e-6, t_end=2 * MAX_STEPS * 1e-6, grid=grid)

    def test_t_end_zero_single_snapshot(self, rng):
        grid = Grid(L, 64)
        h0 = band_limited_profile(grid, rng)
        h0 = SpectralProfile.from_samples(
            grid, 0.5 * h0.samples / sup_slope(build_state(h0))
        )
        cfg = EvolutionConfig("linear", dt=0.05, t_end=0.0, grid=grid)
        traj = run(h0, cfg)
        assert len(traj) == 1 and traj.times == [0.0]

    def test_nonlinear_energy_decreases(self, strip):
        from mslab.geometry import energy

        grid = Grid(16.0, 128)
        u = grid.nodes - 8.0
        samples = 0.2 * u * np.exp(-(u**2))
        samples -= samples.mean()
        h0 = SpectralProfile.from_samples(grid, samples)
        wide = StripConfig(depth=23.5, num_layers=32)
        cfg = EvolutionConfig(
            "nonlinear", dt=5e-4, t_end=0.03, grid=grid, strip=wide, output_every=10
        )
        traj = run(h0, cfg)
        assert traj.status == "completed"
        energies = [energy(s) for s in traj.states]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_mean_conserved(self, strip):
        grid = Grid(L, 128)
        h0 = mode_profile(grid, 1, 0.3)
        cfg = EvolutionConfig(
            "nonlinear", dt=5e-4, t_end=0.02, grid=grid, strip=strip, output_every=8
        )
        traj = run(h0, cfg)
        for state in traj.states:
            coeffs = state.h.coeffs
            assert abs(coeffs[0]) <= 1e-8 * np.abs(coeffs).max()

    def test_slope_blowup_status(self):
        # two-mode data whose sup-slope grows transiently as the faster
        # mode decays and stops cancelling the slower one
        grid = Grid(16.0, 128)
        x = 2.0 * np.pi * grid.nodes / 16.0
        samples = 0.8 * np.sin(2 * x) - 0.2 * np.sin(4 * x)
        samples -= samples.mean()
        h0 = SpectralProfile.from_samples(grid, samples)
        gate = sup_slope(build_state(h0)) + 1e-4
        wide = StripConfig(depth=23.5, num_layers=24)
        cfg = EvolutionConfig(
            "nonlinear", dt=2e-4, t_end=0.05, grid=grid, strip=wide,
            output_every=5, slope_gate=gate,
        )
        traj = run(h0, cfg)
        assert traj.status == "slope_blowup"
        # the solve keys on the curvature, which needs the whole grid; the
        # two-mode h alone would be resolved on 16 points
        assert traj.solves and {record.points for record in traj.solves} == {128}

    def test_initial_gate_violation_raises(self):
        grid = Grid(L, 64)
        h0 = mode_profile(grid, 1, 0.9)
        cfg = EvolutionConfig("linear", dt=0.1, t_end=1.0, grid=grid, slope_gate=0.5)
        with pytest.raises(SlopeBlowup):
            run(h0, cfg)

    def test_linear_nonlinear_difference_scales_with_amplitude(self, strip):
        # the solution map is odd in h (mirror the plane in z), so the
        # relative deviation of the nonlinear from the linear trajectory
        # vanishes quadratically with the amplitude; normalizing by the
        # amplitude cancels the time-discretization bias, which is itself
        # amplitude-proportional
        grid = Grid(L, 256)
        t_end = 5e-3
        normalized = {}
        for amp in (1e-3, 1e-2, 1e-1):
            h0 = mode_profile(grid, 2, amp)
            cfg = EvolutionConfig(
                "nonlinear", dt=5e-5, t_end=t_end, grid=grid, strip=strip,
                output_every=10**9,
            )
            normalized[amp] = run(h0, cfg).states[-1].h.samples / amp
        lin = linear_solve_exact(mode_profile(grid, 2, 1.0), t_end, 2.0).samples
        scale = np.linalg.norm(lin)
        d_mid = np.linalg.norm(normalized[1e-2] - normalized[1e-3]) / scale
        d_big = np.linalg.norm(normalized[1e-1] - normalized[1e-3]) / scale
        assert d_mid <= 1e-4  # engines agree at small amplitude
        assert 30.0 <= d_big / d_mid <= 300.0  # quadratic amplitude law

    def test_matches_the_cold_stepped_loop(self):
        # run solves each state once and steps from that solve, as
        # nonlinear_step does by itself
        state0 = wavelet_state(256, slope=0.9)
        grid = state0.grid
        n_steps = 12
        cfg = EvolutionConfig("nonlinear", dt=1e-4, t_end=n_steps * 1e-4, grid=grid)
        traj = run(state0.h, cfg)
        stepped = Trajectory()
        state = build_state(state0.h.without_mean())
        for step in range(n_steps):
            response, following = nonlinear_step(state, cfg)
            stepped.append(step * cfg.dt, state, response)
            state = following
        stepped.append(n_steps * cfg.dt, state, exterior_response(state))
        assert traj.status == "completed" and traj.times == stepped.times
        for a, b in zip(traj.states, stepped.states):
            assert np.array_equal(a.h.samples, b.h.samples)
        assert triad_series(traj) == triad_series(stepped)
        assert traj.solves == [response.solve for response in stepped.responses[:-1]]

    def test_runs_are_bit_identical(self):
        state0 = wavelet_state(128, slope=0.9)
        cfg = EvolutionConfig("nonlinear", dt=2e-4, t_end=1.2e-3, grid=state0.grid)
        first, second = run(state0.h, cfg), run(state0.h, cfg)
        assert first.times == second.times and first.solves == second.solves
        for a, b in zip(first.states, second.states):
            assert np.array_equal(a.h.samples, b.h.samples)
        assert triad_series(first) == triad_series(second)


class TestRunSolvesOnlyWhatIsRead:
    """The loop solves every state it steps from once, and ends by solving
    its final state."""

    N_STEPS = 12

    @pytest.fixture(scope="class")
    def state0(self):
        return wavelet_state(128, slope=0.9)

    def config(self, state0, output_every, engine="nonlinear"):
        return EvolutionConfig(
            engine, dt=1e-4, t_end=self.N_STEPS * 1e-4, grid=state0.grid, output_every=output_every,
        )

    def test_final_state_is_solved(self, state0):
        traj = run(state0.h, self.config(state0, 5))
        final, response = traj.states[-1], traj.responses[-1]
        fresh = exterior_response(build_state(final.h))
        assert np.array_equal(response.velocity.samples, fresh.velocity.samples)
        assert response[1:] == fresh[1:]
        assert len(traj.solves) == self.N_STEPS

    def test_every_step_solve_runs_inside_the_step(self, state0, monkeypatch):
        # the step's own span then holds its solve; only the final state is
        # solved outside a step
        inside = [False]
        where = []
        original_step, original_solve = evolution.nonlinear_step, field._solve

        def step(state, cfg):
            inside[0] = True
            try:
                return original_step(state, cfg)
            finally:
                inside[0] = False

        def solve(state):
            where.append(inside[0])
            return original_solve(state)

        monkeypatch.setattr(evolution, "nonlinear_step", step)
        monkeypatch.setattr(field, "_solve", solve)
        traj = run(state0.h, self.config(state0, 5))
        assert traj.status == "completed"
        assert where == [True] * self.N_STEPS + [False]

    def test_final_solve_failure_is_a_solver_failure(self, state0, monkeypatch):
        calls = [0]
        original = field._solve

        def failing_last(state):
            calls[0] += 1
            if calls[0] > self.N_STEPS:
                raise SolverDivergence("the final solve fails")
            return original(state)

        monkeypatch.setattr(field, "_solve", failing_last)
        traj = run(state0.h, self.config(state0, 5))
        assert traj.status == "solver_failure"
        assert len(traj) == 3 and len(traj.solves) == self.N_STEPS
        assert len(traj.responses) == 3 and all(response.solve for response in traj.responses)

    def test_linear_engine_solves_nothing(self, state0, monkeypatch):
        # every kept state carries its own flow's response, which the triad reads
        def no_solve(state):
            raise AssertionError("a linear run makes no exterior solve")

        monkeypatch.setattr(field, "_solve", no_solve)
        traj = run(state0.h, self.config(state0, 5, engine="linear"))
        assert traj.status == "completed" and len(traj) == 4
        assert len(traj.responses) == 4 and all(response.solve is None for response in traj.responses)
        assert [s.D for s in triad_series(traj)] == [response.dissipation for response in traj.responses]
        assert traj.solves == []


class TestKernelMask:
    def test_even_symmetry(self):
        grid = Grid(200.0, 512)
        g = kernel_mask(grid).samples
        assert np.abs(g[1:] - g[:0:-1]).max() <= 1e-12 * g.max()

    def test_unit_mass(self):
        grid = Grid(150.0, 512)
        g = kernel_mask(grid)
        assert grid.spacing * g.samples.sum() == pytest.approx(1.0, abs=1e-8)

    def test_value_at_origin(self):
        grid = Grid(200.0, 1024)
        g = kernel_mask(grid)
        oracle, _ = quad(lambda k: np.exp(-(k**3)) / np.pi, 0.0, 12.0)
        assert g.samples[0] == pytest.approx(oracle, abs=1e-4)
        assert oracle == pytest.approx(math.gamma(4.0 / 3.0) / np.pi, abs=1e-12)


class TestExactLinearObservables:
    def test_single_mode_closed_form(self):
        grid = Grid(L, 64)
        h0 = mode_profile(grid, 1)
        for t in (0.0, 0.5, 1.0):
            e_lin, d_lin, h0_norm = exact_linear_observables(h0, t, 1.0)
            assert e_lin == pytest.approx(np.pi * np.exp(-2.0 * t), rel=1e-12)
            assert d_lin == pytest.approx(np.pi * np.exp(-2.0 * t), rel=1e-12)
            assert h0_norm == pytest.approx(np.pi, rel=1e-12)

    def test_time_zero_matches_seminorms(self, rng):
        grid = Grid(L, 64)
        h0 = band_limited_profile(grid, rng)
        e_lin, d_lin, h0_norm = exact_linear_observables(h0, 0.0, 2.0)
        assert e_lin == pytest.approx(seminorm(h0, 1.0) ** 2, rel=1e-12)
        assert d_lin == pytest.approx(seminorm(h0, 2.5) ** 2, rel=1e-12)
        assert h0_norm == pytest.approx(seminorm(h0, -0.5) ** 2, rel=1e-12)

    def test_scaled_energy_sup_is_grid_stable(self):
        # sup_t t*E/H0 is finite and stable when the grid is refined
        sups = []
        for n in (256, 512):
            grid = Grid(32.0, n)
            u = grid.nodes - 16.0
            samples = 0.1 * u * np.exp(-(u**2))
            samples -= samples.mean()
            h0 = SpectralProfile.from_samples(grid, samples)
            ts = np.logspace(-3, 2, 100)
            values = [exact_linear_observables(h0, t, 2.0) for t in ts]
            h0_norm = values[0][2]
            sups.append(max(t * e for t, (e, _, _) in zip(ts, values)) / h0_norm)
        assert np.isfinite(sups).all()
        assert sups[1] == pytest.approx(sups[0], rel=1e-6)

    def test_rejects_mass(self):
        grid = Grid(L, 64)
        h0 = SpectralProfile.from_samples(grid, 1.0 + np.cos(grid.nodes))
        with pytest.raises(ZeroModeNonzero):
            exact_linear_observables(h0, 1.0, 2.0)
