import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mslab.diagnostics import (
    CSV_CHECKS,
    TRIAD_FIELDS,
    RatioReport,
    TriadSample,
    check_algebraic,
    check_decay_rates,
    check_differential,
    check_lyapunov,
    compute_H,
    run_checks,
    triad_series,
)
from mslab import diagnostics, field
from mslab.cli import main
from mslab.errors import (
    InsufficientSamples,
    RegimeNeverEntered,
    SolverDivergence,
    ZeroModeNonzero,
)
from mslab.evolution import EvolutionConfig, Trajectory, linear_response, linear_solve_exact, run
from mslab.config import build_initial_profile
from mslab.field import StripConfig, exterior_response
from mslab.geometry import build_state, sup_slope, to_arclength
from mslab.spectral import Grid, SpectralProfile, resample, seminorm
from conftest import (
    bump_state,
    check_curvature_evolution,
    dense_arclength,
    exact_linear_observables,
    panel_sweep_H,
    poisson_box_energy,
    wavelet_state,
)


L = 2.0 * np.pi


def make_state(grid, samples):
    return SpectralProfile.from_samples(grid, samples - samples.mean())


def mode_state(grid, amplitude, k=2.0):
    return build_state(make_state(grid, amplitude * np.cos(k * grid.nodes)))


def proxy_samples(ts, E, D, H=None, **extra):
    """Build synthetic TriadSample lists from callables of t."""
    H = H or (lambda t: 0.0)
    out = []
    for t in ts:
        e, d, h = E(t), D(t), H(t)
        fields = dict(
            t=t, E=e, D=d, H=h, Hhalf=h, sup_slope=0.0, sup_h=0.0,
            E2D=e * e * d, intVs2=extra.get("intVs2", lambda t: 0.0)(t),
            curv_L2=0.0, kappa_half_sq=0.0, kappa_neg1_sq=0.0, hx_l2=0.0, hxx_l2=0.0,
            h_l3=0.0,
        )
        out.append(TriadSample(**fields))
    return out


class TestComputeH:
    def test_flat_zero(self):
        grid = Grid(L, 64)
        assert compute_H([make_state(grid, np.zeros(64))]).tolist() == [0.0]

    def test_small_mode_value_and_hhalf_ratio(self):
        # H -> eps^2 L/(4k); the ratio to the negative-half seminorm is 1/2
        grid = Grid(L, 256)
        eps, k = 1e-3, 2
        h = make_state(grid, eps * np.cos(k * grid.nodes))
        (value,) = compute_H([h])
        assert value == pytest.approx(eps**2 * L / (4.0 * k), rel=5e-3)
        hhalf = seminorm(h, -0.5) ** 2
        assert value / hhalf == pytest.approx(0.5, rel=5e-3)

    def test_quartic_scaling(self):
        grid = Grid(L, 128)
        h = make_state(grid, 0.2 * np.sin(grid.nodes) + 0.05 * np.cos(2 * grid.nodes))
        (base,) = compute_H([h])
        lam = 2.3
        scaled = SpectralProfile.from_samples(Grid(lam * L, 128), lam * h.samples)
        (value,) = compute_H([scaled])
        assert value == pytest.approx(lam**4 * base, rel=1e-6)

    def test_rejects_mass(self):
        grid = Grid(L, 64)
        h = SpectralProfile.from_samples(grid, 0.1 + 0.1 * np.cos(grid.nodes))
        with pytest.raises(ZeroModeNonzero):
            compute_H([h])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: bump_state(512),
            lambda: bump_state(1024),
            lambda: wavelet_state(256),
            lambda: mode_state(Grid(L, 256), 1e-3),
            # amplitude 2 on a unit cell: across the 1839 panels the top mode
            # decays by e^{-25736}, far outside the float64 exponent range,
            # which the carry's decay recursion never leaves
            lambda: mode_state(Grid(1.0, 2048), 2.0, k=2.0 * np.pi),
        ],
        ids=["bump-512", "bump-1024", "wavelet-0.9", "small-mode", "amplitude-2"],
    )
    def test_matches_panel_sweep(self, make):
        state = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (value,) = compute_H([state.h])
        assert value == pytest.approx(panel_sweep_H(state), rel=1e-12, abs=0.0)

    def test_bounded_memory(self):
        # the per-panel sweep holds whole (panels x modes) arrays: 50 MiB at N = 2048
        h = bump_state(2048).h
        tracemalloc.start()
        try:
            compute_H([h])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_stack_matches_one_state_sweeps(self):
        # padding to the stack's panel count adds exact zeros, so each profile
        # reads its own one-profile H; the flat profile reads exactly zero
        grid = Grid(16.0, 256)
        u = grid.nodes - 8.0
        stack = [
            make_state(grid, 0.15 * np.exp(-(u**2)) + 0.06 * np.exp(-((u - 2.0) ** 2) / 0.3)),
            bump_state(256).h,
            wavelet_state(256).h,
            make_state(grid, np.zeros(256)),
            mode_state(grid, 1e-3, k=2.0 * np.pi * 2.0 / 16.0).h,
        ]
        values = compute_H(stack)
        assert values.dtype == np.float64 and values.shape == (len(stack),)
        assert values[3] == 0.0
        for h, value in zip(stack, values):
            (alone,) = compute_H([h])
            assert value == pytest.approx(alone, rel=1e-13, abs=0.0)

    def test_sweep_crosses_a_stack_boundary(self):
        grid = Grid(16.0, 64)
        u = grid.nodes - 8.0
        stack = [
            build_state(make_state(grid, a * np.exp(-(u**2)) + b * u * np.exp(-(u**2))))
            for a, b in zip(np.linspace(0.05, 0.3, 70), np.linspace(0.2, -0.2, 70))
        ]
        values = compute_H([state.h for state in stack])
        assert len(values) == 70
        for state, value in zip(stack, values):
            assert value == pytest.approx(panel_sweep_H(state), rel=1e-12, abs=0.0)

    def test_rejects_mixed_grids(self):
        with pytest.raises(ValueError, match="one grid"):
            compute_H([bump_state(64).h, bump_state(128).h])

    @pytest.mark.parametrize("count, n", [(64, 256), (10, 1024)])
    def test_stack_memory(self, count, n):
        grid = Grid(16.0, n)
        u = grid.nodes - 8.0
        stack = [make_state(grid, a * u * np.exp(-(u**2))) for a in np.linspace(0.1, 0.3, count)]
        tracemalloc.start()
        try:
            compute_H(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_poisson_box_oracle(self):
        grid = Grid(16.0, 256)
        u = grid.nodes - 8.0
        samples = 0.15 * np.exp(-(u**2))
        state = build_state(make_state(grid, samples))
        (ours,) = compute_H([state.h])
        oracle = poisson_box_energy(state, n_x=128, n_z=640)
        assert ours == pytest.approx(oracle, rel=0.03)


@pytest.fixture(scope="module")
def strip():
    return StripConfig(depth=9.2, num_layers=48)


class TestTriadSeries:
    def test_zero_trajectory(self, strip):
        grid = Grid(L, 64)
        state = build_state(make_state(grid, np.zeros(64)))
        traj = Trajectory()
        for t in (0.0, 0.1, 0.2):
            traj.append(t, state, exterior_response(state))
        samples = triad_series(traj, strip)
        for s in samples:
            assert s.E == s.D == s.H == s.Hhalf == s.E2D == 0.0
            assert s.intVs2 == s.curv_L2 == 0.0

    def test_one_compute_H_call_per_trajectory(self, monkeypatch):
        calls = []
        original = diagnostics.compute_H

        def counting(profiles):
            calls.append(list(profiles))
            return original(profiles)

        monkeypatch.setattr(diagnostics, "compute_H", counting)
        # the bump's h is resolved on 128 of its 256 points at every snapshot
        grid = Grid(16.0, 256)
        cfg = EvolutionConfig("linear", dt=1e-3, t_end=0.045, grid=grid)
        traj = run(bump_state(256).h, cfg)
        samples = triad_series(traj)
        assert len(calls) == 1 and len(calls[0]) == len(traj) == 46
        coarse = Grid(16.0, 128)
        for resolved, state in zip(calls[0], traj.states):
            assert resolved.grid == coarse
            assert np.array_equal(resolved.coeffs, resample(state.h, coarse).coeffs)
        assert [s.H for s in samples] == original(calls[0]).tolist()

    @pytest.mark.parametrize(
        "engine, n, dt, steps, every, bound",
        [("nonlinear", 512, 6e-4, 35, 5, 5e-9), ("linear", 1024, 2e-3, 9, 1, 3e-8)],
        ids=["bump_relax", "linear_cli"],
    )
    def test_resolved_H_against_the_config_grid(self, engine, n, dt, steps, every, bound):
        # the workloads' shapes, where H runs on 256 and on 128 points; the
        # bounds come from the N-vs-2N table of H (ROADMAP item 15, standard
        # bump): 1.1e-9 from 256 to 512, and 5.5e-9 summed from 128 to 1024
        # next to 1.4e-8 from 64 to 128.  Measured 1.2e-9 and 1.3e-8 relative
        cfg = EvolutionConfig(engine, dt=dt, t_end=steps * dt, grid=Grid(16.0, n), output_every=every)
        traj = run(bump_state(n).h, cfg)
        assert traj.status == "completed"
        resolved = np.array([s.H for s in triad_series(traj)])
        own = compute_H([state.h for state in traj.states])
        assert np.abs(resolved / own - 1.0).max() <= bound

    def test_linear_mode_matches_observables_with_dictionary(self):
        # physical E is half the linear-section proxy, physical D twice it
        grid = Grid(L, 256)
        eps, k = 1e-3, 2
        h0 = make_state(grid, eps * np.cos(k * grid.nodes))
        fine = StripConfig(depth=9.2, num_layers=96)
        cfg = EvolutionConfig("linear", dt=2e-3, t_end=0.02, grid=grid, output_every=2)
        traj = run(h0, cfg)
        samples = triad_series(traj, fine)
        for s in samples:
            e_lin, d_lin, _ = exact_linear_observables(h0, s.t, 2.0)
            assert s.E == pytest.approx(0.5 * e_lin, rel=1e-5)
            assert s.D == pytest.approx(2.0 * d_lin, rel=1e-2)

    def test_time_ordered_and_energy_nonincreasing(self, strip):
        grid = Grid(L, 128)
        h0 = make_state(grid, 0.2 * np.cos(grid.nodes))
        cfg = EvolutionConfig(
            "nonlinear", dt=5e-4, t_end=0.02, grid=grid, strip=strip, output_every=8
        )
        samples = triad_series(run(h0, cfg), strip)
        ts = [s.t for s in samples]
        assert ts == sorted(ts)
        for a, b in zip(samples, samples[1:]):
            assert b.E <= a.E * (1.0 + 1e-3)

    def test_int_vs2_matches_arclength_seminorm(self):
        # int V_s^2 ds on the x-grid against the resampled |d/ds| seminorm
        grid = Grid(16.0, 256)
        u = grid.nodes - 8.0
        wavelet = make_state(grid, u * np.exp(-(u**2)))
        h = SpectralProfile.from_samples(
            grid, wavelet.samples * 0.9 / sup_slope(build_state(wavelet))
        )
        state = build_state(h)
        assert sup_slope(state) == pytest.approx(0.9, rel=1e-12)
        response = exterior_response(state)
        traj = Trajectory()
        traj.append(0.0, state, response)
        (sample,) = triad_series(traj)
        v = response.velocity
        reference = seminorm(to_arclength(state, v).without_mean(), 1.0) ** 2
        assert sample.intVs2 == pytest.approx(reference, rel=1e-9)

    def test_curve_seminorms_match_dense_transform(self):
        # the steep benchmark wavelet (N=256, sup|h_x| = 0.9) against the
        # explicit O(N^2) arclength sum
        grid = Grid(16.0, 256)
        u = grid.nodes - 8.0
        wavelet = make_state(grid, u * np.exp(-(u**2)))
        h = SpectralProfile.from_samples(
            grid, wavelet.samples * 0.9 / sup_slope(build_state(wavelet))
        )
        state = build_state(h)
        traj = Trajectory()
        traj.append(0.0, state, exterior_response(state))
        (sample,) = triad_series(traj)
        kappa_arc = dense_arclength(state, state.curvature).without_mean()
        assert sample.kappa_half_sq == pytest.approx(seminorm(kappa_arc, 0.5) ** 2, rel=1e-12)
        assert sample.kappa_neg1_sq == pytest.approx(seminorm(kappa_arc, -1.0) ** 2, rel=1e-12)


class TestOneSolvePerState:
    @pytest.fixture
    def solves(self, monkeypatch):
        count = [0]
        original = field._solve

        def counting(state):
            count[0] += 1
            return original(state)

        monkeypatch.setattr(field, "_solve", counting)
        return count

    def test_run_and_diagnostics_share_the_solve(self, solves):
        grid = Grid(L, 64)
        n_steps = 4
        cfg = EvolutionConfig("nonlinear", dt=5e-4, t_end=n_steps * 5e-4, grid=grid, output_every=1)
        traj = run(make_state(grid, 0.2 * np.cos(grid.nodes)), cfg)
        assert traj.status == "completed" and len(traj) == n_steps + 1
        samples = triad_series(traj)
        check_curvature_evolution(traj)
        assert solves[0] == n_steps + 1
        assert triad_series(traj) == samples
        assert solves[0] == n_steps + 1

        # fresh states of the same profiles are solved again, to the same triad
        fresh = Trajectory()
        for t, state in zip(traj.times, traj.states):
            fresh_state = build_state(state.h)
            fresh.append(t, fresh_state, exterior_response(fresh_state))
        assert triad_series(fresh) == samples
        assert solves[0] == 2 * (n_steps + 1)

    @pytest.mark.parametrize("engine", ["linear", "nonlinear"])
    def test_triad_series_solves_nothing(self, solves, engine):
        # the triad reads the responses the run kept with its states
        grid = Grid(L, 64)
        n_steps = 4
        cfg = EvolutionConfig(engine, dt=5e-4, t_end=n_steps * 5e-4, grid=grid, output_every=1)
        traj = run(make_state(grid, 0.2 * np.cos(grid.nodes)), cfg)
        assert solves[0] == (n_steps + 1 if engine == "nonlinear" else 0)
        before = solves[0]
        samples = triad_series(traj)
        assert solves[0] == before
        assert [s.D for s in samples] == [response.dissipation for response in traj.responses]

    def test_unresolved_state_ends_the_run(self, tmp_path, capsys):
        # mode 22 lies above the 2/3 cut of N = 64: the solve of the initial
        # state refuses it, so the run keeps no state and takes no step,
        # and simulate writes header-only files and exits 4
        grid = Grid(L, 64)
        cfg = EvolutionConfig("nonlinear", dt=1e-4, t_end=3e-4, grid=grid, output_every=1)
        traj = run(make_state(grid, 1e-3 / 22.0 * np.cos(22.0 * grid.nodes)), cfg)
        assert traj.status == "solver_failure" and len(traj) == 0
        assert isinstance(traj.failure, SolverDivergence) and traj.failure.__traceback__ is None
        assert traj.solves == []
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "initial_data": {"preset": "mode", "amplitude": 1e-3 / 22.0, "wavenumber": 22},
            "evolution": {"engine": "nonlinear", "dt": 1e-4, "t_end": 3e-4, "output_every": 1,
                          "grid": {"length": L, "num_points": 64}},
        }))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 4
        for name in ("trajectory.csv", "triad.csv", "solver.csv"):
            assert len((out / name).read_text().splitlines()) == 1
        # the header names the grid's samples even without a kept state
        header = (out / "trajectory.csv").read_text().strip()
        assert header == ",".join(["t"] + [f"h_{j}" for j in range(64)])
        captured = capsys.readouterr()
        assert "status: solver_failure; 0 snapshots" in captured.out
        assert "the grid does not resolve the interface" in captured.err


class TestCheckAlgebraic:
    def test_flat_trajectory_vacuous_pass(self, strip):
        grid = Grid(L, 64)
        state = build_state(make_state(grid, np.zeros(64)))
        traj = Trajectory()
        for t in (0.0, 0.1, 0.2):
            traj.append(t, state, exterior_response(state))
        reports = check_algebraic(triad_series(traj, strip))
        assert all(r.passed for r in reports)
        assert all(r.empirical_sup == 0.0 for r in reports)

    def test_single_linear_mode_curvature_ratio_constant(self):
        # all three quantities decay as exp(-2 mu k^3 t): the ratio is flat
        grid = Grid(L, 256)
        h0 = make_state(grid, 5e-3 * np.cos(2.0 * grid.nodes))
        fine = StripConfig(depth=9.2, num_layers=96)
        cfg = EvolutionConfig("linear", dt=5e-3, t_end=0.05, grid=grid, output_every=2)
        samples = triad_series(run(h0, cfg), fine)
        ratios = [s.curv_L2 / (s.E ** (1 / 3) * s.D ** (2 / 3)) for s in samples]
        assert max(ratios) / min(ratios) - 1.0 <= 1e-2

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            check_algebraic(proxy_samples([0.0], lambda t: 1.0, lambda t: 1.0))


class TestRegistry:
    def test_families_emit_exactly_the_registry(self, strip):
        grid = Grid(L, 64)
        h0 = make_state(grid, 5e-3 * np.cos(2.0 * grid.nodes))
        cfg = EvolutionConfig("linear", dt=5e-3, t_end=0.02, grid=grid)
        samples = triad_series(run(h0, cfg), strip)
        reports = check_differential(samples) + check_algebraic(samples) + [check_lyapunov(samples)]
        assert {r.name for r in reports} == set(CSV_CHECKS)
        assert all(r.passed for r in reports)
        assert [r.threshold for r in reports] == [CSV_CHECKS[r.name] for r in reports]
        # run_checks returns the same reports, in registry order
        by_name = {r.name: r for r in reports}
        assert run_checks(samples) == [by_name[name] for name in CSV_CHECKS]

    def test_regime_never_entered_is_a_skip(self):
        # E^2 D = 1 stays above LYAPUNOV_EPSILON at every sample
        samples = proxy_samples([0.0, 1.0, 2.0], lambda t: 1.0, lambda t: 1.0)
        reports = run_checks(samples)
        assert [r.name for r in reports] == list(CSV_CHECKS)
        (lyapunov,) = [r for r in reports if r.name == "lyapunov_e2d"]
        assert lyapunov == RatioReport("lyapunov_e2d", 0.0, CSV_CHECKS["lyapunov_e2d"], None, 0, None, 0)
        assert all(r.passed is not None for r in reports if r is not lyapunov)

    def test_csv_columns_are_the_sample_fields(self):
        assert TRIAD_FIELDS == tuple(TriadSample.__dataclass_fields__)
        assert len(TRIAD_FIELDS) == 15
        with pytest.raises(TypeError):
            TriadSample(*range(10))  # every field is required


class TestCheckDifferential:
    def test_linear_mode_proxy_triad(self):
        # proxy triad E = pi e^{-2t}, D = 2 pi e^{-2t} satisfies dE/dt = -D
        ts = np.linspace(0.0, 1.0, 201)
        samples = proxy_samples(
            ts, lambda t: np.pi * np.exp(-2 * t), lambda t: 2 * np.pi * np.exp(-2 * t)
        )
        reports = {r.name: r for r in check_differential(samples)}
        assert reports["energy_dissipation"].empirical_sup <= 1e-3

    def test_dd_negative_sign_case(self):
        # dD/dt < -int V_s^2 makes the ratio nonpositive, trivially bounded
        ts = np.linspace(0.0, 1.0, 11)
        samples = proxy_samples(
            ts,
            lambda t: np.exp(-t),
            lambda t: np.exp(-t),
            intVs2=lambda t: 0.0,
        )
        reports = {r.name: r for r in check_differential(samples)}
        assert reports["dissipation_rate"].empirical_sup <= 0.0
        assert reports["dissipation_rate"].passed

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            check_differential(proxy_samples([0.0, 1.0], lambda t: 1.0, lambda t: 1.0))

    def test_times_must_increase(self):
        for ts in ([0.0, 0.3, 0.1], [0.0, 0.1, 0.1]):
            with pytest.raises(InsufficientSamples, match="equal or decreasing t"):
                check_differential(proxy_samples(ts, lambda t: 1.0, lambda t: 1.0))


def test_linear_engine_dissipates_its_own_d():
    # the linear engine's D is the rate at which its own flow lowers E, so
    # energy_dissipation reads Simpson's error alone at every amplitude
    # (measured 1.1e-5 at 0.05, 0.15 and 0.3); the exterior solve's D,
    # which the nonlinear flow dissipates, is off by O(amplitude^2) here
    grid = Grid(16.0, 256)
    for amplitude in (0.05, 0.15, 0.3):
        h0 = build_initial_profile(grid, {"preset": "gaussian_bump", "amplitude": amplitude, "width": 1.05})
        traj = run(h0, EvolutionConfig("linear", dt=2e-3, t_end=0.042, grid=grid))
        reports = {r.name: r for r in check_differential(triad_series(traj))}
        assert reports["energy_dissipation"].empirical_sup <= 1e-4


def test_linear_engine_d_is_the_pairing_of_its_velocity():
    # V = mu |d/dx|^3 h / sqrt(1+h_x^2) and D = -integral kappa V ds, from numpy alone
    grid = Grid(16.0, 256)
    mobility = 1.5
    h0 = build_initial_profile(grid, {"preset": "gaussian_bump", "amplitude": 0.3, "width": 1.0})
    traj = run(h0, EvolutionConfig("linear", dt=2e-3, t_end=0.01, grid=grid, mobility=mobility))
    k = 2.0 * np.pi * np.fft.fftfreq(grid.num_points, d=grid.spacing)
    for sample, state in zip(triad_series(traj), traj.states):
        v = mobility * np.fft.ifft(np.abs(k) ** 3 * np.fft.fft(state.h.samples)).real / state.line_element
        d = -grid.spacing * np.sum(state.curvature.samples * v * state.line_element)
        assert sample.D == pytest.approx(d, rel=1e-12)
        assert sample.E2D == pytest.approx(sample.E**2 * d, rel=1e-12)


class TestCheckLyapunov:
    def test_linear_mode_decreasing(self):
        ts = np.linspace(0.0, 1.0, 21)
        samples = proxy_samples(
            ts, lambda t: 1e-2 * np.exp(-2 * t), lambda t: 1e-2 * np.exp(-2 * t)
        )
        report = check_lyapunov(samples)
        assert report.passed

    def test_flat_is_nonincreasing(self):
        samples = proxy_samples([0.0, 1.0, 2.0], lambda t: 0.0, lambda t: 0.0)
        assert check_lyapunov(samples).passed

    def test_regime_never_entered(self):
        samples = proxy_samples([0.0, 1.0], lambda t: 10.0, lambda t: 10.0)
        with pytest.raises(RegimeNeverEntered):
            check_lyapunov(samples)

    def test_detects_increase(self):
        samples = proxy_samples([0.0, 1.0, 2.0], lambda t: 1e-3 * (1 + t), lambda t: 1e-3)
        assert not check_lyapunov(samples).passed


class TestCheckDecayRates:
    def test_single_mode_all_finite(self):
        # the late window starts at 5 pi^(3/4) = 11.8
        ts = np.linspace(0.01, 15.0, 40)
        samples = proxy_samples(
            ts,
            lambda t: np.pi * np.exp(-2 * t),
            lambda t: 2 * np.pi * np.exp(-2 * t),
            H=lambda t: np.pi * np.exp(-2 * t),
        )
        reports = check_decay_rates(samples, np.pi)
        assert all(np.isfinite(r.empirical_sup) for r in reports)
        assert all(r.passed for r in reports)
        assert all(r.num_samples > 0 for r in reports)

    def test_empty_late_window_is_not_run(self):
        ts = np.linspace(0.01, 3.0, 40)
        samples = proxy_samples(ts, lambda t: np.pi * np.exp(-2 * t), lambda t: 2 * np.pi * np.exp(-2 * t))
        reports = {r.name: r for r in check_decay_rates(samples, np.pi)}
        for name in ("rate_t2d", "rate_slope", "rate_height"):
            assert reports[name].passed is None and reports[name].num_samples == 0
        assert reports["rate_te"].passed and reports["rate_te"].num_samples == 40

    def test_requires_positive_h0(self):
        samples = proxy_samples([0.0, 1.0], lambda t: 1.0, lambda t: 1.0)
        with pytest.raises(ValueError):
            check_decay_rates(samples, 0.0)


class TestScaleInvariance:
    def test_reports_invariant_under_rescaling(self):
        # h -> lambda h(x/lambda), t -> lambda^3 t leaves every ratio fixed
        lam = 1.9

        def reports_for(scale):
            grid = Grid(scale * 16.0, 128)
            u = grid.nodes - scale * 8.0
            samples = scale * 0.12 * (u / scale) * np.exp(-((u / scale) ** 2))
            h0 = make_state(grid, samples)
            strip = StripConfig(depth=scale * 23.5, num_layers=48)
            cfg = EvolutionConfig(
                "linear",
                dt=scale**3 * 4e-3,
                t_end=scale**3 * 0.02,
                grid=grid,
                strip=strip,
                output_every=1,
            )
            samples = triad_series(run(h0, cfg), strip)
            return (
                check_algebraic(samples)
                + check_differential(samples)
                + [check_lyapunov(samples)]
            )

        base = reports_for(1.0)
        scaled = reports_for(lam)
        for r1, r2 in zip(base, scaled):
            assert r1.name == r2.name
            scale = max(abs(r1.empirical_sup), 1e-12)
            assert abs(r2.empirical_sup - r1.empirical_sup) <= 1e-8 * scale


class TestCurvatureEvolution:
    def test_flat_trajectory_vacuous(self, strip):
        grid = Grid(L, 64)
        state = build_state(make_state(grid, np.zeros(64)))
        traj = Trajectory()
        for t in (0.0, 0.1, 0.2):
            traj.append(t, state, exterior_response(state))
        report = check_curvature_evolution(traj)
        assert report.passed and report.empirical_sup == 0.0

    def test_small_mode_linearized_identity(self):
        grid = Grid(L, 256)
        h0 = make_state(grid, 1e-3 * np.cos(2.0 * grid.nodes))
        fine = StripConfig(depth=9.2, num_layers=96)
        cfg = EvolutionConfig(
            "nonlinear", dt=5e-5, t_end=2e-3, grid=grid, strip=fine, output_every=1
        )
        traj = run(h0, cfg)
        report = check_curvature_evolution(traj)
        assert report.empirical_sup <= 1e-3

    def test_insufficient_samples(self, strip):
        grid = Grid(L, 64)
        traj = Trajectory()
        flat = build_state(make_state(grid, np.zeros(64)))
        traj.append(0.0, flat, exterior_response(flat))
        with pytest.raises(InsufficientSamples):
            check_curvature_evolution(traj)


def sides_report(lhs, rhs, threshold=10.0):
    """A report on lhs/rhs over samples at t = 0, 1, 2, ..."""
    lhs = np.asarray(lhs, dtype=float)
    return RatioReport.from_sides("x", lhs, rhs, threshold, np.arange(len(lhs), dtype=float))


class TestRatioReport:
    def test_pass_iff_sup_below_threshold(self):
        assert sides_report([0.5, 2.0], 1.0).passed
        assert not sides_report([11.0], 1.0).passed

    def test_excludes_tiny_rhs(self):
        report = sides_report([1.0, 1.0, np.inf, 3.0], [1e-15, 2.0, 0.0, 4.0])
        assert report.num_excluded == 2 and report.num_samples == 2
        assert report.empirical_sup == 0.75 and report.t_sup == 3.0 and report.passed

    def test_non_finite_ratio_fails(self):
        nan, inf = float("nan"), float("inf")
        for lhs, rhs in (
            ([1.0, nan], 1.0),
            ([nan, 1.0], 1.0),
            ([1.0, inf], 1.0),
            ([-inf, 1.0], 1.0),
            ([1.0, 1.0], [1.0, nan]),
            ([1.0, 1.0], [1.0, inf]),
            ([1.0, 1.0], [1.0, -inf]),
            ([1.0, 1e300], [1.0, 1e-10]),  # the ratio overflows
        ):
            assert not sides_report(lhs, rhs).passed, (lhs, rhs)

    def test_negative_sup_kept(self):
        report = sides_report([-3.0, -2.0, 5.0], [1.0, 1.0, 0.0])
        assert report.empirical_sup == -2.0 and report.num_samples == 2 and report.passed
        assert report.t_sup == 1.0 and report.num_excluded == 1

    def test_floor_is_relative_to_the_column(self):
        # both sides of a check scale together under h -> lambda h(x/lambda),
        # so the report must not change when they are scaled by any factor
        lhs, rhs = np.array([1.0, 1.0, 3.0]), np.array([1e-15, 2.0, 4.0])
        base = sides_report(lhs, rhs)
        assert base.num_excluded == 1 and base.empirical_sup == 0.75
        for factor in (1e-20, 1e20):
            scaled = sides_report(factor * lhs, factor * rhs)
            assert (scaled.empirical_sup, scaled.num_samples, scaled.num_excluded) == (
                base.empirical_sup, base.num_samples, base.num_excluded,
            )

    def test_no_usable_sample_passes_vacuously(self):
        report = sides_report([1.0, np.inf], [0.0, -1.0])
        assert report.passed and report.empirical_sup == 0.0 and report.t_sup is None
        assert (report.num_samples, report.num_excluded) == (0, 2)


def scalar_sides(s, prev, nxt, dt, h0):
    """The per-sample Python-float sides of every ratio check, the reference
    for the float64 column arithmetic of the check families."""
    de, dd, dh = ((getattr(nxt, f) - getattr(prev, f)) / (2.0 * dt) for f in ("E", "D", "H"))
    return {
        "curvature_l2": (s.curv_L2, s.E ** (1.0 / 3.0) * s.D ** (2.0 / 3.0)),
        "slope_e2d": (s.sup_slope, s.E2D ** (1.0 / 6.0)),
        "energy_hd": (s.E, np.sqrt(s.H * s.D)),
        "height_interp": (s.sup_h, (s.Hhalf * s.E**2) ** (1.0 / 6.0)),
        "slope_energy_hi": (s.hx_l2**2, (1.0 + np.sqrt(2.0)) * s.E),
        "slope_energy_lo": (2.0 * s.E, s.hx_l2**2),
        "height_l3": (s.h_l3, s.Hhalf ** (1.0 / 3.0) * s.hx_l2 ** (1.0 / 6.0) * s.hxx_l2 ** (1.0 / 6.0)),
        "energy_dissipation": (abs(de + (prev.D + 4.0 * s.D + nxt.D) / 6.0), s.D),
        "dissipation_rate": (dd + s.intVs2, s.D**2.5 + s.E * s.D**3),
        "distance_rate": (dh, np.sqrt(s.H) * s.E ** (1.0 / 6.0) * s.D ** (7.0 / 12.0)),
        "rate_t2d": (s.t**2 * s.D, h0),
        "rate_slope": (s.t ** (2.0 / 3.0) * s.sup_slope, np.sqrt(h0)),
        "rate_height": (s.t ** (1.0 / 3.0) * s.sup_h, np.sqrt(h0)),
        "height_he2": (s.sup_h, (s.H * s.E**2) ** (1.0 / 6.0)),
    }


def test_columns_match_scalar_arithmetic():
    # three samples: the middle one is the only centered-difference sample,
    # and H0 puts all three in the late window
    rng = np.random.default_rng(21)
    for _ in range(200):
        samples = [
            TriadSample(0.5 * i + 0.5, *(float(v) for v in rng.uniform(0.01, 3.0, len(TRIAD_FIELDS) - 1)))
            for i in range(3)
        ]
        reports = check_algebraic(samples) + check_differential(samples) + check_decay_rates(samples, 1e-3)
        dt = float(np.diff([s.t for s in samples]).mean())
        for r in reports:
            rows = samples[1:2] if r.name in ("energy_dissipation", "dissipation_rate", "distance_rate") else samples
            sides = [scalar_sides(s, samples[0], samples[2], dt, 1e-3).get(r.name) for s in rows]
            if sides[0] is not None:
                assert r.empirical_sup == max(lhs / rhs for lhs, rhs in sides), r.name


class TestNonFiniteSamples:
    def test_lyapunov_nan_step_fails(self):
        samples = proxy_samples(
            [0.0, 1.0, 2.0, 3.0], lambda t: float("nan") if t == 2.0 else 1e-2, lambda t: 1e-2
        )
        assert not check_lyapunov(samples).passed

    def test_differential_nan_dissipation_fails(self):
        # dE/dt = -D holds away from the NaN, so only the NaN can fail the checks
        decay = lambda t: np.exp(-t)  # noqa: E731
        samples = proxy_samples(
            np.linspace(0.0, 1.0, 9),
            decay,
            lambda t: float("nan") if t == 0.5 else np.exp(-t),
            H=decay,
        )
        assert check_differential(samples[:4])[0].passed
        failed = {r.name for r in check_differential(samples) if not r.passed}
        assert failed == {"energy_dissipation", "dissipation_rate", "distance_rate"}


    @pytest.mark.parametrize("column", ["E", "D"])
    def test_overflowing_sample_fails_without_raising(self, column):
        # H0 = pi puts the late window at t >= 5 pi^(3/4) = 11.8; row 35 is t = 13.5
        ts = np.linspace(0.01, 15.0, 40)
        decay = lambda t: np.pi * np.exp(-2 * t)  # noqa: E731
        samples = proxy_samples(ts, decay, lambda t: 2.0 * decay(t), H=decay)
        families = (check_algebraic, check_differential, lambda s: check_decay_rates(s, np.pi))
        assert all(r.passed for family in families for r in family(samples))
        samples[35] = replace(samples[35], **{column: 1e308})
        assert not all(r.passed for r in check_differential(samples))
        assert not all(r.passed for r in check_decay_rates(samples, np.pi))
        # each algebraic bound on D grows with D, so a huge D breaks none of them
        assert all(r.passed for r in check_algebraic(samples)) == (column == "D")


class TestCadence:
    def test_short_final_interval_counted(self):
        # a run whose end is off its output cadence closes with a shorter interval
        ts = [0.0, 0.1, 0.2, 0.3, 0.32]
        decay = lambda t: np.exp(-t)  # noqa: E731
        reports = check_differential(proxy_samples(ts, decay, decay, H=decay))
        assert all(r.num_samples == 3 for r in reports)

    def test_other_uneven_cadence_differenced(self):
        # E = D = e^{-t} satisfies dE/dt = -D; on these gaps the uniform
        # formulas over the mean gap read 0.11 and 0.16, these stencils 4.1e-5 and 1.6e-5
        decay = lambda t: np.exp(-t)  # noqa: E731
        for ts in ([0.0, 0.1, 0.2, 0.3, 0.45], [0.0, 0.1, 0.15, 0.25, 0.35]):
            reports = {r.name: r for r in check_differential(proxy_samples(ts, decay, decay, H=decay))}
            assert all(r.num_samples == 3 for r in reports.values())
            assert reports["energy_dissipation"].empirical_sup <= 1e-4

    def test_curvature_evolution_shares_the_rule(self, strip):
        grid = Grid(L, 64)
        flat = build_state(make_state(grid, np.zeros(64)))
        traj = Trajectory()
        response = exterior_response(flat)
        for t in (0.0, 0.1, 0.2, 0.25, 0.5):
            traj.append(t, flat, response)
        report = check_curvature_evolution(traj)
        # the flat state's three interior samples are 0/0, so left out
        assert report.passed and report.num_excluded == 3
        traj.times[-1] = 0.25  # Trajectory.append refuses a repeated time
        with pytest.raises(InsufficientSamples, match="equal or decreasing t"):
            check_curvature_evolution(traj)


class TestUnevenStencils:
    def test_exact_for_quadratics(self):
        # f = 3t^2 - 2t + 1 on random increasing times, one column per row
        t = np.cumsum(np.random.default_rng(5).uniform(0.01, 1.0, 12))
        derivative, mean = diagnostics._three_point_stencils(t)
        f = np.array([3 * t**2 - 2 * t + 1, t])
        antiderivative = t**3 - t**2 + t
        exact_mean = (antiderivative[2:] - antiderivative[:-2]) / (t[2:] - t[:-2])
        np.testing.assert_allclose(derivative(f), [6 * t[1:-1] - 2, np.ones(10)], rtol=1e-12)
        np.testing.assert_allclose(mean(f)[0], exact_mean, rtol=1e-12)
        np.testing.assert_allclose(mean(f)[1], (t[:-2] + t[2:]) / 2, rtol=1e-12)

    def test_log_spaced_exact_flow_passes(self):
        # the exact linear flow at 40 times from 1e-3 to 1, each gap 19%
        # longer than the one before; energy_dissipation was measured at
        # 5.3e-4 (at t = 0.70) before this bound of 1e-3 was written
        grid = Grid(16.0, 128)
        h0 = build_initial_profile(grid, {"preset": "gaussian_bump", "amplitude": 0.15, "width": 1.0})
        traj = Trajectory()
        for t in np.geomspace(1e-3, 1.0, 40):
            state = build_state(linear_solve_exact(h0, t, 2.0))
            traj.append(t, state, linear_response(state, 2.0))
        samples = triad_series(traj)
        reports = {r.name: r for r in check_differential(samples)}
        assert all(r.passed and r.num_samples == 38 for r in reports.values())
        assert reports["energy_dissipation"].empirical_sup <= 1e-3
        # the same triad with D doubled breaks dE/dt = -D by half of D
        doubled = {r.name: r for r in check_differential([replace(s, D=2.0 * s.D) for s in samples])}
        assert not doubled["energy_dissipation"].passed
        assert doubled["energy_dissipation"].empirical_sup >= 0.4

    def test_uniform_schedule_gives_the_closed_formulas(self):
        # the centered differences and the 1-4-1 Simpson rule over 2 dt
        grid = Grid(16.0, 128)
        traj = run(
            build_initial_profile(grid, {"preset": "gaussian_bump", "amplitude": 0.15, "width": 1.0}),
            EvolutionConfig("linear", dt=2e-3, t_end=0.042, grid=grid),
        )
        samples = triad_series(traj)
        c = diagnostics.triad_columns(samples)
        dt = (c.t[-1] - c.t[0]) / (len(c.t) - 1)
        E, D, H = c.E[1:-1], c.D[1:-1], c.H[1:-1]
        closed = {
            "energy_dissipation": np.abs((c.E[2:] - c.E[:-2]) / (2 * dt) + (c.D[:-2] + 4 * D + c.D[2:]) / 6) / D,
            "dissipation_rate": ((c.D[2:] - c.D[:-2]) / (2 * dt) + c.intVs2[1:-1]) / (D**2.5 + E * D**3),
            "distance_rate": (c.H[2:] - c.H[:-2]) / (2 * dt) / (np.sqrt(H) * E ** (1 / 6) * D ** (7 / 12)),
        }
        for r in check_differential(samples):
            assert r.num_samples == len(samples) - 2
            assert r.empirical_sup == pytest.approx(closed[r.name].max(), rel=1e-13, abs=0.0), r.name
