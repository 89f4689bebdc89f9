import tracemalloc
import warnings

import numpy as np
import pytest

from mslab.diagnostics import (
    CSV_CHECKS,
    TRIAD_FIELDS,
    RatioReport,
    TriadSample,
    check_algebraic,
    check_curvature_evolution,
    check_decay_rates,
    check_differential,
    check_lyapunov,
    compute_H,
    run_named_checks,
    triad_series,
)
from mslab import field
from mslab.errors import (
    CrossCheckFailure,
    InsufficientSamples,
    RegimeNeverEntered,
    ZeroModeNonzero,
)
from mslab.evolution import EvolutionConfig, Trajectory, exact_linear_observables, run
from mslab.field import StripConfig, default_strip_config, normal_velocity, solve_exterior_fields
from mslab.geometry import build_state, sup_slope, to_arclength
from mslab.spectral import Grid, SpectralProfile, seminorm
from conftest import (
    bump_state,
    dense_arclength,
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
        assert compute_H(build_state(make_state(grid, np.zeros(64)))) == 0.0

    def test_small_mode_value_and_hhalf_ratio(self):
        # H -> eps^2 L/(4k); the ratio to the negative-half seminorm is 1/2
        grid = Grid(L, 256)
        eps, k = 1e-3, 2
        h = make_state(grid, eps * np.cos(k * grid.nodes))
        state = build_state(h)
        value = compute_H(state)
        assert value == pytest.approx(eps**2 * L / (4.0 * k), rel=5e-3)
        hhalf = seminorm(h, -0.5) ** 2
        assert value / hhalf == pytest.approx(0.5, rel=5e-3)

    def test_quartic_scaling(self):
        grid = Grid(L, 128)
        h = make_state(grid, 0.2 * np.sin(grid.nodes) + 0.05 * np.cos(2 * grid.nodes))
        base = compute_H(build_state(h))
        lam = 2.3
        scaled = SpectralProfile.from_samples(Grid(lam * L, 128), lam * h.samples)
        assert compute_H(build_state(scaled)) == pytest.approx(lam**4 * base, rel=1e-6)

    def test_rejects_mass(self):
        grid = Grid(L, 64)
        h = SpectralProfile.from_samples(grid, 0.1 + 0.1 * np.cos(grid.nodes))
        with pytest.raises(ZeroModeNonzero):
            compute_H(build_state(h))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: bump_state(512),
            lambda: bump_state(1024),
            lambda: wavelet_state(256),
            lambda: mode_state(Grid(L, 256), 1e-3),
            # on a unit cell 64 sorted heights span more than 600/k_max, so
            # most blocks end at the exponent span, not at the row count
            lambda: mode_state(Grid(1.0, 2048), 2.0, k=2.0 * np.pi),
        ],
        ids=["bump-512", "bump-1024", "wavelet-0.9", "small-mode", "amplitude-2"],
    )
    def test_matches_panel_sweep(self, make):
        state = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = compute_H(state)
        assert value == pytest.approx(panel_sweep_H(state), rel=1e-12, abs=0.0)

    def test_bounded_memory(self):
        # the per-panel sweep holds whole (panels x modes) arrays: 50 MiB at N = 2048
        state = bump_state(2048)
        tracemalloc.start()
        try:
            compute_H(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_poisson_box_oracle(self):
        grid = Grid(16.0, 256)
        u = grid.nodes - 8.0
        samples = 0.15 * np.exp(-(u**2))
        state = build_state(make_state(grid, samples))
        ours = compute_H(state)
        oracle = poisson_box_energy(state, n_x=128, n_z=640)
        assert ours == pytest.approx(oracle, rel=0.03)


@pytest.fixture(scope="module")
def strip():
    return StripConfig(depth=9.2, num_layers=48, grading=32.0)


class TestTriadSeries:
    def test_zero_trajectory(self, strip):
        grid = Grid(L, 64)
        state = build_state(make_state(grid, np.zeros(64)))
        traj = Trajectory()
        for t in (0.0, 0.1, 0.2):
            traj.append(t, state) if t == 0.0 else traj.append(t, state)
        samples = triad_series(traj, strip)
        for s in samples:
            assert s.E == s.D == s.H == s.Hhalf == s.E2D == 0.0
            assert s.intVs2 == s.curv_L2 == 0.0

    def test_linear_mode_matches_observables_with_dictionary(self):
        # physical E is half the linear-section proxy, physical D twice it
        grid = Grid(L, 256)
        eps, k = 1e-3, 2
        h0 = make_state(grid, eps * np.cos(k * grid.nodes))
        fine = StripConfig(depth=9.2, num_layers=96, grading=50.0)
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
        strip = default_strip_config(grid, num_layers=48)
        traj = Trajectory()
        traj.append(0.0, state)
        (sample,) = triad_series(traj, strip)
        v = normal_velocity(solve_exterior_fields(state, strip), state)
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
        traj.append(0.0, state)
        (sample,) = triad_series(traj, default_strip_config(grid, num_layers=48))
        kappa_arc = dense_arclength(state, state.curvature).without_mean()
        assert sample.kappa_half_sq == pytest.approx(seminorm(kappa_arc, 0.5) ** 2, rel=1e-12)
        assert sample.kappa_neg1_sq == pytest.approx(seminorm(kappa_arc, -1.0) ** 2, rel=1e-12)


class TestOneSolvePerState:
    @pytest.fixture
    def solves(self, monkeypatch):
        count = [0]
        original = field.solve_exterior_fields

        def counting(state, strip, *rest):
            count[0] += 1
            return original(state, strip, *rest)

        monkeypatch.setattr(field, "solve_exterior_fields", counting)
        return count

    def test_run_and_diagnostics_share_the_solve(self, strip, solves):
        grid = Grid(L, 64)
        n_steps = 4
        cfg = EvolutionConfig(
            "nonlinear", dt=5e-4, t_end=n_steps * 5e-4, grid=grid, strip=strip, output_every=1
        )
        traj = run(make_state(grid, 0.2 * np.cos(grid.nodes)), cfg)
        assert traj.status == "completed" and len(traj) == n_steps + 1
        samples = triad_series(traj, strip)
        check_curvature_evolution(traj, strip)
        assert solves[0] == n_steps + 1

        # another strip solves each snapshot once more, never reusing the first
        other = StripConfig(depth=9.2, num_layers=64, grading=40.0)
        again = triad_series(traj, other)
        assert solves[0] == 2 * (n_steps + 1)
        fresh = Trajectory()
        for t, state in zip(traj.times, traj.states):
            fresh.append(t, build_state(state.h))
        assert again == triad_series(fresh, other)
        assert again != samples
        assert triad_series(traj, strip) == samples
        assert solves[0] == 3 * (n_steps + 1)

    def test_cross_check_raised_where_d_is_read(self):
        grid = Grid(L, 64)
        coarse = StripConfig(depth=9.2, num_layers=16, grading=1.0)
        cfg = EvolutionConfig(
            "nonlinear", dt=1e-4, t_end=3e-4, grid=grid, strip=coarse, output_every=1
        )
        traj = run(make_state(grid, 0.05 * np.cos(8.0 * grid.nodes)), cfg)
        assert traj.status == "completed" and len(traj) == 4
        with pytest.raises(CrossCheckFailure):
            triad_series(traj, coarse)


class TestCheckAlgebraic:
    def test_flat_trajectory_vacuous_pass(self, strip):
        grid = Grid(L, 64)
        state = build_state(make_state(grid, np.zeros(64)))
        traj = Trajectory()
        for t in (0.0, 0.1, 0.2):
            traj.append(t, state)
        reports = check_algebraic(triad_series(traj, strip))
        assert all(r.passed for r in reports)
        assert all(r.empirical_sup == 0.0 for r in reports)

    def test_single_linear_mode_curvature_ratio_constant(self):
        # all three quantities decay as exp(-2 mu k^3 t): the ratio is flat
        grid = Grid(L, 256)
        h0 = make_state(grid, 5e-3 * np.cos(2.0 * grid.nodes))
        fine = StripConfig(depth=9.2, num_layers=96, grading=50.0)
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
        # the named runner returns the same reports, in the configured order
        checks = tuple((name, thr) for name, (_, thr) in reversed(CSV_CHECKS.items()))
        by_name = {r.name: r for r in reports}
        assert run_named_checks(samples, checks) == [by_name[name] for name, _ in checks]

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

    def test_nonuniform_cadence_rejected(self):
        samples = proxy_samples([0.0, 0.1, 0.3], lambda t: 1.0, lambda t: 1.0)
        with pytest.raises(InsufficientSamples):
            check_differential(samples)


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
        ts = np.linspace(0.01, 3.0, 40)
        samples = proxy_samples(
            ts,
            lambda t: np.pi * np.exp(-2 * t),
            lambda t: 2 * np.pi * np.exp(-2 * t),
            H=lambda t: np.pi * np.exp(-2 * t),
        )
        reports = check_decay_rates(samples, np.pi)
        assert all(np.isfinite(r.empirical_sup) for r in reports)
        assert all(r.passed for r in reports)

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
            strip = StripConfig(depth=scale * 23.5, num_layers=48, grading=32.0)
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
            traj.append(t, state)
        report = check_curvature_evolution(traj, strip)
        assert report.passed and report.empirical_sup == 0.0

    def test_small_mode_linearized_identity(self):
        grid = Grid(L, 256)
        h0 = make_state(grid, 1e-3 * np.cos(2.0 * grid.nodes))
        fine = StripConfig(depth=9.2, num_layers=96, grading=50.0)
        cfg = EvolutionConfig(
            "nonlinear", dt=5e-5, t_end=2e-3, grid=grid, strip=fine, output_every=1
        )
        traj = run(h0, cfg)
        report = check_curvature_evolution(traj, fine)
        assert report.empirical_sup <= 1e-3

    def test_insufficient_samples(self, strip):
        grid = Grid(L, 64)
        traj = Trajectory()
        traj.append(0.0, build_state(make_state(grid, np.zeros(64))))
        with pytest.raises(InsufficientSamples):
            check_curvature_evolution(traj, strip)


class TestRatioReport:
    def test_pass_iff_sup_below_threshold(self):
        assert RatioReport.from_ratios("x", [0.5, 2.0], 10.0).passed
        assert not RatioReport.from_ratios("x", [11.0], 10.0).passed

    def test_excludes_tiny_rhs(self):
        from mslab.diagnostics import _ratio

        assert _ratio(1.0, 1e-15) is None
        assert _ratio(1.0, 2.0) == 0.5

    def test_non_finite_ratio_fails(self):
        nan, inf = float("nan"), float("inf")
        assert not RatioReport.from_ratios("x", [1.0, nan], 10.0).passed
        assert not RatioReport.from_ratios("x", [nan, 1.0], 10.0).passed
        assert not RatioReport.from_ratios("x", [1.0, inf], 10.0).passed
        assert not RatioReport.from_ratios("x", [-inf, 1.0], 10.0).passed

    def test_negative_sup_kept(self):
        report = RatioReport.from_ratios("x", [-3.0, -2.0, None], 10.0)
        assert report.empirical_sup == -2.0 and report.num_samples == 2 and report.passed


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


class TestCadence:
    def test_short_final_interval_left_out(self):
        # a run whose end is off its output cadence closes with a shorter interval
        ts = [0.0, 0.1, 0.2, 0.3, 0.32]
        decay = lambda t: np.exp(-t)  # noqa: E731
        reports = check_differential(proxy_samples(ts, decay, decay, H=decay))
        assert all(r.num_samples == 2 for r in reports)

    def test_other_uneven_cadence_rejected(self):
        for ts in ([0.0, 0.1, 0.2, 0.3, 0.45], [0.0, 0.1, 0.15, 0.25, 0.35]):
            samples = proxy_samples(ts, lambda t: 1.0, lambda t: 1.0)
            with pytest.raises(InsufficientSamples):
                check_differential(samples)

    def test_curvature_evolution_shares_the_rule(self, strip):
        grid = Grid(L, 64)
        flat = build_state(make_state(grid, np.zeros(64)))
        traj = Trajectory()
        for t in (0.0, 0.1, 0.2, 0.25):
            traj.append(t, flat)
        assert check_curvature_evolution(traj, strip).passed
        traj.append(0.5, flat)
        with pytest.raises(InsufficientSamples):
            check_curvature_evolution(traj, strip)
