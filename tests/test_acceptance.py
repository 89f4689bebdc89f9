"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
standard nonlinear run (gaussian bump, amplitude 0.15, N = 512) is shared
by the gradient-flow and Lyapunov criteria through a session fixture.
"""

import json
import math

import numpy as np
import pytest

from mslab.cli import fit_loglog_slope, main
from mslab.config import build_initial_profile
from mslab.diagnostics import (
    check_algebraic,
    check_curvature_evolution,
    check_decay_rates,
    check_differential,
    check_lyapunov,
    compute_H,
    triad_series,
)
from mslab.evolution import (
    EvolutionConfig,
    exact_linear_observables,
    kernel_mask,
    linear_solve_exact,
    nonlinear_step,
    run,
)
from mslab.field import (
    StripConfig,
    linear_dtn,
    normal_velocity,
    solve_exterior_fields,
    solve_strip,
)
from mslab.geometry import build_state
from mslab.spectral import (
    Grid,
    SpectralProfile,
    fractional_operator,
    harmonic_extension,
    interpolation_gap,
    seminorm,
)
from conftest import band_limited_profile, poisson_box_energy


def report(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="session")
def standard_run():
    """Amplitude-0.15 gaussian bump on N = 512, dt resolving the active modes."""
    grid = Grid(16.0, 512)
    strip = StripConfig(depth=23.5, num_layers=48, grading=32.0)
    h0 = build_initial_profile(
        grid, {"preset": "gaussian_bump", "amplitude": 0.15, "width": 1.0}
    )
    cfg = EvolutionConfig(
        "nonlinear", dt=6e-4, t_end=0.3, grid=grid, strip=strip, output_every=5
    )
    traj = run(h0, cfg)
    assert traj.status == "completed"
    return triad_series(traj, strip)


def test_criterion_1_spectral_identities(rng):
    grid = Grid(2.0 * np.pi, 128)
    ok = True
    for _ in range(100):
        p = band_limited_profile(grid, rng, mean_zero=False)
        quad_side = grid.spacing * np.sum(p.samples**2)
        spec_side = grid.length * np.sum(np.abs(p.coeffs) ** 2)
        ok &= abs(quad_side - spec_side) <= 1e-10 * quad_side

    for _ in range(25):
        p = band_limited_profile(grid, rng)
        a, b = rng.uniform(-1.0, 2.0, size=2)
        two = fractional_operator(fractional_operator(p, a), b)
        one = fractional_operator(p, a + b)
        ok &= np.abs(two.samples - one.samples).max() <= 1e-10 * max(one.max_abs(), 1e-30)

    for _ in range(100):
        p = band_limited_profile(grid, rng)
        s1, s2 = sorted(rng.uniform(-1.0, 2.5, size=2))
        ok &= interpolation_gap(p, s1, s2, rng.uniform(0.05, 0.95)) <= 1.0 + 1e-10

    g = SpectralProfile.from_samples(
        grid, np.cos(2.0 * grid.nodes) + np.cos(5.0 * grid.nodes)
    )
    depths = StripConfig(6.0, 400, 50.0).levels()
    field = harmonic_extension(g, depths)
    k = grid.wavenumbers
    fx = np.fft.ifft(np.fft.fft(field, axis=1) * (1j * k)[None, :], axis=1).real
    fz = np.gradient(field, depths, axis=0)
    energy = np.trapezoid((fx**2 + fz**2).sum(axis=1) * grid.spacing, depths)
    ok &= abs(energy / seminorm(g, 0.5) ** 2 - 1.0) <= 0.01
    report(1, "spectral identities", ok)


def test_criterion_2_flat_elliptic_exactness():
    k = 2
    errs = []
    for n, m in [(32, 16), (64, 32), (128, 64)]:
        grid = Grid(2.0 * np.pi, n)
        strip = StripConfig(depth=4.0, num_layers=m, grading=8.0)
        field = solve_strip(grid, np.zeros(n), np.cos(k * grid.nodes), strip)
        z = strip.levels()
        exact = (
            np.exp(-k * z)[:, None]
            * np.cos(k * grid.nodes)[None, :]
            * ((1.0 - np.exp(-2 * k * (strip.depth - z))) / (1.0 - np.exp(-2 * k * strip.depth)))[
                :, None
            ]
        )
        errs.append(np.abs(field.values - exact).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    report(2, "flat-interface elliptic exactness", min(orders) >= 1.9)


def test_criterion_3_linearization_consistency():
    grid = Grid(2.0 * np.pi, 256)
    eps, k = 1e-3, 3
    h0 = SpectralProfile.from_samples(grid, eps * np.cos(k * grid.nodes))
    state = build_state(h0)
    strip = StripConfig(depth=9.2, num_layers=96, grading=50.0)
    fields = solve_exterior_fields(state, strip)
    v = normal_velocity(fields, state)
    height_velocity = -state.line_element * v.samples
    target = linear_dtn(h0, 2.0).samples  # -2 mu0 |k|^3 hhat per mode
    ok = np.linalg.norm(height_velocity - target) <= 0.01 * np.linalg.norm(target)

    dt = 1e-5
    cfg = EvolutionConfig("nonlinear", dt=dt, t_end=dt, grid=grid, strip=strip)
    stepped = nonlinear_step(state, cfg)
    exact = linear_solve_exact(h0, dt, 2.0)
    ok &= np.abs(stepped.h.samples - exact.samples).max() <= 1e-6 * h0.max_abs()
    report(3, "linearization consistency", ok)


def test_criterion_4_gradient_flow_identity(standard_run):
    reports = {r.name: r for r in check_differential(standard_run)}
    ee = reports["energy_dissipation"]
    report(4, "gradient-flow identity dE/dt = -D", ee.empirical_sup <= 2e-2)


def test_criterion_5_lyapunov(standard_run):
    rep = check_lyapunov(standard_run, step_tol=1e-3)
    entered = min(s.E2D for s in standard_run) <= 1e-3
    report(5, "Lyapunov E^2 D nonincreasing", entered and rep.passed)


SWEEP_PRESETS = (
    {"preset": "gaussian_bump", "width": 1.0, "amplitudes": (0.08, 0.15)},
    {"preset": "mode", "wavenumber": 2, "amplitudes": (0.05, 0.12)},
    {"preset": "wavelet", "width": 1.0, "amplitudes": (0.1, 0.2)},
)


def _sweep_reports(n, m):
    grid = Grid(16.0, n)
    strip = StripConfig(depth=23.5, num_layers=m, grading=32.0)
    out = []
    for spec in SWEEP_PRESETS:
        for amplitude in spec["amplitudes"]:
            initial = {k: v for k, v in spec.items() if k != "amplitudes"}
            initial["amplitude"] = amplitude
            h0 = build_initial_profile(grid, initial)
            cfg = EvolutionConfig(
                "nonlinear", dt=1e-3, t_end=0.1, grid=grid, strip=strip, output_every=10
            )
            traj = run(h0, cfg)
            assert traj.status == "completed"
            samples = triad_series(traj, strip)
            key = f"{spec['preset']}@{amplitude}"
            out.append((key, {r.name: r for r in check_algebraic(samples)}))
    return out


def test_criterion_6_algebraic_suite():
    base = _sweep_reports(128, 48)
    doubled = _sweep_reports(256, 96)
    ok = True
    for (key, reports_base), (_, reports_doubled) in zip(base, doubled):
        for name, rep in reports_base.items():
            ok &= rep.passed and rep.threshold <= 10.0 + 1e-12
            fine = reports_doubled[name]
            ok &= fine.passed
            # grid stability: the universal constant does not grow under refinement
            ok &= fine.empirical_sup <= 1.2 * rep.empirical_sup + 1e-12
    report(6, "algebraic suite with grid stability", ok)


@pytest.fixture(scope="session")
def rates_setup(tmp_path_factory):
    config = {
        "initial_data": {"preset": "wavelet", "amplitude": 0.15, "width": 1.0},
        "evolution": {
            "engine": "linear",
            "dt": 4e-3,
            "t_end": 0.2,
            "mobility": 2.0,
            "grid": {"length": 32.0, "num_points": 512},
            "strip": {"num_layers": 80, "grading": 100.0},
            "output_every": 1,
        },
    }
    grid = Grid(32.0, 512)
    strip = StripConfig(
        depth=np.log(1e4) / (2.0 * np.pi / 32.0), num_layers=80, grading=100.0
    )
    h0 = build_initial_profile(grid, config["initial_data"])
    cfg = EvolutionConfig(
        "linear", dt=4e-3, t_end=0.2, grid=grid, strip=strip, output_every=1
    )
    samples = triad_series(run(h0, cfg), strip)
    path = tmp_path_factory.mktemp("rates") / "config.json"
    path.write_text(json.dumps(config))
    return h0, samples, path, tmp_path_factory.mktemp("rates-out")


def test_criterion_7_decay_rates(rates_setup):
    h0, samples, config_path, outdir = rates_setup
    h0_norm = samples[0].Hhalf
    t_late = 5.0 * h0_norm**0.75
    ok = True

    # supremum checks finite and matching the Fourier oracle (factor-2
    # dictionary: physical E is half the proxy, physical D twice it)
    sup_te = max(s.t * s.E / h0_norm for s in samples)
    sup_t2d = max(s.t**2 * s.D / h0_norm for s in samples if s.t >= t_late)
    oracle = [exact_linear_observables(h0, s.t, 2.0) for s in samples]
    sup_te_oracle = max(s.t * 0.5 * e / h0_norm for s, (e, _, _) in zip(samples, oracle))
    sup_t2d_oracle = max(
        s.t**2 * 2.0 * d / h0_norm for s, (_, d, _) in zip(samples, oracle) if s.t >= t_late
    )
    ok &= np.isfinite(sup_te) and np.isfinite(sup_t2d)
    ok &= abs(sup_te / sup_te_oracle - 1.0) <= 0.01
    ok &= abs(sup_t2d / sup_t2d_oracle - 1.0) <= 0.01

    for rep in check_decay_rates(samples, h0_norm):
        ok &= rep.passed

    window = [s for s in samples if s.t >= t_late]
    ts = [s.t for s in window]
    slope_e = fit_loglog_slope(ts, [s.E for s in window])
    slope_d = fit_loglog_slope(ts, [s.D for s in window])
    ok &= isinstance(slope_e, float) and -1.25 <= slope_e <= -0.95
    ok &= isinstance(slope_d, float) and -2.3 <= slope_d <= -1.8

    # same figures through the CLI surface
    report_path = outdir / "rates.json"
    code = main(["rates", "--config", str(config_path), "--out", str(report_path)])
    payload = json.loads(report_path.read_text())
    ok &= code == 0 and payload["overall_pass"]
    ok &= -1.25 <= payload["slopes"]["E"] <= -0.95
    ok &= -2.3 <= payload["slopes"]["D"] <= -1.8
    report(7, "theorem decay rates vs Fourier oracle", ok)


def test_criterion_8_self_similar_kernel():
    grid = Grid(200.0, 1024)
    mask = kernel_mask(grid)
    ok = np.abs(mask.samples[1:] - mask.samples[:0:-1]).max() <= 1e-12 * mask.samples.max()
    ok &= abs(grid.spacing * mask.samples.sum() - 1.0) <= 1e-6
    ok &= abs(mask.samples[0] - math.gamma(4.0 / 3.0) / np.pi) <= 1e-4

    # rescaled linear solution converges to (mass) * G
    big = Grid(400.0, 1024)
    u = big.nodes - 200.0
    h0 = SpectralProfile.from_samples(big, np.exp(-((u / 2.0) ** 2)))
    mass = big.spacing * h0.samples.sum()
    nodes_k, weights_k = np.polynomial.legendre.leggauss(2000)
    k_qd = 2.0 * (nodes_k + 1.0)  # [0, 4]
    w_qd = 2.0 * weights_k

    def mask_at(points):
        phases = np.cos(np.outer(points, k_qd))
        return phases @ (np.exp(-(k_qd**3)) * w_qd) / np.pi

    def selfsim_error(t):
        ht = linear_solve_exact(h0, t, 1.0)
        sel = np.abs(u) <= 100.0
        xhat = u[sel][::4] / t ** (1.0 / 3.0)
        values = t ** (1.0 / 3.0) * ht.samples[sel][::4]
        return np.abs(values - mass * mask_at(xhat)).max()

    e10, e100 = selfsim_error(10.0), selfsim_error(100.0)
    ok &= e10 / e100 >= 4.0
    report(8, "self-similar kernel", ok)


def test_criterion_9_h_oracle():
    grid = Grid(16.0, 256)
    ok = True
    for initial in (
        {"preset": "gaussian_bump", "amplitude": 0.15, "width": 1.0},
        {"preset": "wavelet", "amplitude": 0.2, "width": 1.0},
        {"preset": "mode", "amplitude": 0.12, "wavenumber": 2},
    ):
        state = build_state(build_initial_profile(grid, initial))
        ours = compute_H(state)
        oracle = poisson_box_energy(state, n_x=128, n_z=640)
        ok &= abs(ours / oracle - 1.0) <= 0.03

    h = build_initial_profile(grid, {"preset": "wavelet", "amplitude": 0.2, "width": 1.0})
    base = compute_H(build_state(h))
    lam = 2.3
    scaled = SpectralProfile.from_samples(Grid(lam * 16.0, 256), lam * h.samples)
    ok &= abs(compute_H(build_state(scaled)) / (lam**4 * base) - 1.0) <= 1e-6
    report(9, "squared-distance oracle and scaling", ok)


def test_criterion_10_curvature_evolution():
    def defect(n, m, dt, steps):
        grid = Grid(16.0, n)
        strip = StripConfig(depth=23.5, num_layers=m, grading=32.0)
        h0 = build_initial_profile(
            grid, {"preset": "gaussian_bump", "amplitude": 0.1, "width": 1.0}
        )
        cfg = EvolutionConfig(
            "nonlinear", dt=dt, t_end=steps * dt, grid=grid, strip=strip, output_every=1
        )
        traj = run(h0, cfg)
        return check_curvature_evolution(traj, strip).empirical_sup

    coarse = defect(256, 48, 1e-3, 20)
    fine = defect(512, 96, 5e-4, 20)
    report(10, "curvature-evolution identity", coarse <= 0.05 and fine < coarse)


def test_criterion_11_fault_injection(tmp_path):
    config = {
        "initial_data": {"preset": "mode", "amplitude": 0.05, "wavenumber": 2},
        "evolution": {
            "engine": "linear",
            "dt": 2e-3,
            "t_end": 0.04,
            "grid": {"length": 6.283185307179586, "num_points": 128},
            "strip": {"num_layers": 64, "grading": 40.0, "depth": 9.2},
            "output_every": 2,
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outdir = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(outdir)]) == 0

    csv_path = outdir / "triad.csv"
    rows = csv_path.read_text().strip().splitlines()
    middle = len(rows) // 2
    parts = rows[middle].split(",")
    parts[1] = f"{float(parts[1]) * 5.0 + 1.0:.17g}"
    rows[middle] = ",".join(parts)
    corrupted = tmp_path / "corrupted.csv"
    corrupted.write_text("\n".join(rows) + "\n")
    code = main([
        "verify", "--traj", str(corrupted), "--config", str(config_path),
        "--out", str(tmp_path / "report.json"),
    ])
    report(11, "fault injection fails verify with exit 5", code == 5)
