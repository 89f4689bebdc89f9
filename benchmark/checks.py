"""Correctness checks on a workload's outputs, made apart from mslab.

Everything here uses numpy alone: the exact Fourier solution of the
linear flow, the energy recomputed from the height samples, and
properties the nonlinear flow must have (the energy falls, dE/dt = -D,
E^2 D does not grow, the slope stays below the gate, mass is conserved).
No stored copy of an earlier output is compared against.  Each check
returns ``{"name", "pass", "value"}`` with the worst value it saw.
"""

import numpy as np

#: |dE/dt + D| / D at every interior snapshot (centred difference of E)
ENERGY_DISSIPATION_TOL = 0.02
#: h rows of the linear engine against exp(-mobility |k|^3 t) hhat0, absolute
LINEAR_ROW_TOL = 1e-12
#: triad E against the energy recomputed from the h samples, relative
ENERGY_RTOL = 1e-10
#: |mean h| relative to sup|h|
MEAN_RTOL = 1e-13
#: snapshot times against the planned schedule, relative
TIME_RTOL = 1e-12


def _check(name, passed, value):
    return {"name": name, "pass": bool(passed), "value": float(value)}


def wavenumbers(num_points, length):
    return 2.0 * np.pi * np.fft.fftfreq(num_points, d=length / num_points)


def slopes(rows, length):
    """Spectral h_x of each row, with the unpaired Nyquist mode dropped."""
    rows = np.atleast_2d(rows)
    n = rows.shape[1]
    mult = 1j * wavenumbers(n, length)
    mult[n // 2] = 0.0
    return np.fft.ifft(np.fft.fft(rows, axis=1) * mult, axis=1).real


def energies(rows, length):
    """E = integral of sqrt(1+h_x^2) - 1, in a form free of cancellation."""
    hx2 = slopes(rows, length) ** 2
    n = hx2.shape[1]
    return (length / n) * np.sum(hx2 / (np.sqrt(1.0 + hx2) + 1.0), axis=1)


def exact_linear_rows(h0, times, length, mobility):
    """hhat(k, t) = exp(-mobility |k|^3 t) hhat0, one row per time."""
    k3 = np.abs(wavenumbers(len(h0), length)) ** 3
    decay = np.exp(-mobility * np.outer(times, k3))
    return np.fft.ifft(decay * np.fft.fft(h0)[None, :], axis=1).real


def snapshot_times(times, planned):
    times = np.asarray(times, dtype=float)
    planned = np.asarray(planned, dtype=float)
    if times.shape != planned.shape:
        return _check("snapshot_times", False, abs(len(times) - len(planned)))
    worst = float(np.max(np.abs(times - planned)) / max(planned.max(), 1e-300))
    return _check("snapshot_times", worst <= TIME_RTOL, worst)


def triad_energy(rows, length, triad_e):
    """The E column equals the energy recomputed from the same h samples."""
    e = energies(rows, length)
    worst = float(np.max(np.abs(np.asarray(triad_e) - e) / e))
    return _check("triad_energy", worst <= ENERGY_RTOL, worst)


def reports_pass(name, reports, overall=True):
    """Every report of the program passes on at least one sample."""
    failing = [r for r in reports if not (r["pass"] and r["num_samples"] > 0)]
    return _check(name, reports and not failing and overall is True, len(failing))


def linear_cli_checks(exit_codes, times, planned_times, rows, h0, length, mobility, triad_e, report):
    """Checks of one ``mslab simulate`` + ``mslab verify`` round trip."""
    exact = exact_linear_rows(h0, times, length, mobility)
    row_err = float(np.max(np.abs(rows - exact))) if rows.shape == exact.shape else np.inf
    return [
        _check("exit_codes", all(code == 0 for code in exit_codes), max(exit_codes)),
        snapshot_times(times, planned_times),
        _check("trajectory_exact", row_err <= LINEAR_ROW_TOL, row_err),
        triad_energy(rows, length, triad_e),
        reports_pass("verify_report", report.get("checks", []), report.get("overall_pass")),
    ]


def nonlinear_checks(status, times, planned_times, rows, length, triad_e, triad_d, gate):
    """Checks of one nonlinear run and its triad, from properties of the flow."""
    times = np.asarray(times, dtype=float)
    d = np.asarray(triad_d, dtype=float)
    e = energies(rows, length)
    out = [
        _check("status_completed", status == "completed", 0.0 if status == "completed" else 1.0),
        snapshot_times(times, planned_times),
        triad_energy(rows, length, triad_e),
    ]
    rise = float(np.max(np.diff(e)))
    out.append(_check("energy_decreasing", rise < 0.0, rise))
    gaps = np.diff(times)
    de_dt = (e[2:] - e[:-2]) / (times[2:] - times[:-2])
    defect = float(np.max(np.abs(de_dt + d[1:-1]) / d[1:-1]))
    uniform = np.ptp(gaps) <= 1e-9 * gaps.mean()
    out.append(_check("energy_dissipation", uniform and defect < ENERGY_DISSIPATION_TOL, defect))
    e2d = e * e * d
    growth = float(np.max(np.diff(e2d) / e2d[:-1]))
    out.append(_check("e2d_nonincreasing", growth <= 0.0, growth))
    steepest = float(np.max(np.abs(slopes(rows, length))))
    out.append(_check("slope_below_gate", steepest < gate, steepest))
    drift = float(np.max(np.abs(rows.mean(axis=1))) / np.max(np.abs(rows)))
    out.append(_check("mean_zero", drift <= MEAN_RTOL, drift))
    return out
