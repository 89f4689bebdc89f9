"""Command-line entry point.

Commands::

    mslab simulate --config cfg.json --out outdir
    mslab verify   --traj triad.csv --config cfg.json --out report.json
    mslab rates    --config cfg.json --out report.json
    mslab kernel   --n 512 --length 200 --out kernel.csv

Exit codes: 0 ok, 2 config or input error (including a config or triad
CSV that is not UTF-8, a config nested too deeply for the JSON parser, a
triad CSV with a non-finite value, a negative value in any column but t,
fewer than 3 rows, or times that repeat or go back, a simulation whose
schedule keeps fewer than 3 snapshots, a grid, of a run or of the kernel,
above :data:`mslab.field.MAX_POINTS`, and an ``--out`` that cannot be
written),
3 slope blow-up, 4 solver failure (the exterior solve of a state failed:
GMRES did not converge or missed its residual gate, or the grid does not
resolve the state; only the nonlinear engine solves, so only a nonlinear
run exits 4), 5 verification failure.  :func:`main` alone maps an
error to its exit code, and prints the error's message.
``verify`` runs every check of :data:`mslab.diagnostics.CSV_CHECKS` at its
threshold there; a report's ``empirical_sup`` can be judged against any
other.  It takes the triad's rows at any increasing t: with gaps a before
and b after a row, d/dt has the weights -b/(a(a+b)), (b-a)/(ab), a/(b(a+b))
and Simpson's rule integrates D with (a+b)/6 [2-b/a, (a+b)^2/(ab), 2-a/b].
All numbers in CSV output are printed with 17 significant digits so they
round-trip doubles losslessly, and output files are written atomically
(temp file plus rename) with the mode ``open()`` would give them.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import diagnostics
from .config import _parse_grid, build_initial_profile, load_config
from .diagnostics import TRIAD_FIELDS, TriadSample, triad_series
from .errors import ConfigError, InsufficientSamples, SlopeBlowup, SolverDivergence
from .evolution import kernel_mask, run, snapshot_steps
from .field import MAX_POINTS, SolveRecord
from .spectral import seminorm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SLOPE_BLOWUP = 3
EXIT_SOLVER_FAILURE = 4
EXIT_VERIFY_FAILED = 5

#: log-log fit residual (rms, natural log) above which decay is not algebraic
SLOPE_FIT_RESIDUAL_MAX = 0.25


_fmt = "{:.17g}".format


def _csv_row(values):
    return ",".join(map(_fmt, values))


def _atomic_write(path, text):
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-mslab-")
        with os.fdopen(fd, "w") as handle:
            os.fchmod(fd, 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError("<out>", f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _csv(header, rows):
    """The header line, then one :func:`_csv_row` line per row."""
    return "".join(f"{line}\n" for line in [",".join(header), *map(_csv_row, rows)])


def _trajectory_csv(traj, grid):
    """Time and height samples of every kept state; the header names the
    N samples of the run's grid even when the run kept no state."""
    header = ["t"] + [f"h_{j}" for j in range(grid.num_points)]
    return _csv(header, ([t, *state.h.samples.tolist()] for t, state in zip(traj.times, traj.states)))


def _solver_csv(traj, dt):
    """The step, its time and the :class:`~mslab.field.SolveRecord` of
    every nonlinear step."""
    rows = ([step, step * dt, *record] for step, record in enumerate(traj.solves, start=1))
    return _csv(("step", "t") + SolveRecord._fields, rows)


def cmd_simulate(args):
    """Write the kept states of a run, failed or not, to the three files and
    print the status line; the failure of a failed run then reaches :func:`main`."""
    config = load_config(args.config)
    cfg = config.evolution
    # verify's three-point stencils need three snapshots
    steps = snapshot_steps(cfg)
    if len(steps) < 3:
        raise ConfigError(
            "evolution",
            f"t_end/dt = {steps[-1]} with output_every = {cfg.output_every} "
            f"keeps {len(steps)} snapshots; verify needs at least 3",
        )
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError("<out>", f"cannot write {args.out}: {exc}") from exc
    profile = build_initial_profile(cfg.grid, config.initial_data)
    traj = run(profile, cfg)
    triad = diagnostics.triad_table(triad_series(traj)).tolist()
    _atomic_write(os.path.join(args.out, "trajectory.csv"), _trajectory_csv(traj, cfg.grid))
    _atomic_write(os.path.join(args.out, "triad.csv"), _csv(TRIAD_FIELDS, triad))
    _atomic_write(os.path.join(args.out, "solver.csv"), _solver_csv(traj, cfg.dt))
    print(f"status: {traj.status}; {len(traj)} snapshots written to {args.out}")
    if traj.failure is not None:
        raise traj.failure
    return EXIT_OK


def _parse_triad_csv(path):
    try:
        with open(path, encoding="utf-8") as handle:
            rows = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise ConfigError("<traj>", f"cannot read triad CSV: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("<traj>", f"triad CSV is not UTF-8: {exc}") from exc
    if not rows or rows[0].split(",") != list(TRIAD_FIELDS):
        raise ConfigError("<traj>", "triad CSV header does not match the schema")
    samples = []
    for i, row in enumerate(rows[1:], start=2):
        parts = row.split(",")
        if len(parts) != len(TRIAD_FIELDS):
            raise ConfigError("<traj>", f"line {i}: expected {len(TRIAD_FIELDS)} columns")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError("<traj>", f"line {i}: {exc}") from exc
        if not np.isfinite(values).all():
            raise ConfigError("<traj>", f"line {i}: non-finite value")
        # every column but t is a norm, an energy or a supremum
        negative = [name for name, v in zip(TRIAD_FIELDS[1:], values[1:]) if v < 0.0]
        if negative:
            raise ConfigError("<traj>", f"line {i}: column {negative[0]} is negative")
        samples.append(TriadSample(**dict(zip(TRIAD_FIELDS, values))))
    if len(samples) < 3:
        raise ConfigError("<traj>", "need at least 3 triad rows")
    return samples


def _write_report(path, reports, extra=None):
    """Write the reports, then ``extra``, as JSON to ``path`` and return
    whether every check that ran passed.  A non-finite sup is written as
    null, so the file is strict JSON (RFC 8259)."""
    passed = all(r.passed for r in reports if r.passed is not None)
    checks = [
        {
            "name": r.name,
            "empirical_sup": r.empirical_sup if np.isfinite(r.empirical_sup) else None,
            "threshold": r.threshold,
            "pass": r.passed,
            "num_samples": r.num_samples,
            "t_sup": r.t_sup,
            "num_excluded": r.num_excluded,
        }
        for r in reports
    ]
    payload = {"checks": checks, "overall_pass": passed} | (extra or {})
    _atomic_write(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return passed


def _require_schedule(samples, cfg):
    """The triad's t column must hold the times of :func:`snapshot_steps`,
    to 1e-12 of t_end: a file of a run that was cut short, or of another
    configuration, raises ConfigError naming the first time it misses."""
    times = [sample.t for sample in samples]
    steps = snapshot_steps(cfg)
    tolerance = 1e-12 * steps[-1] * cfg.dt
    for i, step in enumerate(steps):
        if i >= len(times) or abs(times[i] - step * cfg.dt) > tolerance:
            raise ConfigError("<traj>", f"no row at t = {step * cfg.dt!r} (step {step}) of the configured run")
    if len(times) > len(steps):
        raise ConfigError("<traj>", f"row at t = {times[len(steps)]!r} lies past the configured run")


def cmd_verify(args):
    """Run every check of :data:`~mslab.diagnostics.CSV_CHECKS` on the triad
    CSV; the file's own faults are named before a mismatch with the
    configured schedule."""
    config = load_config(args.config)
    samples = _parse_triad_csv(args.traj)
    reports = diagnostics.run_checks(samples)
    _require_schedule(samples, config.evolution)
    passed = _write_report(args.out, reports)
    for r in reports:
        if r.passed is None:
            print(f"SKIP {r.name}: regime not entered")
            continue
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
              f"sup={r.empirical_sup:.6g} threshold={r.threshold:.6g}")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def fit_loglog_slope(times, values):
    """Least-squares slope of log(value) against log(t).

    Returns the sentinel string 'exponential' when the fit residual says
    the decay is not algebraic, and 'insufficient' with fewer than three
    positive samples in the window.
    """
    mask = (np.asarray(times) > 0) & (np.asarray(values) > 0)
    t = np.log(np.asarray(times)[mask])
    v = np.log(np.asarray(values)[mask])
    if len(t) < 3:
        return "insufficient"
    coeffs = np.polyfit(t, v, 1)
    residual = float(np.sqrt(np.mean((np.polyval(coeffs, t) - v) ** 2)))
    if residual > SLOPE_FIT_RESIDUAL_MAX:
        return "exponential"
    return float(coeffs[0])


def cmd_rates(args):
    config = load_config(args.config)
    profile = build_initial_profile(config.evolution.grid, config.initial_data)
    h0_norm = seminorm(profile, -0.5) ** 2
    if h0_norm <= 0:
        raise ConfigError("initial_data", f"H0 = {h0_norm:g}: the rates are relative to a nonzero H0")
    traj = run(profile, config.evolution)
    if traj.failure is not None:
        raise traj.failure
    samples = triad_series(traj)
    reports = diagnostics.check_decay_rates(samples, h0_norm)
    columns = diagnostics.triad_columns(samples)
    t_late, late = diagnostics.late_window(columns.t, h0_norm)
    slopes = {
        name: fit_loglog_slope(columns.t[late], getattr(columns, name)[late])
        for name in ("E", "D", "sup_h", "sup_slope")
    }
    passed = _write_report(args.out, reports, {"H0": h0_norm, "late_time_start": t_late, "slopes": slopes})
    print(json.dumps(slopes))
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_kernel(args):
    # the mask makes no exterior solve, but it shares the grids of a run
    if args.n > MAX_POINTS:
        raise ConfigError(
            "kernel --n",
            f"{args.n} points exceed the limit of {MAX_POINTS}, the largest grid a run may use, "
            "on which the mask is tabulated",
        )
    grid = _parse_grid({"length": args.length, "num_points": args.n}, "kernel")
    mask = kernel_mask(grid)
    shift = args.n // 2
    x = np.concatenate((grid.nodes[shift:] - grid.length, grid.nodes[:shift]))
    g = np.concatenate((mask.samples[shift:], mask.samples[:shift]))
    _atomic_write(args.out, _csv(["x", "G"], zip(x, g)))
    print(f"kernel written to {args.out}; G(0) = {mask.samples[0]:.6f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mslab",
        description="Mullins-Sekerka planar-relaxation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a simulation, write trajectory, solver and triad CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run inequality checks on a triad CSV")
    p.add_argument("--traj", required=True, help="triad CSV path")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rates", help="simulate and report decay-rate sups and slopes")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("kernel", help="emit the self-similar mask G as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kernel)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InsufficientSamples) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except SlopeBlowup as exc:
        print(f"slope blow-up: {exc}", file=sys.stderr)
        return EXIT_SLOPE_BLOWUP
    except SolverDivergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
