"""Command-line entry point.

Commands::

    mslab simulate --config cfg.json --out outdir
    mslab verify   --traj triad.csv --config cfg.json --out report.json
    mslab rates    --config cfg.json --out report.json
    mslab kernel   --n 512 --length 200 --out kernel.csv

Exit codes: 0 ok, 2 config or input error (including a triad CSV with a
non-finite value or too few evenly spaced rows), 3 slope blow-up, 4
solver failure, 5 verification failure.  All numbers are printed with 17
significant digits so CSV output round-trips doubles losslessly, and
output files are written atomically (temp file plus rename) with the
mode ``open()`` would give them.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import diagnostics
from .config import build_initial_profile, load_config
from .diagnostics import TRIAD_FIELDS, TriadSample, run_named_checks, triad_series
from .errors import ConfigError, CrossCheckFailure, InsufficientSamples, SolverDivergence
from .evolution import kernel_mask, run
from .spectral import Grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SLOPE_BLOWUP = 3
EXIT_SOLVER_FAILURE = 4
EXIT_VERIFY_FAILED = 5

#: log-log fit residual (rms, natural log) above which decay is not algebraic
SLOPE_FIT_RESIDUAL_MAX = 0.25


def _fmt(x):
    return f"{x:.17g}"


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-mslab-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _triad_csv(samples):
    lines = [",".join(TRIAD_FIELDS)]
    for s in samples:
        lines.append(",".join(_fmt(getattr(s, name)) for name in TRIAD_FIELDS))
    return "\n".join(lines) + "\n"


def _trajectory_csv(traj):
    n = traj.states[0].grid.num_points if traj.states else 0
    header = ",".join(["t"] + [f"h_{j}" for j in range(n)])
    lines = [header]
    for t, state in zip(traj.times, traj.states):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in state.h.samples]))
    return "\n".join(lines) + "\n"


def _status_exit(status):
    return {
        "completed": EXIT_OK,
        "slope_blowup": EXIT_SLOPE_BLOWUP,
        "solver_failure": EXIT_SOLVER_FAILURE,
    }[status]


def _simulate(config):
    profile = build_initial_profile(config.evolution.grid, config.initial_data)
    traj = run(profile, config.evolution)
    samples = triad_series(traj, config.evolution.strip)
    return traj, samples


def cmd_simulate(args):
    traj, samples = _simulate(load_config(args.config))
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "trajectory.csv"), _trajectory_csv(traj))
    _atomic_write(os.path.join(args.out, "triad.csv"), _triad_csv(samples))
    print(f"status: {traj.status}; {len(traj)} snapshots written to {args.out}")
    return _status_exit(traj.status)


def _parse_triad_csv(path):
    try:
        with open(path) as handle:
            rows = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise ConfigError("<traj>", f"cannot read triad CSV: {exc}") from exc
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
        samples.append(TriadSample(**dict(zip(TRIAD_FIELDS, values))))
    if len(samples) < 3:
        raise ConfigError("<traj>", "need at least 3 triad rows")
    return samples


def _report_json(reports, extra=None):
    payload = {
        "checks": [
            {
                "name": r.name,
                "empirical_sup": r.empirical_sup,
                "threshold": r.threshold,
                "pass": r.passed,
                "num_samples": r.num_samples,
            }
            for r in reports
        ],
        "overall_pass": all(r.passed for r in reports if r.passed is not None),
    }
    if extra:
        payload.update(extra)
    return payload


def cmd_verify(args):
    config = load_config(args.config)
    samples = _parse_triad_csv(args.traj)
    reports = run_named_checks(samples, config.checks)
    payload = _report_json(reports)
    _atomic_write(args.out, json.dumps(payload, indent=2) + "\n")
    for r in reports:
        if r.passed is None:
            print(f"SKIP {r.name}: regime not entered")
            continue
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
              f"sup={r.empirical_sup:.6g} threshold={r.threshold:.6g}")
    return EXIT_OK if payload["overall_pass"] else EXIT_VERIFY_FAILED


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
    traj, samples = _simulate(load_config(args.config))
    if traj.status != "completed":
        print(f"run ended with status {traj.status}", file=sys.stderr)
        return _status_exit(traj.status)
    h0_norm = samples[0].Hhalf
    reports = diagnostics.check_decay_rates(samples, h0_norm)
    t_late = diagnostics.LATE_TIME_FACTOR * h0_norm**0.75
    window = [s for s in samples if s.t >= t_late]
    times = [s.t for s in window]
    slopes = {
        "E": fit_loglog_slope(times, [s.E for s in window]),
        "D": fit_loglog_slope(times, [s.D for s in window]),
        "sup_h": fit_loglog_slope(times, [s.sup_h for s in window]),
        "sup_slope": fit_loglog_slope(times, [s.sup_slope for s in window]),
    }
    payload = _report_json(
        reports,
        extra={"H0": h0_norm, "late_time_start": t_late, "slopes": slopes},
    )
    _atomic_write(args.out, json.dumps(payload, indent=2) + "\n")
    print(json.dumps(slopes))
    return EXIT_OK if payload["overall_pass"] else EXIT_VERIFY_FAILED


def cmd_kernel(args):
    try:
        grid = Grid(args.length, args.n)
    except ValueError as exc:
        print(f"kernel: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    mask = kernel_mask(grid)
    shift = args.n // 2
    x = np.concatenate((grid.nodes[shift:] - grid.length, grid.nodes[:shift]))
    g = np.concatenate((mask.samples[shift:], mask.samples[:shift]))
    lines = ["x,G"] + [f"{_fmt(xi)},{_fmt(gi)}" for xi, gi in zip(x, g)]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"kernel written to {args.out}; G(0) = {mask.samples[0]:.6f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mslab",
        description="Mullins-Sekerka planar-relaxation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a simulation, write trajectory and triad CSVs")
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
    except (SolverDivergence, CrossCheckFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
