"""One round of one workload, in a fresh single-threaded process.

Started by ``run.py``, which passes the monotonic clock reading taken just
before it started this process (``--t0``).  Set-up is the time from then
until the workload is ready: interpreter start, importing numpy, scipy and
mslab, building and validating the configuration, and building the
initial profile and state.  The round itself is timed from the initial
profile to a verified report.  The last line of standard output is one
JSON object describing the round.
"""

import os

#: thread pools of every BLAS/OpenMP runtime numpy or scipy may load; they
#: are read when the library loads, so they are set before numpy is imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# the program is always the one in this checkout, never an installed copy
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import mslab  # noqa: E402
from mslab import cli, config, diagnostics, errors, evolution, field, geometry, spectral  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

LENGTH = 16.0
MOBILITY = 2.0
SLOPE_GATE = 1.0

#: the nonlinear workloads; the seed draws only the initial data
NONLINEAR = {
    # acceptance standard run, shortened in time: the strip solve dominates
    "bump_relax": dict(num_points=512, layers=48, dt=6e-4, steps=35, every=5),
    # steep wavelet, a triad at every step: each stored state is solved twice
    "steep_every_step": dict(num_points=256, layers=48, dt=2e-4, steps=45, every=1),
}
#: the linear engine driven through the CLI: arclength resampling and H dominate
LINEAR_CLI = dict(num_points=1024, layers=32, dt=2e-3, steps=9, width=1.0, amplitude=0.15)


def bump_samples(rng, x):
    """Amplitude-0.15 gaussian bump with a jittered centre and width, plus a
    small random perturbation in modes 1 to 3."""
    centre = 0.5 * LENGTH + rng.uniform(-0.5, 0.5)
    width = 1.0 + rng.uniform(-0.05, 0.05)
    h = 0.15 * np.exp(-(((x - centre) / width) ** 2))
    for m in (1, 2, 3):
        h += 0.003 * rng.uniform(-1.0, 1.0) * np.cos(2.0 * np.pi * m * x / LENGTH + rng.uniform(0, 2 * np.pi))
    return h - h.mean()


def steep_samples(rng, x):
    """Wavelet with a jittered centre and width, scaled to sup|h_x| = 0.9."""
    centre = 0.5 * LENGTH + rng.uniform(-0.5, 0.5)
    width = 1.0 + rng.uniform(-0.05, 0.05)
    u = (x - centre) / width
    h = u * np.exp(-(u**2))
    h -= h.mean()
    return h * 0.9 / np.abs(checks.slopes(h, LENGTH)).max()


class NonlinearWorkload:
    def __init__(self, name, seed):
        spec = NONLINEAR[name]
        self.spec = spec
        grid = spectral.Grid(LENGTH, spec["num_points"])
        self.cfg = evolution.EvolutionConfig(
            engine="nonlinear",
            dt=spec["dt"],
            t_end=spec["steps"] * spec["dt"],
            grid=grid,
            strip=field.default_strip_config(grid, num_layers=spec["layers"]),
            mobility=MOBILITY,
            output_every=spec["every"],
            slope_gate=SLOPE_GATE,
        )
        make = bump_samples if name == "bump_relax" else steep_samples
        samples = make(np.random.default_rng(seed), grid.nodes)
        self.h0 = spectral.SpectralProfile.from_samples(grid, samples)
        if geometry.sup_slope(geometry.build_state(self.h0)) > SLOPE_GATE:
            raise ValueError("generated initial data exceeds the slope gate")
        snaps = range(0, spec["steps"] + 1, spec["every"])
        self.planned_times = [s * spec["dt"] for s in snaps]
        self.attempted = spec["steps"] + len(self.planned_times)

    def produce(self):
        traj = evolution.run(self.h0, self.cfg)
        samples = diagnostics.triad_series(traj, self.cfg.strip)
        reports = diagnostics.check_differential(samples) + diagnostics.check_algebraic(samples)
        try:
            reports.append(diagnostics.check_lyapunov(samples))
        except errors.RegimeNeverEntered:
            pass  # the steep wavelet keeps E^2 D above the regime threshold
        return {
            "status": traj.status,
            "times": np.array(traj.times),
            "rows": np.array([state.h.samples for state in traj.states]),
            "E": np.array([s.E for s in samples]),
            "D": np.array([s.D for s in samples]),
            "reports": [{"pass": r.passed, "num_samples": r.num_samples} for r in reports],
        }

    def verify(self, out):
        found = checks.nonlinear_checks(
            out["status"], out["times"], self.planned_times, out["rows"], LENGTH, out["E"], out["D"], SLOPE_GATE
        )
        return found + [checks.reports_pass("program_reports", out["reports"])]

    def execute(self):
        out = self.produce()
        steps_done = round(out["times"][-1] / self.spec["dt"])
        return self.verify(out), self.attempted - steps_done - len(out["E"]), 0


class LinearCliWorkload:
    """``mslab simulate`` then ``mslab verify``, in-process through ``cli.main``."""

    def __init__(self, seed, workdir):
        spec = LINEAR_CLI
        rng = np.random.default_rng(seed)
        # narrower bumps trip the program's 2% dissipation cross-check at 32
        # layers (width 0.95 reads 2.09%, width 1.0 reads 1.82%)
        self.width = spec["width"] + rng.uniform(0.0, 0.1)
        self.workdir = workdir
        self.cfg_path = os.path.join(workdir, "config.json")
        raw = {
            "initial_data": {"preset": "gaussian_bump", "amplitude": spec["amplitude"], "width": self.width},
            "evolution": {
                "engine": "linear",
                "dt": spec["dt"],
                "t_end": spec["steps"] * spec["dt"],
                "mobility": MOBILITY,
                "grid": {"length": LENGTH, "num_points": spec["num_points"]},
                "strip": {"num_layers": spec["layers"]},
                "output_every": 1,
                "slope_gate": SLOPE_GATE,
            },
            "seed": seed,
        }
        with open(self.cfg_path, "w") as handle:
            json.dump(raw, handle)
        config.load_config(self.cfg_path)  # validation builds the initial profile and state
        self.planned_times = [j * spec["dt"] for j in range(spec["steps"] + 1)]
        self.attempted = 2 + len(self.planned_times)

    def produce(self):
        out_dir = os.path.join(self.workdir, "run")
        paths = {name: os.path.join(out_dir, name) for name in ("trajectory.csv", "triad.csv", "report.json")}
        simulate = ["simulate", "--config", self.cfg_path, "--out", out_dir]
        verify = ["verify", "--traj", paths["triad.csv"], "--config", self.cfg_path, "--out", paths["report.json"]]
        return {"codes": [cli.main(simulate), cli.main(verify)], "paths": paths}

    def verify(self, out):
        """Read the files the CLI wrote back and check them."""
        spec = LINEAR_CLI
        paths = out["paths"]
        traj = np.loadtxt(paths["trajectory.csv"], delimiter=",", skiprows=1, ndmin=2)
        triad = np.loadtxt(paths["triad.csv"], delimiter=",", skiprows=1, ndmin=2)
        with open(paths["report.json"]) as handle:
            report = json.load(handle)
        x = LENGTH * np.arange(spec["num_points"]) / spec["num_points"]
        h0 = spec["amplitude"] * np.exp(-(((x - 0.5 * LENGTH) / self.width) ** 2))
        found = checks.linear_cli_checks(
            out["codes"],
            traj[:, 0],
            self.planned_times,
            traj[:, 1:],
            h0 - h0.mean(),
            LENGTH,
            MOBILITY,
            triad[:, 1],
            report,
        )
        return found, len(traj)

    def execute(self):
        out = self.produce()
        found, rows = self.verify(out)
        failed = sum(code != 0 for code in out["codes"]) + max(0, len(self.planned_times) - rows)
        written = sum(os.path.getsize(p) for p in out["paths"].values())
        return found, failed, written


def environment():
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def layer_record(tracer, bytes_written):
    """Span totals per name, step times and work counters of one traced round."""
    summary = tracing.summarize(tracer.spans)
    solves = summary.get("field.solve_exterior_fields", {}).get("calls", 0)
    return {
        "spans": {name: {k: e[k] for k in ("calls", "s", "self_s")} for name, e in summary.items()},
        "step_durations": summary.get("evolution.nonlinear_step", {}).get("durations", []),
        "counters": {
            "field.solves_per_state": solves / len(tracer.solved_states) if solves else 0.0,
            "spectral.evaluate.point_modes": tracer.point_modes,
            "cli.bytes_written": bytes_written,
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NONLINEAR) + ["linear_cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="monotonic clock at process start")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced round writes its spans")
    args = parser.parse_args(argv)

    if os.path.dirname(os.path.abspath(mslab.__file__)) != os.path.join(SRC, "mslab"):
        raise SystemExit(f"mslab was imported from {mslab.__file__}, not from {SRC}")
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == "linear_cli":
            workload = LinearCliWorkload(args.seed, workdir)
        else:
            workload = NonlinearWorkload(args.workload, args.seed)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            tracer = tracing.Tracer() if args.trace else None
            if tracer:
                tracer.install()
            start = time.perf_counter()
            with tracer.span("workload") if tracer else contextlib.nullcontext():
                found, failed, written = workload.execute()
            wall_s = time.perf_counter() - start
            result.update(
                wall_s=wall_s,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                attempted=workload.attempted,
                failed=failed,
                correct=all(c["pass"] for c in found),
                checks=found,
                env=environment(),
            )
            if tracer:
                tracer.uninstall()
                result.update(layer_record(tracer, written))
                if args.spans:
                    tracer.dump(args.spans, start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
