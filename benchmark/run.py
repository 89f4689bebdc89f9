"""mslab benchmark: one workload for a fixed time, printed as one JSON line.

Usage::

    python3 benchmark/run.py --workload bump_relax --seed 0 --seconds 40 --trace 0

Every round runs in a fresh single-threaded process (``worker.py``).  A run
starts with set-up probes, then repeats whole rounds while the next one is
expected to end within ``--seconds``.  With ``--trace 0`` it prints the
end-to-end metrics (medians over the rounds); with ``--trace 1`` the first
round is untraced and the rest (at least two) are traced, and it prints the
per-layer metrics.  Names and units come from ``BENCHMARK.json``.  Each run
also writes its full record to ``benchmark/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: set-up-only processes started before the rounds; they also warm the
#: file cache and the bytecode cache, which every later process reuses
SETUP_PROBES = 2
#: a round that does not end within this many seconds fails the run
ROUND_TIMEOUT_S = 120
#: per-layer metrics that count work and must repeat exactly between rounds
EXACT_UNITS = ("count", "ratio", "B")


def start_round(args, trace, setup_only=False):
    """Run one worker process to its end and return its JSON record."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        spans = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
        cmd += ["--trace", "1", "--spans", spans]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(0, 0.0)`` below forty samples, where there is no tail.
    """
    n = len(samples)
    if n < 40:
        return 0, 0.0
    pct = (100 * (n - 10)) // n
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def layer_value(name, record):
    """A counter of the round, or a span total: ``<span>.<calls|s|self_s>``
    summed over the span of that name and the spans below it (``cli.self_s``
    adds up ``cli.simulate`` and ``cli.verify``).  A span never entered reads 0."""
    if name in record["counters"]:
        return record["counters"][name]
    span, key = name.rsplit(".", 1)
    if key not in ("calls", "s", "self_s"):
        raise KeyError(f"per-layer metric {name} is neither a counter nor a span total")
    return sum(v[key] for n, v in record["spans"].items() if n == span or n.startswith(span + "."))


def per_layer(spec, traced, untraced):
    """Per-layer metrics: counts from the traced rounds (which must agree),
    times as medians over them, step percentiles over all their steps."""
    values = {}
    consistent = True
    steps = [d for r in traced for d in r["step_durations"]]
    pct, tail = tail_percentile(steps)
    values["evolution.nonlinear_step.p50_ms"] = 1e3 * statistics.median(steps) if steps else 0.0
    values["evolution.nonlinear_step.tail_ms"] = 1e3 * tail
    values["evolution.nonlinear_step.tail_pct"] = pct
    values["evolution.nonlinear_step.samples"] = len(steps)
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in untraced
    )
    for metric in spec:
        name = metric["name"]
        if name in values:
            continue
        seen = [layer_value(name, r) for r in traced]
        if metric["unit"] in EXACT_UNITS:
            consistent &= len(set(seen)) == 1
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    return values, consistent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    os.makedirs(OUT_DIR, exist_ok=True)

    began = time.monotonic()
    setups = [start_round(args, trace=False, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = []
    longest = 0.0
    # whole rounds only; a trace run needs one untraced round and two traced
    # ones, so that the step times of a workload pool to at least forty
    while not rounds or (args.trace and len(rounds) < 3) or (
        time.monotonic() - began + longest <= args.seconds
    ):
        tic = time.monotonic()
        rounds.append(start_round(args, trace=bool(args.trace) and len(rounds) > 0))
        longest = max(longest, time.monotonic() - tic)
    setups += [r["setup_s"] for r in rounds]
    untraced = [r for r in rounds if "spans" not in r]
    traced = [r for r in rounds if "spans" in r]

    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    correct = all(r["correct"] for r in rounds)
    if args.trace:
        values, consistent = per_layer(bench["per_layer"], traced, untraced)
        correct &= consistent
        spec = bench["per_layer"]
    else:
        values = end_to_end
        spec = bench["end_to_end"]
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": time.monotonic() - began,
        "env": rounds[0]["env"],
        "setup_samples": setups,
        "untraced": end_to_end,
        "traced": values if args.trace else None,
        "rounds": rounds,
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(record, handle, indent=1)
    for check in (c for r in rounds for c in r["checks"] if not c["pass"]):
        print(f"check failed: {check['name']} = {check['value']:.6g}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
