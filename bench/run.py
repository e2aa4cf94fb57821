"""ocm benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/ocm``.  Inputs come from the seed;
operations repeat until S seconds are used; every repetition's outputs
are checked outside the timed region.  The last line of stdout is one
JSON object with keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a span
trace with --trace 1.  Workloads and their problems are defined in
bench/spec.json; generated inputs and outputs go to .bench_build/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((BENCH / "spec.json").read_text())
WORKLOADS = {w["name"]: w for w in SPEC["workloads"]}
SETUP_SPAWNS = 7

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio",
             "work_units": "count"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in spans.SPANS:
        units[f"{name}_calls"] = "count"
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    for metric, _ in spans.WORK.values():
        units[metric] = "count"
    units["expr.points_per_call"] = "points/call"
    units["approx.evals_per_probe"] = "evals/probe"
    units["filters.instances"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: run the workload's set-up, print the clock, exit")
    return p.parse_args(argv)


def percentile_line(values: list[float]) -> str:
    """The highest whole percentile, from p50 up, with at least 10 samples above it."""
    if len(values) >= 2:
        cuts = statistics.quantiles(values, n=100)
        for p in range(99, 49, -1):
            if sum(v > cuts[p - 1] for v in values) >= 10:
                return f"p{p} {cuts[p - 1]:.6f} s"
    return "no percentile from p50 up has 10 samples beyond it"


def measure_setup(args) -> list[float]:
    """Spawn-to-ready times of fresh processes doing the workload's set-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        if i:  # the first spawn only fills the bytecode cache
            times.append(float(done.stdout.split()[-1]) - t0)
    return times


def run_reps(work, seconds: float, traced: bool):
    """Repeat the workload until `seconds` are used.  With traced, reps
    alternate between untraced and traced, starting untraced."""
    times = {False: [], True: []}  # rep wall times, untraced and traced
    layers, checks, missing = [], [], set()
    start = time.perf_counter()
    while True:
        tracing = traced and len(times[False]) > len(times[True])
        gc.collect()
        tracer = spans.Tracer() if tracing else None
        if tracer is not None:
            missing.update(tracer.install())
            op = lambda fn, *a: tracer.span(spans.ROOT, fn, a)
        else:
            op = lambda fn, *a: fn(*a)
        try:
            t0 = time.perf_counter()
            results = work.rep(op)
            times[tracing].append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        checks.append(work.check(results))
        del results
        if tracer is not None:
            layers.append(spans.summarize(tracer.records))
        elapsed = time.perf_counter() - start
        upcoming = times[traced and not tracing] or times[tracing]
        if (times[True] or not traced) and elapsed + statistics.median(upcoming) > seconds:
            if missing:
                print(f"trace: not wrapped, absent from ocm: {' '.join(sorted(missing))}")
            return times[False], times[True], layers, checks


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ocm" / "__init__.py").is_file():
        print(f"bench: no ocm sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_build" / f"{args.workload}-seed{args.seed}"
    if spec["threads"] is not None:
        os.environ["OCM_THREADS"] = str(spec["threads"])

    import workloads

    if args.setup_probe:
        workloads.setup(spec, workdir)
        print(time.monotonic())
        return 0

    workloads.write_inputs(spec, args.seed, workdir)
    setup_times = [] if args.trace else measure_setup(args)
    workloads.setup(spec, workdir)
    work = workloads.build(spec, args.seed, workdir)
    run_times, traced_times, layers, checks = run_reps(work, args.seconds, bool(args.trace))

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    known = sum(c.known for c in checks)
    for i, c in enumerate(checks[1:], start=1):
        if c.digest != checks[0].digest:
            failed += c.attempted - c.failed - c.known
            c.notes.append(f"rep {i}: output digest {c.digest} differs from rep 0")
    notes = list(dict.fromkeys(n for c in checks for n in c.notes))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"OCM_THREADS={os.environ.get('OCM_THREADS', '-')}")
    print(f"output digest (sha256, every rep) {checks[0].digest}")
    for n in notes:
        print(f"check: {n}")
    print(f"fail_ratio {failed + known}/{attempted} = {(failed + known) / attempted:.6f} "
          f"({known} from documented known defects)")
    print(f"run_s median {statistics.median(run_times):.6f} s over {len(run_times)} reps; "
          f"{percentile_line(run_times)}; reps {' '.join(f'{t:.3f}' for t in run_times)}")

    if args.trace:
        units = per_layer_units()
        # counts repeat exactly between reps; median_low keeps them whole numbers
        values = {k: (statistics.median if units[k] == "s" else statistics.median_low)(
                      [rep[k] for rep in layers]) for k in layers[0]}
        values["filters.instances"] = len(getattr(work, "instances", ()))
        # reps alternate untraced, traced; pairing neighbours cancels most machine drift
        values["trace.overhead_s"] = statistics.median(
            t - u for u, t in zip(run_times, traced_times))
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        print(f"traced run_s median {statistics.median(traced_times):.6f} s over "
              f"{len(traced_times)} reps")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(run_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (attempted - failed - known) / attempted,
            "work_units": checks[0].work_units,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        print(f"setup_s median {values['setup_s']:.6f} s over {len(setup_times)} spawns")
    for k, m in metrics.items():
        print(f"{k} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
