"""Tests of the benchmark harness itself.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "tests"


def _workload(name: str, seed: int = 3):
    spec = run.WORKLOADS[name]
    workdir = SCRATCH / f"{name}-seed{seed}"
    workloads.write_inputs(spec, seed, workdir)
    return workloads.build(spec, seed, workdir), workdir


def test_traced_and_untraced_reps_agree_and_wrappers_are_restored():
    work, workdir = _workload("solve-fine-2d")
    csv = workdir / "out" / "transport-fine" / "certificate.csv"
    originals = {(m, a): spans.resolve(m, a) for m, a, _ in spans.WRAPPED}
    originals = {k: owner.__dict__[key] for k, (owner, key) in originals.items()}

    plain = work.check(work.rep(lambda fn, *a: fn(*a)))
    plain_csv = csv.read_bytes()
    tracer = spans.Tracer()
    assert tracer.install() == []
    try:
        assert all(owner.__dict__[key] is not originals[(m, a)]
                   for m, a, _ in spans.WRAPPED for owner, key in [spans.resolve(m, a)])
        traced = work.check(work.rep(lambda fn, *a: tracer.span(spans.ROOT, fn, a)))
    finally:
        tracer.uninstall()

    for (m, a), original in originals.items():
        owner, key = spans.resolve(m, a)
        assert owner.__dict__[key] is original, (m, a)
    assert csv.read_bytes() == plain_csv
    assert traced.digest == plain.digest
    assert traced.work_units == plain.work_units == 1_048_576
    assert plain.failed == traced.failed == 0
    layers = spans.summarize(tracer.records)
    assert layers["approx.global_calls"] == 1
    assert layers["approx.certify_samples"] == 4 * 1_048_576
    assert layers["bench.op_calls"] == 1


def test_self_time_subtracts_the_union_of_children():
    records = [
        (0, "approx.global", None, 0.0, 10.0, 0),
        (1, "approx.probe", 0, 1.0, 3.0, 0),  # overlaps the next child, as pool threads do
        (2, "approx.probe", 0, 2.0, 5.0, 0),
        (3, "approx.certify", 0, 8.0, 12.0, 7),  # clipped to the parent's end
        (4, "expr.eval", 1, 1.5, 2.0, 0),
    ]
    out = spans.summarize(records)
    assert out["approx.global_self_s"] == 10.0 - 4.0 - 2.0
    assert out["approx.probe_calls"] == 2
    assert out["approx.probe_self_s"] == 2.0 - 0.5 + 3.0
    assert out["approx.certify_samples"] == 7
    assert out["approx.evals_per_probe"] == 0.5


def test_unexplained_failures_count_and_known_defects_do_not():
    work, _ = _workload("ladder")
    by_name = {p["name"]: i for i, p in enumerate(work.problems)}
    results = [RuntimeError("boom")] * len(work.problems)
    results[by_name["sine-out-of-range"]] = workloads.ocm.RangeViolation(1, (0.5,))
    results[by_name["laplace-plus-sine-2d"]] = workloads.ocm.RangeViolation(1, (0.5, 0.5))
    c = work.check(results)
    assert c.attempted == len(work.problems)
    assert c.known == 1
    assert c.failed == len(work.problems) - 2
    assert c.work_units == 0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
