"""Tests of the benchmark's own pieces: self-time arithmetic, wrapper
installation and restoration, the metric lists, and a smoke run.

    python3 -m pytest bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run_bench  # noqa: E402
import tracing  # noqa: E402

import signcov  # noqa: E402
import signcov.cli  # noqa: E402,F401


def span(name, start, end, parent=-1, rep=-1):
    return (name, start, end, parent, rep)


def test_union_length_merges_overlaps_and_clips():
    assert tracing.union_length([], 0.0, 1.0) == 0.0
    assert tracing.union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert tracing.union_length([(2, 3), (1, 5)], 0, 10) == 4  # contained
    assert tracing.union_length([(-5, -1), (11, 12)], 0, 10) == 0


def test_self_time_with_overlapping_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),     # overlaps a by 1
        span("c", 8.0, 12.0, parent=0),    # runs past the parent's end
        span("a.child", 1.5, 3.5, parent=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0)  # children cover [1,6] and [8,10]
    assert selfs[1] == pytest.approx(3.0 - 2.0)   # grandchild only reduces a
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(2.0)


def test_properly_nested_self_times_sum_to_the_root():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("simharness.run_experiment", 0.5, 9.0, parent=0),
        span("location.spatial_median", 1.0, 5.0, parent=1),
        span("linalg.row_norms", 1.5, 2.0, parent=2),
        span("linalg.row_norms", 2.5, 3.0, parent=2),
    ]
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)
    m = tracing.layer_metrics(spans, {})
    assert m["trace.accounted_s"] == pytest.approx(10.0)
    assert m["location.median_self_s"] == pytest.approx(3.0)
    assert m["linalg.row_norms_calls"] == 2


def test_every_span_name_falls_in_exactly_one_layer_time():
    names = {t[2] for t in tracing.TARGETS} | {tracing.ROOT_SPAN}
    for name in names:
        owners = [m for m, group in tracing.LAYER_TIMES.items() if name in group]
        assert len(owners) == 1, (name, owners)
    assert set().union(*tracing.LAYER_TIMES.values()) == names


def _bindings():
    """Every (owner, key) -> object binding the tracer may patch."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "signcov":
            for key, value in vars(mod).items():
                if callable(value):
                    out[(mod_name, key)] = value
    out[("SeededStream", "generator")] = signcov.SeededStream.__dict__["generator"]
    return out


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    original = signcov.location.spatial_median
    tracer = tracing.Tracer()
    with tracer.installed():
        for mod in (signcov, signcov.location, signcov.scatter,
                    signcov.simharness, signcov.cli):
            assert mod.spatial_median is not original
        assert signcov.SeededStream.generator is not before[("SeededStream", "generator")]
        X = np.arange(12.0).reshape(6, 2) ** 1.5
        signcov.simharness.spatial_median(X)
        signcov.SeededStream(1, 2).generator()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = [s[0] for s in tracer.spans]
    assert names[0] == "location.spatial_median"
    assert "linalg.row_norms" in names and names[-1] == "models.stream"
    assert all(s[3] == 0 for s in tracer.spans[1:-1])  # children of the median
    assert tracer.counts["location.median_iterations"] > 0


def test_wrappers_are_restored_when_the_body_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run_bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run_bench.WORKLOADS)


def test_smoke_run_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run_bench.py"), "--workload", "all", "--smoke",
         "--seed", "5"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(results) == 2 * len(run_bench.WORKLOADS)
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
