"""signcov benchmark: end-to-end and per-layer numbers for one workload.

    python3 bench/run_bench.py --workload table-small-n --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --workload all --seed 1        # every workload
    python3 bench/run_bench.py --workload all --smoke         # quick, all checks on

Run from anywhere; the program is taken from ``src/`` next to this
directory. One client drives the ``signcov`` CLI in a closed loop: each
pass starts after the previous one has ended.

--trace 0 repeats CLI passes at --workers 2 in fresh processes for
--seconds seconds, each between two reference runs, then makes one pass at
--workers 1, and reports the end-to-end metrics. --trace 1 runs passes in
this process at --workers 1, alternating untraced and traced, and reports
the per-layer metrics. Every pass is checked; the last line of standard
output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKERS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS_OUT = ROOT / ".bench_out"

PASS_TIMEOUT_S = 60
# What the `signcov` console script does, plus a timer around the import:
# every CLI command of a pass is also a set-up sample.
LAUNCHER = (
    "import sys, time; t = time.perf_counter(); import signcov.cli; "
    "open(sys.argv[1], 'w').write(repr(time.perf_counter() - t)); "
    "sys.exit(signcov.cli.main(sys.argv[2:]))"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "location.median_calls": "count",
    "location.median_self_s": "s",
    "location.median_iterations_mean": "count",
    "location.median_iterations_max": "count",
    "location.median_s_per_iteration": "s",
    "location.median_uncertified": "count",
    "location.median_uncertified_frac": "fraction",
    "location.median_anchored": "count",
    "models.stream_calls": "count",
    "models.stream_s": "s",
    "models.sample_calls": "count",
    "models.sample_self_s": "s",
    "models.sample_bytes": "bytes",
    "models.oracle_s": "s",
    "linalg.row_norms_calls": "count",
    "linalg.row_norms_self_s": "s",
    "linalg.spatial_signs_calls": "count",
    "linalg.spatial_signs_self_s": "s",
    "scatter.gram_calls": "count",
    "scatter.gram_self_s": "s",
    "scatter.sscm_s": "s",
    "scatter.ssscm_s": "s",
    "scatter.ssscm_pairs": "count",
    "asymptotics.fixed_cov_s": "s",
    "asymptotics.fixed_cov_bytes": "bytes",
    "asymptotics.bundle_s": "s",
    "simharness.self_s": "s",
    "simharness.write_s": "s",
    "simharness.csv_bytes": "bytes",
    "simharness.tasks": "count",
    "simharness.parallel_efficiency": "fraction",
    "cli.self_s": "s",
    "cli.read_csv_s": "s",
    "cli.emit_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.accounted_frac": "fraction",
}


# The host's speed drifts: on the 2-core baseline machine the same pass took
# from 0.8x to 1.5x its typical time, in phases from seconds to minutes,
# which moved the medians of consecutive runs by up to 25%. Times are
# therefore taken against a reference run next to every pass: a fresh
# interpreter that imports scipy.stats (the bulk of a CLI command's start-up,
# and no signcov code, so no change to the program can move it). Each timed
# value of a pass is divided by the geometric mean of the reference times
# just before and after it and multiplied by REFERENCE_S, the reference's
# median time on the baseline machine; the run reports the median over its
# passes. The report also prints the unscaled medians.
REFERENCE = (
    "import time; t = time.perf_counter(); import scipy.stats; "
    "print(repr(time.perf_counter() - t))"
)
REFERENCE_S = 1.0


def reference_run(log_path):
    """Seconds the reference import took in a fresh interpreter."""
    code, _ = spawn([sys.executable, "-c", REFERENCE], log_path)
    if code:
        raise RuntimeError(f"reference run failed: {log_path.read_text()}")
    return float(log_path.read_text().split()[-1])  # after any warnings


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(argv, log_path):
    """Run argv to completion in its own process group; return (exit code,
    peak RSS in MB of the process and every descendant it waited for).

    stdout and stderr go to log_path. On timeout the whole group is killed.
    """
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, env=child_env(), stdout=log, stderr=log,
                                start_new_session=True)
    timer = threading.Timer(PASS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class Pass:
    workers: int | None
    wall: float          # seconds for the whole pass, process start-up included
    work: float | None   # the harness's own wall time, if the pass has one
    rss_mb: float
    commands: int
    failures: list       # messages; non-empty fails the pass
    digest: str | None   # sha256 of the result files
    imports: list        # seconds each command took to import signcov.cli


def cli_pass(wl, workers, outdir):
    """One pass through the CLI, each command in a fresh process."""
    outdir.mkdir(parents=True)
    codes = []
    rss = 0.0
    stamps = [outdir / f"import{k}.txt" for k in range(len(wl.commands(workers, outdir)))]
    start = time.perf_counter()
    for argv, stamp in zip(wl.commands(workers, outdir), stamps):
        code, peak = spawn([sys.executable, "-c", LAUNCHER, str(stamp), *argv],
                           outdir / "cli.log")
        codes.append(code)
        rss = max(rss, peak)
    wall = time.perf_counter() - start
    p = _finish_pass(wl, workers, outdir, wall, rss, codes)
    p.imports = [float(f.read_text()) for f in stamps if f.is_file()]
    return p


def inprocess_pass(wl, outdir, tracer=None):
    """One pass calling signcov.cli.main in this process at --workers 1."""
    import signcov.cli

    outdir.mkdir(parents=True)
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        for argv in wl.commands(1, outdir):
            if tracer is None:
                codes.append(signcov.cli.main(argv))
            else:
                codes.append(tracer.span(tracing.ROOT_SPAN, signcov.cli.main, argv))
        wall = time.perf_counter() - start
    return _finish_pass(wl, 1, outdir, wall, 0.0, codes)


def _finish_pass(wl, workers, outdir, wall, rss, codes):
    failures = [f"exit code {c}" for c in codes if c != 0]
    digest = work = None
    if not failures:
        failures = wl.check(outdir)
        digest = wl.digest(outdir)
        work = wl.work_seconds(outdir)
    return Pass(workers, wall, work, rss, len(codes), failures, digest, [])


def judge(passes):
    """Fail passes whose outputs differ from the first pass's; return
    (correct, attempted, failed, failure messages). An operation is one CLI
    command; a failed one exits non-zero or belongs to a pass whose check
    fails."""
    first = next((p.digest for p in passes if p.digest), None)
    for p in passes:
        if p.digest is not None and p.digest != first:
            p.failures.append(f"output differs from the first pass (workers {p.workers})")
    messages = [m for p in passes for m in p.failures]
    attempted = sum(p.commands for p in passes)
    failed = sum(p.commands for p in passes if p.failures)
    return not messages, attempted, failed, messages


def run_untraced(wl, seconds, workdir):
    main_workers, *other_workers = wl.worker_counts
    timed = []
    refs = [reference_run(workdir / "ref0.txt")]
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(cli_pass(wl, main_workers, workdir / f"pass{len(timed)}"))
        refs.append(reference_run(workdir / f"ref{len(refs)}.txt"))
    # one pass at every other worker count, for the byte-identity check
    others = [cli_pass(wl, w, workdir / f"workers{w}") for w in other_workers]
    passes = timed + others
    correct, attempted, failed, messages = judge(passes)
    uncertified, median_calls = wl.replay_medians()

    # only passes that succeeded are timed; a failure already fails the run
    timed_ok = [
        (REFERENCE_S / math.sqrt(a * b), p)
        for p, a, b in zip(timed, refs, refs[1:]) if not p.failures
    ] or [(1.0, timed[0])]
    speed = [f for f, _ in timed_ok]
    ok = [p for _, p in timed_ok]
    raw = {
        "setup_s": [statistics.median(p.imports or [0.0]) for p in ok],
        "wall_s": [p.wall for p in ok],
        # a pass without a harness time (estimate-file) counts its wall time
        "reps_per_s": [wl.reps / (p.wall if p.work is None else p.work) for p in ok],
    }
    scaled = {
        "setup_s": [v * f for v, f in zip(raw["setup_s"], speed)],
        "wall_s": [v * f for v, f in zip(raw["wall_s"], speed)],
        "reps_per_s": [v / f for v, f in zip(raw["reps_per_s"], speed)],
    }
    metrics = {k: statistics.median(v) for k, v in scaled.items()}
    metrics["peak_rss_mb"] = max(p.rss_mb for p in passes)
    info = {
        "passes": {str(main_workers): len(timed),
                   **{str(p.workers): 1 for p in others}},
        "samples": scaled,
        "unscaled": {k: statistics.median(v) for k, v in raw.items()},
        "reference_s": statistics.median(refs),
        "reps_per_s_w1": [wl.reps / p.work for p in others if p.work],
        "median_uncertified": uncertified,
        "median_calls": median_calls,
        "failures": messages,
    }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }, info


def run_traced(wl, seconds, workdir):
    # untraced CLI passes at each worker count give the parallel efficiency
    passes = [cli_pass(wl, w, workdir / f"cli{w}") for w in wl.worker_counts]
    if len(passes) == 2 and not any(p.failures for p in passes):
        efficiency = passes[1].work / (WORKERS * passes[0].work)
    else:
        efficiency = 0.0  # single-process workload, or a failed pass
    warmup = inprocess_pass(wl, workdir / "warmup")  # imports and lazy set-up
    tracer = tracing.Tracer()
    untraced, traced, layers, accounted = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        k = len(traced)
        untraced.append(inprocess_pass(wl, workdir / f"plain{k}"))
        tracer.reset()
        with tracer.installed():
            traced.append(inprocess_pass(wl, workdir / f"traced{k}", tracer))
        m = tracing.layer_metrics(tracer.spans, tracer.counts)
        accounted.append(m.pop("trace.accounted_s") / traced[-1].wall)
        layers.append(m)
    write_spans(wl.name, tracer.spans)
    correct, attempted, failed, messages = judge(passes + [warmup] + untraced + traced)

    metrics = tracing.median_metrics(layers)
    metrics["simharness.parallel_efficiency"] = efficiency
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced) - 1.0
    )
    metrics["trace.accounted_frac"] = statistics.median(accounted)
    if not 0.95 <= metrics["trace.accounted_frac"] <= 1.0 + 1e-9:
        correct = False
        failed += 1
        messages.append(f"layer self times cover {metrics['trace.accounted_frac']:.4f} "
                        "of the traced pass")
    info = {"passes": {"cli": len(passes), "untraced": len(untraced),
                       "traced": len(traced)}, "failures": messages}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in PER_LAYER.items()},
    }, info


def write_spans(name, spans):
    """Write the last traced pass's spans, once, as JSON lines."""
    SPANS_OUT.mkdir(exist_ok=True)
    with open(SPANS_OUT / f"spans-{name}.jsonl", "w") as fh:
        for span_name, start, end, parent, rep in spans:
            fh.write(json.dumps({"name": span_name, "start": start, "end": end,
                                 "parent": parent, "rep": rep}) + "\n")


def run_metadata(seed):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for f in sources:
        digest.update(f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": sum(len(f.read_text().splitlines()) for f in sources),
        "src_sha256": digest.hexdigest()[:16],
        "commit": commit,
        "seed": seed,
    }


def report(name, seed, trace, result, info):
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"(closed loop, 1 client)  passes {info['passes']}")
    for key, m in result["metrics"].items():
        print(f"  {key:36s} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        for key, values in info["samples"].items():
            print(f"  {key:36s} {len(values)} samples, min {min(values):.6g},"
                  f" max {max(values):.6g}, unscaled median {info['unscaled'][key]:.6g}")
        print(f"  {'reference import (median)':36s} {info['reference_s']:>16.6g} s")
        for rate in info["reps_per_s_w1"]:
            print(f"  {'reps_per_s_w1 (1 pass)':36s} {rate:>16.6g} 1/s")
        calls = info["median_calls"]
        frac = info["median_uncertified"] / calls if calls else 0.0
        print(f"  {'median_uncertified_frac':36s} {frac:>16.6g} fraction"
              f" ({info['median_uncertified']} of {calls} median calls per pass)")
    print(f"  failed operations: {result['failed']} of {result['attempted']}"
          f"  checks: {'ok' if result['correct'] else 'FAILED'}"
          f"  elapsed {info['elapsed_s']:.1f} s")
    for message in info["failures"]:
        print(f"    {message}")


def run_one(name, seed, seconds, trace, smoke):
    wl = WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        wl.prepare(seed, workdir, smoke=smoke)
        seconds = 0.0 if smoke else seconds
        if trace:
            result, info = run_traced(wl, seconds, workdir)
        else:
            result, info = run_untraced(wl, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    info["elapsed_s"] = time.perf_counter() - start
    report(name, seed, trace, result, info)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one pass of each kind, every check on")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "signcov" / "cli.py").is_file():
        print(f"error: signcov sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print("meta " + json.dumps(run_metadata(args.seed)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.smoke else (args.trace,)
    results = {}
    for name in names:
        for trace in traces:
            results[f"{name}/trace{trace}"] = run_one(
                name, args.seed, args.seconds, trace, args.smoke)
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
        return 0
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
