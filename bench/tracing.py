"""Span tracer for the benchmark's traced pass.

The tracer wraps signcov's functions at every name a caller binds (for
example ``signcov.simharness.spatial_median`` as well as
``signcov.location.spatial_median``), records one span per call and puts
every binding back afterwards. Nothing under ``src/`` is modified.

A span is ``(name, start, end, parent, rep)``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``rep`` the stream index of the
replication the call belongs to (-1 outside replications). Spans stay in
memory; the caller writes them out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from statistics import median


def _on_median(tracer, args, kwargs, result):
    c = tracer.counts
    c["location.median_iterations"] += result.iterations
    c["location.median_iterations_max"] = max(
        c["location.median_iterations_max"], result.iterations
    )
    c["location.median_uncertified"] += not result.converged
    c["location.median_anchored"] += bool(result.anchored)


def _on_sample(tracer, args, kwargs, result):
    tracer.counts["models.sample_bytes"] += result.nbytes


def _on_ssscm(tracer, args, kwargs, result):
    tracer.counts["scatter.ssscm_pairs"] += result.n_effective


def _on_fixed_cov(tracer, args, kwargs, result):
    # the two n x p^2 arrays the covariance builds (Z and its centred copy)
    n, p = args[0].shape
    tracer.counts["asymptotics.fixed_cov_bytes"] += 2 * n * p * p * 8


def _on_write_csv(tracer, args, kwargs, result):
    tracer.counts["simharness.csv_bytes"] += os.path.getsize(args[1])


def _on_task(tracer, args, kwargs, result):
    tracer.counts["simharness.tasks"] += 1


def _rep_of_values(args, kwargs):
    return args[2].stream_index


# (module, attribute, span name, required, result hook, replication-id hook)
# Span names are "<layer>.<function>". Private harness and CLI hooks are
# optional so the tracer keeps working when a refactor removes them.
TARGETS = [
    ("signcov.linalg", "row_norms", "linalg.row_norms", True, None, None),
    ("signcov.linalg", "spatial_signs", "linalg.spatial_signs", True, None, None),
    ("signcov.location", "spatial_median", "location.spatial_median", True,
     _on_median, None),
    ("signcov.models", "SeededStream.generator", "models.stream", True, None, None),
    ("signcov.models", "sample", "models.sample", True, _on_sample, None),
    ("signcov.models", "population_sscm_mc", "models.oracle_mc", True, None, None),
    ("signcov.models", "population_sscm_closed_p2", "models.oracle_closed", True,
     None, None),
    ("signcov.scatter", "frobenius_error_gram", "scatter.gram", True, None, None),
    ("signcov.scatter", "sscm_fixed", "scatter.sscm_fixed", True, None, None),
    ("signcov.scatter", "sscm_star", "scatter.sscm_star", True, None, None),
    ("signcov.scatter", "sscm_plugin", "scatter.sscm_plugin", True, None, None),
    ("signcov.scatter", "ssscm", "scatter.ssscm", True, _on_ssscm, None),
    ("signcov.asymptotics", "fixed_location_cov", "asymptotics.fixed_cov", True,
     _on_fixed_cov, None),
    ("signcov.asymptotics", "compute_bundle", "asymptotics.bundle", True, None, None),
    ("signcov.asymptotics", "location_sensitivity", "asymptotics.sensitivity", True,
     None, None),
    ("signcov.asymptotics", "joint_mean_cov", "asymptotics.joint", True, None, None),
    ("signcov.asymptotics", "sandwich_cov", "asymptotics.sandwich", True, None, None),
    ("signcov.asymptotics", "element_variance", "asymptotics.element_variance", True,
     None, None),
    ("signcov.simharness", "run_experiment", "simharness.run_experiment", True,
     None, None),
    ("signcov.simharness", "ks_statistic", "simharness.ks", True, None, None),
    ("signcov.simharness", "write_result_csv", "simharness.write_csv", True,
     _on_write_csv, None),
    ("signcov.simharness", "write_metadata_json", "simharness.write_meta", True,
     None, None),
    ("signcov.simharness", "_run_task", "simharness.task", False, _on_task, None),
    ("signcov.simharness", "_rep_values", "simharness.replication", False, None,
     _rep_of_values),
    ("signcov.cli", "read_numeric_csv", "cli.read_csv", True, None, None),
    ("signcov.cli", "_emit", "cli.emit", False, None, None),
]

ROOT_SPAN = "cli.main"


class Tracer:
    """Records spans and counts; ``installed()`` wraps and restores."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.counts = defaultdict(int)
        self.rep = -1
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.rep = -1
        self._stack = []

    def wrap(self, name, fn, on_result=None, rep_of=None):
        """Return fn wrapped so that each call records one span."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            saved_rep = tracer.rep
            if rep_of is not None:
                tracer.rep = rep_of(args, kwargs)
            rep = tracer.rep
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, rep)
                tracer.rep = saved_rep
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named name."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every target inside signcov and restore
        all of them on exit, whatever happens in the body."""
        try:
            for target in self.targets:
                self._install_one(*target)
            yield self
        finally:
            self.uninstall()

    def _install_one(self, module_name, attr, name, required, on_result, rep_of):
        module = importlib.import_module(module_name)
        if "." in attr:  # a method: patch the class attribute
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self._patch(cls, method, self.wrap(name, original, on_result, rep_of))
            return
        original = getattr(module, attr, None)
        if original is None:
            if required:
                raise AttributeError(f"{module_name}.{attr} not found")
            return
        wrapper = self.wrap(name, original, on_result, rep_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "signcov":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def union_length(intervals, lo, hi):
    """Length of the union of intervals, each clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for name, start, end, parent, rep in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(children[i], start, end)
        for i, (name, start, end, parent, rep) in enumerate(spans)
    ]


def _layer_spans(layer):
    return {t[2] for t in TARGETS if t[2].startswith(layer + ".")}


# Span names summed into each per-layer time metric. Every span name falls
# into exactly one of these, so together they partition a traced pass.
LAYER_TIMES = {
    "location.median_self_s": {"location.spatial_median"},
    "models.stream_s": {"models.stream"},
    "models.sample_self_s": {"models.sample"},
    "models.oracle_s": {"models.oracle_mc", "models.oracle_closed"},
    "linalg.row_norms_self_s": {"linalg.row_norms"},
    "linalg.spatial_signs_self_s": {"linalg.spatial_signs"},
    "scatter.gram_self_s": {"scatter.gram"},
    "scatter.sscm_s": {"scatter.sscm_fixed", "scatter.sscm_star", "scatter.sscm_plugin"},
    "scatter.ssscm_s": {"scatter.ssscm"},
    "asymptotics.fixed_cov_s": {"asymptotics.fixed_cov"},
    "asymptotics.bundle_s": _layer_spans("asymptotics") - {"asymptotics.fixed_cov"},
    "simharness.self_s": _layer_spans("simharness"),
    "cli.self_s": _layer_spans("cli") | {ROOT_SPAN},
}
# parts of a layer total above, reported alongside it
LAYER_TIME_PARTS = {
    "simharness.write_s": {"simharness.write_csv", "simharness.write_meta"},
    "cli.read_csv_s": {"cli.read_csv"},
    "cli.emit_s": {"cli.emit"},
}


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass from its spans and counts."""
    selfs = self_times(spans)
    out = {}
    for metric, names in {**LAYER_TIMES, **LAYER_TIME_PARTS}.items():
        out[metric] = sum(s for (name, *_), s in zip(spans, selfs)
                          if name in names)
    calls = defaultdict(int)
    median_total = 0.0
    for name, start, end, parent, rep in spans:
        calls[name] += 1
        if name == "location.spatial_median":
            median_total += end - start
    n_median = calls["location.spatial_median"]
    iterations = counts.get("location.median_iterations", 0)
    uncertified = counts.get("location.median_uncertified", 0)
    out.update({
        "location.median_calls": n_median,
        "location.median_iterations_mean": iterations / n_median if n_median else 0.0,
        "location.median_iterations_max": counts.get("location.median_iterations_max", 0),
        "location.median_s_per_iteration": median_total / iterations if iterations else 0.0,
        "location.median_uncertified": uncertified,
        "location.median_uncertified_frac": uncertified / n_median if n_median else 0.0,
        "location.median_anchored": counts.get("location.median_anchored", 0),
        "models.stream_calls": calls["models.stream"],
        "models.sample_calls": calls["models.sample"],
        "models.sample_bytes": counts.get("models.sample_bytes", 0),
        "linalg.row_norms_calls": calls["linalg.row_norms"],
        "linalg.spatial_signs_calls": calls["linalg.spatial_signs"],
        "scatter.gram_calls": calls["scatter.gram"],
        "scatter.ssscm_pairs": counts.get("scatter.ssscm_pairs", 0),
        "asymptotics.fixed_cov_bytes": counts.get("asymptotics.fixed_cov_bytes", 0),
        "simharness.csv_bytes": counts.get("simharness.csv_bytes", 0),
        "simharness.tasks": counts.get("simharness.tasks", 0),
    })
    out["trace.accounted_s"] = sum(out[m] for m in LAYER_TIMES)
    return out


def median_metrics(per_pass):
    """Median of each metric over a list of per-pass metric dicts."""
    return {k: median(d[k] for d in per_pass) for k in per_pass[0]}
