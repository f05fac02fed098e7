"""Deterministic, parallel Monte Carlo experiments for the SSCM.

Three experiment families:

* ``table`` -- per (p, n, location method), the average of
  n * ||SSCM - (1/p) I_p||^2 over replications, for spherical models.
* ``qq``    -- per (n, method), the replication values of
  sqrt(n) * (SSCM[i, j] - S[i, j]) paired with matching normal reference
  quantiles, plus a Kolmogorov-Smirnov distance to the limit normal.
* ``sweep`` -- per (p, gamma, n, method), the mean absolute error of the
  off-diagonal element (1, 2) under the singularity family.

Determinism contract: every replication draws from its own stream, keyed by
(cell index, replication index) and the master seed only. Results are
therefore bitwise identical for any worker count, and aggregation happens in
replication order. The ``qq`` reference quantities (population element,
limit variance) are exact functions of the model's shape matrix
(``models.sign_moments``) and draw no random numbers.

Replications run in blocks of B = max(1, 2**15 // (max(n, p) * p)) starting
at multiples of B within a cell (327 at n <= 10 and 109 at n = 30, p = 10;
1 at n = 20000, p = 2), which keeps a block's samples (B, n, p) and Newton
systems (B, p, p) within 2**15 elements unless one alone is larger. A task
is a run of whole blocks, so ``--workers`` never moves a block boundary, and
each slice gets the bits it gets alone (see the ``location`` module docstring).
Tasks run here and in children forked after the OpenBLAS pin and malloc
thresholds, which inherit both and the tasks; values come back.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import json
import math
import numbers
import os
import pickle
import platform
import signal
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import InvalidInputError, fields_from_json, fields_to_json
from .linalg import _signs_about
from .location import MedianOptions, _locations
from .location import spatial_median  # noqa: F401 - bound for bench/ tracer tests
from .models import (
    EllipticalModel,
    _draw,
    _keyed_generators,
    _stream_keys,
    population_sscm_closed_p2,
    sign_moments,
    singularity_model,
)
from .scatter import _gram_error

METHODS = ("known", "mean", "median")

# read and ignored: ref_draws sized the Monte Carlo qq reference of older versions
_LEGACY_CONFIG_KEYS = frozenset({"ref_draws"})


def _whole(value, name: str) -> int:
    """value as an int; JSON's 1e3 counts, 2.5 and true do not."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise InvalidInputError(f"{name}: {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment specification; see the module docstring for semantics.

    The model acts as a template. For ``table`` it must be spherical (mu = 0,
    V = I); per-cell models are rebuilt at each p of p_grid. For ``sweep`` it
    must be a singularity model; gamma is replaced per grid point. For ``qq``
    the model is used as given.
    """

    statistic: str
    model: EllipticalModel = field(metadata={"read": EllipticalModel.from_json_dict})
    n_grid: tuple[int, ...]
    replications: int
    master_seed: int
    location_methods: tuple[str, ...] = field(default=METHODS, metadata={"json": "methods"})
    p_grid: tuple[int, ...] = ()
    gamma_grid: tuple[float, ...] = ()
    element: tuple[int, int] = (0, 1)
    median_tolerance: float = 1e-10
    median_max_iterations: int = 1000
    # built from the two fields above when the config is validated
    median_options: MedianOptions = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("replications", "master_seed", "median_max_iterations"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        for name in ("n_grid", "p_grid", "element"):
            object.__setattr__(self, name, tuple(_whole(k, name) for k in getattr(self, name)))
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in self.gamma_grid))
        object.__setattr__(self, "location_methods", tuple(self.location_methods))
        object.__setattr__(self, "median_tolerance", float(self.median_tolerance))
        object.__setattr__(self, "median_options", MedianOptions(
            self.median_tolerance, self.median_max_iterations))
        self.validate()

    def validate(self):
        if self.statistic not in STATISTICS:
            raise InvalidInputError(f"unknown statistic {self.statistic!r}")
        for f in dataclasses.fields(self):
            if f.name in STATISTICS[self.statistic].unread and getattr(self, f.name) != f.default:
                raise InvalidInputError(f"{f.name} does not apply to {self.statistic}")
        if self.replications < 1:
            raise InvalidInputError("replications must be at least 1")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise InvalidInputError("n_grid must contain positive sample sizes")
        if not self.location_methods:
            raise InvalidInputError("at least one location method is required")
        for m in self.location_methods:
            if m not in METHODS:
                raise InvalidInputError(f"unknown location method {m!r}")
        if self.master_seed < 0:
            raise InvalidInputError("master_seed must be non-negative")
        if len(self.element) != 2:
            raise InvalidInputError("element must be a pair of indices")
        if self.statistic != "qq" and (not self.p_grid or any(p < 2 for p in self.p_grid)):
            raise InvalidInputError(f"{self.statistic} needs a p_grid of dimensions >= 2")
        if self.statistic == "table":
            if np.any(self.model.mu != 0.0) or not np.array_equal(
                self.model.V, np.eye(self.model.p)
            ):
                raise InvalidInputError(
                    "table experiments are defined for spherical models"
                )
        elif self.statistic == "sweep":
            if not self.gamma_grid or any(g <= 0 for g in self.gamma_grid):
                raise InvalidInputError("sweep needs a gamma_grid of positive values")
            if self.model.generator != "singularity":
                raise InvalidInputError("sweep requires a singularity model")
        elif not all(0 <= k < self.model.p for k in self.element):  # qq
            raise InvalidInputError("element indices out of range")

    def to_json_dict(self) -> dict:
        return fields_to_json(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        """The config that d describes; a key this does not read (say, a
        misspelled optional key) raises rather than leave its default."""
        return fields_from_json(cls, d, "config", _LEGACY_CONFIG_KEYS,
                                numbers={"gamma_grid", "median_tolerance"})

    def digest(self) -> str:
        import hashlib  # here, not at the top: it loads OpenSSL, which a file command never needs

        text = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def fast_profile(self) -> "ExperimentConfig":
        """1/10-scale replication count for CI-speed runs."""
        return dataclasses.replace(
            self, replications=max(1, self.replications // 10)
        )


@dataclass
class CellResult:
    p: int
    n: int
    method: str
    mean: float
    se: float
    replications: int
    gamma: float | None = None


@dataclass
class QQCellResult:
    n: int
    method: str
    sigma2: float
    ks: float
    values: np.ndarray = field(repr=False)      # sorted replication values
    reference: np.ndarray = field(repr=False)   # matching normal quantiles


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    cells: list
    wall_time: float
    extras: dict = field(default_factory=dict)


def ks_statistic(sample_values, sigma2: float) -> float:
    """Sup distance between the empirical CDF of the values and the CDF of
    a centered normal with variance sigma2."""
    x = np.sort(np.asarray(sample_values, dtype=float).ravel())
    if x.size == 0:
        raise InvalidInputError("sample must be nonempty")
    if not sigma2 > 0:
        raise InvalidInputError("sigma2 must be positive")
    z = (x / math.sqrt(sigma2)).tolist()
    F = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])  # the N(0, 1) CDF
    n = x.size
    upper = np.arange(1, n + 1) / n - F
    lower = F - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------

def _block_size(n: int, p: int) -> int:
    """Replications per block of an (n, p) cell (see the module docstring)."""
    return max(1, 2**15 // (max(n, p) * p))


def _table_values(c, U) -> np.ndarray:
    """n * ||SSCM - (1/p) I||^2 per slice of a block of signs U (B, n, p),
    through the n x n Gram matrix when p > n."""
    B, n, p = U.shape
    if p > n:
        return n * _gram_error(U)
    S = U.transpose(0, 2, 1) @ U / n
    S[:, range(p), range(p)] -= 1.0 / p
    return n * (S * S).reshape(B, -1).sum(axis=1)


def _block_values(config, model, X) -> np.ndarray:
    """Replication values (B, n_methods) of a block of samples (B, n, p) of the
    model: the statistic of the block's spatial signs about each location,
    "known" being the location fixed at the model's center."""
    value = STATISTICS[config.statistic].value
    out = np.empty((len(X), len(config.location_methods)))
    for k, method in enumerate(config.location_methods):
        t = _locations(X, "fixed" if method == "known" else method, config.median_options, model.mu)
        out[:, k] = value(config, _signs_about(X, t[0][:, None]))
    return out


def _run_task(task) -> np.ndarray:
    """Values of replications rep_lo to rep_hi - 1 of a cell, a run of whole
    blocks; each samples from its own stream, one Philox re-keyed for each."""
    config, model, cell_index, rep_lo, rep_hi, n = task
    size, base = _block_size(n, model.p), cell_index * config.replications
    streams = _keyed_generators(
        _stream_keys(config.master_seed, range(base + rep_lo, base + rep_hi)))
    block_sizes = [min(size, rep_hi - lo) for lo in range(rep_lo, rep_hi, size)]
    return np.vstack([_block_values(config, model, _draw(model, n, B, islice(streams, B)))
                      for B in block_sizes])


# the C thread-count calls of OpenBLAS, plain or under scipy's symbol names
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}",
     f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("", "scipy_") for suffix in ("", "64_")
)


def _openblas_thread_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process, found through /proc/self/maps; empty where there is none or
    no such file (another OS, another BLAS)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:  # RTLD_NOLOAD: only a handle on what is already loaded
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get_threads, set_threads = getattr(lib, get_name), getattr(lib, set_name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                controls.append((get_threads, set_threads))
                break
    return controls


def _pin_one_blas_thread() -> list:
    """Set every loaded OpenBLAS to one thread; returns (set, previous
    count) per library it changed. One already at one thread is left
    alone: setting it would restart a BLAS thread pool that a fork shut
    down, whose idle threads spin."""
    pinned = [(set_threads, n)
              for get_threads, set_threads in _openblas_thread_controls()
              if (n := get_threads()) != 1]
    for set_threads, _ in pinned:
        set_threads(1)
    return pinned


def _keep_freed_heap() -> None:
    """Keep freed temporaries in glibc's heap, where large-n replications reuse
    faulted-in pages. Set both: one ends the dynamic thresholds (max 32 MiB,
    trim at 2x). glibc cannot report or undo them, so they stay set."""
    with contextlib.suppress(AttributeError, OSError, TypeError):  # no mallopt
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread, then restore
    each library's previous count.

    A threaded BLAS reduction rounds by its split, which follows the thread
    count, so pinning makes the replication values independent of the host;
    it also keeps BLAS threads from oversubscribing the CPUs. Children
    forked in the body inherit the pin and the malloc thresholds."""
    _keep_freed_heap()
    pinned = _pin_one_blas_thread()
    try:
        yield
    finally:
        for set_threads, previous in pinned:
            set_threads(previous)


def _forked_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items], run by this process and workers - 1 forked
    children, which inherit fn and items. The queue is a pipe of one 8-byte
    index per process: the taker of i puts back i + workers, or i once past
    the end, and stops after workers ends in a row, so a child that dies
    loses only its own put-backs. A child pickles its (index, value) pairs
    or its exception into its own pipe and leaves by os._exit."""
    queue_r, queue_w = os.pipe()
    children = {}  # pid -> the read end of its result pipe

    def run() -> list:
        done, ends = [], 0
        while ends < workers:
            i = int.from_bytes(os.read(queue_r, 8), "little")
            ends = ends + 1 if i >= len(items) else 0
            os.write(queue_w, (i if ends else i + workers).to_bytes(8, "little"))
            done += [] if ends else [(i, fn(items[i]))]
        return done

    try:
        os.write(queue_w, b"".join(i.to_bytes(8, "little") for i in range(workers)))
        for _ in range(workers - 1):
            result_r, result_w = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # never return into the caller, nor flush its stdio buffers
                    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # for an OpenBLAS loaded later
                    try:
                        out = run()
                    except BaseException as exc:  # re-raised by the parent
                        out = exc
                    with open(result_w, "wb") as fh:
                        pickle.dump(out, fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(result_w)
            children[pid] = open(result_r, "rb")
        pairs = run()
        for pid in list(children):
            data = children[pid].read()
            status = os.waitpid(pid, 0)[1]
            children.pop(pid).close()
            out = pickle.loads(data) if status == 0 else ChildProcessError(
                f"worker {pid} sent no result: wait status {status}")
            if isinstance(out, BaseException):
                raise out
            pairs += out
    finally:
        for pid, fh in children.items():  # left after an error: stop and reap
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(queue_r)
        os.close(queue_w)
    return [value for _, value in sorted(pairs, key=lambda pair: pair[0])]


def _collect_cells(config, grid, workers: int) -> list[np.ndarray]:
    """Replication values for every (key, model) cell of the grid, shape (R,
    n_methods) each, assembled in replication order regardless of worker
    count, with one BLAS thread per process.

    A task is a run of whole blocks of one cell. The processes never
    outnumber the tasks or CPUs; there is one where CPython's
    multiprocessing does not default to fork (Windows, macOS)."""
    forks = hasattr(os, "fork") and platform.system() != "Darwin"
    workers = min(workers, os.cpu_count() or 1) if forks else 1
    R = config.replications
    tasks = []
    for cell_index, (key, model) in enumerate(grid):
        size = _block_size(key["n"], model.p)
        chunk = size * math.ceil(math.ceil(R / size) / (workers * 4))
        tasks += [(config, model, cell_index, lo, min(R, lo + chunk), key["n"])
                  for lo in range(0, R, chunk)]
    with _one_blas_thread():
        chunks = _forked_map(_run_task, tasks, min(workers, len(tasks)))
    return [np.vstack([c for t, c in zip(tasks, chunks) if t[2] == k])
            for k in range(len(grid))]


# ---------------------------------------------------------------------------
# experiment families and the runner
# ---------------------------------------------------------------------------

def _mean_cell(config, key, method, values, extras, reference) -> CellResult:
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return CellResult(
        method=method, mean=float(values.mean()), se=se,
        replications=config.replications, **key,
    )


def _qq_cell(config, key, method, values, extras, reference) -> QQCellResult:
    """sqrt(n) * (S[i, j] - the population element) of the recorded S[i, j],
    sorted and paired with the reference quantiles."""
    sigma2, quantiles = reference
    sorted_vals = np.sort(math.sqrt(key["n"]) * (values - extras["population_element"]))
    return QQCellResult(
        method=method,
        sigma2=sigma2,
        ks=ks_statistic(sorted_vals, sigma2),
        values=sorted_vals,
        reference=quantiles,
        **key,
    )


def _qq_reference(config) -> tuple[dict, tuple[float, np.ndarray]]:
    """The qq run's metadata extras, and (sigma^2, the N(0, sigma^2)
    quantiles paired with the sorted replication values).

    sigma^2 is the exact fixed-location limit variance of element (i, j),
    from the sign moments by quadrature (models.sign_moments); the
    population S[i, j] comes from the bivariate closed form when p = 2 and
    from the same moments otherwise. Both depend on the shape matrix alone,
    so the reference draws nothing and is the same for every seed; the
    extras record where each came from.
    """
    from statistics import NormalDist  # loaded on first use, before the clock

    model = config.model
    i, j = config.element
    moments = sign_moments(model.V)
    if model.p == 2:
        S_pop, pop_source = population_sscm_closed_p2(model.V), "closed_p2"
    else:
        S_pop, pop_source = moments.population(), "quadrature"
    sigma2 = moments.element_variance(i, j)

    R = config.replications
    probs = (np.arange(1, R + 1) - 0.5) / R
    extras = {
        "sigma2": sigma2,
        "sigma2_source": "quadrature",
        "population_element": float(S_pop.matrix[i, j]),
        "population_source": pop_source,
    }
    quantiles = np.array([NormalDist().inv_cdf(q) for q in probs])
    return extras, (sigma2, quantiles * math.sqrt(sigma2))


@dataclass(frozen=True)
class _Statistic:
    """One experiment family: its cells as (grid coordinates, model) pairs,
    the values a block of replications records from its spatial signs about
    one location (see _block_values), the reduction of a cell's values for
    one method given the run's extras and reference, the layout of each
    artifact: CSV header and rows, summary header, and the result attributes
    (columns) that the metadata cells and the summary lines show, and the
    config fields it never reads, which a config must leave at their defaults."""

    grid: Callable
    value: Callable
    reduce: Callable
    csv_header: tuple
    csv_rows: Callable
    summary_header: str
    columns: tuple
    unread: tuple


STATISTICS = {
    "table": _Statistic(
        grid=lambda c: [
            ({"p": p, "n": n}, EllipticalModel(
                c.model.generator, np.zeros(p), np.eye(p),
                nu=c.model.nu, gamma=c.model.gamma,
            ))
            for p in c.p_grid for n in c.n_grid
        ],
        value=_table_values,
        reduce=_mean_cell,
        csv_header=("p", "n", "method", "mean", "se", "replications"),
        csv_rows=lambda c: [
            [c.p, c.n, c.method, _fmt(c.mean), _fmt(c.se), c.replications]
        ],
        summary_header="p n method mean se",
        columns=("p", "gamma", "n", "method", "mean", "se"),
        unread=("gamma_grid", "element"),
    ),
    "qq": _Statistic(
        grid=lambda c: [({"n": n}, c.model) for n in c.n_grid],
        value=lambda c, U: np.vecdot(U[..., c.element[0]], U[..., c.element[1]]) / U.shape[1],
        reduce=_qq_cell,
        csv_header=("n", "method", "rank", "empirical", "reference"),
        csv_rows=lambda c: [
            [c.n, c.method, rank, _fmt(emp), _fmt(ref)]
            for rank, (emp, ref) in enumerate(zip(c.values, c.reference), 1)
        ],
        summary_header="n method sigma2 ks",
        columns=("n", "method", "sigma2", "ks"),
        unread=("p_grid", "gamma_grid"),
    ),
    "sweep": _Statistic(
        grid=lambda c: [
            ({"p": p, "gamma": g, "n": n}, singularity_model(g, p))
            for p in c.p_grid for g in c.gamma_grid for n in c.n_grid
        ],
        # the population off-diagonal is 0 since V = I
        value=lambda c, U: np.abs(np.vecdot(U[..., 0], U[..., 1])) / U.shape[1],
        reduce=_mean_cell,
        csv_header=("p", "gamma", "n", "method", "mean_abs_error", "se",
                    "replications"),
        csv_rows=lambda c: [[c.p, _fmt(c.gamma), c.n, c.method,
                             _fmt(c.mean), _fmt(c.se), c.replications]],
        summary_header="p gamma n method mean_abs_error se",
        columns=("p", "gamma", "n", "method", "mean", "se"),
        unread=("element",),
    ),
}


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run every replication of every cell, then reduce each cell per
    location method, in replication order for any worker count."""
    if workers < 1:
        raise InvalidInputError("workers must be at least 1")
    # load the modules the replications (numpy.random, for every statistic)
    # and the qq reference load on first use before the clock, so that
    # wall_time counts no import, and before any fork, so that no worker
    # imports them again
    import numpy.random  # noqa: F401
    if config.statistic == "qq":
        import numpy.polynomial  # noqa: F401
        import statistics  # noqa: F401
    start = time.perf_counter()
    stat = STATISTICS[config.statistic]
    extras, reference = _qq_reference(config) if config.statistic == "qq" else ({}, None)
    grid = stat.grid(config)
    values = _collect_cells(config, grid, workers)
    cells = [
        stat.reduce(config, key, method, vals[:, k], extras, reference)
        for (key, _), vals in zip(grid, values)
        for k, method in enumerate(config.location_methods)
    ]
    return ExperimentResult(
        config=config,
        cells=cells,
        wall_time=time.perf_counter() - start,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_result_csv(result: ExperimentResult, path) -> None:
    """One CSV row per cell (table/sweep) or per quantile pair (qq)."""
    stat = STATISTICS[result.config.statistic]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(stat.csv_header)
        for c in result.cells:
            writer.writerows(stat.csv_rows(c))


def write_metadata_json(result: ExperimentResult, path) -> None:
    from . import __version__

    config = result.config
    meta = {
        "statistic": config.statistic,
        "config": config.to_json_dict(),
        "config_digest": config.digest(),
        "master_seed": config.master_seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "signcov": __version__,
        },
        "wall_time": result.wall_time,
        "extras": result.extras,
        "cells": [
            {a: getattr(c, a) for a in STATISTICS[config.statistic].columns}
            for c in result.cells
        ],
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
