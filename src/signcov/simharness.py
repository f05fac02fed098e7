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
replication order. Reference quantities (population SSCM, limit variance)
use reserved stream indices that cannot collide with replication streams.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import platform
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.special import ndtr
from scipy.stats import norm

from .asymptotics import element_variance, fixed_location_cov
from .errors import InvalidInputError, from_json_object
from .linalg import spatial_signs
from .location import MedianOptions, locate
from .location import spatial_median  # noqa: F401 - bound for bench/ tracer tests
from .models import (
    EllipticalModel,
    SeededStream,
    population_sscm_closed_p2,
    population_sscm_mc,
    sample,
    singularity_model,
)
from .scatter import frobenius_error_gram

METHODS = ("known", "mean", "median")

# Reserved stream indices; replication streams use cell_index * R + rep,
# which stays far below 2**48 for any realistic grid.
_REF_VARIANCE_STREAM = 1 << 48
_REF_POPULATION_STREAM = (1 << 48) + 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment specification; see the module docstring for semantics.

    The model acts as a template. For ``table`` it must be spherical (mu = 0,
    V = I); per-cell models are rebuilt at each p of p_grid. For ``sweep`` it
    must be a singularity model; gamma is replaced per grid point. For ``qq``
    the model is used as given.
    """

    statistic: str
    model: EllipticalModel
    n_grid: tuple[int, ...]
    replications: int
    master_seed: int
    location_methods: tuple[str, ...] = ("known", "mean", "median")
    p_grid: tuple[int, ...] = ()
    gamma_grid: tuple[float, ...] = ()
    element: tuple[int, int] = (0, 1)
    ref_draws: int = 1_000_000
    median_tolerance: float = 1e-10
    median_max_iterations: int = 1000
    # built from the two fields above when the config is validated
    median_options: MedianOptions = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "p_grid", tuple(int(p) for p in self.p_grid))
        object.__setattr__(
            self, "gamma_grid", tuple(float(g) for g in self.gamma_grid)
        )
        object.__setattr__(
            self, "location_methods", tuple(self.location_methods)
        )
        object.__setattr__(self, "element", tuple(int(k) for k in self.element))
        object.__setattr__(self, "median_options", MedianOptions(
            tolerance=self.median_tolerance,
            max_iterations=self.median_max_iterations,
        ))
        self.validate()

    def validate(self):
        if self.statistic not in STATISTICS:
            raise InvalidInputError(f"unknown statistic {self.statistic!r}")
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
        if self.statistic == "table":
            if not self.p_grid or any(p < 2 for p in self.p_grid):
                raise InvalidInputError("table needs a p_grid of dimensions >= 2")
            if np.any(self.model.mu != 0.0) or not np.array_equal(
                self.model.V, np.eye(self.model.p)
            ):
                raise InvalidInputError(
                    "table experiments are defined for spherical models"
                )
        elif self.statistic == "sweep":
            if not self.p_grid or any(p < 2 for p in self.p_grid):
                raise InvalidInputError("sweep needs a p_grid of dimensions >= 2")
            if not self.gamma_grid or any(g <= 0 for g in self.gamma_grid):
                raise InvalidInputError("sweep needs a gamma_grid of positive values")
            if self.model.generator != "singularity":
                raise InvalidInputError("sweep requires a singularity model")
        else:  # qq
            i, j = self.element
            p = self.model.p
            if not (0 <= i < p and 0 <= j < p):
                raise InvalidInputError("element indices out of range")
            if self.ref_draws < 1000:
                raise InvalidInputError("ref_draws must be at least 1000")

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "model": self.model.to_json_dict(),
            "n_grid": list(self.n_grid),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "methods": list(self.location_methods),
            "p_grid": list(self.p_grid),
            "gamma_grid": list(self.gamma_grid),
            "element": list(self.element),
            "ref_draws": self.ref_draws,
            "median_tolerance": self.median_tolerance,
            "median_max_iterations": self.median_max_iterations,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        return from_json_object(d, "config", lambda d: cls(
            statistic=d["statistic"],
            model=EllipticalModel.from_json_dict(d["model"]),
            n_grid=tuple(d["n_grid"]),
            replications=int(d["replications"]),
            master_seed=int(d["master_seed"]),
            location_methods=tuple(d.get("methods", METHODS)),
            p_grid=tuple(d.get("p_grid", ())),
            gamma_grid=tuple(d.get("gamma_grid", ())),
            element=tuple(d.get("element", (0, 1))),
            ref_draws=int(d.get("ref_draws", 1_000_000)),
            median_tolerance=float(d.get("median_tolerance", 1e-10)),
            median_max_iterations=int(d.get("median_max_iterations", 1000)),
        ))

    def digest(self) -> str:
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
    statistic: str
    cells: list
    master_seed: int
    config: ExperimentConfig
    config_digest: str
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
    F = ndtr(x / math.sqrt(sigma2))
    n = x.size
    upper = np.arange(1, n + 1) / n - F
    lower = F - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------

def _spherical_error(X, t) -> float:
    """||SSCM(t) - (1/p) I||^2, routed through the Gram identity when p > n."""
    n, p = X.shape
    if p > n:
        return frobenius_error_gram(X, t)
    U = spatial_signs(X - t)
    S = U.T @ U / n
    S[np.diag_indices(p)] -= 1.0 / p
    return float(np.sum(S * S))


def _rep_values(config, payload, stream) -> np.ndarray:
    model = payload["model"]
    X = sample(model, payload["n"], stream)
    value = STATISTICS[config.statistic].value
    out = np.empty(len(config.location_methods))
    for k, method in enumerate(config.location_methods):
        # "known" is the fixed location at the model's center
        method = "fixed" if method == "known" else method
        t = locate(X, method, config.median_options, model.mu).estimate
        out[k] = value(config, payload, X, t)
    return out


def _run_task(task) -> np.ndarray:
    config, payload, cell_index, rep_lo, rep_hi = task
    out = np.empty((rep_hi - rep_lo, len(config.location_methods)))
    base = cell_index * config.replications
    for k, rep in enumerate(range(rep_lo, rep_hi)):
        stream = SeededStream(config.master_seed, base + rep)
        out[k] = _rep_values(config, payload, stream)
    return out


def _collect_cells(config, payloads, workers: int) -> list[np.ndarray]:
    """Replication values for every cell, shape (R, n_methods) each,
    assembled in replication order regardless of worker count.

    The pool never exceeds the task count or the machine's CPU count."""
    workers = min(workers, os.cpu_count() or 1)
    R = config.replications
    chunk = max(1, math.ceil(R / (workers * 4)))
    starts = range(0, R, chunk)
    tasks = [
        (config, payload, cell_index, lo, min(R, lo + chunk))
        for cell_index, payload in enumerate(payloads)
        for lo in starts
    ]
    workers = min(workers, len(tasks))
    if workers <= 1:
        chunks = [_run_task(t) for t in tasks]
    else:
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_run_task, tasks)
    per = len(starts)
    return [np.vstack(chunks[k * per:(k + 1) * per]) for k in range(len(payloads))]


# ---------------------------------------------------------------------------
# experiment families and the runner
# ---------------------------------------------------------------------------

def _sign_product(X, t, i: int, j: int) -> float:
    """n times element (i, j) of the SSCM about t."""
    U = spatial_signs(X - t)
    return float(U[:, i] @ U[:, j])


def _mean_cell(config, key, method, values, reference) -> CellResult:
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return CellResult(
        method=method, mean=float(values.mean()), se=se,
        replications=config.replications, **key,
    )


def _qq_cell(config, key, method, values, reference) -> QQCellResult:
    sigma2, quantiles = reference
    sorted_vals = np.sort(values)
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

    sigma^2 is the (i, j) limit variance taken from an MC estimate of the
    fixed-location limit covariance at ref_draws draws; the population S
    comes from the bivariate closed form when p = 2 and from a Monte Carlo
    oracle otherwise.
    """
    model = config.model
    i, j = config.element
    if model.p == 2:
        S_pop, pop_source = population_sscm_closed_p2(model.V), "closed_p2"
    else:
        S_pop, _ = population_sscm_mc(
            model, config.ref_draws,
            SeededStream(config.master_seed, _REF_POPULATION_STREAM),
        )
        pop_source = f"mc({config.ref_draws})"

    X_ref = sample(
        model, config.ref_draws,
        SeededStream(config.master_seed, _REF_VARIANCE_STREAM),
    )
    W = fixed_location_cov(X_ref, model.mu)
    sigma2 = element_variance(W, i, j)

    R = config.replications
    probs = (np.arange(1, R + 1) - 0.5) / R
    extras = {
        "sigma2": sigma2,
        "population_element": float(S_pop.matrix[i, j]),
        "population_source": pop_source,
        "ref_draws": config.ref_draws,
    }
    return extras, (sigma2, norm.ppf(probs) * math.sqrt(sigma2))


@dataclass(frozen=True)
class _Statistic:
    """One experiment family: its cells as (grid coordinates, model) pairs,
    the value one replication records at a location t, the reduction of a
    cell's values for one method, and the layout of each artifact: CSV
    header and rows, summary header, and the result attributes (columns)
    that the metadata cells and the summary lines show."""

    grid: Callable
    value: Callable
    reduce: Callable
    csv_header: tuple
    csv_rows: Callable
    summary_header: str
    columns: tuple


STATISTICS = {
    "table": _Statistic(
        grid=lambda c: [
            ({"p": p, "n": n}, EllipticalModel(
                c.model.generator, np.zeros(p), np.eye(p),
                nu=c.model.nu, gamma=c.model.gamma,
            ))
            for p in c.p_grid for n in c.n_grid
        ],
        value=lambda c, payload, X, t: payload["n"] * _spherical_error(X, t),
        reduce=_mean_cell,
        csv_header=("p", "n", "method", "mean", "se", "replications"),
        csv_rows=lambda c: [
            [c.p, c.n, c.method, _fmt(c.mean), _fmt(c.se), c.replications]
        ],
        summary_header="p n method mean se",
        columns=("p", "gamma", "n", "method", "mean", "se"),
    ),
    "qq": _Statistic(
        grid=lambda c: [({"n": n}, c.model) for n in c.n_grid],
        value=lambda c, payload, X, t: math.sqrt(payload["n"]) * (
            _sign_product(X, t, *c.element) / payload["n"] - payload["target"]
        ),
        reduce=_qq_cell,
        csv_header=("n", "method", "rank", "empirical", "reference"),
        csv_rows=lambda c: [
            [c.n, c.method, rank, _fmt(emp), _fmt(ref)]
            for rank, (emp, ref) in enumerate(zip(c.values, c.reference), 1)
        ],
        summary_header="n method sigma2 ks",
        columns=("n", "method", "sigma2", "ks"),
    ),
    "sweep": _Statistic(
        grid=lambda c: [
            ({"p": p, "gamma": g, "n": n}, singularity_model(g, p))
            for p in c.p_grid for g in c.gamma_grid for n in c.n_grid
        ],
        # the population off-diagonal is 0 since V = I
        value=lambda c, payload, X, t: abs(_sign_product(X, t, 0, 1)) / payload["n"],
        reduce=_mean_cell,
        csv_header=("p", "gamma", "n", "method", "mean_abs_error", "se",
                    "replications"),
        csv_rows=lambda c: [[c.p, _fmt(c.gamma), c.n, c.method,
                             _fmt(c.mean), _fmt(c.se), c.replications]],
        summary_header="p gamma n method mean_abs_error se",
        columns=("p", "gamma", "n", "method", "mean", "se"),
    ),
}


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run every replication of every cell, then reduce each cell per
    location method, in replication order for any worker count."""
    if workers < 1:  # checked before the costly reference quantities
        raise InvalidInputError("workers must be at least 1")
    start = time.perf_counter()
    stat = STATISTICS[config.statistic]
    extras, reference = _qq_reference(config) if config.statistic == "qq" else ({}, None)
    grid = stat.grid(config)
    payloads = [
        {"model": model, "n": key["n"], "target": extras.get("population_element")}
        for key, model in grid
    ]
    values = _collect_cells(config, payloads, workers)
    cells = [
        stat.reduce(config, key, method, vals[:, k], reference)
        for (key, _), vals in zip(grid, values)
        for k, method in enumerate(config.location_methods)
    ]
    return ExperimentResult(
        statistic=config.statistic,
        cells=cells,
        master_seed=config.master_seed,
        config=config,
        config_digest=config.digest(),
        wall_time=time.perf_counter() - start,
        extras=extras,
    )


def _expect(config: ExperimentConfig, statistic: str) -> ExperimentConfig:
    if config.statistic != statistic:
        raise InvalidInputError(f"config.statistic must be {statistic!r}")
    return config


def run_table_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Average of n * ||SSCM - (1/p) I||^2 per (p, n, method) cell."""
    return run_experiment(_expect(config, "table"), workers)


def run_qq_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Replication values of sqrt(n) * (SSCM[i,j] - S[i,j]) per (n, method),
    paired with N(0, sigma^2) reference quantiles (see _qq_reference)."""
    return run_experiment(_expect(config, "qq"), workers)


def run_gamma_sweep(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Mean absolute error of the (1, 2) element per (p, gamma, n, method)."""
    return run_experiment(_expect(config, "sweep"), workers)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_result_csv(result: ExperimentResult, path) -> None:
    """One CSV row per cell (table/sweep) or per quantile pair (qq)."""
    stat = STATISTICS[result.statistic]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(stat.csv_header)
        for c in result.cells:
            writer.writerows(stat.csv_rows(c))


def write_metadata_json(result: ExperimentResult, path) -> None:
    from . import __version__

    meta = {
        "statistic": result.statistic,
        "config": result.config.to_json_dict(),
        "config_digest": result.config_digest,
        "master_seed": result.master_seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "signcov": __version__,
        },
        "wall_time": result.wall_time,
        "extras": result.extras,
        "cells": [
            {a: getattr(c, a) for a in STATISTICS[result.statistic].columns}
            for c in result.cells
        ],
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
