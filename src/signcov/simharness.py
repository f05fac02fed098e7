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
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.special import ndtr
from scipy.stats import norm

from .asymptotics import element_variance, fixed_location_cov
from .errors import InvalidInputError
from .linalg import spatial_signs
from .location import MedianOptions, spatial_median
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
STATISTICS = ("table", "qq", "sweep")

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
        try:
            return cls(
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
            )
        except KeyError as exc:
            raise InvalidInputError(f"config missing key {exc}") from None

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

def _locate(X, method, model, opts):
    if method == "known":
        return model.mu
    if method == "mean":
        return X.mean(axis=0)
    return spatial_median(X, opts).estimate


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
    n = payload["n"]
    X = sample(model, n, stream)
    opts = MedianOptions(
        tolerance=config.median_tolerance,
        max_iterations=config.median_max_iterations,
    )
    out = np.empty(len(config.location_methods))
    for k, method in enumerate(config.location_methods):
        t = _locate(X, method, model, opts)
        if config.statistic == "table":
            out[k] = n * _spherical_error(X, t)
        elif config.statistic == "qq":
            i, j = config.element
            U = spatial_signs(X - t)
            s_ij = float(U[:, i] @ U[:, j]) / n
            out[k] = math.sqrt(n) * (s_ij - payload["target"])
        else:  # sweep: population off-diagonal is 0 since V = I
            U = spatial_signs(X - t)
            out[k] = abs(float(U[:, 0] @ U[:, 1])) / n
    return out


def _run_task(task) -> np.ndarray:
    config, payload, cell_index, rep_lo, rep_hi = task
    out = np.empty((rep_hi - rep_lo, len(config.location_methods)))
    base = cell_index * config.replications
    for k, rep in enumerate(range(rep_lo, rep_hi)):
        stream = SeededStream(config.master_seed, base + rep)
        out[k] = _rep_values(config, payload, stream)
    return out


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise InvalidInputError("workers must be at least 1")


def _collect_cells(config, payloads, workers: int) -> list[np.ndarray]:
    """Replication values for every cell, shape (R, n_methods) each,
    assembled in replication order regardless of worker count.

    The pool never exceeds the task count or the machine's CPU count."""
    _check_workers(workers)
    workers = min(workers, os.cpu_count() or 1)
    R = config.replications
    chunk = max(1, math.ceil(R / (workers * 4)))
    tasks = []
    for cell_index, payload in enumerate(payloads):
        lo = 0
        while lo < R:
            hi = min(R, lo + chunk)
            tasks.append((config, payload, cell_index, lo, hi))
            lo = hi
    workers = min(workers, len(tasks))
    if workers <= 1:
        chunks = [_run_task(t) for t in tasks]
    else:
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_run_task, tasks)
    cells = []
    pos = 0
    for _ in payloads:
        parts = []
        total = 0
        while total < R:
            parts.append(chunks[pos])
            total += chunks[pos].shape[0]
            pos += 1
        cells.append(np.vstack(parts))
    return cells


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size > 1:
        se = float(values.std(ddof=1) / math.sqrt(values.size))
    else:
        se = 0.0
    return mean, se


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _spherical_cell_model(config, p: int) -> EllipticalModel:
    template = config.model
    if template.generator == "gaussian":
        return EllipticalModel("gaussian", np.zeros(p), np.eye(p))
    if template.generator == "student_t":
        return EllipticalModel(
            "student_t", np.zeros(p), np.eye(p), nu=template.nu
        )
    return singularity_model(template.gamma, p)


def run_table_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Average of n * ||SSCM - (1/p) I||^2 per (p, n, method) cell."""
    if config.statistic != "table":
        raise InvalidInputError("config.statistic must be 'table'")
    start = time.perf_counter()
    specs = [(p, n) for p in config.p_grid for n in config.n_grid]
    payloads = [
        {"model": _spherical_cell_model(config, p), "n": n} for p, n in specs
    ]
    values = _collect_cells(config, payloads, workers)
    cells = []
    for (p, n), vals in zip(specs, values):
        for k, method in enumerate(config.location_methods):
            mean, se = _mean_se(vals[:, k])
            cells.append(CellResult(p, n, method, mean, se, config.replications))
    return ExperimentResult(
        statistic="table",
        cells=cells,
        master_seed=config.master_seed,
        config=config,
        config_digest=config.digest(),
        wall_time=time.perf_counter() - start,
    )


def run_qq_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Replication values of sqrt(n) * (SSCM[i,j] - S[i,j]) per (n, method),
    paired with N(0, sigma^2) reference quantiles.

    sigma^2 is the (i, j) limit variance taken from an MC estimate of the
    fixed-location limit covariance at ref_draws draws; the population S
    comes from the bivariate closed form when p = 2 and from a Monte Carlo
    oracle otherwise.
    """
    if config.statistic != "qq":
        raise InvalidInputError("config.statistic must be 'qq'")
    _check_workers(workers)  # before the costly reference quantities
    start = time.perf_counter()
    model = config.model
    i, j = config.element

    if model.p == 2:
        S_pop = population_sscm_closed_p2(model.V).matrix
        pop_source = "closed_p2"
    else:
        S_est, _ = population_sscm_mc(
            model, config.ref_draws,
            SeededStream(config.master_seed, _REF_POPULATION_STREAM),
        )
        S_pop = S_est.matrix
        pop_source = f"mc({config.ref_draws})"

    X_ref = sample(
        model, config.ref_draws,
        SeededStream(config.master_seed, _REF_VARIANCE_STREAM),
    )
    W = fixed_location_cov(X_ref, model.mu)
    sigma2 = element_variance(W, i, j)

    payloads = [
        {"model": model, "n": n, "target": float(S_pop[i, j])}
        for n in config.n_grid
    ]
    values = _collect_cells(config, payloads, workers)

    R = config.replications
    probs = (np.arange(1, R + 1) - 0.5) / R
    reference = norm.ppf(probs) * math.sqrt(sigma2)

    cells = []
    for n, vals in zip(config.n_grid, values):
        for k, method in enumerate(config.location_methods):
            sorted_vals = np.sort(vals[:, k])
            cells.append(
                QQCellResult(
                    n=n,
                    method=method,
                    sigma2=sigma2,
                    ks=ks_statistic(sorted_vals, sigma2),
                    values=sorted_vals,
                    reference=reference,
                )
            )
    return ExperimentResult(
        statistic="qq",
        cells=cells,
        master_seed=config.master_seed,
        config=config,
        config_digest=config.digest(),
        wall_time=time.perf_counter() - start,
        extras={
            "sigma2": sigma2,
            "population_element": float(S_pop[i, j]),
            "population_source": pop_source,
            "ref_draws": config.ref_draws,
        },
    )


def run_gamma_sweep(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Mean absolute error of the (1, 2) element per (p, gamma, n, method)."""
    if config.statistic != "sweep":
        raise InvalidInputError("config.statistic must be 'sweep'")
    start = time.perf_counter()
    specs = [
        (p, g, n)
        for p in config.p_grid
        for g in config.gamma_grid
        for n in config.n_grid
    ]
    payloads = [{"model": singularity_model(g, p), "n": n} for p, g, n in specs]
    values = _collect_cells(config, payloads, workers)
    cells = []
    for (p, g, n), vals in zip(specs, values):
        for k, method in enumerate(config.location_methods):
            mean, se = _mean_se(vals[:, k])
            cells.append(
                CellResult(p, n, method, mean, se, config.replications, gamma=g)
            )
    return ExperimentResult(
        statistic="sweep",
        cells=cells,
        master_seed=config.master_seed,
        config=config,
        config_digest=config.digest(),
        wall_time=time.perf_counter() - start,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    runner = {
        "table": run_table_experiment,
        "qq": run_qq_experiment,
        "sweep": run_gamma_sweep,
    }[config.statistic]
    return runner(config, workers=workers)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_result_csv(result: ExperimentResult, path) -> None:
    """One CSV row per cell (table/sweep) or per quantile pair (qq)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if result.statistic == "table":
            writer.writerow(["p", "n", "method", "mean", "se", "replications"])
            for c in result.cells:
                writer.writerow(
                    [c.p, c.n, c.method, _fmt(c.mean), _fmt(c.se), c.replications]
                )
        elif result.statistic == "sweep":
            writer.writerow(
                ["p", "gamma", "n", "method", "mean_abs_error", "se", "replications"]
            )
            for c in result.cells:
                writer.writerow(
                    [c.p, _fmt(c.gamma), c.n, c.method,
                     _fmt(c.mean), _fmt(c.se), c.replications]
                )
        else:  # qq
            writer.writerow(["n", "method", "rank", "empirical", "reference"])
            for c in result.cells:
                for rank, (emp, ref) in enumerate(zip(c.values, c.reference), 1):
                    writer.writerow([c.n, c.method, rank, _fmt(emp), _fmt(ref)])


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
    }
    if result.statistic == "qq":
        meta["cells"] = [
            {"n": c.n, "method": c.method, "sigma2": c.sigma2, "ks": c.ks}
            for c in result.cells
        ]
    else:
        meta["cells"] = [
            {
                "p": c.p,
                "gamma": c.gamma,
                "n": c.n,
                "method": c.method,
                "mean": c.mean,
                "se": c.se,
            }
            for c in result.cells
        ]
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
