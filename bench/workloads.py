"""The benchmark's workloads: inputs generated from a seed, the CLI
commands of one pass, and the checks on what those commands write.

Why each workload exists (see README.md for the layer table):

* table-small-n  -- tiny replications (p=10, n in {5, 30}) where per-call
  Python dispatch dominates and the n=5 cell takes the Gram path. A
  per-call overhead cut or a batched engine shows here.
* sweep-large-n  -- few long replications (p=2, n up to 20000) on the
  singularity family; passes over large arrays dominate, and at
  gamma=0.05 the spatial medians stall uncertified.
* qq-reference   -- one large limit-variance reference (ref_draws draws of
  p=10) that dominates time and memory; the only workload that shows the
  memory of the reference.
* estimate-file  -- the single-dataset user path on a generated CSV:
  CSV reading, the symmetrized SSCM, the trace-1 SSCM and the
  asymptotics bundle, none of which the experiments call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKERS = 2  # the machine the baseline was taken on has 2 cores


def _spherical(p):
    return {
        "generator": "gaussian",
        "mu": [0.0] * p,
        "V": np.eye(p).tolist(),
    }


def _sha256(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Experiment:
    """A table / qq / sweep run through the CLI from a generated config."""

    worker_counts = (WORKERS, 1)

    def __init__(self, name, config, smoke_config):
        self.name = name
        self._config = config
        self._smoke_config = smoke_config

    @property
    def statistic(self):
        return self._config["statistic"]

    def prepare(self, seed, workdir, smoke=False):
        self.seed = seed
        self.config = {
            **(self._smoke_config if smoke else self._config),
            "master_seed": seed,
        }
        self.config_path = Path(workdir) / f"{self.name}.json"
        self.config_path.write_text(json.dumps(self.config))

    @property
    def reps(self):
        """Cell-replications completed by one pass."""
        return len(self._cells()) * self.config["replications"]

    def commands(self, workers, outdir):
        return [[
            self.statistic, "--config", str(self.config_path),
            "--seed", str(self.seed), "--workers", str(workers),
            "--out", str(outdir),
        ]]

    def work_seconds(self, outdir):
        """The harness's own wall time, from the metadata sidecar."""
        meta = json.loads((Path(outdir) / f"{self.statistic}_metadata.json").read_text())
        return meta["wall_time"]

    def digest(self, outdir):
        return _sha256(Path(outdir) / f"{self.statistic}.csv")

    def check(self, outdir):
        """Failure messages for one pass's outputs (empty when correct)."""
        outdir = Path(outdir)
        with open(outdir / f"{self.statistic}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        meta = json.loads((outdir / f"{self.statistic}_metadata.json").read_text())
        return getattr(self, f"_check_{self.statistic}")(rows, meta)

    def _check_table(self, rows, meta):
        # known location: n * E||SSCM - I/p||^2 = 1 - 1/p exactly
        failures = []
        known = [r for r in rows if r["method"] == "known"]
        if len(known) != len(self._cells()):
            failures.append(f"expected {len(self._cells())} known rows, got {len(known)}")
        for r in known:
            p, mean, se = int(r["p"]), float(r["mean"]), float(r["se"])
            if abs(mean - (1.0 - 1.0 / p)) > 4.0 * se:
                failures.append(
                    f"table p={p} n={r['n']} known: {mean} vs {1 - 1 / p} (se {se})"
                )
        return failures

    def _check_sweep(self, rows, meta):
        # known location, p=2: S_12 ~ N(0, 1/(8n)), so E|S_12| = sqrt(1/(4 pi n))
        failures = []
        known = [r for r in rows if r["method"] == "known"]
        if len(known) != len(self._cells()):
            failures.append(f"expected {len(self._cells())} known rows, got {len(known)}")
        for r in known:
            n = int(r["n"])
            mean, se = float(r["mean_abs_error"]), float(r["se"])
            target = math.sqrt(1.0 / (4.0 * math.pi * n))
            if abs(mean - target) > 4.0 * se:
                failures.append(
                    f"sweep gamma={r['gamma']} n={n} known: {mean} vs {target} (se {se})"
                )
        return failures

    def _check_qq(self, rows, meta):
        # spherical model, element (0, 1): sigma^2 = E[u_0^2 u_1^2] = 1/(p(p+2));
        # its Monte Carlo SE follows from E[u_0^4 u_1^4] = 9/(p(p+2)(p+4)(p+6))
        p = len(self.config["model"]["mu"])
        draws = self.config["ref_draws"]
        target = 1.0 / (p * (p + 2))
        fourth = 9.0 / (p * (p + 2) * (p + 4) * (p + 6))
        se = math.sqrt((fourth - target**2) / draws)
        sigma2 = meta["extras"]["sigma2"]
        failures = []
        if abs(sigma2 - target) > 5.0 * se:
            failures.append(f"qq sigma2 {sigma2} vs {target} (MC se {se})")
        expected_rows = len(self._cells()) * len(self.config["methods"]) \
            * self.config["replications"]
        if len(rows) != expected_rows:
            failures.append(f"qq csv has {len(rows)} rows, expected {expected_rows}")
        return failures

    def _cells(self):
        """(model JSON, n) per cell, in the harness's cell order."""
        c = self.config
        if self.statistic == "table":
            return [(_spherical(p), n) for p in c["p_grid"] for n in c["n_grid"]]
        if self.statistic == "sweep":
            return [
                ({"generator": "singularity", "mu": [0.0] * p,
                  "V": np.eye(p).tolist(), "gamma": g}, n)
                for p in c["p_grid"] for g in c["gamma_grid"] for n in c["n_grid"]
            ]
        return [(c["model"], n) for n in c["n_grid"]]

    def replay_medians(self):
        """(uncertified, attempted) spatial-median calls of one pass, found by
        calling the public sampler and solver on the harness's own streams
        SeededStream(master_seed, cell * R + rep)."""
        from signcov import EllipticalModel, MedianOptions, SeededStream, sample
        from signcov import spatial_median

        if "median" not in self.config["methods"]:
            return 0, 0
        R = self.config["replications"]
        opts = MedianOptions(
            tolerance=self.config.get("median_tolerance", 1e-10),
            max_iterations=self.config.get("median_max_iterations", 1000),
        )
        uncertified = 0
        for cell, (model_json, n) in enumerate(self._cells()):
            model = EllipticalModel.from_json_dict(model_json)
            for rep in range(R):
                X = sample(model, n, SeededStream(self.seed, cell * R + rep))
                uncertified += not spatial_median(X, opts).converged
        return uncertified, len(self._cells()) * R


class EstimateFile:
    """`estimate` and `asymptotics` on one generated CSV file."""

    worker_counts = (None,)  # single-process commands
    name = "estimate-file"
    # Student-t, nu=5, p=5, correlated shape, rounded to 2 decimals, with
    # about 1% exact duplicate rows (zero pairs in the symmetrized SSCM)
    p = 5
    nu = 5.0
    mu = (1.0, -2.0, 0.5, 3.0, 0.0)

    def __init__(self, n, smoke_n):
        self._n = n
        self._smoke_n = smoke_n

    @property
    def reps(self):
        """One replication is one CLI command on the file."""
        return 2

    def prepare(self, seed, workdir, smoke=False):
        n = self._smoke_n if smoke else self._n
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        idx = np.arange(self.p)
        V = 0.6 ** np.abs(idx[:, None] - idx[None, :])
        n_dup = n // 100
        Z = rng.standard_normal((n - n_dup, self.p))
        w = rng.chisquare(self.nu, size=n - n_dup)
        X = np.asarray(self.mu) + (Z @ np.linalg.cholesky(V).T) / np.sqrt(w / self.nu)[:, None]
        X = np.vstack([X, X[rng.choice(n - n_dup, size=n_dup, replace=False)]])
        X = X[rng.permutation(n)]
        self.csv_path = Path(workdir) / "data.csv"
        with open(self.csv_path, "w") as fh:
            fh.write(",".join(f"x{k + 1}" for k in range(self.p)) + "\n")
            for row in X:
                fh.write(",".join(f"{v:.2f}" for v in row) + "\n")
        # the parsed file, so checks see exactly what the CLI reads
        self.data = np.loadtxt(self.csv_path, delimiter=",", skiprows=1)
        _, counts = np.unique(self.data, axis=0, return_counts=True)
        self.zero_pairs = int(np.sum(counts * (counts - 1) // 2))

    def commands(self, workers, outdir):
        outdir = Path(outdir)
        return [
            ["estimate", str(self.csv_path), "--location", "median", "--star",
             "--symmetrized", "--asymptotics", "--out", str(outdir / "estimate.json")],
            ["asymptotics", str(self.csv_path), "--location", "mean",
             "--out", str(outdir / "asymptotics.json")],
        ]

    def work_seconds(self, outdir):
        return None

    def digest(self, outdir):
        outdir = Path(outdir)
        return _sha256(outdir / "estimate.json", outdir / "asymptotics.json")

    def check(self, outdir):
        outdir = Path(outdir)
        est = json.loads((outdir / "estimate.json").read_text())
        asy = json.loads((outdir / "asymptotics.json").read_text())
        n, p = self.data.shape
        failures = []
        for key in ("starred", "symmetrized"):
            M = _matrix(est[key]["matrix"])
            if M.shape != (p, p) or not np.array_equal(M, M.T):
                failures.append(f"{key} matrix is not a symmetric {p}x{p} matrix")
            elif abs(np.trace(M) - 1.0) > 1e-9:
                failures.append(f"{key} trace {np.trace(M)} != 1")
        pairs = n * (n - 1) // 2 - self.zero_pairs
        if est["symmetrized"]["n_effective"] != pairs:
            failures.append(
                f"symmetrized used {est['symmetrized']['n_effective']} pairs, "
                f"expected {pairs}"
            )
        if est["coincidence"]["n"] != n:
            failures.append(f"coincidence n {est['coincidence']['n']} != {n}")
        for source, payload in (("estimate", est["asymptotics"]), ("asymptotics", asy)):
            W = _matrix(payload["fixed_cov"])
            if W.shape != (p * p, p * p) or not np.array_equal(W, W.T):
                failures.append(f"{source} fixed_cov is not symmetric p^2 x p^2")
        if asy["plugin_cov"] is None or _matrix(asy["plugin_cov"]).shape != (p * p, p * p):
            failures.append("asymptotics --location mean has no p^2 x p^2 plugin_cov")
        return failures

    def replay_medians(self):
        from signcov import spatial_median

        return int(not spatial_median(self.data).converged), 1


def _matrix(m):
    return np.asarray(m["data"], dtype=float).reshape(m["dims"])


WORKLOADS = {
    "table-small-n": Experiment(
        "table-small-n",
        {"statistic": "table", "model": _spherical(10), "p_grid": [10],
         "n_grid": [5, 30], "methods": ["known", "mean", "median"],
         "replications": 800},
        {"statistic": "table", "model": _spherical(10), "p_grid": [10],
         "n_grid": [5, 30], "methods": ["known", "mean", "median"],
         "replications": 40},
    ),
    "sweep-large-n": Experiment(
        "sweep-large-n",
        {"statistic": "sweep",
         "model": {"generator": "singularity", "mu": [0.0, 0.0],
                   "V": [[1.0, 0.0], [0.0, 1.0]], "gamma": 0.05},
         "p_grid": [2], "gamma_grid": [0.05, 0.45], "n_grid": [1000, 20000],
         "methods": ["known", "mean", "median"], "replications": 32},
        {"statistic": "sweep",
         "model": {"generator": "singularity", "mu": [0.0, 0.0],
                   "V": [[1.0, 0.0], [0.0, 1.0]], "gamma": 0.05},
         "p_grid": [2], "gamma_grid": [0.05, 0.45], "n_grid": [200, 2000],
         "methods": ["known", "mean", "median"], "replications": 6},
    ),
    "qq-reference": Experiment(
        "qq-reference",
        {"statistic": "qq", "model": _spherical(10), "n_grid": [20, 100],
         "methods": ["known", "mean", "median"], "replications": 100,
         "ref_draws": 200_000},
        {"statistic": "qq", "model": _spherical(10), "n_grid": [20],
         "methods": ["known", "mean", "median"], "replications": 20,
         "ref_draws": 5_000},
    ),
    "estimate-file": EstimateFile(n=3000, smoke_n=300),
}
