"""Location estimators feeding the plug-in SSCM: sample mean and the
spatial median.

The spatial median minimizes sum_i |X_i - mu|. It is computed by a damped
Weiszfeld iteration with explicit handling of data points: a point y with
multiplicity eta is optimal iff the norm of the summed spatial signs of the
remaining observations is at most eta. Iterates that land exactly on a
non-optimal data point step off along the damped reweighted direction
(Vardi-Zhang); iterates approaching an optimal data point (which plain
reweighting never reaches exactly) snap onto it once the test passes.
Coincidence is tested with exact floating-point equality, consistent with
the coincidence counting in the scatter module.

A result's objective and degenerate_geometry are computed on first read,
from the sample the call received: the Monte Carlo harness reads neither,
and the geometry test costs an SVD of the whole sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .linalg import require_finite, row_norms

INITIALIZATIONS = ("componentwise_median", "mean")

# Second-singular-value ratio below which the sample is flagged as
# (numerically) concentrated on a line, where the minimizer may be non-unique.
_DEGENERATE_SV_RATIO = 1e-12


@dataclass(frozen=True)
class MedianOptions:
    """Stopping and initialization knobs for the spatial-median iteration.

    tolerance is a step-norm threshold relative to the data scale (the
    largest distance from the initial iterate to an observation).
    """

    tolerance: float = 1e-10
    max_iterations: int = 1000
    initialization: str = "componentwise_median"
    track_objective: bool = False

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise InvalidInputError("tolerance must be positive")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if self.initialization not in INITIALIZATIONS:
            raise InvalidInputError(
                f"initialization must be one of {INITIALIZATIONS}"
            )


@dataclass
class LocationResult:
    """A location estimate plus solver diagnostics.

    anchored means the estimate coincides (exact float equality) with a data
    point. sample holds the observations the estimate was computed from.

    objective (the summed distance from the sample to the estimate) and
    degenerate_geometry are computed on first read from sample and cached;
    a sample modified in place before that read changes them.
    degenerate_geometry is an advisory flag of the spatial median: the
    sample is numerically concentrated on a line, so the minimizer may be
    non-unique; the returned point is whatever the iteration converged to.
    It is False for the other methods.
    """

    estimate: np.ndarray
    method: str
    iterations: int
    converged: bool
    anchored: bool
    sample: np.ndarray = field(repr=False, compare=False)
    objective_history: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def objective(self) -> float:
        return l1_objective(self.sample, self.estimate)

    @cached_property
    def degenerate_geometry(self) -> bool:
        return self.method == "spatial_median" and _degenerate_geometry(
            self.sample
        )


def _as_sample(X) -> np.ndarray:
    X = require_finite(X, "observation matrix")
    if X.ndim != 2:
        raise InvalidInputError("observation matrix must be 2-d (n x p)")
    if X.shape[0] < 1:
        raise InvalidInputError("empty sample")
    return X


def l1_objective(X, mu) -> float:
    """Sum of Euclidean distances from the observations to mu."""
    X = _as_sample(X)
    mu = require_finite(mu, "mu")
    return float(np.sum(row_norms(X - mu)))


def _coincident_mask(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.all(X == y, axis=1)


def _degenerate_geometry(X: np.ndarray) -> bool:
    if X.shape[0] == 1 or X.shape[1] == 1:
        return True
    s = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
    if s[0] == 0.0:
        return True
    return bool(s[1] <= _DEGENERATE_SV_RATIO * s[0])


def _anchored_optimal_at(X: np.ndarray, vertex: np.ndarray) -> bool:
    """Optimality test for a data point: the summed spatial signs of the
    other observations must not outpull its multiplicity."""
    coincident = np.all(X == vertex, axis=1)
    eta = int(coincident.sum())
    d = X[~coincident] - vertex
    if d.shape[0] == 0:
        return True
    r = row_norms(d)
    resultant = (1.0 / r) @ d
    return bool(np.sqrt(resultant @ resultant) <= eta)


def sample_mean(X) -> LocationResult:
    """Componentwise average of the observations."""
    X = _as_sample(X)
    est = X.mean(axis=0)
    return LocationResult(
        estimate=est,
        method="mean",
        iterations=0,
        converged=True,
        anchored=bool(np.any(_coincident_mask(X, est))),
        sample=X,
    )


def spatial_median(X, opts: MedianOptions | None = None) -> LocationResult:
    """Minimizer of sum_i |X_i - mu| via damped Weiszfeld iteration.

    Parameters
    ----------
    X : (n, p) array
        Observations, one per row.
    opts : MedianOptions, optional
        Stopping rule, iteration cap, initialization.

    Returns
    -------
    LocationResult
        converged certifies first-order optimality: an anchored data point
        passing the multiplicity test, or an interior point with a small
        sign resultant reached by a sub-threshold step. When the iteration
        budget runs out, or extreme mass concentration pins the iterate at
        an uncertifiable point, the last iterate is returned with
        converged=False.
    """
    X = _as_sample(X)
    if opts is None:
        opts = MedianOptions()
    n, p = X.shape

    if opts.initialization == "mean":
        y = X.mean(axis=0)
    else:
        y = np.median(X, axis=0)

    scale = float(np.max(row_norms(X - y))) if n > 1 else 0.0
    if scale == 0.0:
        scale = 1.0
    threshold = opts.tolerance * scale

    history = [l1_objective(X, y)] if opts.track_objective else None

    # Converged means certified: either an anchored data point passing the
    # multiplicity test, or an interior point reached by a sub-threshold
    # step whose sign resultant is small (half the bound the certificate
    # invariant promises, leaving headroom for its recomputation). A small
    # step alone certifies nothing: near a data point the reweighted map
    # stalls while the resultant is still large.
    resultant_bound = 5.0 * opts.tolerance * n
    # The map approaches an optimal data point only sublinearly and never
    # reaches it exactly, so nearby vertices are tested directly: a passing
    # test identifies the minimizer (unique for non-collinear data) and the
    # iterate snaps onto it. A failed vertex is only retested once the
    # iterate has halved its distance to it, bounding the extra passes.
    snap_gate = 0.01 * scale
    tested_radius: dict[int, float] = {}
    # steps this far below the stopping resolution cannot be refining a
    # healthy iteration; two in a row without certification means the
    # iterate is pinned by extreme mass concentration
    stall_floor = 1e-3 * threshold
    stalled_steps = 0
    converged = False
    anchored_optimal = False
    iterations = 0
    small_step = True  # allows certified convergence at the initial point
    for _ in range(opts.max_iterations):
        diffs = X - y
        r = row_norms(diffs)
        nearest = int(r.argmin())
        rmin = float(r[nearest])
        if rmin > 0.0:  # all radii positive; argmin returns a NaN if any
            eta = 0
            if rmin <= snap_gate and rmin < 0.5 * tested_radius.get(
                nearest, math.inf
            ):
                if _anchored_optimal_at(X, X[nearest]):
                    y = X[nearest].copy()
                    converged = True
                    anchored_optimal = True
                    break
                tested_radius[nearest] = rmin
            w = 1.0 / r
            resultant = w @ diffs  # = sum of spatial signs
        else:
            # zero radius <=> exact coordinate coincidence with a data point
            active = r > 0.0
            eta = int(n - np.count_nonzero(active))
            w = 1.0 / r[active]
            resultant = w @ diffs[active] if w.size else np.zeros(p)
        norm_res = math.sqrt(float(resultant @ resultant))

        if eta > 0:
            if norm_res <= eta:
                # y sits on a data point and passes the optimality test
                converged = True
                anchored_optimal = True
                break
            shrink = 1.0 - eta / norm_res
        else:
            if small_step and norm_res <= resultant_bound:
                converged = True
                break
            shrink = 1.0

        step = (shrink / float(w.sum())) * resultant
        y_next = y + step
        if not (y_next != y).any():
            # cannot move at floating-point resolution; stop uncertified
            break
        y = y_next
        iterations += 1
        if history is not None:
            history.append(l1_objective(X, y))
        step_norm = math.sqrt(float(step @ step))
        small_step = step_norm <= threshold
        stalled_steps = stalled_steps + 1 if step_norm <= stall_floor else 0
        if stalled_steps >= 2:
            break

    anchored = anchored_optimal or bool(np.any(_coincident_mask(X, y)))

    return LocationResult(
        estimate=y,
        method="spatial_median",
        iterations=iterations,
        converged=converged,
        anchored=anchored,
        sample=X,
        objective_history=None if history is None else np.asarray(history),
    )
