"""Location estimators feeding the plug-in SSCM: sample mean and the
spatial median, plus a given fixed location; ``locate`` dispatches by name.

The spatial median minimizes sum_i |X_i - mu|. It is computed by Newton
steps on that objective with a Weiszfeld step as the safeguard, and with
explicit handling of data points: a point y with multiplicity eta is optimal
iff the norm of the summed spatial signs of the remaining observations is at
most eta. Iterates that land exactly on a non-optimal data point step off
along the damped reweighted direction (Vardi-Zhang); iterates approaching an
optimal data point (which the smooth steps never reach exactly) snap onto it
once the test passes. The certificate is the sign-resultant test either way.
Coincidence is tested with exact floating-point equality, consistent with
the coincidence counting in the scatter module.

A result's anchored flag, objective and degenerate_geometry are computed
on first read, from the sample the call received: the Monte Carlo harness
reads none of them, and the geometry test costs an SVD of the whole sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .linalg import require_finite, row_norms

INITIALIZATIONS = ("componentwise_median", "mean")
LOCATION_METHODS = ("mean", "median", "fixed")

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

    anchored, objective (the summed distance from the sample to the
    estimate) and degenerate_geometry are computed on first read from
    sample and cached; a sample modified in place before that read changes
    them. anchored is exact: a radius is 0 only on exact coordinate
    equality, and a snap onto a data point copies that row.
    degenerate_geometry is an advisory flag of the spatial median: the
    sample is numerically concentrated on a line, so the minimizer may be
    non-unique; the returned point is whatever the iteration converged to.
    It is False for the other methods.
    """

    estimate: np.ndarray
    method: str
    iterations: int
    converged: bool
    sample: np.ndarray = field(repr=False, compare=False)
    objective_history: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def anchored(self) -> bool:
        return bool(np.any(np.all(self.sample == self.estimate, axis=1)))

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


def _sample_at(X, t) -> tuple[np.ndarray, np.ndarray]:
    """The checked sample and a finite location t of matching length."""
    X = _as_sample(X)
    t = require_finite(t, "location")
    if t.ndim != 1 or t.shape[0] != X.shape[1]:
        raise InvalidInputError(
            f"location has length {t.shape}, expected ({X.shape[1]},)"
        )
    return X, t


def l1_objective(X, mu) -> float:
    """Sum of Euclidean distances from the observations to mu."""
    X = _as_sample(X)
    mu = require_finite(mu, "mu")
    return float(np.sum(row_norms(X - mu)))


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


def _radii(X: np.ndarray, y) -> tuple[np.ndarray, np.ndarray, float]:
    """Differences X_i - y, their norms and the objective (their sum)."""
    diffs = X - y
    r = row_norms(diffs)
    return diffs, r, float(r.sum())


def sample_mean(X) -> LocationResult:
    """Componentwise average of the observations."""
    X = _as_sample(X)
    return LocationResult(
        estimate=X.mean(axis=0),
        method="mean",
        iterations=0,
        converged=True,
        sample=X,
    )


def spatial_median(X, opts: MedianOptions | None = None) -> LocationResult:
    """Minimizer of sum_i |X_i - mu| via safeguarded Newton iteration.

    An interior step is H^-1 R (R = sum_i u_i the sign resultant, H =
    sum_i (I - u_i u_i^T) / r_i the Hessian) unless that raises the
    objective, H is singular or the step is not finite; then it is the
    Weiszfeld step R / sum_i (1 / r_i).

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
        sign resultant reached by a sub-threshold (or zero) step. When the
        iteration budget runs out, or extreme mass concentration pins the
        iterate at an uncertifiable point, the last iterate is returned with
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

    diffs, r, objective = _radii(X, y)
    scale = float(r.max())
    if scale == 0.0:
        scale = 1.0
    threshold = opts.tolerance * scale

    history = [] if opts.track_objective else None
    identity = np.eye(p)

    # Converged means certified: either an anchored data point passing the
    # multiplicity test, or an interior point reached by a sub-threshold
    # step whose sign resultant is small (half the bound the certificate
    # invariant promises, leaving headroom for its recomputation). A small
    # step alone certifies nothing: near a data point the reweighted map
    # stalls while the resultant is still large.
    resultant_bound = 5.0 * opts.tolerance * n
    # The steps approach an optimal data point only sublinearly and never
    # reach it exactly, so nearby vertices are tested directly: a passing
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
    iterations = 0
    small_step = True  # allows certified convergence at the initial point
    for _ in range(opts.max_iterations):
        if r is None:  # the iterate was reached by a Weiszfeld step
            diffs, r, objective = _radii(X, y)
        if history is not None:
            history.append(objective)
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
                break
            shrink = 1.0 - eta / norm_res
        else:
            if small_step and norm_res <= resultant_bound:
                converged = True
                break
            shrink = 1.0

        w_sum = float(w.sum())
        step = (shrink / w_sum) * resultant
        trial = None
        if eta == 0:
            # The Newton step H^-1 R is (I - V^T V)^-1 times the Weiszfeld
            # step R / sum w, where the rows v_i = u_i sqrt(w_i / sum w)
            # have norm at most 1, so nothing overflows at tiny radii.
            v = diffs * (w * np.sqrt(w / w_sum))[:, None]
            try:
                newton = np.linalg.solve(identity - v.T @ v, step)
            except np.linalg.LinAlgError:
                newton = None
            if newton is not None and np.isfinite(newton).all():
                trial = _radii(X, y + newton)  # the next iterate's radii
                if trial[2] <= objective:
                    step = newton
                else:
                    trial = None
        y_next = y + step
        if not (y_next != y).any():
            # cannot move at floating-point resolution: a zero step is
            # sub-threshold, so a small resultant certifies y
            converged = eta == 0 and norm_res <= resultant_bound
            break
        y = y_next
        iterations += 1
        r = None
        if trial is not None:
            diffs, r, objective = trial
        step_norm = math.sqrt(float(step @ step))
        small_step = step_norm <= threshold
        stalled_steps = stalled_steps + 1 if step_norm <= stall_floor else 0
        if stalled_steps >= 2:
            break

    if history is not None and len(history) == iterations:  # ended by a step
        history.append(objective if r is not None else l1_objective(X, y))
    return LocationResult(
        estimate=y,
        method="spatial_median",
        iterations=iterations,
        converged=converged,
        sample=X,
        objective_history=None if history is None else np.asarray(history),
    )


def locate(
    X, method: str, opts: MedianOptions | None = None, t=None
) -> LocationResult:
    """Location of the sample by method: "mean", "median" (the spatial
    median under opts) or "fixed" (the given location t, which only this
    method reads)."""
    if method == "median":
        return spatial_median(X, opts)
    if method == "mean":
        return sample_mean(X)
    if method != "fixed":
        raise InvalidInputError(f"unknown location method {method!r}")
    if t is None:
        raise InvalidInputError('method "fixed" requires a location t')
    X, t = _sample_at(X, t)
    return LocationResult(
        estimate=t, method="fixed", iterations=0, converged=True, sample=X
    )
