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

The iteration runs on blocks of samples (B, n, p) (``_spatial_medians``;
``spatial_median`` is a block of one), each slice taking bit for bit the
steps it takes alone: elementwise operations and reductions along a row or
slice keep their order, and ``np.matmul`` (gemv, syrk), ``np.vecdot`` and
the gufunc ``np.linalg.solve`` (gesv) run the one-sample kernel per slice,
where an ``np.einsum`` sum across rows such as ``"bi,bij->bj"`` would not.
At p <= 2, by p alone, the passes over rows (X - y, row norms, the Newton
row scaling, the vertex test) run per coordinate (``linalg.rowwise``): a
ufunc rounds each entry alone and x0*x0 + x1*x1 is the einsum's sum, so the
bits hold, and every reduction stays on the (B, n, p) arrays.

A result's anchored flag, objective and degenerate_geometry are computed
on first read, from the sample the call received: the Monte Carlo harness
reads none of them, and the geometry test costs an SVD of the whole sample.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .linalg import require_finite, row_norms, rowwise, spatial_signs

LOCATION_METHODS = ("mean", "median", "fixed")

# Second-singular-value ratio below which the sample is flagged as
# (numerically) concentrated on a line, where the minimizer may be non-unique.
_DEGENERATE_SV_RATIO = 1e-12

# 1 / r overflows for radii r up to this one (about 5.6e-309)
_OVERFLOW_RADIUS = 1.0 / np.finfo(float).max


@dataclass(frozen=True)
class MedianOptions:
    """Stopping rules of the spatial-median iteration, which starts at the
    componentwise median.

    tolerance is a step-norm threshold relative to the data scale (the
    largest distance from the initial iterate to an observation) and must
    stay below 0.2, where the certificate |sum of signs| <= 5 * tolerance * n
    would pass at every point.
    """

    tolerance: float = 1e-10
    max_iterations: int = 1000

    def __post_init__(self):
        if not 0.0 < self.tolerance < 0.2:
            raise InvalidInputError("tolerance must be positive and below 0.2, "
                                    "from where every point is certified")
        if (not isinstance(self.max_iterations, numbers.Integral)
                or isinstance(self.max_iterations, bool)):
            raise InvalidInputError("max_iterations must be an integer")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")


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
    X, mu = _sample_at(X, mu)
    return float(np.sum(row_norms(rowwise(np.subtract, X, mu))))


def _degenerate_geometry(X: np.ndarray) -> bool:
    if X.shape[0] == 1 or X.shape[1] == 1:
        return True
    s = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
    if s[0] == 0.0:
        return True
    return bool(s[1] <= _DEGENERATE_SV_RATIO * s[0])


def _anchored_optimal_at(X: np.ndarray, vertex: np.ndarray) -> bool:
    """Optimality test for a data point: the summed spatial signs of the
    other observations must not outpull its multiplicity. The rows == vertex
    (-0.0 == 0.0) are found coordinate by coordinate and dropped before the
    norms, so their zero radii never take row_norms' rescue path."""
    d = rowwise(np.subtract, X, vertex)
    coincident = d[:, 0] == 0.0
    for k in range(1, d.shape[1]):
        coincident &= d[:, k] == 0.0
    d = np.delete(d, np.flatnonzero(coincident), axis=0)  # faster than d[~coincident]
    resultant = _sign_resultant(d, row_norms(d))[0]
    return bool(np.sqrt(resultant @ resultant) <= len(X) - len(d))


def _sign_resultant(d: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum_i d_i / r_i, 1 / r) for radii r > 0: (1 / r) @ d, or where 1 / r_i
    overflows (r_i < ~5.6e-309) the sum of the spatial signs of the rows d_i."""
    with np.errstate(over="ignore"):
        w = 1.0 / r
    return (spatial_signs(d).sum(axis=0) if np.isinf(w).any() else w @ d), w


def _radii(X: np.ndarray, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Differences X_i - y, their norms and sum per slice of X (k, n, p)."""
    diffs = rowwise(np.subtract, X, y[:, None])
    r = row_norms(diffs)
    return diffs, r, r.sum(axis=1)


def _solve_each(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A_j^-1 b_j per slice, NaN where A_j is singular."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:  # raised for the whole batch: go slice by slice
        if len(b) == 1:
            return np.full_like(b, np.nan)
        return np.concatenate([_solve_each(A[j:j + 1], b[j:j + 1]) for j in range(len(b))])


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
    """Minimizer of sum_i |X_i - mu| over the rows of X (n, p), by
    safeguarded Newton iteration under opts (default MedianOptions()).

    An interior step is H^-1 R (R = sum_i u_i the sign resultant, H =
    sum_i (I - u_i u_i^T) / r_i the Hessian) unless that raises the
    objective, H is singular or the step is not finite; then it is the
    Weiszfeld step R / sum_i (1 / r_i).

    The result's converged flag certifies first-order optimality: an
    anchored data point passing the multiplicity test, or an interior point
    with a small sign resultant reached by a sub-threshold (or zero) step.
    When the iteration budget runs out, or extreme mass concentration pins
    the iterate at an uncertifiable point, the last iterate is returned with
    converged=False.
    """
    X = _as_sample(X)
    y, its, ok = _spatial_medians(X[None], opts or MedianOptions())
    return LocationResult(y[0], "spatial_median", int(its[0]), bool(ok[0]), X)


def _componentwise_medians(X: np.ndarray) -> np.ndarray:
    """np.median(X, axis=1) of a finite block X (B, n, p) bit for bit, without
    its NaN check's numpy.ma import; it averages from +0.0 (-0.0 -> +0.0). One
    selection serves: at even n the lower middle value is the largest below k.
    It runs in place along the contiguous lanes of a coordinate-major copy
    (B, p, n), a copy even at p = 1, where the transpose is contiguous."""
    k, odd = divmod(X.shape[1], 2)
    part = X.transpose(0, 2, 1).copy()
    part.partition(k)
    return 0.0 + part[..., k] if odd else (0.0 + part[..., :k].max(axis=2) + part[..., k]) / 2


def _spatial_medians(X: np.ndarray, opts: MedianOptions):
    """spatial_median on each slice of a block X (B, n, p): estimates (B, p),
    iteration counts and converged flags. A slice leaves the arrays once it
    stops; the snap test and a step off a data point run slice by slice."""
    B, n, p = X.shape
    y = _componentwise_medians(X)
    diffs, r, objective = _radii(X, y)
    scale = r.max(axis=1)
    scale[scale == 0.0] = 1.0
    threshold = opts.tolerance * scale

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
    # iterate snaps onto it. The test reads the sample and the vertex only,
    # never the iterate, so a vertex that failed is not tested again. An
    # iterate so close to a data point that 1 / r overflows is near too.
    snap_gate = np.maximum(0.01 * scale, _OVERFLOW_RADIUS)
    failed: set[tuple[int, int]] = set()  # (slice id, row) of failed vertices
    # steps this far below the stopping resolution cannot be refining a
    # healthy iteration; two in a row without certification means the
    # iterate is pinned by extreme mass concentration
    stall_floor = 1e-3 * threshold
    stalled, its = np.zeros((2, B), dtype=int)
    small_step = np.ones(B, dtype=bool)  # certified convergence at the start
    stale = np.zeros(B, dtype=bool)  # reached by a Weiszfeld step: no radii yet
    estimates, iterations, converged = np.empty((B, p)), np.zeros(B, int), np.zeros(B, bool)
    ids = np.arange(B)  # row j of X, y and each per-slice array is slice ids[j]
    identity = np.eye(p)

    def finish(done, ok):  # record the slices that stop
        o = ids[done]
        estimates[o], iterations[o] = y[done], its[done]
        converged[o] = ok[done] & ~np.isnan(y[done]).any(axis=1)  # NaN: an overflowed step

    for _ in range(opts.max_iterations):
        k = len(ids)
        if stale.all():
            diffs, r, objective = _radii(X, y)
        elif stale.any():
            diffs[stale], r[stale], objective[stale] = _radii(X[stale], y[stale])
        # the slice stops this pass / is certified / would be by a zero step
        done, ok, zero_step_ok = np.zeros((3, k), dtype=bool)
        step, sel = np.zeros((k, p)), slice(None)  # sel: slices taking an interior step
        rmin = r.min(axis=1)  # NaN if any radius is
        near = ~(rmin > snap_gate)
        if near.any():  # an iterate is near or on a data point
            nearest = r.argmin(axis=1)
            for j in np.flatnonzero(near):
                if 0.0 < rmin[j] <= _OVERFLOW_RADIUS:  # 1 / r overflows: move onto it
                    y[j] = X[j, nearest[j]]
                    diffs[j], r[j], _ = (a[0] for a in _radii(X[j:j + 1], y[j:j + 1]))
                    rmin[j] = 0.0
                elif rmin[j] > 0.0:  # all radii positive
                    key = (ids[j], nearest[j])
                    if key not in failed:
                        if _anchored_optimal_at(X[j], X[j, nearest[j]]):
                            y[j] = X[j, nearest[j]]
                            done[j] = ok[j] = True
                        else:
                            failed.add(key)
                    continue
                # zero radius <=> exact coordinate coincidence with a data point
                active = r[j] > 0.0
                eta = int(n - np.count_nonzero(active))
                resultant, w = _sign_resultant(diffs[j, active], r[j, active])
                norm_res = math.sqrt(float(resultant @ resultant))
                if norm_res <= eta:  # y is a data point passing the optimality test
                    done[j] = ok[j] = True
                else:
                    step[j] = ((1.0 - eta / norm_res) / float(w.sum())) * resultant
            interior = (rmin > 0.0) & ~done
            if not interior.all():  # else keep the arrays ungathered
                sel = np.flatnonzero(interior)

        w = 1.0 / r[sel]
        resultant = np.matmul(w[:, None], diffs[sel])[:, 0]  # sum of signs
        zero_step_ok[sel] = np.sqrt(np.vecdot(resultant, resultant)) <= resultant_bound
        certified = small_step[sel] & zero_step_ok[sel]
        if certified.any():
            sel = np.arange(k)[sel]
            done[sel[certified]] = ok[sel[certified]] = True
            sel, w, resultant = sel[~certified], w[~certified], resultant[~certified]
        stale = np.ones(k, dtype=bool)
        if len(w):
            w_sum = w.sum(axis=1)
            weiszfeld = (1.0 / w_sum)[:, None] * resultant
            # The Newton step H^-1 R is (I - V^T V)^-1 times the Weiszfeld
            # step R / sum w, where the rows v_i = u_i sqrt(w_i / sum w)
            # have norm at most 1, so nothing overflows at tiny radii.
            v = rowwise(np.multiply, diffs[sel],
                        (w * np.sqrt(w / w_sum[:, None]))[:, :, None])
            newton = _solve_each(identity - np.matmul(v.transpose(0, 2, 1), v), weiszfeld)
            finite = np.isfinite(newton).all(axis=1)
            if not finite.all():  # these take the Weiszfeld step
                sel = np.arange(k)[sel]
                step[sel[~finite]] = weiszfeld[~finite]
                sel, weiszfeld, newton = sel[finite], weiszfeld[finite], newton[finite]
            trial = _radii(X[sel], y[sel] + newton)  # the next iterate's radii
            accepted = trial[2] <= objective[sel]
            step[sel] = np.where(accepted[:, None], newton, weiszfeld)
            if isinstance(sel, slice) and accepted.all():
                (diffs, r, objective), stale = trial, np.zeros(k, dtype=bool)
            else:
                tried = np.arange(k)[sel][accepted]
                diffs[tried], r[tried], objective[tried] = (a[accepted] for a in trial)
                stale[tried] = False

        y_next = y + step
        moved = (y_next != y).any(axis=1)  # a stopping slice has a zero step
        step_norm = np.sqrt(np.vecdot(step, step))
        small_step = step_norm <= threshold
        stalled = (stalled + 1) * (step_norm <= stall_floor)
        if moved.all():
            y, its = y_next, its + 1
        else:
            pinned = ~(moved | done)  # cannot move at floating-point resolution
            ok |= pinned & zero_step_ok
            done |= pinned
            y, its = np.where(moved[:, None], y_next, y), its + moved
        done |= stalled >= 2
        if done.any():
            finish(done, ok)
            if done.all():
                break
            keep = ~done  # drop the finished slices
            ids, X, y, diffs, r, objective, stale, threshold, snap_gate, stall_floor, \
                small_step, stalled, its = (
                    a[keep] for a in (ids, X, y, diffs, r, objective, stale, threshold,
                                      snap_gate, stall_floor, small_step, stalled, its))
    else:
        finish(np.ones(len(ids), dtype=bool), np.zeros(len(ids), dtype=bool))

    return estimates, iterations, converged


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
