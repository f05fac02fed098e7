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

A nearby vertex x, the data point nearest the iterate y, is tested only if
a second-order bound from the pass at y leaves it a chance. Let h = y - x,
delta = |h| <= r_i, t_i = delta / r_i <= 1 and a = X_i - y. In the plane of
a and h, s(a + h) is at an angle theta <= pi / 2 from s(a), sin theta <= t,
and Ds(a) h = beta b / |a| with b the unit normal to a there and beta <= t |a|:
the remainder s(a + h) - s(a) - Ds(a) h has components cos theta - 1 and
sin theta - beta / |a| = sin theta (1 - |a + h| / |a|), each at most t^2,
so it is at most sqrt 2 t^2 (the constant as h nears -a, where t nears 1).
Each of x's eta own rows (t = 1), whose sign the test drops, leaves h / delta.
As x passes iff the other rows' signs sum to at most eta, a passing x has
|R + H h + h / delta| <= 2 eta - 1 + sqrt 2 sum_others t_i^2 <= 2 delta^2
sum_i 1 / r_i^2 - 1 (R, H: the pass's sign resultant and Newton matrix). x
fails untested where the left side exceeds the right plus 4e-15 p n^2 (>= 16
p n^2 eps, for rounding): a proof, it skips no passing test, in one scan.

Where sum_i 1 / r_i overflows (hundreds of radii near 1e-306), the Weiszfeld
step and the rows v_i come from the scale-free weights r_min / r_i, and a
step whose plain sum of squares leaves the float range has its norm
rescaled, so the sample converges as its rescaled copy does.

Each method runs on blocks of samples (B, n, p) in ``_locations``, which
``locate`` calls on a block of one and the harness on whole blocks. A median
slice (``_spatial_medians``) takes bit for bit the steps it takes alone:
elementwise operations and reductions along a row or slice keep their order,
and ``np.matmul`` (gemv, syrk), ``np.vecdot`` and the gesv gufunc behind
``np.linalg.solve`` run the one-sample kernel per slice, where an ``np.einsum``
sum across rows such as ``"bi,bij->bj"`` would not. At p <= 2, on arrays of
more than 1024 entries, the passes over rows (X - y, row norms, the vertex
test) run per coordinate (``linalg.rowwise``): a ufunc rounds each entry alone
and x0*x0 + x1*x1 is the einsum's sum, so the bits hold; every reduction but
the syrk of V^T V stays on the (B, n, p) arrays.

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
from numpy.linalg import _umath_linalg

from .errors import InvalidInputError
from .linalg import require_finite, row_norms, rowwise, spatial_signs

LOCATION_METHODS = ("mean", "median", "fixed")

# Second-singular-value ratio below which the sample is flagged as
# (numerically) concentrated on a line, where the minimizer may be non-unique.
_DEGENERATE_SV_RATIO = 1e-12

# 1 / r overflows for radii r up to this one (about 5.6e-309)
_OVERFLOW_RADIUS = 1.0 / np.finfo(float).max

# the gufunc behind np.linalg.solve, A_j^-1 b_j per slice, NaN where A_j is
# singular (an invalid-value flag, which np.linalg.solve raises as an error)
_solve = _umath_linalg.solve


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
        return self.method == "spatial_median" and _degenerate_geometry(self.sample)


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
        raise InvalidInputError(f"location has length {t.shape}, expected ({X.shape[1]},)")
    return X, t


def l1_objective(X, mu) -> float:
    """Sum of Euclidean distances from the observations to mu."""
    X, mu = _sample_at(X, mu)
    return float(np.sum(row_norms(rowwise(np.subtract, X, mu))))


def _degenerate_geometry(X: np.ndarray) -> bool:
    if X.shape[0] == 1 or X.shape[1] == 1:
        return True
    s = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
    return bool(s[0] == 0.0 or s[1] <= _DEGENERATE_SV_RATIO * s[0])


def _anchored_optimal_at(X: np.ndarray, vertex: np.ndarray) -> bool:
    """Optimality test for a data point: the summed spatial signs of the
    other observations must not outpull its multiplicity. The rows == vertex
    (-0.0 == 0.0), found from the first coordinate and then the others on
    those rows, are dropped before the norms, so their zero radii never take
    row_norms' rescue path."""
    d = rowwise(np.subtract, X, vertex)
    rows = np.flatnonzero(d[:, 0] == 0.0)
    d = np.delete(d, rows[(d[rows, 1:] == 0.0).all(axis=1)], axis=0)  # faster than a mask
    resultant = _sign_resultant(d, row_norms(d))[0]
    return bool(np.sqrt(resultant @ resultant) <= len(X) - len(d))


def _vertex_ruled_out(d, r, w, resultant, w_sum, matrix, row) -> bool:
    """Whether the module docstring's bound rules out x = X_row, the data point
    nearest the iterate y, from the pass's d = X - y, r, w = 1 / r, resultant and
    H = w_sum * matrix (never where w_sum overflows), in one scan: sum_i (delta /
    r_i)^2 from w @ w in [1e-200, 1e200], else from the ratios delta / r_i."""
    if not w_sum < math.inf:
        return False
    delta, h = float(r[row]), d[row] / -r[row]  # h = (y - x) / delta
    pull = resultant + (delta * w_sum) * (matrix @ h) + h  # delta * w_sum <= n
    ww = float(w @ w) if delta > 1e-140 else 0.0  # w_i <= 1 / delta: no overflow
    t2 = (delta * math.sqrt(ww)) ** 2 if 1e-200 < ww < 1e200 else (delta * w) @ (delta * w)
    return bool(2.0 * t2 - 1.0 + 4e-15 * d.size * len(d) < math.sqrt(pull @ pull))


def _sign_resultant(d: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum_i d_i / r_i, 1 / r) for radii r > 0: (1 / r) @ d, or where 1 / r_i
    overflows (r_i < ~5.6e-309) the sum of the spatial signs of the rows d_i."""
    with np.errstate(over="ignore"):
        w = 1.0 / r
    return (spatial_signs(d).sum(axis=0) if w.max(initial=0.0) == math.inf else w @ d), w


def _radii(X: np.ndarray, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Differences X_i - y, their norms and sum per slice of X (k, n, p)."""
    diffs = rowwise(np.subtract, X, y[:, None])
    r = row_norms(diffs)
    return diffs, r, r.sum(axis=1)


def _harmonic(r: np.ndarray) -> tuple[float, np.ndarray]:
    """(1 / sum_i 1 / r_i, (1 / r) / sum_i 1 / r_i) for radii r > 0, from the
    scale-free weights r_min / r_i <= 1, whose sum cannot overflow."""
    s = r.min() / r
    return r.min() / s.sum(), s / s.sum()


def _block_means(X) -> np.ndarray:
    """X.mean(axis=1) of a block X (B, n, p) bit for bit. At p = 2 numpy adds
    the rows of a C-ordered X in order, so a running sum per coordinate has its bits, faster."""
    if X.shape[2] != 2 or not X.flags.c_contiguous:  # else numpy may sum pairwise
        return X.mean(axis=1)
    return np.add.accumulate(X.transpose(2, 0, 1), axis=2)[..., -1].T / X.shape[1]


def sample_mean(X) -> LocationResult:
    """Componentwise average of the observations."""
    return locate(X, "mean")


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
    return locate(X, "median", opts)


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
    # never the iterate, so a vertex that failed or was ruled out is not
    # tested again. An iterate within ~5.6e-309 of a data point is near too.
    snap_gate = np.maximum(0.01 * scale, _OVERFLOW_RADIUS)
    failed: set[tuple[int, int]] = set()  # (slice id, row) of failed vertices
    # steps this far below the stopping resolution cannot be refining a
    # healthy iteration; two in a row without certification means the
    # iterate is pinned by extreme mass concentration
    stall_floor = 1e-3 * threshold
    # only far off unit scale can a step's plain sum of squares leave the float
    # range where it decides a stop, or sum 1 / r overflow away from data points
    extreme = bool(stall_floor.min() < 1e-130 or scale.max() > 1e150)
    small_step = np.ones(B, dtype=bool)  # certified convergence at the start
    n_small = B  # of them, or more where slices stopped since
    tiny = np.zeros(B, dtype=bool)  # the last step was below the stall floor
    stale = None  # mask of the slices whose radii a step left stale, if any
    estimates, iterations, converged = np.empty((B, p)), np.zeros(B, int), np.zeros(B, bool)
    ids = np.arange(B)  # row j of X, y and each per-slice array is slice ids[j]
    identity = np.eye(p)

    def finish(done, ok, its):  # record the slices that stop (done: a mask, or a slice for all)
        o = ids[done]
        estimates[o], iterations[o] = y[done], its[done] if isinstance(its, np.ndarray) else its
        converged[o] = ok[done] & ~np.isnan(y[done]).any(axis=1)  # NaN: an overflowed step

    def certified_by_zero_step(interior, resultant, k):  # the interior slices' small resultants
        small = np.zeros(k, dtype=bool)
        small[interior] = np.sqrt(np.vecdot(resultant, resultant)) <= resultant_bound
        return small

    # A slice that does not move stops, so it moved on every earlier pass:
    # its iteration count is the pass's index, plus one if it moves.
    for passes in range(opts.max_iterations):
        k = len(ids)
        if stale is not None and np.count_nonzero(stale) == k:
            diffs, r, objective = _radii(X, y)
        elif stale is not None:
            diffs[stale], r[stale], objective[stale] = _radii(X[stale], y[stale])
        done, ok = np.zeros((2, k), dtype=bool)  # the slice stops / is certified this pass
        step, sel, pending, guard = np.zeros((k, p)), slice(None), None, extreme  # sel: interior
        rmin = r.min(axis=1)  # NaN if any radius is
        far = rmin > snap_gate
        if np.count_nonzero(far) < k:  # an iterate is near or on a data point
            nearest, on_point = r.argmin(axis=1), False
            for j in np.flatnonzero(~far):
                if 0.0 < rmin[j] <= _OVERFLOW_RADIUS:  # 1 / r overflows: move onto it
                    y[j] = X[j, nearest[j]]
                    diffs[j], r[j], _ = (a[0] for a in _radii(X[j:j + 1], y[j:j + 1]))
                    rmin[j] = 0.0
                elif rmin[j] > 0.0:  # all radii positive: gate and test once H is formed
                    guard = guard or rmin[j] < n * 1e-300  # sum 1 / r may overflow
                    if (ids[j], nearest[j]) not in failed:
                        pending = np.zeros(k, dtype=bool) if pending is None else pending
                        pending[j] = True
                    continue
                on_point = True  # zero radius <=> exact coordinate coincidence with a data point
                active = r[j] > 0.0
                eta = int(n - np.count_nonzero(active))
                resultant, w = _sign_resultant(diffs[j, active], r[j, active])
                norm_res = math.sqrt(float(resultant @ resultant))
                if norm_res <= eta:  # y is a data point passing the optimality test
                    done[j] = ok[j] = True
                    continue
                with np.errstate(over="ignore"):
                    w_sum = float(w.sum())  # else 1 / sum w from the scale-free weights
                step[j] = (((1.0 - eta / norm_res) / w_sum) if w_sum < math.inf else
                           (1.0 - eta / norm_res) * _harmonic(r[j, active])[0]) * resultant
            if on_point:
                sel = np.flatnonzero((rmin > 0.0) & ~done)

        w = 1.0 / r[sel]
        resultant = np.matmul(w[:, None], diffs[sel])[:, 0]  # sum of signs
        interior, zero_step_ok = sel, None  # formed where a small step or a vertex needs it
        if n_small or pending is not None:
            zero_step_ok = certified_by_zero_step(sel, resultant, k)
            certified = small_step & zero_step_ok & (True if pending is None else ~pending)
            if np.count_nonzero(certified):
                done[certified] = ok[certified] = True
                left = ~certified[sel]
                sel, w, resultant = np.arange(k)[sel][left], w[left], resultant[left]
        if len(w):
            if guard:
                with np.errstate(over="ignore"):
                    w_sum = w.sum(axis=1)
                over = np.flatnonzero(w_sum == math.inf)
            else:
                w_sum, over = w.sum(axis=1), ()
            weiszfeld = (1.0 / w_sum)[:, None] * resultant
            # The Newton step H^-1 R is (I - V^T V)^-1 times the Weiszfeld
            # step R / sum w, where the rows v_i = u_i sqrt(w_i / sum w)
            # have norm at most 1, so nothing overflows at tiny radii. At
            # p <= 2, V is held p-major: the same syrk bits, faster over many rows.
            scaled = w * np.sqrt(w / w_sum[:, None])
            for i in over:  # both from the scale-free weights
                inverse_sum, normalized = _harmonic(r[np.arange(k)[sel][i]])
                weiszfeld[i], scaled[i] = inverse_sum * resultant[i], w[i] * np.sqrt(normalized)
            v = (np.multiply(diffs[sel].transpose(0, 2, 1), scaled[:, None], order="C") if p <= 2
                 else rowwise(np.multiply, diffs[sel], scaled[:, :, None]).transpose(0, 2, 1))
            matrix = identity - np.matmul(v, v.transpose(0, 2, 1))  # H / w_sum
            del v  # the vertex test's arrays take its place
            if pending is not None:
                at = np.arange(k)[sel]
                for i in np.flatnonzero(pending[at]):
                    j, row = at[i], nearest[at[i]]
                    if (_vertex_ruled_out(diffs[j], r[j], w[i], resultant[i], w_sum[i],
                                          matrix[i], row)
                            or not _anchored_optimal_at(X[j], X[j, row])):
                        failed.add((ids[j], row))
                        done[j] = ok[j] = small_step[j] & zero_step_ok[j]  # deferred certificate
                    else:  # a passing vertex snaps even where the step certifies
                        y[j], done[j], ok[j] = X[j, row], True, True
                stopped = done[at]
                if np.count_nonzero(stopped):  # else keep sel a slice where it is one
                    sel, weiszfeld, matrix = (a[~stopped] for a in (at, weiszfeld, matrix))
            with np.errstate(invalid="ignore"):  # NaN where the matrix is singular
                newton = _solve(matrix, weiszfeld[..., None], signature="dd->d")[..., 0]
            finite = np.isfinite(newton)
            if np.count_nonzero(finite) < finite.size:  # these take the Weiszfeld step
                finite, sel = finite.all(axis=1), np.arange(k)[sel]
                step[sel[~finite]] = weiszfeld[~finite]
                sel, weiszfeld, newton = sel[finite], weiszfeld[finite], newton[finite]
            trial = _radii(X[sel], y[sel] + newton)  # the next iterate's radii
            accepted = trial[2] <= objective[sel]
            if isinstance(sel, slice) and np.count_nonzero(accepted) == k:
                step, (diffs, r, objective), stale = newton, trial, None
            else:
                step[sel] = np.where(accepted[:, None], newton, weiszfeld)
                tried = np.arange(k)[sel][accepted]
                diffs[tried], r[tried], objective[tried] = (a[accepted] for a in trial)
                stale = np.ones(k, dtype=bool)
                stale[tried] = False
        elif np.count_nonzero(done) == k:  # every slice stops on a zero step
            finish(slice(None), ok, passes)
            break
        else:
            stale = np.ones(k, dtype=bool)

        y_next = y + step
        moved = y_next != y  # a stopping slice has a zero step
        if extreme:  # a plain sum of squares out of range gives no norm
            with np.errstate(over="ignore"):
                step_norm = np.sqrt(np.vecdot(step, step))
            lost = ~((step_norm >= 1e-140) & (step_norm <= 1e140)) & (step != 0.0).any(axis=1)
            step_norm[lost] = row_norms(step[lost])
        else:
            step_norm = np.sqrt(np.vecdot(step, step))
        small_step = step_norm <= threshold
        n_small = np.count_nonzero(small_step)
        was_tiny = tiny  # a step below the stall floor is a small step too
        tiny = step_norm <= stall_floor if n_small else small_step
        if np.count_nonzero(moved) == moved.size:
            y, its = y_next, passes + 1
        else:
            moved = moved.any(axis=1)
            pinned = ~(moved | done)  # cannot move at floating-point resolution
            if zero_step_ok is None:  # resultant still holds every interior slice
                zero_step_ok = certified_by_zero_step(interior, resultant, k)
            ok |= pinned & zero_step_ok
            done |= pinned
            y, its = np.where(moved[:, None], y_next, y), passes + moved
        if n_small and np.count_nonzero(tiny):
            done |= tiny & was_tiny
        n_done = np.count_nonzero(done)
        if n_done:
            if n_done == k:
                finish(slice(None), ok, its)
                break
            finish(done, ok, its)
            keep = ~done  # drop the finished slices
            ids, X, y, diffs, r, objective, threshold, snap_gate, stall_floor, \
                small_step, tiny = (
                    a[keep] for a in (ids, X, y, diffs, r, objective, threshold, snap_gate,
                                      stall_floor, small_step, tiny))
            stale = None if stale is None else stale[keep]
    else:
        finish(slice(None), np.zeros(len(ids), dtype=bool), opts.max_iterations)

    return estimates, iterations, converged


def _locations(X: np.ndarray, method: str, opts: MedianOptions | None, t):
    """locate on each slice of a block X (B, n, p), bit for bit: estimates (B, p),
    iteration counts and converged flags; "fixed" repeats the checked t (p,)."""
    if method == "median":
        return _spatial_medians(X, opts or MedianOptions())
    estimates = _block_means(X) if method == "mean" else np.tile(t, (len(X), 1))
    return estimates, np.zeros(len(X), int), np.ones(len(X), bool)


def locate(X, method: str, opts: MedianOptions | None = None, t=None) -> LocationResult:
    """Location of the sample by method: "mean", "median" (the spatial
    median under opts) or "fixed" (the given location t, which only this
    method reads)."""
    if method not in LOCATION_METHODS:
        raise InvalidInputError(f"unknown location method {method!r}")
    if method == "fixed" and t is None:
        raise InvalidInputError('method "fixed" requires a location t')
    X, t = _sample_at(X, t) if method == "fixed" else (_as_sample(X), None)
    y, its, ok = _locations(X[None], method, opts, t)
    return LocationResult(y[0], "spatial_median" if method == "median" else method,
                          int(its[0]), bool(ok[0]), X)
