"""Spatial sign covariance matrix (SSCM) estimators.

Variants:

* ``sscm_fixed``   -- average of sign outer products about a fixed location;
  observations coinciding with the location contribute the zero matrix.
* ``sscm_star``    -- same sum divided by the number n* of observations not
  coinciding with the location; trace is 1.
* ``sscm_plugin``  -- fixed-location SSCM evaluated at an estimated location
  (mean or spatial median), with a coincidence report.
* ``ssscm``        -- symmetrized SSCM (spatial Kendall tau matrix): average
  over unordered pairs of the sign outer products of pairwise differences.
  Location-free.

Coincidence (an observation equal to the location) is always detected by
exact floating-point equality of all coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSampleError, InvalidInputError
from .linalg import require_finite, row_norms, spatial_signs, symmetrize
from .location import (
    LocationResult,
    MedianOptions,
    _as_sample,
    _sample_at,
    locate,
    spatial_median,  # noqa: F401 - bound for bench/ tracer tests
)

# Above this many pair-coordinates the symmetrized estimator accumulates in
# row blocks instead of materializing all pairwise differences at once.
_PAIR_BUFFER_LIMIT = 2_000_000


@dataclass
class ScatterMatrix:
    """Symmetric PSD p x p scatter estimate with provenance metadata."""

    matrix: np.ndarray
    variant: str
    n_effective: int
    location_used: np.ndarray | None = None


@dataclass
class CoincidenceReport:
    """How many observations coincide exactly with the location used."""

    n: int
    n_star: int
    indices_coincident: list[int]


def coincidence_report(X, t) -> CoincidenceReport:
    X = _as_sample(X)
    t = require_finite(t, "location")
    idx = np.flatnonzero(np.all(X == t, axis=1))
    return CoincidenceReport(
        n=X.shape[0], n_star=X.shape[0] - idx.size, indices_coincident=idx.tolist()
    )


def sscm_fixed(X, t) -> ScatterMatrix:
    """SSCM about a fixed location: mean of s(X_i - t) s(X_i - t)^T."""
    X, t = _sample_at(X, t)
    U = spatial_signs(X - t)
    S = symmetrize(U.T @ U) / X.shape[0]
    return ScatterMatrix(S, "fixed_location", X.shape[0], location_used=t.copy())


def sscm_star(X, t) -> ScatterMatrix:
    """Trace-1 SSCM: sign outer products averaged over the n* observations
    that do not coincide with the location."""
    X, t = _sample_at(X, t)
    report = coincidence_report(X, t)
    if report.n_star == 0:
        raise DegenerateSampleError("every observation coincides with the location")
    U = spatial_signs(X - t)
    S = symmetrize(U.T @ U) / report.n_star
    return ScatterMatrix(S, "starred", report.n_star, location_used=t.copy())


def sscm_plugin(
    X,
    method: str = "median",
    opts: MedianOptions | None = None,
    t=None,
) -> tuple[ScatterMatrix, LocationResult, CoincidenceReport]:
    """SSCM at the location locate(X, method, opts, t) picks: "mean",
    "median" or "fixed" (at t), so callers drive all three variants through
    one entry point."""
    X = _as_sample(X)
    if X.shape[0] < 2:
        raise InvalidInputError("plug-in SSCM needs at least 2 observations")
    loc = locate(X, method, opts, t)
    scatter = replace(sscm_fixed(X, loc.estimate), variant="plugin")
    return scatter, loc, coincidence_report(X, loc.estimate)


def ssscm(X) -> ScatterMatrix:
    """Symmetrized SSCM over unordered pairs i < j with X_i != X_j.

    Ordered pairs would give the identical matrix since the sign outer
    product is even in its argument, so the cheaper convention is used.
    """
    X = _as_sample(X)
    n, p = X.shape
    if n < 2:
        raise InvalidInputError("symmetrized SSCM needs at least 2 observations")

    total_pairs = n * (n - 1) // 2
    M = np.zeros((p, p))
    pairs_used = 0
    if total_pairs * p <= _PAIR_BUFFER_LIMIT:
        ii, jj = np.triu_indices(n, k=1)
        D = X[ii] - X[jj]
        r = row_norms(D)
        nz = r > 0.0
        U = D[nz] / r[nz, None]
        M = U.T @ U
        pairs_used = int(np.count_nonzero(nz))
    else:
        for i in range(n - 1):
            D = X[i + 1 :] - X[i]
            r = row_norms(D)
            nz = r > 0.0
            U = D[nz] / r[nz, None]
            M += U.T @ U
            pairs_used += int(np.count_nonzero(nz))

    if pairs_used == 0:
        raise DegenerateSampleError("all observations are identical")
    return ScatterMatrix(symmetrize(M) / pairs_used, "symmetrized", pairs_used)


def frobenius_error_gram(X, t) -> float:
    """Squared Frobenius distance of the fixed-location SSCM from (1/p) I_p,
    computed through the n x n Gram matrix of the spatial signs.

    Never materializes the p x p estimate, so it is the cheap path when
    p >> n (cost O(n^2 p) instead of O(n p^2)).
    """
    X, t = _sample_at(X, t)
    n, p = X.shape
    U = spatial_signs(X - t)
    G = U @ U.T
    trace_s = float(np.trace(G)) / n  # = n*/n up to rounding of unit norms
    return float(np.sum(G * G)) / (n * n) - 2.0 * trace_s / p + 1.0 / p
