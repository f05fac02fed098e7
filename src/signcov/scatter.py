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
  Location-free. Summed by tiles of at most K pairs, K set by (n, p) alone,
  one gemm (D w) D^T each over the coordinate-major differences D with
  weights w = 1/|d|^2, 0 on coincident pairs and on the pairs j <= i. Those
  lie in the first h columns of a tile of rows [a, b) by columns [c, e),
  h = min(b, e) - c, and only these columns are masked. Memory is bounded by
  the tile, not by n, and the bits are fixed by (n, p).

Coincidence (an observation equal to the location) is exact floating-point
equality of all coordinates: ``coincidence_report`` tests it, the estimators
read it off the zero sign rows that ``linalg._signs_about`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSampleError, InvalidInputError
from .linalg import _out_of_range, _rescaled, _signs_about, symmetrize
from .location import (
    LocationResult,
    MedianOptions,
    _as_sample,
    _sample_at,
    locate,
    spatial_median,  # noqa: F401 - bound for bench/ tracer tests
)

# Caps on the symmetrized SSCM's tiles: entries of differences held at once, and m*n*k of
# one gemm, which OpenBLAS runs on the calling thread (same bits) up to 4 * 65536.
_PAIR_BUFFER_LIMIT = 2**15
_SERIAL_GEMM = 2**18


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
    X, t = _sample_at(X, t)
    idx = np.flatnonzero(np.all(X == t, axis=1))
    return CoincidenceReport(
        n=X.shape[0], n_star=X.shape[0] - idx.size, indices_coincident=idx.tolist()
    )


def sscm_fixed(X, t) -> ScatterMatrix:
    """SSCM about a fixed location: mean of s(X_i - t) s(X_i - t)^T."""
    X, t = _sample_at(X, t)
    U = _signs_about(X, t)
    S = symmetrize(U.T @ U) / X.shape[0]
    return ScatterMatrix(S, "fixed_location", X.shape[0], location_used=t.copy())


def sscm_star(X, t) -> ScatterMatrix:
    """Trace-1 SSCM: sign outer products averaged over the n* observations
    that do not coincide with the location."""
    X, t = _sample_at(X, t)
    U = _signs_about(X, t)
    n_star = int(np.count_nonzero(U.any(axis=1)))  # the zero sign rows are the X_i == t
    if n_star == 0:
        raise DegenerateSampleError("every observation coincides with the location")
    return ScatterMatrix(symmetrize(U.T @ U) / n_star, "starred", n_star, location_used=t.copy())


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
    """Symmetrized SSCM over unordered pairs i < j with X_i != X_j, by tiles
    (ordered pairs give the same matrix: the sign outer product is even)."""
    X = _as_sample(X)
    n, p = X.shape
    if n < 2:
        raise InvalidInputError("symmetrized SSCM needs at least 2 observations")

    K = max(1, min(_PAIR_BUFFER_LIMIT // p, _SERIAL_GEMM // (p * p)))  # pairs per tile
    XT, M, pairs_used, a, c = np.ascontiguousarray(X.T), np.zeros((p, p)), 0, 0, 1
    with np.errstate(over="ignore", divide="ignore"):  # masked or rescued below
        while a < n - 1:  # rows [a, b) by columns [c, e); c > a + 1 only if b = a + 1
            b, e = min(n - 1, a + max(1, K // (n - a - 1))), min(n, c + K)
            D = XT[:, a:b, None] - XT[:, None, c:e]
            d2 = np.einsum("kij,kij->ij", D, D)
            w = 1.0 / d2
            h = max(0, min(b, e) - c)  # the h(h + 1)/2 pairs j <= i lie in the first h columns
            if h:
                early = np.arange(c, c + h) <= np.arange(a, b)[:, None]
                np.copyto(d2[:, :h], 1.0, where=early)
                np.copyto(w[:, :h], 0.0, where=early)
            bad = _out_of_range(d2)
            if bad is None:  # every pair i < j is distinct
                pairs_used += (b - a) * (e - c) - h * (h + 1) // 2
            else:  # unit signs by max-entry rescaling, as row_norms
                sub, (i, j) = D[:, bad], np.nonzero(bad)
                over = np.isinf(sub).any(axis=0)  # halved, such a pair's difference is finite
                sub[:, over] = 0.5 * XT[:, a + i[over]] - 0.5 * XT[:, c + j[over]]
                U = _rescaled(sub.T)[0]
                D[:, bad], w[bad] = U.T, U.any(axis=1)  # w 0 on exact coincidence
                pairs_used += int(np.count_nonzero(w))
            M += (D * w).reshape(p, -1) @ D.reshape(p, -1).T
            a, c = (a, e) if e < n else (b, b + 1)

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
    return float(_gram_error(_signs_about(X, t)[None])[0])


def _gram_error(U: np.ndarray) -> np.ndarray:
    """frobenius_error_gram per slice of a block of spatial signs U (B, n, p)."""
    B, n, p = U.shape
    G = U @ U.transpose(0, 2, 1)
    trace_s = np.trace(G, axis1=1, axis2=2) / n  # = n*/n up to rounding of unit norms
    return (G * G).reshape(B, -1).sum(axis=1) / (n * n) - 2.0 * trace_s / p + 1.0 / p
