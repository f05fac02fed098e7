"""Dense linear-algebra kernel: spatial signs, vec, Kronecker products
and the JSON form of a matrix.

Everything operates on plain numpy arrays. The vectorization convention is
column-major (Fortran order) throughout the package: entry (i, j) of a p x p
matrix lands at position j * p + i of its vec. All vectorized covariances
downstream inherit this ordering; mixing orderings would silently corrupt
the sandwich formula, so it is fixed here once.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def require_finite(a, name: str = "input") -> np.ndarray:
    """Coerce to a float array and reject non-finite entries."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} must contain only finite values")
    return a


# at p <= 2 a broadcast call loops over rows of length p: above this many entries a call per
# coordinate is faster, below it the one call's fixed cost is smaller (near n = 500 at p = 2)
_PER_COORDINATE_SIZE = 1024


def rowwise(ufunc, X: np.ndarray, v) -> np.ndarray:
    """ufunc(X, v) for float rows X (..., n, p) and a v that broadcasts to X's
    shape, bit for bit. At p <= 2 on large X the ufunc runs once per
    coordinate on the strided views X[..., k]."""
    if X.shape[-1] > 2 or X.size <= _PER_COORDINATE_SIZE:
        return ufunc(X, v)
    v = np.asarray(v)
    out = np.empty_like(X)
    for k in range(X.shape[-1]):
        ufunc(X[..., k], v[..., k % v.shape[-1]], out=out[..., k])
    return out


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of X, or of each slice of a block (B, n, p).

    Rows whose plain sum of squares under- or overflows (entries below
    ~1e-154 or above ~1e154) are recomputed with max-entry rescaling, so
    they still get a positive finite norm. Exact-zero rows get norm exactly
    0. The singularity-family experiments produce rows at extreme
    magnitudes routinely, hence the care.
    """
    return _rescued_norms(X)[0]


def _rescued_norms(X) -> tuple[np.ndarray, np.ndarray | None]:
    """row_norms(X) and the mask of the rows it rescued, None if none."""
    X = np.asarray(X, dtype=float)
    if 0 < X.shape[-1] <= 2 and X.size > _PER_COORDINATE_SIZE:
        # per coordinate: the einsum's sum, x0*x0 (+ x1*x1)
        with np.errstate(over="ignore"):  # as quiet as the einsum; rescued below
            d2 = X[..., 0] * X[..., 0]
            if X.shape[-1] == 2:
                d2 += X[..., 1] * X[..., 1]
    else:
        d2 = np.einsum("...j,...j->...", X, X)
    r = np.sqrt(d2)
    bad = _out_of_range(d2)
    if bad is not None:
        r[bad] = _rescaled(X[bad])[1]
    return r, bad


def _out_of_range(d2: np.ndarray) -> np.ndarray | None:
    """Mask of the sums of squares d2 outside [1e-280, 1e280], None if none.

    Outside this range the plain sum of squares is zero, subnormal (reduced
    precision), or at overflow risk; two reductions settle the common
    all-in-range case (NaN sums fail it too)."""
    if d2.size == 0 or (d2.min() >= 1e-280 and d2.max() <= 1e280):
        return None
    return ~((d2 >= 1e-280) & (d2 <= 1e280))


def _rescaled(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows and norms of the rows of sub (k, p) at any magnitude, from
    the rows divided by their max-abs entry; a zero row stays zero."""
    m = np.max(np.abs(sub), axis=1, initial=0.0)
    safe = np.where(m > 0.0, m, 1.0)
    scaled = sub / safe[:, None]
    norm = np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
    return scaled / np.where(norm > 0.0, norm, 1.0)[:, None], safe * norm


def spatial_sign(x) -> np.ndarray:
    """Direction x/|x| of a p-vector; the zero vector maps to itself."""
    x = require_finite(x, "spatial_sign input")
    if x.ndim != 1:
        raise InvalidInputError("spatial_sign expects a 1-d vector")
    return spatial_signs(x[None])[0]


def spatial_signs(X: np.ndarray) -> np.ndarray:
    """Row-wise spatial signs of an n x p matrix, or of each slice of a
    (B, n, p) block; zero rows stay zero."""
    X = np.asarray(X, dtype=float)
    r, rescued = _rescued_norms(X)
    if rescued is None:  # every r >= 1e-140: no zero divisor to replace
        return rowwise(np.divide, X, r[..., None])
    U = rowwise(np.divide, X, np.where(r > 0.0, r, 1.0)[..., None])
    U[rescued] = _rescaled(X[rescued])[0]  # X / r is no unit row once r is subnormal
    return U


def sign_outer(x) -> np.ndarray:
    """Rank-<=1 matrix s(x) s(x)^T; trace is 1 for x != 0, else 0."""
    u = spatial_sign(x)
    return np.outer(u, u)


def vec(M) -> np.ndarray:
    """Column-stacked vectorization: entry (i, j) lands at j * p + i."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InvalidInputError("vec expects a 2-d matrix")
    return M.ravel(order="F")


def kron(A, B) -> np.ndarray:
    """Kronecker product; block (i, j) equals A[i, j] * B."""
    return np.kron(np.asarray(A, dtype=float), np.asarray(B, dtype=float))


def matrix_json(M) -> dict | None:
    """{"dims": [rows, cols], "data": [row-major values]}; None stays None."""
    if M is None:
        return None
    M = np.asarray(M, dtype=float)
    return {"dims": list(M.shape), "data": M.ravel(order="C").tolist()}


def symmetrize(M: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2, killing floating-point drift from accumulation."""
    return (M + M.T) / 2.0
