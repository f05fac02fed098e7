"""Independent oracles and helpers shared by the test modules.

The brute-force median here must stay independent of the Newton/Weiszfeld
path it checks: coarse grid scan over the data's bounding box followed by
Nelder-Mead refinement of the raw objective.
"""

import numpy as np
from scipy.optimize import minimize


def l1_objective_direct(X, mu):
    return float(np.sqrt(((X - mu) ** 2).sum(axis=1)).sum())


def brute_force_spatial_median(X, grid_points=80):
    X = np.asarray(X, dtype=float)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    lo = lo - 0.25 * span
    hi = hi + 0.25 * span
    axes = [np.linspace(lo[k], hi[k], grid_points) for k in range(X.shape[1])]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    vals = np.sqrt(
        ((pts[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    ).sum(axis=1)
    best = pts[np.argmin(vals)]
    res = minimize(
        lambda mu: l1_objective_direct(X, mu),
        best,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000},
    )
    return res.x


def random_orthogonal(rng, p):
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


def signed_zero_corpus():
    """Samples whose componentwise median (the initial iterate) is a signed
    zero, so any change in how the median is formed shows in the bytes."""
    mz = -0.0
    return [
        np.array([[mz, 1.0], [0.0, -1.0], [1.0, mz], [-1.0, 0.0]]),
        np.array([[mz, mz], [mz, 2.0], [3.0, mz]]),
        np.array([[-1.0, 2.0], [1.0, -2.0], [mz, 0.5], [0.0, -0.5], [0.25, mz]]),
        np.array([[mz, mz, mz], [1.0, -1.0, 2.0], [-1.0, 1.0, -2.0]]),
        np.array([[-2.0, mz], [2.0, mz], [mz, 3.0], [mz, -3.0]]),
        np.array([[mz, 0.0], [0.0, mz]]),
    ]


def ssscm_direct(X):
    """Symmetrized SSCM by a plain loop over the pairs i < j: the mean of
    the sign outer products of X_i - X_j over the pairs with X_i != X_j,
    and the number of those pairs."""
    from signcov import sign_outer

    X = np.asarray(X, dtype=float)
    n, p = X.shape
    M, pairs = np.zeros((p, p)), 0
    for i in range(n):
        for j in range(i + 1, n):
            if np.any(X[i] != X[j]):
                M += sign_outer(X[i] - X[j])
                pairs += 1
    return M / pairs, pairs
