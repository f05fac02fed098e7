"""Empirical estimators of the limit-law covariances of the SSCM.

For observations X_i and a location t, let u_i = s(X_i - t) and
Z_i = vec(u_i u_i^T) (column-major vec, as everywhere in the package).

* ``fixed_location_cov``   -- covariance of the Z_i: the limit covariance of
  sqrt(n) * vec(fixed-location SSCM - population SSCM). Under symmetry of F
  about t it is also the limit covariance of the plug-in estimator.
* ``location_sensitivity`` -- the p^2 x p derivative-style matrix describing
  how vec of the SSCM reacts to a shift of the location:
  2 E[((x kron x) x^T)/|x|^4] - E[x/|x|^2] kron I - I kron E[x/|x|^2]
  with x = X - t. It vanishes under symmetry.
* ``joint_mean_cov``       -- covariance of the stacked vector (X_i - t, Z_i);
  the joint limit covariance when the location estimator is the sample mean.
* ``sandwich_cov``         -- A J A^T with A = (sensitivity, I_{p^2}): the
  plug-in limit covariance for asymmetric F with mean location.

All empirical covariances use 1/n normalization; the asymptotics do not
distinguish 1/n from 1/(n-1), and 1/n matches the plug-in limit expressions.
Observations coinciding exactly with t contribute Z = 0 to the covariances
and are excluded from the sensitivity expectations (whose integrands are
undefined at 0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InvalidInputError
from .linalg import matrix_json, row_norms, rowwise, spatial_signs, symmetrize
from .location import _as_sample, _sample_at

# flag joint-covariance estimates on samples whose coordinates show this
# much excess kurtosis: finite second moments are the caller's
# responsibility, but an exploding fourth moment is a visible symptom
_KURTOSIS_FLAG_LEVEL = 100.0


def _vec_outers(U: np.ndarray) -> np.ndarray:
    """Rows vec(u_i u_i^T) of the rows u_i of U (n, p), as row-major flattened outers."""
    return (U[:, :, None] * U[:, None, :]).reshape(len(U), U.shape[1] ** 2)


def vec_sign_outers(X, t) -> np.ndarray:
    """n x p^2 matrix whose rows are vec(s(X_i - t) s(X_i - t)^T)."""
    X, t = _sample_at(X, t)
    return _vec_outers(spatial_signs(rowwise(np.subtract, X, t)))


def fixed_location_cov(X, t) -> np.ndarray:
    """Empirical covariance (1/n) of the vectorized sign outer products."""
    X = _as_sample(X)
    if X.shape[0] < 2:
        raise InvalidInputError("need at least 2 observations")
    Z = vec_sign_outers(X, t)
    Zc = Z - Z.mean(axis=0)
    return symmetrize(Zc.T @ Zc) / X.shape[0]


def location_sensitivity(X, t) -> np.ndarray:
    """Plug-in estimate of the location-sensitivity matrix (p^2 x p)."""
    X, t = _sample_at(X, t)
    D = X - t
    r = row_norms(D)
    keep = r > 0.0
    if not np.any(keep):
        raise DegenerateSampleError("every observation coincides with the location")
    D, r = D[keep], r[keep]
    n, p = D.shape
    U = D / r[:, None]          # signs
    Ur = U / r[:, None]         # x/|x|^2
    # 2 * mean_i of (u_i kron u_i)(x_i/|x_i|^2)^T, built from the vec rows
    first = 2.0 * (_vec_outers(U).T @ Ur) / n
    m = Ur.mean(axis=0)
    return first - np.kron(m[:, None], np.eye(p)) - np.kron(np.eye(p), m[:, None])


def joint_mean_cov(X, t) -> np.ndarray:
    """Empirical covariance (1/n) of the stacked vector (X_i - t, Z_i).

    This is the joint limit covariance of sqrt(n) * (mean - t, vec(SSCM - S))
    when the location estimator is the sample mean; other estimators are out
    of scope for this function.
    """
    X, t = _sample_at(X, t)
    if X.shape[0] < 2:
        raise InvalidInputError("need at least 2 observations")
    Xc = X - X.mean(axis=0)
    m2 = (Xc**2).mean(axis=0)
    m4 = (Xc**4).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kurt = np.where(m2 > 0.0, m4 / m2**2 - 3.0, 0.0)
    if np.max(kurt) > _KURTOSIS_FLAG_LEVEL:
        warnings.warn(
            f"sample excess kurtosis {np.max(kurt):.1f} suggests heavy tails; "
            "the location block of the joint covariance may be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    Z = vec_sign_outers(X, t)
    V = np.hstack([X - t, Z])
    Vc = V - V.mean(axis=0)
    return symmetrize(Vc.T @ Vc) / X.shape[0]


def sandwich_cov(sensitivity, joint_cov) -> np.ndarray:
    """A J A^T with A = (sensitivity, I_{p^2}); symmetrized."""
    B = np.asarray(sensitivity, dtype=float)
    J = np.asarray(joint_cov, dtype=float)
    if B.ndim != 2:
        raise InvalidInputError("sensitivity must be a p^2 x p matrix")
    psq, p = B.shape
    if psq != p * p:
        raise InvalidInputError(f"sensitivity has shape {B.shape}, expected (p^2, p)")
    if J.shape != (p + psq, p + psq):
        raise InvalidInputError(
            f"joint covariance has shape {J.shape}, expected {(p + psq, p + psq)}"
        )
    A = np.hstack([B, np.eye(psq)])
    return symmetrize(A @ J @ A.T)


def element_variance(cov, i: int, j: int) -> float:
    """Limit variance of element (i, j) of the scatter estimate (0-based):
    the diagonal entry of cov at the vec position j * p + i."""
    cov = np.asarray(cov, dtype=float)
    p = math.isqrt(cov.shape[0])
    if p * p != cov.shape[0] or cov.shape[0] != cov.shape[1]:
        raise InvalidInputError("covariance must be p^2 x p^2")
    if not (0 <= i < p and 0 <= j < p):
        raise InvalidInputError(f"indices ({i}, {j}) out of range for p = {p}")
    pos = j * p + i
    return float(cov[pos, pos])


@dataclass
class AsymptoticsBundle:
    """All limit-covariance pieces for one sample and location.

    block_matrix is (sensitivity, I_{p^2}) and plugin_cov is
    block_matrix @ joint_cov @ block_matrix^T; joint_cov (and therefore
    plugin_cov) is meaningful for the sample-mean location only.
    compute_bundle fills both at any t; the CLI builds its bundle for any
    other location method without them, so there they are None.
    """

    fixed_cov: np.ndarray
    sensitivity: np.ndarray
    n_used: int
    joint_cov: np.ndarray | None = None
    plugin_cov: np.ndarray | None = None

    @property
    def block_matrix(self) -> np.ndarray:
        return np.hstack([self.sensitivity, np.eye(self.sensitivity.shape[0])])

    def to_json_dict(self) -> dict:
        return {
            "fixed_cov": matrix_json(self.fixed_cov),
            "sensitivity": matrix_json(self.sensitivity),
            "joint_cov": matrix_json(self.joint_cov),
            "block_matrix": None
            if self.joint_cov is None
            else matrix_json(self.block_matrix),
            "plugin_cov": matrix_json(self.plugin_cov),
            "n_used": self.n_used,
        }


def compute_bundle(X, t) -> AsymptoticsBundle:
    """Estimate every piece of the plug-in limit law at location t."""
    X, t = _sample_at(X, t)
    W = fixed_location_cov(X, t)
    B = location_sensitivity(X, t)
    J = joint_mean_cov(X, t)
    return AsymptoticsBundle(
        fixed_cov=W,
        sensitivity=B,
        joint_cov=J,
        plugin_cov=sandwich_cov(B, J),
        n_used=X.shape[0],
    )
