"""Elliptical model definitions, samplers, and population SSCM oracles.

Three generator families are supported:

* ``gaussian``    -- multivariate normal with center mu and shape V.
* ``student_t``   -- elliptical t with nu degrees of freedom (nu <= 2, i.e.
  infinite variance, is explicitly allowed; it is a stress case).
* ``singularity`` -- the family with radial density 2*gamma*z^(2*gamma - 1)
  on [0, 1]; small gamma concentrates mass at the origin. Defined only for
  mu = 0, V = I, which the constructor enforces.

Randomness is pinned to numpy's Philox counter-based bit generator. A
SeededStream(master_seed, stream_index) maps to
Philox(SeedSequence(master_seed, spawn_key=(stream_index,))), so distinct
stream indices give independent streams and identical (seed, index) pairs
reproduce bitwise-identical draws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, from_json_object
from .linalg import require_finite, row_norms, spatial_signs, symmetrize
from .scatter import ScatterMatrix

GENERATORS = ("gaussian", "student_t", "singularity")


@dataclass(frozen=True)
class SeededStream:
    """Addressable random stream: (master_seed, stream_index) -> Generator."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_index < 0:
            raise InvalidInputError("seed and stream index must be non-negative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.master_seed, spawn_key=(self.stream_index,)
        )
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True, eq=False)
class EllipticalModel:
    """Center mu, SPD shape matrix V and a radial generator."""

    generator: str
    mu: np.ndarray
    V: np.ndarray
    nu: float | None = None
    gamma: float | None = None

    def __eq__(self, other):
        if not isinstance(other, EllipticalModel):
            return NotImplemented
        return (
            self.generator == other.generator
            and self.nu == other.nu
            and self.gamma == other.gamma
            and np.array_equal(self.mu, other.mu)
            and np.array_equal(self.V, other.V)
        )

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise InvalidInputError(f"unknown generator {self.generator!r}")
        mu = require_finite(self.mu, "mu")
        V = require_finite(self.V, "V")
        if mu.ndim != 1 or mu.size < 1:
            raise InvalidInputError("mu must be a nonempty vector")
        if V.shape != (mu.size, mu.size):
            raise InvalidInputError("V must be p x p with p = len(mu)")
        if not np.array_equal(V, V.T):
            raise InvalidInputError("V must be symmetric")
        try:
            chol = np.linalg.cholesky(V)
        except np.linalg.LinAlgError:
            raise InvalidInputError("V must be positive definite") from None
        if self.generator == "student_t":
            if self.nu is None or not self.nu > 0:
                raise InvalidInputError("student_t requires nu > 0")
        if self.generator == "singularity":
            if self.gamma is None or not self.gamma > 0:
                raise InvalidInputError("singularity requires gamma > 0")
            if np.any(mu != 0.0) or not np.array_equal(V, np.eye(mu.size)):
                raise InvalidInputError(
                    "singularity models are defined only for mu = 0, V = I"
                )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "_chol", chol)

    @property
    def p(self) -> int:
        return self.mu.size

    def to_json_dict(self) -> dict:
        d = {
            "generator": self.generator,
            "mu": self.mu.tolist(),
            "V": self.V.tolist(),
        }
        if self.nu is not None:
            d["nu"] = self.nu
        if self.gamma is not None:
            d["gamma"] = self.gamma
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "EllipticalModel":
        return from_json_object(d, "model JSON", lambda d: cls(
            generator=d["generator"],
            mu=np.asarray(d["mu"], dtype=float),
            V=np.asarray(d["V"], dtype=float),
            nu=d.get("nu"),
            gamma=d.get("gamma"),
        ))

    @classmethod
    def from_json(cls, text: str) -> "EllipticalModel":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"invalid model JSON: {exc}") from None
        return cls.from_json_dict(d)


def gaussian_model(mu, V) -> EllipticalModel:
    return EllipticalModel("gaussian", np.asarray(mu, float), np.asarray(V, float))


def student_t_model(nu: float, mu, V) -> EllipticalModel:
    return EllipticalModel(
        "student_t", np.asarray(mu, float), np.asarray(V, float), nu=nu
    )


def singularity_model(gamma: float, p: int) -> EllipticalModel:
    return EllipticalModel("singularity", np.zeros(p), np.eye(p), gamma=gamma)


def sample(model: EllipticalModel, n: int, stream: SeededStream) -> np.ndarray:
    """Draw n i.i.d. observations from the model; rows are observations.

    gaussian:    mu + L z,                L = chol(V), z std normal
    student_t:   mu + L z / sqrt(w/nu),   w ~ chi^2_nu
    singularity: R * U with U uniform on the unit sphere (normalized
                 Gaussian) and R = u^(1/(2 gamma)), u ~ Uniform(0, 1)
                 (the inverse CDF of the radial density).
    """
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    rng = stream.generator()
    p = model.p
    if model.generator == "gaussian":
        Z = rng.standard_normal((n, p))
        return model.mu + Z @ model._chol.T
    if model.generator == "student_t":
        L = model._chol
        Z = rng.standard_normal((n, p))
        w = rng.chisquare(model.nu, size=n)
        return model.mu + (Z @ L.T) / np.sqrt(w / model.nu)[:, None]
    # singularity
    G = rng.standard_normal((n, p))
    U = spatial_signs(G)
    u = rng.uniform(size=n)
    R = u ** (1.0 / (2.0 * model.gamma))
    return R[:, None] * U


def population_sscm_closed_p2(V) -> ScatterMatrix:
    """Population SSCM of a bivariate elliptical law with shape matrix V.

    Shares eigenvectors with V; the eigenvalues are sqrt(lambda_k)
    normalized to sum 1. Generator-independent within the elliptical family.
    """
    V = require_finite(V, "V")
    if V.shape != (2, 2):
        raise InvalidInputError("closed form is available only for p = 2")
    if not np.allclose(V, V.T, rtol=0.0, atol=0.0):
        V = symmetrize(V)
    lam, Q = np.linalg.eigh(V)
    if np.any(lam <= 0.0):
        raise InvalidInputError("V must be positive definite")
    d = np.sqrt(lam)
    d = d / d.sum()
    S = symmetrize(Q @ np.diag(d) @ Q.T)
    return ScatterMatrix(S, "population", 0)


def population_sscm_mc(
    model: EllipticalModel, n_draws: int, stream: SeededStream
) -> tuple[ScatterMatrix, np.ndarray]:
    """Monte Carlo estimate of the population SSCM about model.mu.

    Returns the estimate and a matrix of entrywise standard errors.
    """
    if n_draws < 100:
        raise InvalidInputError("n_draws must be at least 100")
    X = sample(model, n_draws, stream)
    U = spatial_signs(X - model.mu)
    M = U.T @ U / n_draws
    U2 = U * U
    second = U2.T @ U2 / n_draws
    var = np.maximum(second - M * M, 0.0)
    se = np.sqrt(var / n_draws)
    return ScatterMatrix(symmetrize(M), "population", n_draws, model.mu.copy()), se


@dataclass(frozen=True)
class InverseMomentResult:
    """Value of E |X - mu|^(-q), or the fact that it diverges."""

    finite: bool
    value: float | None
    se: float | None
    method: str  # "analytic" or "mc"


def inverse_moment(
    model: EllipticalModel,
    q: float,
    n_draws: int = 200_000,
    stream: SeededStream | None = None,
) -> InverseMomentResult:
    """Probe the inverse moment E |X - mu|^(-q) of a model.

    For the singularity family the answer is analytic: finite iff q < 2*gamma
    with value 2*gamma / (2*gamma - q). For the gaussian and student_t
    families with p >= 2 the moment is finite for the relevant range
    q in (0, 2) (bounded density at the center) and is estimated by Monte
    Carlo with a standard error.
    """
    if not q > 0:
        raise InvalidInputError("q must be positive")
    if model.generator == "singularity":
        two_gamma = 2.0 * model.gamma
        if q >= two_gamma:
            return InverseMomentResult(False, None, None, "analytic")
        return InverseMomentResult(True, two_gamma / (two_gamma - q), None, "analytic")
    if stream is None:
        stream = SeededStream(0, 0)
    X = sample(model, n_draws, stream)
    r = row_norms(X - model.mu)
    r = r[r > 0.0]
    vals = r ** (-q)
    est = float(vals.mean())
    se = float(vals.std() / np.sqrt(vals.size))
    return InverseMomentResult(True, est, se, "mc")
