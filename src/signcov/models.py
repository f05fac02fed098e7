"""Elliptical model definitions, samplers, and population SSCM oracles.

Three generator families are supported:

* ``gaussian``    -- multivariate normal with center mu and shape V.
* ``student_t``   -- elliptical t with nu degrees of freedom (nu <= 2, i.e.
  infinite variance, is explicitly allowed; it is a stress case).
* ``singularity`` -- the family with radial density 2*gamma*z^(2*gamma - 1)
  on [0, 1]; small gamma concentrates mass at the origin. Defined only for
  mu = 0, V = I, which the constructor enforces.

``sign_moments`` gives the exact sign moments of any elliptical law by 1-D
Gauss-Legendre quadrature (15-node panels, bisected to 1e-14 of the largest
moment): its population SSCM and every element's limit variance.

Randomness is pinned to numpy's Philox counter-based bit generator. A
SeededStream(master_seed, stream_index) maps to
Philox(SeedSequence(master_seed, spawn_key=(stream_index,))), so distinct
stream indices give independent streams and identical (seed, index) pairs
reproduce bitwise-identical draws; ``SeededStream.generator()`` is that
reference path. A Philox stream is its key (Salmon et al. 2011), so the
harness derives a run of keys in one vectorized pass of SeedSequence's
mixing (``_stream_keys``) and re-keys one Philox for each, drawing the
reference path's bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, from_json_object, reject_unknown_keys
from .linalg import require_finite, row_norms, rowwise, spatial_signs, symmetrize
from .scatter import ScatterMatrix

GENERATORS = ("gaussian", "student_t", "singularity")
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), pool size 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
# the model JSON keys, and the parameter (nu or gamma) each generator takes
_MODEL_KEYS = frozenset({"generator", "mu", "V", "nu", "gamma"})
_PARAMETER = {"gaussian": None, "student_t": "nu", "singularity": "gamma"}


@dataclass(frozen=True)
class SeededStream:
    """Addressable random stream: (master_seed, stream_index) -> Generator."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_index < 0:
            raise InvalidInputError("seed and stream index must be non-negative")

    def generator(self) -> np.random.Generator:
        """The reference path: Philox(SeedSequence(seed, spawn_key=(index,)))."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(seq))


def _hashmix(values, const, mult=_MULT_A):
    """SeedSequence's hashmix of each 32-bit word (int or uint64 array) in
    turn: (hashes, the constant that runs on)."""
    hashes = []
    for value in values:
        value, const = value ^ const, const * mult & _MASK32
        value = value * const & _MASK32
        hashes.append(value ^ value >> 16)
    return hashes, const


def _stream_keys(master_seed: int, indices) -> np.ndarray:
    """Philox keys (k, 2) uint64, row j SeedSequence(master_seed, spawn_key=
    (indices[j],)).generate_state(2, np.uint64), by SeedSequence's algorithm.
    The seed's w 32-bit words, zero-padded to the pool size 4, leave the pool
    of SeedSequence(master_seed) after 16 + 4 max(w - 4, 0) hashmix steps;
    the index's one word (below 2**32) or two then mix in, on arrays."""
    steps = 16 + 4 * max(-(-master_seed.bit_length() // 32) - 4, 0)
    const = _INIT_A * pow(_MULT_A, steps, 2**32) & _MASK32
    pool = np.random.SeedSequence(master_seed).pool.tolist()
    idx = np.asarray(indices, dtype=np.uint64)
    for word, entropy in ((idx & _MASK32, True), (idx >> 32, idx >> 32 > 0)):
        hashes, const = _hashmix([word] * 4, const)
        # SeedSequence's mix (exact mod 2**32 as uint64 wraps), where the word is entropy
        mixed = [(_MIX_MULT_L * p - _MIX_MULT_R * h) & _MASK32 for p, h in zip(pool, hashes)]
        pool = [np.where(entropy, m ^ m >> 16, p) for m, p in zip(mixed, pool)]
    state, _ = _hashmix(pool, _INIT_B, _MULT_B)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _keyed_generators(keys):
    """One Generator, re-keyed for each row of the (k, 2) uint64 Philox keys in
    turn to the state of a fresh Philox(key=key): counter 0, empty buffer. The
    state holds Python ints, which the setter converts faster than numpy's."""
    rng = np.random.Generator(np.random.Philox(0))
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys.tolist():
        state["state"]["key"] = key
        rng.bit_generator.state = state
        yield rng


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
        for key in ("nu", "gamma"):
            if getattr(self, key) is not None and key != _PARAMETER[self.generator]:
                raise InvalidInputError(f"{key} does not apply to {self.generator}")
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
        """The model that d describes; a key no generator reads (say, a
        misspelling) raises, as does nu or gamma on another generator."""

        def build(d):
            reject_unknown_keys(d, _MODEL_KEYS, "model")
            return cls(
                generator=d["generator"],
                mu=np.asarray(d["mu"], dtype=float),
                V=np.asarray(d["V"], dtype=float),
                nu=d.get("nu"),
                gamma=d.get("gamma"),
            )

        return from_json_object(d, "model JSON", build)

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
    return _draw(model, n, 1, [stream.generator()])[0]


def _draw(model: EllipticalModel, n: int, B: int, generators) -> np.ndarray:
    """B samples (B, n, p), slice b drawn as ``sample`` draws from the b-th
    generator, which is drawn out before the next is taken; the transform
    runs once on the block (its matmul is the one-sample gemm per slice)."""
    Z, W = np.empty((B, n, model.p)), np.empty((B, n))
    for b, rng in enumerate(generators):
        rng.standard_normal(out=Z[b])
        if model.generator == "student_t":
            W[b] = rng.chisquare(model.nu, size=n)
        elif model.generator == "singularity":
            W[b] = rng.random(size=n)  # uniform(0, 1) is 0 + 1 * random(): the same bits
    if model.generator == "gaussian":
        return model.mu + Z @ model._chol.T
    if model.generator == "student_t":
        return model.mu + (Z @ model._chol.T) / np.sqrt(W / model.nu)[..., None]
    radii = W ** (1.0 / (2.0 * model.gamma))
    return rowwise(np.multiply, spatial_signs(Z), radii[..., None])


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


@dataclass(frozen=True)
class SignMoments:
    """Sign moments of an elliptical law with shape V = Q diag(lam) Q^T: its sign
    is u = Q w, E[w_a^2] = second[a], E[w_a^2 w_b^2] = fourth[a, b] (a != b),
    E[w_a^4] = 3 fourth[a, a], and moments odd in any w_a vanish."""

    Q: np.ndarray
    second: np.ndarray
    fourth: np.ndarray

    def population(self) -> ScatterMatrix:
        """The population SSCM E[u u^T] = Q diag(second) Q^T."""
        S = symmetrize((self.Q * self.second) @ self.Q.T)
        return ScatterMatrix(S, "population", 0)

    def element_variance(self, i: int, j: int) -> float:
        """Var(u_i u_j), the fixed-location limit variance of SSCM[i, j], in
        O(p^2): with q_i row i of Q and G = fourth, it is
        (q_i o q_i)' G (q_j o q_j) + 2 (q_i o q_j)' G (q_i o q_j) - S_ij^2."""
        qi, qj, G = self.Q[i], self.Q[j], self.fourth
        qij = qi * qj
        return float((qi * qi) @ G @ (qj * qj) + 2.0 * (qij @ G @ qij)
                     - (qij @ self.second) ** 2)


def sign_moments(V) -> SignMoments:
    """Exact sign moments of every elliptical law with shape matrix V.

    In V's eigenbasis the sign has the law of y / |y|, y_a ~ N(0, lam_a)
    independent, whatever the generator. Writing 1/|y|^2 and 1/|y|^4 as
    Laplace integrals over t gives, with h_a = lam_a / (1 + 2 t lam_a) and
    g = prod_k (1 + 2 t lam_k)^(-1/2) (Duerre, Tyler & Vogel 2016):
    E[w_a^2] = int_0^inf h_a g dt and fourth[a, b] = int_0^inf t h_a h_b g dt,
    integrated over s = (1 + 2t)^(-1/2) in [0, 1] with lam scaled to max 1
    (smooth integrands, at most 1; polynomials when V ~ I) by 15-node
    Gauss-Legendre panels, each bisected until the rule on its halves agrees
    with the rule on it within 1e-14 of the largest moment. A panel's fourth
    moments are one gemm K^T diag(omega) K over its nodes: memory ~ panels p^2.
    """
    V = require_finite(V, "V")
    if V.ndim != 2 or not 0 < V.shape[0] == V.shape[1]:
        raise InvalidInputError("V must be a square matrix")
    lam, Q = np.linalg.eigh(symmetrize(V))
    if not np.all(lam > 0.0):
        raise InvalidInputError("V must be positive definite")
    lam = lam / lam.max()
    nodes, weights = np.polynomial.legendre.leggauss(15)

    def rule(lo, hi):  # per panel: [second; fourth] (p + 1, p), t-integrands times |dt/ds|
        h = 0.5 * (hi - lo)[:, None]
        s = 0.5 * (hi + lo)[:, None] + h * nodes  # t = (1/s^2 - 1) / 2
        d = lam + (1.0 - lam) * (s * s)[..., None]  # (1 + 2 t lam) s^2
        w = h * weights * np.prod(s[..., None] / np.sqrt(d), axis=-1) / s  # s^(p-1) g
        K = lam / d
        tw = 0.5 * (1.0 - s * s) * w  # t s^2 w
        return np.concatenate([w[:, None], (K * tw[..., None]).transpose(0, 2, 1)], 1) @ K

    lo, hi, total = np.zeros(1), np.ones(1), 0.0
    whole = rule(lo, hi)
    while lo.size:
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        halves = rule(lo, hi)
        pair = halves[: mid.size] + halves[mid.size:]
        tol = 1e-14 * np.abs(total + whole.sum(axis=0)).max()
        keep = np.tile(np.abs(pair - whole).max(axis=(1, 2)) > tol, 2)
        total = total + pair[~keep[: mid.size]].sum(axis=0)
        lo, hi, whole = lo[keep], hi[keep], halves[keep]
    return SignMoments(Q, total[0], total[1:])


def population_sscm_mc(
    model: EllipticalModel, n_draws: int, stream: SeededStream
) -> tuple[ScatterMatrix, np.ndarray]:
    """Monte Carlo estimate of the population SSCM about model.mu.

    Returns the estimate and a matrix of entrywise standard errors.
    """
    if n_draws < 100:
        raise InvalidInputError("n_draws must be at least 100")
    X = sample(model, n_draws, stream)
    U = spatial_signs(rowwise(np.subtract, X, model.mu))
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
