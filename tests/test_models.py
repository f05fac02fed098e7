import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import signcov.simharness as harness
from signcov import (
    EllipticalModel,
    ExperimentConfig,
    InvalidInputError,
    SeededStream,
    element_variance,
    fixed_location_cov,
    gaussian_model,
    population_sscm_closed_p2,
    population_sscm_mc,
    row_norms,
    run_experiment,
    sample,
    sign_moments,
    singularity_model,
    student_t_model,
)
from signcov.models import _draw, _keyed_generators, _stream_keys
from _oracles import random_orthogonal

SHAPE = np.array([[1.0, 0.5], [0.5, 1.0]])
# exact off-diagonal of the population SSCM for SHAPE:
# eigenvalues 1.5, 0.5 along (1, 1)/sqrt(2) and (1, -1)/sqrt(2)
SHAPE_OFFDIAG = (np.sqrt(1.5) - np.sqrt(0.5)) / (2.0 * (np.sqrt(1.5) + np.sqrt(0.5)))


def _fresh_philox_key(seed, index):
    return np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(2, np.uint64)


# the words SeedSequence splits seeds and indices into end at 2**32 and 2**64
EDGE_INDICES = [0, 2**32 - 1, 2**32, 2**64 - 1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**160 - 1), index=st.integers(0, 2**64 - 1))
@example(seed=0, index=0)
@example(seed=2**32 - 1, index=2**32 - 1)
@example(seed=2**32, index=2**32)
@example(seed=2**128 + 5, index=2**64 - 1)
def test_stream_keys_match_seed_sequence(seed, index):
    # 1-word, 4-word and 5-or-more-word seeds; 1- and 2-word indices
    assert _stream_keys(seed, [index]).tobytes() == _fresh_philox_key(seed, index).tobytes()


def test_stream_keys_of_many_indices_in_one_pass():
    indices = [*EDGE_INDICES, 1, 7, 2**31, 2**40 + 7]
    for seed in (0, 7, 2**40 + 3, 2**130 + 5):
        keys = _stream_keys(seed, indices)
        assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
        assert keys.tobytes() == np.array(
            [_fresh_philox_key(seed, i) for i in indices]).tobytes()


def _same_state(a, b):
    return a.keys() == b.keys() and all(
        _same_state(a[k], b[k]) if isinstance(a[k], dict) else np.array_equal(a[k], b[k])
        for k in a)


def test_keyed_generators_reset_a_used_philox():
    # each key is set on a Philox left mid-buffer by the previous stream,
    # with a uint32 half-word pending, so every field of the state is reset
    seed, indices = 11, [3, 2**32 + 1, 0]
    generators = _keyed_generators(_stream_keys(seed, indices))
    for index in indices:
        rng = next(generators)
        fresh = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,)))
        assert _same_state(rng.bit_generator.state, fresh.state)
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        rng.standard_normal(5)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4


DRAW_MODELS = {
    "gaussian": gaussian_model([1.0, -2.0], SHAPE),
    "student_t_4": student_t_model(4.0, [0.5, 0.0], SHAPE),
    "student_t_1.5": student_t_model(1.5, [0.0, 0.0], SHAPE),
    "singularity": singularity_model(0.05, 3),
}


@pytest.mark.parametrize("name", sorted(DRAW_MODELS))
@pytest.mark.parametrize("B", [1, 3, 64])
@pytest.mark.parametrize("n", [1, 5, 200])
def test_block_draw_matches_sample(name, B, n):
    model, seed = DRAW_MODELS[name], 2**33 + 9
    indices = range(2**32 - 2, 2**32 - 2 + B)  # 1- and 2-word indices
    block = _draw(model, n, B, _keyed_generators(_stream_keys(seed, indices)))
    one_by_one = np.stack([sample(model, n, SeededStream(seed, i)) for i in indices])
    assert block.shape == (B, n, model.p) and block.tobytes() == one_by_one.tobytes()


def test_streams_are_reproducible_and_distinct():
    model = gaussian_model([0.0, 0.0], SHAPE)
    a = sample(model, 50, SeededStream(123, 4))
    b = sample(model, 50, SeededStream(123, 4))
    c = sample(model, 50, SeededStream(123, 5))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_sample_mean():
    n = 100_000
    model = gaussian_model([1.0, 1.0], np.eye(2))
    X = sample(model, n, SeededStream(1, 0))
    err = np.abs(X.mean(axis=0) - 1.0)
    assert np.all(err <= 3.0 / np.sqrt(n))


def test_gaussian_sample_covariance():
    n = 100_000
    model = gaussian_model([0.0, 0.0], SHAPE)
    X = sample(model, n, SeededStream(2, 0))
    C = X.T @ X / n
    # SE of a covariance entry ~ sqrt((V_ii V_jj + V_ij^2) / n)
    for i in range(2):
        for j in range(2):
            se = np.sqrt((SHAPE[i, i] * SHAPE[j, j] + SHAPE[i, j] ** 2) / n)
            assert abs(C[i, j] - SHAPE[i, j]) <= 5.0 * se


def test_student_t_radial_distribution():
    # |X|^2 / p follows an F(p, nu) law for the elliptical t with V = I
    n = 100_000
    model = student_t_model(2.0, [0.0, 0.0], np.eye(2))
    X = sample(model, n, SeededStream(3, 0))
    frac = np.mean((X**2).sum(axis=1) <= 2.0)
    target = stats.f.cdf(1.0, 2, 2)
    assert target == pytest.approx(0.5, abs=1e-12)
    se = np.sqrt(target * (1.0 - target) / n)
    assert abs(frac - target) <= 3.0 * se


@pytest.mark.parametrize("gamma", [0.05, 0.25, 0.45])
def test_singularity_radius_inverse_cdf(gamma):
    # |X| has CDF z^(2 gamma) on [0, 1]; the 99% one-sample KS bound is
    # 1.63 / sqrt(n)
    n = 10_000
    X = sample(singularity_model(gamma, 2), n, SeededStream(4, int(gamma * 100)))
    r = np.sort(row_norms(X))
    cdf = r ** (2.0 * gamma)
    ks = max(
        np.max(np.arange(1, n + 1) / n - cdf),
        np.max(cdf - np.arange(0, n) / n),
    )
    assert ks <= 1.63 / np.sqrt(n)


def test_closed_p2_printed_value():
    S = population_sscm_closed_p2(SHAPE)
    assert S.matrix[0, 1] == pytest.approx(SHAPE_OFFDIAG, abs=1e-14)
    assert abs(S.matrix[0, 1] - 0.13397) <= 5e-6
    np.testing.assert_allclose(np.diag(S.matrix), [0.5, 0.5], atol=1e-14)


def test_closed_p2_identity():
    np.testing.assert_allclose(
        population_sscm_closed_p2(np.eye(2)).matrix, np.eye(2) / 2.0, atol=1e-14
    )


def test_closed_p2_diagonal_shape():
    S = population_sscm_closed_p2(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(S.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-14)
    # MC confirmation
    model = gaussian_model([0.0, 0.0], np.diag([4.0, 1.0]))
    mc, se = population_sscm_mc(model, 400_000, SeededStream(5, 0))
    assert np.all(np.abs(mc.matrix - S.matrix) <= 3.0 * se + 1e-12)


def test_closed_p2_equivariance_and_scale():
    rng = np.random.default_rng(6)
    V = SHAPE
    Q = random_orthogonal(rng, 2)
    S = population_sscm_closed_p2(V).matrix
    S_rot = population_sscm_closed_p2(Q @ V @ Q.T).matrix
    np.testing.assert_allclose(S_rot, Q @ S @ Q.T, atol=1e-12)
    S_scaled = population_sscm_closed_p2(7.25 * V).matrix
    np.testing.assert_allclose(S_scaled, S, atol=1e-12)
    assert np.trace(S) == pytest.approx(1.0, abs=1e-13)


def test_closed_p2_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        population_sscm_closed_p2(np.eye(3))
    with pytest.raises(InvalidInputError):
        population_sscm_closed_p2(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD


def test_population_mc_spherical_any_generator():
    model = student_t_model(3.0, [0.0, 0.0, 0.0], np.eye(3))
    S, se = population_sscm_mc(model, 500_000, SeededStream(7, 0))
    assert np.all(np.abs(S.matrix - np.eye(3) / 3.0) <= 3.0 * se + 1e-12)


def test_population_mc_generator_independence():
    g, se_g = population_sscm_mc(
        gaussian_model([0.0, 0.0], SHAPE), 400_000, SeededStream(8, 0)
    )
    t, se_t = population_sscm_mc(
        student_t_model(2.0, [0.0, 0.0], SHAPE), 400_000, SeededStream(8, 1)
    )
    joint = np.sqrt(se_g**2 + se_t**2)
    assert np.all(np.abs(g.matrix - t.matrix) <= 3.0 * joint + 1e-12)
    assert abs(g.matrix[0, 1] - 0.13397) <= 3.0 * se_g[0, 1] + 5e-6


def test_model_validation():
    with pytest.raises(InvalidInputError):
        EllipticalModel("gaussian", np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        EllipticalModel("student_t", np.zeros(2), np.eye(2))  # missing nu
    with pytest.raises(InvalidInputError):
        EllipticalModel("singularity", np.ones(2), np.eye(2), gamma=0.3)  # mu != 0
    with pytest.raises(InvalidInputError):
        EllipticalModel("singularity", np.zeros(2), 2.0 * np.eye(2), gamma=0.3)
    with pytest.raises(InvalidInputError):
        EllipticalModel("cauchy", np.zeros(2), np.eye(2))
    with pytest.raises(InvalidInputError):
        sample(gaussian_model([0.0, 0.0], np.eye(2)), 0, SeededStream(0, 0))


def test_model_json_round_trip():
    model = student_t_model(2.0, [0.5, -1.0], SHAPE)
    text = json.dumps(model.to_json_dict())
    back = EllipticalModel.from_json(text)
    assert back.generator == "student_t"
    assert back.nu == 2.0
    assert np.array_equal(back.mu, model.mu)
    assert np.array_equal(back.V, model.V)

    with pytest.raises(InvalidInputError):
        EllipticalModel.from_json("not json")
    with pytest.raises(InvalidInputError):
        EllipticalModel.from_json('{"generator": "gaussian"}')


@pytest.mark.parametrize("model", [
    gaussian_model([0.5, -1.0], SHAPE),
    student_t_model(2.0, [0.5, -1.0], SHAPE),
    singularity_model(0.3, 3),
], ids=lambda m: m.generator)
def test_model_json_round_trip_every_generator(model):
    back = EllipticalModel.from_json(json.dumps(model.to_json_dict()))
    assert back == model
    assert back.to_json_dict() == model.to_json_dict()


STUDENT_T = {"generator": "student_t", "mu": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]],
             "nu": 3.0}


@pytest.mark.parametrize("body,match", [
    ({**STUDENT_T, "shape": [[4.0, 0.0], [0.0, 1.0]]}, "'shape'"),
    ({**STUDENT_T, "gamma": 0.2}, "gamma does not apply to student_t"),
    ({**STUDENT_T, "generator": "gaussian"}, "nu does not apply to gaussian"),
    ({**STUDENT_T, "generator": "singularity", "gamma": 0.2},
     "nu does not apply to singularity"),
])
def test_model_json_rejects_keys_it_does_not_read(body, match):
    with pytest.raises(InvalidInputError, match=match):
        EllipticalModel.from_json(json.dumps(body))


@pytest.mark.parametrize("key,value", [
    ("mu", ["0", "0"]), ("mu", [0.0, True]), ("V", [["1", "0"], ["0", "1"]]),
    ("V", [[1.0, False], [0.0, 1.0]]), ("nu", True), ("nu", "3"),
])
def test_model_json_takes_only_numbers_where_numbers_are_meant(key, value):
    # JSON's "0" and true are no number; numpy values from Python still read
    with pytest.raises(InvalidInputError, match=f"^model JSON key '{key}' takes numbers"):
        EllipticalModel.from_json(json.dumps({**STUDENT_T, key: value}))
    body = {**STUDENT_T, "mu": np.zeros(2), "V": np.eye(2), "nu": np.float64(3.0)}
    assert EllipticalModel.from_json_dict(body) == student_t_model(3.0, [0.0, 0.0], np.eye(2))


def test_singularity_model_json_rejects_a_boolean_gamma():
    body = {"generator": "singularity", "mu": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]}
    assert EllipticalModel.from_json_dict({**body, "gamma": 1}).gamma == 1
    with pytest.raises(InvalidInputError, match="^model JSON key 'gamma' takes numbers"):
        EllipticalModel.from_json_dict({**body, "gamma": True})


# --------------------------------------------------------------------------
# exact sign moments
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 3, 10])
def test_sign_moments_spherical_closed_forms(p):
    m = sign_moments(2.5 * np.eye(p))
    assert np.abs(m.second - 1.0 / p).max() <= 1e-15
    # E[w_a^2 w_b^2] = 1/(p(p+2)) for a != b and E[w_a^4] = 3/(p(p+2))
    expected = np.full((p, p), 1.0 / (p * (p + 2)))
    assert np.abs(m.fourth - expected).max() <= 1e-15
    assert np.abs(m.population().matrix - np.eye(p) / p).max() <= 1e-15
    if p > 1:
        assert abs(m.element_variance(0, p - 1) - 1.0 / (p * (p + 2))) <= 1e-15
    assert abs(m.element_variance(0, 0) - (3.0 / (p * (p + 2)) - 1.0 / p**2)) <= 1e-15


@pytest.mark.parametrize("eigenvalues,tol", [((0.5, 1.5), 1e-15), ((0.2, 3.0), 1e-15),
                                             ((1.0, 1e8), 1e-13)])
def test_sign_moments_bivariate_closed_forms(eigenvalues, tol):
    # with a, b = sqrt(lambda): w_1 = a cos / sqrt(a^2 cos^2 + b^2 sin^2) for a
    # uniform angle, and tan-substitution gives E[w_1^4] = a (2a + b) / (2 (a + b)^2)
    # and E[w_1^2 w_2^2] = a b / (2 (a + b)^2)
    m = sign_moments(np.diag(eigenvalues))
    a, b = np.sqrt(eigenvalues)
    assert np.abs(m.second - [a / (a + b), b / (a + b)]).max() <= tol
    assert abs(3.0 * m.fourth[0, 0] - a * (2 * a + b) / (2 * (a + b) ** 2)) <= tol
    assert abs(3.0 * m.fourth[1, 1] - b * (2 * b + a) / (2 * (a + b) ** 2)) <= tol
    assert abs(m.fourth[0, 1] - a * b / (2 * (a + b) ** 2)) <= tol
    R = random_orthogonal(np.random.default_rng(5), 2)
    V = R @ np.diag(eigenvalues) @ R.T
    V = (V + V.T) / 2.0
    S = sign_moments(V).population().matrix
    assert np.abs(S - population_sscm_closed_p2(V).matrix).max() <= tol


def test_sign_moments_acceptance_shape_variance():
    m = sign_moments(SHAPE)
    assert m.population().matrix[0, 1] == pytest.approx(SHAPE_OFFDIAG, abs=1e-15)
    assert abs(m.element_variance(0, 1) - (math.sqrt(3.0) / 2.0 - 0.75)) <= 1e-15


@pytest.mark.parametrize("p", [3, 5])
def test_sign_moments_match_monte_carlo(p):
    rng = np.random.default_rng(40 + p)
    A = rng.standard_normal((p, p))
    V = A @ A.T + 0.5 * np.eye(p)
    model = student_t_model(3.0, rng.standard_normal(p), (V + V.T) / 2.0)
    m = sign_moments(model.V)
    S = m.population().matrix
    S_mc, se = population_sscm_mc(model, 200_000, SeededStream(p, 0))
    assert np.all(np.abs(S - S_mc.matrix) <= 4.0 * se)

    X = sample(model, 200_000, SeededStream(p, 1))
    W = fixed_location_cov(X, model.mu)
    U = X - model.mu
    U /= np.linalg.norm(U, axis=1)[:, None]
    for i, j in [(0, 1), (1, 1), (0, p - 1)]:
        z = U[:, i] * U[:, j]
        dev2 = (z - z.mean()) ** 2
        mc_se = dev2.std() / math.sqrt(z.size)
        assert abs(m.element_variance(i, j) - element_variance(W, i, j)) <= 4.0 * mc_se


def _shape_with_condition(p, cond, seed):
    lam = np.geomspace(1.0, cond, p)
    R = random_orthogonal(np.random.default_rng(seed), p)
    V = (R * lam) @ R.T
    return (V + V.T) / 2.0


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e8])
@pytest.mark.parametrize("p", [1, 2, 3, 5, 10, 12])
def test_sign_moments_match_gauss_kronrod(p, cond):
    # the same s-integrals by scipy's adaptive Gauss-Kronrod quad_vec; errors
    # are relative to the largest entry, the scale of the quadrature tolerance
    V = _shape_with_condition(p, cond, 90 + p)
    m = sign_moments(V)
    lam = np.linalg.eigh(V)[0]
    lam = lam / lam.max()

    def integrand(s):
        d = lam + (1.0 - lam) * (s * s)
        k = lam / d
        w = s ** (p - 1) * math.exp(-0.5 * np.log(d).sum())
        return np.concatenate([w * k, 0.5 * (1.0 - s * s) * w * np.outer(k, k).ravel()])

    values, _ = integrate.quad_vec(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
    second, fourth = values[:p], values[p:].reshape(p, p)
    assert np.abs(m.second - second).max() <= 1e-13 * np.abs(second).max()
    assert np.abs(m.fourth - fourth).max() <= 1e-13 * np.abs(fourth).max()


def test_sign_moments_memory_grows_with_panels_not_nodes():
    # a (15, p, p) outer-product block per panel alone would take 10.8 MB at p = 300
    V = _shape_with_condition(300, 1e8, 91)
    sign_moments(V[:3, :3])  # warm imports and caches
    tracemalloc.start()
    try:
        sign_moments(V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24_000_000


def test_sign_moments_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        sign_moments(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        sign_moments(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD
    with pytest.raises(InvalidInputError):
        sign_moments(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def _qq_config(p, **kw):
    return ExperimentConfig(
        statistic="qq", model=gaussian_model(np.zeros(p), np.eye(p)),
        n_grid=(6, 9), replications=5, master_seed=17, **kw,
    )


def test_qq_reference_exact_and_seed_free():
    extras, (sigma2, _) = harness._qq_reference(_qq_config(10))
    assert extras["population_element"] == 0.0
    assert extras["population_source"] == "quadrature"
    assert extras["sigma2_source"] == "quadrature"
    assert abs(sigma2 - 1.0 / 120.0) <= 1e-16
    other_seed = dataclasses.replace(_qq_config(10), master_seed=18)
    assert harness._qq_reference(other_seed)[0] == extras
    shaped = ExperimentConfig(statistic="qq", model=gaussian_model([0.0, 0.0], SHAPE),
                              n_grid=(6,), replications=5, master_seed=17)
    extras = harness._qq_reference(shaped)[0]
    assert extras["population_source"] == "closed_p2"
    assert extras["population_element"] == population_sscm_closed_p2(SHAPE).matrix[0, 1]


def test_qq_run_draws_only_replication_streams(monkeypatch):
    keyed = []

    def recording_keys(master_seed, indices):
        keyed.extend(indices)
        return _stream_keys(master_seed, indices)

    monkeypatch.setattr(harness, "_stream_keys", recording_keys)
    run_experiment(_qq_config(3), workers=1)
    assert sorted(keyed) == list(range(2 * 5))  # cell_index * R + rep


def test_qq_reference_memory_small():
    config = _qq_config(10)
    harness._qq_reference(config)  # warm imports and caches
    tracemalloc.start()
    try:
        harness._qq_reference(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_public_api_lists_the_imported_names_only():
    import types

    import signcov

    assert {"EllipticalModel", "SignMoments", "run_experiment", "sign_moments",
            "spatial_median"} <= set(signcov.__all__)
    assert not any(isinstance(getattr(signcov, name), types.ModuleType)
                   for name in signcov.__all__)
