import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signcov import (
    DegenerateSampleError,
    InvalidInputError,
    MedianOptions,
    coincidence_report,
    frobenius_error_gram,
    gaussian_model,
    sample,
    SeededStream,
    spatial_median,
    spatial_signs,
    sscm_fixed,
    sscm_plugin,
    sscm_star,
    ssscm,
)
from signcov import scatter
from _oracles import random_orthogonal, ssscm_direct


def test_sscm_fixed_single_observation():
    S = sscm_fixed(np.array([[3.0, 4.0]]), [0.0, 0.0])
    np.testing.assert_allclose(S.matrix, [[0.36, 0.48], [0.48, 0.64]], atol=1e-15)
    assert S.variant == "fixed_location"
    assert S.n_effective == 1


def test_sscm_fixed_unit_vectors():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    S = sscm_fixed(X, [0.0, 0.0])
    np.testing.assert_allclose(S.matrix, np.eye(2) / 2.0, atol=1e-15)


def test_sscm_fixed_coincident_point_contributes_zero():
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    S = sscm_fixed(X, [0.0, 0.0])
    np.testing.assert_allclose(S.matrix, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)


def test_sscm_star_rescales_by_n_star():
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    S = sscm_star(X, [0.0, 0.0])
    np.testing.assert_allclose(S.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    assert S.n_effective == 1


def test_sscm_star_equals_fixed_without_coincidences():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 3))
    t = rng.standard_normal(3)
    np.testing.assert_array_equal(sscm_star(X, t).matrix, sscm_fixed(X, t).matrix)


def test_sscm_star_degenerate():
    X = np.zeros((2, 2))
    with pytest.raises(DegenerateSampleError):
        sscm_star(X, [0.0, 0.0])


def test_plugin_fixed_matches_sscm_fixed():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((15, 2))
    t = np.array([0.3, -0.2])
    S, loc, report = sscm_plugin(X, method="fixed", t=t)
    np.testing.assert_array_equal(S.matrix, sscm_fixed(X, t).matrix)
    assert S.variant == "plugin"
    assert loc.method == "fixed"
    assert report.n_star == 15


def test_plugin_median_centers_signs():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    S, loc, report = sscm_plugin(X, method="median")
    assert not loc.anchored
    total = spatial_signs(X - loc.estimate).sum(axis=0)
    assert np.linalg.norm(total) <= 1e-6
    assert report.n_star == 3


def test_plugin_mean_triangle_hand_computed():
    # mean is (2/3, 2/3); the three sign outer products average to
    # [[0.5, -0.1], [-0.1, 0.5]]
    X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    S, loc, _ = sscm_plugin(X, method="mean")
    np.testing.assert_allclose(loc.estimate, [2.0 / 3.0, 2.0 / 3.0], atol=1e-15)
    np.testing.assert_allclose(S.matrix, [[0.5, -0.1], [-0.1, 0.5]], atol=1e-12)


def test_ssscm_two_points():
    X = np.array([[1.0, 1.0], [4.0, 5.0]])
    d = X[0] - X[1]
    u = d / np.linalg.norm(d)
    S = ssscm(X)
    np.testing.assert_allclose(S.matrix, np.outer(u, u), atol=1e-15)
    assert S.n_effective == 1


def test_ssscm_shift_invariance_exact():
    # dyadic data and shift keep every subtraction exact, so the matrices
    # agree bitwise
    rng = np.random.default_rng(5)
    X = rng.integers(-8, 8, size=(12, 2)) * 0.125
    b = rng.integers(-4, 4, size=2) * 0.25
    np.testing.assert_array_equal(ssscm(X + b).matrix, ssscm(X).matrix)


def test_ssscm_spherical_gaussian_limit():
    # population value is I/2 by symmetry; 3 SE band from the sampling sd
    # of the entries at n=2000 (~5.8e-3, measured over 300 replications)
    X = sample(gaussian_model([0.0, 0.0], np.eye(2)), 2000, SeededStream(21, 0))
    S = ssscm(X).matrix
    assert abs(S[0, 1]) <= 0.0175
    assert abs(S[0, 0] - 0.5) <= 0.017


@contextlib.contextmanager
def _pair_buffer_limit(limit):
    """Run the body with the symmetrized SSCM's tiles sized by limit."""
    old = scatter._PAIR_BUFFER_LIMIT
    scatter._PAIR_BUFFER_LIMIT = limit
    try:
        yield
    finally:
        scatter._PAIR_BUFFER_LIMIT = old


def test_ssscm_blocked_path_matches_buffered():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((60, 4))
    full = ssscm(X).matrix  # one tile of all 1770 pairs
    with _pair_buffer_limit(1):  # one pair per tile
        blocked = ssscm(X).matrix
    np.testing.assert_allclose(blocked, full, atol=1e-14)


@given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 10_000),
       st.sampled_from([0, 1, 3, None]))
@settings(max_examples=80, deadline=None)
def test_ssscm_matches_pair_loop_oracle(n, p, seed, rows):
    # tiles of one pair (rows 0), one row, three rows, or the default (one
    # tile at these sizes); integer rows repeat, so coincident pairs occur
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, size=(n, p)) * 0.5
    X[rng.random(n) < 0.5] = rng.standard_normal(p)
    assume(not np.all(X == X[0]))
    expected, pairs = ssscm_direct(X)
    limit = scatter._PAIR_BUFFER_LIMIT if rows is None else max(1, rows * p * (n - 1))
    with _pair_buffer_limit(limit):
        S = ssscm(X)
    assert S.n_effective == pairs
    np.testing.assert_allclose(S.matrix, expected, rtol=1e-13, atol=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**-1000, 5e-324])
def test_ssscm_at_extreme_magnitudes(scale):
    # squared distances over- or underflow at every scale here (at 5e-324
    # the rows are integer multiples of the smallest subnormal, exact), yet
    # each distinct pair still gives a unit sign and coincident rows none
    rng = np.random.default_rng(12)
    X = rng.integers(-3, 4, size=(15, 3)).astype(float)
    if scale != 5e-324:
        X += rng.standard_normal(X.shape)
    X[4] = X[9]
    base = ssscm(X)
    S = ssscm(X * scale)
    assert S.n_effective == base.n_effective == 15 * 14 // 2 - 1
    assert np.trace(S.matrix) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(S.matrix, base.matrix, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_ssscm_difference_overflow():
    # X_0 - X_1 overflows to inf; the pair is distinct, so it still counts
    # and gives the unit sign (1, 0), as do the two pairs with (0, 1)
    S = ssscm(np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]]))
    assert S.n_effective == 3
    assert np.all(np.isfinite(S.matrix))
    assert np.trace(S.matrix) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(S.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_ssscm_memory_bounded_by_its_tiles():
    X = np.random.default_rng(13).standard_normal((890, 5))
    ssscm(X[:10])  # warm imports and caches
    tracemalloc.start()
    try:
        ssscm(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_ssscm_bits_independent_of_blas_threads():
    # at p = 40 a tile of 2**15 entries would cross OpenBLAS's threading cut
    from signcov.simharness import _one_blas_thread

    X = np.random.default_rng(14).standard_normal((300, 40))
    default = ssscm(X).matrix
    with _one_blas_thread():
        single = ssscm(X).matrix
    np.testing.assert_array_equal(single, default)


def test_ssscm_all_identical_degenerate():
    with pytest.raises(DegenerateSampleError):
        ssscm(np.ones((4, 2)))


def test_frobenius_error_gram_single_unit_observation():
    for p in (2, 5):
        x = np.zeros((1, p))
        x[0, 0] = 1.0
        assert frobenius_error_gram(x, np.zeros(p)) == pytest.approx(
            1.0 - 1.0 / p, abs=1e-14
        )


def test_frobenius_error_gram_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(10):
        X = rng.standard_normal((20, 5))
        t = rng.standard_normal(5)
        S = sscm_fixed(X, t).matrix
        dense = np.sum((S - np.eye(5) / 5.0) ** 2)
        assert frobenius_error_gram(X, t) == pytest.approx(dense, abs=1e-10)


def test_frobenius_error_gram_all_coincident():
    X = np.tile([1.0, 2.0, 3.0], (4, 1))
    assert frobenius_error_gram(X, [1.0, 2.0, 3.0]) == pytest.approx(
        1.0 / 3.0, abs=1e-14
    )


@pytest.mark.parametrize("estimator", ["fixed", "star", "ssscm"])
def test_orthogonal_equivariance(estimator):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 3))
    t = rng.standard_normal(3)
    Q = random_orthogonal(rng, 3)
    if estimator == "fixed":
        base, moved = sscm_fixed(X, t).matrix, sscm_fixed(X @ Q.T, Q @ t).matrix
    elif estimator == "star":
        base, moved = sscm_star(X, t).matrix, sscm_star(X @ Q.T, Q @ t).matrix
    else:
        base, moved = ssscm(X).matrix, ssscm(X @ Q.T).matrix
    np.testing.assert_allclose(moved, Q @ base @ Q.T, atol=1e-10)


def test_scale_invariance():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((25, 2))
    t = rng.standard_normal(2)
    base = sscm_fixed(X, t).matrix
    # powers of two scale every coordinate exactly
    np.testing.assert_array_equal(sscm_fixed(4.0 * X, 4.0 * t).matrix, base)
    np.testing.assert_allclose(sscm_fixed(3.0 * X, 3.0 * t).matrix, base, atol=1e-12)


def test_trace_identities():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((40, 3))
    X[5] = 0.0  # coincides with t below
    t = np.zeros(3)
    report = coincidence_report(X, t)
    assert report.n_star == 39
    assert report.indices_coincident == [5]
    assert np.trace(sscm_star(X, t).matrix) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(sscm_fixed(X, t).matrix) == pytest.approx(39.0 / 40.0, abs=1e-12)


def test_psd_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        X = rng.standard_normal((12, 4))
        t = rng.standard_normal(4)
        for M in (sscm_fixed(X, t).matrix, sscm_star(X, t).matrix, ssscm(X).matrix):
            assert np.linalg.eigvalsh(M).min() >= -1e-10


def test_plugin_error_shrinks_with_sample_size():
    # median plug-in approaches the known-location estimate: the median
    # over 200 replications of ||S(median) - S(0)|| at n=4000 is less than
    # half its value at n=250
    model = gaussian_model([0.0, 0.0], np.array([[1.0, 0.5], [0.5, 1.0]]))
    opts = MedianOptions()

    def gaps(n, base_stream):
        out = np.empty(200)
        for rep in range(200):
            X = sample(model, n, SeededStream(base_stream, rep))
            med = spatial_median(X, opts).estimate
            gap = sscm_fixed(X, med).matrix - sscm_fixed(X, np.zeros(2)).matrix
            out[rep] = np.sqrt(np.sum(gap * gap))
        return np.median(out)

    assert gaps(4000, 77) < 0.5 * gaps(250, 78)


def test_coincidence_count_at_most_one_for_continuous_data():
    model = gaussian_model([0.0, 0.0], np.eye(2))
    for rep in range(50):
        X = sample(model, 100, SeededStream(13, rep))
        _, loc, report = sscm_plugin(X, method="median")
        assert report.n - report.n_star <= 1


def test_plugin_too_small_sample():
    with pytest.raises(InvalidInputError):
        sscm_plugin(np.array([[1.0, 2.0]]), method="mean")


def test_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        sscm_fixed(np.ones((3, 2)), [0.0, 0.0, 0.0])
