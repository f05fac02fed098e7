import numpy as np
import pytest

from signcov import (
    InvalidInputError,
    MedianOptions,
    l1_objective,
    locate,
    sample_mean,
    spatial_median,
    spatial_signs,
    sscm_plugin,
)
from _oracles import brute_force_spatial_median, random_orthogonal

RIGHT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
RIGHT_TRIANGLE_MEDIAN = (3.0 - np.sqrt(3.0)) / 6.0  # stationarity on the symmetry axis


def test_sample_mean_examples():
    res = sample_mean(np.array([[0.0, 0.0], [2.0, 2.0]]))
    assert np.array_equal(res.estimate, [1.0, 1.0])
    assert res.converged and res.iterations == 0

    single = sample_mean(np.array([[3.5, -1.0]]))
    assert np.array_equal(single.estimate, [3.5, -1.0])


def test_sample_mean_shift_equivariance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((25, 3))
    b = rng.standard_normal(3)
    np.testing.assert_allclose(
        sample_mean(X + b).estimate, sample_mean(X).estimate + b, atol=1e-12
    )


def test_sample_mean_empty_errors():
    with pytest.raises(InvalidInputError):
        sample_mean(np.empty((0, 2)))


# (sample, fixed location): anchored and free estimates for every method
LOCATE_CASES = {
    "heavy_point": (np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]]), np.array([5.0, 5.0])),
    "right_triangle": (RIGHT_TRIANGLE, np.array([0.5, 0.5])),
    "mean_on_point": (np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]]), np.zeros(2)),
    "gaussian": (np.random.default_rng(11).standard_normal((30, 4)), np.ones(4)),
}


@pytest.mark.parametrize("method", ["mean", "median", "fixed"])
@pytest.mark.parametrize("case", sorted(LOCATE_CASES))
def test_locate_matches_each_estimator_bit_for_bit(case, method):
    X, t = LOCATE_CASES[case]
    opts = MedianOptions(tolerance=1e-12)
    res = locate(X, method, opts, t)
    if method == "fixed":
        assert res.estimate.tobytes() == t.tobytes()
        assert (res.method, res.iterations, res.converged) == ("fixed", 0, True)
        assert res.anchored == bool(np.any(np.all(X == t, axis=1)))
    else:
        ref = sample_mean(X) if method == "mean" else spatial_median(X, opts)
        assert res.estimate.tobytes() == ref.estimate.tobytes()
        assert (res.method, res.iterations, res.converged, res.anchored) == (
            ref.method, ref.iterations, ref.converged, ref.anchored
        )
    assert res.objective == l1_objective(X, t if method == "fixed" else res.estimate)
    if X.shape[0] > 1:  # the plug-in SSCM takes its location from locate
        _, loc, _ = sscm_plugin(X, method, opts, t)
        assert loc.estimate.tobytes() == res.estimate.tobytes()
        assert loc.anchored == res.anchored


def test_locate_anchored_flags():
    X, _ = LOCATE_CASES["heavy_point"]
    assert locate(X, "median").anchored and not locate(X, "mean").anchored
    assert locate(LOCATE_CASES["mean_on_point"][0], "mean").anchored
    assert not locate(RIGHT_TRIANGLE, "fixed", t=[0.5, 0.5]).anchored


def test_locate_rejects_bad_requests():
    with pytest.raises(InvalidInputError, match="unknown location method"):
        locate(RIGHT_TRIANGLE, "known")
    with pytest.raises(InvalidInputError, match="requires a location"):
        locate(RIGHT_TRIANGLE, "fixed")
    with pytest.raises(InvalidInputError, match="location has length"):
        locate(RIGHT_TRIANGLE, "fixed", t=[0.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError, match="finite"):
        locate(RIGHT_TRIANGLE, "fixed", t=[0.0, np.inf])


def test_median_equilateral_triangle_is_centroid():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    res = spatial_median(X)
    np.testing.assert_allclose(res.estimate, X.mean(axis=0), atol=1e-8)
    assert res.converged


def test_median_right_triangle_closed_form():
    res = spatial_median(RIGHT_TRIANGLE)
    np.testing.assert_allclose(
        res.estimate, [RIGHT_TRIANGLE_MEDIAN, RIGHT_TRIANGLE_MEDIAN], atol=1e-6
    )
    # independent confirmation by grid + simplex refinement of the objective
    oracle = brute_force_spatial_median(RIGHT_TRIANGLE)
    np.testing.assert_allclose(res.estimate, oracle, atol=1e-6)


def test_median_anchors_on_multiple_point():
    X = np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]])
    res = spatial_median(X)
    assert np.array_equal(res.estimate, [0.0, 0.0])
    assert res.anchored and res.converged
    # eta = 3 dominates the single unit pull from (5, 5)


def test_median_anchored_optimal_at_data_point():
    # componentwise-median init lands on (10, 0); pulls are (-1, 0) from the
    # left point and (0, +-1) from the vertical pair, so the resultant norm
    # equals eta = 1 and the point is optimal
    X = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0], [10.0, -1.0]])
    res = spatial_median(X)
    assert res.converged and res.anchored
    assert np.array_equal(res.estimate, [10.0, 0.0])


def test_median_steps_off_non_optimal_data_point():
    # init lands on the data point (10, 0) but two far points pull left with
    # resultant norm ~2 > eta = 1, so the iteration must leave it
    X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0], [10.0, -1.0]])
    init = np.array([10.0, 0.0])
    assert np.array_equal(np.median(X, axis=0), init)
    res = spatial_median(X)
    assert res.converged
    assert not np.array_equal(res.estimate, init)
    assert l1_objective(X, res.estimate) < l1_objective(X, init)
    oracle = brute_force_spatial_median(X)
    assert l1_objective(X, res.estimate) <= l1_objective(X, oracle) + 1e-6


def test_l1_objective_examples():
    assert l1_objective(np.array([[0.0, 0.0], [2.0, 0.0]]), [1.0, 0.0]) == 2.0
    assert l1_objective(np.array([[1.25, -3.0]]), [1.25, -3.0]) == 0.0


def test_median_local_minimality_probe():
    res = spatial_median(RIGHT_TRIANGLE)
    base = l1_objective(RIGHT_TRIANGLE, res.estimate)
    for k in range(2):
        for sign in (+1.0, -1.0):
            probe = res.estimate.copy()
            probe[k] += sign * 1e-3
            assert base <= l1_objective(RIGHT_TRIANGLE, probe) + 1e-12


def test_optimality_certificate_random_samples():
    # converged is a certificate: whenever it is set, the sign resultant at
    # the returned point obeys the stated bound (ill-conditioned geometries
    # may exhaust max_iterations and report converged=False instead)
    rng = np.random.default_rng(31)
    opts = MedianOptions()
    converged_count = 0
    for _ in range(30):
        n = int(rng.integers(3, 60))
        p = int(rng.integers(2, 5))
        X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0)
        if rng.uniform() < 0.3:
            X[rng.integers(0, n)] = X[0]  # duplicated point
        res = spatial_median(X, opts)
        if not res.converged:
            continue
        converged_count += 1
        d = X - res.estimate
        coincident = np.all(X == res.estimate, axis=1)
        r = np.sqrt((d[~coincident] ** 2).sum(axis=1))
        resultant = np.linalg.norm((d[~coincident] / r[:, None]).sum(axis=0))
        eta = int(coincident.sum())
        if res.anchored:
            assert resultant <= eta + 10 * opts.tolerance * n
        else:
            assert resultant <= 10 * opts.tolerance * n
    assert converged_count >= 27


def test_median_orthogonal_shift_equivariance():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    Q = random_orthogonal(rng, 3)
    b = rng.standard_normal(3)
    base = spatial_median(X).estimate
    moved = spatial_median(X @ Q.T + b).estimate
    np.testing.assert_allclose(moved, Q @ base + b, atol=1e-6)


def test_monotone_descent():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((50, 2))
    res = spatial_median(X, MedianOptions(track_objective=True))
    h = res.objective_history
    assert h is not None and len(h) == res.iterations + 1
    assert np.all(np.diff(h) <= 1e-12 * h[0])


def test_oracle_equivalence_small_samples():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        X = rng.uniform(-2.0, 2.0, size=(n, 2))
        got = spatial_median(X).estimate
        want = brute_force_spatial_median(X)
        # compare through the objective: distinct near-minimizers are fine
        # as long as ours is no worse than the oracle's to 1e-5
        assert l1_objective(X, got) <= l1_objective(X, want) + 1e-5
        if not np.allclose(got, want, atol=1e-5):
            # flat objective valley: require objective agreement instead
            assert abs(l1_objective(X, got) - l1_objective(X, want)) <= 1e-6


def test_collinear_data_sets_degenerate_flag():
    X = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])
    res = spatial_median(X)
    assert res.degenerate_geometry
    assert np.all(np.isfinite(res.estimate))
    again = spatial_median(X)
    assert np.array_equal(res.estimate, again.estimate)  # deterministic

    spread = np.random.default_rng(3).standard_normal((20, 2))
    assert not spatial_median(spread).degenerate_geometry


def test_max_iterations_reports_not_converged():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((100, 2))
    res = spatial_median(X, MedianOptions(tolerance=1e-14, max_iterations=2))
    assert not res.converged
    assert res.iterations == 2


def test_median_sign_centering():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((101, 2))
    res = spatial_median(X)
    if not res.anchored:
        total = spatial_signs(X - res.estimate).sum(axis=0)
        assert np.linalg.norm(total) <= 1e-5


def test_options_validation():
    with pytest.raises(InvalidInputError):
        MedianOptions(tolerance=0.0)
    with pytest.raises(InvalidInputError):
        MedianOptions(max_iterations=0)
    with pytest.raises(InvalidInputError):
        MedianOptions(initialization="nope")


def test_median_empty_errors():
    with pytest.raises(InvalidInputError):
        spatial_median(np.empty((0, 2)))
