import numpy as np
import pytest

from signcov import (
    DegenerateSampleError,
    InvalidInputError,
    SeededStream,
    compute_bundle,
    element_variance,
    fixed_location_cov,
    gaussian_model,
    joint_mean_cov,
    locate,
    location_sensitivity,
    sample,
    sandwich_cov,
    vec_sign_outers,
)

ZERO2 = np.zeros(2)


def circle_sample(n, seed):
    rng = SeededStream(seed, 0).generator()
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def test_fixed_location_cov_circle_uniform():
    # E cos^4 = 3/8 and E cos^2 sin^2 = 1/8, so every diagonal entry of the
    # covariance of vec(s s^T) equals 1/8
    n = 100_000
    X = circle_sample(n, 41)
    W = fixed_location_cov(X, ZERO2)
    Z = vec_sign_outers(X, ZERO2)
    dev = (Z - Z.mean(axis=0)) ** 2
    se = dev.std(axis=0, ddof=1) / np.sqrt(n)  # SE of each variance estimate
    for k in range(4):
        assert abs(W[k, k] - 0.125) <= 3.0 * se[k]


def test_fixed_location_cov_constant_sample_is_zero():
    X = np.tile([2.0, -1.0], (7, 1))
    W = fixed_location_cov(X, ZERO2)
    assert np.abs(W).max() <= 1e-30


def test_fixed_location_cov_scale_invariance():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((50, 2))
    t = rng.standard_normal(2)
    base = fixed_location_cov(X, t)
    np.testing.assert_array_equal(fixed_location_cov(4.0 * X, 4.0 * t), base)
    np.testing.assert_allclose(fixed_location_cov(3.0 * X, 3.0 * t), base, atol=1e-15)


def test_fixed_location_cov_needs_two_points():
    with pytest.raises(InvalidInputError):
        fixed_location_cov(np.ones((1, 2)), ZERO2)


def test_location_sensitivity_single_unit_observation():
    B = location_sensitivity(np.array([[1.0, 0.0]]), ZERO2)
    expected = np.array([[0.0, 0.0], [0.0, -1.0], [0.0, -1.0], [0.0, 0.0]])
    np.testing.assert_allclose(B, expected, atol=1e-15)


def _sensitivity_contribution(x):
    # per-observation integrand of the sensitivity expectation, built with
    # plain np.kron so it is independent of the implementation's layout
    r2 = float(x @ x)
    m = (x / r2).reshape(-1, 1)
    eye = np.eye(x.size)
    return (
        2.0 * np.outer(np.kron(x, x), x) / r2**2
        - np.kron(m, eye)
        - np.kron(eye, m)
    )


def test_location_sensitivity_vanishes_under_symmetry():
    # centered elliptical model in p = 3 (finite inverse second moment);
    # per-entry SEs computed from the per-observation contributions
    n = 100_000
    V = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.5]])
    X = sample(gaussian_model([0.0, 0.0, 0.0], V), n, SeededStream(43, 0))
    B = location_sensitivity(X, np.zeros(3))

    M = np.empty((n, 9, 3))
    for i in range(n):
        M[i] = _sensitivity_contribution(X[i])
    se = M.std(axis=0, ddof=1) / np.sqrt(n)
    np.testing.assert_allclose(M.mean(axis=0), B, atol=1e-10)
    assert np.all(np.abs(B) <= 4.0 * se)


def test_location_sensitivity_shift_cancellation():
    rng = np.random.default_rng(44)
    X = rng.integers(-16, 16, size=(30, 2)) * 0.0625
    t = np.array([0.25, -0.5])
    b = np.array([1.5, 2.0])
    np.testing.assert_array_equal(
        location_sensitivity(X + b, t + b), location_sensitivity(X, t)
    )


def test_location_sensitivity_degenerate():
    with pytest.raises(DegenerateSampleError):
        location_sensitivity(np.zeros((3, 2)), ZERO2)


def test_location_sensitivity_overflow_near_the_location_is_degenerate():
    # the first row lies 3.2e-320 from t: its sign is a unit row, but
    # x/|x|^2 is past the float range, and that is an error, not a warning
    X = np.array([[3e-320, 1e-320], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(DegenerateSampleError, match="sensitivity overflows"):
        location_sensitivity(X, ZERO2)
    assert np.all(np.isfinite(location_sensitivity(X[1:], ZERO2)))
    # each row's x/|x|^2 is finite (about 1e306), but their sum over 500 rows is not
    angles = np.linspace(0.0, 1.0, 500)
    near = 1e-306 * np.column_stack([np.cos(angles), np.sin(angles)])
    with pytest.raises(DegenerateSampleError, match="sensitivity overflows"):
        location_sensitivity(np.vstack([near, X[1:]]), ZERO2)


def test_joint_mean_cov_blocks():
    rng = np.random.default_rng(45)
    X = rng.standard_normal((500, 2)) + [0.3, -0.1]
    t = np.array([0.3, -0.1])
    J = joint_mean_cov(X, t)
    Xc = X - X.mean(axis=0)
    np.testing.assert_allclose(J[:2, :2], Xc.T @ Xc / 500, atol=1e-12)
    np.testing.assert_allclose(J[2:, 2:], fixed_location_cov(X, t), atol=1e-12)


def test_joint_mean_cov_flags_exploding_kurtosis():
    import warnings

    from signcov import student_t_model

    heavy = sample(
        student_t_model(2.0, [0.0, 0.0], np.eye(2)), 50_000, SeededStream(53, 0)
    )
    # the warning points at the caller, through either entry point
    for entry in (joint_mean_cov, compute_bundle):
        with pytest.warns(RuntimeWarning, match="kurtosis") as caught:
            entry(heavy, ZERO2)
        assert [w.filename for w in caught] == [__file__]

    mild = sample(gaussian_model([0.0, 0.0], np.eye(2)), 5_000, SeededStream(53, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        joint_mean_cov(mild, ZERO2)


def test_joint_mean_cov_cross_block_vanishes_for_spherical():
    n = 100_000
    X = sample(gaussian_model([0.0, 0.0], np.eye(2)), n, SeededStream(46, 0))
    J = joint_mean_cov(X, ZERO2)
    Z = vec_sign_outers(X, ZERO2)
    Zc = Z - Z.mean(axis=0)
    cross_se = np.empty((2, 4))
    for a in range(2):
        for b in range(4):
            prod = X[:, a] * Zc[:, b]
            cross_se[a, b] = prod.std(ddof=1) / np.sqrt(n)
    assert np.all(np.abs(J[:2, 2:]) <= 4.0 * cross_se)


def test_sandwich_zero_sensitivity_reduces_to_fixed_block():
    rng = np.random.default_rng(47)
    A = rng.standard_normal((6, 6))
    J = A @ A.T
    out = sandwich_cov(np.zeros((4, 2)), J)
    np.testing.assert_allclose(out, (J[2:, 2:] + J[2:, 2:].T) / 2.0, atol=1e-12)


def test_sandwich_identity_joint_cov():
    rng = np.random.default_rng(48)
    B = rng.standard_normal((4, 2))
    out = sandwich_cov(B, np.eye(6))
    np.testing.assert_allclose(out, B @ B.T + np.eye(4), atol=1e-12)


def test_sandwich_matches_dense_block_multiplication():
    rng = np.random.default_rng(49)
    B = rng.standard_normal((4, 2))
    A = rng.standard_normal((6, 6))
    J = A @ A.T
    out = sandwich_cov(B, J)
    block = np.hstack([B, np.eye(4)])
    np.testing.assert_allclose(out, block @ J @ block.T, atol=1e-10)


def test_sandwich_shape_validation():
    with pytest.raises(InvalidInputError):
        sandwich_cov(np.zeros((4, 2)), np.eye(5))
    with pytest.raises(InvalidInputError):
        sandwich_cov(np.zeros((3, 2)), np.eye(5))


def test_element_variance_circle():
    X = circle_sample(100_000, 50)
    W = fixed_location_cov(X, ZERO2)
    v = element_variance(W, 0, 1)
    assert abs(v - 0.125) <= 0.005
    # the (i, j) and (j, i) vec positions carry identical information
    assert element_variance(W, 0, 1) == element_variance(W, 1, 0)
    assert element_variance(np.zeros((4, 4)), 1, 0) == 0.0
    with pytest.raises(InvalidInputError):
        element_variance(W, 0, 2)
    with pytest.raises(InvalidInputError):
        element_variance(np.zeros((5, 5)), 0, 0)


def test_cov_symmetry_and_psd():
    rng = np.random.default_rng(51)
    X = rng.standard_normal((2000, 3))
    W = fixed_location_cov(X, np.zeros(3))
    np.testing.assert_allclose(W, W.T, atol=1e-12)
    assert np.linalg.eigvalsh(W).min() >= -1e-8
    # duplicated (i, j)/(j, i) components of vec give identical rows/columns
    p = 3
    for i in range(p):
        for j in range(p):
            a, b = j * p + i, i * p + j
            np.testing.assert_allclose(W[a], W[b], atol=1e-10)
            np.testing.assert_allclose(W[:, a], W[:, b], atol=1e-10)


def test_compute_bundle_consistency():
    rng = np.random.default_rng(52)
    X = rng.exponential(1.0, size=(400, 2)) - 1.0
    bundle = compute_bundle(X, ZERO2)
    assert bundle.n_used == 400
    np.testing.assert_array_equal(bundle.fixed_cov, fixed_location_cov(X, ZERO2))
    np.testing.assert_allclose(
        bundle.plugin_cov,
        sandwich_cov(bundle.sensitivity, bundle.joint_cov),
        atol=1e-12,
    )
    np.testing.assert_array_equal(
        bundle.block_matrix, np.hstack([bundle.sensitivity, np.eye(4)])
    )
    d = bundle.to_json_dict()
    assert d["fixed_cov"]["dims"] == [4, 4]
    assert d["sensitivity"]["dims"] == [4, 2]
    assert d["joint_cov"]["dims"] == [6, 6]


@pytest.mark.parametrize("method", ["median", "fixed"])
def test_compute_bundle_off_the_mean_has_only_the_fixed_pieces(method):
    # the joint and plug-in covariances hold for the mean location alone
    X = np.random.default_rng(52).exponential(1.0, size=(400, 2)) - 1.0
    t = locate(X, method, t=ZERO2).estimate
    bundle = compute_bundle(X, t, method)
    assert bundle.fixed_cov.tobytes() == fixed_location_cov(X, t).tobytes()
    assert bundle.sensitivity.tobytes() == location_sensitivity(X, t).tobytes()
    assert bundle.joint_cov is None and bundle.plugin_cov is None
    assert bundle.n_used == 400 and bundle.to_json_dict()["block_matrix"] is None
    with pytest.raises(InvalidInputError, match="unknown location method"):
        compute_bundle(X, t, "known")
