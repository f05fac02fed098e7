import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from signcov import (
    InvalidInputError,
    kron,
    row_norms,
    sign_outer,
    spatial_sign,
    spatial_signs,
    sscm_star,
    vec,
)
from signcov.linalg import rowwise
from _oracles import random_orthogonal


def test_spatial_sign_three_four():
    np.testing.assert_allclose(spatial_sign([3.0, 4.0]), [0.6, 0.8], atol=1e-15)


def test_spatial_sign_zero_maps_to_zero():
    assert np.array_equal(spatial_sign([0.0, 0.0]), [0.0, 0.0])
    assert spatial_sign([]).shape == (0,)  # the empty vector too


def test_spatial_sign_unit_vector_fixed_point():
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(spatial_sign(e1), e1)


def test_spatial_sign_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        spatial_sign([np.nan, 1.0])
    with pytest.raises(InvalidInputError):
        spatial_sign([np.inf, 0.0])


def test_spatial_signs_rowwise_matches_scalar():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-200, 200, size=(40, 1))
    U = spatial_signs(X)
    for i in range(X.shape[0]):
        assert U[i].tobytes() == spatial_sign(X[i]).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("shape", [(7,), (3, 7)])
def test_spatial_signs_in_range_divide_by_the_norms_bitwise(p, shape):
    # with no row outside the plain range every norm is >= 1e-140, so the
    # divisor without the zero-norm guard has the same bits
    scales = 10.0 ** np.linspace(-120.0, 120.0, 7)[:, None]
    X = np.random.default_rng(p).standard_normal((*shape, p)) * scales
    r = row_norms(X)
    expected = rowwise(np.divide, X, np.where(r > 0.0, r, 1.0)[..., None])
    assert spatial_signs(X).tobytes() == expected.tobytes()


def test_spatial_signs_of_rows_with_a_subnormal_norm_are_unit():
    # the rescued norm is subnormal, so X / r alone is no unit row
    X = np.array([[5e-324, -5e-324], [3e-320, 1e-320], [0.0, 0.0], [3.0, 4.0]])
    U = spatial_signs(X)
    np.testing.assert_allclose(np.einsum("ij,ij->i", U, U), [1.0, 1.0, 0.0, 1.0],
                               atol=1e-15)
    for i in range(X.shape[0]):
        assert U[i].tobytes() == spatial_sign(X[i]).tobytes()
    S = sscm_star(np.array([[5e-324, -5e-324], [1.0, 0.0]]), [0.0, 0.0])
    assert np.trace(S.matrix) == pytest.approx(1.0, abs=1e-15)


def test_vec_column_stacking():
    a, b, c, d = 1.5, -2.0, 3.25, 7.0
    M = np.array([[a, c], [b, d]])  # columns (a, b) and (c, d)
    assert np.array_equal(vec(M), [a, b, c, d])


def test_vec_identity():
    assert np.array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])


def test_vec_of_outer_is_kron():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        np.testing.assert_allclose(vec(np.outer(x, y)), np.kron(y, x), atol=1e-12)


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    out = kron(e1.reshape(-1, 1), e2.reshape(-1, 1)).ravel()
    expected = np.zeros(4)
    expected[1] = 1.0
    assert np.array_equal(out, expected)


def test_kron_mixed_product_against_dense_multiplication():
    rng = np.random.default_rng(13)
    for _ in range(20):
        A, B, C, D = (rng.standard_normal((2, 2)) for _ in range(4))
        lhs = kron(A, B) @ kron(C, D)
        rhs = kron(A @ C, B @ D)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=5
)


@given(finite_vectors)
@settings(max_examples=100, deadline=None)
def test_sign_norm_is_zero_or_one(xs):
    u = spatial_sign(np.array(xs))
    norm = np.sqrt(u @ u)
    assert norm == pytest.approx(0.0, abs=1e-12) or norm == pytest.approx(
        1.0, abs=1e-12
    )


TINY = np.finfo(float).tiny  # smallest normal float


@given(finite_vectors, st.floats(min_value=1e-8, max_value=1e8))
@settings(max_examples=100, deadline=None)
def test_sign_scale_invariance(xs, c):
    # scaling a subnormal entry rounds it away from c * x, so invariance
    # holds where every non-zero entry stays normal before and after
    assume(all(v == 0.0 or min(abs(v), abs(c * v)) >= TINY for v in xs))
    x = np.array(xs)
    np.testing.assert_allclose(spatial_sign(c * x), spatial_sign(x), atol=1e-12)


def test_sign_of_scaled_vector_that_underflows_is_zero():
    # c * x underflows to the zero vector, which maps to zero by contract,
    # while x itself has a unit sign
    x = np.array([0.0, 5e-324])
    assert np.array_equal(0.5 * x, [0.0, 0.0])
    assert np.array_equal(spatial_sign(0.5 * x), [0.0, 0.0])
    assert np.array_equal(spatial_sign(x), [0.0, 1.0])


@given(st.integers(0, 10_000), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_sign_orthogonal_equivariance(seed, p):
    rng = np.random.default_rng(seed)
    Q = random_orthogonal(rng, p)
    x = rng.standard_normal(p)
    np.testing.assert_allclose(spatial_sign(Q @ x), Q @ spatial_sign(x), atol=1e-10)


@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_vec_kron_identity(seed, p):
    rng = np.random.default_rng(seed)
    A, B, C = (rng.standard_normal((p, p)) for _ in range(3))
    lhs = vec(A @ B @ C)
    rhs = kron(C.T, A) @ vec(B)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@given(st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_recentering_identity_residual(seed):
    # for x != 0 and x != t, the sign outer product about t decomposes as
    # G(x - t) = G(x) + (t t' - x t' - t x')/|x|^2 + ((2 x't - t't)/|x|^2) G(x - t)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3)
    t = rng.standard_normal(3)
    lhs = sign_outer(x - t)
    xx = float(x @ x)
    rhs = (
        sign_outer(x)
        + (np.outer(t, t) - np.outer(x, t) - np.outer(t, x)) / xx
        + ((2.0 * float(x @ t) - float(t @ t)) / xx) * sign_outer(x - t)
    )
    assert np.linalg.norm(lhs - rhs) <= 1e-9


def _scaled_reference_norm(x) -> float:
    """Euclidean norm by max-entry rescaling and an exactly rounded sum."""
    m = max(abs(float(v)) for v in x)
    if m == 0.0:
        return 0.0
    return m * math.sqrt(math.fsum((float(v) / m) ** 2 for v in x))


def _row_norm_inputs() -> dict:
    """Seeded inputs for row_norms: one that stays on the plain path, one
    whose every row is rescaled, and one that mixes both in a call."""
    rng = np.random.default_rng(154)
    plain = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-100, 100, (40, 1))
    tiny = rng.standard_normal((10, 4)) * 1e-160
    huge = rng.standard_normal((10, 4)) * 1e160
    inner = np.array([[1e160, 1e-160, 1.0], [1e-160, -2e-160, 0.0],
                      [-3e155, 4e155, 0.0], [5e-300, 0.0, -5e-300],
                      [3e-170, 4e-170, 0.0], [3e170, -4e170, 0.0],
                      [0.0, 5e-324, 0.0]])
    mixed = np.vstack([
        rng.standard_normal((12, 3)) * 10.0 ** rng.integers(-200, 200, (12, 1)),
        inner,
        np.zeros((3, 3)),
    ])
    return {"plain": plain, "rescaled": np.vstack([tiny, huge]), "mixed": mixed,
            **_narrow_row_norm_inputs()}


def _narrow_row_norm_inputs() -> dict:
    """Seeded inputs at p = 1 and p = 2, where row_norms may sweep each
    coordinate over all rows: plain and rescued rows, signed zeros, and rows
    one subnormal step (5e-324) apart; p = 2 also as a block (B, n, 2)."""
    rng = np.random.default_rng(155)
    edge = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
                     [5e-324, 0.0], [0.0, -5e-324], [5e-324, 5e-324],
                     [1e-320, 3e-320], [1e-320, 3e-320 + 5e-324],
                     [1.0, 5e-324], [1.0, 0.0], [-1e-160, 1e-160],
                     [3e-170, -4e-170], [1e160, -1e160], [3e170, 4e170],
                     [1.5e154, 1.0], [1e-141, 1e-141], [1.79e308, 0.0]])
    p2 = np.vstack([
        rng.standard_normal((20, 2)) * 10.0 ** rng.integers(-200, 200, (20, 1)),
        rng.standard_normal((20, 2)),
        edge,
    ])
    p1 = np.concatenate([p2[:, 0], [-0.0, 5e-324, -1e-200, 1e200, -1.79e308]])
    return {"p1": p1[:, None], "p2": p2, "p2_block": p2[:56].reshape(4, 14, 2)}


# sha256 of row_norms(input).tobytes(), recorded from the implementation
# that tested every row with a four-ufunc mask (see test_bit_identity.py for
# the platform these digests hold on)
ROW_NORM_DIGESTS = {
    "plain": "5f8290ffde0d4e2871564a6ebe8a5851ae6d2735b087cb525e805f188ec526c8",
    "rescaled": "fd175e0e3c0733c1193045ec050cf422fe68bce7af693037d708d395e6b44b11",
    "mixed": "8ed7a71890cbce262dfa5adfda120fde9d25842708456f049f9b6e42fa0f03f0",
    # recorded from the implementation whose plain sum of squares was one
    # einsum over every p
    "p1": "0a40bca9937b92035d042ba2ce60eaa1d249ee8e4cb4cbe85f50f58eade1c430",
    "p2": "03aeaa9f3ff11d5742f8ff84883a17d018ce26e4ebb4b91d812369c5ef788051",
    "p2_block": "79c7708ff4b9ed3060e95b97358abccb3a0f691d7e0e8c4c2a9320d0a8da852c",
}


@pytest.mark.parametrize("name", sorted(ROW_NORM_DIGESTS))
def test_row_norms_bits_pinned(name):
    r = row_norms(_row_norm_inputs()[name])
    assert hashlib.sha256(r.tobytes()).hexdigest() == ROW_NORM_DIGESTS[name]


@pytest.mark.parametrize("name", ["plain", "rescaled", "mixed", "p1", "p2"])
def test_row_norms_match_scaled_reference(name):
    X = _row_norm_inputs()[name]
    r = row_norms(X)
    want = np.array([_scaled_reference_norm(row) for row in X])
    np.testing.assert_allclose(r, want, rtol=4e-16, atol=0.0)
    assert np.all(np.isfinite(r))
    assert np.all((r > 0.0) == np.any(X != 0.0, axis=1))


@pytest.mark.parametrize("p", [0, 1, 5])
def test_row_norms_empty_input(p):
    r = row_norms(np.empty((0, p)))
    assert r.shape == (0,)
    assert r.dtype == np.float64


# every finite float: signed zeros, subnormals and magnitudes up to 1.8e308
any_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rowwise_cases(draw):
    """(ufunc, X, v): X is (n, p) or (B, n, p); v is shaped as the callers
    shape it: a location (p,), one per slice (B, 1, p) or one per row."""
    p, n, B = draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    block = draw(st.booleans())
    X = draw(arrays(np.float64, (B, n, p) if block else (n, p), elements=any_finite))
    v_shape = draw(st.sampled_from([(p,), (B, 1, p), (B, n, 1)] if block else [(p,), (n, 1)]))
    v = draw(arrays(np.float64, v_shape, elements=any_finite))
    return draw(st.sampled_from([np.subtract, np.multiply, np.divide])), X, v


@given(rowwise_cases())
@settings(max_examples=300, deadline=None)
def test_rowwise_is_the_broadcast_ufunc_bit_for_bit(case):
    ufunc, X, v = case
    with np.errstate(all="ignore"):  # overflow and division by zero included
        got, want = rowwise(ufunc, X, v), ufunc(X, v)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# entries whose squares and sums of two squares stay on row_norms' plain path
plain_entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-130, 1e130),
                          st.floats(-1e130, -1e-130))


@given(st.sampled_from([1, 2]), st.sampled_from([(), (3,)]), st.integers(1, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_narrow_row_norms_are_the_einsum_norms_bit_for_bit(p, lead, n, data):
    X = data.draw(arrays(np.float64, (*lead, n, p), elements=plain_entries))
    want = np.sqrt(np.einsum("...j,...j->...", X, X))
    assert row_norms(X).tobytes() == want.tobytes()
