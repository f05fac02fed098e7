import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from signcov import (
    InvalidInputError,
    MedianOptions,
    SeededStream,
    coincidence_report,
    compute_bundle,
    fixed_location_cov,
    gaussian_model,
    joint_mean_cov,
    l1_objective,
    locate,
    location_sensitivity,
    sample,
    sample_mean,
    singularity_model,
    spatial_median,
    spatial_signs,
    sscm_plugin,
    vec_sign_outers,
)
import signcov.location
from signcov.linalg import row_norms, rowwise
from signcov.location import (
    _OVERFLOW_RADIUS,
    _anchored_optimal_at,
    _componentwise_medians,
    _sign_resultant,
    _spatial_medians,
    _vertex_ruled_out,
)
from _oracles import (
    brute_force_spatial_median,
    random_orthogonal,
    signed_zero_corpus,
)

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


@pytest.mark.parametrize("p", [1, 2, 3, 10])
def test_sample_mean_keeps_numpy_mean_bits(p):
    # sample_mean is the harness's block mean at B = 1, whose p = 2 running sum
    # has numpy's bits on C-ordered rows; other layouts take numpy's own mean
    rng = np.random.default_rng(p)
    for n in (1, 2, 1000, 20_000):
        for scale in (1e-300, 1e-3, 1.0, 1e5, 1e300):
            X = scale * rng.standard_normal((n, p))
            for Y in (X, np.asfortranarray(X)):
                assert sample_mean(Y).estimate.tobytes() == Y.mean(axis=0).tobytes()


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


@pytest.mark.parametrize("fn", [
    l1_objective, coincidence_report, vec_sign_outers, fixed_location_cov,
    location_sensitivity, joint_mean_cov, compute_bundle,
], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("t", [0.5, [0.5], [0.5, 0.5]], ids=["scalar", "length_1", "length_p-1"])
def test_location_of_wrong_length_is_rejected(fn, t):
    X = np.random.default_rng(3).standard_normal((4, 3))
    with pytest.raises(InvalidInputError, match="location has length"):
        fn(X, t)


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


def _objective_path(X, start, iterations):
    """The objective at the start and at each of the first iterations
    iterates, which a run capped at k iterations returns as its estimate."""
    path = [l1_objective(X, start)]
    for k in range(1, iterations + 1):
        capped = spatial_median(X, MedianOptions(max_iterations=k))
        assert capped.iterations == k
        path.append(l1_objective(X, capped.estimate))
    return np.array(path)


def test_monotone_descent():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((50, 2))
    h = _objective_path(X, np.median(X, axis=0), spatial_median(X).iterations)
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
    # from 0.2 on, the resultant certificate 5 * tolerance * n >= n holds
    # at every point, so a converged flag would certify nothing
    for tolerance in (np.inf, np.nan, 0.2, 1.0):
        with pytest.raises(InvalidInputError, match="below 0.2"):
            MedianOptions(tolerance=tolerance)
    assert MedianOptions(tolerance=0.199).tolerance == 0.199
    for max_iterations in (2.5, True):
        with pytest.raises(InvalidInputError, match="integer"):
            MedianOptions(max_iterations=max_iterations)
    assert MedianOptions(max_iterations=np.int64(3)).max_iterations == 3
    with pytest.raises(InvalidInputError):
        MedianOptions(max_iterations=0)


def test_median_empty_errors():
    with pytest.raises(InvalidInputError):
        spatial_median(np.empty((0, 2)))


# certified medians per (gamma, n) cell of p=2 singularity samples drawn
# from SeededStream(20240206, rep), rep < 200, under the plain Weiszfeld
# iteration that the Newton steps replaced
WEISZFELD_CERTIFIED = {(0.05, 10): 90, (0.05, 100): 12, (0.45, 10): 200,
                       (0.45, 100): 200}


@pytest.mark.parametrize("gamma,n", sorted(WEISZFELD_CERTIFIED))
def test_newton_steps_certify_no_fewer_medians(gamma, n):
    opts = MedianOptions()
    results = [
        spatial_median(sample(singularity_model(gamma, 2), n,
                              SeededStream(20240206, rep)), opts)
        for rep in range(200)
    ]
    assert sum(r.converged for r in results) >= WEISZFELD_CERTIFIED[gamma, n]
    assert max(r.iterations for r in results) < opts.max_iterations


def test_newton_steps_cut_iterations_gaussian_p10():
    # the plain Weiszfeld iteration averaged 13.4 iterations on this cell
    model = gaussian_model(np.zeros(10), np.eye(10))
    iterations = [
        spatial_median(sample(model, 30, SeededStream(20240207, rep))).iterations
        for rep in range(50)
    ]
    assert np.mean(iterations) <= 6.0


def test_zero_step_at_small_resultant_certifies():
    # the iterate reaches the minimizer to the last bit, so the next step
    # cannot move it; its resultant is within the bound, which certifies it
    X = sample(singularity_model(0.45, 2), 10, SeededStream(20240206, 73))
    res = spatial_median(X)
    assert res.converged and not res.anchored
    u = spatial_signs(X - res.estimate)
    assert np.linalg.norm(u.sum(axis=0)) <= 5.0 * MedianOptions().tolerance * 10


def _safeguard_corpus():
    rng = np.random.default_rng(4242)
    t = rng.standard_exponential(9)
    duplicates = np.round(rng.standard_normal((12, 3)), 1)
    duplicates[4:9] = duplicates[0]
    return [
        np.column_stack([t, -3.0 * t + 1.0]),  # collinear
        np.outer(t, [1.0, 2.0, -0.5]),  # collinear through the origin
        # on an axis-parallel line: from the mean, H is exactly singular
        np.column_stack([[0.0, 1.0, 3.0, 7.0, 8.0], np.full(5, 2.0)]),
        np.array([[0.5], [1.0], [4.0], [9.0], [10.0]]),  # p = 1
        rng.standard_normal((2, 3)),  # n = 2
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # n = 2, one point twice
        rng.standard_normal((5, 10)),  # p > n
        duplicates,  # exact duplicate rows
        *signed_zero_corpus(),
    ]


def _componentwise_median_blocks():
    rng = np.random.default_rng(41)
    ties = rng.integers(-2, 3, size=(5, 8, 3)).astype(float)  # ties and zeros
    ties[ties == 0.0] *= rng.choice([1.0, -1.0], size=int((ties == 0.0).sum()))
    return [
        rng.standard_normal((3, 1, 4)),  # n = 1
        rng.standard_normal((4, 7, 3)), rng.standard_normal((4, 30, 10)),
        ties, ties[:, :7], np.full((2, 4, 2), -0.0), np.full((2, 3, 2), -0.0),
        *(X[None] for X in signed_zero_corpus()),
    ]


def test_componentwise_medians_match_np_median_bitwise():
    for X in _componentwise_median_blocks():
        expected = np.median(X, axis=1)
        assert _componentwise_medians(X).view(np.int64).tobytes() == \
            expected.view(np.int64).tobytes()


def test_failed_vertex_is_not_tested_again(monkeypatch):
    # the gate and the test read the vertex's sample, so a second decision
    # could only rule it out again; at gamma = 0.05 the iterate keeps nearing
    # failed vertices. Each vertex is gated at most once, and tested at most
    # once, right after a gate that kept it.
    log = []
    gate, test = signcov.location._vertex_ruled_out, signcov.location._anchored_optimal_at

    def gating(*args):
        log.append(("gate", int(args[-1]), gate(*args)))
        return log[-1][2]

    def testing(X, v):
        log.append(("test", int(np.flatnonzero(np.all(X == v, axis=1))[0]), None))
        return test(X, v)

    monkeypatch.setattr(signcov.location, "_vertex_ruled_out", gating)
    monkeypatch.setattr(signcov.location, "_anchored_optimal_at", testing)
    for k in range(3):
        log.clear()
        spatial_median(sample(singularity_model(0.05, 2), 200, SeededStream(7, k)))
        gated = [row for kind, row, _ in log if kind == "gate"]
        tested = [row for kind, row, _ in log if kind == "test"]
        assert gated and len(set(gated)) == len(gated)
        assert len(set(tested)) == len(tested)
        assert all(log[i - 1] == ("gate", row, False)
                   for i, (kind, row, _) in enumerate(log) if kind == "test")


def test_vertex_tests_are_rare_at_large_n(monkeypatch):
    # at gamma = 0.45, n = 20000 the iterate nears about two failing vertices
    # per median; the gate rules nearly all of them out before their test,
    # and each vertex it rules out fails the test
    calls, ruled_out = [], []
    gate, test = signcov.location._vertex_ruled_out, signcov.location._anchored_optimal_at

    def gating(*args):
        if gate(*args):
            ruled_out.append(args[-1])
            return True
        return False

    monkeypatch.setattr(signcov.location, "_vertex_ruled_out", gating)
    monkeypatch.setattr(signcov.location, "_anchored_optimal_at",
                        lambda X, v: calls.append(1) or test(X, v))
    model = singularity_model(0.45, 2)
    for k in range(32):
        X = sample(model, 20_000, SeededStream(41, k))
        ruled_out.clear()
        assert spatial_median(X).converged
        assert not any(test(X, X[row]) for row in ruled_out)
    assert len(calls) <= 0.5 * 32


def test_vertex_gate_rules_out_most_sweep_candidates(monkeypatch):
    # the sweep benchmark's cells at master seed 1 (gamma in {0.05, 0.45},
    # n in {1000, 20000}, 32 streams each, stream cell * 32 + rep as the
    # harness draws them): the one-scan gate rules out at least 75% of the
    # nearby vertices (190 of 252 when written), and each one it rules out
    # fails the vertex test
    decisions, gate = [], signcov.location._vertex_ruled_out

    def gating(*args):
        decisions.append((args[-1], gate(*args)))
        return decisions[-1][1]

    monkeypatch.setattr(signcov.location, "_vertex_ruled_out", gating)
    cells = [(gamma, n) for gamma in (0.05, 0.45) for n in (1000, 20_000)]
    ruled_out = candidates = 0
    for cell, (gamma, n) in enumerate(cells):
        model = singularity_model(gamma, 2)
        for rep in range(32):
            X = sample(model, n, SeededStream(1, cell * 32 + rep))
            decisions.clear()
            spatial_median(X)
            out = [row for row, ruled in decisions if ruled]
            assert not any(_anchored_optimal_at(X, X[row]) for row in out)
            ruled_out, candidates = ruled_out + len(out), candidates + len(decisions)
    assert candidates and ruled_out >= 0.75 * candidates


# few distinct values, so that ties and both signed zeros are common
_TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-300, -5e-324])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(1, 3), st.data())
def test_componentwise_medians_match_np_median_on_ties(B, n, p, data):
    # the one selection at k gives np.median's bits at odd and even n alike
    X = data.draw(arrays(float, (B, n, p), elements=_TIED_VALUES | st.floats(-10, 10)))
    before = X.tobytes()
    assert _componentwise_medians(X).view(np.int64).tobytes() == \
        np.median(X, axis=1).view(np.int64).tobytes()
    assert X.tobytes() == before


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("B", [1, 16])
@pytest.mark.parametrize("n", [7, 8, 1001, 1000])
def test_componentwise_medians_leave_the_sample_unchanged(p, B, n):
    # the selection runs in place on a copy: at p = 1 the transposed block
    # is contiguous already, and selecting in it would reorder the sample
    X = np.random.default_rng(100 * p + n + B).standard_normal((B, n, p))
    before = X.tobytes()
    _componentwise_medians(X)
    assert X.tobytes() == before


def _start_at_mean(monkeypatch):
    """Start the iteration at the sample mean, from where collinear samples
    reach the solver's fallbacks that the componentwise median never does."""
    monkeypatch.setattr(signcov.location, "_componentwise_medians", lambda X: X.mean(axis=1))


@pytest.mark.parametrize("start", ["componentwise_median", "mean"])
def test_safeguard_keeps_iterates_finite_without_warnings(start, monkeypatch):
    if start == "mean":
        _start_at_mean(monkeypatch)
    for X in _safeguard_corpus():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = spatial_median(X)
            initial = X.mean(axis=0) if start == "mean" else np.median(X, axis=0)
            h = _objective_path(X, initial, res.iterations)
        assert np.all(np.isfinite(res.estimate)) and np.all(np.isfinite(h))
        assert np.all(np.diff(h) <= 1e-12 * h[0])


@pytest.fixture(scope="module")
def block_corpora() -> dict:
    """64 samples of one shape per corpus, together reaching every branch
    of the solver: Newton and Weiszfeld steps, stalls and long tails at
    gamma = 0.05, iterates starting on a data point (certified there or
    stepping off it), snaps onto an optimal data point, and collinear
    slices whose exactly singular Hessian makes a batched solve raise."""
    g10 = gaussian_model(np.zeros(10), np.eye(10))
    out = {f"gaussian_p10_n{n}": [sample(g10, n, SeededStream(7, k)) for k in range(64)]
           for n in (5, 30)}
    for gamma in (0.05, 0.45):
        for n in (10, 100):
            out[f"singularity_{gamma}_n{n}"] = [
                sample(singularity_model(gamma, 2), n, SeededStream(8, k))
                for k in range(64)
            ]
    rng = np.random.default_rng(5)
    duplicated = []
    for k in range(64):
        X = np.round(rng.standard_normal((12, 3)), k % 2)
        X[4:4 + k % 8] = X[0]
        duplicated.append(X)
    out["duplicated_rows"] = duplicated
    t = np.array([0.0, 1, 3, 7, 8, 9, 12, 13, 20, 30])
    mixed = list(out["singularity_0.45_n10"])
    # axis-parallel lines: from the mean, H is exactly singular
    mixed[3] = np.column_stack([t, np.full(10, -1.0)])
    mixed[40] = np.column_stack([np.full(10, 0.5), t])
    out["collinear_slices"] = mixed
    return out


@pytest.mark.parametrize("start,opts", [
    ("componentwise_median", MedianOptions()),
    ("mean", MedianOptions(max_iterations=3)),
], ids=["default", "mean_init_capped_at_3"])
def test_block_solver_matches_spatial_median_per_slice(start, opts, block_corpora, monkeypatch):
    if start == "mean":
        _start_at_mean(monkeypatch)
    solve, singular_batches = signcov.location._solve, []

    def recording_solve(A, b, **kwargs):
        x = solve(A, b, **kwargs)
        if len(A) > 1 and np.isnan(x).all(axis=(1, 2)).any():  # a singular slice among others
            singular_batches.append(A.shape)
        return x

    monkeypatch.setattr(signcov.location, "_solve", recording_solve)
    refs = {name: [spatial_median(X, opts) for X in samples]
            for name, samples in block_corpora.items()}
    for name, samples in block_corpora.items():
        for B in (1, 2, 7, 64):
            for lo in range(0, len(samples), B):
                est, its, conv = _spatial_medians(np.stack(samples[lo:lo + B]), opts)
                for j, ref in enumerate(refs[name][lo:lo + B]):
                    assert est[j].tobytes() == ref.estimate.tobytes(), (name, B, lo + j)
                    assert (its[j], conv[j]) == (ref.iterations, ref.converged)
    # the branches the corpora are there to reach
    every = [r for results in refs.values() for r in results]
    assert any(r.anchored and r.iterations > 0 for r in every)  # snapped
    if start == "mean":
        assert singular_batches
        assert any(r.iterations == 3 and not r.converged for r in every)
    else:
        assert any(not r.converged and r.iterations < 1000 for r in every)  # stalled
        stepped_off = [
            r for X, r in zip(block_corpora["duplicated_rows"], refs["duplicated_rows"])
            if np.all(X == np.median(X, axis=0), axis=1).any() and r.iterations > 0
        ]
        assert stepped_off


def _anchored_optimal_at_by_equality(X, vertex):
    """The vertex test as first written, kept as the oracle: coincidence by
    coordinate equality, a boolean gather of the other rows, a subtraction.
    Where a weight 1 / r_i overflows (subnormal r_i) it sums the unit rows."""
    coincident = np.all(X == vertex, axis=1)
    eta = int(coincident.sum())
    d = X[~coincident] - vertex
    if d.shape[0] == 0:
        return True
    r = row_norms(d)
    with np.errstate(over="ignore"):
        w = 1.0 / r
    resultant = (d / r[:, None]).sum(axis=0) if np.isinf(w).any() else w @ d
    return bool(np.sqrt(resultant @ resultant) <= eta)


# coordinates that coincide across signed zeros and differ by one subnormal
# step (5e-324), or by one ulp at 1
near_coordinates = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-323, 1.0, np.nextafter(1.0, 2.0), -3e-160, 2e300])


@given(st.sampled_from([1, 2, 3]), st.integers(1, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_zero_radius_is_coordinate_equality(p, n, data):
    X = data.draw(arrays(np.float64, (n, p), elements=near_coordinates))
    vertex = data.draw(arrays(np.float64, (p,), elements=near_coordinates))
    r = row_norms(rowwise(np.subtract, X, vertex))
    assert np.array_equal(r == 0.0, np.all(X == vertex, axis=1))


def _duplicate_row_corpus(p):
    rng = np.random.default_rng(60 + p)
    corpus = [X for X in signed_zero_corpus() if X.shape[1] == p]
    corpus.append(np.zeros((4, p)) * np.array([[1.0], [-1.0], [1.0], [-1.0]]))  # all coincide
    # the origin twice, outpulled by three rows one subnormal step away
    corpus.append(np.vstack([np.zeros((1, p)), -np.zeros((1, p)),
                             np.tile(np.eye(1, p) * 5e-324, (3, 1))]))
    for n in (5, 12, 30):
        for k in range(6):
            X = np.round(rng.standard_normal((n, p)), 1)
            X[3:4 + k] = X[0]  # heavy duplicates pass the test
            X[-1] = np.where(X[0] == 0.0, -X[0], X[0])  # a signed-zero twin
            X[-2] = np.nextafter(X[0], np.inf)  # one ulp (5e-324 at 0) away
            corpus.append(X)
    return corpus


@pytest.mark.parametrize("p", [1, 2, 3])
def test_vertex_test_matches_coordinate_equality_oracle(p):
    outcomes = set()
    for X in _duplicate_row_corpus(p):
        for vertex in X:
            got = _anchored_optimal_at(X, vertex)
            assert got == _anchored_optimal_at_by_equality(X, vertex), (X, vertex)
            outcomes.add(got)
    assert outcomes == {True, False}


def _anchored_resultant_over_all_norms(X, vertex):
    """The vertex test's (resultant, multiplicity) with the norms taken over
    every row, the vertex's own included, and the zero radii dropped after."""
    d = rowwise(np.subtract, X, vertex)
    r = row_norms(d)
    coincident = np.flatnonzero(r == 0.0)
    resultant = _sign_resultant(np.delete(d, coincident, axis=0), np.delete(r, coincident))[0]
    return resultant, len(coincident)


# rows at the vertex (either signed zero) and one or a few of 1e-300 off it
_OFFSETS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 3e-300, 1e-300 + 5e-324, 5e-324])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.data())
def test_vertex_test_matches_norms_over_every_row(p, data):
    base = data.draw(arrays(float, (data.draw(st.integers(1, 6)), p),
                            elements=_OFFSETS | st.floats(-2, 2)))
    vertex = base[0]
    # duplicate rows, and rows at tiny offsets from the vertex
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=12))
    shifts = data.draw(arrays(float, (len(picks), p), elements=_OFFSETS))
    near = data.draw(arrays(bool, len(picks)))
    X = np.vstack([vertex, np.where(near[:, None], vertex + shifts, base[picks])])
    seen = []

    def recording(d, r):
        seen.append(_sign_resultant(d, r))
        return seen[-1]

    with mock.patch.object(signcov.location, "_sign_resultant", recording):
        got = _anchored_optimal_at(X, vertex)
    resultant, eta = _anchored_resultant_over_all_norms(X, vertex)
    assert seen[0][0].tobytes() == resultant.tobytes()
    assert got == bool(np.sqrt(resultant @ resultant) <= eta)


@pytest.mark.filterwarnings("error")
def test_median_near_a_point_within_overflow_of_its_reciprocal_is_finite():
    # an iterate within ~5.6e-309 of a data point, not on it, overflows the
    # weights 1 / r; it counts as on that point, which certifies or steps
    # off, so no estimate is NaN and nothing warns
    rng = np.random.default_rng(0)
    values = np.array([0.0, 5e-324, -5e-324, 1e-323, 3e-310, -3e-310, 1.0, -1.0, 2.0, 0.5])
    samples = [np.array([[0.0, 2.0, 0.0], [-3e-310, 0.0, -5e-324], [3e-310, 3e-310, 3e-310]])]
    samples += [rng.choice(values, size=(rng.integers(2, 10), rng.integers(1, 4)))
                for _ in range(400)]
    for X in samples:
        assert np.isfinite(spatial_median(X).estimate).all(), X


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("X", [
    np.vstack([np.zeros((5, 2)), [[5e-324, 0.0], [0.0, 5e-324], [1.0, 1.0]]]),
    np.concatenate([np.zeros(5), np.full(3, 5e-324)])[:, None],
], ids=["p2", "p1"])
def test_median_on_a_point_with_subnormal_neighbours(X):
    # 1 / 5e-324 overflows, the unit rows d_i / r_i do not: five rows at the
    # origin outweigh resultants of norm 1 + sqrt(2) and 3, so it is optimal
    assert _anchored_optimal_at(X, X[0])
    res = spatial_median(X)
    assert res.estimate.tolist() == [0.0] * X.shape[1]
    assert res.converged and res.anchored


@pytest.mark.filterwarnings("error")
def test_median_where_the_weights_sum_past_the_float_range():
    # on the origin sum 1 / r overflows though no radius is below ~5.6e-309;
    # the step off it and the Newton passes take 1 / sum w and the rows v_i
    # from the scale-free weights r_min / r_i, and each step's plain sum of
    # squares underflows, so its norm is rescaled. The median converges as
    # its 2^1000-scaled copy does, and a block holding both solves each as alone
    X = np.vstack([[0.0, 0.0], np.tile([1e-306, 0.5e-306], (200, 1)),
                   np.tile([-1e-306, -1e-306], (200, 1))])
    res, big = spatial_median(X), spatial_median(X * 2.0 ** 1000)
    assert res.converged and big.converged and res.iterations == big.iterations == 4
    np.testing.assert_allclose(res.estimate, big.estimate * 2.0 ** -1000, rtol=0,
                               atol=1e-10 * row_norms(X).max())
    est, its, conv = _spatial_medians(np.stack([X, X * 2.0 ** 1000]), MedianOptions())
    assert est.tobytes() == np.stack([res.estimate, big.estimate]).tobytes()
    assert its.tolist() == [4, 4] and conv.tolist() == [True, True]


def _gate_at(X, y):
    """The gate on the data point nearest to y, from what the solver's pass at
    the iterate y forms: differences, radii, weights, resultant and H / sum w."""
    d = rowwise(np.subtract, X, y)
    r = row_norms(d)
    w = 1.0 / r
    with np.errstate(over="ignore"):  # sum w overflows at radii near 1e-308
        w_sum = w.sum()
    v = d * (w * np.sqrt(w / w_sum))[:, None]
    pass_at_y = (d, r, w, w @ d, w_sum, np.eye(len(y)) - v.T @ v, int(r.argmin()))
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # the gate is silent
        return _vertex_ruled_out(*pass_at_y), pass_at_y[-1]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 10]), st.integers(2, 30), st.integers(1, 4), st.integers(0, 24),
       st.integers(-300, 300), st.integers(1, 12), st.sampled_from([0.0, 1.0, 1e4]),
       st.integers(0, 2**32 - 1))
def test_vertex_gate_rules_out_only_failing_vertices(p, n, eta, close, scale_exp, delta_exp,
                                                     shift, seed):
    # the gate is a proof: where it rules the nearest data point out, the
    # vertex test fails there. The vertex x sits near the cloud's center with
    # eta copies; the iterate is x + h, |h| = delta, with neighbours within
    # 3 delta of it, inside 2 delta (N) or just beyond, where the
    # second-order term matters; the sample is shifted and scaled by up to 1e300
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((eta + close + n, p))
    X[:eta] = 0.0
    h = rng.standard_normal(p)
    h *= 10.0 ** -delta_exp / np.linalg.norm(h)
    ahead = rng.standard_normal((close, p))
    ahead *= rng.uniform(0.0, 3.0, (close, 1)) * 10.0 ** -delta_exp \
        / np.linalg.norm(ahead, axis=1, keepdims=True)
    X[eta:eta + close] = h + ahead
    scale = 10.0 ** scale_exp
    X, y = (X + shift) * scale, (h + shift) * scale
    assume(row_norms(rowwise(np.subtract, X, y)).min() > _OVERFLOW_RADIUS)
    ruled_out, row = _gate_at(X, y)
    assert not (ruled_out and _anchored_optimal_at(X, X[row]))


def test_vertex_gate_keeps_an_optimal_vertex_near_the_iterate():
    # the origin x is optimal: twenty rows at (1, +-2.05) pull it along e1
    # with 20 / |(1, 2.05)| and eight far rows pull back with 0.9 less. From
    # y = (1, 0), delta = 1, those twenty rows sit just past 2 delta, in F,
    # where the linear terms overshoot by about 0.99: |R_F + H_F h| is 1.89
    # against |N| = 1, so only the second-order term keeps x
    c = (20.0 / math.hypot(1.0, 2.05) - 0.9) / 8.0
    s = math.sqrt(1.0 - c * c)
    X = np.vstack([[0.0, 0.0], np.tile([[1.0, 2.05], [1.0, -2.05]], (10, 1)),
                   np.tile([[-1e3 * c, 1e3 * s], [-1e3 * c, -1e3 * s]], (4, 1))])
    h = np.array([1.0, 0.0])
    u = spatial_signs(X[1:] - h)
    linear = (u + (h - u * (u @ h)[:, None]) / row_norms(X[1:] - h)[:, None]).sum(axis=0)
    assert np.linalg.norm(linear) > 1.8
    for scale in (1e-300, 1e-10, 1.0, 1e10, 1e300):
        assert _anchored_optimal_at(scale * X, scale * X[0])
        assert _gate_at(scale * X, scale * h) == (False, 0)
