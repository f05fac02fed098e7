"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with:  pytest tests/test_acceptance.py -v -s
Most criteria are Monte Carlo reproductions at full replication counts and
are marked slow; `pytest -m "not slow"` skips them for quick iteration.

Criterion 9c is expected to fail: the two median-location sweep cells it
compares differ by a factor ~1.26 (about 20 combined standard errors at
the stated replication count), not by Monte Carlo noise. The test
states the criterion literally and is left red rather than loosened; its
inline comment carries the analysis.
"""

import numpy as np
import pytest

import signcov as sc
from signcov import (
    ExperimentConfig,
    MedianOptions,
    SeededStream,
    element_variance,
    fixed_location_cov,
    gaussian_model,
    joint_mean_cov,
    ks_statistic,
    l1_objective,
    location_sensitivity,
    population_sscm_closed_p2,
    population_sscm_mc,
    run_experiment,
    sample,
    sandwich_cov,
    singularity_model,
    spatial_median,
    spatial_sign,
    spatial_signs,
    sscm_fixed,
    ssscm,
    student_t_model,
    write_result_csv,
)
from _oracles import brute_force_spatial_median, random_orthogonal

SHAPE = np.array([[1.0, 0.5], [0.5, 1.0]])
WORKERS = 2


def report(label, ok, detail):
    print(f"[acceptance] criterion {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. population value
# --------------------------------------------------------------------------

def test_criterion_1_population_value():
    closed = population_sscm_closed_p2(SHAPE).matrix
    err_closed = abs(closed[0, 1] - 0.13397)
    mc, se = population_sscm_mc(
        gaussian_model([0.0, 0.0], SHAPE), 1_000_000, SeededStream(101, 0)
    )
    err_mc = abs(mc.matrix[0, 1] - closed[0, 1])
    ok = err_closed <= 5e-6 and err_mc <= 3.0 * se[0, 1]
    report(
        "1",
        ok,
        f"closed off-diagonal {closed[0, 1]:.6f} (|err| {err_closed:.2e} <= 5e-6), "
        f"MC {mc.matrix[0, 1]:.6f} within {err_mc / se[0, 1]:.2f} SE",
    )
    assert ok


# --------------------------------------------------------------------------
# 2-4. table reproductions
# --------------------------------------------------------------------------

TABLE1_P10 = {
    (5, "known"): 0.901, (5, "mean"): 1.090, (5, "median"): 1.074,
    (30, "known"): 0.899, (30, "mean"): 0.924, (30, "median"): 0.923,
    (1000, "known"): 0.897, (1000, "mean"): 0.897, (1000, "median"): 0.897,
}


@pytest.mark.slow
def test_criterion_2_table_gaussian_p10_row():
    cfg = ExperimentConfig(
        statistic="table",
        model=gaussian_model([0.0, 0.0], np.eye(2)),
        n_grid=(5, 30, 1000),
        replications=10_000,
        master_seed=20240201,
        p_grid=(10,),
    )
    res = run_experiment(cfg, workers=WORKERS)
    worst = 0.0
    for c in res.cells:
        worst = max(worst, abs(c.mean - TABLE1_P10[(c.n, c.method)]))
    ok = worst <= 0.03
    report("2", ok, f"9 cells, worst |deviation| from printed row {worst:.4f} <= 0.03")
    assert ok


@pytest.mark.slow
def test_criterion_3_table_p1000_gram_path():
    from signcov.simharness import _table_values
    from signcov import frobenius_error_gram, spatial_signs

    # the block statistic routes through the Gram identity when p > n
    X = sample(gaussian_model([0.0] * 1000, np.eye(1000)), 5, SeededStream(1, 0))
    U = spatial_signs(X[None] - np.zeros(1000))
    assert _table_values(None, U)[0] == 5 * frobenius_error_gram(
        X, np.zeros(1000)
    )

    cfg = ExperimentConfig(
        statistic="table",
        model=gaussian_model([0.0, 0.0], np.eye(2)),
        n_grid=(5,),
        replications=10_000,
        master_seed=20240202,
        p_grid=(1000,),
        location_methods=("known",),
    )
    res = run_experiment(cfg, workers=WORKERS)
    c = res.cells[0]
    ok = abs(c.mean - 0.999) <= 0.01
    report("3", ok, f"p=1000 n=5 known cell {c.mean:.5f} within 0.01 of 0.999")
    assert ok


TABLE2_P10_KNOWN = {5: 0.900, 10: 0.896, 30: 0.899, 1000: 0.897}
TABLE2_P10_MEDIAN = {5: 1.084, 10: 0.984, 30: 0.926, 1000: 0.898}


@pytest.mark.slow
def test_criterion_4_table_t2_p10_row():
    cfg = ExperimentConfig(
        statistic="table",
        model=student_t_model(2.0, [0.0, 0.0], np.eye(2)),
        n_grid=(5, 10, 30, 1000),
        replications=10_000,
        master_seed=20240203,
        p_grid=(10,),
    )
    res = run_experiment(cfg, workers=WORKERS)
    cells = {(c.n, c.method): c for c in res.cells}
    worst = 0.0
    for n, tgt in TABLE2_P10_KNOWN.items():
        worst = max(worst, abs(cells[(n, "known")].mean - tgt))
    for n, tgt in TABLE2_P10_MEDIAN.items():
        worst = max(worst, abs(cells[(n, "median")].mean - tgt))
    # mean-location cells are unstable under t2; only a qualitative bound
    mean_ok = all(
        cells[(n, "mean")].mean >= 1.3 * cells[(n, "known")].mean
        for n in TABLE2_P10_KNOWN
    )
    ok = worst <= 0.03 and mean_ok
    report(
        "4",
        ok,
        f"known/median worst |deviation| {worst:.4f} <= 0.03; "
        f"mean cells >= 1.3x known: {mean_ok}",
    )
    assert ok


# --------------------------------------------------------------------------
# 5-7. limit-law reproductions
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_normal_limit_median_location():
    cfg = ExperimentConfig(
        statistic="qq",
        model=gaussian_model([0.0, 0.0], SHAPE),
        n_grid=(1000,),
        replications=20_000,
        master_seed=20240204,
        location_methods=("median",),
    )
    res = run_experiment(cfg, workers=WORKERS)
    c = res.cells[0]
    var = float(c.values.var())
    rel = abs(var / c.sigma2 - 1.0)
    ks = ks_statistic(c.values, var)
    ok = rel <= 0.10 and ks <= 0.02
    report(
        "5",
        ok,
        f"empirical var {var:.5f} vs limit {c.sigma2:.5f} ({100 * rel:.2f}% <= 10%), "
        f"KS {ks:.4f} <= 0.02",
    )
    assert ok


def _shifted_exponential(n, stream):
    rng = stream.generator()
    return rng.exponential(1.0, size=(n, 2)) - 1.0


@pytest.mark.slow
def test_criterion_6_sandwich_limit_mean_location():
    # skewed continuous model with finite second moments: the plug-in limit
    # covariance differs from the fixed-location one and must match the
    # sandwich, not the naive covariance
    big = _shifted_exponential(2_000_000, SeededStream(61, 1 << 50))
    zero = np.zeros(2)
    S_pop = sscm_fixed(big, zero).matrix
    sens = location_sensitivity(big, zero)
    joint = joint_mean_cov(big, zero)
    sandwich_entry = element_variance(sandwich_cov(sens, joint), 0, 1)
    fixed_entry = element_variance(fixed_location_cov(big, zero), 0, 1)

    n, reps = 2000, 20_000
    vals = np.empty(reps)
    for rep in range(reps):
        X = _shifted_exponential(n, SeededStream(62, rep))
        U = spatial_signs(X - X.mean(axis=0))
        vals[rep] = np.sqrt(n) * (float(U[:, 0] @ U[:, 1]) / n - S_pop[0, 1])
    var = float(vals.var())
    rel = abs(var / sandwich_entry - 1.0)
    ok = rel <= 0.15
    report(
        "6",
        ok,
        f"empirical var {var:.5f} vs sandwich {sandwich_entry:.5f} "
        f"({100 * rel:.2f}% <= 15%; naive fixed-location entry {fixed_entry:.5f})",
    )
    assert ok


@pytest.mark.slow
def test_criterion_7_t2_non_normality_separation():
    cfg = ExperimentConfig(
        statistic="qq",
        model=student_t_model(2.0, [0.0, 0.0], SHAPE),
        n_grid=(1000,),
        replications=50_000,
        master_seed=20240205,
        location_methods=("mean", "median"),
    )
    res = run_experiment(cfg, workers=WORKERS)
    ks = {}
    for c in res.cells:
        ks[c.method] = ks_statistic(c.values, float(c.values.var()))
    ok = ks["mean"] >= 3.0 * ks["median"]
    report(
        "7",
        ok,
        f"shape-KS mean {ks['mean']:.4f} >= 3 x median {ks['median']:.4f} "
        f"(ratio {ks['mean'] / ks['median']:.2f})",
    )
    assert ok


# --------------------------------------------------------------------------
# 8. symmetrized-estimator efficiency
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_ssscm_efficiency_ratio():
    model = gaussian_model([0.0, 0.0], np.eye(2))
    n, reps = 200, 20_000
    v_plain = np.empty(reps)
    v_sym = np.empty(reps)
    for rep in range(reps):
        X = sample(model, n, SeededStream(63, rep))
        med = spatial_median(X).estimate
        U = spatial_signs(X - med)
        v_plain[rep] = float(U[:, 0] @ U[:, 1]) / n
        v_sym[rep] = ssscm(X).matrix[0, 1]
    ratio = float(v_plain.var() / v_sym.var())
    ok = 1.5 <= ratio <= 2.2
    report("8", ok, f"Var(SSCM12)/Var(SSSCM12) = {ratio:.3f} in [1.5, 2.2]")
    assert ok


# --------------------------------------------------------------------------
# 9. singularity-family sweep
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_result():
    cfg = ExperimentConfig(
        statistic="sweep",
        model=singularity_model(0.1, 2),
        n_grid=(10, 100, 1000, 20_000),
        replications=10_000,
        master_seed=20240206,
        location_methods=("mean", "median"),
        p_grid=(2,),
        gamma_grid=(0.05, 0.45),
    )
    res = run_experiment(cfg, workers=WORKERS)
    return {(c.gamma, c.n, c.method): c for c in res.cells}


@pytest.mark.slow
def test_criterion_9a_mean_error_declines(sweep_result):
    seq = [sweep_result[(0.45, n, "mean")] for n in (10, 100, 1000, 20_000)]
    ok = all(
        b.mean < a.mean + np.hypot(a.se, b.se) for a, b in zip(seq, seq[1:])
    )
    path = " -> ".join(f"{c.mean:.4f}" for c in seq)
    report("9a", ok, f"gamma=0.45 mean-location error declines: {path}")
    assert ok


@pytest.mark.slow
def test_criterion_9b_median_beats_mean_at_strong_singularity(sweep_result):
    med = sweep_result[(0.05, 20_000, "median")]
    mean = sweep_result[(0.05, 20_000, "mean")]
    ok = med.mean < mean.mean
    report(
        "9b",
        ok,
        f"gamma=0.05 n=20000: median error {med.mean:.5f} < mean error {mean.mean:.5f}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_9c_median_error_gamma_independent(sweep_result):
    # stated criterion: the two median-location cells agree within 2
    # combined SEs; measured, they differ by a factor ~1.26 (0.00253 at
    # gamma=0.05 vs 0.00201; the near-origin sign cluster under strong
    # singularity, where the medians stop uncertified), so this is red by
    # design rather than loosened
    a = sweep_result[(0.45, 20_000, "median")]
    b = sweep_result[(0.05, 20_000, "median")]
    gap = abs(a.mean - b.mean)
    band = 2.0 * float(np.hypot(a.se, b.se))
    ok = gap <= band
    report(
        "9c",
        ok,
        f"median errors {a.mean:.5f} (gamma=0.45) vs {b.mean:.5f} (gamma=0.05), "
        f"gap {gap:.5f} vs 2SE band {band:.5f}",
    )
    assert ok


# --------------------------------------------------------------------------
# 10. invariant suites
# --------------------------------------------------------------------------

def test_criterion_10_invariant_suites(tmp_path):
    rng = np.random.default_rng(64001)
    checks = {}

    # orthogonal equivariance and scale invariance of the SSCM
    X = rng.standard_normal((30, 3))
    t = rng.standard_normal(3)
    Q = random_orthogonal(rng, 3)
    S = sscm_fixed(X, t).matrix
    checks["orthogonal"] = np.allclose(
        sscm_fixed(X @ Q.T, Q @ t).matrix, Q @ S @ Q.T, atol=1e-10
    )
    checks["scale"] = np.array_equal(sscm_fixed(2.0 * X, 2.0 * t).matrix, S)

    # trace identities and positive semidefiniteness
    Xc = X.copy()
    Xc[3] = t
    checks["trace"] = np.isclose(
        np.trace(sc.sscm_star(Xc, t).matrix), 1.0, atol=1e-12
    ) and np.isclose(np.trace(sscm_fixed(Xc, t).matrix), 29.0 / 30.0, atol=1e-12)
    checks["psd"] = np.linalg.eigvalsh(S).min() >= -1e-10

    # vec/kron identity
    A, B, C = (rng.standard_normal((3, 3)) for _ in range(3))
    checks["vec_kron"] = np.allclose(
        sc.vec(A @ B @ C), sc.kron(C.T, A) @ sc.vec(B), atol=1e-10
    )

    # sign-outer recentering identity
    worst = 0.0
    for _ in range(200):
        x = rng.standard_normal(3)
        tt = rng.standard_normal(3)
        xx = float(x @ x)
        lhs = sc.sign_outer(x - tt)
        rhs = (
            sc.sign_outer(x)
            + (np.outer(tt, tt) - np.outer(x, tt) - np.outer(tt, x)) / xx
            + ((2.0 * float(x @ tt) - float(tt @ tt)) / xx) * sc.sign_outer(x - tt)
        )
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    checks["recentering_identity"] = worst <= 1e-9

    # spatial-median optimality certificate (conditional on the converged
    # flag; ill-conditioned geometries may exhaust max_iterations) and
    # brute-force equivalence
    cert_ok = True
    oracle_ok = True
    converged_count = 0
    opts = MedianOptions()
    for k in range(20):
        n = int(rng.integers(2, 8))
        Xs = rng.uniform(-2.0, 2.0, size=(n, 2))
        res = spatial_median(Xs, opts)
        if res.converged:
            converged_count += 1
            d = Xs - res.estimate
            coinc = np.all(Xs == res.estimate, axis=1)
            rr = np.sqrt((d[~coinc] ** 2).sum(axis=1))
            resultant = np.linalg.norm((d[~coinc] / rr[:, None]).sum(axis=0))
            eta = int(coinc.sum())
            bound = (eta if res.anchored else 0.0) + 10 * opts.tolerance * n
            cert_ok &= resultant <= bound
        want = brute_force_spatial_median(Xs)
        oracle_ok &= l1_objective(Xs, res.estimate) <= l1_objective(Xs, want) + 1e-5
    checks["median_certificate"] = cert_ok and converged_count >= 16
    checks["median_oracle"] = oracle_ok

    # sampler inverse-CDF bound
    n = 10_000
    Xg = sample(singularity_model(0.3, 2), n, SeededStream(64002, 0))
    r = np.sort(sc.row_norms(Xg))
    cdf = r**0.6
    ks = max(
        np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(0, n) / n)
    )
    checks["sampler_ks"] = ks <= 1.63 / np.sqrt(n)

    # parallel determinism: byte-identical CSVs across worker counts
    cfg = ExperimentConfig(
        statistic="table",
        model=gaussian_model([0.0, 0.0], np.eye(2)),
        n_grid=(5, 20),
        replications=48,
        master_seed=64003,
        p_grid=(2, 4),
    )
    blobs = []
    for workers in (1, 2, 8):
        res = run_experiment(cfg, workers=workers)
        path = tmp_path / f"det_{workers}.csv"
        write_result_csv(res, path)
        blobs.append(path.read_bytes())
    checks["parallel_determinism"] = blobs[0] == blobs[1] == blobs[2]

    # sign norm dichotomy on extreme magnitudes
    mags = rng.standard_normal((100, 2)) * 10.0 ** rng.integers(-250, 250, (100, 1))
    norms = sc.row_norms(spatial_signs(mags))
    checks["sign_norm"] = bool(np.all(np.abs(norms - 1.0) <= 1e-12)) and np.array_equal(
        spatial_sign(np.zeros(2)), np.zeros(2)
    )

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    report("10", ok, "all invariant suites hold" if ok else f"failed: {failed}")
    assert ok
