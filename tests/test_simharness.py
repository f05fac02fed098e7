import dataclasses
import json

import numpy as np
import pytest
from scipy.stats import norm

import signcov.simharness as harness
from signcov import (
    ExperimentConfig,
    InvalidInputError,
    MedianOptions,
    gaussian_model,
    ks_statistic,
    run_experiment,
    run_gamma_sweep,
    run_qq_experiment,
    run_table_experiment,
    singularity_model,
    student_t_model,
    write_metadata_json,
    write_result_csv,
)

SHAPE = np.array([[1.0, 0.5], [0.5, 1.0]])


def small_table_config(**overrides):
    base = dict(
        statistic="table",
        model=gaussian_model([0.0, 0.0], np.eye(2)),
        n_grid=(5, 10),
        replications=40,
        master_seed=1001,
        p_grid=(2, 3),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_ks_statistic_normal_sample():
    rng = np.random.default_rng(60)
    n = 10_000
    x = rng.normal(0.0, 2.0, size=n)
    assert ks_statistic(x, 4.0) <= 1.63 / np.sqrt(n)


def test_ks_statistic_constant_sample():
    assert ks_statistic(np.zeros(50), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_ks_statistic_symmetric_reference():
    rng = np.random.default_rng(61)
    x = rng.normal(size=500)
    assert ks_statistic(-x, 1.0) == pytest.approx(ks_statistic(x, 1.0), abs=1e-12)


def test_ks_statistic_validation():
    with pytest.raises(InvalidInputError):
        ks_statistic([], 1.0)
    with pytest.raises(InvalidInputError):
        ks_statistic([1.0], 0.0)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        small_table_config(replications=0)
    with pytest.raises(InvalidInputError):
        small_table_config(location_methods=("nope",))
    with pytest.raises(InvalidInputError):
        small_table_config(p_grid=())
    with pytest.raises(InvalidInputError):
        small_table_config(model=gaussian_model([0.0, 0.0], SHAPE))  # not spherical
    with pytest.raises(InvalidInputError):
        ExperimentConfig(
            statistic="sweep",
            model=gaussian_model([0.0, 0.0], np.eye(2)),  # sweep needs singularity
            n_grid=(10,),
            replications=5,
            master_seed=1,
            p_grid=(2,),
            gamma_grid=(0.1,),
        )
    with pytest.raises(InvalidInputError):
        ExperimentConfig(
            statistic="qq",
            model=gaussian_model([0.0, 0.0], SHAPE),
            n_grid=(10,),
            replications=5,
            master_seed=1,
            element=(0, 5),
        )


@pytest.mark.parametrize(
    "overrides",
    [dict(median_tolerance=0.0), dict(median_tolerance=-1e-8),
     dict(median_max_iterations=0)],
)
def test_invalid_median_options_rejected_by_config(overrides):
    with pytest.raises(InvalidInputError):
        small_table_config(**overrides)
    with pytest.raises(InvalidInputError):  # before any qq reference draw
        ExperimentConfig(
            statistic="qq", model=gaussian_model([0.0, 0.0], SHAPE), n_grid=(10,),
            replications=4, master_seed=3, **overrides,
        )


def test_config_builds_median_options_once():
    cfg = small_table_config(median_tolerance=1e-7, median_max_iterations=50)
    assert cfg.median_options == MedianOptions(tolerance=1e-7, max_iterations=50)
    assert dataclasses.replace(cfg, median_tolerance=1e-6).median_options == (
        MedianOptions(tolerance=1e-6, max_iterations=50)
    )
    assert "median_options" not in cfg.to_json_dict()


def test_config_json_round_trip_and_digest():
    cfg = small_table_config()
    back = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert back == cfg
    assert back.digest() == cfg.digest()
    assert cfg.fast_profile().replications == 4


def test_table_grid_completeness_and_se():
    cfg = small_table_config()
    res = run_table_experiment(cfg, workers=1)
    assert len(res.cells) == 2 * 2 * 3
    assert all(c.se >= 0.0 for c in res.cells)
    assert all(c.replications == 40 for c in res.cells)


def test_table_determinism_same_seed():
    cfg = small_table_config()
    a = run_table_experiment(cfg, workers=1)
    b = run_table_experiment(cfg, workers=1)
    assert all(
        x.mean == y.mean and x.se == y.se for x, y in zip(a.cells, b.cells)
    )


def test_worker_count_independence(tmp_path):
    cfg = small_table_config(replications=30)
    paths = []
    for workers in (1, 2, 4):
        res = run_table_experiment(cfg, workers=workers)
        path = tmp_path / f"table_{workers}.csv"
        write_result_csv(res, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    with pytest.raises(InvalidInputError, match="workers"):
        run_table_experiment(small_table_config(), workers=workers)
    qq = ExperimentConfig(
        statistic="qq", model=gaussian_model([0.0, 0.0], SHAPE), n_grid=(10,),
        replications=4, master_seed=3, ref_draws=1000,
    )
    with pytest.raises(InvalidInputError, match="workers"):
        run_qq_experiment(qq, workers=workers)


class _SerialPool:
    """Stand-in for a multiprocessing pool that maps in this process, so no
    worker process starts."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


@pytest.mark.parametrize(
    "workers,cpus,expected",
    [(1000, 3, 3), (1000, 64, 12), (5, 64, 5), (2, None, None)],
)
def test_pool_capped_by_tasks_and_cpus(tmp_path, monkeypatch, workers, cpus, expected):
    # 2 x 2 cells of 3 replications, one replication per task: 12 tasks
    cfg = small_table_config(replications=3)
    serial = tmp_path / "serial.csv"
    write_result_csv(run_table_experiment(cfg, workers=1), serial)
    sizes = []

    def pool(processes):
        sizes.append(processes)
        return _SerialPool()

    monkeypatch.setattr(harness.multiprocessing, "Pool", pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    pooled = tmp_path / "pooled.csv"
    write_result_csv(run_table_experiment(cfg, workers=workers), pooled)
    # os.cpu_count() may report None: one worker, no pool
    assert sizes == ([] if expected is None else [expected])
    assert pooled.read_bytes() == serial.read_bytes()


def test_qq_structure_and_determinism():
    cfg = ExperimentConfig(
        statistic="qq",
        model=gaussian_model([0.0, 0.0], SHAPE),
        n_grid=(50, 200),
        replications=64,
        master_seed=1002,
        location_methods=("mean", "median"),
        ref_draws=20_000,
    )
    res = run_qq_experiment(cfg, workers=2)
    assert len(res.cells) == 2 * 2
    for c in res.cells:
        assert np.all(np.diff(c.values) >= 0.0)
        assert len(c.values) == 64 and len(c.reference) == 64
        assert c.sigma2 > 0.0
        # reference quantiles are the (k - 1/2)/R normal quantiles
        probs = (np.arange(1, 65) - 0.5) / 64
        np.testing.assert_allclose(
            c.reference, norm.ppf(probs) * np.sqrt(c.sigma2), atol=1e-12
        )
    res2 = run_qq_experiment(cfg, workers=1)
    for a, b in zip(res.cells, res2.cells):
        assert np.array_equal(a.values, b.values)
        assert a.ks == b.ks


def test_sweep_structure():
    cfg = ExperimentConfig(
        statistic="sweep",
        model=singularity_model(0.1, 2),
        n_grid=(10, 50),
        replications=50,
        master_seed=1003,
        location_methods=("mean", "median"),
        p_grid=(2,),
        gamma_grid=(0.1, 0.3),
    )
    res = run_gamma_sweep(cfg, workers=2)
    assert len(res.cells) == 1 * 2 * 2 * 2
    assert all(c.mean >= 0.0 and c.se >= 0.0 for c in res.cells)
    assert all(c.gamma in (0.1, 0.3) for c in res.cells)


def test_run_experiment_dispatch_and_mismatch():
    cfg = small_table_config(replications=5)
    res = run_experiment(cfg, workers=1)
    assert res.statistic == "table"
    with pytest.raises(InvalidInputError):
        run_qq_experiment(cfg)


def test_csv_and_metadata_artifacts(tmp_path):
    cfg = small_table_config(replications=10)
    res = run_table_experiment(cfg, workers=1)
    csv_path = tmp_path / "table.csv"
    meta_path = tmp_path / "meta.json"
    write_result_csv(res, csv_path)
    write_metadata_json(res, meta_path)

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "p,n,method,mean,se,replications"
    assert len(lines) == 1 + len(res.cells)
    # values round-trip exactly through repr
    first = lines[1].split(",")
    assert float(first[3]) == res.cells[0].mean

    meta = json.loads(meta_path.read_text())
    assert meta["statistic"] == "table"
    assert meta["master_seed"] == 1001
    assert meta["config"]["replications"] == 10
    assert "numpy" in meta["versions"]
    assert len(meta["cells"]) == len(res.cells)
    assert meta["wall_time"] >= 0.0


def test_qq_csv_rows_per_quantile_pair(tmp_path):
    cfg = ExperimentConfig(
        statistic="qq",
        model=gaussian_model([0.0, 0.0], SHAPE),
        n_grid=(30,),
        replications=20,
        master_seed=1004,
        location_methods=("median",),
        ref_draws=10_000,
    )
    res = run_qq_experiment(cfg, workers=1)
    path = tmp_path / "qq.csv"
    write_result_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,method,rank,empirical,reference"
    assert len(lines) == 1 + 20


@pytest.mark.slow
def test_qq_gaussian_median_near_perfect_normality():
    # at n = 1000 the scaled off-diagonal error under the median location is
    # visually indistinguishable from its normal limit; the central-98%
    # quantile gap against the MC-calibrated reference stays below 0.05 sigma
    cfg = ExperimentConfig(
        statistic="qq",
        model=gaussian_model([0.0, 0.0], SHAPE),
        n_grid=(1000,),
        replications=100_000,
        master_seed=1005,
        location_methods=("median",),
    )
    res = run_qq_experiment(cfg, workers=2)
    c = res.cells[0]
    sigma = np.sqrt(c.sigma2)
    R = len(c.values)
    lo, hi = int(0.01 * R), int(0.99 * R)
    gap = np.abs(c.values[lo:hi] - c.reference[lo:hi]).max()
    assert gap <= 0.05 * sigma
