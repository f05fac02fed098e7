import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import signcov.simharness as harness
from signcov import (
    ExperimentConfig,
    InvalidInputError,
    MedianOptions,
    SeededStream,
    gaussian_model,
    ks_statistic,
    run_experiment,
    run_gamma_sweep,
    run_qq_experiment,
    run_table_experiment,
    sample,
    singularity_model,
    student_t_model,
    write_metadata_json,
    write_result_csv,
)
from signcov.cli import main

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
     dict(median_max_iterations=0),
     # vacuous certificates: at 0.2 and above every point passes
     dict(median_tolerance=float("inf")), dict(median_tolerance=0.2),
     dict(median_max_iterations=2.5)],
)
def test_invalid_median_options_rejected_by_config(overrides):
    with pytest.raises(InvalidInputError):
        small_table_config(**overrides)
    with pytest.raises(InvalidInputError):  # before any qq reference draw
        ExperimentConfig(
            statistic="qq", model=gaussian_model([0.0, 0.0], SHAPE), n_grid=(10,),
            replications=4, master_seed=3, **overrides,
        )


@pytest.mark.parametrize("key,value", [
    ("n_grid", [5.9]), ("p_grid", [3.7]), ("replications", 2.5),
    ("master_seed", 1.7), ("replications", True), ("master_seed", True),
    ("n_grid", [True]),
])
def test_non_integer_counts_rejected_by_config(tmp_path, capsys, key, value):
    # int() would run p = 3.7 as 3 and seed 1.7 as 1, and read true as 1
    d = small_table_config().to_json_dict()
    d[key] = value
    with pytest.raises(InvalidInputError, match=key):
        ExperimentConfig.from_json_dict(d)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main(["table", "--config", str(path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err and not out.exists()


def test_whole_float_counts_accepted_from_json():
    d = small_table_config().to_json_dict()
    d.update(n_grid=[5.0, 1e1], replications=4e1, master_seed=1001.0)
    cfg = ExperimentConfig.from_json_dict(d)
    assert cfg == small_table_config()
    assert all(type(v) is int for v in (*cfg.n_grid, cfg.replications, cfg.master_seed))


@pytest.mark.parametrize("text", ["1000.0", "1e3", "7"])
def test_integral_median_max_iterations_accepted_from_json(text):
    d = small_table_config().to_json_dict()
    d["median_max_iterations"] = json.loads(text)
    cfg = ExperimentConfig.from_json_dict(d)
    assert cfg.median_options.max_iterations == float(text)
    assert type(cfg.median_max_iterations) is int


def test_block_size_counts_the_newton_system():
    # the spatial median's (B, p, p) Newton systems count against the same
    # 2**15-element budget as the (B, n, p) samples
    assert harness._block_size(30, 10) == harness._block_size(5, 10) == 64
    assert harness._block_size(1000, 2) == 16 and harness._block_size(20000, 2) == 1
    assert harness._block_size(5, 100) == 3  # 2**15 // (5 * 100) would give 64
    assert harness._block_size(5, 1000) == 1  # was 6: 48 MB per (B, p, p) array
    for n, p in [(5, 100), (3, 60), (30, 10), (50, 50), (2, 40)]:
        B = harness._block_size(n, p)
        assert B * max(n, p) * p <= 2**15 < (B + 1) * max(n, p) * p or B == 64


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
    # every key written is a key read
    assert set(cfg.to_json_dict()) == harness._CONFIG_KEYS


def test_config_unknown_key_rejected():
    d = small_table_config().to_json_dict()
    with pytest.raises(InvalidInputError, match="'median_tolerence'"):
        ExperimentConfig.from_json_dict({**d, "median_tolerence": 0})


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
    # in the second config R = 70 is no multiple of either cell's block
    # size (64 at n = 5, 8 at n = 2000), so each cell ends on a short block
    ragged = small_table_config(p_grid=(2,), n_grid=(5, 2000), replications=70)
    sizes = [harness._block_size(n, 2) for n in ragged.n_grid]
    assert sizes[0] != sizes[1] and all(70 % b for b in sizes)
    for cfg in (small_table_config(replications=30), ragged):
        paths = []
        for workers in (1, 2, 3, 4):
            res = run_table_experiment(cfg, workers=workers)
            path = tmp_path / f"table_{workers}.csv"
            write_result_csv(res, path)
            paths.append(path.read_bytes())
        assert len(set(paths)) == 1


def _block_cases():
    """(config, payload) per statistic, with the table at p > n (the Gram
    path) and at p <= n."""
    qq = ExperimentConfig(statistic="qq", model=gaussian_model([0.0, 0.0], SHAPE),
                          n_grid=(12,), replications=9, master_seed=5)
    sweep = ExperimentConfig(statistic="sweep", model=singularity_model(0.05, 2),
                             n_grid=(15,), replications=9, master_seed=5,
                             p_grid=(2,), gamma_grid=(0.05,))
    return {
        "table_gram": (small_table_config(p_grid=(6,)), gaussian_model(np.zeros(6), np.eye(6)), 4),
        "table": (small_table_config(p_grid=(3,)), gaussian_model(np.zeros(3), np.eye(3)), 20),
        "qq": (qq, qq.model, 12),
        "sweep": (sweep, singularity_model(0.05, 2), 15),
    }


@pytest.mark.parametrize("case", sorted(_block_cases()))
def test_block_values_match_one_replication_at_a_time(case):
    config, model, n = _block_cases()[case]
    payload = {"model": model, "n": n, "target": 0.25}
    X = np.stack([sample(model, n, SeededStream(9, k)) for k in range(9)])
    block = harness._block_values(config, payload, X)
    one_by_one = np.vstack([harness._block_values(config, payload, x[None]) for x in X])
    assert block.shape == (9, 3) and block.tobytes() == one_by_one.tobytes()


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    with pytest.raises(InvalidInputError, match="workers"):
        run_table_experiment(small_table_config(), workers=workers)
    qq = ExperimentConfig(
        statistic="qq", model=gaussian_model([0.0, 0.0], SHAPE), n_grid=(10,),
        replications=4, master_seed=3,
    )
    with pytest.raises(InvalidInputError, match="workers"):
        run_qq_experiment(qq, workers=workers)


class _SerialPool:
    """Stand-in for a multiprocessing pool that maps in this process, so no
    worker process starts; it runs the initializer once, as a worker would."""

    def __init__(self, initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=None):
        return list(map(fn, items))


@pytest.mark.parametrize(
    "workers,cpus,expected",
    [(1000, 3, 3), (1000, 64, 12), (5, 64, 5), (2, None, None)],
)
def test_pool_capped_by_tasks_and_cpus(tmp_path, monkeypatch, workers, cpus, expected):
    # 2 x 2 cells of 3 whole blocks, at most one block per task whenever
    # the pool may have 3 or more workers: 12 tasks
    cfg = small_table_config(replications=3 * 64)
    assert {harness._block_size(n, p) for p in cfg.p_grid for n in cfg.n_grid} == {64}
    serial = tmp_path / "serial.csv"
    write_result_csv(run_table_experiment(cfg, workers=1), serial)
    sizes = []

    def pool(processes, initializer=None, initargs=()):
        sizes.append(processes)
        return _SerialPool(initializer, initargs)

    monkeypatch.setattr(harness.multiprocessing, "Pool", pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    pooled = tmp_path / "pooled.csv"
    write_result_csv(run_table_experiment(cfg, workers=workers), pooled)
    # os.cpu_count() may report None: one worker, no pool
    assert sizes == ([] if expected is None else [expected])
    assert pooled.read_bytes() == serial.read_bytes()


# ---------------------------------------------------------------------------
# one BLAS thread per replication process
# ---------------------------------------------------------------------------

def _blas_threads():
    return [get() for get, _ in harness._openblas_thread_controls()]


@pytest.fixture
def blas_at_two_threads():
    """Every loaded OpenBLAS at 2 threads, so that both the pin to one
    thread and the restore show; the counts found are put back after."""
    controls = harness._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    yield [2] * len(controls)
    for (_, set_threads), n in zip(controls, before):
        set_threads(n)


def _recording_block_values(seen):
    """harness._block_values that first records the BLAS thread counts."""
    block_values = harness._block_values

    def recording(*args):
        seen.append(_blas_threads())
        return block_values(*args)

    return recording


def test_every_loaded_openblas_found(blas_at_two_threads):
    # numpy and scipy wheels each bring their own OpenBLAS, under different
    # symbol names; pinning only one of them is not enough
    with open("/proc/self/maps") as fh:
        loaded = {line.split(None, 5)[-1].strip() for line in fh}
    loaded = {path for path in loaded if "openblas" in os.path.basename(path)}
    assert len(blas_at_two_threads) == len(loaded)


def test_replications_run_with_one_blas_thread_then_restore(
    monkeypatch, blas_at_two_threads
):
    seen = []
    monkeypatch.setattr(harness, "_block_values", _recording_block_values(seen))
    run_experiment(small_table_config(replications=3), workers=1)
    assert seen and all(c == [1] * len(blas_at_two_threads) for c in seen)
    assert _blas_threads() == blas_at_two_threads


def test_pin_leaves_libraries_at_one_thread_alone(blas_at_two_threads):
    # a forked worker inherits the pin; setting it again would restart the
    # BLAS thread pool the fork shut down
    with harness._one_blas_thread():
        assert harness._pin_one_blas_thread() == []
    assert _blas_threads() == blas_at_two_threads


def test_blas_threads_restored_when_a_replication_raises(
    monkeypatch, blas_at_two_threads
):
    def fail(*args):
        raise RuntimeError("replication failed")

    monkeypatch.setattr(harness, "_block_values", fail)
    with pytest.raises(RuntimeError, match="replication failed"):
        run_experiment(small_table_config(), workers=1)
    assert _blas_threads() == blas_at_two_threads


def test_csv_unchanged_where_no_openblas_is_found(tmp_path, monkeypatch):
    cfg = small_table_config(replications=5)
    pinned, unpinned = tmp_path / "pinned.csv", tmp_path / "unpinned.csv"
    write_result_csv(run_experiment(cfg, workers=1), pinned)
    monkeypatch.setattr(harness, "_openblas_thread_controls", lambda: [])
    write_result_csv(run_experiment(cfg, workers=1), unpinned)
    assert unpinned.read_bytes() == pinned.read_bytes()


def test_pool_created_with_the_pin_initializer(monkeypatch, blas_at_two_threads):
    initializers, seen = [], []

    def pool(processes, initializer=None, initargs=()):
        initializers.append(initializer)
        return _SerialPool(initializer, initargs)

    monkeypatch.setattr(harness.multiprocessing, "Pool", pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "_block_values", _recording_block_values(seen))
    run_experiment(small_table_config(replications=3), workers=2)
    assert initializers == [harness._pin_one_blas_thread]
    assert seen and all(c == [1] * len(blas_at_two_threads) for c in seen)
    assert _blas_threads() == blas_at_two_threads


def test_pin_initializer_reaches_spawned_workers(monkeypatch, blas_at_two_threads):
    # a spawned worker inherits nothing of the parent's BLAS state, only
    # the environment: without the initializer it would run at 2 threads
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    spawn = multiprocessing.get_context("spawn")
    with spawn.Pool(1) as pool:
        unpinned = pool.apply_async(_blas_threads).get(timeout=120)
    with spawn.Pool(1, initializer=harness._pin_one_blas_thread) as pool:
        pinned = pool.apply_async(_blas_threads).get(timeout=120)
    assert unpinned == blas_at_two_threads
    assert pinned == [1] * len(blas_at_two_threads)


# p=2 sweep at n=12000: above OpenBLAS's threading cut-offs for ddot
# (n > 10000) and for the Weiszfeld gemv w @ diffs (n * p >= 9216)
SWEEP_ABOVE_BLAS_CUTOFFS = {
    "statistic": "sweep",
    "model": {"generator": "singularity", "mu": [0.0, 0.0],
              "V": [[1.0, 0.0], [0.0, 1.0]], "gamma": 0.45},
    "p_grid": [2], "gamma_grid": [0.45], "n_grid": [12000],
    "replications": 4, "master_seed": 11,
}
CLI = "import sys, signcov.cli; sys.exit(signcov.cli.main(sys.argv[1:]))"


def test_sweep_csv_independent_of_blas_threads(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SWEEP_ABOVE_BLAS_CUTOFFS))
    src = str(Path(harness.__file__).resolve().parents[1])
    digests = {}
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
        }
        for workers in ("1", "2"):
            out = tmp_path / f"threads{threads}_workers{workers}"
            subprocess.run(
                [sys.executable, "-c", CLI, "sweep", "--config", str(cfg),
                 "--workers", workers, "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            digests[threads, workers] = hashlib.sha256(
                (out / "sweep.csv").read_bytes()
            ).hexdigest()
    assert len(set(digests.values())) == 1, digests


# records the scipy modules loaded at each clock reading of a qq run
QQ_CLOCK_PROBE = """
import json, sys
import signcov.simharness as harness
from signcov import ExperimentConfig, gaussian_model

seen, clock = [], harness.time.perf_counter
def recording():
    seen.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    return clock()
harness.time.perf_counter = recording
harness.run_experiment(ExperimentConfig(
    statistic="qq", model=gaussian_model([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]]),
    n_grid=(5,), replications=3, master_seed=1,
))
print(json.dumps(seen))
"""


def test_qq_scipy_loads_before_the_clock():
    # scipy loads on first use; had it loaded inside the clock, wall_time
    # and the rate derived from it would count the import. Only a fresh
    # interpreter shows this: the test process has long loaded scipy.
    src = str(Path(harness.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", QQ_CLOCK_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=300,
    )
    start, *_, stop = json.loads(proc.stdout)
    assert {"scipy.integrate", "scipy.special"} <= set(start)
    assert stop == start


def test_qq_structure_and_determinism():
    cfg = ExperimentConfig(
        statistic="qq",
        model=gaussian_model([0.0, 0.0], SHAPE),
        n_grid=(50, 200),
        replications=64,
        master_seed=1002,
        location_methods=("mean", "median"),
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
