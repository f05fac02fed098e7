import dataclasses
import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import norm

import signcov.linalg as linalg
import signcov.location as location
import signcov.simharness as harness
from signcov import (
    ExperimentConfig,
    InvalidInputError,
    MedianOptions,
    SeededStream,
    gaussian_model,
    ks_statistic,
    run_experiment,
    sample,
    singularity_model,
    spatial_signs,
    sscm_fixed,
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


@pytest.mark.parametrize("seed", [62, 63, 64])
def test_ks_statistic_matches_scipy_ndtr(seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.standard_t(3.0, size=700) * 1.7)
    sigma2 = rng.uniform(0.5, 4.0)
    F, n = ndtr(x / np.sqrt(sigma2)), x.size
    expected = max((np.arange(1, n + 1) / n - F).max(), (F - np.arange(n) / n).max())
    assert abs(ks_statistic(x, sigma2) - expected) <= 1e-15


@pytest.mark.parametrize("R", [1, 2, 3, 7, 100, 10_000])
def test_qq_reference_quantiles_match_scipy_ndtri(R, monkeypatch):
    # at sigma^2 = 1 the reference column is the N(0, 1) quantiles themselves
    unit = SimpleNamespace(element_variance=lambda i, j: 1.0)
    monkeypatch.setattr(harness, "sign_moments", lambda V: unit)
    config = ExperimentConfig(statistic="qq", model=gaussian_model([0.0, 0.0], SHAPE),
                              n_grid=(5,), replications=R, master_seed=1)
    sigma2, reference = harness._qq_reference(config)[1]
    expected = ndtri((np.arange(1, R + 1) - 0.5) / R)
    assert sigma2 == 1.0
    assert np.all(np.abs(reference - expected) <= 1e-15 * np.abs(expected))


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
    with pytest.raises(InvalidInputError, match="element"):  # not run as (0, 1)
        ExperimentConfig(statistic="qq", model=gaussian_model([0.0, 0.0], SHAPE),
                         n_grid=(10,), replications=5, master_seed=1, element=(0.7, 1))


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
    assert harness._block_size(5, 10) == harness._block_size(10, 10) == 327
    assert harness._block_size(20, 10) == 163 and harness._block_size(30, 10) == 109
    assert harness._block_size(1000, 2) == 16 and harness._block_size(20000, 2) == 1
    assert harness._block_size(5, 100) == 3  # 2**15 // (5 * 100) would give 65
    assert harness._block_size(5, 1000) == 1  # was 6: 48 MB per (B, p, p) array
    for n, p in [(5, 100), (3, 60), (30, 10), (50, 50), (2, 40), (5, 2), (100, 10)]:
        B = harness._block_size(n, p)
        assert B * max(n, p) * p <= 2**15 < (B + 1) * max(n, p) * p


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


def test_config_unknown_key_rejected():
    d = small_table_config().to_json_dict()
    with pytest.raises(InvalidInputError, match="'median_tolerence'"):
        ExperimentConfig.from_json_dict({**d, "median_tolerence": 0})


def test_config_of_required_keys_only_takes_the_field_defaults():
    model = gaussian_model([0.0, 0.0], SHAPE)
    required = dict(statistic="qq", n_grid=(5,), replications=3, master_seed=7)
    cfg = ExperimentConfig.from_json_dict(
        {**required, "n_grid": [5], "model": model.to_json_dict()})
    assert cfg == ExperimentConfig(model=model, **required)
    assert list(cfg.to_json_dict()) == [
        "statistic", "model", "n_grid", "replications", "master_seed", "methods",
        "p_grid", "gamma_grid", "element", "median_tolerance", "median_max_iterations",
    ]


SPHERICAL3 = gaussian_model([0.0, 0.0, 0.0], np.eye(3))
UNREAD_BASE = {
    "table": dict(statistic="table", model=SPHERICAL3, p_grid=(3,)),
    "qq": dict(statistic="qq", model=SPHERICAL3),
    "sweep": dict(statistic="sweep", model=singularity_model(0.3, 3), p_grid=(3,),
                  gamma_grid=(0.3,)),
}


@pytest.mark.parametrize("statistic,key,value", [
    ("table", "element", (0, 2)), ("table", "gamma_grid", (0.5,)),
    ("qq", "p_grid", (9,)), ("qq", "gamma_grid", (0.5,)),
    ("sweep", "element", (7, 9)), ("sweep", "element", (0, 2)),
])
def test_config_rejects_a_field_its_statistic_does_not_read(statistic, key, value):
    # the statistic would ignore the value and the metadata record it as used
    base = dict(UNREAD_BASE[statistic], n_grid=(5,), replications=2, master_seed=1)
    cfg = ExperimentConfig(**base)
    # the defaults the writer spells out read back
    assert ExperimentConfig.from_json_dict(cfg.to_json_dict()) == cfg
    with pytest.raises(InvalidInputError, match=f"^{key} does not apply to {statistic}$"):
        ExperimentConfig(**base, **{key: value})
    with pytest.raises(InvalidInputError, match=f"^{key} does not apply to {statistic}$"):
        ExperimentConfig.from_json_dict({**cfg.to_json_dict(), key: list(value)})


@pytest.mark.parametrize("key,value", [
    ("gamma_grid", ["0.5"]), ("gamma_grid", [True]), ("gamma_grid", [0.5, True]),
    ("median_tolerance", "1e-8"), ("median_tolerance", True),
])
def test_config_json_takes_only_numbers_where_numbers_are_meant(key, value):
    # "0.5" ran as 0.5 and true as gamma = 1; numpy values from Python still read
    body = ExperimentConfig(**UNREAD_BASE["sweep"], n_grid=(5,), replications=2,
                            master_seed=1).to_json_dict()
    with pytest.raises(InvalidInputError, match=f"^config key '{key}' takes numbers"):
        ExperimentConfig.from_json_dict({**body, key: value})
    cfg = ExperimentConfig.from_json_dict(
        {**body, "gamma_grid": np.array([0.5]), "median_tolerance": np.float64(1e-8)})
    assert cfg.gamma_grid == (0.5,) and cfg.median_tolerance == 1e-8


def test_readme_config_keys_match_the_config():
    # README's example config reads, and its table of keys lists the writer's
    # keys in order, each with its field's default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("with, e.g.,\n\n```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_json_dict(json.loads(example))
    section = readme.split("### Experiment config keys", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.M)
    assert [key for key, _ in rows] == list(cfg.to_json_dict())
    fields = [f for f in dataclasses.fields(ExperimentConfig) if f.init]
    assert [cell for _, cell in rows] == [
        "required" if f.default is dataclasses.MISSING
        else f"`{json.dumps(list(f.default) if isinstance(f.default, tuple) else f.default)}`"
        for f in fields
    ]


def test_table_grid_completeness_and_se():
    cfg = small_table_config()
    res = run_experiment(cfg, workers=1)
    assert len(res.cells) == 2 * 2 * 3
    assert all(c.se >= 0.0 for c in res.cells)
    assert all(c.replications == 40 for c in res.cells)


def test_table_determinism_same_seed():
    cfg = small_table_config()
    a = run_experiment(cfg, workers=1)
    b = run_experiment(cfg, workers=1)
    assert all(
        x.mean == y.mean and x.se == y.se for x, y in zip(a.cells, b.cells)
    )


def test_worker_count_independence(tmp_path):
    # in the second config R = 70 is no multiple of either cell's block
    # size (3276 at n = 5, 8 at n = 2000), so each cell ends on a short block
    ragged = small_table_config(p_grid=(2,), n_grid=(5, 2000), replications=70)
    sizes = [harness._block_size(n, 2) for n in ragged.n_grid]
    assert sizes[0] != sizes[1] and all(70 % b for b in sizes)
    for cfg in (small_table_config(replications=30), ragged):
        paths = []
        for workers in (1, 2, 3, 4):
            res = run_experiment(cfg, workers=workers)
            path = tmp_path / f"table_{workers}.csv"
            write_result_csv(res, path)
            paths.append(path.read_bytes())
        assert len(set(paths)) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_above_64_match_blocks_of_at_most_64(tmp_path, monkeypatch, workers):
    # R = 400 at p = 10 runs blocks of 327 + 73 at n = 5 and 3 x 109 + 73 at
    # n = 30; under the earlier cap every block held at most 64 replications
    cfg = small_table_config(p_grid=(10,), n_grid=(5, 30), replications=400)
    assert [harness._block_size(n, 10) for n in cfg.n_grid] == [327, 109]
    budget, capped = tmp_path / "budget.csv", tmp_path / "capped.csv"
    write_result_csv(run_experiment(cfg, workers=workers), budget)
    rule = harness._block_size
    monkeypatch.setattr(harness, "_block_size", lambda n, p: min(64, rule(n, p)))
    write_result_csv(run_experiment(cfg, workers=workers), capped)
    assert budget.read_bytes() == capped.read_bytes()


def _block_cases():
    """(config, model, n) per statistic, with the table at p > n (the Gram
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
    X = np.stack([sample(model, n, SeededStream(9, k)) for k in range(9)])
    block = harness._block_values(config, model, X)
    one_by_one = np.vstack([harness._block_values(config, model, x[None]) for x in X])
    assert block.shape == (9, 3) and block.tobytes() == one_by_one.tobytes()


@pytest.mark.parametrize("mu, skips", [([0.0, 0.0], True), ([-0.0, 0.0], False),
                                      ([0.0, 1.5], False)])
def test_known_signs_at_a_zero_center_skip_only_a_plus_zero_subtraction(mu, skips, monkeypatch):
    # X - (+0.0) is X bit for bit; X - (-0.0) turns -0.0 into +0.0, so a
    # center holding -0.0 keeps the subtraction; the harness and the library
    # take their signs about a location through the same path
    model = gaussian_model(mu, SHAPE)
    config = ExperimentConfig(statistic="qq", model=model, n_grid=(6,), replications=3,
                              master_seed=5, location_methods=("known",))
    X = np.stack([sample(model, 6, SeededStream(9, k)) for k in range(3)])
    X[:, ::2, 0] = -0.0
    signed = []
    monkeypatch.setattr(linalg, "spatial_signs",
                        lambda D: signed.append(D) or spatial_signs(D))
    harness._block_values(config, model, X)
    assert signed[0].tobytes() == (X - np.asarray(mu)).tobytes()
    assert (signed[0] is X) == skips
    X0, t = X[0], np.asarray(mu)
    S = sscm_fixed(X0, t).matrix
    assert signed[-1].tobytes() == (X0 - t).tobytes()
    assert (signed[-1] is X0) == skips
    U = spatial_signs(X0 - t)
    assert S.tobytes() == (linalg.symmetrize(U.T @ U) / 6).tobytes()


def test_large_n_replication_rescues_no_norm(monkeypatch):
    # the vertex test drops the vertex's own zero row before the norms, and
    # at n = 20000, gamma = 0.45 no other difference leaves the plain range;
    # the gate may rule every nearby vertex out, so the test of the vertex
    # nearest the median runs directly too
    model = singularity_model(0.45, 2)
    config = ExperimentConfig(statistic="sweep", model=model, n_grid=(20_000,),
                              replications=1, master_seed=3, p_grid=(2,), gamma_grid=(0.45,))
    calls = {"rescaled": 0}
    rescaled = linalg._rescaled

    def counting(*a):
        calls["rescaled"] += 1
        return rescaled(*a)

    monkeypatch.setattr(linalg, "_rescaled", counting)
    X = sample(model, 20_000, SeededStream(3, 0))[None]
    harness._block_values(config, model, X)
    median = location.spatial_median(X[0]).estimate
    nearest = X[0, linalg.row_norms(X[0] - median).argmin()]
    assert not location._anchored_optimal_at(X[0], nearest)
    assert calls["rescaled"] == 0


@pytest.mark.parametrize("B", [1, 16])
@pytest.mark.parametrize("n", [1, 2, 1000, 20_000])
def test_p2_block_means_match_numpy_mean_bitwise(B, n):
    rng = np.random.default_rng(1000 * B + n)
    for scale in (1e-3, 1.0, 1e5):
        X = scale * rng.standard_normal((B, n, 2))
        assert location._block_means(X).tobytes() == X.mean(axis=1).tobytes()


def test_p1_block_means_keep_numpy_mean():
    # numpy sums a p = 1 block pairwise, which a sequential sum does not match
    rng = np.random.default_rng(17)
    X = next(X for X in (rng.standard_normal((1, 1000, 1)) for _ in range(100))
             if np.add.accumulate(X[..., 0], axis=1)[0, -1] / 1000 != X.mean())
    assert location._block_means(X).tobytes() == X.mean(axis=1).tobytes()


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    with pytest.raises(InvalidInputError, match="workers"):
        run_experiment(small_table_config(), workers=workers)
    qq = ExperimentConfig(
        statistic="qq", model=gaussian_model([0.0, 0.0], SHAPE), n_grid=(10,),
        replications=4, master_seed=3,
    )
    with pytest.raises(InvalidInputError, match="workers"):
        run_experiment(qq, workers=workers)


# ---------------------------------------------------------------------------
# the fork dispatcher: each test forks in a fresh interpreter under a
# timeout, so that a deadlock fails the test instead of stalling the suite
# ---------------------------------------------------------------------------

DISPATCH_PRELUDE = """
import json, os, signal, sys, time
import signcov.simharness as harness
from signcov import ExperimentConfig, InvalidInputError, write_result_csv

PARENT = os.getpid()
CONFIG = ExperimentConfig.from_json_dict(json.loads(sys.argv[1]))
LOG = sys.argv[2]
run_task = harness._run_task


def note(*record):  # one line per record, appended whole by each process
    with open(LOG, "a") as fh:
        fh.write(json.dumps([os.getpid(), *record]) + "\\n")


def slow_parent(task):  # so that the children run most tasks
    if os.getpid() == PARENT:
        time.sleep(0.05)
    note("task", task[2], task[3])
    return run_task(task)


def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def dispatch_config():
    """2 x 2 table cells of 3 whole blocks of 9 replications (2**15 // (n * p)
    is 9 at each of p = 10, 11 and n = 328, 330): 12 one-block tasks
    whenever there may be 3 or more processes."""
    return small_table_config(p_grid=(10, 11), n_grid=(328, 330), replications=3 * 9)


def _dispatch(tmp_path, body):
    """The last stdout line, as JSON, of the prelude plus body run in a fresh
    interpreter on dispatch_config(), and the records the run logged."""
    config = dispatch_config()
    log = tmp_path / "log.jsonl"
    log.touch()
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", DISPATCH_PRELUDE + body,
         json.dumps(config.to_json_dict()), str(log)],
        env={**env, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in log.read_text().splitlines()]
    return json.loads(proc.stdout.splitlines()[-1]), records


@pytest.mark.parametrize(
    "workers,cpus,expected",
    [(1000, 3, 3), (1000, 64, 12), (5, 64, 5), (2, None, None)],
)
def test_pool_capped_by_tasks_and_cpus(tmp_path, workers, cpus, expected):
    # 2 x 2 cells of 3 whole blocks, at most one block per task whenever
    # there may be 3 or more processes: 12 tasks
    cfg = dispatch_config()
    assert {harness._block_size(n, p) for p in cfg.p_grid for n in cfg.n_grid} == {9}
    serial = tmp_path / "serial.csv"
    write_result_csv(run_experiment(cfg, workers=1), serial)
    out, _ = _dispatch(tmp_path, f"""
forks, fork = [], os.fork
def counting_fork():
    pid = fork()
    forks.extend([pid] if pid else [])
    return pid
harness.os.fork, harness.os.cpu_count = counting_fork, lambda: {cpus}
write_result_csv(harness.run_experiment(CONFIG, workers={workers}), "{tmp_path / 'forked.csv'}")
print(json.dumps({{"forks": len(forks), "no_child_left": no_child_left()}}))
""")
    # os.cpu_count() may report None: one process, no fork
    assert out == {"forks": 0 if expected is None else expected - 1, "no_child_left": True}
    assert (tmp_path / "forked.csv").read_bytes() == serial.read_bytes()


def test_task_order_kept_when_children_run_most_tasks(tmp_path):
    cfg = dispatch_config()
    serial = tmp_path / "serial.csv"
    write_result_csv(run_experiment(cfg, workers=1), serial)
    out, records = _dispatch(tmp_path, f"""
harness._run_task, harness.os.cpu_count = slow_parent, lambda: 3
write_result_csv(harness.run_experiment(CONFIG, workers=3), "{tmp_path / 'forked.csv'}")
print(json.dumps({{"parent": PARENT, "no_child_left": no_child_left()}}))
""")
    assert out["no_child_left"]
    assert (tmp_path / "forked.csv").read_bytes() == serial.read_bytes()
    runners = [pid for pid, *_ in records]
    assert len(runners) == 12 and 2 * runners.count(out["parent"]) < len(runners)


def test_pool_created_with_the_pin_initializer(tmp_path):
    # the worker processes are forked after the pin, so every process that
    # runs replications sees every loaded OpenBLAS at one thread
    out, records = _dispatch(tmp_path, """
controls = harness._openblas_thread_controls()
for _, set_threads in controls:
    set_threads(2)
pin, fork, block_values = harness._pin_one_blas_thread, os.fork, harness._block_values
def noting_pin():
    pinned = pin()
    note("pin")
    return pinned
def noting_fork():
    note("fork")
    return fork()
def recording(*args):
    note("block", [get() for get, _ in harness._openblas_thread_controls()])
    return block_values(*args)
harness._pin_one_blas_thread, harness.os.fork = noting_pin, noting_fork
harness._block_values, harness._run_task = recording, slow_parent
harness.os.cpu_count = lambda: 2
harness.run_experiment(CONFIG, workers=2)
print(json.dumps({"parent": PARENT, "libraries": len(controls),
                  "after": [get() for get, _ in controls],
                  "env": os.environ.get("OPENBLAS_NUM_THREADS")}))
""")
    if not out["libraries"]:
        pytest.skip("no OpenBLAS loaded")
    parent = [kind for pid, kind, *_ in records
              if pid == out["parent"] and kind in ("pin", "fork")]
    blocks = [(pid, threads) for pid, kind, *threads in records if kind == "block"]
    assert parent == ["pin", "fork"]
    assert {pid for pid, _ in blocks} - {out["parent"]}
    assert all(threads == [[1] * out["libraries"]] for _, threads in blocks)
    # the parent's counts come back, its environment is untouched
    assert out["after"] == [2] * out["libraries"] and out["env"] is None


def test_pin_initializer_reaches_spawned_workers(tmp_path):
    # a process started from a replication process inherits nothing of its
    # BLAS state, only the environment: a forked child sets the variable, so
    # that it starts at one thread; from the parent it starts at 2
    out, records = _dispatch(tmp_path, """
import subprocess
os.environ["OPENBLAS_NUM_THREADS"] = "2"
SPAWNED = ("import json, signcov.simharness as h; "
           "print(json.dumps([get() for get, _ in h._openblas_thread_controls()]))")
spawned_from = set()
def spawning(task):
    if os.getpid() not in spawned_from:
        spawned_from.add(os.getpid())
        proc = subprocess.run([sys.executable, "-c", SPAWNED],
                              capture_output=True, text=True, check=True)
        note("spawned", json.loads(proc.stdout))
    return slow_parent(task)
harness._run_task, harness.os.cpu_count = spawning, lambda: 2
harness.run_experiment(CONFIG, workers=2)
print(json.dumps({"parent": PARENT, "env": os.environ["OPENBLAS_NUM_THREADS"]}))
""")
    spawned = {pid: threads for pid, kind, threads in
               (record for record in records if record[1] == "spawned")}
    from_parent = spawned.pop(out["parent"])
    if not from_parent:
        pytest.skip("no OpenBLAS loaded")
    assert from_parent == [2] * len(from_parent)
    assert spawned and all(t == [1] * len(from_parent) for t in spawned.values())
    assert out["env"] == "2"


def test_child_exception_reaches_the_caller(tmp_path):
    out, _ = _dispatch(tmp_path, f"""
def fail_in_child(task):
    if os.getpid() != PARENT:
        raise InvalidInputError("bad task " + str(task[2:4]))
    return slow_parent(task)
harness._run_task, harness.os.cpu_count = fail_in_child, lambda: 2
try:
    harness.run_experiment(CONFIG, workers=2)
except Exception as exc:
    error = [type(exc).__name__, str(exc)]
from signcov.cli import main
path = "{tmp_path / 'table.json'}"
with open(path, "w") as fh:
    json.dump(CONFIG.to_json_dict(), fh)
code = main(["table", "--config", path, "--workers", "2", "--out", "{tmp_path / 'out'}"])
print(json.dumps({{"error": error, "code": code, "no_child_left": no_child_left()}}))
""")
    assert out["error"][0] == "InvalidInputError" and out["error"][1].startswith("bad task (")
    assert out["code"] == 2 and out["no_child_left"]


def test_killed_child_raises(tmp_path):
    out, _ = _dispatch(tmp_path, """
def die_in_child(task):
    if os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return slow_parent(task)
harness._run_task, harness.os.cpu_count = die_in_child, lambda: 2
try:
    harness.run_experiment(CONFIG, workers=2)
except ChildProcessError as exc:
    error = str(exc)
print(json.dumps({"error": error, "no_child_left": no_child_left()}))
""")
    assert out["error"].endswith(f"wait status {signal.SIGKILL.value}") and out["no_child_left"]


def test_parent_error_stops_and_reaps_children(tmp_path):
    out, _ = _dispatch(tmp_path, """
def fail_in_parent(items_index):
    if os.getpid() == PARENT:
        raise RuntimeError("parent failed")
    time.sleep(60)
start = time.perf_counter()
try:
    harness._forked_map(fail_in_parent, range(4), 2)
except RuntimeError as exc:
    error = str(exc)
print(json.dumps({"error": error, "seconds": time.perf_counter() - start,
                  "no_child_left": no_child_left()}))
""")
    assert out["error"] == "parent failed" and out["no_child_left"]
    assert out["seconds"] < 30  # the sleeping child was killed, not awaited


def test_more_tasks_than_a_pipe_holds(tmp_path):
    # 4-byte indices queued all at once would fill a 64 KiB pipe at 16384;
    # three processes outnumber the cores of a 2-core host
    out, _ = _dispatch(tmp_path, """
values = harness._forked_map(lambda i: i * i, range(20000), 3)
print(json.dumps({"ok": values == [i * i for i in range(20000)],
                  "no_child_left": no_child_left()}))
""")
    assert out == {"ok": True, "no_child_left": True}


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
    # a library already at one thread is left alone; setting it again would
    # restart a BLAS thread pool that a fork shut down
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


# minor page faults of the second of two identical n = 20000 sweeps
FAULT_PROBE = """
import resource
from signcov import ExperimentConfig, run_experiment, singularity_model

config = ExperimentConfig(
    statistic="sweep", model=singularity_model(0.45, 2), p_grid=(2,),
    gamma_grid=(0.45,), n_grid=(20_000,), replications=4, master_seed=3,
    location_methods=("mean", "median"),
)
run_experiment(config, workers=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(config, workers=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# other C libraries lack mallopt (macOS) or ignore these thresholds (musl)
@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt thresholds")
def test_large_n_replications_reuse_freed_heap():
    # at n = 20000 every temporary is hundreds of KB; freed back to the OS,
    # each one would be faulted in and zeroed again (thousands of faults)
    src = str(Path(harness.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert int(proc.stdout) < 200


# records the modules loaded at each clock reading of a qq run
QQ_CLOCK_PROBE = """
import json, sys
import signcov.simharness as harness
from signcov import ExperimentConfig, gaussian_model

seen, clock = [], harness.time.perf_counter
def recording():
    seen.append(sorted(sys.modules))
    return clock()
harness.time.perf_counter = recording
harness.run_experiment(ExperimentConfig(
    statistic="qq", model=gaussian_model([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]]),
    n_grid=(5,), replications=3, master_seed=1,
))
print(json.dumps(seen))
"""


def test_qq_scipy_loads_before_the_clock():
    # the reference and the replications load modules on first use (the
    # Gauss-Legendre rule, the normal quantiles, the Philox streams); had one
    # loaded inside the clock, wall_time and the rate derived from it would
    # count the import. Only a fresh interpreter shows this: the test
    # process has long loaded them all.
    src = str(Path(harness.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", QQ_CLOCK_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=300,
    )
    start, *_, stop = json.loads(proc.stdout)
    assert "numpy.random" in start
    assert not {"scipy.integrate", "scipy.special"} & set(start)
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
    res = run_experiment(cfg, workers=2)
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
    res2 = run_experiment(cfg, workers=1)
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
    res = run_experiment(cfg, workers=2)
    assert len(res.cells) == 1 * 2 * 2 * 2
    assert all(c.mean >= 0.0 and c.se >= 0.0 for c in res.cells)
    assert all(c.gamma in (0.1, 0.3) for c in res.cells)


def test_run_experiment_dispatches_on_the_statistic():
    cfg = small_table_config(replications=5)
    res = run_experiment(cfg, workers=1)
    assert res.config.statistic == "table"


def test_csv_and_metadata_artifacts(tmp_path):
    cfg = small_table_config(replications=10)
    res = run_experiment(cfg, workers=1)
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
    res = run_experiment(cfg, workers=1)
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
    res = run_experiment(cfg, workers=2)
    c = res.cells[0]
    sigma = np.sqrt(c.sigma2)
    R = len(c.values)
    lo, hi = int(0.01 * R), int(0.99 * R)
    gap = np.abs(c.values[lo:hi] - c.reference[lo:hi]).max()
    assert gap <= 0.05 * sigma
