"""Bit-identity guards for the spatial median and the experiment artifacts.

Every digest below was recorded from the code that predates the change it
guards, and the code on the path must reproduce each one exactly: the
estimate's bytes, the iteration count, the converged / anchored flags, the
objective and the degenerate-geometry flag of every corpus sample, the
bytes of small ``table``, ``sweep`` and ``qq`` CSVs, their metadata JSON
(without the wall time) and CLI summary lines, the CLI ``estimate`` JSON
and CSV, the ``asymptotics`` JSON at every location and the ``oracle``
output.

The digests hold for the numpy / BLAS build they were recorded with (numpy
2.4, OpenBLAS 0.3, x86-64); another BLAS may round ``w @ diffs``
differently. They are independent of the BLAS thread count: experiments
run their replications at one BLAS thread, and every other input here is
below OpenBLAS's threading cut-offs (n <= 1000 at p = 2, so a gemv of
n * p < 9216 and a dot of n <= 10000); ``OPENBLAS_NUM_THREADS=1`` and the
host's default give the same bytes.

When the qq reference became exact (the limit variance by quadrature, no
longer a Monte Carlo estimate, and no ``ref_draws`` config key), the qq CSV
and metadata/summary digests and the table and sweep metadata digests were
re-recorded once: the qq reference column, sigma^2 and KS distances moved,
and every metadata ``config`` block lost its ``ref_draws`` line (hence a new
``config_digest``). The digest of the qq CSV's empirical column alone was
recorded before that change and still holds.

Running this file as a script prints the digests of the code on the path,
which is how they are re-recorded (on the previous commit, same machine)
after such an upgrade.
"""

import contextlib
import csv
import hashlib
import io
import json
import re
import struct

import numpy as np
import pytest

from signcov import (
    ExperimentConfig,
    MedianOptions,
    SeededStream,
    gaussian_model,
    run_experiment,
    sample,
    singularity_model,
    spatial_median,
    student_t_model,
    write_result_csv,
)
from signcov.cli import main


def _signed_zero_corpus():
    """Samples whose componentwise median (the initial iterate) is a signed
    zero, so any change in how the median is formed shows in the bytes."""
    mz = -0.0
    return [
        np.array([[mz, 1.0], [0.0, -1.0], [1.0, mz], [-1.0, 0.0]]),
        np.array([[mz, mz], [mz, 2.0], [3.0, mz]]),
        np.array([[-1.0, 2.0], [1.0, -2.0], [mz, 0.5], [0.0, -0.5], [0.25, mz]]),
        np.array([[mz, mz, mz], [1.0, -1.0, 2.0], [-1.0, 1.0, -2.0]]),
        np.array([[-2.0, mz], [2.0, mz], [mz, 3.0], [mz, -3.0]]),
        np.array([[mz, 0.0], [0.0, mz]]),
    ]


def median_corpus() -> dict:
    """Seeded samples for the spatial median, by group."""
    rng = np.random.default_rng(20130719)
    gaussian = [
        rng.standard_normal((n, 10)) for n in (1, 2, 3, 5, 30) for _ in range(8)
    ]
    t3 = student_t_model(3.0, np.zeros(3), np.eye(3))
    student = [
        sample(t3, n, SeededStream(5706, 10 * n + k))
        for n in (4, 15, 60) for k in range(6)
    ]
    singular = [
        sample(singularity_model(g, 2), n, SeededStream(1307, k))
        for g in (0.05, 0.45) for n in (10, 1000) for k in range(4)
    ]
    duplicates = []
    for k in range(8):
        X = np.round(rng.standard_normal((12, 3)), 1)
        X[4:5 + k] = X[0]  # exact duplicates; heavy ones anchor the median
        duplicates.append(X)
    return {
        "gaussian_p10": gaussian,
        "student_t_p3": student,
        "singularity_p2": singular,
        "rounded_duplicates": duplicates,
        "signed_zero_init": _signed_zero_corpus(),
    }


# (group, options) pairs that are digested
CASES = [
    ("gaussian_p10", MedianOptions()),
    ("student_t_p3", MedianOptions()),
    ("singularity_p2", MedianOptions()),
    ("rounded_duplicates", MedianOptions()),
    ("signed_zero_init", MedianOptions()),
    ("gaussian_p10", MedianOptions(initialization="mean", tolerance=1e-6)),
    ("student_t_p3", MedianOptions(max_iterations=3, track_objective=True)),
]


def median_digest(samples, opts) -> str:
    h = hashlib.sha256()
    for X in samples:
        res = spatial_median(X, opts)
        h.update(res.estimate.tobytes())
        h.update(struct.pack(
            "<i???d", res.iterations, res.converged, res.anchored,
            res.degenerate_geometry, res.objective,
        ))
        if res.objective_history is not None:
            h.update(res.objective_history.tobytes())
    return h.hexdigest()


def _case_id(group, opts):
    return f"{group}[{opts.initialization},{opts.tolerance:g},{opts.max_iterations}]"


MEDIAN_DIGESTS = {
    "gaussian_p10[componentwise_median,1e-10,1000]":
        "3927d2891ce0c1ba33817b2817e65e9b8afb0316241a167cb61b7c2a53d3fa88",
    "student_t_p3[componentwise_median,1e-10,1000]":
        "992e352a5f19d22f0ec51e15b1af556f006e5e2204ea879a25b1106e15c94403",
    "singularity_p2[componentwise_median,1e-10,1000]":
        "0936bf0f4a0607f00e9979675a3c913f8c12d67fb6178cb052fdf111001fc04b",
    "rounded_duplicates[componentwise_median,1e-10,1000]":
        "8af7d399eae40d3c19ca3c7b98236256f9e936cdc8bac44bf2db07ab7676fd59",
    "signed_zero_init[componentwise_median,1e-10,1000]":
        "a0d7f92bd6668a443405239ff568ab163f34bc58a394bf392ff8ebec3efff5cf",
    "gaussian_p10[mean,1e-06,1000]":
        "2fb96621907acf816b19ddf277bbd944b4f35d7cad677fb49bf794b91ae85c28",
    "student_t_p3[componentwise_median,1e-10,3]":
        "601d653d840e49a1e70a51b02ab7a4bd2b03c3ac7a5539f760160b4df7252bd6",
}


@pytest.fixture(scope="module")
def corpus():
    return median_corpus()


@pytest.mark.parametrize("group,opts", CASES, ids=[_case_id(*c) for c in CASES])
def test_spatial_median_bits_pinned(corpus, group, opts):
    assert median_digest(corpus[group], opts) == MEDIAN_DIGESTS[_case_id(group, opts)]


def experiment_configs() -> dict:
    return {
        "table": ExperimentConfig(
            statistic="table",
            model=gaussian_model(np.zeros(2), np.eye(2)),
            p_grid=(3, 10),
            n_grid=(5, 30),
            replications=24,
            master_seed=31,
        ),
        "sweep": ExperimentConfig(
            statistic="sweep",
            model=singularity_model(0.05, 2),
            p_grid=(2,),
            gamma_grid=(0.05, 0.45),
            n_grid=(10, 300),
            replications=8,
            master_seed=32,
        ),
        "qq": ExperimentConfig(
            statistic="qq",
            model=gaussian_model(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]])),
            n_grid=(10, 40),
            replications=30,
            master_seed=33,
        ),
    }


def csv_digest(config, path) -> str:
    write_result_csv(run_experiment(config, workers=1), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


CSV_DIGESTS = {
    "table":
        "0a0f2eec1c03549d4d1d8bb05707f0f4f68cb09f55e0411acc7c5d84265537aa",
    "sweep":
        "d82ca717c6d08f6f91f64f7442d3132a494382f4f7c39190ad7979d699846c20",
    "qq":
        "1ed72759e53e15cb721071987563b4e034f0621e680928025f0ef1ccdc0e564f",
}


@pytest.mark.parametrize("statistic", ["table", "sweep", "qq"])
def test_experiment_csv_bits_pinned(tmp_path, statistic):
    config = experiment_configs()[statistic]
    assert csv_digest(config, tmp_path / "out.csv") == CSV_DIGESTS[statistic]


def qq_empirical_digest(path) -> str:
    """Digest of the golden qq CSV's empirical column alone: the replication
    values, which do not depend on how the limit variance is obtained."""
    write_result_csv(run_experiment(experiment_configs()["qq"], workers=1), path)
    with open(path, newline="") as fh:
        column = [row["empirical"] for row in csv.DictReader(fh)]
    return hashlib.sha256("\n".join(column).encode()).hexdigest()


QQ_EMPIRICAL_DIGEST = (
    "73774a50b79ca8d090b7c0cae7713ef71b3519df0d980573146397c5e37ece89"
)


def test_qq_empirical_column_bits_pinned(tmp_path):
    assert qq_empirical_digest(tmp_path / "qq.csv") == QQ_EMPIRICAL_DIGEST


ESTIMATE_ARGS = {
    "median": ["--location", "median", "--star", "--asymptotics"],
    "mean": ["--location", "mean", "--asymptotics"],
    "fixed": ["--location", "fixed", "--fixed", "0.25,-0.5,0"],
}


def _data_csv(workdir) -> str:
    rng = np.random.default_rng(1307)
    X = np.round(rng.standard_normal((25, 3)), 3)
    X[7] = X[3]
    csv_path = workdir / "data.csv"
    csv_path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n"
    )
    return str(csv_path)


def _file_digest(workdir, argv) -> str:
    """Digest of the file a file-input CLI command writes to --out."""
    out = workdir / "out.txt"
    assert main([argv[0], _data_csv(workdir), "--out", str(out), *argv[1:]]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def estimate_digest(workdir, location) -> str:
    return _file_digest(workdir, ["estimate", *ESTIMATE_ARGS[location]])


ESTIMATE_DIGESTS = {
    "fixed":
        "8c65b970b61ebf6b0aaaade5d64af07df47044dec3334ca2ce3d6f962550175e",
    "mean":
        "40038fec22360d572739f87669d92ab39dc4cdfb398eacaf6a3e146e2ee162d9",
    "median":
        "db9f4a5bc388969ceaf9f0b510092bb3ba550a6a65f681886c98531e814fa6ee",
}


@pytest.mark.parametrize("location", sorted(ESTIMATE_ARGS))
def test_cli_estimate_json_bits_pinned(tmp_path, location):
    assert estimate_digest(tmp_path, location) == ESTIMATE_DIGESTS[location]


# CLI commands on the fixture CSV whose --out file is pinned
FILE_ARGS = {
    "asymptotics_mean": ["asymptotics", "--location", "mean"],
    "asymptotics_median": ["asymptotics", "--location", "median"],
    "asymptotics_fixed": ["asymptotics", "--location", "fixed",
                          "--fixed", "0.25,-0.5,0"],
    "estimate_star_symmetrized_asymptotics": [
        "estimate", "--star", "--symmetrized", "--asymptotics"],
    "estimate_symmetrized_csv": ["estimate", "--symmetrized", "--output", "csv"],
}

FILE_DIGESTS = {
    "asymptotics_fixed":
        "c9061eb1cf56dc1867ded9115c6204ebffa4f3bfc1709b8fa95575191aa33182",
    "asymptotics_mean":
        "68b42cc624a7bb150538be32ddb6e6613a75b2866342e7cb5dedd2e9b47088dd",
    "asymptotics_median":
        "03071e250822cb7ee5f152a6084b3bdb9791436dac32a729c6b06e9e5e8ee61e",
    "estimate_star_symmetrized_asymptotics":
        "46730dbab5b3b61bfa9e8eaba38bbe5e6dad7f01bea708ccfbfce41c865f8267",
    "estimate_symmetrized_csv":
        "55d9e373070caa688225b107329fa15e2c89cc219554f44afd788b856603195d",
}


@pytest.mark.parametrize("name", sorted(FILE_ARGS))
def test_cli_file_outputs_bits_pinned(tmp_path, name):
    assert _file_digest(tmp_path, FILE_ARGS[name]) == FILE_DIGESTS[name]


ORACLE_ARGS = {
    "closed_p2": ["--model", json.dumps(
        {"generator": "gaussian", "mu": [0.0, 0.0], "V": [[1.0, 0.5], [0.5, 1.0]]}
    )],
    "mc_p3": ["--model", json.dumps(
        {"generator": "student_t", "nu": 4.0, "mu": [1.0, 0.0, -1.0],
         "V": [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]]}
    ), "--method", "mc", "--mc-size", "2000", "--seed", "11"],
}


def _stdout_of(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def oracle_digest(name) -> str:
    text = _stdout_of(["oracle", *ORACLE_ARGS[name]])
    return hashlib.sha256(text.encode()).hexdigest()


ORACLE_DIGESTS = {
    "closed_p2":
        "6cb44ef5f25bab66a12fcd7bdaf2a0ef83582446c6c1a5031422573460b58638",
    "mc_p3":
        "01e00be4bad10843ce0d6b54392b5c67cba0e300f23bfc130a990da5bb219a6b",
}


@pytest.mark.parametrize("name", sorted(ORACLE_ARGS))
def test_cli_oracle_stdout_bits_pinned(name):
    assert oracle_digest(name) == ORACLE_DIGESTS[name]


def experiment_cli_digests(workdir, statistic) -> tuple[str, str]:
    """Digests of the metadata JSON without its wall-time line, and of the
    summary lines without the artifacts line, of one CLI experiment run."""
    config = experiment_configs()[statistic]
    cfg_path = workdir / f"{statistic}.json"
    cfg_path.write_text(json.dumps(config.to_json_dict()))
    out = _stdout_of([statistic, "--config", str(cfg_path),
                      "--seed", str(config.master_seed), "--out", str(workdir)])
    meta, count = re.subn(
        rb'\n  "wall_time": [^\n]*', b"",
        (workdir / f"{statistic}_metadata.json").read_bytes(),
    )
    assert count == 1
    summary = "".join(line for line in out.splitlines(keepends=True)
                      if not line.startswith("artifacts: "))
    return (hashlib.sha256(meta).hexdigest(),
            hashlib.sha256(summary.encode()).hexdigest())


# (metadata, summary) per statistic
EXPERIMENT_CLI_DIGESTS = {
    "qq": (
        "af046d32942c4cf10e6b3efc0c11f477039e85793ebb9d176657634e73cf3d3e",
        "7509ad82a4315a288bc464f9e81e2a7a3ba9f1fe62a46df0d9a4879b16c0ec8a",
    ),
    "sweep": (
        "7af6bf94ee69baaeb62a5a58b1d8ae6aab7a2dc674c3f63a0d5f0a35bf8c3c1e",
        "5a19174467130ce5d20e45e01b2fa42378915c1048fc1614de2572253dfc3aaf",
    ),
    "table": (
        "0d2a9000a1367452d5fa9da1b3ad130ace28e2b7f3361330ed3135c4a9e36966",
        "a862b18969d3b38912c72c2bbfa44cb153956cecf3eb2659f7cb0142f0ff0048",
    ),
}


@pytest.mark.parametrize("statistic", ["table", "sweep", "qq"])
def test_cli_experiment_metadata_and_summary_bits_pinned(tmp_path, statistic):
    meta, summary = experiment_cli_digests(tmp_path, statistic)
    assert meta == EXPERIMENT_CLI_DIGESTS[statistic][0]
    assert summary == EXPERIMENT_CLI_DIGESTS[statistic][1]


if __name__ == "__main__":
    import pathlib
    import tempfile

    groups = median_corpus()
    print(json.dumps(
        {_case_id(g, o): median_digest(groups[g], o) for g, o in CASES}, indent=4
    ))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        print(json.dumps(
            {s: csv_digest(c, tmp / f"{s}.csv")
             for s, c in experiment_configs().items()}, indent=4
        ))
        print(json.dumps(
            {"qq_empirical": qq_empirical_digest(tmp / "qq_empirical.csv")},
            indent=4,
        ))
        print(json.dumps(
            {loc: estimate_digest(tmp, loc) for loc in sorted(ESTIMATE_ARGS)},
            indent=4,
        ))
        print(json.dumps(
            {name: _file_digest(tmp, FILE_ARGS[name]) for name in sorted(FILE_ARGS)},
            indent=4,
        ))
        print(json.dumps(
            {name: oracle_digest(name) for name in sorted(ORACLE_ARGS)}, indent=4
        ))
        print(json.dumps(
            {s: experiment_cli_digests(tmp, s) for s in sorted(experiment_configs())},
            indent=4,
        ))
