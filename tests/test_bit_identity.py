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
n * p < 9216, a dot of n <= 10000 and the Newton step's p x p product of
n rows); ``OPENBLAS_NUM_THREADS=1`` and the host's default give the same
bytes.

When the qq reference became exact (the limit variance by quadrature, no
longer a Monte Carlo estimate, and no ``ref_draws`` config key), the qq CSV
and metadata/summary digests and the table and sweep metadata digests were
re-recorded once: the qq reference column, sigma^2 and KS distances moved,
and every metadata ``config`` block lost its ``ref_draws`` line (hence a new
``config_digest``). The digest of the qq CSV's empirical column alone was
recorded before that change and held through it.

When the spatial median moved to Newton steps with a Weiszfeld safeguard,
every median estimate moved within the solver tolerance, so the digests
that read a median were re-recorded once: the seven spatial-median corpus
digests, the table, sweep and qq CSVs, the qq empirical column, the
median-location ``estimate`` JSON, the ``asymptotics`` JSON at the median,
the two ``estimate`` outputs at the default (median) location and the
metadata of all three experiments (with the sweep summary). The digests of
each golden CSV without its median rows were recorded before that change
and still hold, as do the mean/fixed-location and oracle digests.

When the symmetrized SSCM moved to one blocked gemm per tile of pairs,
its sum changed order and its entries on the fixture moved by up to 4 ulps
(the same 299 pairs), so the two digests that read it were re-recorded
once: ``estimate_star_symmetrized_asymptotics`` and
``estimate_symmetrized_csv``. Every other digest held.

When the qq reference moved off scipy (the sign moments by numpy
Gauss-Legendre panels instead of ``quad_vec``, the reference quantiles from
``statistics.NormalDist().inv_cdf`` instead of ``ndtri`` and the KS CDF from
``math.erfc`` instead of ``ndtr``), the three qq digests that read the
reference column or the KS distances were re-recorded once: the qq CSV, its
median-free rows and the qq metadata. On the golden config sigma^2 held at
``0x1.db3d742c26550p-4``, 19 of the 30 reference quantiles moved by at most 4
ulps, and one of the six KS distances moved by one ulp (0.1946255255123734 to
0.19462552551237333), which the metadata records in full; the summary lines,
the qq empirical column and both oracle digests held.

When the metadata writer stopped importing scipy, the ``versions`` block of
every experiment's metadata lost its ``scipy`` line, so the three metadata
digests were re-recorded once; that line was the only difference, and every
summary, CSV and median digest held.

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
from _oracles import signed_zero_corpus


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
        "signed_zero_init": signed_zero_corpus(),
        **narrow_duplicates_corpus(),
    }


def narrow_duplicates_corpus() -> dict:
    """Rounded samples at p = 2 and p = 1 with exact duplicates of their first
    row, heavy enough in some samples that the median approaches that row
    and the vertex test certifies it (at p = 1, from the mean)."""
    rng = np.random.default_rng(20260719)
    groups = {}
    for p, sizes, copies in ((2, (12, 30), 8), (1, (7, 12, 30), 4)):
        samples = []
        for n in sizes:
            for k in range(copies):
                X = np.round(rng.standard_normal((n, p)), 1)
                X[4:5 + k] = X[0]
                samples.append(X)
        groups[f"rounded_duplicates_p{p}"] = samples
    return groups


# (group, options) pairs that are digested
CASES = [
    ("gaussian_p10", MedianOptions()),
    ("student_t_p3", MedianOptions()),
    ("singularity_p2", MedianOptions()),
    ("rounded_duplicates", MedianOptions()),
    ("signed_zero_init", MedianOptions()),
    ("gaussian_p10", MedianOptions(initialization="mean", tolerance=1e-6)),
    ("student_t_p3", MedianOptions(max_iterations=3, track_objective=True)),
    ("rounded_duplicates_p2", MedianOptions()),
    ("rounded_duplicates_p2", MedianOptions(initialization="mean")),
    ("rounded_duplicates_p1", MedianOptions()),
    ("rounded_duplicates_p1", MedianOptions(initialization="mean")),
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
        "b6d3e875bbb270dc3c357beb98c8e086b6f15776a8e4cc9055764d279e125082",
    "student_t_p3[componentwise_median,1e-10,1000]":
        "f5bbc14cd45dbbae39726df20073ca8a72fe560d78a6220d304a9a87d87e63d1",
    "singularity_p2[componentwise_median,1e-10,1000]":
        "acc17c0e9d3e28432f70fbfb06166ca3113bbb665b3d4779698d49b176520aed",
    "rounded_duplicates[componentwise_median,1e-10,1000]":
        "9884d1629628b28f6f9600f8c1fc54872ebd5243235c047ba19d19a4edd4fbe5",
    "signed_zero_init[componentwise_median,1e-10,1000]":
        "bb35cf2e5864d7906966474b46f05fc93a38cde46c69c5dd5801e420169a9a88",
    "gaussian_p10[mean,1e-06,1000]":
        "95a9b2b7e4c1477e19a6677e64cb325c58cbbee1d75f1d6a461077e750e0c58a",
    "student_t_p3[componentwise_median,1e-10,3]":
        "8cf632026f233ebb287b2ea1568adf0fa096e51a51b24a1197c0c9c217335615",
    # recorded before any pass over p <= 2 samples ran per coordinate
    "rounded_duplicates_p2[componentwise_median,1e-10,1000]":
        "d9e2c2b5b4f40163307b4c9a61fb6f8ed34c37bb9dac0fedcc479674b7a74e4a",
    "rounded_duplicates_p2[mean,1e-10,1000]":
        "b3bcb653634448f9a5aaa9a0907f7906fdafa91a1553c9ff02ae5fb0cf8a9989",
    "rounded_duplicates_p1[componentwise_median,1e-10,1000]":
        "484d45f006fb663c96563057715da3511e316d89810dc0731b2ab1e2ad9d4930",
    "rounded_duplicates_p1[mean,1e-10,1000]":
        "56fa49c06af6fb7464816b599696e3f8052ee7f1b91b9d143ffe1fe299fc91e3",
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
        "e8a6f3b8393133217f01ffeeea65db99047fccc717ccf03543bb38586335ee70",
    "sweep":
        "9215bb5d191bfbd16f233c13da99eeb9acb312bc93c934c7637732167e73471b",
    "qq":
        "b0b157349d74aed54d4b892ab5617a0ec0737ba91518b21bce3660c079eb1a63",
}


@pytest.mark.parametrize("statistic", ["table", "sweep", "qq"])
def test_experiment_csv_bits_pinned(tmp_path, statistic):
    config = experiment_configs()[statistic]
    assert csv_digest(config, tmp_path / "out.csv") == CSV_DIGESTS[statistic]


# a sweep at n = 20000, one replication per block, where the medians'
# vertex tests and the sampler run on long (n, 2) arrays
LARGE_N_SWEEP = ExperimentConfig(
    statistic="sweep",
    model=singularity_model(0.05, 2),
    p_grid=(2,),
    gamma_grid=(0.05, 0.45),
    n_grid=(20_000,),
    replications=3,
    master_seed=35,
)

LARGE_N_SWEEP_CSV_DIGEST = (  # recorded with the (n, 2) passes as broadcasts
    "ee4051d0a09c1a39b8051854eba3e48c8be2023cc9c51ff8581fcc9dcbb14587"
)


def test_large_n_sweep_csv_bits_pinned(tmp_path):
    assert csv_digest(LARGE_N_SWEEP, tmp_path / "out.csv") == LARGE_N_SWEEP_CSV_DIGEST


def median_free_csv_digest(config, path) -> str:
    """Digest of a golden CSV restricted to its header and the rows whose
    method is not median: the known- and mean-location rows, which no
    change to the spatial-median solver may move."""
    write_result_csv(run_experiment(config, workers=1), path)
    with open(path, newline="") as fh:
        lines = fh.read().splitlines(keepends=True)
    column = lines[0].rstrip("\r\n").split(",").index("method")
    kept = [lines[0]] + [
        line for line in lines[1:] if line.split(",")[column] != "median"
    ]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


MEDIAN_FREE_CSV_DIGESTS = {
    "table":
        "559312a7071230fb1ac0ddae25150e70607f1df56592014152cd39b55a0e90f2",
    "sweep":
        "5f0e0afbf772783306ea870a5b2fcc6533e8c975f67b7e17ed7543c947178de7",
    "qq":
        "e8fac70405e372c19e764da5e29c507231a215522f47a21721b53b5c1eea9922",
}


@pytest.mark.parametrize("statistic", ["table", "sweep", "qq"])
def test_experiment_csv_median_free_rows_bits_pinned(tmp_path, statistic):
    config = experiment_configs()[statistic]
    assert (median_free_csv_digest(config, tmp_path / "out.csv")
            == MEDIAN_FREE_CSV_DIGESTS[statistic])


def qq_empirical_digest(path) -> str:
    """Digest of the golden qq CSV's empirical column alone: the replication
    values, which do not depend on how the limit variance is obtained."""
    write_result_csv(run_experiment(experiment_configs()["qq"], workers=1), path)
    with open(path, newline="") as fh:
        column = [row["empirical"] for row in csv.DictReader(fh)]
    return hashlib.sha256("\n".join(column).encode()).hexdigest()


QQ_EMPIRICAL_DIGEST = (
    "ea2948ab7666005778c42219e1a78b82c0e963c0b1bea1e802c73f708917ce05"
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
        "d8a3919f82bd4bbe5c3142e26567d59a10ca44a17ff3a1394bd637576ee97d6e",
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
        "7c792fb4093cc8d152f1deb73ddf2108f1fce1ade8eb68d80cedcf33f29e2334",
    "estimate_star_symmetrized_asymptotics":
        "780725b389fce0edae1863942cc5ad1c7edb1a7dd805f2d013bcc3f699906c53",
    "estimate_symmetrized_csv":
        "435ba7e30af96a1482c6190cc2513e583e922c05cca0d2b50fccffb1902ed92a",
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
        "fe517843f13bbc6c8d33d129a58dfca57f0f3ae4ab18f912f3cd726c4ed9d156",
        "7509ad82a4315a288bc464f9e81e2a7a3ba9f1fe62a46df0d9a4879b16c0ec8a",
    ),
    "sweep": (
        "d876bf9f3f54e2b76c1c3d79b6cd5fb12f4b8d722693a9e6d3d09faa092fa67b",
        "d5990c38854ee8e68a49da508099abe15463dd9bb587baa634ceb285bf1be6a1",
    ),
    "table": (
        "c92c629eaad20f42d14427b5173159cf14de054f154ddd7b5b60e3ff79a12eaf",
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
            {"sweep_large_n": csv_digest(LARGE_N_SWEEP, tmp / "sweep_large_n.csv")},
            indent=4,
        ))
        print(json.dumps(
            {s: median_free_csv_digest(c, tmp / f"{s}_median_free.csv")
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
