import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import signcov.cli
from signcov.cli import main

TRIANGLE_CSV = "0,0\n1,0\n0,1\n"
SHAPE_MODEL = json.dumps(
    {"generator": "gaussian", "mu": [0.0, 0.0], "V": [[1.0, 0.5], [0.5, 1.0]]}
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_median_triangle(tmp_path, capsys):
    csv_path = write(tmp_path, "tri.csv", TRIANGLE_CSV)
    code, out, _ = run(capsys, ["estimate", csv_path, "--location", "median", "--star"])
    assert code == 0
    payload = json.loads(out)
    est = payload["location"]["estimate"]
    assert est[0] == pytest.approx(0.21132, abs=1e-4)
    assert est[1] == pytest.approx(0.21132, abs=1e-4)
    assert payload["location"]["converged"]
    star = payload["starred"]
    assert star["matrix"]["dims"] == [2, 2]
    data = star["matrix"]["data"]
    assert data[0] + data[3] == pytest.approx(1.0, abs=1e-12)
    assert payload["coincidence"]["n_star"] == 3


def test_estimate_fixed_location(tmp_path, capsys):
    csv_path = write(tmp_path, "two.csv", "0,0\n1,0\n")
    code, out, _ = run(
        capsys, ["estimate", csv_path, "--location", "fixed", "--fixed", "0,0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sscm"]["matrix"]["data"] == [0.5, 0.0, 0.0, 0.0]
    assert payload["coincidence"]["n_star"] == 1
    assert payload["coincidence"]["indices_coincident"] == [0]


def test_estimate_missing_input(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    code, _, err = run(
        capsys,
        ["estimate", str(tmp_path / "nope.csv"), "--out", str(out_file)],
    )
    assert code == 2
    assert not out_file.exists()
    assert "not found" in err


def test_estimate_malformed_csv(tmp_path, capsys):
    csv_path = write(tmp_path, "bad.csv", "x,y\n1,2\n3,oops\n")
    code, _, err = run(capsys, ["estimate", csv_path])
    assert code == 2
    assert "line 3" in err and "column 2" in err


def test_estimate_header_autodetect(tmp_path, capsys):
    plain = write(tmp_path, "plain.csv", TRIANGLE_CSV)
    headed = write(tmp_path, "headed.csv", "a,b\n" + TRIANGLE_CSV)
    code1, out1, _ = run(capsys, ["estimate", plain])
    code2, out2, _ = run(capsys, ["estimate", headed])
    assert code1 == code2 == 0
    assert out1 == out2


def test_estimate_too_small(tmp_path, capsys):
    csv_path = write(tmp_path, "one.csv", "1,2\n")
    code, _, _ = run(capsys, ["estimate", csv_path])
    assert code == 2


def test_estimate_degenerate_star(tmp_path, capsys):
    csv_path = write(tmp_path, "same.csv", "1,1\n1,1\n1,1\n")
    code, _, err = run(capsys, ["estimate", csv_path, "--star"])
    assert code == 3
    assert "degenerate" in err


@pytest.mark.parametrize("argv", [["asymptotics"], ["estimate", "--asymptotics"]])
def test_sensitivity_overflow_exits_3(tmp_path, capsys, argv):
    # x/|x|^2 of the first row about the fixed location 0 overflows
    csv_path = write(tmp_path, "near.csv", "3e-320,1e-320\n1,0\n0,1\n-1,-1\n")
    code, out, err = run(capsys, [argv[0], csv_path, *argv[1:],
                                  "--location", "fixed", "--fixed", "0,0"])
    assert (code, out) == (3, "")
    assert err.startswith("error: degenerate sample: the sensitivity overflows")


def test_estimate_round_trip_precision(tmp_path, capsys):
    rng = np.random.default_rng(70)
    X = rng.standard_normal((20, 2))
    csv_path = write(
        tmp_path,
        "data.csv",
        "\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n",
    )
    code, out, _ = run(capsys, ["estimate", csv_path, "--location", "mean"])
    assert code == 0
    payload = json.loads(out)
    assert payload["location"]["estimate"] == list(X.mean(axis=0))

    from signcov import sscm_plugin

    S, _, _ = sscm_plugin(X, method="mean")
    assert payload["sscm"]["matrix"]["data"] == list(S.matrix.ravel())


def test_estimate_csv_output(tmp_path, capsys):
    csv_path = write(tmp_path, "tri.csv", TRIANGLE_CSV)
    code, out, _ = run(capsys, ["estimate", csv_path, "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "section,i,j,value"
    assert any(line.startswith("location,0,,") for line in lines)
    assert any(line.startswith("sscm,1,1,") for line in lines)


def test_estimate_asymptotics_as_csv_exits_2_before_estimating(tmp_path, capsys,
                                                               monkeypatch):
    # the CSV form has no asymptotics rows, so the bundle would be dropped silently
    csv_path = write(tmp_path, "tri.csv", TRIANGLE_CSV)
    out_file = tmp_path / "result.csv"
    monkeypatch.setattr(signcov.cli, "sscm_plugin", lambda *a, **k: pytest.fail("estimated"))
    code, out, err = run(capsys, ["estimate", csv_path, "--asymptotics", "--output", "csv",
                                  "--out", str(out_file)])
    assert code == 2 and out == "" and not out_file.exists()
    assert "--asymptotics" in err and "json" in err


@pytest.mark.parametrize("argv", [
    ["estimate", "--fixed", "100,100"],
    ["estimate", "--location", "mean", "--fixed", "0,0"],
    ["asymptotics", "--location", "median", "--fixed", "abc"],
    ["asymptotics", "--fixed", "0,0"],
])
def test_fixed_without_fixed_location_exits_2(tmp_path, capsys, argv):
    # the location --fixed names would be ignored for any other --location
    csv_path = write(tmp_path, "tri.csv", TRIANGLE_CSV)
    out_file = tmp_path / "result.json"
    code, out, err = run(capsys, [argv[0], csv_path, *argv[1:], "--out", str(out_file)])
    assert code == 2 and out == "" and not out_file.exists()
    assert err.startswith("error: --fixed needs --location fixed")


def test_estimate_with_asymptotics(tmp_path, capsys):
    rng = np.random.default_rng(71)
    X = rng.standard_normal((50, 2))
    csv_path = write(
        tmp_path,
        "data.csv",
        "\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n",
    )
    code, out, _ = run(
        capsys, ["estimate", csv_path, "--location", "mean", "--asymptotics"]
    )
    assert code == 0
    bundle = json.loads(out)["asymptotics"]
    assert bundle["fixed_cov"]["dims"] == [4, 4]
    assert bundle["plugin_cov"]["dims"] == [4, 4]
    assert bundle["location_method"] == "mean"


def test_oracle_closed_matches_printed_value(capsys):
    code, out, _ = run(capsys, ["oracle", "--model", SHAPE_MODEL])
    assert code == 0
    payload = json.loads(out)
    offdiag = payload["matrix"]["data"][1]
    assert abs(offdiag - 0.13397) <= 5e-6
    assert payload["method"] == "closed"
    assert payload["se"] is None


def test_oracle_closed_p3_matches_mc(capsys):
    model = json.dumps({"generator": "student_t", "nu": 4.0, "mu": [1.0, 0.0, -1.0],
                        "V": [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]]})
    code, out, _ = run(capsys, ["oracle", "--model", model, "--method", "closed"])
    assert code == 0
    closed = json.loads(out)
    assert closed["method"] == "closed" and closed["se"] is None
    code, out, _ = run(capsys, ["oracle", "--model", model, "--method", "mc",
                                "--mc-size", "200000", "--seed", "3"])
    assert code == 0
    mc = json.loads(out)
    M = np.array(closed["matrix"]["data"]).reshape(3, 3)
    M_mc = np.array(mc["matrix"]["data"]).reshape(3, 3)
    se = np.array(mc["se"]["data"]).reshape(3, 3)
    assert np.trace(M) == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.abs(M - M_mc) <= 4.0 * se)


def test_oracle_mc_spherical(capsys):
    model = json.dumps(
        {"generator": "gaussian", "mu": [0.0, 0.0, 0.0], "V": np.eye(3).tolist()}
    )
    code, out, _ = run(
        capsys,
        ["oracle", "--model", model, "--method", "mc", "--mc-size", "200000",
         "--seed", "5"],
    )
    assert code == 0
    payload = json.loads(out)
    M = np.array(payload["matrix"]["data"]).reshape(3, 3)
    se = np.array(payload["se"]["data"]).reshape(3, 3)
    assert np.all(np.abs(M - np.eye(3) / 3.0) <= 3.0 * se + 1e-12)


def test_oracle_invalid_model_json(capsys):
    code, _, err = run(capsys, ["oracle", "--model", "{bad"])
    assert code == 2
    assert "JSON" in err


def test_oracle_too_large_to_allocate_exits_2(capsys):
    # 1e13 draws at p = 2 ask numpy for about 146 TiB, more than a 47-bit address
    # space holds, so the allocation fails before any page is touched
    code, out, err = run(capsys, ["oracle", "--model", SHAPE_MODEL, "--method", "mc",
                                  "--mc-size", "10000000000000"])
    assert code == 2 and out == ""
    assert err.startswith("error: Unable to allocate")


SPHERICAL2 = {"generator": "gaussian", "mu": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]}
TABLE_CFG = {"statistic": "table", "model": SPHERICAL2, "p_grid": [2], "n_grid": [5],
             "replications": 2, "master_seed": 1}
QQ_CFG = {"statistic": "qq", "model": SPHERICAL2, "n_grid": [5], "replications": 2,
          "master_seed": 1, "ref_draws": 1000}
SWEEP2_CFG = {**TABLE_CFG, "statistic": "sweep", "gamma_grid": [0.5],
              "model": {**SPHERICAL2, "generator": "singularity", "gamma": 0.1}}
# (subcommand, config or model JSON) that used to end in a traceback
MALFORMED_INPUT = {
    "config_top_level_list": ("table", [TABLE_CFG]),
    "config_replications_text": ("table", {**TABLE_CFG, "replications": "abc"}),
    "config_n_grid_scalar": ("table", {**TABLE_CFG, "n_grid": 5}),
    "config_element_three_qq": ("qq", {**QQ_CFG, "element": [0, 1, 1]}),
    "config_element_three_table": ("table", {**TABLE_CFG, "element": [0, 1, 1]}),
    "config_model_not_object": ("table", {**TABLE_CFG, "model": [1.0]}),
    "config_nu_text": ("table", {**TABLE_CFG, "model": {
        **SPHERICAL2, "generator": "student_t", "nu": "x"}}),
    "model_nu_text": ("oracle", {**SPHERICAL2, "generator": "student_t", "nu": "x"}),
    # a string or a boolean where a number is meant
    "config_gamma_grid_text": ("sweep", {**SWEEP2_CFG, "gamma_grid": ["0.5"]}),
    "config_gamma_grid_true": ("sweep", {**SWEEP2_CFG, "gamma_grid": [True]}),
    "config_gamma_grid_mixed": ("sweep", {**SWEEP2_CFG, "gamma_grid": [0.5, True]}),
    "config_median_tolerance_text": ("table", {**TABLE_CFG, "median_tolerance": "1e-8"}),
    "config_median_tolerance_true": ("table", {**TABLE_CFG, "median_tolerance": True}),
    "config_gamma_true": ("sweep", {**SWEEP2_CFG, "model": {**SWEEP2_CFG["model"],
                                                            "gamma": True}}),
    "model_mu_text": ("oracle", {**SPHERICAL2, "mu": ["0", "0"]}),
    "model_mu_mixed": ("oracle", {**SPHERICAL2, "mu": [0.0, True]}),
    "model_V_text": ("oracle", {**SPHERICAL2, "V": [["1", "0"], ["0", "1"]]}),
    "model_nu_true": ("oracle", {**SPHERICAL2, "generator": "student_t", "nu": True}),
    # JSON's 1e400 reads as inf, which no parameter may be
    "model_nu_infinite": ("oracle", {**SPHERICAL2, "generator": "student_t", "nu": 1e400}),
    "model_gamma_infinite": ("oracle", {**SPHERICAL2, "generator": "singularity",
                                        "gamma": 1e400}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUT))
def test_malformed_json_input_exits_2(tmp_path, capsys, name):
    command, body = MALFORMED_INPUT[name]
    if command == "oracle":
        argv = ["oracle", "--model", json.dumps(body)]
    else:
        cfg_path = write(tmp_path, "cfg.json", json.dumps(body))
        argv = [command, "--config", cfg_path, "--out", str(tmp_path / "out")]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_a_string_or_a_boolean_for_a_number_names_the_key(tmp_path, capsys):
    # the sweep the table's cases alter runs; the error says which key it rejects
    cfg_path = write(tmp_path, "cfg.json", json.dumps(SWEEP2_CFG))
    assert run(capsys, ["sweep", "--config", cfg_path, "--out", str(tmp_path / "out")])[0] == 0
    code, out, err = run(capsys, ["oracle", "--model", json.dumps(
        {**SPHERICAL2, "V": [[1.0, 0.0], [0.0, True]]})])
    assert code == 2 and out == ""
    assert err.startswith("error: model JSON key 'V' takes numbers, not")


# a student_t model with a stray gamma and a shape key that nothing reads
STRAY_KEYS_MODEL = {**SPHERICAL2, "generator": "student_t", "nu": 3, "gamma": 0.2,
                    "shape": [[4.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("model,message", [
    (STRAY_KEYS_MODEL, "'shape'"),
    ({k: v for k, v in STRAY_KEYS_MODEL.items() if k != "shape"}, "gamma"),
    ({**SPHERICAL2, "nu": 3}, "nu"),
])
@pytest.mark.parametrize("command", ["oracle", "qq"])
def test_model_with_keys_it_does_not_read_exits_2(tmp_path, capsys, command, model,
                                                  message):
    if command == "oracle":
        argv = ["oracle", "--model", json.dumps(model)]
    else:
        cfg_path = write(tmp_path, "cfg.json", json.dumps({**QQ_CFG, "model": model}))
        argv = ["qq", "--config", cfg_path, "--out", str(tmp_path / "out")]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


def test_legacy_ref_draws_key_accepted_and_ignored(tmp_path, capsys):
    csvs = []
    for name, body in [("legacy", QQ_CFG), ("plain", {
            k: v for k, v in QQ_CFG.items() if k != "ref_draws"})]:
        cfg_path = write(tmp_path, f"{name}.json", json.dumps(body))
        out = tmp_path / name
        assert run(capsys, ["qq", "--config", cfg_path, "--out", str(out)])[0] == 0
        meta = json.loads((out / "qq_metadata.json").read_text())
        assert "ref_draws" not in meta["config"] and "ref_draws" not in meta["extras"]
        csvs.append((out / "qq.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("command,body,key", [
    ("table", {**TABLE_CFG, "median_tolerence": 0, "methods": ["mean"]},
     "median_tolerence"),
    ("table", {**TABLE_CFG, "method": ["mean"]}, "method"),
    ("qq", {**QQ_CFG, "refdraws": 1000}, "refdraws"),
    ("sweep", {"statistic": "sweep", "model": {
        **SPHERICAL2, "generator": "singularity", "gamma": 0.1},
        "p_grid": [2], "gamma_grid": [0.1], "n_grid": [5], "replications": 2,
        "master_seed": 1, "gama_grid": [0.2]}, "gama_grid"),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, command, body, key):
    cfg_path = write(tmp_path, "cfg.json", json.dumps(body))
    code, _, err = run(capsys, [command, "--config", cfg_path,
                                "--out", str(tmp_path / "out")])
    assert code == 2
    assert err.startswith("error:")
    assert repr(key) in err
    assert not (tmp_path / "out").exists()


SWEEP_CFG = {"statistic": "sweep", "model": {**SPHERICAL2, "generator": "singularity",
             "gamma": 0.1}, "p_grid": [3], "gamma_grid": [0.1], "n_grid": [5],
             "replications": 2, "master_seed": 1}


@pytest.mark.parametrize("command,body,key", [
    ("sweep", {**SWEEP_CFG, "element": [7, 9]}, "element"),
    ("sweep", {**SWEEP_CFG, "element": [0, 2]}, "element"),
    ("table", {**TABLE_CFG, "element": [1, 0]}, "element"),
    ("table", {**TABLE_CFG, "gamma_grid": [0.5]}, "gamma_grid"),
    ("qq", {**QQ_CFG, "p_grid": [9]}, "p_grid"),
    ("qq", {**QQ_CFG, "gamma_grid": [0.5]}, "gamma_grid"),
])
def test_config_key_its_statistic_does_not_read_exits_2(tmp_path, capsys, command, body,
                                                        key):
    cfg_path = write(tmp_path, "cfg.json", json.dumps(body))
    code, out, err = run(capsys, [command, "--config", cfg_path,
                                  "--out", str(tmp_path / "out")])
    assert (code, out) == (2, "")
    assert err == f"error: {key} does not apply to {command}\n"
    assert not (tmp_path / "out").exists()


def test_metadata_config_block_reruns(tmp_path, capsys):
    # the config block of the metadata is itself a valid config
    first, again = tmp_path / "first", tmp_path / "again"
    cfg_path = write(tmp_path, "cfg.json", json.dumps(QQ_CFG))
    assert run(capsys, ["qq", "--config", cfg_path, "--out", str(first)])[0] == 0
    block = json.loads((first / "qq_metadata.json").read_text())["config"]
    cfg_path = write(tmp_path, "block.json", json.dumps(block))
    assert run(capsys, ["qq", "--config", cfg_path, "--out", str(again)])[0] == 0
    assert (again / "qq.csv").read_bytes() == (first / "qq.csv").read_bytes()


def test_asymptotics_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(72)
    X = rng.standard_normal((40, 2))
    csv_path = write(
        tmp_path,
        "data.csv",
        "\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n",
    )
    code, out, _ = run(capsys, ["asymptotics", csv_path, "--location", "mean"])
    assert code == 0
    payload = json.loads(out)
    assert payload["joint_cov"]["dims"] == [6, 6]

    code, out, _ = run(capsys, ["asymptotics", csv_path, "--location", "median"])
    assert code == 0
    payload = json.loads(out)
    assert payload["joint_cov"] is None
    assert payload["fixed_cov"]["dims"] == [4, 4]


def table_config(tmp_path, seed=2002):
    cfg = {
        "statistic": "table",
        "model": {"generator": "gaussian", "mu": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "p_grid": [10, 50],
        "n_grid": [5, 1000],
        "methods": ["known", "mean"],
        "replications": 100,
        "master_seed": seed,
    }
    return write(tmp_path, "table.json", json.dumps(cfg))


def test_table_fast_profile_artifacts(tmp_path, capsys):
    cfg_path = table_config(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, ["table", "--config", cfg_path, "--fast", "--out", str(out_dir)]
    )
    assert code == 0
    lines = (out_dir / "table.csv").read_text().strip().splitlines()
    assert lines[0] == "p,n,method,mean,se,replications"
    assert len(lines) == 1 + 2 * 2 * 2  # 8 cells
    assert all(line.endswith(",10") for line in lines[1:])  # fast: 100 // 10
    meta = json.loads((out_dir / "table_metadata.json").read_text())
    assert meta["config"]["replications"] == 10
    assert "artifacts:" in out


def test_table_worker_independence(tmp_path, capsys):
    cfg_path = table_config(tmp_path)
    outs = []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"w{workers}"
        code, _, _ = run(
            capsys,
            ["table", "--config", cfg_path, "--fast", "--workers", workers,
             "--out", str(out_dir)],
        )
        assert code == 0
        outs.append((out_dir / "table.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_code(tmp_path, capsys, workers):
    cfg_path = table_config(tmp_path)
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys,
        ["table", "--config", cfg_path, "--fast", "--workers", workers,
         "--out", str(out_dir)],
    )
    assert code == 2
    assert "workers must be at least 1" in err
    assert not (out_dir / "table.csv").exists()


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    cfg_path = table_config(tmp_path, seed=1)
    env_dir = tmp_path / "env"
    monkeypatch.setenv("SIGNCOV_SEED", "4242")
    code, _, _ = run(capsys, ["table", "--config", cfg_path, "--fast", "--out", str(env_dir)])
    assert code == 0
    monkeypatch.delenv("SIGNCOV_SEED")
    flag_dir = tmp_path / "flag"
    code, _, _ = run(
        capsys,
        ["table", "--config", cfg_path, "--fast", "--seed", "4242", "--out", str(flag_dir)],
    )
    assert code == 0
    assert (env_dir / "table.csv").read_bytes() == (flag_dir / "table.csv").read_bytes()
    meta = json.loads((env_dir / "table_metadata.json").read_text())
    assert meta["master_seed"] == 4242


def test_experiment_config_errors(tmp_path, capsys):
    code, _, err = run(capsys, ["table", "--config", str(tmp_path / "none.json")])
    assert code == 2

    bad = write(tmp_path, "bad.json", "{not json")
    code, _, err = run(capsys, ["table", "--config", bad])
    assert code == 2
    assert "JSON" in err

    qq_cfg = write(
        tmp_path,
        "qq.json",
        json.dumps(
            {
                "statistic": "qq",
                "model": {"generator": "gaussian", "mu": [0.0, 0.0],
                          "V": [[1.0, 0.0], [0.0, 1.0]]},
                "n_grid": [10],
                "replications": 5,
                "master_seed": 3,
            }
        ),
    )
    code, _, err = run(capsys, ["table", "--config", qq_cfg])
    assert code == 2
    assert "does not match" in err


@pytest.mark.parametrize("key,value,message", [
    # JSON 1e999 parses to inf, a tolerance at which every point certifies
    ("median_tolerance", "1e999", "below 0.2"),
    ("median_max_iterations", "2.5", "integer"),
    ("median_max_iterations", '"5"', "integer"),
    ("median_max_iterations", "1e999", "integer"),
])
def test_vacuous_median_options_exit_code(tmp_path, capsys, key, value, message):
    cfg = write(tmp_path, "table.json", (
        '{"statistic": "table", "model": {"generator": "gaussian", '
        '"mu": [0, 0, 0], "V": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, '
        '"p_grid": [3], "n_grid": [10], "replications": 4, "master_seed": 1, '
        f'"{key}": {value}}}'
    ))
    code, _, err = run(capsys, ["table", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2 and message in err
    assert not (tmp_path / "out" / "table.csv").exists()


def test_unknown_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "x.csv", "--bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# start-up: no command loads scipy
# ---------------------------------------------------------------------------

# imports signcov.cli, runs the command in argv if there is one, and prints
# the scipy modules then loaded as the last line of stderr
FRESH_CLI = """
import json, sys
import signcov.cli
code = signcov.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")),
      file=sys.stderr)
sys.exit(code)
"""
P3_MODEL = json.dumps({"generator": "student_t", "nu": 4.0, "mu": [1.0, 0.0, -1.0],
                       "V": [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]]})


def run_fresh(argv):
    """(exit code, stdout, scipy modules loaded) of a signcov command run in
    a fresh interpreter with only the package's source tree on the path; the
    test process has long loaded scipy, so only a fresh one shows what a
    command imports."""
    src = str(Path(signcov.cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CLI, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    assert run_fresh([]) == (0, "", [])


def test_cli_import_loads_no_multiprocessing():
    # the harness forks its workers itself; multiprocessing costs ms to import
    src = str(Path(signcov.cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, signcov.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'multiprocessing'])"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert proc.stdout == "[]\n", proc.stderr


def test_forked_table_prints_its_summary_once(tmp_path):
    # a child that returned into the CLI, or flushed the parent's stdout
    # buffer on exit, would print the summary twice into the pipe
    code, out, modules = run_fresh(["table", "--config", table_config(tmp_path), "--fast",
                                    "--workers", "2", "--out", str(tmp_path / "out")])
    assert (code, modules) == (0, [])
    assert out.count("p n method mean se\n") == 1 and out.count("artifacts: ") == 1


@pytest.mark.parametrize("argv", [
    ["estimate", "--star", "--symmetrized", "--asymptotics"],
    ["asymptotics"],
])
def test_file_commands_load_no_scipy(tmp_path, capsys, argv):
    X = np.random.default_rng(73).standard_normal((30, 3))
    csv_path = write(
        tmp_path,
        "data.csv",
        "\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n",
    )
    argv = [argv[0], csv_path, *argv[1:]]
    code, out, modules = run_fresh(argv)
    assert (code, modules) == (0, [])
    assert out == run(capsys, argv)[1]


# imports signcov, lists the submodules then loaded, reads a submodule as an
# attribute, star-imports it and lists the public names the star import
# missed and those the package stored
FRESH_PACKAGE = """
import json, sys
import signcov
loaded = sorted(m for m in sys.modules if m.startswith("signcov."))
harness = signcov.simharness.run_experiment.__module__
namespace = {}
exec("from signcov import *", namespace)
public = set(signcov.__all__)
print(json.dumps([loaded, harness, sorted(public - set(namespace)),
                  sorted(public & set(vars(signcov)))]))
"""


def test_package_import_loads_no_submodule():
    # each public name loads its module on first use and is looked up anew
    # on every access, so the tracer's rebinding shows through the package
    src = str(Path(signcov.cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FRESH_PACKAGE],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert json.loads(proc.stdout) == [[], "signcov.simharness", [], []], proc.stderr


# runs the command in argv and prints whether numpy.ma was then loaded
FRESH_NUMPY_MA = """
import sys
import signcov.cli
code = signcov.cli.main(sys.argv[1:])
print("numpy.ma" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_table_and_median_estimate_load_no_numpy_ma(tmp_path):
    # np.median loads numpy.ma on first use, tens of ms per process; the
    # median's start is taken from np.partition instead
    X = np.random.default_rng(74).standard_normal((30, 3))
    csv_path = write(tmp_path, "data.csv", "\n".join(
        ",".join(repr(float(v)) for v in row) for row in X) + "\n")
    cfg_path = write(tmp_path, "table.json", json.dumps({
        "statistic": "table", "model": {"generator": "gaussian", "mu": [0, 0, 0],
        "V": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "p_grid": [3], "n_grid": [5, 8],
        "replications": 20, "master_seed": 3}))
    src = str(Path(signcov.cli.__file__).resolve().parents[1])
    for argv in (["table", "--config", cfg_path, "--fast", "--out", str(tmp_path / "out")],
                 ["estimate", csv_path, "--location", "median"]):
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_NUMPY_MA, *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0 and proc.stderr.splitlines()[-1] == "False"


def test_oracle_closed_in_fresh_interpreter(capsys):
    # the sign moments' quadrature is numpy's: the closed oracle loads no scipy
    argv = ["oracle", "--model", P3_MODEL, "--method", "closed"]
    code, out, modules = run_fresh(argv)
    assert (code, modules) == (0, [])
    assert out == run(capsys, argv)[1]


def test_qq_in_fresh_interpreter(tmp_path, capsys):
    cfg = {"statistic": "qq", "model": json.loads(P3_MODEL), "n_grid": [5, 8],
           "replications": 7, "master_seed": 5, "element": [0, 2]}
    cfg_path = write(tmp_path, "qq.json", json.dumps(cfg))
    outputs = {}
    for where in ("fresh", "in_process"):
        out_dir = tmp_path / where
        argv = ["qq", "--config", cfg_path, "--out", str(out_dir)]
        code, out, loaded = run_fresh(argv) if where == "fresh" else run(capsys, argv)
        assert code == 0
        if where == "fresh":  # no scipy module, the metadata writer's included
            assert loaded == []
        meta = json.loads((out_dir / "qq_metadata.json").read_text())
        del meta["wall_time"]
        summary = out.replace(str(out_dir), "OUT")
        outputs[where] = ((out_dir / "qq.csv").read_bytes(), meta, summary)
    assert outputs["fresh"] == outputs["in_process"]
    assert "scipy" not in outputs["fresh"][1]["versions"]
