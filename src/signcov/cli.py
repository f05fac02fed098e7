"""Command-line front end.

Subcommands:

* ``estimate``    -- location + SSCM variants for a numeric CSV file.
* ``oracle``      -- population SSCM of a model (exact, or MC).
* ``asymptotics`` -- limit-covariance bundle for a numeric CSV file.
* ``table`` / ``qq`` / ``sweep`` -- the Monte Carlo experiment families,
  driven by a JSON config file.

Exit codes: 0 success, 2 input/config error, 3 degenerate data. The
environment variable SIGNCOV_SEED overrides the default seed when no --seed
is given explicitly.

Matrices are serialized as {"dims": [rows, cols], "data": [row-major]}.
JSON floats use Python repr, so parsing the output back recovers every
value exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .asymptotics import (
    AsymptoticsBundle,
    compute_bundle,
    fixed_location_cov,
    location_sensitivity,
)
from .errors import DegenerateSampleError, InvalidInputError
from .linalg import matrix_json
from .location import LOCATION_METHODS, locate
from .location import spatial_median  # noqa: F401 - bound for bench/ tracer tests
# models and simharness load here, though only oracle and the experiments run them:
# bench/tests expects `import signcov.cli` to load every module its tracer wraps
from .models import (
    EllipticalModel,
    SeededStream,
    population_sscm_closed_p2,
    population_sscm_mc,
    sign_moments,
)
from .scatter import ScatterMatrix, sscm_plugin, sscm_star, ssscm
from .simharness import (
    STATISTICS,
    ExperimentConfig,
    run_experiment,
    write_metadata_json,
    write_result_csv,
)

SEED_ENV_VAR = "SIGNCOV_SEED"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


def read_numeric_csv(path) -> np.ndarray:
    """Strict numeric CSV reader with header auto-detection.

    The first row is treated as a header iff any of its fields fails to
    parse as a float. Any non-numeric field in a data row is a hard error
    (silently dropping rows would bias the estimators).
    """
    path = Path(path)
    if not path.is_file():
        raise InvalidInputError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        raw = [(k + 1, row) for k, row in enumerate(csv.reader(fh)) if row]
    if not raw:
        raise InvalidInputError(f"{path}: no data rows")

    # first row is a header iff any of its fields is non-numeric
    data = raw
    try:
        list(map(float, raw[0][1]))
    except ValueError:
        data = raw[1:]
        if not data:
            raise InvalidInputError(f"{path}: header but no data rows") from None
    try:
        rows = [list(map(float, row)) for _, row in data]
    except ValueError:  # find the first field that fails, to name it
        for lineno, row in data:
            for col, field in enumerate(row, 1):
                try:
                    float(field)
                except ValueError:
                    raise InvalidInputError(
                        f"{path}: line {lineno}, column {col}: "
                        f"not numeric: {field.strip()!r}"
                    ) from None

    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InvalidInputError(f"{path}: rows have inconsistent column counts")
    return np.asarray(rows, dtype=float)


def _read_input(args) -> tuple[np.ndarray, np.ndarray | None]:
    """The CSV sample of a file-input command and its --fixed location
    (None unless --location fixed, the one location that reads it)."""
    if args.fixed is not None and args.location != "fixed":
        raise InvalidInputError(f"--fixed needs --location fixed, not {args.location}")
    X = read_numeric_csv(args.input)
    if X.shape[0] < 2 or X.shape[1] < 2:
        raise InvalidInputError(
            f"need at least 2 rows and 2 columns, got {X.shape[0]}x{X.shape[1]}"
        )
    if args.location != "fixed":
        return X, None
    if args.fixed is None:
        raise InvalidInputError('--location fixed requires --fixed "c1,c2,..."')
    try:
        t = np.asarray([float(v) for v in args.fixed.split(",")])
    except ValueError:
        raise InvalidInputError(
            f"--fixed must be comma-separated numbers: {args.fixed!r}"
        ) from None
    if t.size != X.shape[1]:
        raise InvalidInputError(
            f"--fixed has {t.size} coordinates, data has {X.shape[1]}"
        )
    return X, t


def _scatter_json(s: ScatterMatrix) -> dict:
    return {
        "matrix": matrix_json(s.matrix),
        "variant": s.variant,
        "n_effective": s.n_effective,
        "location_used": None
        if s.location_used is None
        else np.asarray(s.location_used).tolist(),
    }


def _emit(payload, out_path, fmt: str = "json"):
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:  # csv: section,i,j,value rows for matrices; section,k,,value for vectors
        lines = ["section,i,j,value"] + [
            f"location,{k},,{v!r}"
            for k, v in enumerate(payload["location"]["estimate"])
        ]
        for section in ("sscm", "starred", "symmetrized"):
            if payload[section]:
                mat = payload[section]["matrix"]
                cols = mat["dims"][1]
                lines += [
                    f"{section},{k // cols},{k % cols},{v!r}"
                    for k, v in enumerate(mat["data"])
                ]
        text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_estimate(args) -> int:
    if args.asymptotics and args.output == "csv":  # the CSV form has no bundle rows
        raise InvalidInputError("--asymptotics needs --output json")
    X, t = _read_input(args)
    scatter, loc, report = sscm_plugin(X, method=args.location, t=t)

    payload = {
        "location": {
            "estimate": loc.estimate.tolist(),
            "method": loc.method,
            "iterations": loc.iterations,
            "converged": loc.converged,
            "anchored": loc.anchored,
            "objective": loc.objective,
            "degenerate_geometry": loc.degenerate_geometry,
        },
        "sscm": _scatter_json(scatter),
        "coincidence": {
            "n": report.n,
            "n_star": report.n_star,
            "indices_coincident": report.indices_coincident,
        },
        "starred": _scatter_json(sscm_star(X, loc.estimate)) if args.star else None,
        "symmetrized": _scatter_json(ssscm(X)) if args.symmetrized else None,
        "asymptotics": _bundle_payload(X, args.location, loc.estimate)
        if args.asymptotics
        else None,
    }
    _emit(payload, args.out, args.output)
    return EXIT_OK


def _bundle_payload(X, location_method: str, t) -> dict:
    """Full bundle for the mean location; for any other location only the
    fixed-location covariance and the sensitivity apply, so the joint and
    plug-in pieces are null."""
    if location_method == "mean":
        bundle = compute_bundle(X, t)
    else:
        bundle = AsymptoticsBundle(
            fixed_location_cov(X, t), location_sensitivity(X, t), int(X.shape[0])
        )
    return {
        **bundle.to_json_dict(),
        "location_used": np.asarray(t).tolist(),
        "location_method": location_method,
    }


def cmd_oracle(args) -> int:
    model = EllipticalModel.from_json(args.model)
    if args.method == "closed":  # exact: the bivariate closed form, or quadrature
        s = (population_sscm_closed_p2(model.V) if model.p == 2
             else sign_moments(model.V).population())
        se, n_draws = None, None
    else:
        seed = _resolve_seed(args.seed, default=0)
        n_draws = args.mc_size
        s, se = population_sscm_mc(model, n_draws, SeededStream(seed, 0))
    _emit({
        "matrix": matrix_json(s.matrix),
        "se": matrix_json(se),
        "method": args.method,
        "n_draws": n_draws,
    }, None)
    return EXIT_OK


def cmd_asymptotics(args) -> int:
    X, t = _read_input(args)
    t = locate(X, args.location, t=t).estimate
    _emit(_bundle_payload(X, args.location, t), args.out)
    return EXIT_OK


def _resolve_seed(explicit, default):
    """--seed beats SIGNCOV_SEED beats the provided default."""
    if explicit is not None:
        return explicit
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidInputError(f"{SEED_ENV_VAR} must be an integer: {env!r}")
    return default


def cmd_experiment(args) -> int:
    path = Path(args.config)
    if not path.is_file():
        raise InvalidInputError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON: {exc}") from None
    config = ExperimentConfig.from_json_dict(raw)
    if config.statistic != args.statistic:
        raise InvalidInputError(
            f"config statistic {config.statistic!r} does not match "
            f"subcommand {args.statistic!r}"
        )
    seed = _resolve_seed(args.seed, default=config.master_seed)
    if seed != config.master_seed:
        config = dataclasses.replace(config, master_seed=seed)
    if args.fast:
        config = config.fast_profile()

    result = run_experiment(config, workers=args.workers)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.statistic}.csv"
    meta_path = out_dir / f"{config.statistic}_metadata.json"
    write_result_csv(result, csv_path)
    write_metadata_json(result, meta_path)

    _print_summary(result)
    sys.stdout.write(f"artifacts: {csv_path} {meta_path}\n")
    return EXIT_OK


def _print_summary(result) -> None:
    """The summary header, then one line per cell of the values its
    metadata shows, leaving out those that do not apply (None)."""
    stat = STATISTICS[result.config.statistic]
    sys.stdout.write(stat.summary_header + "\n")
    for c in result.cells:
        fields = (getattr(c, name) for name in stat.columns)
        sys.stdout.write(" ".join(
            f"{v:.6g}" if isinstance(v, float) else str(v)
            for v in fields if v is not None
        ) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signcov",
        description="Spatial sign covariance matrices with estimated location.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def file_command(name, help_text, handler, location):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", help="numeric CSV (header auto-detected)")
        cmd.add_argument("--location", choices=LOCATION_METHODS, default=location)
        cmd.add_argument("--fixed", help='fixed location as "c1,c2,..."')
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.set_defaults(handler=handler)
        return cmd

    est = file_command(
        "estimate", "estimate location and SSCM from a CSV file", cmd_estimate, "median"
    )
    est.add_argument("--star", action="store_true", help="include the trace-1 variant")
    est.add_argument(
        "--symmetrized", action="store_true", help="include the pairwise-difference SSCM"
    )
    est.add_argument(
        "--asymptotics", action="store_true", help="include the limit-covariance bundle"
    )
    est.add_argument("--output", choices=["json", "csv"], default="json")

    orc = sub.add_parser("oracle", help="population SSCM of a model")
    orc.add_argument("--model", required=True, help="model JSON object")
    orc.add_argument("--method", choices=["closed", "mc"], default="closed")
    orc.add_argument("--mc-size", type=int, default=1_000_000)
    orc.add_argument("--seed", type=int, default=None)
    orc.set_defaults(handler=cmd_oracle)

    file_command(
        "asymptotics", "limit-covariance bundle from a CSV file", cmd_asymptotics, "mean"
    )

    for name, help_text in [
        ("table", "spherical-error table experiment"),
        ("qq", "element-error quantile experiment"),
        ("sweep", "singularity-family error sweep"),
    ]:
        exp = sub.add_parser(name, help=help_text)
        exp.add_argument("--config", required=True, help="experiment config JSON")
        exp.add_argument("--seed", type=int, default=None)
        exp.add_argument("--workers", type=int, default=1)
        exp.add_argument("--fast", action="store_true", help="1/10 replications")
        exp.add_argument("--out", default=".", help="output directory")
        exp.set_defaults(statistic=name, handler=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DegenerateSampleError as exc:
        sys.stderr.write(f"error: degenerate sample: {exc}\n")
        return EXIT_DEGENERATE
    # numpy's MemoryError names the size it could not allocate
    except (InvalidInputError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
