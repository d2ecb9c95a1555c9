"""Command line interface.

Subcommands
-----------
``decompose``    Monte Carlo error decomposition table for the scenarios in a
                 JSON config.
``criteria``     criteria-vs-target MSE comparison for the same config format.
``ridge-ratio``  ridge Var_R / Var_S curve over a penalty grid.
``eval``         criteria for one CSV dataset (header row; last column is the
                 response).

Common flags: ``--config``, ``--out``, ``--seed``, ``--reps``, ``--threads``
(``RANDOMX_EVAL_THREADS`` is the fallback for ``--threads``).  Output is CSV
on stdout or at ``--out``; floats are printed with 17 significant digits so
files are round-trip exact and byte-stable, and byte-identical across
``--threads``.  With ``--out``, a small JSON run manifest is written next to
the output; it records the worker and BLAS thread counts and the Python,
numpy and scipy versions.

The study subcommands run their replicate loops with BLAS on one thread
unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set; ``eval`` has
no replicate loop and keeps the libraries' own BLAS threading.

Exit codes: 0 success, 2 configuration/input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from importlib import resources

import numpy as np
import scipy

from . import __version__
from ._pool import blas_threads
from .criteria import criteria_report
from .datagen import CovariateModel, MeanModel, NoiseModel
from .errors import (
    ConfigError,
    DegenerateNeighbors,
    DimensionError,
    DomainError,
    LeverageOne,
    NoConvergence,
    NotPositiveDefinite,
    ParseError,
    RankDeficient,
    ReplicateError,
)
from .experiments import (
    ScenarioConfig,
    run_criteria_study,
    run_decomposition_study,
    run_ridge_ratio_study,
)
from .smoothers import SmootherSpec, fit

__all__ = ["main", "RunManifest", "bundled_config_path"]

_NUMERIC_ERRORS = (
    NotPositiveDefinite,
    RankDeficient,
    NoConvergence,
    DomainError,
    DimensionError,
    LeverageOne,
    DegenerateNeighbors,
    ReplicateError,
)


def bundled_config_path(name: str) -> str:
    """Filesystem path of a bundled config (``high_dim.json`` etc.)."""
    path = resources.files("randomx_eval").joinpath("configs", name)
    if not path.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return str(path)


# --------------------------------------------------------------------------
# CSV / manifest emission
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    """Cells: floats at 17 significant digits, ints plain, strings as-is."""
    if isinstance(value, bool):
        raise TypeError("no boolean cells")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _emit_csv(header: list[str], rows: list[list], out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one CLI run, written as ``<out>.manifest.json``.

    ``threads`` is the resolved worker count (None for ``eval``, which has no
    replicate loop).  ``blas_threads`` is the BLAS thread count in force: the
    user's ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` when set, else 1 in a
    study's replicate loops and the libraries' own count for ``eval``, and
    None when no OpenBLAS thread control was found.
    """

    command: str
    config_digest: str
    seed: int | None
    version: str
    started: str
    finished: str
    threads: int | None
    blas_threads: int | str | None
    python_version: str
    numpy_version: str
    scipy_version: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _digest(config_bytes: bytes | None, params: dict) -> str:
    """SHA-256 of the config file bytes, or of canonical effective params."""
    if config_bytes is not None:
        return hashlib.sha256(config_bytes).hexdigest()
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_manifest(
    out: str | None,
    command: str,
    started: str,
    config_bytes: bytes | None,
    params: dict,
    seed: int | None,
    threads: int | None,
) -> None:
    if out is None:
        return
    manifest = RunManifest(
        command=command,
        config_digest=_digest(config_bytes, params),
        seed=seed,
        version=__version__,
        started=started,
        finished=_now(),
        threads=threads,
        blas_threads=blas_threads(in_loop=threads is not None),
        python_version=platform.python_version(),
        numpy_version=np.__version__,
        scipy_version=scipy.__version__,
    )
    with open(out + ".manifest.json", "w", encoding="utf-8", newline="") as fh:
        fh.write(manifest.to_json())


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

def _load_json(path: str) -> tuple[dict, bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")
    return doc, raw


def _get(doc: dict, field: str, kind, where: str = "", required: bool = True, default=None):
    label = f"{where}.{field}" if where else field
    if field not in doc:
        if required:
            raise ConfigError("missing", field=label)
        return default
    value = doc[field]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"expected {kind.__name__}, got {type(value).__name__}", field=label)
    return value


def _covariate_model(obj: dict, p: int, where: str) -> CovariateModel:
    variant = _get(obj, "variant", str, where)
    kwargs = {}
    if "blocks" in obj:
        kwargs["blocks"] = _get(obj, "blocks", int, where)
    if "rho" in obj:
        kwargs["rho"] = _get(obj, "rho", float, where)
    if "base" in obj:
        kwargs["base"] = _get(obj, "base", str, where)
    if "sigma_half" in obj:
        kwargs["sigma_half"] = np.asarray(_get(obj, "sigma_half", list, where), dtype=float)
    try:
        return CovariateModel(variant, p, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field=where) from exc


def _mean_model(obj: dict, where: str) -> MeanModel:
    variant = _get(obj, "variant", str, where)
    kwargs = {}
    if "C" in obj:
        kwargs["C"] = _get(obj, "C", float, where)
    if "beta" in obj:
        kwargs["beta"] = np.asarray(_get(obj, "beta", list, where), dtype=float)
    try:
        return MeanModel(variant, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field=where) from exc


def _smoother_spec(obj: dict | None, where: str = "smoother") -> SmootherSpec:
    if obj is None:
        return SmootherSpec.least_squares()
    variant = _get(obj, "variant", str, where)
    kwargs = {}
    for key, kind in (("lam", float), ("kernel", str), ("bandwidth", float), ("k", int)):
        if key in obj:
            kwargs[key] = _get(obj, key, kind, where)
    try:
        return SmootherSpec(variant, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field=where) from exc


def _scenarios_from_config(
    doc: dict, seed_override: int | None, reps_override: int | None
) -> tuple[list[ScenarioConfig], SmootherSpec]:
    n = _get(doc, "n", int)
    p = _get(doc, "p", int)
    sigma = _get(doc, "sigma", float)
    seed = seed_override if seed_override is not None else _get(doc, "seed", int, required=False, default=0)
    reps = reps_override if reps_override is not None else _get(doc, "reps", int, required=False, default=1000)
    test_m = _get(doc, "test_m", int, required=False, default=10_000)
    raw_scenarios = _get(doc, "scenarios", list)
    if not raw_scenarios:
        raise ConfigError("must be a non-empty list", field="scenarios")
    try:
        noise = NoiseModel(sigma)
    except ValueError as exc:
        raise ConfigError(str(exc), field="sigma") from exc

    scenarios = []
    for i, entry in enumerate(raw_scenarios):
        where = f"scenarios[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError("expected object", field=where)
        name = _get(entry, "name", str, where)
        cov = _covariate_model(_get(entry, "covariates", dict, where), p, f"{where}.covariates")
        mean = _mean_model(_get(entry, "mean", dict, where), f"{where}.mean")
        try:
            scenarios.append(
                ScenarioConfig(
                    covariates=cov, mean=mean, noise=noise, n=n,
                    test_m=test_m, reps=reps, seed=seed, name=name,
                )
            )
        except ValueError as exc:
            raise ConfigError(str(exc), field=where) from exc
    smoother = _smoother_spec(_get(doc, "smoother", dict, required=False))
    return scenarios, smoother


def _resolve_threads(args) -> int:
    if args.threads is not None:
        threads = args.threads
    else:
        env = os.environ.get("RANDOMX_EVAL_THREADS", "")
        if env:
            try:
                threads = int(env)
            except ValueError as exc:
                raise ConfigError(f"RANDOMX_EVAL_THREADS is not an integer: {env!r}") from exc
        else:
            threads = 1
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    return threads


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    started = _now()
    threads = _resolve_threads(args)
    doc, raw = _load_json(args.config)
    scenarios, smoother = _scenarios_from_config(doc, args.seed, args.reps)
    results = run_decomposition_study(scenarios, smoother, threads=threads)
    header = [
        "scenario", "covariates", "mean", "n", "p", "sigma",
        "B", "se_B", "V", "se_V", "Bplus", "se_Bplus", "Vplus", "se_Vplus",
        "errS", "errR",
    ]
    rows = []
    for sc, est in results:
        rows.append([
            sc.name, sc.covariates.variant, sc.mean.variant, sc.n, sc.p,
            sc.noise.sigma, est.B, est.se_B, est.V, est.se_V,
            est.Bplus, est.se_Bplus, est.Vplus, est.se_Vplus,
            est.err_s, est.err_r,
        ])
    _emit_csv(header, rows, args.out)
    _write_manifest(args.out, "decompose", started, raw, {}, scenarios[0].seed, threads)
    return 0


def cmd_criteria(args) -> int:
    started = _now()
    threads = _resolve_threads(args)
    doc, raw = _load_json(args.config)
    scenarios, smoother = _scenarios_from_config(doc, args.seed, args.reps)
    if smoother.variant != "least_squares":
        raise ConfigError("criteria study supports least squares only", field="smoother")
    header = ["scenario", "method", "mse", "bias2", "variance", "rel_to_ocv"]
    rows = []
    for sc in scenarios:
        for row in run_criteria_study(sc, threads=threads):
            rows.append([row.scenario, row.method, row.mse, row.bias2, row.variance, row.rel_to_ocv])
    _emit_csv(header, rows, args.out)
    _write_manifest(args.out, "criteria", started, raw, {}, scenarios[0].seed, threads)
    return 0


def cmd_ridge_ratio(args) -> int:
    started = _now()
    threads = _resolve_threads(args)
    doc, raw = ({}, None)
    if args.config:
        doc, raw = _load_json(args.config)

    def pick(flag, key, kind, default):
        if flag is not None:
            return flag
        return _get(doc, key, kind, required=False, default=default)

    n = pick(args.n, "n", int, 300)
    p = pick(args.p, "p", int, 100)
    reps = pick(args.reps, "reps", int, 100)
    seed = pick(args.seed, "seed", int, 0)
    lam_min = pick(args.lambda_min, "lambda_min", float, 1.0)
    lam_max = pick(args.lambda_max, "lambda_max", float, 1e6)
    points = pick(args.lambda_points, "lambda_points", int, 40)
    if points < 2:
        raise ConfigError("lambda_points must be >= 2")
    if not 0 < lam_min < lam_max:
        raise ConfigError("need 0 < lambda_min < lambda_max")
    try:
        curve = run_ridge_ratio_study(
            n=n, p=p,
            lambdas=np.logspace(np.log10(lam_min), np.log10(lam_max), points),
            reps=reps, seed=seed, threads=threads,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header = ["lambda", "ratio", "ci_low", "ci_high", "theory_limit"]
    rows = [
        [curve.lambdas[i], curve.ratio[i], curve.ci_low[i], curve.ci_high[i], curve.theoretical_limit]
        for i in range(curve.lambdas.size)
    ]
    _emit_csv(header, rows, args.out)
    params = {"command": "ridge-ratio", "n": n, "p": p, "reps": reps, "seed": seed,
              "lambda_min": lam_min, "lambda_max": lam_max, "lambda_points": points}
    _write_manifest(args.out, "ridge-ratio", started, raw, params, seed, threads)
    return 0


def _read_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read data file: {exc}") from exc
    if len(reader) < 2:
        raise ParseError("need a header row and at least one data row")
    width = len(reader[0])
    if width < 2:
        raise ParseError("need at least one covariate column and a response", row=1)
    data = []
    for i, row in enumerate(reader[1:], start=2):
        if len(row) != width:
            raise ParseError(f"expected {width} columns, got {len(row)}", row=i)
        try:
            data.append([float(v) for v in row])
        except ValueError as exc:
            raise ParseError(f"non-numeric value ({exc})", row=i) from exc
    arr = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParseError("non-finite value in data")
    return arr[:, :-1], arr[:, -1]


def cmd_eval(args) -> int:
    started = _now()
    X, Y = _read_dataset(args.data)
    if args.sigma2 is not None and args.sigma2 < 0:
        raise ConfigError("sigma2 must be >= 0")
    if args.smoother == "ls":
        spec = SmootherSpec.least_squares()
    else:
        if args.lam is None or args.lam <= 0:
            raise ConfigError("--smoother ridge requires --lam > 0")
        spec = SmootherSpec.ridge(args.lam)
    model = fit(spec, X, Y)
    report = criteria_report(model, sigma2=args.sigma2)
    pairs = [("rss", report.rss), ("sigma2_hat", report.sigma2_hat)]
    if report.cp is not None:
        pairs += [("cp", report.cp), ("rcp", report.rcp)]
    pairs += [("rcp_hat", report.rcp_hat), ("gcv", report.gcv), ("ocv", report.ocv)]
    if report.bplus_hat is not None:
        pairs += [("bplus_hat", report.bplus_hat), ("rcp_plus", report.rcp_plus)]
    _emit_csv(["key", "value"], [[k, v] for k, v in pairs], args.out)
    params = {"command": "eval", "data": os.path.basename(args.data),
              "sigma2": args.sigma2, "smoother": args.smoother, "lam": args.lam}
    _write_manifest(args.out, "eval", started, None, params, None, None)
    return 0


# --------------------------------------------------------------------------
# parser / entry point
# --------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, config_required: bool = True) -> None:
    sub.add_argument("--config", required=config_required, help="JSON study config")
    sub.add_argument("--out", help="write CSV here instead of stdout")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--reps", type=int, help="replicate count override")
    sub.add_argument("--threads", type=int,
                     help="worker threads (default: $RANDOMX_EVAL_THREADS or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randomx-eval",
        description="Random-X prediction error decomposition and criteria studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="error decomposition table for a config")
    _add_common(d)
    d.set_defaults(func=cmd_decompose)

    c = sub.add_parser("criteria", help="criteria MSE comparison for a config")
    _add_common(c)
    c.set_defaults(func=cmd_criteria)

    r = sub.add_parser("ridge-ratio", help="ridge Var_R/Var_S curve over a penalty grid")
    _add_common(r, config_required=False)
    r.add_argument("--n", type=int, help="training/test rows (default 300)")
    r.add_argument("--p", type=int, help="dimension (default 100)")
    r.add_argument("--lambda-min", type=float, dest="lambda_min")
    r.add_argument("--lambda-max", type=float, dest="lambda_max")
    r.add_argument("--lambda-points", type=int, dest="lambda_points")
    r.set_defaults(func=cmd_ridge_ratio)

    e = sub.add_parser("eval", help="criteria for one CSV dataset")
    e.add_argument("data", help="CSV with header; last column is the response")
    e.add_argument("--sigma2", type=float, help="known noise variance")
    e.add_argument("--smoother", choices=("ls", "ridge"), default="ls")
    e.add_argument("--lam", type=float, help="ridge penalty for --smoother ridge")
    e.add_argument("--out", help="write CSV here instead of stdout")
    e.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
