"""Command line interface.

Subcommands
-----------
``decompose``    Monte Carlo error decomposition table for the scenarios in a
                 JSON config.
``criteria``     criteria-vs-target MSE comparison for the same config format.
``ridge-ratio``  ridge Var_R / Var_S curve over a penalty grid.
``eval``         criteria for one CSV dataset (header row; last column is the
                 response).

The study subcommands take ``--config`` (optional for ``ridge-ratio``, which
also takes ``--n``, ``--p`` and ``--lambda-min/max/points``), ``--seed``,
``--reps`` and ``--threads`` (default 1); a flag given overrides the config's
value.  A config key the subcommand does not know, or a model field its
``variant`` does not read, is an error, so a misspelt field cannot silently
take its default.  ``eval`` takes the data file, ``--sigma2``, ``--smoother``
and, for ridge only, ``--lam``.  Every subcommand takes ``--out``.
Output is CSV on stdout or at ``--out``; floats are printed with 17
significant digits so files are round-trip exact and byte-stable, and
byte-identical across ``--threads``.  With ``--out``, a small JSON run
manifest is written next to the output; it records the worker and BLAS
thread counts and the Python, numpy and scipy versions.

The study subcommands run their replicate loops with BLAS on one thread
unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set; ``eval`` has
no replicate loop and keeps the libraries' own BLAS threading.

Exit codes: 0 success, 2 configuration/input error (a malformed, unknown or
out-of-range config key or value, an out-of-range flag, a study argument the
study rejects, a bad or malformed CSV data file, sizes a formula rejects with a
`DimensionError` in any subcommand, an ``--out`` that cannot be written), 3
numeric failure (a `NumericError` or a failing replicate).
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
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from importlib import resources

import numpy as np
import scipy

from . import __version__
from ._pool import blas_threads
from .criteria import criteria_report
from .datagen import CovariateModel, MeanModel, NoiseModel
from .errors import ConfigError, NumericError, ParseError, ReplicateError
from .experiments import (
    ScenarioConfig,
    run_criteria_study,
    run_decomposition_study,
    run_ridge_ratio_study,
)
from .smoothers import SmootherSpec, fit

__all__ = ["main", "RunManifest", "bundled_config_path"]


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
    if isinstance(value, (bool, np.bool_)):
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


def _write_manifest(out: str, command: str, started: str, source: bytes | dict,
                    seed: int | None, threads: int | None) -> None:
    """Write ``<out>.manifest.json``.

    The digest is the SHA-256 of the config file bytes, or of the canonical
    effective params when ``source`` is a dict.
    """
    if isinstance(source, dict):
        source = json.dumps(source, sort_keys=True, separators=(",", ":")).encode()
    manifest = RunManifest(
        command=command,
        config_digest=hashlib.sha256(source).hexdigest(),
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


def _check_keys(doc: dict, known, where: str = "", message: str = "unknown key") -> None:
    """Reject a key outside ``known``, which would otherwise be ignored unread."""
    for key in doc:
        if key not in known:
            raise ConfigError(message, field=f"{where}.{key}" if where else key)


def _pick(flag, doc: dict, key: str, kind, default):
    """The flag if given, else the config value, else the default."""
    if flag is not None:
        return flag
    return _get(doc, key, kind, required=False, default=default)


# The keys of a study config, of one of its scenarios and of a ridge-ratio config.
_STUDY_KEYS = ("seed", "reps", "n", "p", "test_m", "sigma", "scenarios", "smoother")
_SCENARIO_KEYS = ("name", "covariates", "mean")
_RIDGE_KEYS = ("seed", "n", "p", "reps", "lambda_min", "lambda_max", "lambda_points")


def _model(cls, obj: dict, where: str, *args):
    """``cls(variant, *args, **fields)`` from one config object.

    Only the keys ``cls.FIELDS`` lists for the variant are read, any other is a
    `ConfigError` naming it, as is a value the constructor rejects.
    """
    variant = _get(obj, "variant", str, where)
    if variant not in cls.FIELDS:
        raise ConfigError(f"unknown variant {variant!r}", field=f"{where}.variant")
    reads = cls.FIELDS[variant]
    _check_keys(obj, ("variant", *reads), where, f"unknown key for variant {variant!r}")
    fields = {key: _get(obj, key, kind, where) for key, kind in reads.items() if key in obj}
    try:
        return cls(variant, *args, **fields)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field=where) from exc


def _load_study(args) -> tuple[list[ScenarioConfig], SmootherSpec, bytes]:
    """Scenarios, smoother and config bytes of a ``decompose``/``criteria`` run."""
    doc, raw = _load_json(args.config)
    _check_keys(doc, _STUDY_KEYS)
    n = _get(doc, "n", int)
    p = _get(doc, "p", int)
    sigma = _get(doc, "sigma", float)
    seed = _pick(args.seed, doc, "seed", int, 0)
    reps = _pick(args.reps, doc, "reps", int, 1000)
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
        _check_keys(entry, _SCENARIO_KEYS, where)
        name = _get(entry, "name", str, where)
        cov = _model(CovariateModel, _get(entry, "covariates", dict, where),
                     f"{where}.covariates", p)
        mean = _model(MeanModel, _get(entry, "mean", dict, where), f"{where}.mean")
        try:
            scenarios.append(ScenarioConfig(covariates=cov, mean=mean, noise=noise, n=n,
                                            test_m=test_m, reps=reps, seed=seed, name=name))
        except ValueError as exc:
            raise ConfigError(str(exc), field=where) from exc
    obj = _get(doc, "smoother", dict, required=False)
    smoother = (SmootherSpec.least_squares() if obj is None
                else _model(SmootherSpec, obj, "smoother"))
    if smoother.k > n:
        raise ConfigError(f"k={smoother.k} exceeds n={n}", field="smoother")
    return scenarios, smoother, raw


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

# Each subcommand returns (header, rows, digest source, seed, threads); the
# digest source is the config file's bytes, or the effective params without one.

def cmd_decompose(args):
    scenarios, smoother, raw = _load_study(args)
    header = [
        "scenario", "covariates", "mean", "n", "p", "sigma",
        "B", "se_B", "V", "se_V", "Bplus", "se_Bplus", "Vplus", "se_Vplus",
        "errS", "errR",
    ]
    rows = [
        [
            sc.name, sc.covariates.variant, sc.mean.variant, sc.n, sc.p,
            sc.noise.sigma, est.B, est.se_B, est.V, est.se_V,
            est.Bplus, est.se_Bplus, est.Vplus, est.se_Vplus,
            est.err_s, est.err_r,
        ]
        for sc, est in run_decomposition_study(scenarios, smoother, threads=args.threads)
    ]
    return header, rows, raw, scenarios[0].seed, args.threads


def cmd_criteria(args):
    scenarios, smoother, raw = _load_study(args)
    if smoother.variant != "least_squares":
        raise ConfigError("criteria study supports least squares only", field="smoother")
    rows = [
        [row.scenario, row.method, row.mse, row.bias2, row.variance, row.rel_to_ocv]
        for row in run_criteria_study(scenarios, threads=args.threads)
    ]
    header = ["scenario", "method", "mse", "bias2", "variance", "rel_to_ocv"]
    return header, rows, raw, scenarios[0].seed, args.threads


def cmd_ridge_ratio(args):
    doc, raw = _load_json(args.config) if args.config else ({}, None)
    _check_keys(doc, _RIDGE_KEYS)
    n = _pick(args.n, doc, "n", int, 300)
    p = _pick(args.p, doc, "p", int, 100)
    reps = _pick(args.reps, doc, "reps", int, 100)
    seed = _pick(args.seed, doc, "seed", int, 0)
    lam_min = _pick(args.lambda_min, doc, "lambda_min", float, 1.0)
    lam_max = _pick(args.lambda_max, doc, "lambda_max", float, 1e6)
    points = _pick(args.lambda_points, doc, "lambda_points", int, 40)
    if points < 2:
        raise ConfigError("lambda_points must be >= 2")
    if not 0 < lam_min < lam_max < np.inf:
        raise ConfigError("need 0 < lambda_min < lambda_max < inf")
    curve = run_ridge_ratio_study(
        n=n, p=p,
        lambdas=np.logspace(np.log10(lam_min), np.log10(lam_max), points),
        reps=reps, seed=seed, threads=args.threads,
    )
    rows = [
        [curve.lambdas[i], curve.ratio[i], curve.ci_low[i], curve.ci_high[i], curve.theoretical_limit]
        for i in range(curve.lambdas.size)
    ]
    params = {"command": "ridge-ratio", "n": n, "p": p, "reps": reps, "seed": seed,
              "lambda_min": lam_min, "lambda_max": lam_max, "lambda_points": points}
    header = ["lambda", "ratio", "ci_low", "ci_high", "theory_limit"]
    return header, rows, params if raw is None else raw, seed, args.threads


#: How `np.loadtxt` reads the rows of an ``eval`` CSV: comma-separated, fields
#: optionally in double quotes, no comment lines; blank lines are skipped.
_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 2}


def _loadtxt(text) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(text, **_LOADTXT)


def _read_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Covariates and response of an ``eval`` CSV.

    The header row is read with `csv` and the data rows with one call of
    numpy's C reader.  Only when that call fails, or its result has the wrong
    width or a non-finite value, is the file read again, record by record as
    `csv` splits them, to name the row where the first bad record starts.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            reader = csv.reader(fh)
            width = len(next(reader, []))
            if width < 2:
                raise ParseError("need a header with at least one covariate column and a response",
                                 row=1)
            first_row = reader.line_num + 1
            try:
                data = _loadtxt(fh)
            except ValueError:
                data = None
        if data is not None and len(data) == 0:
            raise ParseError("need at least one data row", row=first_row)
        if data is None or data.shape[1] != width or not np.all(np.isfinite(data)):
            raise _bad_row(path, width)
        if len(data) < 2:
            raise ParseError("need at least two data rows, got one", row=first_row)
    except OSError as exc:
        raise ParseError(f"cannot read data file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"data file is not UTF-8 text ({exc})") from exc
    except csv.Error as exc:  # the header's: `_bad_row` names a data record's own row
        raise ParseError(f"malformed CSV ({exc})", row=1) from exc
    return data[:, :-1], data[:, -1]


def _bad_row(path: str, width: int) -> ParseError:
    """The error naming the first data record, as `csv` splits them, with other than
    ``width`` cells or, left to right, a cell `np.loadtxt` rejects or reads as non-finite;
    a record's cells are read in one call, and cell by cell only if that call finds one."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        row = reader.line_num + 1
        try:
            for cells in reader:
                if cells and len(cells) != width:
                    return ParseError(f"expected {width} columns, got {len(cells)}", row=row)
                quoted = ['"%s"' % cell.replace('"', '""') for cell in cells]
                try:
                    good = np.isfinite(_loadtxt(io.StringIO("\n".join(quoted)))).all()
                except ValueError:
                    good = False
                for j, (cell, text) in enumerate(zip(cells, [] if good else quoted), start=1):
                    try:
                        value = _loadtxt(io.StringIO(text))
                    except ValueError:
                        return ParseError(f"non-numeric value {cell!r} in column {j}", row=row)
                    if not np.isfinite(value).all():
                        return ParseError(f"non-finite value in column {j}", row=row)
                row = reader.line_num + 1
        except csv.Error as exc:
            return ParseError(f"malformed CSV ({exc})", row=row)
    return ParseError("malformed data")


def cmd_eval(args):
    if args.sigma2 is not None and not 0 <= args.sigma2 < np.inf:
        raise ConfigError("--sigma2 must be finite and >= 0")
    if args.smoother == "ridge" and not 0 < (args.lam or 0) < np.inf:
        raise ConfigError("--smoother ridge requires a finite --lam > 0")
    if args.smoother == "ls" and args.lam is not None:
        raise ConfigError("--lam applies to --smoother ridge only")
    X, Y = _read_dataset(args.data)
    spec = SmootherSpec.least_squares() if args.smoother == "ls" else SmootherSpec.ridge(args.lam)
    report = criteria_report(fit(spec, X, Y), sigma2=args.sigma2)
    pairs = [("rss", report.rss), ("sigma2_hat", report.sigma2_hat)]
    if report.cp is not None:
        pairs += [("cp", report.cp), ("rcp", report.rcp)]
    pairs += [("rcp_hat", report.rcp_hat), ("gcv", report.gcv), ("ocv", report.ocv)]
    if report.bplus_hat is not None:
        pairs += [("bplus_hat", report.bplus_hat), ("rcp_plus", report.rcp_plus)]
    params = {"command": "eval", "data": os.path.basename(args.data),
              "sigma2": args.sigma2, "smoother": args.smoother, "lam": args.lam}
    return ["key", "value"], [list(pair) for pair in pairs], params, None, None


# --------------------------------------------------------------------------
# parser / entry point
# --------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, config_required: bool = True) -> None:
    sub.add_argument("--config", required=config_required, help="JSON study config")
    sub.add_argument("--out", help="write CSV here instead of stdout")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--reps", type=int, help="replicate count override")
    sub.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")


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


def _check_out(out: str | None) -> None:
    """Reject an ``--out`` that cannot be written, before any work is done."""
    if out is None:
        return
    target = out if os.path.exists(out) else os.path.dirname(out) or "."
    if os.path.isdir(out) or not os.access(target, os.W_OK):
        raise ConfigError(f"--out {out!r} cannot be written")


def main(argv=None) -> int:
    """Run one subcommand; this is the one place its errors become exit codes (module docstring)."""
    args = build_parser().parse_args(argv)
    started = _now()
    try:
        _check_out(args.out)
        header, rows, source, seed, threads = args.func(args)
    except (ValueError, ReplicateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (NumericError, ReplicateError)) else 2
    _emit_csv(header, rows, args.out)
    if args.out is not None:
        _write_manifest(args.out, args.command, started, source, seed, threads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
