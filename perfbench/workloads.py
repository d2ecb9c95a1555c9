"""The benchmark's workloads: their generated inputs, sizes and output checks.

Each workload is one or more ``randomx-eval`` commands.  A command runs at
full size (the measured work) and at set-up size (the fixed cost of one
invocation: studies at ``--reps 2``, ``eval`` on a 200-row slice of the same
CSV).  Every invocation's CSV is checked here; a failed check is a failed
operation of the benchmark.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Workload seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept out of tuning, for confirming a claimed gain on unseen inputs.
HELDOUT_SEED = 8160

SETUP_REPS = 2
EVAL_SLICE_ROWS = 200
#: The V+ check below is a 4-standard-error test; with fewer replicates the
#: standard error is itself too noisy for the test to mean anything.
MIN_STAT_REPS = 30

DECOMPOSE_HEADER = [
    "scenario", "covariates", "mean", "n", "p", "sigma",
    "B", "se_B", "V", "se_V", "Bplus", "se_Bplus", "Vplus", "se_Vplus",
    "errS", "errR",
]
CRITERIA_HEADER = ["scenario", "method", "mse", "bias2", "variance", "rel_to_ocv"]
CRITERIA_METHODS = ["RCp", "RCpHat", "GCV", "RCpPlus", "OCV"]
EVAL_LS_KEYS = ["rss", "sigma2_hat", "cp", "rcp", "rcp_hat", "gcv", "ocv", "bplus_hat", "rcp_plus"]
EVAL_RIDGE_KEYS = ["rss", "sigma2_hat", "rcp_hat", "gcv", "ocv"]

HIGH_DIM = Path("src", "randomx_eval", "configs", "high_dim.json")
HIGH_DIM_SCENARIOS = [
    "normal/unbiased", "uniform/unbiased", "t4/unbiased",
    "normal/biased", "uniform/biased", "t4/biased",
]
LOCAL_SCENARIOS = [
    ("normal/biased", "normal_block"),
    ("t4/biased", "copula_t4"),
]

# Full-size work per invocation, chosen so that one invocation takes a few
# seconds on a 2-core machine: long enough that start-up is not all of it,
# short enough that a run holds several invocations to take a median of.
FULL_REPS = {"decompose_ls": 250, "criteria_high_dim": 10, "decompose_local": 6}
EVAL_ROWS = 20_000
EVAL_P = 50
EVAL_SIGMA2 = 400.0
EVAL_RIDGE_LAM = 100.0
KNN_K = 5


class CheckError(Exception):
    """An invocation's output is wrong."""


@dataclass(frozen=True)
class Size:
    """The arguments and the work of a command at one size."""

    args: tuple[str, ...]
    reps: int   # model fits: scenarios x replicates, or 1 for eval
    rows: int   # training rows fitted: reps x n, or dataset rows for eval
    check: Callable[[str], None]


@dataclass(frozen=True)
class Command:
    """One ``randomx-eval`` command of a workload.

    ``threads`` is the workload's ``--threads`` value, or ``None`` for a
    subcommand without that flag.
    """

    label: str
    full: Size
    setup: Size
    threads: int | None

    def argv(self, size: str, threads: int | None, out: Path) -> list[str]:
        args = list(getattr(self, size).args)
        if self.threads is not None:
            args += ["--threads", str(threads or self.threads)]
        return args + ["--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]

    @property
    def parallel(self) -> bool:
        return any((c.threads or 1) > 1 for c in self.commands)

    @property
    def steady_reps(self) -> int:
        """Model fits a full-size iteration does beyond a set-up-size one."""
        return sum(c.full.reps - c.setup.reps for c in self.commands)

    @property
    def steady_rows(self) -> int:
        """Training rows a full-size iteration fits beyond a set-up-size one."""
        return sum(c.full.rows - c.setup.rows for c in self.commands)


WHY = {
    "decompose_ls": "bundled high_dim decompose at --threads 2: sub-ms replicates, so the pool, "
                    "stream, small draws and decomp moments dominate; the only parallel path",
    "criteria_high_dim": "bundled high_dim criteria at --threads 1: a 10000x50 test draw and "
                         "predict per replicate, so large datagen draws and the criteria target dominate",
    "decompose_local": "kernel ridge and kNN decompose at n=500, p=50: 100 MB distance tensors "
                       "and an n x n Cholesky make it the memory-bound path",
    "eval_large": "eval of one 20000x50 CSV with ls and ridge: CSV read, one big fit with its "
                  "hat diagonal and criteria on long vectors, no replicate loop",
}


def make_workload(name: str, seed: int, workdir: Path, root: Path, smoke: bool = False) -> Workload:
    """Generate the workload's inputs from ``seed`` under ``workdir``.

    ``smoke`` shrinks the full size to one step above set-up size.
    """
    if name == "eval_large":
        commands = _eval_commands(seed, workdir, smoke)
    else:
        reps = SETUP_REPS + 1 if smoke else FULL_REPS[name]
        if name == "decompose_local":
            commands = _local_commands(seed, workdir, reps)
        else:
            commands = (_high_dim_command(name, seed, root, reps),)
    return Workload(name, WHY[name], commands)


def _study(subcommand: str, config: Path, seed: int, reps: int, scenarios: int, n: int,
           check: Callable[[str, int], None]) -> Size:
    args = (subcommand, "--config", str(config), "--seed", str(seed), "--reps", str(reps))
    return Size(args, scenarios * reps, scenarios * reps * n, lambda text: check(text, reps))


def _high_dim_command(name: str, seed: int, root: Path, reps: int) -> Command:
    config = root / HIGH_DIM
    doc = json.loads(config.read_text())
    n, p, sigma2 = doc["n"], doc["p"], doc["sigma"] ** 2
    scen = len(HIGH_DIM_SCENARIOS)
    if name == "decompose_ls":
        def check(text: str, r: int) -> None:
            check_decompose(text, HIGH_DIM_SCENARIOS, n, p, sigma2, "ls", r)
        subcommand, threads = "decompose", 2
    else:
        def check(text: str, r: int) -> None:
            check_criteria(text, HIGH_DIM_SCENARIOS)
        subcommand, threads = "criteria", 1
    return Command(
        name,
        _study(subcommand, config, seed, reps, scen, n, check),
        _study(subcommand, config, seed, SETUP_REPS, scen, n, check),
        threads,
    )


def _local_commands(seed: int, workdir: Path, reps: int) -> tuple[Command, ...]:
    n, p, sigma = 500, 50, 20.0
    names = [s for s, _ in LOCAL_SCENARIOS]
    commands = []
    for label, smoother in (("kernel_ridge", {"variant": "kernel_ridge", "lam": 1.0}),
                            ("knn", {"variant": "knn", "k": KNN_K})):
        config = workdir / f"local_{label}.json"
        config.write_text(json.dumps({
            "seed": seed, "n": n, "p": p, "sigma": sigma, "smoother": smoother,
            "scenarios": [
                {"name": s, "covariates": {"variant": v, "blocks": 5, "rho": 0.9},
                 "mean": {"variant": "abs_sum", "C": 0.75}}
                for s, v in LOCAL_SCENARIOS
            ],
        }, indent=1))

        def check(text: str, r: int, kind: str = label) -> None:
            check_decompose(text, names, n, p, sigma**2, kind, r)

        commands.append(Command(
            label,
            _study("decompose", config, seed, reps, len(names), n, check),
            _study("decompose", config, seed, SETUP_REPS, len(names), n, check),
            1,
        ))
    return tuple(commands)


def eval_dataset(seed: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Correlated normal covariates and a linear response with variance-400 noise."""
    rng = np.random.default_rng([seed, 1704])
    X = rng.standard_normal((rows, EVAL_P)) + 0.5 * rng.standard_normal((rows, 1))
    y = X.sum(axis=1) + math.sqrt(EVAL_SIGMA2) * rng.standard_normal(rows)
    return X, y


def _write_dataset(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    header = ",".join([f"x{j}" for j in range(X.shape[1])] + ["y"])
    # %.17g round-trips every double, so the CLI reads exactly X and y
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",", header=header, comments="")


def _eval_commands(seed: int, workdir: Path, smoke: bool) -> tuple[Command, ...]:
    rows = 2 * EVAL_SLICE_ROWS if smoke else EVAL_ROWS
    X, y = eval_dataset(seed, rows)
    full_csv, slice_csv = workdir / "eval_full.csv", workdir / "eval_slice.csv"
    _write_dataset(full_csv, X, y)
    _write_dataset(slice_csv, X[:EVAL_SLICE_ROWS], y[:EVAL_SLICE_ROWS])
    commands = []
    for label, flags in (("ls", ("--smoother", "ls", "--sigma2", repr(EVAL_SIGMA2))),
                         ("ridge", ("--smoother", "ridge", "--lam", repr(EVAL_RIDGE_LAM)))):
        sizes = []
        for path, m in ((full_csv, rows), (slice_csv, EVAL_SLICE_ROWS)):
            ref = EvalReference(X[:m], y[:m])
            check = ref.check_ls if label == "ls" else ref.check_ridge
            sizes.append(Size(("eval", str(path), *flags), 1, m, check))
        commands.append(Command(label, sizes[0], sizes[1], None))
    return tuple(commands)


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def _rows(text: str, header: list[str], expected: int) -> list[dict[str, str]]:
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != header:
        raise CheckError(f"header {table[:1]} != {header}")
    if len(table) - 1 != expected:
        raise CheckError(f"{len(table) - 1} rows, expected {expected}")
    for i, row in enumerate(table[1:], start=2):
        if len(row) != len(header):
            raise CheckError(f"row {i} has {len(row)} cells")
    return [dict(zip(header, row)) for row in table[1:]]


def _num(row: dict[str, str], key: str) -> float:
    try:
        value = float(row[key])
    except ValueError:
        raise CheckError(f"{key}={row[key]!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckError(f"{key}={value} is not finite")
    return value


def _close(name: str, got: float, want: float, rtol: float) -> None:
    if not abs(got - want) <= rtol * max(abs(want), abs(got)):
        raise CheckError(f"{name}: {got!r} != {want!r} (rtol {rtol})")


def vplus_normal_exact(n: int, p: int, sigma2: float) -> float:
    """Exact least-squares excess variance for normal covariates."""
    return sigma2 * p / n * (p + 1) / (n - p - 1)


def check_decompose(text: str, scenarios: list[str], n: int, p: int, sigma2: float,
                    smoother: str, reps: int) -> None:
    for row, name in zip(_rows(text, DECOMPOSE_HEADER, len(scenarios)), scenarios):
        if row["scenario"] != name:
            raise CheckError(f"scenario {row['scenario']!r}, expected {name!r}")
        v = {key: _num(row, key) for key in DECOMPOSE_HEADER[3:]}
        if (v["n"], v["p"], v["sigma"] ** 2) != (n, p, sigma2):
            raise CheckError(f"{name}: n, p, sigma do not match the config")
        _close(f"{name} errS", v["errS"], sigma2 + v["B"] + v["V"], 1e-9)
        _close(f"{name} errR", v["errR"], v["errS"] + v["Bplus"] + v["Vplus"], 1e-9)
        if smoother == "knn" and (v["Vplus"] != 0.0 or v["V"] != sigma2 / KNN_K):
            raise CheckError(f"{name}: kNN needs V+ = 0 and V = sigma2/k, got {v['Vplus']!r}, {v['V']!r}")
        if smoother == "ls" and row["covariates"] == "normal_block" and reps >= MIN_STAT_REPS:
            exact = vplus_normal_exact(n, p, sigma2)
            if abs(v["Vplus"] - exact) > 4.0 * v["se_Vplus"]:
                raise CheckError(f"{name}: V+ {v['Vplus']!r} is over 4 se from {exact!r}")


def check_criteria(text: str, scenarios: list[str]) -> None:
    rows = _rows(text, CRITERIA_HEADER, len(scenarios) * len(CRITERIA_METHODS))
    expected = [(s, m) for s in scenarios for m in CRITERIA_METHODS]
    for row, (name, method) in zip(rows, expected):
        if (row["scenario"], row["method"]) != (name, method):
            raise CheckError(f"row {row['scenario']}/{row['method']}, expected {name}/{method}")
        v = {key: _num(row, key) for key in CRITERIA_HEADER[2:]}
        _close(f"{name} {method} mse", v["mse"], v["bias2"] + v["variance"], 1e-9)
        if method == "OCV" and v["rel_to_ocv"] != 1.0:
            raise CheckError(f"{name}: OCV rel_to_ocv is {v['rel_to_ocv']!r}")


class EvalReference:
    """Independent numpy reference for ``eval`` on one dataset, computed once."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.X, self.y = X, y

    @functools.cached_property
    def least_squares(self) -> tuple[float, float]:
        """RSS from ``lstsq`` and OCV from QR leverages."""
        resid = self.y - self.X @ np.linalg.lstsq(self.X, self.y, rcond=None)[0]
        Q = np.linalg.qr(self.X)[0]
        leverage = np.einsum("ij,ij->i", Q, Q)
        return float(resid @ resid), float(np.mean((resid / (1.0 - leverage)) ** 2))

    @functools.cached_property
    def ridge_rss(self) -> float:
        p = self.X.shape[1]
        beta = np.linalg.solve(self.X.T @ self.X + EVAL_RIDGE_LAM * np.eye(p), self.X.T @ self.y)
        resid = self.y - self.X @ beta
        return float(resid @ resid)

    def _values(self, text: str, keys: list[str]) -> dict[str, float]:
        rows = _rows(text, ["key", "value"], len(keys))
        if [r["key"] for r in rows] != keys:
            raise CheckError(f"keys {[r['key'] for r in rows]} != {keys}")
        return {r["key"]: _num(r, "value") for r in rows}

    def check_ls(self, text: str) -> None:
        v = self._values(text, EVAL_LS_KEYS)
        rss, ocv = self.least_squares
        _close("rss", v["rss"], rss, 1e-8)
        _close("ocv", v["ocv"], ocv, 1e-8)
        _close("rcp - cp", v["rcp"] - v["cp"], vplus_normal_exact(*self.X.shape, EVAL_SIGMA2), 1e-8)

    def check_ridge(self, text: str) -> None:
        _close("rss", self._values(text, EVAL_RIDGE_KEYS)["rss"], self.ridge_rss, 1e-8)
