"""Simulation studies: decomposition tables, criteria MSE comparison, ridge ratio.

The criteria study scores each criterion against two targets.  The
conditional one is the per-replicate

    errR_rep = sigma^2 + mean over a fresh test set of (f - fhat)^2,

i.e. the trained model's true Random-X error given that replicate's X and
Y, with the noise variance added analytically (no test responses are
drawn).  The unconditional one is the paper's Random-X prediction error

    ErrR = E over (X, Y, x0, y0) of (y0 - fhat(x0))^2,

one number per scenario, estimated as the mean of errR_rep over all of the
scenario's replicates.  Reported MSE, bias and variance are moments of
(criterion - errR_rep) across replicates; ``mse_err_r`` is the mean of
(criterion - ErrR)^2.

The conditional target floors every criterion that is a function of RSS
alone (RCp, RCpHat, GCV).  When least squares is unbiased, errR_rep is
fixed by X, the test draw and the noise's projection onto the column space
of X, and RSS is independent of all three, so no such criterion can score
an MSE below Var(errR_rep) against it.  Most of that variance is the noise in the
fitted coefficients for a given X, not the covariate draw.  Against ErrR
there is no such floor.

The ridge ratio study tracks Var_R / Var_S for ridge as the penalty grows:
above 1 for small penalties, dipping below 1 past a crossover, and
approaching tr(E[X'X] E[X'X]) / tr(E[(X'X)^2]) as the penalty diverges —
``n / (n + p + 1)`` for isotropic normal covariates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._pool import run_replicates
from .criteria import _check_sigma2, bplus_hat, gcv, ocv, rcp, rcp_hat
from .datagen import (
    NOISE,
    TEST,
    TRAIN,
    CovariateModel,
    MeanModel,
    NoiseModel,
    _derivation,
    draw_covariate_laws,
    draw_covariates,
    stream,
)
from .decomp import DecompositionEstimate, _estimate_group
from .errors import ReplicateError
from .smoothers import FittedSmoother, SmootherSpec, _factorize, predict

# Unused here, but perfbench/tracer.py wraps these names as bound in this module.
from .datagen import draw_response  # noqa: F401
from .decomp import estimate_decomposition  # noqa: F401
from .smoothers import fit  # noqa: F401

__all__ = [
    "ScenarioConfig",
    "CriteriaMseRow",
    "RidgeRatioCurve",
    "err_r_target",
    "run_decomposition_study",
    "run_criteria_study",
    "run_ridge_ratio_study",
    "ridge_ratio_limit_normal",
    "CRITERIA_METHODS",
]

#: Criteria compared by `run_criteria_study`, in output order.
CRITERIA_METHODS = ("RCp", "RCpHat", "GCV", "RCpPlus", "OCV")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: covariate law, mean, noise, and sizes.

    ``test_m`` is the fresh-test-set size used for the criteria study's
    target; ``reps`` the replicate count; ``seed`` the master seed all
    per-replicate streams derive from.  A ``linear_beta`` mean needs a beta
    of length p.  Cells that share ``(seed, n, reps)``, and for the criteria
    study also ``test_m``, run in one replicate loop.
    """

    covariates: CovariateModel
    mean: MeanModel
    noise: NoiseModel
    n: int
    test_m: int = 10_000
    reps: int = 1000
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.test_m < 1:
            raise ValueError("test_m must be >= 1")
        if self.reps < 2:
            raise ValueError("reps must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.mean.variant == "linear_beta" and self.mean.beta.shape[0] != self.p:
            raise ValueError(f"mean beta has length {self.mean.beta.shape[0]}, need p = {self.p}")

    @property
    def p(self) -> int:
        return self.covariates.p


def err_r_target(
    fitted: FittedSmoother, X_test: np.ndarray, f_test: np.ndarray, sigma2: float
) -> float:
    """Conditional Random-X error of a trained model on a given test set."""
    _check_sigma2(sigma2)
    f_test = np.asarray(f_test, dtype=float)
    pred = predict(fitted, X_test)
    return sigma2 + float(np.mean((f_test - pred) ** 2))


def _by_group(scenarios: list[ScenarioConfig], key, run_group) -> list:
    """``run_group`` of each group of scenarios with one ``key``, its cells in derivation order
    (fewest `datagen._derivation` steps first); the results in the scenarios' order."""
    out = {}
    for k in dict.fromkeys(map(key, scenarios)):
        group = sorted((i for i, sc in enumerate(scenarios) if key(sc) == k),
                       key=lambda i: len(_derivation(scenarios[i].covariates, 1)))
        out.update(zip(group, run_group([scenarios[i] for i in group])))
    return [out[i] for i in range(len(scenarios))]


# --------------------------------------------------------------------------
# decomposition study
# --------------------------------------------------------------------------

def run_decomposition_study(
    scenarios: list[ScenarioConfig],
    smoother: SmootherSpec | None = None,
    threads: int = 1,
) -> list[tuple[ScenarioConfig, DecompositionEstimate]]:
    """Decomposition estimates for each scenario (default: least squares).

    Scenarios that share ``(seed, n, reps)`` run in one replicate loop, sharing each replicate's
    ``TRAIN`` and ``TEST`` draws and one factorization per distinct covariate law; a scenario's
    numbers equal those of `estimate_decomposition` run on it alone.
    """
    smoother = smoother or SmootherSpec.least_squares()
    return list(zip(scenarios, _by_group(scenarios, lambda sc: (sc.seed, sc.n, sc.reps),
                                         lambda group: _estimate_group(group, smoother, threads))))


# --------------------------------------------------------------------------
# criteria MSE study
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CriteriaMseRow:
    """Accuracy of one criterion in one scenario.

    ``mse``, ``bias2`` and ``variance`` are taken against the conditional
    target errR_rep, and ``mse = bias2 + variance`` holds by construction;
    ``mse_err_r`` is the MSE against the unconditional ErrR.  Each
    ``rel_to_ocv*`` is this method's MSE over OCV's against the same target
    in the same scenario (1 for OCV itself).  When least squares is
    unbiased, no function of RSS alone can have ``mse`` below
    Var(errR_rep); ``mse_err_r`` has no such floor.
    """

    scenario: str
    method: str
    mse: float
    bias2: float
    variance: float
    rel_to_ocv: float
    mse_err_r: float
    rel_to_ocv_err_r: float


def run_criteria_study(scenarios: list[ScenarioConfig], threads: int = 1) -> list[CriteriaMseRow]:
    """Score RCp, RCpHat, GCV, RCpPlus and OCV against errR_rep and ErrR in each scenario.

    Least squares is fit per replicate with the scenario's known noise
    variance used where a criterion needs it; the same fit and test draw
    score every method, so the comparison is paired.  errR_rep is the
    replicate's own conditional error; ErrR is estimated as the mean of
    errR_rep over all ``reps`` replicates.  When least squares is unbiased,
    no function of RSS alone can score an MSE below Var(errR_rep) against
    errR_rep, because RSS is independent of the noise in the fitted
    coefficients that makes most of that variance.

    Rows come in the scenarios' order.  Scenarios that share ``(seed, n, reps,
    test_m)`` run in one replicate loop, sharing each replicate's ``TRAIN``,
    ``NOISE`` and ``TEST`` draws and one factorization per distinct covariate
    law; a scenario's rows equal those it gets alone.
    """
    if any(sc.n <= sc.p + 1 for sc in scenarios):
        raise ValueError("criteria study needs n > p + 1")
    cells = _by_group(scenarios, lambda sc: (sc.seed, sc.n, sc.reps, sc.test_m),
                      lambda group: _criteria_group(group, threads))
    return [row for rows in cells for row in rows]


def _criteria_group(scenarios: list[ScenarioConfig], threads: int) -> list[list[CriteriaMseRow]]:
    """The rows of each scenario, in one loop: they share ``(seed, n, reps, test_m)``."""
    first = scenarios[0]
    seed, n, reps, test_m = first.seed, first.n, first.reps, first.test_m
    laws = [sc.covariates for sc in scenarios]
    spec = SmootherSpec.least_squares()

    def fitted(X: np.ndarray):
        op = _factorize(spec, X)
        return op, op.hat_diag()

    def one_rep(r: int) -> list[tuple[float, ...]]:
        fits = draw_covariate_laws(laws, n, lambda: stream(seed, r, TRAIN), fitted)
        tests = draw_covariate_laws(laws, test_m, lambda: stream(seed, r, TEST))
        eps = stream(seed, r, NOISE).standard_normal(n)
        out = []
        for sc in scenarios:
            try:
                op, h = next(fits)
                p, sigma2 = sc.p, sc.noise.sigma2
                Y = sc.mean.evaluate(op.X) + sc.noise.sigma * eps  # `draw_response`'s Y
                c = op.solve(Y)
                resid = Y - op.apply(c)[0]
                rss = float(resid @ resid)
                rcp_v = rcp(rss, n, p, sigma2)
                X0 = next(tests)
                target = sigma2 + float(np.mean((sc.mean.evaluate(X0) - op.apply(c, X0)[0]) ** 2))
                out.append((rcp_v, rcp_hat(rss, n, p), gcv(rss, n, p),
                            rcp_v + bplus_hat(resid, h, sigma2), ocv(resid, h), target))
            except Exception as exc:
                raise ReplicateError(r, seed, exc, sc.name) from exc
            del op, h, X0  # free this cell's fit and test rows before the next cell's are drawn
        return out

    i_ocv = CRITERIA_METHODS.index("OCV")
    rows = []
    values = np.array(run_replicates(one_rep, reps, threads, seed)).transpose(1, 0, 2)
    for sc, out in zip(scenarios, values):
        crit, target = out[:, :-1], out[:, -1:]
        dev = crit - target
        mse = np.mean(dev**2, axis=0)
        bias = np.mean(dev, axis=0)
        variance = mse - bias**2
        mse_err_r = np.mean((crit - target.mean()) ** 2, axis=0)
        rows.append([
            CriteriaMseRow(
                scenario=sc.name,
                method=method,
                mse=float(mse[i]),
                bias2=float(bias[i] ** 2),
                variance=float(variance[i]),
                rel_to_ocv=float(mse[i] / mse[i_ocv]),
                mse_err_r=float(mse_err_r[i]),
                rel_to_ocv_err_r=float(mse_err_r[i] / mse_err_r[i_ocv]),
            )
            for i, method in enumerate(CRITERIA_METHODS)
        ])
    return rows


# --------------------------------------------------------------------------
# ridge variance ratio study
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RidgeRatioCurve:
    """Mean Var_R / Var_S for ridge over a penalty grid, with 95% bands."""

    n: int
    p: int
    reps: int
    lambdas: np.ndarray = field(repr=False)
    ratio: np.ndarray = field(repr=False)
    ci_low: np.ndarray = field(repr=False)
    ci_high: np.ndarray = field(repr=False)
    theoretical_limit: float


def ridge_ratio_limit_normal(n: int, p: int) -> float:
    """Infinite-penalty limit of Var_R/Var_S for isotropic normal rows.

    ``tr(E[X'X] E[X'X]) / tr(E[(X'X)^2]) = n / (n + p + 1)`` since
    ``E[X'X] = n I`` and ``E[(X'X)^2] = n (n + p + 1) I``.
    """
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    return n / (n + p + 1.0)


def run_ridge_ratio_study(
    n: int = 300,
    p: int = 100,
    lambdas: np.ndarray | None = None,
    reps: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> RidgeRatioCurve:
    """Estimate the ridge Var_R / Var_S curve over a penalty grid.

    Per replicate, n isotropic normal rows X are drawn and the exact conditional
    variances are formed from the spectrum d of X'X, so one eigendecomposition
    serves the whole grid; the n fresh rows X0 are integrated out, E[X0'X0] = n I.
    Both carry lam^2 / (d + lam)^2, not 1 / (d + lam)^2, so a finite lam never overflows.
    """
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if lambdas is None:
        lambdas = np.logspace(0.0, 6.0, 40)
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or not np.all(np.isfinite(lambdas) & (lambdas > 0)):
        raise ValueError("lambdas must be a 1-D grid of finite positive values")
    model = CovariateModel.isotropic(p)

    def one_rep(r: int) -> np.ndarray:
        X = draw_covariates(model, n, stream(seed, r, TRAIN))
        d = np.linalg.eigvalsh(X.T @ X)
        shrink = (lambdas[:, None] / (d[None, :] + lambdas[:, None])) ** 2
        var_s = (d**2 * shrink).sum(axis=1)
        var_r = n * (d * shrink).sum(axis=1)
        return var_r / var_s

    ratios = np.array(run_replicates(one_rep, reps, threads, seed))
    mean = ratios.mean(axis=0)
    half = 1.96 * ratios.std(axis=0, ddof=1) / np.sqrt(reps)
    return RidgeRatioCurve(
        n=n,
        p=p,
        reps=reps,
        lambdas=lambdas,
        ratio=mean,
        ci_low=mean - half,
        ci_high=mean + half,
        theoretical_limit=ridge_ratio_limit_normal(n, p),
    )
