"""Monte Carlo decomposition of Random-X prediction error.

The expected squared prediction error of a linear smoother at a fresh
covariate draw splits as

    errR = sigma^2 + B + V + Bplus + Vplus

where ``B`` and ``V`` are the bias and variance terms already present when
test covariates coincide with the training rows (Same-X), and ``Bplus`` /
``Vplus`` are the excesses paid because they do not.  The estimators here are
Rao-Blackwellized: per replicate only covariates are drawn, and the four
conditional moments given (X, X0) are computed exactly — no response noise
is simulated, which removes the dominant Monte Carlo variance component.

Every smoother predicts L(X0) Y (see `smoothers`), so given X the mean of
the prediction is L(X0) f and its variance at a row x0 is sigma^2 |L(x0)|^2.
The moments are therefore generic in L: the squared bias mean((L f - f)^2)
and the variance sigma^2 ||L||_F^2 / rows, at X (Same-X) and at X0
(Random-X), all read from the one smoother operator.

Excess terms are averaged as per-replicate *paired* differences (Random-X
moment minus Same-X moment on the same draw), which is what their standard
errors describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ._pool import run_replicates
from .criteria import LEVERAGE_TOL
from .datagen import TEST, TRAIN, CovariateModel, draw_covariates, stream
from .errors import LeverageOne, RankDeficient
from .smoothers import SmootherSpec, _factorize

# Unused here, but perfbench/tracer.py wraps these names as bound in this module.
from .linalg import _cholesky_spd  # noqa: F401
from .smoothers import gaussian_bandwidth, kernel_matrix, neighbor_sets  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover
    from .experiments import ScenarioConfig

__all__ = [
    "ConditionalMoments",
    "conditional_moments",
    "DecompositionEstimate",
    "estimate_decomposition",
    "OcvConditionalDecomp",
    "ocv_conditional",
    "eigen_mp_check",
]


class ConditionalMoments(NamedTuple):
    """Exact error moments of one smoother conditional on one (X, X0) draw.

    ``bias_s``/``var_s`` average over the training rows (Same-X), ``bias_r``/
    ``var_r`` over the rows of X0 (Random-X).  Expectations over draws give
    B, V, B + Bplus, V + Vplus respectively.
    """

    bias_s: float
    var_s: float
    bias_r: float
    var_r: float


def conditional_moments(
    smoother: SmootherSpec, X, X0, fX, fX0, sigma2: float
) -> ConditionalMoments:
    """Exact moments of the smoother's error given the draw (X, X0).

    The squared biases are mean((L f - f)^2) and the variances
    sigma2 ||L||_F^2 / rows, at X and at X0.  For least squares the Same-X
    variance is exactly ``sigma2 p / n``; for kNN both variances are exactly
    ``sigma2 / k``, so its excess variance is identically zero.
    """
    op = _factorize(smoother, X)
    c = op.solve(fX)
    fit_s, var_s = op.apply(c, None, sigma2)
    fit_r, var_r = op.apply(c, X0, sigma2)
    return ConditionalMoments(
        float(np.mean((fit_s - fX) ** 2)), var_s, float(np.mean((fit_r - fX0) ** 2)), var_r
    )


# --------------------------------------------------------------------------
# decomposition estimate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionEstimate:
    """Monte Carlo estimate of the error decomposition, with standard errors.

    ``err_s = sigma2 + B + V`` and ``err_r = err_s + Bplus + Vplus`` hold
    exactly by construction.  ``se_gap`` is the standard error of
    ``err_r - err_s`` (the paired excess sum), which is what positivity
    checks should be read against.  ``Vplus`` is not always nonnegative:
    it is for least squares and exactly 0 for kNN, but shrinkage (ridge,
    kernel ridge) can make it negative.
    """

    sigma2: float
    B: float
    se_B: float
    V: float
    se_V: float
    Bplus: float
    se_Bplus: float
    Vplus: float
    se_Vplus: float
    err_s: float
    se_err_s: float
    err_r: float
    se_err_r: float
    se_gap: float
    reps: int


def estimate_decomposition(
    scenario: "ScenarioConfig",
    smoother: SmootherSpec,
    reps: int | None = None,
    threads: int = 1,
) -> DecompositionEstimate:
    """Estimate (B, V, Bplus, Vplus) for a smoother under a scenario.

    Per replicate r, training covariates come from stream
    ``(seed, r, TRAIN)`` and an n-row test matrix from ``(seed, r, TEST)``;
    the conditional moments for that draw are exact, so averaging them gives
    unbiased estimates of all four terms.  Output is identical for any
    ``threads``.
    """
    reps = scenario.reps if reps is None else int(reps)
    if reps < 2:
        raise ValueError("reps must be >= 2 to form standard errors")
    n = scenario.n
    seed = scenario.seed
    sigma2 = scenario.noise.sigma2
    cov = scenario.covariates
    mean = scenario.mean

    def one_rep(r: int) -> ConditionalMoments:
        X = draw_covariates(cov, n, stream(seed, r, TRAIN))
        X0 = draw_covariates(cov, n, stream(seed, r, TEST))
        return conditional_moments(smoother, X, X0, mean.evaluate(X), mean.evaluate(X0), sigma2)

    rows = np.array(run_replicates(one_rep, reps, threads, seed))
    bias_s, var_s, bias_r, var_r = rows.T

    def se(x: np.ndarray) -> float:
        return float(np.std(x, ddof=1) / np.sqrt(reps))

    B = float(np.mean(bias_s))
    V = float(np.mean(var_s))
    Bplus = float(np.mean(bias_r - bias_s))
    Vplus = float(np.mean(var_r - var_s))
    err_s = sigma2 + B + V
    return DecompositionEstimate(
        sigma2=sigma2,
        B=B,
        se_B=se(bias_s),
        V=V,
        se_V=se(var_s),
        Bplus=Bplus,
        se_Bplus=se(bias_r - bias_s),
        Vplus=Vplus,
        se_Vplus=se(var_r - var_s),
        err_s=err_s,
        se_err_s=se(bias_s + var_s),
        err_r=err_s + Bplus + Vplus,
        se_err_r=se(bias_r + var_r),
        se_gap=se((bias_r + var_r) - (bias_s + var_s)),
        reps=reps,
    )


# --------------------------------------------------------------------------
# conditional OCV decomposition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OcvConditionalDecomp:
    """Conditional mean of OCV given X, split into variance and bias parts.

    ``v_of_X = (sigma2/n) sum 1/(1-h_ii)`` (always >= sigma2) and
    ``b_of_X = (1/n) sum (f(x_i) - E[fhat(x_i)|X])^2 / (1-h_ii)^2``;
    E[OCV | X] = v_of_X + b_of_X for least squares and ridge.
    """

    v_of_X: float
    b_of_X: float

    @property
    def total(self) -> float:
        return self.v_of_X + self.b_of_X


def ocv_conditional(X, fX, smoother: SmootherSpec, sigma2: float) -> OcvConditionalDecomp:
    """Split E[OCV | X] into its variance and bias components for one X."""
    X = np.asarray(X, dtype=float)
    fX = np.asarray(fX, dtype=float)
    if X.ndim != 2 or fX.shape != (X.shape[0],):
        raise ValueError("need X (n, p) and fX (n,)")
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError("sigma2 must be finite and >= 0")
    op = _factorize(smoother, X)
    smoothed = op.apply(op.solve(fX))[0]
    h = op.hat_diag()
    if np.any(h >= 1.0 - LEVERAGE_TOL):
        raise LeverageOne("a leverage is numerically 1")
    n = X.shape[0]
    v = sigma2 / n * float(np.sum(1.0 / (1.0 - h)))
    b = float(np.mean(((fX - smoothed) / (1.0 - h)) ** 2))
    return OcvConditionalDecomp(v_of_X=v, b_of_X=b)


# --------------------------------------------------------------------------
# spectral sanity check
# --------------------------------------------------------------------------

def eigen_mp_check(
    n: int, p: int, model: CovariateModel, reps: int, seed: int = 0
) -> float:
    """Mean inverse eigenvalue of X'X/n, averaged over draws.

    For i.i.d. zero-mean unit-variance entries this approaches
    ``1/(1 - gamma)`` with ``gamma = p/n`` as n grows — the spectral fact
    behind the asymptotic excess variance ``sigma2 gamma^2 / (1 - gamma)``.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    vals = np.empty(reps)
    for r in range(reps):
        X = draw_covariates(model, n, stream(seed, r, TRAIN))
        eig = np.linalg.eigvalsh(X.T @ X / n)
        if np.any(eig <= 0):
            raise RankDeficient("singular draw in eigen check")
        vals[r] = np.mean(1.0 / eig)
    return float(np.mean(vals))
