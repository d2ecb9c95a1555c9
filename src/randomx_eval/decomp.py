"""Monte Carlo decomposition of Random-X prediction error.

The expected squared prediction error of a linear smoother at a fresh
covariate draw splits as

    errR = sigma^2 + B + V + Bplus + Vplus

where ``B`` and ``V`` are the bias and variance terms already present when
test covariates coincide with the training rows (Same-X), and ``Bplus`` /
``Vplus`` are the excesses paid because they do not.  The estimators here are
Rao-Blackwellized: per replicate only covariates are drawn, and the four
conditional moments given (X, X0) are computed in closed form — no response
noise is simulated, which removes the dominant Monte Carlo variance
component.

Excess terms are averaged as per-replicate *paired* differences (Random-X
moment minus Same-X moment on the same draw), which is what their standard
errors describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.linalg

from ._pool import run_replicates
from .datagen import TEST, TRAIN, CovariateModel, draw_covariates, stream
from .errors import LeverageOne, NotPositiveDefinite, RankDeficient
from .linalg import _cholesky_spd
from .smoothers import (
    SmootherSpec,
    _kernel_ridge_gram,
    _linear_fit,
    gaussian_bandwidth,  # noqa: F401  (unused; perfbench/tracer.py wraps it here)
    kernel_matrix,
    neighbor_sets,
)

if TYPE_CHECKING:  # pragma: no cover
    from .experiments import ScenarioConfig

__all__ = [
    "ConditionalMoments",
    "conditional_moments_ls",
    "conditional_moments_ridge",
    "conditional_moments_knn",
    "conditional_moments_kernel_ridge",
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


def _check_inputs(X, X0, fX, fX0):
    X = np.asarray(X, dtype=float)
    X0 = np.asarray(X0, dtype=float)
    fX = np.asarray(fX, dtype=float)
    fX0 = np.asarray(fX0, dtype=float)
    if X.ndim != 2 or X0.ndim != 2 or X.shape[1] != X0.shape[1]:
        raise ValueError("X and X0 must be 2-D with the same column count")
    if fX.shape != (X.shape[0],) or fX0.shape != (X0.shape[0],):
        raise ValueError("fX / fX0 must match the rows of X / X0")
    return X, X0, fX, fX0


def conditional_moments_ls(X, X0, fX, fX0, sigma2: float) -> ConditionalMoments:
    """Closed-form conditional moments for least squares.

    Given the draw: the Same-X variance is exactly ``sigma2 p / n``; the
    Random-X variance is ``(sigma2 / m) tr((X'X)^{-1} X0'X0)``; the bias
    terms project f onto the column span of X.
    """
    X, X0, fX, fX0 = _check_inputs(X, X0, fX, fX0)
    n, p = X.shape
    m = X0.shape[0]
    try:
        factor = _cholesky_spd(X.T @ X)
    except NotPositiveDefinite as exc:
        raise RankDeficient(f"rank(X) < p for n={n}, p={p}") from exc
    beta_n = scipy.linalg.cho_solve(factor, X.T @ fX, check_finite=False)
    bias_s = float(np.mean((X @ beta_n - fX) ** 2))
    bias_r = float(np.mean((X0 @ beta_n - fX0) ** 2))
    W = scipy.linalg.cho_solve(factor, X0.T, check_finite=False)
    var_r = sigma2 / m * float(np.einsum("ij,ji->", X0, W))
    return ConditionalMoments(bias_s, sigma2 * p / n, bias_r, var_r)


def conditional_moments_ridge(X, X0, fX, fX0, sigma2: float, lam: float) -> ConditionalMoments:
    """Closed-form conditional moments for ridge with penalty ``lam``.

    Reduces to the least squares moments at ``lam = 0`` (full-rank X).
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0.0:
        return conditional_moments_ls(X, X0, fX, fX0, sigma2)
    X, X0, fX, fX0 = _check_inputs(X, X0, fX, fX0)
    n, p = X.shape
    m = X0.shape[0]
    G = X.T @ X
    factor = _cholesky_spd(G + lam * np.eye(p))
    beta_n = scipy.linalg.cho_solve(factor, X.T @ fX, check_finite=False)
    bias_s = float(np.mean((X @ beta_n - fX) ** 2))
    bias_r = float(np.mean((X0 @ beta_n - fX0) ** 2))
    # M = A^{-1} G; tr(G A^{-1} G A^{-1}) = tr(M M); N = A^{-1} G A^{-1}
    M = scipy.linalg.cho_solve(factor, G, check_finite=False)
    var_s = sigma2 / n * float(np.einsum("ij,ji->", M, M))
    N = scipy.linalg.cho_solve(factor, M.T, check_finite=False)
    var_r = sigma2 / m * float(np.einsum("ij,jk,ik->", X0, N, X0))
    return ConditionalMoments(bias_s, var_s, bias_r, var_r)


def conditional_moments_knn(X, X0, fX, fX0, sigma2: float, k: int) -> ConditionalMoments:
    """Conditional moments for kNN.

    The variance of a k-point average of independent noise is ``sigma2 / k``
    at training rows and test rows alike, so the excess variance of kNN is
    identically zero; only the bias terms depend on the draw.
    """
    X, X0, fX, fX0 = _check_inputs(X, X0, fX, fX0)
    nb_s = neighbor_sets(X, X, k)
    bias_s = float(np.mean((fX[nb_s].mean(axis=1) - fX) ** 2))
    nb_r = neighbor_sets(X, X0, k)
    bias_r = float(np.mean((fX[nb_r].mean(axis=1) - fX0) ** 2))
    var = sigma2 / k
    return ConditionalMoments(bias_s, var, bias_r, var)


def conditional_moments_kernel_ridge(
    X,
    X0,
    fX,
    fX0,
    sigma2: float,
    lam: float,
    kernel: str = "gaussian",
    bandwidth: float | None = None,
) -> ConditionalMoments:
    """Conditional moments for kernel ridge (bandwidth resolved from X)."""
    if lam <= 0:
        raise ValueError("kernel ridge requires lam > 0")
    X, X0, fX, fX0 = _check_inputs(X, X0, fX, fX0)
    n = X.shape[0]
    m = X0.shape[0]
    bandwidth, K, factor, S = _kernel_ridge_gram(X, lam, kernel, bandwidth)
    w = scipy.linalg.cho_solve(factor, fX, check_finite=False)
    bias_s = float(np.mean((K @ w - fX) ** 2))
    var_s = sigma2 / n * float(np.sum(S * S))
    K0 = kernel_matrix(X0, X, kernel, bandwidth)
    bias_r = float(np.mean((K0 @ w - fX0) ** 2))
    M0 = scipy.linalg.cho_solve(factor, K0.T, check_finite=False)
    var_r = sigma2 / m * float(np.sum(M0 * M0))
    return ConditionalMoments(bias_s, var_s, bias_r, var_r)


def conditional_moments(
    smoother: SmootherSpec, X, X0, fX, fX0, sigma2: float
) -> ConditionalMoments:
    """Dispatch to the closed-form moments for the given smoother spec."""
    if smoother.variant == "least_squares":
        return conditional_moments_ls(X, X0, fX, fX0, sigma2)
    if smoother.variant == "ridge":
        return conditional_moments_ridge(X, X0, fX, fX0, sigma2, smoother.lam)
    if smoother.variant == "knn":
        return conditional_moments_knn(X, X0, fX, fX0, sigma2, smoother.k)
    return conditional_moments_kernel_ridge(
        X, X0, fX, fX0, sigma2, smoother.lam, smoother.kernel, smoother.bandwidth
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


def _smoothed_mean_and_hat(X: np.ndarray, fX: np.ndarray, smoother: SmootherSpec):
    """E[fhat(X) | X] (= S(X) f(X)) and the hat diagonal, without drawing Y."""
    if smoother.variant in ("least_squares", "ridge"):
        _, smoothed, h = _linear_fit(X, fX, smoother.lam)
        return smoothed, h
    if smoother.variant == "kernel_ridge":
        _, K, factor, S = _kernel_ridge_gram(X, smoother.lam, smoother.kernel, smoother.bandwidth)
        smoothed = K @ scipy.linalg.cho_solve(factor, fX, check_finite=False)
        return smoothed, np.clip(np.diag(S), 0.0, None)
    # knn
    nb = neighbor_sets(X, X, smoother.k)
    return fX[nb].mean(axis=1), np.full(len(X), 1.0 / smoother.k)


def ocv_conditional(X, fX, smoother: SmootherSpec, sigma2: float) -> OcvConditionalDecomp:
    """Split E[OCV | X] into its variance and bias components for one X."""
    X = np.asarray(X, dtype=float)
    fX = np.asarray(fX, dtype=float)
    if X.ndim != 2 or fX.shape != (X.shape[0],):
        raise ValueError("need X (n, p) and fX (n,)")
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError("sigma2 must be finite and >= 0")
    smoothed, h = _smoothed_mean_and_hat(X, fX, smoother)
    if np.any(h >= 1.0 - 1e-12):
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
