"""Covariance-penalty style estimates of out-of-sample squared error.

All criteria estimate the expected squared prediction error of a fitted
smoother at a *fresh covariate draw* (Random-X error), from in-sample
quantities only:

``cp``        RSS/n + 2 sigma^2 df / n, df = p (least squares) or tr(S)
              (ridge) — the classical fixed-covariate penalty.
``rcp``       cp plus the exact excess variance a least squares fit pays for
              random normal covariates, ``vplus_normal_exact``.
``rcp_hat``   the sigma-free version: RSS (n-1) / ((n-p)(n-p-1)); identical to
              plugging sigma2_hat = RSS/(n-p) into rcp.
``gcv``       RSS / (n (1 - df/n)^2), df = p or tr(S).
``ocv``       leave-one-out squared error via the deleted-residual shortcut
              r_i / (1 - h_ii); exact for least squares and ridge.
``bplus_hat`` an estimate of the excess bias term built from the same
              deleted residuals; mean zero for an unbiased model only where
              |L_i|^2 = h_ii (least squares, kNN), below zero for ridge.
``rcp_plus``  rcp + bplus_hat (a `CriteriaReport` field), covering mean
              functions the model misses.

Scalar inputs are RSS, the sample size n, the regression dimension p, and
(where needed) the noise variance sigma2; vector inputs are the in-sample
residuals and hat diagonal of any linear smoother.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, LeverageOne
from .smoothers import FittedSmoother

__all__ = [
    "cp",
    "rcp",
    "rcp_hat",
    "gcv",
    "ocv",
    "bplus_hat",
    "vplus_normal_exact",
    "vplus_asymptotic",
    "optr_asymptotic",
    "CriteriaReport",
    "criteria_report",
]

#: Leverages at or above 1 - LEVERAGE_TOL make a deleted residual undefined.
LEVERAGE_TOL = 1e-12


def _check_sigma2(sigma2: float) -> None:
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError("sigma2 must be finite and >= 0")


def _check_scalars(rss: float, n: int, p: float, sigma2: float | None = None) -> None:
    if not (np.isfinite(rss) and rss >= 0.0):
        raise ValueError("rss must be finite and >= 0")
    if n < 2 or not p > 0:
        raise ValueError("need n >= 2 and p > 0")
    if sigma2 is not None:
        _check_sigma2(sigma2)


def _check_resid(residuals, hat_diag) -> tuple[np.ndarray, np.ndarray]:
    r = np.asarray(residuals, dtype=float)
    h = np.asarray(hat_diag, dtype=float)
    if r.ndim != 1 or r.shape != h.shape:
        raise ValueError("residuals and hat_diag must be matching 1-D arrays")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(h))):
        raise ValueError("residuals and hat_diag must be finite")
    if np.any(h < 0.0):
        raise ValueError("hat_diag entries must be >= 0")
    if np.any(h >= 1.0 - LEVERAGE_TOL):
        raise LeverageOne("a leverage is numerically 1; deleted residual undefined")
    return r, h


# --------------------------------------------------------------------------
# scalar criteria
# --------------------------------------------------------------------------

def cp(rss: float, n: int, p: float, sigma2: float) -> float:
    """RSS/n plus the fixed-covariate optimism 2 sigma^2 p / n; ``p`` may be a smoother's tr(S)."""
    _check_scalars(rss, n, p, sigma2)
    return rss / n + 2.0 * sigma2 * p / n


def vplus_normal_exact(n: int, p: int, sigma2: float) -> float:
    """Exact excess variance of least squares under normal covariates.

    Equals ``(sigma2 p / n) (p + 1) / (n - p - 1)`` for rows drawn from any
    nondegenerate multivariate normal — the covariance matrix cancels.

    Raises
    ------
    DimensionError
        If p >= n - 1, where the inverse Gram matrix has no mean.
    """
    _check_scalars(0.0, n, p, sigma2)
    if p >= n - 1:
        raise DimensionError(f"need p < n - 1, got n={n}, p={p}")
    return sigma2 * (p / n) * ((p + 1.0) / (n - p - 1.0))


def rcp(rss: float, n: int, p: int, sigma2: float) -> float:
    """cp plus the exact normal-covariate excess variance.

    Equivalently ``RSS/n + (sigma2 p / n) (2 + (p+1)/(n-p-1))``.
    """
    return cp(rss, n, p, sigma2) + vplus_normal_exact(n, p, sigma2)


def rcp_hat(rss: float, n: int, p: int) -> float:
    """Sigma-free rcp: ``RSS (n-1) / ((n-p)(n-p-1))``.

    Identical to ``rcp`` with the plug-in ``sigma2 = RSS/(n-p)``.
    """
    _check_scalars(rss, n, p)
    if p >= n - 1:
        raise DimensionError(f"need p < n - 1, got n={n}, p={p}")
    return rss * (n - 1.0) / ((n - p) * (n - p - 1.0))


def gcv(rss: float, n: int, p: float) -> float:
    """Generalized cross-validation ``RSS / (n (1 - p/n)^2)``; ``p`` may be a smoother's tr(S)."""
    _check_scalars(rss, n, p)
    if p >= n:
        raise DimensionError(f"need p < n, got n={n}, p={p}")
    return rss * n / float(n - p) ** 2


def ocv(residuals, hat_diag) -> float:
    """Leave-one-out squared error from the deleted-residual shortcut.

    ``mean((r_i / (1 - h_ii))^2)`` — equal to literally refitting without
    each point for least squares and ridge.

    Raises
    ------
    LeverageOne
        If any ``h_ii >= 1 - 1e-12``.
    """
    r, h = _check_resid(residuals, hat_diag)
    return float(np.mean((r / (1.0 - h)) ** 2))


def bplus_hat(residuals, hat_diag, sigma2: float) -> float:
    """Estimate of the excess bias from deleted residuals.

    ``mean((r_i^2 - (1 - h_ii) sigma2) (1/(1 - h_ii)^2 - 1))``.  Given X its mean is
    ``mean((b_i^2 - sigma2 (h_ii - |L_i|^2)) (1/(1 - h_ii)^2 - 1))``, with b = f - E[fhat | X]
    and L_i row i of the smoother matrix.  So an unbiased model (b = 0) gives zero only where
    |L_i|^2 = h_ii, as for least squares and kNN; ridge has |L_i|^2 < h_ii, so its mean is the
    negative offset ``-sigma2 mean((h_ii - |L_i|^2) (1/(1 - h_ii)^2 - 1))``.  A missed mean
    function adds the positive b_i^2 part.  May be negative on a given sample.
    """
    r, h = _check_resid(residuals, hat_diag)
    _check_sigma2(sigma2)
    one_minus = 1.0 - h
    return float(np.mean((r**2 - one_minus * sigma2) * (1.0 / one_minus**2 - 1.0)))


def vplus_asymptotic(gamma: float, sigma2: float) -> float:
    """Limit of the least squares excess variance at aspect ratio gamma.

    ``sigma2 gamma^2 / (1 - gamma)`` for p/n -> gamma in (0, 1); holds for
    covariate rows ``Sigma^{1/2} z`` with i.i.d. zero-mean unit-variance z.
    """
    if not (np.isfinite(gamma) and 0.0 < gamma < 1.0):
        raise DomainError("gamma must lie in (0, 1)")
    _check_sigma2(sigma2)
    return sigma2 * gamma**2 / (1.0 - gamma)


def optr_asymptotic(gamma: float, sigma2: float) -> float:
    """Limiting Random-X optimism of least squares: ``sigma2 gamma (2-gamma)/(1-gamma)``."""
    if not (np.isfinite(gamma) and 0.0 < gamma < 1.0):
        raise DomainError("gamma must lie in (0, 1)")
    _check_sigma2(sigma2)
    return sigma2 * gamma * (2.0 - gamma) / (1.0 - gamma)


# --------------------------------------------------------------------------
# full reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CriteriaReport:
    """Every criterion value for one fit.

    Fields that need the noise variance (`cp`, `rcp`, `bplus_hat`,
    `rcp_plus`) are ``None`` when ``sigma2`` was not provided.
    """

    n: int
    p: int
    rss: float
    sigma2: float | None
    sigma2_hat: float
    rcp_hat: float
    gcv: float
    ocv: float
    cp: float | None = None
    rcp: float | None = None
    bplus_hat: float | None = None
    rcp_plus: float | None = None


def criteria_report(fitted: FittedSmoother, sigma2: float | None = None) -> CriteriaReport:
    """Compute all criteria for a fitted least squares or ridge smoother.

    Uses the fit's stored residuals and hat diagonal.  ``sigma2_hat``,
    ``gcv`` and ``cp`` use the degrees of freedom tr(S): p for least
    squares, the fit's ``trace_S`` for ridge.  ``rcp`` adds the least
    squares excess variance ``vplus_normal_exact(n, p, sigma2)`` to ``cp``
    and ``rcp_hat`` is the least squares formula, both with p = number of
    design columns.  Requires n > p + 1.
    """
    n, p = fitted.n, fitted.p
    df = fitted.trace_S if fitted.spec.variant == "ridge" else p
    r = fitted.residuals
    rss = float(r @ r)
    kwargs = dict(
        n=n,
        p=p,
        rss=rss,
        sigma2=sigma2,
        sigma2_hat=rss / (n - df) if n > df else float("nan"),
        rcp_hat=rcp_hat(rss, n, p),
        gcv=gcv(rss, n, df),
        ocv=ocv(r, fitted.hat_diag),
    )
    if sigma2 is not None:
        cp_v = cp(rss, n, df, sigma2)
        rcp_v = cp_v + vplus_normal_exact(n, p, sigma2)
        b_v = bplus_hat(r, fitted.hat_diag, sigma2)
        kwargs.update(cp=cp_v, rcp=rcp_v, bplus_hat=b_v, rcp_plus=rcp_v + b_v)
    return CriteriaReport(**kwargs)
