"""Monte Carlo decomposition of Random-X prediction error.

The expected squared prediction error of a linear smoother at a fresh
covariate draw splits as

    errR = sigma^2 + B + V + Bplus + Vplus

where ``B`` and ``V`` are the bias and variance terms already present when
test covariates coincide with the training rows (Same-X), and ``Bplus`` /
``Vplus`` are the excesses paid because they do not.  The estimators here are
Rao-Blackwellized: per replicate only covariates are drawn, and the four
conditional moments given the draw are computed exactly — no response noise
is simulated, which removes the dominant Monte Carlo variance component.

Every smoother predicts L(X0) Y (see `smoothers`), so given X the mean of
the prediction is L(X0) f and its variance at a row x0 is sigma^2 |L(x0)|^2.
The moments are therefore generic in L: the squared bias mean((L f - f)^2)
and the variance sigma^2 ||L||_F^2 / rows, at X (Same-X) and at X0
(Random-X), all read from the one smoother operator.

`_Operator.integrate` averages the Random-X moments over x0: for least
squares and ridge, wherever `datagen.x0_moments` covers the law and mean,
exactly, and a replicate draws X alone; otherwise over a sampled n-row X0.

Excess terms are averaged as per-replicate *paired* differences (Random-X
moment minus Same-X moment on the same draw), which is what their standard
errors describe.

This study and `experiments.run_criteria_study` share one replicate loop,
`_replicate_cells`; they differ only in what a cell computes and how it sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ._pool import run_replicates
from .criteria import _check_resid, _check_sigma2
from .datagen import (NOISE, TEST, TRAIN, X0Moments, _derivation, draw_covariate_laws, stream,
                      x0_moments)
from .errors import ReplicateError
from .smoothers import SmootherSpec, _as_xy, _factorize, _Operator

# Unused here, but perfbench/tracer.py wraps these names as bound in this module.
from .datagen import draw_covariates  # noqa: F401
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

    Inputs are checked here, once: X (n, p) and X0 (m, p) with fX (n,) and
    fX0 (m,), all finite, and sigma2 finite and >= 0.
    """
    X, fX = _as_xy(X, fX)
    X0, fX0 = _as_xy(X0, fX0)
    if X0.shape[1] != X.shape[1]:
        raise ValueError(f"X0 must be (m, {X.shape[1]})")
    _check_sigma2(sigma2)
    return _conditional_moments(_factorize(smoother, X), fX, sigma2, (X0, fX0))


def _conditional_moments(op: _Operator, fX: np.ndarray, sigma2: float,
                         test: tuple[np.ndarray, np.ndarray] | X0Moments) -> ConditionalMoments:
    """`conditional_moments` unchecked, on X's operator; ``test`` is (X0, f(X0)) or `X0Moments`.

    Where f = x' beta* (``e_perp`` 0), least squares fits f exactly: c is beta*, unsolved, and
    both biases are 0; the variances do not read c."""
    exact = isinstance(test, X0Moments) and op.spec.lam == 0.0 and test.e_perp == 0.0
    c = test.beta if exact else op.solve(fX)
    fit_s, var_s = op.apply(c, None, sigma2)
    bias_s = 0.0 if exact else float(np.mean((fit_s - fX) ** 2))
    bias_r, var_r = op.integrate(c, test, sigma2)  # at c = beta*, bias_r is 0
    return ConditionalMoments(bias_s, var_s, bias_r, var_r)


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
    threads: int = 1,
) -> DecompositionEstimate:
    """Estimate (B, V, Bplus, Vplus) for a smoother under a scenario.

    Per replicate r, training covariates come from stream
    ``(seed, r, TRAIN)`` and, unless x0 is integrated out (module docstring),
    an n-row test matrix from ``(seed, r, TEST)``; the moments given that draw
    are exact, so their means over ``scenario.reps`` replicates are unbiased
    estimates of all four terms.  Output is identical for any ``threads`` and
    equals this scenario's row of `experiments.run_decomposition_study`.
    """
    return _estimate_group([scenario], smoother, threads)[0]


def _replicate_cells(scenarios: "list[ScenarioConfig]", fitted, cell, fresh: list, threads: int,
                     noise: bool = False) -> list[np.ndarray]:
    """``cell`` of each scenario in each replicate, one loop per ``(seed, n, reps)``.

    ``fresh`` holds each cell's fresh rows: its `X0Moments` or the number of rows to sample.  A
    loop takes its cells in derivation order (fewest `datagen._derivation` steps first); its
    replicate r draws their ``TRAIN`` rows with ``fitted`` applied once per distinct law, each
    distinct count of ``TEST`` rows, and one ``NOISE`` n-vector ``eps`` if ``noise``, all through
    `draw_covariate_laws` and `stream`, and calls ``cell(sc, fit, test, eps)``, ``test`` the
    cell's `X0Moments` or ``(X0, f(X0))``.  Each cell's fit and rows are freed before the next
    cell's are made, so a count holds at most two test matrices at once; a failing cell is named
    in the `ReplicateError`.  Returns each scenario's (reps, k) array of the k numbers ``cell``
    returns, in input order; each equals that of the scenario run alone.
    """
    loops = {}
    for i, sc in sorted(enumerate(scenarios), key=lambda e: len(_derivation(e[1].covariates, 1))):
        loops.setdefault((sc.seed, sc.n, sc.reps), []).append((i, sc, fresh[i]))
    out = [None] * len(scenarios)
    for (seed, n, reps), cells in loops.items():
        sampled = {}  # row count -> the laws sampled at it, in the loop's order
        for _, sc, m in cells:
            if not isinstance(m, X0Moments):
                sampled.setdefault(m, []).append(sc.covariates)

        def one_rep(r: int) -> list:
            fits = draw_covariate_laws([sc.covariates for _, sc, _ in cells], n,
                                       lambda: stream(seed, r, TRAIN), fitted)
            X0s = {m: draw_covariate_laws(laws, m, lambda: stream(seed, r, TEST))
                   for m, laws in sampled.items()}
            eps = stream(seed, r, NOISE).standard_normal(n) if noise else None
            row = []
            for _, sc, test in cells:
                try:
                    fit = next(fits)
                    if not isinstance(test, X0Moments):
                        test = next(X0s[test])
                        test = (test, sc.mean.evaluate(test))
                    row.append(cell(sc, fit, test, eps))
                except Exception as exc:
                    raise ReplicateError(r, seed, exc, sc.name) from exc
                del fit, test  # free this cell's fit and rows before the next cell's are made
            return row

        values = np.array(run_replicates(one_rep, reps, threads, seed))
        for j, (i, _, _) in enumerate(cells):
            out[i] = values[:, j]
    return out


def _estimate_group(scenarios: "list[ScenarioConfig]", smoother: SmootherSpec,
                    threads: int) -> list[DecompositionEstimate]:
    """`estimate_decomposition` of each scenario, cells sharing ``(seed, n, reps)`` in one loop."""
    exact = smoother.variant in ("least_squares", "ridge")
    moments = [x0_moments(sc.covariates, sc.mean) if exact else None for sc in scenarios]

    def cell(sc: "ScenarioConfig", op: _Operator, test, eps) -> ConditionalMoments:
        return _conditional_moments(op, sc.mean.evaluate(op.X), sc.noise.sigma2, test)

    fresh = [sc.n if m is None else m for sc, m in zip(scenarios, moments)]  # else n sampled rows
    cells = _replicate_cells(scenarios, lambda X: _factorize(smoother, X), cell, fresh, threads)

    def se(x: np.ndarray) -> float:
        return float(np.std(x, ddof=1) / np.sqrt(len(x)))

    estimates = []
    for sc, (bias_s, var_s, bias_r, var_r) in zip(scenarios, (values.T for values in cells)):
        sigma2 = sc.noise.sigma2
        B = float(np.mean(bias_s))
        V = float(np.mean(var_s))
        Bplus = float(np.mean(bias_r - bias_s))
        Vplus = float(np.mean(var_r - var_s))
        err_s = sigma2 + B + V
        estimates.append(DecompositionEstimate(
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
            reps=sc.reps,
        ))
    return estimates


# --------------------------------------------------------------------------
# conditional OCV decomposition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OcvConditionalDecomp:
    """Conditional mean of OCV given X, split into variance and bias parts.

    ``v_of_X = (sigma2/n) sum (1 - 2 h_ii + |L_i|^2) / (1-h_ii)^2``, with L_i row i of L(X),
    and ``b_of_X = (1/n) sum (f(x_i) - E[fhat(x_i)|X])^2 / (1-h_ii)^2``; E[OCV | X] =
    v_of_X + b_of_X for every smoother.  |L_i|^2 >= h_ii^2 makes v_of_X >= sigma2; least
    squares and kNN have |L_i|^2 = h_ii, so there v_of_X = (sigma2/n) sum 1/(1-h_ii).
    """

    v_of_X: float
    b_of_X: float


def ocv_conditional(X, fX, smoother: SmootherSpec, sigma2: float) -> OcvConditionalDecomp:
    """Split E[OCV | X] into its variance and bias components for one X.

    X (n, p) and fX (n,) must be finite, and sigma2 finite and >= 0.
    """
    X, fX = _as_xy(X, fX)
    _check_sigma2(sigma2)
    op = _factorize(smoother, X)
    r, h = _check_resid(fX - op.apply(op.solve(fX))[0], op.hat_diag())
    n = X.shape[0]
    L = op.apply(op.solve(np.eye(n)))[0]  # L(X), one row per training row
    v = sigma2 / n * float(np.sum((1.0 - 2.0 * h + np.sum(L * L, axis=1)) / (1.0 - h) ** 2))
    b = float(np.mean((r / (1.0 - h)) ** 2))
    return OcvConditionalDecomp(v_of_X=v, b_of_X=b)
