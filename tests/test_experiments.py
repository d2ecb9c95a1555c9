"""Tests for the simulation studies and their targets."""

from dataclasses import replace

import numpy as np
import pytest

from randomx_eval.criteria import bplus_hat, gcv, ocv, rcp, rcp_hat
from randomx_eval.datagen import (
    NOISE,
    TEST,
    TRAIN,
    CovariateModel,
    MeanModel,
    NoiseModel,
    draw_covariates,
    draw_response,
    stream,
)
from randomx_eval.decomp import estimate_decomposition
from randomx_eval.experiments import (
    CRITERIA_METHODS,
    CriteriaMseRow,
    ScenarioConfig,
    err_r_target,
    ridge_ratio_limit_normal,
    run_criteria_study,
    run_decomposition_study,
    run_ridge_ratio_study,
)
from randomx_eval.smoothers import SmootherSpec, fit, predict


def ridge_ratio_limit_mc(
    model: CovariateModel, n: int, reps: int, seed: int = 0
) -> float:
    """Monte Carlo version of the infinite-penalty limit for any row law."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    p = model.p
    sum_G = np.zeros((p, p))
    sum_G2 = np.zeros((p, p))
    for r in range(reps):
        X = draw_covariates(model, n, stream(seed, r, TRAIN))
        G = X.T @ X
        sum_G += G
        sum_G2 += G @ G
    mean_G = sum_G / reps
    mean_G2 = sum_G2 / reps
    return float(np.trace(mean_G @ mean_G) / np.trace(mean_G2))


def small_scenario(n=30, p=3, reps=150, **kw):
    base = dict(
        covariates=CovariateModel.isotropic(p),
        mean=MeanModel.abs_sum(1.0),
        noise=NoiseModel(2.0),
        n=n,
        test_m=300,
        reps=reps,
        seed=11,
        name="small",
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_p_comes_from_covariate_model(self):
        assert small_scenario(p=7).p == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            small_scenario(n=1)
        with pytest.raises(ValueError):
            small_scenario(test_m=0)
        with pytest.raises(ValueError):
            small_scenario(reps=1)
        with pytest.raises(ValueError):
            small_scenario(seed=-1)
        with pytest.raises(ValueError):
            small_scenario(p=3, mean=MeanModel.linear_beta(np.ones(2)))


class TestErrRTarget:
    def test_exact_two_point_fixture(self):
        # no-intercept LS through (1, 1), (2, 3): slope 7/5; at x=3 predicts 4.2
        model = fit(SmootherSpec.least_squares(), np.array([[1.0], [2.0]]), np.array([1.0, 3.0]))
        target = err_r_target(model, np.array([[3.0]]), np.array([5.0]), 2.0)
        assert target == pytest.approx(2.0 + 0.8**2, rel=1e-12)

    def test_matches_noisy_test_responses(self):
        rng = np.random.default_rng(70)
        n, p, m, sigma = 30, 3, 200, 1.5
        X = rng.standard_normal((n, p))
        fX = np.abs(X).sum(axis=1)
        Y = fX + sigma * rng.standard_normal(n)
        model = fit(SmootherSpec.least_squares(), X, Y)
        X_test = rng.standard_normal((m, p))
        f_test = np.abs(X_test).sum(axis=1)
        target = err_r_target(model, X_test, f_test, sigma**2)
        T = 5000
        noise = sigma * rng.standard_normal((T, m))
        draws = np.mean((f_test + noise - predict(model, X_test)) ** 2, axis=1)
        se = draws.std(ddof=1) / np.sqrt(T)
        assert abs(target - draws.mean()) <= 3 * se

    def test_rejects_bad_sigma2(self):
        model = fit(SmootherSpec.least_squares(), np.array([[1.0], [2.0]]), np.array([1.0, 3.0]))
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                err_r_target(model, np.array([[3.0]]), np.array([5.0]), bad)


class TestDecompositionStudy:
    def test_pairs_scenarios_with_estimates(self):
        scenarios = [small_scenario(name="a"), small_scenario(name="b", seed=12)]
        out = run_decomposition_study([replace(sc, reps=40) for sc in scenarios])
        assert [sc.name for sc, _ in out] == ["a", "b"]
        for _, est in out:
            assert est.reps == 40 and est.se_Vplus > 0

    def test_standard_errors_shrink_like_root_reps(self):
        sc = small_scenario(n=40, p=5, covariates=CovariateModel.copula_uniform(5, 1, 0.3))
        half = estimate_decomposition(replace(sc, reps=300), SmootherSpec.least_squares())
        full = estimate_decomposition(replace(sc, reps=600), SmootherSpec.least_squares())
        ratio = half.se_Vplus**2 / full.se_Vplus**2
        assert 1.4 <= ratio <= 2.6


def replay_criteria_study(sc, reps):
    """Criteria values (reps x methods) and errR_rep (reps,), one replicate at a time."""
    n, p, sigma2, seed = sc.n, sc.p, sc.noise.sigma2, sc.seed
    crit, target = [], []
    for r in range(reps):
        X = draw_covariates(sc.covariates, n, stream(seed, r, TRAIN))
        Y, _ = draw_response(X, sc.mean, sc.noise, stream(seed, r, NOISE))
        model = fit(SmootherSpec.least_squares(), X, Y)
        resid = model.residuals
        rss = float(resid @ resid)
        crit.append([
            rcp(rss, n, p, sigma2),
            rcp_hat(rss, n, p),
            gcv(rss, n, p),
            rcp(rss, n, p, sigma2) + bplus_hat(resid, model.hat_diag, sigma2),
            ocv(resid, model.hat_diag),
        ])
        X_test = draw_covariates(sc.covariates, sc.test_m, stream(seed, r, TEST))
        target.append(err_r_target(model, X_test, sc.mean.evaluate(X_test), sigma2))
    return np.array(crit), np.array(target)


class TestCriteriaStudy:
    def setup_method(self):
        self.rows = run_criteria_study(replace(small_scenario(), reps=150))

    def test_row_structure(self):
        assert [r.method for r in self.rows] == list(CRITERIA_METHODS)
        assert all(isinstance(r, CriteriaMseRow) for r in self.rows)
        assert all(r.scenario == "small" for r in self.rows)

    def test_mse_decomposes_into_bias_and_variance(self):
        for r in self.rows:
            assert r.mse == pytest.approx(r.bias2 + r.variance, rel=1e-12)
            assert r.mse > 0 and r.variance >= 0

    def test_ocv_is_its_own_reference(self):
        by_method = {r.method: r for r in self.rows}
        assert by_method["OCV"].rel_to_ocv == 1.0
        assert by_method["OCV"].rel_to_ocv_err_r == 1.0
        for r in self.rows:
            assert r.rel_to_ocv == pytest.approx(r.mse / by_method["OCV"].mse, rel=1e-12)
            assert r.rel_to_ocv_err_r == pytest.approx(
                r.mse_err_r / by_method["OCV"].mse_err_r, rel=1e-12)

    def test_conditional_fields_match_replay(self):
        crit, target = replay_criteria_study(small_scenario(), 150)
        dev = np.array([[c - t for c in row] for row, t in zip(crit.tolist(), target.tolist())])
        mse = np.mean(dev**2, axis=0)
        bias = np.mean(dev, axis=0)
        for i, r in enumerate(self.rows):
            assert r.mse == mse[i]
            assert r.bias2 == bias[i] ** 2
            assert r.variance == mse[i] - bias[i] ** 2
            assert r.rel_to_ocv == mse[i] / mse[CRITERIA_METHODS.index("OCV")]

    def test_err_r_fields_match_replay(self):
        crit, target = replay_criteria_study(small_scenario(), 150)
        err_r = target.mean()
        for i, r in enumerate(self.rows):
            expected = np.mean((crit[:, i] - err_r) ** 2)
            assert r.mse_err_r == pytest.approx(expected, rel=1e-12)
            assert r.mse_err_r > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_criteria_study(replace(small_scenario(), reps=1))
        with pytest.raises(ValueError):
            run_criteria_study(small_scenario(n=5, p=4))


class TestRidgeRatioStudy:
    lambdas = np.array([1.0, 10.0, 100.0, 1e3, 1e4, 1e6])

    def setup_method(self):
        self.curve = run_ridge_ratio_study(n=60, p=15, lambdas=self.lambdas, reps=12, seed=3)

    def test_shapes_and_bands(self):
        c = self.curve
        assert c.n == 60 and c.p == 15 and c.reps == 12
        assert c.lambdas.shape == c.ratio.shape == c.ci_low.shape == c.ci_high.shape == (6,)
        assert np.all(c.ci_low <= c.ratio) and np.all(c.ratio <= c.ci_high)

    def test_small_penalty_inflates_large_penalty_shrinks(self):
        assert self.curve.ratio[0] > 1.0
        assert self.curve.ratio[-1] < 1.0
        assert self.curve.ratio[-1] == pytest.approx(self.curve.theoretical_limit, abs=0.05)

    def test_limit_is_closed_form(self):
        assert self.curve.theoretical_limit == ridge_ratio_limit_normal(60, 15)
        assert ridge_ratio_limit_normal(300, 100) == pytest.approx(300 / 401)

    def test_thread_count_does_not_change_output(self):
        again = run_ridge_ratio_study(n=60, p=15, lambdas=self.lambdas, reps=12, seed=3, threads=2)
        assert np.array_equal(self.curve.ratio, again.ratio)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_ridge_ratio_study(n=10, p=0)
        with pytest.raises(ValueError):
            run_ridge_ratio_study(n=10, p=10)
        with pytest.raises(ValueError):
            run_ridge_ratio_study(n=10, p=2, reps=1)
        with pytest.raises(ValueError):
            run_ridge_ratio_study(n=10, p=2, lambdas=np.array([1.0, -2.0]))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                run_ridge_ratio_study(n=10, p=2, lambdas=np.array([1.0, bad]))


class TestRidgeRatioLimitMc:
    def test_matches_closed_form_for_isotropic_normal(self):
        val = ridge_ratio_limit_mc(CovariateModel.isotropic(10), n=50, reps=400, seed=9)
        assert val == pytest.approx(ridge_ratio_limit_normal(50, 10), rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            ridge_ratio_limit_mc(CovariateModel.isotropic(3), n=10, reps=0)
