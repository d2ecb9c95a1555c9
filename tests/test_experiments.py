"""Tests for the simulation studies and their targets."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from randomx_eval import experiments
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
from randomx_eval.errors import RankDeficient, ReplicateError
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
from randomx_eval.smoothers import SmootherSpec, _factorize, fit, predict


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

    @pytest.mark.parametrize("spec", [
        SmootherSpec.least_squares(), SmootherSpec.ridge(2.0), SmootherSpec.knn(3),
        SmootherSpec.kernel_ridge(1.0),
    ], ids=lambda spec: spec.variant)
    def test_grouped_cells_equal_cells_run_alone(self, spec):
        S = np.array([[1.5, 0.4, 0.0, -0.3], [0.4, 1.0, 0.2, 0.0], [0.0, 0.2, 0.8, 0.1],
                      [-0.3, 0.0, 0.1, 1.2]])
        laws = [CovariateModel.normal_block(4, 2, 0.7), CovariateModel.copula_uniform(4, 2, 0.7),
                CovariateModel.copula_t4(4, 2, 0.7), CovariateModel.normal_block(4, 2, 0.3),
                CovariateModel.isotropic(4), CovariateModel.scaled_product(4, "normal", S),
                CovariateModel.scaled_product(4, "normal", np.diag([1.0, 2.0, 0.5, 1.5])),
                CovariateModel.scaled_product(4, "rademacher")]
        means = (MeanModel.linear_sum(), MeanModel.abs_sum(0.75))
        cells = [(law, mean) for law in laws for mean in means]
        cells.append((CovariateModel.scaled_product(4, "uniform", S), MeanModel.abs_sum(0.75)))
        groups = [dict(seed=5, n=20, reps=4), dict(seed=5, n=24, reps=4),  # each differs from
                  dict(seed=9, n=20, reps=4), dict(seed=5, n=20, reps=3)]  # the first in one key
        scenarios = [small_scenario(covariates=law, mean=mean, name=f"cell{i}", **groups[i % 4])
                     for i, (law, mean) in enumerate(cells)]
        alone = [estimate_decomposition(sc, spec) for sc in scenarios]
        for threads in (1, 2):
            out = run_decomposition_study(scenarios, spec, threads=threads)
            assert [id(sc) for sc, _ in out] == [id(sc) for sc in scenarios]
            assert [est for _, est in out] == alone

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
        self.rows = run_criteria_study([replace(small_scenario(), reps=150)])

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
            run_criteria_study([replace(small_scenario(), reps=1)])
        with pytest.raises(ValueError):
            run_criteria_study([small_scenario(n=5, p=4)])


#: The six cells of the bundled ``high_dim.json``, in its order: three laws, each under two means.
HIGH_DIM_CELLS = [(CovariateModel(variant, 50, blocks=5, rho=0.9), mean)
                  for mean in (MeanModel.linear_sum(), MeanModel.abs_sum(0.75))
                  for variant in ("normal_block", "copula_uniform", "copula_t4")]


class TestCriteriaGroups:
    def test_grouped_cells_equal_cells_run_alone(self):
        S = np.array([[1.5, 0.4, 0.0, -0.3], [0.4, 1.0, 0.2, 0.0], [0.0, 0.2, 0.8, 0.1],
                      [-0.3, 0.0, 0.1, 1.2]])
        laws = [CovariateModel.copula_t4(4, 2, 0.7), CovariateModel.normal_block(4, 2, 0.7),
                CovariateModel.scaled_product(4, "normal", S),
                CovariateModel.copula_uniform(4, 2, 0.7), CovariateModel.normal_block(4, 2, 0.3),
                CovariateModel.isotropic(4), CovariateModel.scaled_product(4, "uniform", S),
                CovariateModel.scaled_product(4, "rademacher")]
        means = (MeanModel.linear_sum(), MeanModel.abs_sum(0.75))
        cells = [(law, mean) for law in laws for mean in means]
        groups = [dict(seed=5, n=20, reps=4, test_m=50), dict(seed=5, n=24, reps=4, test_m=50),
                  dict(seed=9, n=20, reps=4, test_m=50), dict(seed=5, n=20, reps=3, test_m=50),
                  dict(seed=5, n=20, reps=4, test_m=70)]  # each differs from the first in one key
        scenarios = [small_scenario(covariates=law, mean=mean, name=f"cell{i}", **groups[i % 5])
                     for i, (law, mean) in enumerate(cells)]
        alone = [row for sc in scenarios for row in run_criteria_study([sc])]
        names = [sc.name for sc in scenarios for _ in CRITERIA_METHODS]
        assert [row.scenario for row in alone] == names
        for threads in (1, 2):
            assert run_criteria_study(scenarios, threads=threads) == alone

    @pytest.mark.parametrize("cells, train, test, designs", [
        (HIGH_DIM_CELLS, 1, 1, 3),
        ([(CovariateModel.normal_block(50, 5, 0.9), MeanModel.abs_sum(0.75)),
          (CovariateModel.scaled_product(50, "uniform"), MeanModel.abs_sum(0.75))], 2, 2, 2),
    ], ids=["high_dim_six_cells", "two_bases"])
    def test_one_stream_per_purpose_and_base_one_factorization_per_law(
            self, monkeypatch, cells, train, test, designs):
        purposes, factorized = [], []

        def counted_stream(seed, r, purpose):
            purposes.append(purpose)
            return stream(seed, r, purpose)

        def counted_factorize(spec, X):
            factorized.append(X)
            return _factorize(spec, X)

        monkeypatch.setattr(experiments, "stream", counted_stream)
        monkeypatch.setattr(experiments, "_factorize", counted_factorize)
        scenarios = [small_scenario(covariates=cov, mean=mean, n=100, test_m=200, reps=3)
                     for cov, mean in cells]
        assert len(run_criteria_study(scenarios)) == len(cells) * len(CRITERIA_METHODS)
        assert sorted(purposes) == [TRAIN] * (3 * train) + [NOISE] * 3 + [TEST] * (3 * test)
        assert len(factorized) == 3 * designs

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_cell_of_a_group_is_named(self, threads):
        ok = small_scenario(covariates=CovariateModel.isotropic(4), n=10, reps=5, seed=77, name="ok")
        singular = replace(ok, name="singular", covariates=CovariateModel.scaled_product(
            4, sigma_half=np.diag([1.0, 1.0, 1.0, 0.0])))  # X has a zero column
        with pytest.raises(ReplicateError) as err:
            run_criteria_study([singular, ok], threads=threads)
        e = err.value
        assert (e.replicate, e.seed, e.scenario) == (0, 77, "singular")
        assert "replicate 0 of scenario 'singular' (master seed 77)" in str(e)
        assert isinstance(e.__cause__, RankDeficient)

    @pytest.mark.parametrize("cells", [
        HIGH_DIM_CELLS,
        [(CovariateModel.isotropic(50), MeanModel.abs_sum(0.75)),
         (CovariateModel.scaled_product(50, "uniform", 2.0 * np.eye(50)), MeanModel.abs_sum(0.75))],
    ], ids=["high_dim_six_cells", "two_bases"])
    def test_test_draws_hold_few_matrices(self, cells):
        # derivation order, keeping only the steps a later law starts from, and dropping each
        # cell's rows before the next cell's draw hold at most two 10 000-row matrices at once;
        # keeping every shared step would hold Z, G, U and T of the high_dim laws
        scenarios = [small_scenario(covariates=cov, mean=mean, n=100, test_m=10_000, reps=2)
                     for cov, mean in cells]
        run_criteria_study(scenarios)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            run_criteria_study(scenarios)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 10_000 * 50 * 8


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
