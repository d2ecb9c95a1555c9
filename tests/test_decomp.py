"""Tests for conditional moments, the decomposition estimator, and spectra.

The brute-force oracle estimates every conditional moment by simulating the
response noise directly: smoother weight matrices are built with plain numpy,
thousands of noisy responses are pushed through them, and per-point means and
variances are aggregated exactly as the definitions read.  Squared-bias
estimates are debiased by the variance of the per-point mean.  A property
test checks the moments against the definitions on the same explicit weight
matrices, without noise.
"""

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomx_eval import decomp
from randomx_eval._pool import run_replicates
from randomx_eval.datagen import (
    TEST,
    TRAIN,
    CovariateModel,
    MeanModel,
    NoiseModel,
    draw_covariates,
    stream,
    x0_moments,
)
from randomx_eval.decomp import (
    ConditionalMoments,
    conditional_moments,
    estimate_decomposition,
    ocv_conditional,
)
from randomx_eval.errors import LeverageOne, RankDeficient, ReplicateError
from randomx_eval.experiments import ScenarioConfig
from randomx_eval.smoothers import (SmootherSpec, _factorize, _Operator, fit, gaussian_bandwidth,
                                    predict)


# --------------------------------------------------------------------------
# brute-force noisy oracle
# --------------------------------------------------------------------------

def _weights_ls(X, X0, lam=0.0):
    A = X.T @ X + lam * np.eye(X.shape[1])
    P = np.linalg.solve(A, X.T)
    return X @ P, X0 @ P


def _weights_knn(X, X0, k):
    n = X.shape[0]

    def rows(Q):
        W = np.zeros((Q.shape[0], n))
        for j in range(Q.shape[0]):
            d = ((X - Q[j]) ** 2).sum(axis=1)
            for i in sorted(range(n), key=lambda i: (d[i], i))[:k]:
                W[j, i] = 1.0 / k
        return W

    return rows(X), rows(X0)


def _weights_kernel(X, X0, lam, bw):
    def gram(A, B):
        d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / (2 * bw**2))

    K = gram(X, X)
    A = K + lam * np.eye(X.shape[0])
    return K @ np.linalg.solve(A, np.eye(X.shape[0])), gram(X0, X) @ np.linalg.inv(A)


def noisy_oracle(S, S0, fX, fX0, sigma, T, seed, batches=20):
    """Simulated (bias_s, var_s, bias_r, var_r) with batch standard errors."""
    rng = np.random.default_rng(seed)
    per = T // batches
    stats = np.empty((batches, 4))
    for b in range(batches):
        Y = fX + sigma * rng.standard_normal((per, fX.size))
        Ps, Pr = Y @ S.T, Y @ S0.T
        var_s = Ps.var(axis=0, ddof=1)
        var_r = Pr.var(axis=0, ddof=1)
        stats[b] = (
            np.mean((Ps.mean(axis=0) - fX) ** 2) - var_s.mean() / per,
            var_s.mean(),
            np.mean((Pr.mean(axis=0) - fX0) ** 2) - var_r.mean() / per,
            var_r.mean(),
        )
    return stats.mean(axis=0), stats.std(axis=0, ddof=1) / np.sqrt(batches)


def assert_within(cm: ConditionalMoments, est, se, k=3.5):
    for value, e, s in zip(cm, est, se):
        assert abs(value - e) <= k * s + 1e-9, (cm, est, se)


class TestConditionalMomentsAgainstOracle:
    n, p, sigma = 15, 2, 1.5

    def setup_method(self):
        rng = np.random.default_rng(50)
        self.X = rng.standard_normal((self.n, self.p))
        self.X0 = rng.standard_normal((self.n, self.p))
        mean = MeanModel.abs_sum(1.0)
        self.fX = mean.evaluate(self.X)
        self.fX0 = mean.evaluate(self.X0)

    def test_least_squares(self):
        cm = conditional_moments(SmootherSpec.least_squares(), self.X, self.X0, self.fX, self.fX0,
                                 self.sigma**2)
        S, S0 = _weights_ls(self.X, self.X0)
        est, se = noisy_oracle(S, S0, self.fX, self.fX0, self.sigma, 8000, 51)
        assert_within(cm, est, se)
        assert cm.var_s == pytest.approx(self.sigma**2 * self.p / self.n, rel=1e-12)

    def test_ridge(self):
        lam = 2.0
        cm = conditional_moments(SmootherSpec.ridge(lam), self.X, self.X0, self.fX, self.fX0,
                                 self.sigma**2)
        S, S0 = _weights_ls(self.X, self.X0, lam=lam)
        est, se = noisy_oracle(S, S0, self.fX, self.fX0, self.sigma, 8000, 52)
        assert_within(cm, est, se)

    def test_knn(self):
        k = 3
        cm = conditional_moments(SmootherSpec.knn(k), self.X, self.X0, self.fX, self.fX0,
                                 self.sigma**2)
        S, S0 = _weights_knn(self.X, self.X0, k)
        est, se = noisy_oracle(S, S0, self.fX, self.fX0, self.sigma, 8000, 53)
        assert_within(cm, est, se)

    def test_kernel_ridge(self):
        lam, bw = 0.7, 0.9
        cm = conditional_moments(
            SmootherSpec.kernel_ridge(lam, bandwidth=bw), self.X, self.X0, self.fX, self.fX0,
            self.sigma**2,
        )
        S, S0 = _weights_kernel(self.X, self.X0, lam, bw)
        est, se = noisy_oracle(S, S0, self.fX, self.fX0, self.sigma, 8000, 54)
        assert_within(cm, est, se)


class TestConditionalMomentProperties:
    def setup_method(self):
        rng = np.random.default_rng(55)
        self.X = rng.standard_normal((30, 4))
        self.X0 = rng.standard_normal((30, 4))

    def test_linear_mean_has_zero_bias_under_ls(self):
        f = MeanModel.linear_sum()
        cm = conditional_moments(SmootherSpec.least_squares(), self.X, self.X0, f.evaluate(self.X),
                                 f.evaluate(self.X0), 1.0)
        assert cm.bias_s <= 1e-18 and cm.bias_r <= 1e-18

    def test_ridge_at_zero_matches_ls(self):
        f = MeanModel.abs_sum(1.0)
        fX, fX0 = f.evaluate(self.X), f.evaluate(self.X0)
        a = conditional_moments(SmootherSpec.least_squares(), self.X, self.X0, fX, fX0, 2.0)
        b = conditional_moments(SmootherSpec.ridge(0.0), self.X, self.X0, fX, fX0, 2.0)
        assert a == b

    def test_ridge_variances_nonincreasing_in_lambda(self):
        f = MeanModel.abs_sum(1.0)
        fX, fX0 = f.evaluate(self.X), f.evaluate(self.X0)
        prev = None
        for lam in (0.0, 0.5, 5.0, 50.0, 500.0):
            cm = conditional_moments(SmootherSpec.ridge(lam), self.X, self.X0, fX, fX0, 2.0)
            if prev is not None:
                assert cm.var_s <= prev.var_s + 1e-12
                assert cm.var_r <= prev.var_r + 1e-12
            prev = cm

    def test_knn_excess_variance_exactly_zero(self):
        f = MeanModel.abs_sum(1.0)
        cm = conditional_moments(SmootherSpec.knn(5), self.X, self.X0, f.evaluate(self.X),
                                 f.evaluate(self.X0), 3.0)
        assert cm.var_r - cm.var_s == 0.0
        assert cm.var_s == 3.0 / 5

    def test_dispatcher_routes(self):
        # each spec reaches the smoother `fit` builds: the biases are those of fit/predict on f
        f = MeanModel.abs_sum(1.0)
        fX, fX0 = f.evaluate(self.X), f.evaluate(self.X0)
        for spec in (SmootherSpec.least_squares(), SmootherSpec.ridge(2.0), SmootherSpec.knn(4),
                     SmootherSpec.kernel_ridge(0.5)):
            cm = conditional_moments(spec, self.X, self.X0, fX, fX0, 1.0)
            m = fit(spec, self.X, fX)
            assert cm.bias_s == float(np.mean((m.fitted - fX) ** 2)), spec
            assert cm.bias_r == float(np.mean((predict(m, self.X0) - fX0) ** 2)), spec

    def test_rank_deficient_design(self):
        X = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            conditional_moments(SmootherSpec.least_squares(), X, X, np.zeros(5), np.zeros(5), 1.0)

    def test_inputs_checked_at_the_boundary(self):
        f = MeanModel.abs_sum(1.0)
        X, X0 = self.X, self.X0.copy()
        fX, fX0 = f.evaluate(X), f.evaluate(X0)
        spec = SmootherSpec.least_squares()
        X0[3, 1] = np.nan  # fX0 stays finite: X0 alone is checked
        with pytest.raises(ValueError, match="finite"):
            conditional_moments(spec, X, X0, fX, fX0, 1.0)
        bad = fX.copy()
        bad[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            conditional_moments(spec, X, self.X0, bad, fX0, 1.0)
        with pytest.raises(ValueError, match="X0 must be"):
            conditional_moments(spec, X, self.X0[:, :3], fX, fX0, 1.0)
        with pytest.raises(ValueError, match="need X"):
            conditional_moments(spec, X, self.X0, fX, fX0[:-1], 1.0)
        for sigma2 in (-1.0, np.nan):
            with pytest.raises(ValueError, match="sigma2"):
                conditional_moments(spec, X, self.X0, fX, fX0, sigma2)

    def test_replicate_loop_skips_the_boundary_checks(self, monkeypatch):
        def checked(*args):
            raise AssertionError("public entry called inside the replicate loop")

        monkeypatch.setattr("randomx_eval.decomp.conditional_moments", checked)
        est = estimate_decomposition(_scenario(reps=3), SmootherSpec.least_squares())
        assert est.reps == 3


@st.composite
def draws(draw):
    """Small normal (X, X0), an abs-sum mean at both, and a noise variance."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(p + 3, 14))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, X0 = rng.standard_normal((n, p)), rng.standard_normal((m, p))
    mean = MeanModel.abs_sum(1.0)
    return X, X0, mean.evaluate(X), mean.evaluate(X0), draw(st.sampled_from([0.25, 1.0, 400.0]))


@settings(max_examples=60, deadline=None)
@given(draws(), st.data())
def test_moments_equal_definition_from_weight_matrices(sample, data):
    X, X0, fX, fX0, sigma2 = sample
    n, m = len(X), len(X0)
    lam = data.draw(st.sampled_from([0.0, 0.3, 5.0]), label="lam")
    k = data.draw(st.integers(1, n), label="k")
    bw = data.draw(st.sampled_from([0.7, 1.5]), label="bw")
    cases = [
        (SmootherSpec.least_squares(), _weights_ls(X, X0)),
        (SmootherSpec.ridge(lam), _weights_ls(X, X0, lam)),
        (SmootherSpec.knn(k), _weights_knn(X, X0, k)),
        (SmootherSpec.kernel_ridge(lam + 0.2, bandwidth=bw), _weights_kernel(X, X0, lam + 0.2, bw)),
    ]
    for spec, (S, S0) in cases:
        cm = conditional_moments(spec, X, X0, fX, fX0, sigma2)
        definition = (
            np.mean((S @ fX - fX) ** 2), sigma2 * np.sum(S * S) / n,
            np.mean((S0 @ fX - fX0) ** 2), sigma2 * np.sum(S0 * S0) / m,
        )
        np.testing.assert_allclose(cm, definition, rtol=1e-10, atol=1e-14 * np.mean(fX**2),
                                   err_msg=spec.variant)
    ls = conditional_moments(SmootherSpec.least_squares(), X, X0, fX, fX0, sigma2)
    assert conditional_moments(SmootherSpec.ridge(0.0), X, X0, fX, fX0, sigma2) == ls
    knn = conditional_moments(SmootherSpec.knn(k), X, X0, fX, fX0, sigma2)
    assert knn.var_r - knn.var_s == 0.0


# --------------------------------------------------------------------------
# decomposition estimator
# --------------------------------------------------------------------------

def _scenario(**kw):
    base = dict(
        covariates=CovariateModel.normal_block(10, 5, 0.9),
        mean=MeanModel.linear_sum(),
        noise=NoiseModel(2.0),
        n=40,
        reps=200,
        seed=5,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestEstimateDecomposition:
    def test_linear_mean_exact_zero_bias_and_identities(self):
        est = estimate_decomposition(_scenario(), SmootherSpec.least_squares())
        assert abs(est.B) < 1e-20 and abs(est.Bplus) < 1e-18
        assert est.V == pytest.approx(4.0 * 10 / 40, rel=1e-12)
        assert est.se_V == 0.0
        assert est.err_s == est.sigma2 + est.B + est.V
        assert est.err_r == est.err_s + est.Bplus + est.Vplus
        assert est.reps == 200

    @pytest.mark.parametrize("cov, mean", [
        (CovariateModel.isotropic(4), MeanModel.linear_sum()),
        (CovariateModel.copula_uniform(4, 2, 0.7), MeanModel.abs_sum(0.75)),
    ], ids=["isotropic_linear", "uniform_abs_sum"])
    def test_least_squares_bias_is_exactly_zero_where_e_perp_is(self, cov, mean):
        # f = x' beta*, which least squares fits: B and B+ are 0, not rounding of either sign
        sc = _scenario(covariates=cov, mean=mean, n=40, reps=3, seed=1)
        assert x0_moments(cov, mean).e_perp == 0.0
        est = estimate_decomposition(sc, SmootherSpec.least_squares())
        assert (est.B, est.se_B, est.Bplus, est.se_Bplus) == (0.0, 0.0, 0.0, 0.0)
        ridge = estimate_decomposition(sc, SmootherSpec.ridge(1.0))
        assert ridge.B > 0.0 and ridge.se_B > 0.0

    def test_vplus_matches_exact_formula(self):
        from randomx_eval.criteria import vplus_normal_exact

        est = estimate_decomposition(_scenario(reps=400), SmootherSpec.least_squares())
        target = vplus_normal_exact(40, 10, 4.0)
        assert abs(est.Vplus - target) <= 2 * est.se_Vplus

    def test_vplus_negative_for_ridge_positive_for_least_squares(self):
        # shrinkage can make a fit vary less at fresh rows than at its own rows
        sc = _scenario(covariates=CovariateModel.isotropic(50), noise=NoiseModel(1.0), n=100, seed=1)
        ridge = estimate_decomposition(sc, SmootherSpec.ridge(100.0))
        ls = estimate_decomposition(sc, SmootherSpec.least_squares())
        assert ridge.Vplus < -4 * ridge.se_Vplus  # about -0.0066 +- 0.0002
        assert ls.Vplus > 4 * ls.se_Vplus

    def test_thread_count_does_not_change_output(self):
        sc = _scenario(covariates=CovariateModel.copula_t4(6, 3, 0.5), reps=50)
        a = estimate_decomposition(sc, SmootherSpec.least_squares(), threads=1)
        b = estimate_decomposition(sc, SmootherSpec.least_squares(), threads=3)
        assert a == b

    def test_replicate_failure_reports_seed(self):
        sc = _scenario(covariates=CovariateModel.isotropic(50), n=10, reps=5, seed=77)
        with pytest.raises(ReplicateError) as err:
            estimate_decomposition(sc, SmootherSpec.least_squares())
        assert err.value.replicate == 0 and err.value.seed == 77

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_cell_of_a_group_is_named(self, threads):
        ok = _scenario(covariates=CovariateModel.isotropic(4), n=10, reps=5, seed=77, name="ok")
        singular = replace(ok, name="singular", covariates=CovariateModel.scaled_product(
            4, sigma_half=np.diag([1.0, 1.0, 1.0, 0.0])))  # X has a zero column
        with pytest.raises(ReplicateError) as err:
            decomp._estimate_group([ok, singular], SmootherSpec.least_squares(), threads)
        e = err.value
        assert (e.replicate, e.seed, e.scenario) == (0, 77, "singular")
        assert "replicate 0 of scenario 'singular' (master seed 77)" in str(e)
        assert isinstance(e.__cause__, RankDeficient)
        assert estimate_decomposition(ok, SmootherSpec.least_squares()).reps == 5

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cells_of_any_seed_n_and_reps_equal_cells_run_alone(self, threads):
        # one loop per (seed, n, reps), each with its own TRAIN and TEST draws
        base = _scenario(covariates=CovariateModel.normal_block(4, 2, 0.7),
                         mean=MeanModel.abs_sum(0.75), n=20, reps=4, name="base")
        scenarios = [base, replace(base, seed=9, name="seed"), replace(base, n=24, name="n"),
                     replace(base, reps=3, name="reps"),
                     replace(base, covariates=CovariateModel.scaled_product(4, "uniform"), n=24,
                             name="sampled")]
        for spec in (SmootherSpec.least_squares(), SmootherSpec.knn(3)):
            alone = [estimate_decomposition(sc, spec) for sc in scenarios]
            assert decomp._estimate_group(scenarios, spec, threads) == alone

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lowest_failing_replicate_reported_at_any_thread_count(self, threads):
        def fn(r):
            if r == 0:
                time.sleep(0.05)  # replicate 1 fails first in time
            if r <= 1:
                raise ValueError(f"replicate {r} fails")
            return r

        with pytest.raises(ReplicateError) as err:
            run_replicates(fn, 4, threads, 77)
        assert err.value.replicate == 0 and err.value.seed == 77

    def test_reps_override_and_floor(self):
        est = estimate_decomposition(replace(_scenario(), reps=10), SmootherSpec.least_squares())
        assert est.reps == 10
        with pytest.raises(ValueError):
            estimate_decomposition(replace(_scenario(), reps=1), SmootherSpec.least_squares())

    def test_kernel_ridge_cell_holds_few_kernel_matrices(self):
        # the operator keeps K and (K + lam I)^-1, not a factor besides, and the X0 kernel
        # adds its distances and one partial sum: under five n x n matrices at once
        n = 500
        sc = _scenario(covariates=CovariateModel.normal_block(50, 5, 0.9),
                       mean=MeanModel.abs_sum(0.75), n=n, reps=2)
        spec = SmootherSpec.kernel_ridge(1.0)
        estimate_decomposition(sc, spec)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            estimate_decomposition(sc, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n * n * 8


# --------------------------------------------------------------------------
# x0 integrated out: least squares and ridge
# --------------------------------------------------------------------------

_S = np.array([[1.5, 0.4, 0.0, -0.3], [0.4, 1.0, 0.2, 0.0], [0.0, 0.2, 0.8, 0.1],
               [-0.3, 0.0, 0.1, 1.2]])
LAWS = {
    "normal_block": CovariateModel.normal_block(4, 2, 0.7),
    "isotropic": CovariateModel.isotropic(4),
    "scaled_normal": CovariateModel.scaled_product(4, "normal", _S),
    "scaled_uniform": CovariateModel.scaled_product(4, "uniform", _S),
    "scaled_rademacher": CovariateModel.scaled_product(4, "rademacher"),
    "copula_uniform": CovariateModel.copula_uniform(4, 2, 0.7),
    "copula_t4": CovariateModel.copula_t4(4, 2, 0.7),
}
MEANS = (MeanModel.linear_sum(), MeanModel.abs_sum(0.75), MeanModel.null(),
         MeanModel.linear_beta(np.array([1.0, -2.0, 0.5, 3.0])))


@pytest.mark.parametrize("law", LAWS)
def test_integrate_matches_apply_over_sampled_x0(law):
    cov = LAWS[law]
    X = draw_covariates(cov, 30, stream(70, 0, TRAIN))
    X0 = draw_covariates(cov, 100_000, stream(70, 0, TEST))
    for mean in MEANS:
        moments = x0_moments(cov, mean)
        if moments is None:
            assert mean.variant == "abs_sum" and cov.base != "normal"
            continue
        fX, fX0 = mean.evaluate(X), mean.evaluate(X0)
        for spec in (SmootherSpec.least_squares(), SmootherSpec.ridge(3.0)):
            op = _factorize(spec, X)
            c = op.solve(fX)
            exact = op.integrate(c, moments, 2.0)
            assert op.integrate(c, moments) == (exact[0], None)  # the bias alone without sigma2
            per = []
            for rows in np.split(np.arange(len(X0)), 50):
                fit_r, var_r = op.apply(c, X0[rows], 2.0)
                per.append((np.mean((fit_r - fX0[rows]) ** 2), var_r))
            per = np.array(per)
            sampled, se = per.mean(axis=0), per.std(axis=0, ddof=1) / np.sqrt(len(per))
            assert np.all(np.abs(exact - sampled) <= 4 * se + 1e-12), (law, mean.variant, spec.variant)


@pytest.mark.parametrize("spec", [SmootherSpec.least_squares(), SmootherSpec.ridge(3.0),
                                  SmootherSpec.kernel_ridge(1.0), SmootherSpec.knn(3)],
                         ids=["ls", "ridge", "kernel_ridge", "knn"])
def test_integrate_over_sampled_rows_is_the_mean_over_them(spec):
    cov, mean = LAWS["normal_block"], MeanModel.abs_sum(0.75)
    X = draw_covariates(cov, 30, stream(72, 0, TRAIN))
    X0 = draw_covariates(cov, 200, stream(72, 0, TEST))
    fX0 = mean.evaluate(X0)
    op = _factorize(spec, X)
    c = op.solve(mean.evaluate(X))
    fit_r, var_r = op.apply(c, X0, 2.0)
    bias_r = float(np.mean((fit_r - fX0) ** 2))
    assert op.integrate(c, (X0, fX0), 2.0) == (bias_r, var_r)
    assert op.integrate(c, (X0, fX0)) == (bias_r, None)


def test_exact_bias_of_a_linear_mean_is_rounding_and_nonnegative():
    # |R'(c - beta*)|^2 + e_perp: no large terms cancel, so no negative round-off
    for cov in (LAWS["copula_uniform"], LAWS["copula_t4"]):
        for mean in (MeanModel.linear_sum(), MeanModel.abs_sum(0.75)):
            moments = x0_moments(cov, mean)
            if moments.e_perp:
                continue
            for r in range(20):
                X = draw_covariates(cov, 30, stream(71, r, TRAIN))
                op = _factorize(SmootherSpec.least_squares(), X)
                bias_r = op.integrate(op.solve(mean.evaluate(X)), moments, 1.0)[0]
                assert 0.0 <= bias_r < 1e-20


@pytest.mark.parametrize("threads", [1, 2])
def test_cells_least_squares_fits_exactly_solve_nothing(monkeypatch, threads):
    # f = x' beta* (e_perp 0): c = beta* unsolved, so an unbiased cell calls solve zero times a
    # replicate and a biased cell once, and their rows equal the full computation
    unbiased = _scenario(covariates=LAWS["copula_uniform"], n=20, reps=4, name="unbiased")
    biased = replace(unbiased, mean=MeanModel.abs_sum(0.75), covariates=LAWS["normal_block"],
                     name="biased")
    spec = SmootherSpec.least_squares()
    solve, solved = _Operator.solve, []
    monkeypatch.setattr(_Operator, "solve", lambda op, y: solved.append(y) or solve(op, y))
    rows = []
    for sc, calls in ((unbiased, 0), (biased, 1)):
        solved.clear()
        rows += decomp._estimate_group([sc], spec, threads)
        assert len(solved) == calls * sc.reps

    def full(op, fX, sigma2, test):
        c = op.solve(fX)
        fit_s, var_s = op.apply(c, None, sigma2)
        bias_r, var_r = op.integrate(c, test, sigma2)
        bias_s = float(np.mean((fit_s - fX) ** 2))
        if test.e_perp == 0.0:
            bias_s = bias_r = 0.0
        return ConditionalMoments(bias_s, var_s, bias_r, var_r)

    monkeypatch.setattr(decomp, "_conditional_moments", full)
    assert decomp._estimate_group([unbiased, biased], spec, threads) == rows


#: The six cells of the bundled ``high_dim.json``: three laws, each under two means.
HIGH_DIM_CELLS = [(CovariateModel(variant, 50, blocks=5, rho=0.9), mean)
                  for mean in (MeanModel.linear_sum(), MeanModel.abs_sum(0.75))
                  for variant in ("normal_block", "copula_uniform", "copula_t4")]


@pytest.mark.parametrize("spec, cells, n, tests, designs", [
    (SmootherSpec.least_squares(), [(LAWS["normal_block"], MeanModel.abs_sum(0.75))], 20, 0, 1),
    (SmootherSpec.ridge(2.0), [(LAWS["copula_t4"], MeanModel.linear_sum())], 20, 0, 1),
    (SmootherSpec.knn(3), [(LAWS["normal_block"], MeanModel.abs_sum(0.75))], 20, 1, 1),
    (SmootherSpec.kernel_ridge(1.0), [(LAWS["normal_block"], MeanModel.abs_sum(0.75))], 20, 1, 1),
    (SmootherSpec.least_squares(), [(LAWS["scaled_uniform"], MeanModel.abs_sum(0.75))], 20, 1, 1),
    (SmootherSpec.least_squares(), HIGH_DIM_CELLS, 100, 0, 3),
    (SmootherSpec.knn(3), [(LAWS["normal_block"], MeanModel.abs_sum(0.75)),
                           (LAWS["copula_t4"], MeanModel.abs_sum(0.75))], 20, 1, 2),
], ids=["ls", "ridge", "knn", "kernel_ridge", "ls_uniform_base_abs_sum", "ls_high_dim_six_cells",
        "knn_two_cells"])
def test_x0_is_sampled_only_without_exact_moments(monkeypatch, spec, cells, n, tests, designs):
    # per replicate: one TRAIN stream for every cell, a TEST stream only where x0 is
    # sampled, and one factorization per distinct design
    purposes, factorized = [], []

    def counted_stream(seed, r, purpose):
        purposes.append(purpose)
        return stream(seed, r, purpose)

    def counted_factorize(smoother, X):
        factorized.append(X)
        return _factorize(smoother, X)

    monkeypatch.setattr(decomp, "stream", counted_stream)
    monkeypatch.setattr(decomp, "_factorize", counted_factorize)
    group = [_scenario(covariates=cov, mean=mean, n=n, reps=4) for cov, mean in cells]
    ests = decomp._estimate_group(group, spec, 1)
    assert [est.reps for est in ests] == [4] * len(cells)
    assert sorted(purposes) == [TRAIN] * 4 + [TEST] * (4 * tests)
    assert len(factorized) == 4 * designs


# --------------------------------------------------------------------------
# conditional OCV decomposition
# --------------------------------------------------------------------------

class TestOcvConditional:
    def test_matches_noisy_ocv_mean_least_squares(self):
        rng = np.random.default_rng(60)
        n, p, sigma = 20, 3, 1.2
        X = rng.standard_normal((n, p))
        fX = np.abs(X).sum(axis=1)
        dec = ocv_conditional(X, fX, SmootherSpec.least_squares(), sigma**2)
        # independent noisy estimate of E[OCV | X]
        H = X @ np.linalg.solve(X.T @ X, X.T)
        h = np.diag(H)
        T = 8000
        Y = fX + sigma * rng.standard_normal((T, n))
        resid = Y - Y @ H.T
        ocv_draws = np.mean((resid / (1 - h)) ** 2, axis=1)
        se = ocv_draws.std(ddof=1) / np.sqrt(T)
        assert abs(dec.v_of_X + dec.b_of_X - ocv_draws.mean()) <= 3 * se
        assert dec.v_of_X == pytest.approx(sigma**2 / n * np.sum(1 / (1 - h)), rel=1e-10)
        assert dec.v_of_X >= sigma**2

    def test_unbiased_setting_has_zero_bias_part(self):
        rng = np.random.default_rng(61)
        X = rng.standard_normal((25, 3))
        dec = ocv_conditional(X, X.sum(axis=1), SmootherSpec.least_squares(), 1.0)
        assert dec.b_of_X <= 1e-18

    def test_smoother_variants_run(self):
        # E[OCV | X] = (1/n) sum (sigma2 |(I - L)_i|^2 + ((I - L) f)_i^2) / (1 - L_ii)^2 for an
        # explicit L; a shrinker has |L_i|^2 < L_ii, so sigma2/n sum 1/(1 - L_ii) overstates it
        rng = np.random.default_rng(62)
        n, sigma2 = 40, 4.0
        X = rng.standard_normal((n, 10))
        fX = 3.0 * np.sin(X[:, 0])
        for spec, L in ((SmootherSpec.ridge(30.0), _weights_ls(X, X, 30.0)[0]),
                        (SmootherSpec.kernel_ridge(0.5),
                         _weights_kernel(X, X, 0.5, gaussian_bandwidth(X))[0]),
                        (SmootherSpec.knn(3), _weights_knn(X, X, 3)[0])):
            dec = ocv_conditional(X, fX, spec, sigma2)
            h, M = np.diag(L), np.eye(n) - L
            v = sigma2 * np.mean(np.sum(M * M, axis=1) / (1 - h) ** 2)
            assert dec.v_of_X == pytest.approx(v, rel=1e-10)
            assert dec.b_of_X == pytest.approx(np.mean((M @ fX / (1 - h)) ** 2), rel=1e-10)
            assert dec.v_of_X >= sigma2 and dec.b_of_X >= 0.0
            T = 20_000
            resid = (fX + np.sqrt(sigma2) * rng.standard_normal((T, n))) @ M.T
            ocv_draws = np.mean((resid / (1 - h)) ** 2, axis=1)
            se = ocv_draws.std(ddof=1) / np.sqrt(T)
            assert abs(dec.v_of_X + dec.b_of_X - ocv_draws.mean()) <= 3 * se, spec.variant

    def test_nonfinite_mean_rejected(self):
        rng = np.random.default_rng(64)
        X = rng.standard_normal((20, 3))
        fX = X.sum(axis=1)
        fX[4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ocv_conditional(X, fX, SmootherSpec.least_squares(), 1.0)

    def test_interpolating_fit_raises_leverage_one(self):
        rng = np.random.default_rng(63)
        X = rng.standard_normal((3, 3))  # square full-rank design: h_ii = 1
        with pytest.raises(LeverageOne):
            ocv_conditional(X, X.sum(axis=1), SmootherSpec.least_squares(), 1.0)


# --------------------------------------------------------------------------
# spectral check
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


class TestEigenMpCheck:
    def test_normal_entries_approach_limit(self):
        # gamma = 1/2: mean inverse eigenvalue of X'X/n approaches 2
        val = eigen_mp_check(1000, 500, CovariateModel.isotropic(500), reps=3, seed=1)
        assert val == pytest.approx(2.0, abs=0.05)

    def test_uniform_entries_same_limit(self):
        model = CovariateModel.scaled_product(500, base="uniform")
        val = eigen_mp_check(1000, 500, model, reps=3, seed=2)
        assert val == pytest.approx(2.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            eigen_mp_check(10, 10, CovariateModel.isotropic(10), reps=1)
        with pytest.raises(ValueError):
            eigen_mp_check(10, 2, CovariateModel.isotropic(2), reps=0)
