"""Tests for covariate/mean/noise models, RNG streams, and the t quantile."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from randomx_eval.datagen import (
    NOISE,
    TEST,
    TRAIN,
    CovariateModel,
    MeanModel,
    NoiseModel,
    block_correlation,
    draw_covariates,
    draw_response,
    quantile_t4,
    stream,
    x0_moments,
)
from randomx_eval.datagen import _t4_pair_moments
from randomx_eval.errors import DomainError


# --------------------------------------------------------------------------
# independent oracle for the t quantile: quadrature CDF + bisection
# --------------------------------------------------------------------------

def _t_pdf(x: float, df: float) -> float:
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2)

def _t_cdf_quad(x: float, df: float) -> float:
    # split at 20 so the adaptive rule never loses the peak at the origin
    a = abs(x)
    val, _ = scipy.integrate.quad(_t_pdf, 0.0, min(a, 20.0), args=(df,))
    if a > 20.0:
        tail, _ = scipy.integrate.quad(_t_pdf, 20.0, a, args=(df,))
        val += tail
    return 0.5 + math.copysign(val, x)

def _t_quantile_bisect(u: float, df: float) -> float:
    lo, hi = -1e3, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _t_cdf_quad(mid, df) < u:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-11 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


class TestQuantileT:
    def test_median_is_zero(self):
        assert quantile_t4(0.5) == 0.0

    def test_t_table_value(self):
        # classic two-sided 95% t(4) critical value
        assert quantile_t4(0.975) == pytest.approx(2.776, abs=5e-4)

    def test_against_quadrature_inversion(self):
        for u in (0.975, 0.25):
            assert quantile_t4(u) == pytest.approx(_t_quantile_bisect(u, 4.0), abs=1e-6)

    def test_cdf_roundtrip_tolerance(self):
        for u in (0.01, 0.3, 0.5, 0.77, 0.999):
            q = quantile_t4(u)
            assert abs(_t_cdf_quad(q, 4.0) - u) < 1e-8

    def test_symmetry(self):
        assert quantile_t4(0.3) == pytest.approx(-quantile_t4(0.7), rel=1e-12)

    def test_vectorized(self):
        q = quantile_t4(np.array([0.25, 0.75]))
        assert q.shape == (2,) and q[0] == pytest.approx(-q[1], rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(u=st.one_of(
        st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
        st.floats(min_value=-1e-12, max_value=1e-12).map(lambda d: 0.5 + d),
        st.floats(min_value=0.0, max_value=300.0).map(lambda e: 10.0 ** -e),
        st.floats(min_value=1e-16, max_value=1e-3).map(lambda e: 1.0 - e),
    ).filter(lambda u: 0.0 < u < 1.0))
    def test_t4_matches_mpmath(self, u):
        """Relative error of the t(4) quantile against 40-digit arithmetic, at every u."""
        mpmath = pytest.importorskip("mpmath")
        q = quantile_t4(u)
        with mpmath.workdps(40):
            uq, t = mpmath.mpf(u), mpmath.mpf(q)
            if t == 0:
                assert uq == mpmath.mpf(0.5)
                return
            # the t(4) CDF minus u: a closed form near 0, the incomplete beta in the tails
            if abs(t) < 1:
                excess = t * (t**2 + 6) / (2 * (t**2 + 4) ** 1.5) - (uq - mpmath.mpf(0.5))
            else:
                tail = mpmath.betainc(2, 0.5, 0, 4 / (4 + t**2), regularized=True) / 2
                excess = (uq if t < 0 else 1 - uq) - tail
            density = mpmath.mpf(3) / 8 * (1 + t**2 / 4) ** -2.5
            rel = abs(excess / (density * t))  # one Newton step: |q - q_exact| / |q|
        assert rel <= 4e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            quantile_t4(0.0)
        with pytest.raises(DomainError):
            quantile_t4(1.0)


# --------------------------------------------------------------------------
# streams
# --------------------------------------------------------------------------

class TestStream:
    def test_bit_identical_for_same_key(self):
        a = stream(42, 3, TRAIN).standard_normal(100)
        b = stream(42, 3, TRAIN).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = stream(42, 3, TRAIN).standard_normal(100)
        for key in [(42, 3, TEST), (42, 3, NOISE), (42, 4, TRAIN), (43, 3, TRAIN)]:
            b = stream(*key).standard_normal(100)
            assert not np.array_equal(a, b)

    def test_draws_deterministic_through_models(self):
        model = CovariateModel.copula_t4(6, 3, 0.5)
        X1 = draw_covariates(model, 50, stream(9, 0, TRAIN))
        X2 = draw_covariates(model, 50, stream(9, 0, TRAIN))
        np.testing.assert_array_equal(X1, X2)


# --------------------------------------------------------------------------
# covariate models
# --------------------------------------------------------------------------

class TestBlockCorrelation:
    def test_structure(self):
        S = block_correlation(4, 2, 0.9)
        expect = np.array([
            [1.0, 0.9, 0.0, 0.0],
            [0.9, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.9],
            [0.0, 0.0, 0.9, 1.0],
        ])
        np.testing.assert_allclose(S, expect)

    def test_uneven_blocks(self):
        # p=5, blocks=2 -> sizes 3 and 2
        S = block_correlation(5, 2, 0.5)
        assert S[0, 2] == 0.5 and S[0, 3] == 0.0 and S[3, 4] == 0.5


class TestDrawCovariates:
    def test_normal_block_correlations(self):
        model = CovariateModel.normal_block(10, 5, 0.9)
        X = draw_covariates(model, 100_000, stream(0, 0, TRAIN))
        C = np.corrcoef(X.T)
        assert C[0, 1] == pytest.approx(0.9, abs=0.02)   # same block
        assert C[0, 2] == pytest.approx(0.0, abs=0.02)   # across blocks
        assert X.mean(axis=0) == pytest.approx(np.zeros(10), abs=0.02)
        assert X.var(axis=0) == pytest.approx(np.ones(10), abs=0.03)

    def test_copula_uniform_marginals(self):
        model = CovariateModel.copula_uniform(4, 2, 0.9)
        U = draw_covariates(model, 100_000, stream(1, 0, TRAIN))
        assert np.all((U > 0.0) & (U < 1.0))
        assert U.mean() == pytest.approx(0.5, abs=0.005)
        assert U.var(axis=0) == pytest.approx(np.full(4, 1 / 12), abs=0.005)
        # dependence survives the transform inside a block, not across
        C = np.corrcoef(U.T)
        assert C[0, 1] > 0.8 and abs(C[0, 2]) < 0.02

    def test_copula_t4_marginals(self):
        model = CovariateModel.copula_t4(4, 2, 0.9)
        T = draw_covariates(model, 100_000, stream(2, 0, TRAIN))
        assert T.mean() == pytest.approx(0.0, abs=0.03)
        # t(4) variance is df/(df-2) = 2; heavy tails make this a loose check
        assert T.var() == pytest.approx(2.0, rel=0.10)

    def test_isotropic(self):
        X = draw_covariates(CovariateModel.isotropic(3), 50_000, stream(3, 0, TRAIN))
        C = np.corrcoef(X.T)
        assert np.abs(C - np.eye(3)).max() < 0.02

    def test_scaled_product_bases_unit_variance(self):
        for base in ("normal", "uniform", "rademacher"):
            model = CovariateModel.scaled_product(3, base=base)
            Z = draw_covariates(model, 100_000, stream(4, 0, TRAIN))
            assert Z.mean() == pytest.approx(0.0, abs=0.02)
            assert Z.var(axis=0) == pytest.approx(np.ones(3), abs=0.03)

    def test_scaled_product_applies_sigma_half(self):
        root = np.array([[2.0, 1.0], [1.0, 2.0]])  # Sigma = root @ root
        model = CovariateModel.scaled_product(2, base="uniform", sigma_half=root)
        X = draw_covariates(model, 200_000, stream(5, 0, TRAIN))
        cov = np.cov(X.T)
        np.testing.assert_allclose(cov, root @ root, atol=0.08)

    def test_validation(self):
        with pytest.raises(ValueError):
            CovariateModel("normal_block", 4, blocks=5)
        with pytest.raises(ValueError):
            CovariateModel("normal_block", 4, blocks=2, rho=1.0)
        with pytest.raises(ValueError):
            CovariateModel("no_such", 4)
        with pytest.raises(ValueError):
            CovariateModel.scaled_product(2, base="poisson")
        with pytest.raises(ValueError):
            CovariateModel.scaled_product(2, sigma_half=np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            draw_covariates(CovariateModel.isotropic(2), 0, stream(0, 0, TRAIN))
        with pytest.raises(ValueError, match="p must be >= 1"):
            CovariateModel.isotropic(0)
        with pytest.raises(ValueError, match="p x p"):
            CovariateModel.scaled_product(2, sigma_half=np.eye(3))


# --------------------------------------------------------------------------
# mean, noise, training sets
# --------------------------------------------------------------------------

class TestMeanModels:
    X = np.array([[1.0, -2.0], [0.5, 0.5]])

    def test_linear_sum(self):
        np.testing.assert_allclose(MeanModel.linear_sum().evaluate(self.X), [-1.0, 1.0])

    def test_abs_sum(self):
        np.testing.assert_allclose(MeanModel.abs_sum(0.75).evaluate(self.X), [2.25, 0.75])

    def test_null(self):
        np.testing.assert_allclose(MeanModel.null().evaluate(self.X), [0.0, 0.0])

    def test_linear_beta(self):
        m = MeanModel.linear_beta(np.array([2.0, -1.0]))
        np.testing.assert_allclose(m.evaluate(self.X), [4.0, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            MeanModel("linear_beta")
        with pytest.raises(ValueError):
            MeanModel("abs_sum", C=np.inf)
        with pytest.raises(ValueError):
            MeanModel.linear_beta(np.array([1.0])).evaluate(self.X)
        with pytest.raises(ValueError, match="finite 1-D"):
            MeanModel.linear_beta(np.array([1.0, np.nan]))


class TestNoiseAndResponse:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0)
        assert NoiseModel(20.0).sigma2 == 400.0

    def test_draw_response_moments(self):
        X = draw_covariates(CovariateModel.isotropic(2), 100_000, stream(6, 0, TRAIN))
        Y, fX = draw_response(X, MeanModel.linear_sum(), NoiseModel(3.0), stream(6, 0, NOISE))
        np.testing.assert_allclose(fX, X.sum(axis=1))
        resid = Y - fX
        assert resid.var() == pytest.approx(9.0, rel=0.05)
        assert resid.mean() == pytest.approx(0.0, abs=0.05)

    def test_covariates_same_whether_or_not_responses_drawn(self):
        X = draw_covariates(CovariateModel.isotropic(3), 40, stream(7, 0, TRAIN))
        Y, fX = draw_response(X, MeanModel.linear_sum(), NoiseModel(1.0), stream(7, 0, NOISE))
        assert X.shape == (40, 3) and Y.shape == fX.shape == (40,)
        np.testing.assert_allclose(fX, X.sum(axis=1))
        # same covariate stream, separate noise stream -> same X either way
        X_only = draw_covariates(CovariateModel.isotropic(3), 40, stream(7, 0, TRAIN))
        np.testing.assert_array_equal(X, X_only)


# --------------------------------------------------------------------------
# moments of a fresh row
# --------------------------------------------------------------------------

class TestX0Moments:
    def test_t4_anchors(self):
        prod, abs_prod = _t4_pair_moments(0.0)
        assert prod == 0.0 and abs_prod == pytest.approx(1.0, abs=1e-12)  # E|t4| = 1
        prod, abs_prod = _t4_pair_moments(0.9)
        assert prod == pytest.approx(1.7758204245503, abs=1e-12)
        assert abs_prod == pytest.approx(1.7981428653484, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_t4_quadrature_converged(self, rho):
        base = np.array(_t4_pair_moments(rho))
        doubled = np.array(_t4_pair_moments(rho, nodes=128))
        assert np.max(np.abs(doubled - base)) <= 1e-12

    def test_t4_product_matches_gauss_hermite(self):
        # an independent rule: 2-D Gauss-Hermite over the underlying normal pair
        z, w = np.polynomial.hermite_e.hermegauss(40)
        w = w / math.sqrt(2.0 * math.pi)
        rho = 0.9
        z2 = rho * z[:, None] + math.sqrt(1.0 - rho * rho) * z[None, :]

        def t4(v):
            return np.sign(v) * -quantile_t4(scipy.special.ndtr(-np.abs(v)))

        gh = float(np.sum(w[:, None] * w[None, :] * t4(z)[:, None] * t4(z2)))
        assert _t4_pair_moments(rho)[0] == pytest.approx(gh, abs=1e-12)

    def test_second_moment_diagonals(self):
        linear = MeanModel.linear_sum()
        t4 = x0_moments(CovariateModel.copula_t4(6, 2, 0.5), linear).root
        np.testing.assert_allclose(np.diag(t4 @ t4.T), 2.0, rtol=1e-14)  # E[t4^2] = 4 / (4 - 2)
        unif = x0_moments(CovariateModel.copula_uniform(6, 2, 0.5), linear).root
        sigma = unif @ unif.T
        np.testing.assert_allclose(np.diag(sigma), 1.0 / 3.0, rtol=1e-14)
        assert sigma[0, 5] == pytest.approx(0.25, rel=1e-14)  # independent blocks: E[U]^2
        assert sigma[0, 1] == pytest.approx(np.arcsin(0.25) / (2 * np.pi) + 0.25, rel=1e-14)
        block = x0_moments(CovariateModel.normal_block(6, 2, 0.5), linear).root
        np.testing.assert_allclose(block @ block.T, block_correlation(6, 2, 0.5), atol=1e-15)
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert x0_moments(CovariateModel.scaled_product(2, sigma_half=S), linear).root is S
        assert np.array_equal(x0_moments(CovariateModel.isotropic(2), linear).root, np.eye(2))
        # an isotropic law cannot carry a sigma_half, so its moments cannot disagree with its draws
        with pytest.raises(ValueError, match="sigma_half"):
            CovariateModel("isotropic_normal", 2, sigma_half=S)

    def test_normal_abs_moment_anchors(self):
        # e_perp = C^2 sum_jk E|x_j||x_k|, with E x_j^2 = 1 and E|x_j||x_k| = 2/pi at rho = 0
        iso = x0_moments(CovariateModel.isotropic(3), MeanModel.abs_sum(1.0)).e_perp
        assert iso == pytest.approx(3 + 6 * 2.0 / np.pi, rel=1e-15)
        rng = np.random.default_rng(81)
        z = rng.standard_normal((400_000, 2)) @ np.linalg.cholesky([[1.0, 0.6], [0.6, 1.0]]).T
        f2 = np.abs(z).sum(axis=1) ** 2
        pair = x0_moments(CovariateModel.normal_block(2, 1, 0.6), MeanModel.abs_sum(1.0)).e_perp
        assert abs(f2.mean() - pair) <= 4 * f2.std() / np.sqrt(len(f2))

    def test_linear_means_are_exact(self):
        beta = np.array([1.0, -2.0, 0.5, 3.0])
        for cov in (CovariateModel.normal_block(4, 2, 0.7), CovariateModel.copula_t4(4, 2, 0.7),
                    CovariateModel.scaled_product(4, base="rademacher")):
            for mean, want in ((MeanModel.linear_sum(), np.ones(4)), (MeanModel.null(), np.zeros(4)),
                               (MeanModel.linear_beta(beta), beta)):
                m = x0_moments(cov, mean)
                assert np.array_equal(m.beta, want) and m.e_perp == 0.0
        # abs_sum is C sum_j x_j on the (0, 1) marginals of the uniform copula
        m = x0_moments(CovariateModel.copula_uniform(4, 2, 0.7), MeanModel.abs_sum(0.75))
        assert np.array_equal(m.beta, np.full(4, 0.75)) and m.e_perp == 0.0
        m = x0_moments(CovariateModel.normal_block(4, 2, 0.7), MeanModel.abs_sum(0.75))
        assert np.array_equal(m.beta, np.zeros(4)) and m.e_perp > 0.0

    def test_abs_sum_residual_sums_the_pair_moments(self):
        # e_perp = C^2 sum_jk E|x_j||x_k|: 2 blocks of 2, so 4 diagonal, 4 within, 8 across
        t4 = x0_moments(CovariateModel.copula_t4(4, 2, 0.7), MeanModel.abs_sum(0.5)).e_perp
        assert t4 == pytest.approx(0.25 * (4 * 2.0 + 4 * _t4_pair_moments(0.7)[1] + 8 * 1.0), rel=1e-14)
        normal = x0_moments(CovariateModel.normal_block(4, 2, 0.7), MeanModel.abs_sum(0.5)).e_perp
        within = 2.0 / np.pi * (np.sqrt(1.0 - 0.49) + 0.7 * np.arcsin(0.7))
        assert normal == pytest.approx(0.25 * (4 * 1.0 + 4 * within + 8 * 2.0 / np.pi), rel=1e-14)

    def test_uncovered_law_gives_none(self):
        for base in ("uniform", "rademacher"):
            cov = CovariateModel.scaled_product(4, base=base)
            assert x0_moments(cov, MeanModel.abs_sum(1.0)) is None
            assert x0_moments(cov, MeanModel.linear_sum()) is not None
