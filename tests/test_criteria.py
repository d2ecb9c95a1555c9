"""Tests for the covariance-penalty criteria.

The OCV oracle refits the smoother n times with one row deleted; the shortcut
must match it exactly (least squares and ridge), over random n, p and lam.
Scalar criteria are pinned to hand-computed values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomx_eval.criteria import (
    bplus_hat,
    cp,
    criteria_report,
    gcv,
    ocv,
    optr_asymptotic,
    rcp,
    rcp_hat,
    vplus_asymptotic,
    vplus_normal_exact,
)
from randomx_eval.criteria import LEVERAGE_TOL, _check_scalars
from randomx_eval.errors import DimensionError, DomainError, LeverageOne
from randomx_eval.smoothers import SmootherSpec, fit


def rcp_plus_from_ocv(ocv_value: float, hat_diag, n: int, p: int, sigma2: float) -> float:
    """rcp_plus rewritten around OCV (an algebraic identity, not a new method).

    ``OCV - (sigma2/n) sum h_ii/(1-h_ii) + (sigma2 p/n)(1 + (p+1)/(n-p-1))``.
    Used to cross-check ``rcp + bplus_hat``; the two agree to round-off.
    """
    h = np.asarray(hat_diag, dtype=float)
    if np.any(h >= 1.0 - LEVERAGE_TOL):
        raise LeverageOne("a leverage is numerically 1")
    _check_scalars(0.0, n, p, sigma2)
    if p >= n - 1:
        raise DimensionError(f"need p < n - 1, got n={n}, p={p}")
    penalty = (sigma2 / n) * float(np.sum(h / (1.0 - h)))
    head = sigma2 * (p / n) * (1.0 + (p + 1.0) / (n - p - 1.0))
    return ocv_value - penalty + head


def loo_refit_ocv(X, Y, lam=0.0):
    """Literal leave-one-out refit error (independent of the shortcut path)."""
    n, p = X.shape
    out = np.empty(n)
    for i in range(n):
        mask = np.ones(n, dtype=bool)
        mask[i] = False
        A = X[mask].T @ X[mask] + lam * np.eye(p)
        beta = np.linalg.solve(A, X[mask].T @ Y[mask])
        out[i] = Y[i] - X[i] @ beta
    return float(np.mean(out**2))


def shapes(max_p: int, min_gap: int, max_gap: int):
    """(n, p) with 1 <= p <= max_p and p + min_gap <= n <= p + max_gap."""
    return st.integers(1, max_p).flatmap(
        lambda p: st.tuples(st.integers(p + min_gap, p + max_gap), st.just(p)))


#: n >= p + 5, so that no leave-one-out design is near singular.
SHAPES = shapes(8, 5, 40)
SEEDS = st.integers(0, 2**32 - 1)


class TestScalarCriteria:
    def test_cp_values(self):
        assert cp(0.0, 100, 50, 400.0) == pytest.approx(400.0)
        assert cp(40000.0, 100, 50, 400.0) == pytest.approx(800.0)

    def test_rcp_values(self):
        assert rcp(40000.0, 100, 50, 400.0) == pytest.approx(1008.1633, abs=1e-4)
        assert rcp(0.0, 100, 50, 400.0) == pytest.approx(608.1633, abs=1e-4)
        # no-noise degenerate collapses to RSS/n
        assert rcp(40000.0, 100, 50, 0.0) == pytest.approx(400.0)

    def test_rcp_hat_value(self):
        assert rcp_hat(40000.0, 100, 50) == pytest.approx(1616.3265, abs=1e-4)

    @settings(max_examples=300, deadline=None)
    @given(shapes(400, 2, 400), st.floats(0.0, 1e8))
    def test_rcp_hat_equals_plugin_rcp(self, shape, rss):
        # sigma-free form == rcp with sigma2_hat = rss/(n-p)
        n, p = shape
        plug = rcp(rss, n, p, rss / (n - p))
        assert rcp_hat(rss, n, p) == pytest.approx(plug, rel=1e-10, abs=1e-12)

    def test_gcv_value(self):
        assert gcv(40000.0, 100, 50) == pytest.approx(1600.0)

    def test_gcv_approaches_rcp_hat_for_large_n(self):
        n, p, rss = 10_000, 5_000, 1.0e6
        ratio = gcv(rss, n, p) / rcp_hat(rss, n, p)
        assert ratio == pytest.approx(1.0, abs=1e-2)

    def test_monotone_in_rss_and_ordering(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(6, 200))
            p = int(rng.integers(1, n - 1))
            s2 = float(rng.uniform(0.1, 50.0))
            r1, r2 = sorted(rng.uniform(0.0, 1e4, size=2))
            for crit in (lambda r: cp(r, n, p, s2), lambda r: rcp(r, n, p, s2),
                         lambda r: rcp_hat(r, n, p), lambda r: gcv(r, n, p)):
                assert crit(r2) >= crit(r1)
            assert rcp(r2, n, p, s2) >= cp(r2, n, p, s2)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            rcp_hat(1.0, 10, 9)
        with pytest.raises(DimensionError):
            rcp(1.0, 10, 9, 1.0)
        with pytest.raises(DimensionError):
            vplus_normal_exact(10, 9, 1.0)
        with pytest.raises(DimensionError):
            gcv(1.0, 10, 10)

    def test_bad_scalars(self):
        with pytest.raises(ValueError):
            cp(-1.0, 10, 2, 1.0)
        with pytest.raises(ValueError):
            cp(1.0, 10, 2, -1.0)


class TestVplus:
    def test_exact_values(self):
        assert vplus_normal_exact(100, 50, 400.0) == pytest.approx(208.1633, abs=1e-4)
        assert vplus_normal_exact(300, 100, 1.0) == pytest.approx(0.169179, abs=1e-6)
        assert vplus_normal_exact(100, 50, 0.0) == 0.0

    def test_asymptotic_value(self):
        assert vplus_asymptotic(0.5, 1.0) == pytest.approx(0.5)
        assert vplus_asymptotic(1e-8, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_exact_converges_to_asymptotic(self):
        exact = vplus_normal_exact(2000, 1000, 1.0)
        assert exact == pytest.approx(vplus_asymptotic(0.5, 1.0), rel=2e-2)

    def test_optr_asymptotic(self):
        assert optr_asymptotic(0.5, 1.0) == pytest.approx(1.5)
        # OptR limit = Fixed-X part 2 sigma2 gamma plus the excess variance limit
        for g in (0.1, 0.3, 0.7):
            assert optr_asymptotic(g, 2.0) == pytest.approx(
                2 * 2.0 * g + vplus_asymptotic(g, 2.0), rel=1e-12
            )

    def test_domain(self):
        for g in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(DomainError):
                vplus_asymptotic(g, 1.0)
            with pytest.raises(DomainError):
                optr_asymptotic(g, 1.0)


class TestOcv:
    def test_two_point_fixture(self):
        X = np.array([[1.0], [2.0]])
        Y = np.array([1.0, 3.0])
        m = fit(SmootherSpec.least_squares(), X, Y)
        assert ocv(m.residuals, m.hat_diag) == pytest.approx(0.625, rel=1e-12)
        assert loo_refit_ocv(X, Y) == pytest.approx(0.625, rel=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(SHAPES, SEEDS)
    def test_shortcut_equals_refits_least_squares(self, shape, seed):
        n, p = shape
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        Y = X.sum(axis=1) + rng.standard_normal(n)
        m = fit(SmootherSpec.least_squares(), X, Y)
        assert ocv(m.residuals, m.hat_diag) == pytest.approx(loo_refit_ocv(X, Y), rel=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(SHAPES, SEEDS, st.floats(1e-3, 1e3))
    def test_shortcut_equals_refits_ridge(self, shape, seed, lam):
        n, p = shape
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        Y = rng.standard_normal(n)
        m = fit(SmootherSpec.ridge(lam), X, Y)
        assert ocv(m.residuals, m.hat_diag) == pytest.approx(
            loo_refit_ocv(X, Y, lam=lam), rel=1e-10
        )

    def test_leverage_one(self):
        with pytest.raises(LeverageOne):
            ocv(np.array([0.1, 0.2]), np.array([0.5, 1.0 - 1e-13]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ocv(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ocv(np.array([1.0]), np.array([-0.1]))


class TestBplusAndRcpPlus:
    def test_bplus_direct_formula(self):
        rng = np.random.default_rng(34)
        r = rng.standard_normal(20)
        h = rng.uniform(0.05, 0.6, size=20)
        s2 = 1.3
        direct = np.mean([(r[i] ** 2 - (1 - h[i]) * s2) * (1.0 / (1 - h[i]) ** 2 - 1.0)
                          for i in range(20)])
        assert bplus_hat(r, h, s2) == pytest.approx(direct, rel=1e-12)

    def test_zero_when_leverage_zero(self):
        # h = 0 means no optimism correction: the weight 1/(1-h)^2 - 1 vanishes
        r = np.array([1.0, -2.0, 0.5])
        assert bplus_hat(r, np.zeros(3), 5.0) == 0.0

    def test_rcp_plus_identity_random_fixtures(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            n = int(rng.integers(10, 60))
            p = int(rng.integers(1, min(8, n - 2)))
            X = rng.standard_normal((n, p))
            Y = rng.standard_normal(n) + np.abs(X).sum(axis=1)
            s2 = float(rng.uniform(0.2, 4.0))
            m = fit(SmootherSpec.least_squares(), X, Y)
            r = m.residuals
            rss = float(r @ r)
            lhs = rcp(rss, n, p, s2) + bplus_hat(r, m.hat_diag, s2)
            rhs = rcp_plus_from_ocv(ocv(r, m.hat_diag), m.hat_diag, n, p, s2)
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestOptimismAndReport:
    def test_ridge_report_uses_trace_of_smoother(self):
        rng = np.random.default_rng(40)
        n, p = 100, 50
        X = rng.standard_normal((n, p))
        m = fit(SmootherSpec.ridge(100.0), X, X.sum(axis=1) + rng.standard_normal(n))
        rep = criteria_report(m)
        tr = m.trace_S
        assert 1.0 < tr < p - 1
        assert rep.gcv == pytest.approx(rep.rss / n / (1.0 - tr / n) ** 2, rel=1e-12)
        assert rep.sigma2_hat == pytest.approx(rep.rss / (n - tr), rel=1e-12)
        assert rep.rcp_hat == rcp_hat(rep.rss, n, p)  # the least squares formula

    def test_ridge_cp_uses_trace_of_smoother(self):
        rng = np.random.default_rng(41)
        n, p = 100, 50
        X = rng.standard_normal((n, p))
        m = fit(SmootherSpec.ridge(100.0), X, X.sum(axis=1) + rng.standard_normal(n))
        rep = criteria_report(m, sigma2=1.0)
        assert rep.cp == rep.rss / n + 2.0 * 1.0 * m.trace_S / n
        # rcp keeps the least squares excess variance on top of cp
        assert rep.rcp == rep.cp + vplus_normal_exact(n, p, 1.0)
        assert rep.rcp_plus == rep.rcp + rep.bplus_hat

    def test_report_with_and_without_sigma2(self):
        rng = np.random.default_rng(39)
        X = rng.standard_normal((30, 4))
        Y = rng.standard_normal(30)
        m = fit(SmootherSpec.least_squares(), X, Y)
        rep = criteria_report(m)
        assert rep.cp is None and rep.rcp is None and rep.rcp_plus is None
        assert rep.sigma2_hat == pytest.approx(rep.rss / 26)
        full = criteria_report(m, sigma2=1.0)
        assert full.cp == pytest.approx(cp(full.rss, 30, 4, 1.0))
        assert full.rcp_plus == pytest.approx(full.rcp + full.bplus_hat)
        assert full.ocv == pytest.approx(loo_refit_ocv(X, Y), rel=1e-8)
