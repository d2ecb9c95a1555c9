"""Tests for the linear smoothers and neighbor machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomx_eval.errors import DegenerateNeighbors, NotPositiveDefinite, RankDeficient
from randomx_eval.smoothers import (
    SmootherSpec,
    _factorize,
    fit,
    gaussian_bandwidth,
    kernel_matrix,
    neighbor_sets,
    predict,
)

TWO_X = np.array([[1.0], [2.0]])
TWO_Y = np.array([1.0, 3.0])


class TestLeastSquares:
    def test_two_point_slope(self):
        m = fit(SmootherSpec.least_squares(), TWO_X, TWO_Y)
        np.testing.assert_allclose(m.coefficients, [1.4], rtol=1e-12)
        np.testing.assert_allclose(m.fitted, [1.4, 2.8], rtol=1e-12)
        np.testing.assert_allclose(m.hat_diag, [0.2, 0.8], rtol=1e-12)
        assert m.trace_S == pytest.approx(1.0, rel=1e-12)

    def test_predict_extrapolates(self):
        m = fit(SmootherSpec.least_squares(), TWO_X, TWO_Y)
        np.testing.assert_allclose(predict(m, [[3.0]]), [4.2], rtol=1e-12)

    def test_predict_rejects_bad_rows(self):
        m = fit(SmootherSpec.least_squares(), TWO_X, TWO_Y)
        for X0 in ([[3.0, 4.0]], [3.0]):
            with pytest.raises(ValueError, match=r"X0 must be \(m, 1\)"):
                predict(m, X0)
        with pytest.raises(ValueError, match="X0 must be finite"):
            predict(m, [[np.inf]])

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((40, 6))
        Y = rng.standard_normal(40)
        m = fit(SmootherSpec.least_squares(), X, Y)
        assert np.abs(X.T @ m.residuals).max() <= 1e-8 * np.linalg.norm(Y)

    def test_trace_is_p(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 5))
        m = fit(SmootherSpec.least_squares(), X, rng.standard_normal(30))
        assert m.trace_S == pytest.approx(5.0, abs=1e-8)

    def test_rank_deficient(self):
        X = np.column_stack([np.ones(6), np.ones(6)])
        with pytest.raises(RankDeficient):
            fit(SmootherSpec.least_squares(), X, np.zeros(6))


class TestRidge:
    def test_lambda_zero_equals_least_squares(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((25, 4))
        Y = rng.standard_normal(25)
        a = fit(SmootherSpec.least_squares(), X, Y)
        b = fit(SmootherSpec.ridge(0.0), X, Y)
        np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-10)
        np.testing.assert_allclose(a.hat_diag, b.hat_diag, rtol=1e-8)

    def test_large_lambda_shrinks_to_zero(self):
        m = fit(SmootherSpec.ridge(1e12), TWO_X, TWO_Y)
        assert np.abs(m.coefficients).max() < 1e-9
        assert np.abs(m.fitted).max() < 1e-8

    def test_two_point_hat_with_penalty(self):
        m = fit(SmootherSpec.ridge(5.0), TWO_X, TWO_Y)
        np.testing.assert_allclose(m.hat_diag, [0.1, 0.4], rtol=1e-12)

    def test_handles_rank_deficiency(self):
        X = np.column_stack([np.ones(6), np.ones(6)])
        m = fit(SmootherSpec.ridge(1.0), X, np.arange(6.0))
        assert np.all(np.isfinite(m.coefficients))

    def test_tiny_penalty_on_a_zero_column_is_not_rank_deficient(self):
        # with lam > 0 the failure is the penalised system's, not the design's rank
        X = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
        with pytest.raises(NotPositiveDefinite) as info:
            fit(SmootherSpec.ridge(1e-300), X, np.arange(6.0))
        assert not isinstance(info.value, RankDeficient)


class TestKernelRidge:
    def test_dual_path_matches_explicit_formula(self):
        # fitted and predict against k(X0, X) (K + lam I)^-1 Y, with k written out here
        rng = np.random.default_rng(13)
        X = rng.standard_normal((20, 3))
        Y = rng.standard_normal(20)
        X0 = rng.standard_normal((7, 3))
        lam, h = 2.5, 1.3

        def k(A, B):
            return np.exp(-((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2) / (2.0 * h * h))

        weights = np.linalg.solve(k(X, X) + lam * np.eye(20), Y)
        m = fit(SmootherSpec.kernel_ridge(lam, bandwidth=h), X, Y)
        np.testing.assert_allclose(m.fitted, k(X, X) @ weights, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(predict(m, X0), k(X0, X) @ weights, rtol=1e-10, atol=1e-12)

    def test_gaussian_interpolates_at_tiny_penalty(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((12, 2))
        Y = rng.standard_normal(12)
        m = fit(SmootherSpec.kernel_ridge(1e-10), X, Y)
        np.testing.assert_allclose(m.fitted, Y, atol=1e-4)

    def test_hat_diag_in_unit_interval(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((15, 2))
        m = fit(SmootherSpec.kernel_ridge(0.5), X, rng.standard_normal(15))
        assert np.all((m.hat_diag >= 0) & (m.hat_diag <= 1 + 1e-12))
        assert m.bandwidth == pytest.approx(gaussian_bandwidth(X))

    def test_bandwidth_is_median_distance(self):
        X = np.array([[0.0], [1.0], [3.0]])  # pairwise distances 1, 2, 3
        assert gaussian_bandwidth(X) == pytest.approx(2.0)

    def test_requires_positive_penalty(self):
        with pytest.raises(ValueError):
            SmootherSpec.kernel_ridge(0.0)

    def test_kernel_matrix_values(self):
        K = kernel_matrix(np.array([[0.0]]), np.array([[2.0]]), 2.0)
        assert K[0, 0] == pytest.approx(np.exp(-4.0 / 8.0))

    @pytest.mark.parametrize("bandwidth", [None, 0.0, -1.0, float("nan"), float("inf")])
    def test_kernel_matrix_rejects_bad_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="finite bandwidth > 0"):
            kernel_matrix(np.eye(2), np.eye(2), bandwidth)


@st.composite
def kernel_designs(draw):
    """Small normal training rows X, query rows X0 and a response y."""
    p = draw(st.integers(1, 4))
    n, m = draw(st.integers(2, 14)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((n, p)), rng.standard_normal((m, p)), rng.standard_normal(n)


@settings(max_examples=60, deadline=None)
@given(kernel_designs(), st.sampled_from([1e-6, 0.5, 50.0]), st.sampled_from([0.25, 400.0]))
def test_kernel_ridge_operator_matches_explicit_weights(design, lam, sigma2):
    # solve, hat_diag and apply at X and X0 against L(X0) = k(X0, X) (K + lam I)^-1 written out
    X, X0, y = design
    op = _factorize(SmootherSpec.kernel_ridge(lam), X)

    def k(A, B):
        return np.exp(-((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2) / (2.0 * op.bandwidth**2))

    A = k(X, X) + lam * np.eye(len(X))
    S, S0 = k(X, X) @ np.linalg.inv(A), k(X0, X) @ np.linalg.inv(A)
    tol = 1e-14 * np.linalg.cond(A)  # a backward-stable solve's forward error, with room

    # L(X) = I - lam A^-1 is exact to the rounding of I: the absolute scale of h is 1,
    # and that of a variance sigma2 ||I||_F^2 / n
    def close(got, want, scale):
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * scale)

    c = op.solve(y)
    close(c, np.linalg.solve(A, y), np.max(np.abs(c)))
    h = op.hat_diag()
    assert np.all((h >= 0.0) & (h <= 1.0))
    close(h, np.diag(S), 1.0)
    for rows, L in ((None, S), (X0, S0)):
        out, var = op.apply(c, rows, sigma2)
        close(out, L @ y, np.max(np.abs(y)))
        close(var, sigma2 * np.sum(L * L) / len(L), sigma2)


class TestNeighborSets:
    def test_tie_broken_by_lowest_index(self):
        X = np.array([[0.0], [2.0]])
        nb = neighbor_sets(X, np.array([[1.0]]), 1)
        assert nb.tolist() == [[0]]

    def test_self_is_first_neighbor(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((10, 2))
        nb = neighbor_sets(X, X, 3)
        np.testing.assert_array_equal(nb[:, 0], np.arange(10))

    def test_matches_bruteforce_with_tie_rule(self):
        rng = np.random.default_rng(17)
        X = rng.integers(0, 4, size=(30, 2)).astype(float)  # many exact ties
        X0 = rng.integers(0, 4, size=(12, 2)).astype(float)
        nb = neighbor_sets(X, X0, 5)
        for j in range(12):
            d = ((X - X0[j]) ** 2).sum(axis=1)
            order = sorted(range(30), key=lambda i: (d[i], i))[:5]
            assert nb[j].tolist() == order

    def test_chunking_consistent(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((50, 40))  # large row width forces small chunks
        X0 = rng.standard_normal((37, 40))
        nb = neighbor_sets(X, X0, 4)
        d = ((X0[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        ref = np.argsort(d, axis=1, kind="stable")[:, :4]
        np.testing.assert_array_equal(nb, ref)

    def test_k_out_of_range(self):
        X = np.zeros((3, 1))
        with pytest.raises(DegenerateNeighbors):
            neighbor_sets(X, X, 4)
        with pytest.raises(DegenerateNeighbors):
            neighbor_sets(X, X, 0)


class TestKnn:
    def test_k_equal_n_predicts_mean(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((8, 2))
        Y = rng.standard_normal(8)
        m = fit(SmootherSpec.knn(8), X, Y)
        np.testing.assert_allclose(m.fitted, np.full(8, Y.mean()), rtol=1e-12)

    def test_k1_reproduces_training_points(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((9, 3))
        Y = rng.standard_normal(9)
        m = fit(SmootherSpec.knn(1), X, Y)
        np.testing.assert_allclose(m.fitted, Y)
        np.testing.assert_allclose(predict(m, X), Y)

    def test_hat_diag_is_one_over_k(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((12, 2))
        m = fit(SmootherSpec.knn(4), X, rng.standard_normal(12))
        np.testing.assert_allclose(m.hat_diag, np.full(12, 0.25))
        assert m.trace_S == pytest.approx(3.0)

    def test_k_larger_than_n(self):
        with pytest.raises(DegenerateNeighbors):
            fit(SmootherSpec.knn(5), np.zeros((3, 1)), np.zeros(3))


class TestSpecValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            SmootherSpec("splines")

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            SmootherSpec.ridge(-1.0)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            SmootherSpec.knn(0)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            SmootherSpec.kernel_ridge(1.0, bandwidth=bandwidth)
