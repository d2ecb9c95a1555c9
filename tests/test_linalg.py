"""Tests for the pivot-screened Cholesky factor and the hat diagonal built on it."""

import numpy as np
import pytest
import scipy.linalg

from randomx_eval.errors import NoConvergence, NotPositiveDefinite, RankDeficient
from randomx_eval.linalg import _cholesky_spd
from randomx_eval.smoothers import SmootherSpec, fit


def solve_spd(A, b):
    """Solve A x = b through `_cholesky_spd`, as every smoother does."""
    return scipy.linalg.cho_solve(_cholesky_spd(np.asarray(A, dtype=float)), b)


def hat_diagonal(X, ridge=0.0):
    """Leverages of least squares, or of ridge with penalty ``ridge``, read from `fit`."""
    spec = SmootherSpec.ridge(ridge) if ridge else SmootherSpec.least_squares()
    X = np.asarray(X, dtype=float)
    return fit(spec, X, np.zeros(len(X))).hat_diag


class TestSolveSpd:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 4.0]), [2.0, 8.0])
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_two_by_two_exact(self):
        # inverse of [[5,7],[7,13]] is [[13,-7],[-7,5]]/16
        x = solve_spd([[5.0, 7.0], [7.0, 13.0]], [1.0, 0.0])
        np.testing.assert_allclose(x, [13.0 / 16.0, -7.0 / 16.0], rtol=1e-12)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6))
        A = A @ A.T + 6 * np.eye(6)
        B = rng.standard_normal((6, 3))
        X = solve_spd(A, B)
        np.testing.assert_allclose(A @ X, B, atol=1e-10)

    def test_residual_small_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.integers(1, 9)
            M = rng.standard_normal((p + 3, p))
            A = M.T @ M + 1e-3 * np.eye(p)
            b = rng.standard_normal(p)
            x = solve_spd(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0])  # eigenvalues 3, -1

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])

    def test_nonfinite_rejected(self):
        # non-finite data is rejected where it enters, before any factorization
        with pytest.raises(ValueError):
            fit(SmootherSpec.least_squares(), [[np.inf], [1.0]], [1.0, 1.0])


class TestHatDiagonal:
    def test_single_column_ones(self):
        h = hat_diagonal(np.ones((5, 1)))
        np.testing.assert_allclose(h, np.full(5, 0.2), rtol=1e-12)

    def test_two_point_column(self):
        h = hat_diagonal(np.array([[1.0], [2.0]]))
        np.testing.assert_allclose(h, [0.2, 0.8], rtol=1e-12)

    def test_ridge_shift(self):
        h = hat_diagonal(np.array([[1.0], [2.0]]), ridge=5.0)
        np.testing.assert_allclose(h, [0.1, 0.4], rtol=1e-12)

    def test_sums_to_p_and_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, p = 30, int(rng.integers(1, 8))
            X = rng.standard_normal((n, p))
            h = hat_diagonal(X)
            assert np.all(h >= 0.0) and np.all(h <= 1.0 + 1e-12)
            np.testing.assert_allclose(h.sum(), p, rtol=1e-10)

    def test_entrywise_nonincreasing_in_ridge(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 4))
        prev = hat_diagonal(X, ridge=0.0)
        for lam in (0.1, 1.0, 10.0, 100.0):
            cur = hat_diagonal(X, ridge=lam)
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    def test_rank_deficient(self):
        X = np.ones((4, 2))  # duplicate columns
        with pytest.raises(RankDeficient):
            hat_diagonal(X)

    def test_rank_deficient_ok_with_ridge(self):
        h = hat_diagonal(np.ones((4, 2)), ridge=1.0)
        assert np.all((h >= 0) & (h < 1))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            hat_diagonal(np.eye(3), ridge=-1.0)


def test_no_convergence_is_runtime_error():
    assert issubclass(NoConvergence, RuntimeError)
