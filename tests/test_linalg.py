"""Tests for the pivot-screened Cholesky factor, the inverse and hat diagonal built on it.

scipy's LAPACK wrappers serve as the reference for the routines `linalg` binds from numpy's
OpenBLAS.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf as scipy_dpotrf

from randomx_eval import datagen, linalg
from randomx_eval.errors import NotPositiveDefinite, RankDeficient
from randomx_eval.linalg import _cho_inverse, _cholesky_spd
from randomx_eval.smoothers import SmootherSpec, fit


def solve_spd(A, b):
    """Solve A x = b through A^-1 from `_cholesky_spd` and `_cho_inverse`, as every smoother does."""
    return _cho_inverse(_cholesky_spd(np.asarray(A, dtype=float))) @ np.asarray(b, dtype=float)


def spd(n, seed):
    """A random symmetric positive definite n x n matrix, condition number below about 10."""
    M = np.random.default_rng(seed).standard_normal((n, n + 5))
    return M @ M.T / n + np.eye(n)


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


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


class TestAgainstScipy:
    @pytest.mark.parametrize("n", [1, 2, 50, 64, 65, 200])
    def test_factor_inverse_and_solve(self, n):
        A = spd(n, n)
        F = _cholesky_spd(A)
        ref = scipy.linalg.cholesky(A, lower=True)
        assert rel_err(np.tril(F), ref) <= 1e-12
        inv = _cho_inverse(F)
        assert rel_err(inv, scipy.linalg.inv(A)) <= 1e-12
        b = np.random.default_rng(n + 1).standard_normal((n, 3))
        assert rel_err(inv @ b, scipy.linalg.cho_solve((ref, True), b)) <= 1e-12

    @pytest.mark.parametrize("A", [[[1.0, 2.0], [2.0, 1.0]],
                                   [[4.0, 0.0, 0.0], [0.0, 1.0, 3.0], [0.0, 3.0, 2.0]],
                                   [[-1.0]]], ids=["2x2", "3x3", "negative"])
    def test_indefinite_names_the_leading_minor_scipy_names(self, A):
        A = np.array(A)
        info = scipy_dpotrf(A, lower=1)[1]
        assert info > 0
        with pytest.raises(NotPositiveDefinite, match=f"^leading minor {info} is not positive"):
            _cholesky_spd(A)

    def test_a_missing_routine_names_numpy_blas(self):
        with pytest.raises(ImportError, match=r"^numpy .*'s BLAS \(.*\) exports no scipy_dnone_64_"):
            linalg._bind("dnone")

    @pytest.mark.parametrize("a", [np.ones((3, 2), order="F"), np.eye(3), np.eye(3, dtype=np.float32),
                                   np.eye(4, order="F")[::2, ::2]],
                             ids=["not_square", "c_order", "float32", "strided"])
    def test_lapack_refuses_arrays_it_would_misread(self, a):
        with pytest.raises(ValueError, match="Fortran-order square float64"):
            linalg._lapack_lower(linalg.dpotrf, a)

    def test_input_left_unchanged(self):
        A = spd(5, 0)
        before = A.copy()
        _cho_inverse(_cholesky_spd(A))
        assert np.array_equal(A, before)

    def test_t4_nodes_match_golub_welsch(self, monkeypatch):
        # the 64-node Gauss-Legendre rule from the eigenvectors of its Jacobi matrix
        def golub_welsch(nodes):
            k = np.arange(1.0, nodes)
            x, V = scipy.linalg.eigh_tridiagonal(np.zeros(nodes), k / np.sqrt(4.0 * k * k - 1.0))
            return x, 2.0 * V[0] ** 2

        rhos = (0.0, 0.3, 0.9, 0.99)
        got = np.array([datagen._t4_pair_moments(rho) for rho in rhos])
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", golub_welsch)
        want = np.array([datagen._t4_pair_moments(rho) for rho in rhos])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestChoInverse:
    @pytest.mark.parametrize("n", [1, 2, 7, 60, 201])
    def test_symmetric_and_equal_to_the_inverse(self, n):
        A = spd(n, n)
        inv = _cho_inverse(_cholesky_spd(A))
        assert np.array_equal(inv, inv.T)
        ref = np.linalg.inv(A)
        assert np.max(np.abs(inv - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_rejected_matrix_forms_no_inverse(self, monkeypatch):
        inverted = []
        monkeypatch.setattr(linalg, "dpotri", lambda *a, **k: inverted.append(a))
        for A in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]):  # indefinite, singular
            with pytest.raises(NotPositiveDefinite):
                _cho_inverse(_cholesky_spd(np.array(A)))
        with pytest.raises(NotPositiveDefinite):  # kernel ridge on duplicate rows, lam ~ 0
            fit(SmootherSpec.kernel_ridge(1e-300), np.ones((4, 2)), np.zeros(4))
        assert inverted == []

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 63, 64, 65, 130, 500]), seed=st.integers(0, 2**32 - 1))
    def test_exactly_symmetric_inverse_around_the_mirror_blocks(self, n, seed):
        A = spd(n, seed)
        inv = _cho_inverse(_cholesky_spd(A))
        assert inv.shape == (n, n) and np.array_equal(inv, inv.T)
        assert np.max(np.abs(A @ inv - np.eye(n))) <= 1e-12


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
