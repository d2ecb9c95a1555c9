"""Property tests: the GEMM-form distances against the exact difference form.

The reference is the difference form ``sum((a - b)^2)`` over the full
(m, n, p) tensor.  kNN must reproduce its stable argsort exactly, ties
included; kernels and the median bandwidth must match it to rtol 1e-12.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomx_eval import smoothers
from randomx_eval.smoothers import gaussian_bandwidth, kernel_matrix, neighbor_sets

RTOL = 1e-12


def diff_sq(X0, X):
    return ((X0[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)


def ref_bandwidth(X):
    iu = np.triu_indices(len(X), k=1)
    d = np.sqrt(diff_sq(X, X)[iu])
    d = d[d > 0]
    return float(np.median(d)) if d.size else 1.0


@st.composite
def point_sets(draw, max_n=40, max_m=30):
    """(X, X0) with tie-heavy integer grids or normals, scales 0.1 to 1e3, offsets up to 1e4."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    p = draw(st.integers(1, 6))
    grid = draw(st.booleans())
    scale = draw(st.sampled_from([0.1, 1.0, 37.0, 1e3]))
    offset = draw(st.sampled_from([0.0, 1.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(r):
        Z = rng.integers(-2, 3, size=(r, p)).astype(float) if grid else rng.standard_normal((r, p))
        return Z * scale + offset

    X = rows(n)
    X0 = X if draw(st.booleans()) else rows(m)
    return X, X0


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.data())
def test_neighbor_sets_equal_stable_argsort_of_difference_form(sets, data):
    X, X0 = sets
    n = len(X)
    k = data.draw(st.integers(1, n), label="k")
    # a small block forces several query chunks
    block = data.draw(st.sampled_from([smoothers._BLOCK_DOUBLES, n, 3 * n]), label="block")
    ref = np.argsort(diff_sq(X0, X), axis=1, kind="stable")[:, :k]
    with mock.patch.object(smoothers, "_BLOCK_DOUBLES", block):
        got = neighbor_sets(X, X0, k)
    np.testing.assert_array_equal(got, ref)


def test_neighbor_sets_spans_chunks_with_offset_ties():
    rng = np.random.default_rng(3)
    X = rng.integers(0, 3, size=(60, 3)).astype(float) + 1e4
    X0 = rng.integers(0, 3, size=(250, 3)).astype(float) + 1e4
    ref = np.argsort(diff_sq(X0, X), axis=1, kind="stable")
    with mock.patch.object(smoothers, "_BLOCK_DOUBLES", 60 * 7):  # 7 query rows per chunk
        for k in (1, 9, 60):
            np.testing.assert_array_equal(neighbor_sets(X, X0, k), ref[:, :k])


@settings(max_examples=200, deadline=None)
@given(point_sets(max_n=30), st.sampled_from([0.5, 1.0, 2.0]))
def test_kernel_matrix_matches_difference_form(sets, factor):
    X, X0 = sets
    h = factor * ref_bandwidth(X)
    want = np.exp(-diff_sq(X0, X) / (2.0 * h**2))
    # below the smallest normal double, kernel values are subnormal and carry fewer digits
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(kernel_matrix(X0, X, h), want, rtol=RTOL, atol=tiny)


@settings(max_examples=200, deadline=None)
@given(point_sets(max_n=30))
def test_gaussian_bandwidth_matches_difference_form(sets):
    X, _ = sets
    assert abs(gaussian_bandwidth(X) - ref_bandwidth(X)) <= RTOL * ref_bandwidth(X)


@settings(max_examples=200, deadline=None)
@given(point_sets(max_n=20), st.data())
def test_gaussian_bandwidth_excludes_duplicate_rows(sets, data):
    X, _ = sets
    dup = data.draw(st.lists(st.integers(0, len(X) - 1), min_size=1, max_size=2 * len(X)), label="dup")
    Xd = np.vstack([X, X[dup]])
    Xd = Xd[np.random.default_rng(len(dup)).permutation(len(Xd))]
    got = gaussian_bandwidth(Xd)
    assert abs(got - ref_bandwidth(Xd)) <= RTOL * ref_bandwidth(Xd)
    if len(np.unique(Xd, axis=0)) == 1:
        assert got == 1.0


def test_gaussian_bandwidth_duplicates_far_from_origin():
    # positive distances 1, 1, 2, 3, 3 (the duplicate pair is left out): median 2
    X = np.array([[0.0], [0.0], [1.0], [3.0]]) + 1e4
    assert gaussian_bandwidth(X) == 2.0


@pytest.mark.parametrize("m", [1, 132, 500, 1000])
def test_sq_distances_add_the_norms_in_blocks(m):
    # the same additions as adding one m x n array of norm sums, without that array: the
    # output, one 64K-double block and the centred rows, where the one-shot form peaks
    # at about twice the output
    n, p = 500, 50
    rng = np.random.default_rng(m)
    X0, X = rng.standard_normal((m, p)), rng.standard_normal((n, p))
    c = X.mean(axis=0)
    A, B = X0 - c, X - c
    one_shot = -2.0 * (A @ B.T) + np.add.outer(np.einsum("ij,ij->i", A, A),
                                                np.einsum("ij,ij->i", B, B))
    assert np.array_equal(smoothers._sq_distances(X0, X), np.maximum(one_shot, 0.0))
    smoothers._sq_distances(X0, X)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        smoothers._sq_distances(X0, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= m * n * 8 + 2**16 * 8 + 3 * (m + n) * p * 8
