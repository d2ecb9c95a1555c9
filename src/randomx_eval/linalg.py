"""The one Cholesky factorization, and the one inverse, every smoother's operator is built on.

`smoothers._factorize` factors X'X + lam I, or K + lam I, through `_cholesky_spd` once per
training design and inverts it with `_cho_inverse`; every solve is a product with A^-1, which
for a symmetric positive definite A is as accurate as a backward-stable solve under the usual
assumptions (Druinsky & Toledo, arXiv:1201.6035).  Both call LAPACK's ``dpotrf``/``dpotri``
through `ctypes` on Fortran-order copies, from the OpenBLAS numpy links (the 64-bit
``scipy_``-prefixed routines of numpy >= 2.0 wheels); without them the import fails, naming
numpy's BLAS.  Rank deficiency is flagged by a pivot threshold relative to the largest
diagonal entry rather than by LAPACK's hard failure alone, so nearly-singular designs fail
loudly instead of returning garbage.
"""

from __future__ import annotations

import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NotPositiveDefinite

#: Relative pivot threshold below which a Cholesky factor counts as singular.
PIVOT_RTOL = 1e-10

#: numpy's linear-algebra extension, and through it the OpenBLAS it links.
_BLAS = ctypes.CDLL(_umath_linalg.__file__)

#: Columns of A^-1 that `_cho_inverse` mirrors at a time.
_MIRROR_BLOCK = 64
_UPPER = np.triu(np.ones((_MIRROR_BLOCK, _MIRROR_BLOCK), dtype=bool), 1)


def _bind(routine: str):
    """The LAPACK routine ``routine(uplo, n, a, lda, info)`` of numpy's BLAS, 64-bit integers."""
    try:
        fn = getattr(_BLAS, f"scipy_{routine}_64_")
    except AttributeError:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        raise ImportError(
            f"numpy {np.__version__}'s BLAS ({blas.get('name')} {blas.get('version')}) exports no "
            f"scipy_{routine}_64_; randomx_eval needs a numpy >= 2.0 build on scipy-openblas64"
        ) from None
    int64 = ctypes.POINTER(ctypes.c_int64)  # the trailing size_t is uplo's hidden length
    fn.argtypes = (ctypes.c_char_p, int64, ctypes.c_void_p, int64, int64, ctypes.c_size_t)
    fn.restype = None
    return fn


dpotrf = _bind("dpotrf")
dpotri = _bind("dpotri")


def _lapack_lower(routine, a: np.ndarray) -> int:
    """Run ``routine`` in place on the lower triangle of the Fortran-order square ``a``; its info."""
    if not (a.dtype == np.float64 and a.ndim == 2 and a.shape[0] == a.shape[1]
            and a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("LAPACK takes a writeable Fortran-order square float64 array")
    n, info = ctypes.c_int64(len(a)), ctypes.c_int64()
    routine(b"L", n, a.ctypes.data, n, info, 1)
    return info.value


def _cholesky_spd(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor F of a symmetric matrix A = F F', with pivot screening.

    Only F's lower triangle is meaningful (the upper holds A's); `_cho_inverse` takes F.

    Raises
    ------
    NotPositiveDefinite
        If LAPACK rejects the matrix or any pivot falls at or below
        ``PIVOT_RTOL * max(diag(A))``.
    """
    c = np.array(A, dtype=float, order="F")
    info = _lapack_lower(dpotrf, c)
    if info:
        raise NotPositiveDefinite(f"leading minor {info} is not positive definite")
    pivot = float(c.diagonal().min()) ** 2  # the smallest, as dpotrf's diagonal is > 0
    tol = PIVOT_RTOL * max(float(A.diagonal().max()), 0.0)
    if pivot <= tol:
        raise NotPositiveDefinite(f"Cholesky pivot {pivot:.3e} at or below threshold {tol:.3e}")
    return c


def _cho_inverse(F: np.ndarray) -> np.ndarray:
    """A^-1 written over the factor F of A returned by `_cholesky_spd`: ``dpotri`` fills the
    lower triangle and a loop over blocks of columns mirrors it, so A^-1 is exactly symmetric.
    No temporary holds more than `_MIRROR_BLOCK` columns."""
    inv = np.asfortranarray(F)
    _lapack_lower(dpotri, inv)  # the screened pivots are > 0
    for j in range(0, len(inv), _MIRROR_BLOCK):
        k = j + _MIRROR_BLOCK
        diag = inv[j:k, j:k]
        np.copyto(diag, diag.T, where=_UPPER[:len(diag), :len(diag)])
        inv[j:k, k:] = inv[k:, j:k].T
    return inv
