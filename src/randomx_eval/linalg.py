"""The one Cholesky factorization every smoother's operator is built on.

`smoothers._factorize` factors the (possibly ridge-shifted) Gram matrix
X'X + lam I, or the kernel system K + lam I, through `_cholesky_spd` once per
training design.  Every solve with it goes through `_cho_solve` or
`_tri_solve`, and kernel ridge turns it into the explicit inverse with
`_cho_inverse`.  They call LAPACK's ``dpotrf``/``dpotrs``/``dtrtrs``/``dpotri`` directly,
without the per-call argument handling of `scipy.linalg.cho_factor`/`cho_solve`.
Rank deficiency is flagged by a pivot threshold relative to the largest
diagonal entry rather than by LAPACK's hard failure alone, so
nearly-singular designs fail loudly instead of returning garbage.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

from .errors import NotPositiveDefinite

#: Relative pivot threshold below which a Cholesky factor counts as singular.
PIVOT_RTOL = 1e-10


def _cholesky_spd(A: np.ndarray):
    """Lower Cholesky factor of a symmetric matrix, with pivot screening.

    Returns the ``(c, lower)`` pair that `_cho_solve` and
    `scipy.linalg.cho_solve` take.

    Raises
    ------
    NotPositiveDefinite
        If LAPACK rejects the matrix or any pivot falls at or below
        ``PIVOT_RTOL * max(diag(A))``.
    """
    c, info = dpotrf(A, lower=1, clean=0)
    if info:
        raise NotPositiveDefinite(f"leading minor {info} is not positive definite")
    pivots = np.diag(c) ** 2
    tol = PIVOT_RTOL * max(float(np.max(np.diag(A))), 0.0)
    if np.any(pivots <= tol):
        raise NotPositiveDefinite(
            f"Cholesky pivot {pivots.min():.3e} at or below threshold {tol:.3e}"
        )
    return c, True


def _cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """A^-1 b for the ``factor`` of A returned by `_cholesky_spd`; b is a vector or a matrix."""
    c, lower = factor
    return dpotrs(c, b, lower=lower)[0]


def _tri_solve(factor, b: np.ndarray) -> np.ndarray:
    """F^-1 b for the lower factor F (A = F F') in the ``factor`` returned by `_cholesky_spd`."""
    return dtrtrs(factor[0], b, lower=factor[1])[0]


def _cho_inverse(factor) -> np.ndarray:
    """A^-1 written over the ``factor`` of A returned by `_cholesky_spd`: ``dpotri`` fills
    one triangle and a loop over columns mirrors it, so A^-1 is exactly symmetric."""
    inv = dpotri(factor[0], lower=factor[1], overwrite_c=1)[0]  # the screened pivots are > 0
    tri = inv if factor[1] else inv.T  # dpotri wrote the lower triangle of ``tri``
    for j in range(len(inv) - 1):
        tri[j, j + 1:] = tri[j + 1:, j]
    return inv
