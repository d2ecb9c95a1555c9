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


def _cholesky_spd(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor F of a symmetric matrix A = F F', with pivot screening.

    Only F's lower triangle is meaningful; `_cho_solve`, `_tri_solve` and `_cho_inverse` take F.

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
    return c


def _cho_solve(F: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b for the factor F of A returned by `_cholesky_spd`; b is a vector or a matrix."""
    return dpotrs(F, b, lower=1)[0]


def _tri_solve(F: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F^-1 b for the lower factor F (A = F F') returned by `_cholesky_spd`."""
    return dtrtrs(F, b, lower=1)[0]


def _cho_inverse(F: np.ndarray) -> np.ndarray:
    """A^-1 written over the factor F of A returned by `_cholesky_spd`: ``dpotri`` fills the
    lower triangle and a loop over columns mirrors it, so A^-1 is exactly symmetric."""
    inv = dpotri(F, lower=1, overwrite_c=1)[0]  # the screened pivots are > 0
    for j in range(len(inv) - 1):
        inv[j, j + 1:] = inv[j + 1:, j]
    return inv
