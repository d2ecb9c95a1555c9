"""The one Cholesky factorization every smoother's operator is built on.

`smoothers._factorize` factors the (possibly ridge-shifted) Gram matrix
X'X + lam I, or the kernel system K + lam I, through `_cholesky_spd` once per
training design.  Rank deficiency is flagged by a pivot threshold relative to
the largest diagonal entry rather than by LAPACK's hard failure alone, so
nearly-singular designs fail loudly instead of returning garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite

#: Relative pivot threshold below which a Cholesky factor counts as singular.
PIVOT_RTOL = 1e-10


def _cholesky_spd(A: np.ndarray):
    """Lower Cholesky factor of a symmetric matrix, with pivot screening.

    Returns the ``(c, lower)`` pair that `scipy.linalg.cho_solve` takes.

    Raises
    ------
    NotPositiveDefinite
        If LAPACK rejects the matrix or any pivot falls at or below
        ``PIVOT_RTOL * max(diag(A))``.
    """
    try:
        c, low = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    pivots = np.diag(c) ** 2
    tol = PIVOT_RTOL * max(float(np.max(np.diag(A))), 0.0)
    if np.any(pivots <= tol):
        raise NotPositiveDefinite(
            f"Cholesky pivot {pivots.min():.3e} at or below threshold {tol:.3e}"
        )
    return c, low
