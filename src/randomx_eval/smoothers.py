"""Linear smoothers: least squares, ridge, Gaussian kernel ridge, and kNN.

Every smoother here is linear in the response: its prediction at query rows
X0 is L(X0) Y, for a weight matrix L that depends only on the training rows
X and on X0.  `_factorize(spec, X)` does the one costly step per training
design — the inverse of A = X'X + lam I (least squares, ridge) or of
A = K + lam I (kernel ridge), from one Cholesky factorization, or the
in-sample neighbor search (kNN) — and returns the operator that everything
else is read from:

``solve(y)``                weights c of y: A^-1 X'y, A^-1 y, or y itself (kNN);
``apply(c, X0, sigma2)``    L(X0) y = X0 c, k(X0, X) c, or the mean of c over
                            each query row's k neighbors; given ``sigma2``
                            also the mean noise variance sigma2 ||L(X0)||_F^2 / m;
``hat_diag()``              the diagonal of L(X);
``integrate(c, t, sigma2)`` the squared bias and, given ``sigma2``, the variance
                            of L(x0) y over a fresh row x0: the mean over rows
                            t = (X0, f(X0)), or exact from x0's moments t
                            (`datagen.x0_moments`; least squares, ridge).

`fit` and `predict` here, and the conditional moments and the conditional
OCV split in `decomp`, are all derived from it.  Two variances are exact
closed forms: sigma2 p / n for least squares at X (L(X) projects onto the
p columns of X) and sigma2 / k for kNN at any rows (each row of L holds k
weights 1/k).  Ridge at lam = 0 takes the least squares path.

kNN conventions: Euclidean distance, distance ties broken by lowest training
index, and each training point counts as its own nearest neighbor in-sample,
so the kNN hat diagonal is exactly 1/k.

Distances: kernels use the GEMM form E = |a|^2 + |b|^2 - 2 a.b, clipped at
0, after both row sets are shifted by the training column mean.  With |a|,
|b| the shifted norms, E and the exact difference form D = sum((a - b)^2)
each lie within about 2 (p + 2) eps (|a|^2 + |b|^2) of the true distance
(the shift adds 4 eps of the same), so |E - D| <= tol =
8 (p + 4) eps (|a|^2 + max_j |b_j|^2), with a factor of two to spare.
kNN ranks follow D, ties included: `neighbor_sets` keeps, per query row,
every training row with E <= kth + 2 tol (kth: the row's k-th smallest E).
At least k rows have D <= kth + tol, so every row with D at most the k-th
smallest D is kept; the shortlist is recomputed as D and ranked by
(D, index).  Query rows go in blocks, so that E holds at most ~4M doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datagen import _check_variant
from .errors import DegenerateNeighbors, NotPositiveDefinite, RankDeficient
from .linalg import _cho_inverse, _cholesky_spd

__all__ = [
    "SmootherSpec",
    "FittedSmoother",
    "fit",
    "predict",
    "neighbor_sets",
    "gaussian_bandwidth",
    "kernel_matrix",
]


@dataclass(frozen=True)
class SmootherSpec:
    """Which smoother to fit and with what tuning.

    ``lam`` is the ridge / kernel-ridge penalty, ``bandwidth`` is the Gaussian
    kernel's (``None`` means the median pairwise distance of the training
    covariates), ``k`` is the neighbor count.
    """

    #: Each variant's fields, with their JSON kinds; the rest keep their defaults.
    FIELDS = {
        "least_squares": {},
        "ridge": {"lam": float},
        "kernel_ridge": {"lam": float, "bandwidth": float},
        "knn": {"k": int},
    }

    variant: str
    lam: float = 0.0
    bandwidth: float | None = None
    k: int = 1

    def __post_init__(self):
        _check_variant(self, "smoother")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError("lam must be finite and >= 0")
        if self.variant == "kernel_ridge" and self.lam <= 0.0:
            raise ValueError("kernel ridge requires lam > 0")
        if self.bandwidth is not None and not 0 < self.bandwidth < np.inf:
            raise ValueError("bandwidth must be finite and > 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @classmethod
    def least_squares(cls) -> "SmootherSpec":
        return cls("least_squares")

    @classmethod
    def ridge(cls, lam: float) -> "SmootherSpec":
        return cls("ridge", lam=lam)

    @classmethod
    def kernel_ridge(cls, lam: float, bandwidth: float | None = None) -> "SmootherSpec":
        return cls("kernel_ridge", lam=lam, bandwidth=bandwidth)

    @classmethod
    def knn(cls, k: int) -> "SmootherSpec":
        return cls("knn", k=k)


@dataclass(frozen=True)
class FittedSmoother:
    """A trained linear smoother plus its in-sample diagnostics.

    ``coefficients`` holds the primal coefficients for least squares / ridge
    and the dual weights for kernel ridge; it is ``None`` for kNN, which
    predicts straight from the stored training responses.  ``bandwidth`` is
    the resolved kernel bandwidth (``None`` outside kernel ridge).
    """

    spec: SmootherSpec
    train_X: np.ndarray = field(repr=False)
    train_Y: np.ndarray = field(repr=False)
    coefficients: np.ndarray | None = field(repr=False)
    fitted: np.ndarray = field(repr=False)
    hat_diag: np.ndarray = field(repr=False)
    trace_S: float
    bandwidth: float | None = None

    @property
    def n(self) -> int:
        return self.train_X.shape[0]

    @property
    def p(self) -> int:
        return self.train_X.shape[1]

    @property
    def residuals(self) -> np.ndarray:
        return self.train_Y - self.fitted


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def _as_xy(X, Y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.shape != (X.shape[0],):
        raise ValueError("need X (n, p) and Y (n,)")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("X and Y must be finite")
    return X, Y


@dataclass(frozen=True)
class _Operator:
    """The weight matrix L(.) of one smoother on one training design X.

    ``A_inv`` is the inverse of A = X'X + lam I (least squares, ridge) or of
    A = K + lam I (kernel ridge); ``K`` is the training kernel and ``bandwidth``
    the resolved bandwidth (kernel ridge); ``nbrs`` holds the in-sample
    neighbor sets (kNN).  Every Cholesky-based smoother holds A^-1, so its
    solves are products with it.  Evaluating L(X0) y at new rows needs only
    ``spec``, ``X`` and ``bandwidth``.
    """

    spec: SmootherSpec
    X: np.ndarray
    K: np.ndarray | None = None
    bandwidth: float | None = None
    nbrs: np.ndarray | None = None
    A_inv: np.ndarray | None = None

    def solve(self, y: np.ndarray) -> np.ndarray:
        """The weights c of y, for ``apply``."""
        if self.spec.variant == "knn":
            return y
        return self.A_inv @ (y if self.spec.variant == "kernel_ridge" else self.X.T @ y)

    def apply(self, c: np.ndarray, X0: np.ndarray | None = None, sigma2: float | None = None):
        """``(L(X0) y, sigma2 ||L(X0)||_F^2 / m)`` for c = solve(y); X0 ``None`` means X.

        The variance is ``None`` unless ``sigma2`` is given.
        """
        spec, X = self.spec, self.X
        if spec.variant == "knn":
            nb = self.nbrs if X0 is None else neighbor_sets(X, X0, spec.k)
            return c[nb].mean(axis=1), None if sigma2 is None else sigma2 / spec.k
        kernel = spec.variant == "kernel_ridge"
        if kernel:
            B = self.K if X0 is None else kernel_matrix(X0, X, self.bandwidth)
        else:
            B = X if X0 is None else X0
        out = B @ c
        if sigma2 is None:
            return out, None
        n, p = X.shape
        if kernel:  # L(X) = K A^-1 = I - lam A^-1 and L(X0) = k(X0, X) A^-1
            W = np.eye(n) - spec.lam * self.A_inv if X0 is None else B @ self.A_inv
            return out, sigma2 / len(B) * float(np.vdot(W, W))
        if spec.lam == 0.0 and X0 is None:
            return out, sigma2 * p / n
        W = self.A_inv @ B.T
        if spec.lam == 0.0:
            sq = np.einsum("ij,ji->", B, W)  # L(X0) L(X0)' = X0 A^-1 X0'
        else:
            XW = X @ W  # L(X0)' = X W
            sq = np.sum(XW * XW)
        return out, sigma2 / len(B) * float(sq)

    def integrate(self, c: np.ndarray, t, sigma2: float | None = None):
        """``(E (L(x0) y - f(x0))^2, sigma2 E|L(x0)|^2)`` over a fresh row x0, for c = solve(y).

        ``t`` is rows ``(X0, f(X0))`` to average over, or x0's moments (least squares, ridge):
        |R'(c - beta*)|^2 + e_perp and sigma2 tr(A^-1 X'X A^-1 R R'), sigma2 tr(R' A^-1 R) for
        least squares, sigma2 |X A^-1 R|_F^2 for ridge.  As in ``apply``, the
        variance is ``None`` unless ``sigma2`` is given."""
        if isinstance(t, tuple):
            fit, var = self.apply(c, t[0], sigma2)
            return float(np.mean((fit - t[1]) ** 2)), var
        R = t.root
        d = R.T @ (c - t.beta)
        bias = float(d @ d) + t.e_perp
        if sigma2 is None:
            return bias, None
        W = self.A_inv @ R
        sq = np.sum(R * W) if self.spec.lam == 0.0 else np.sum((self.X @ W) ** 2)
        return bias, sigma2 * float(sq)

    def hat_diag(self) -> np.ndarray:
        """The diagonal of L(X), with the round-off below 0 clipped."""
        if self.spec.variant == "knn":
            return np.full(len(self.X), 1.0 / self.spec.k)
        if self.spec.variant == "kernel_ridge":
            h = 1.0 - self.spec.lam * np.diag(self.A_inv)  # L(X) = I - lam A^-1
        else:
            h = np.einsum("ij,ij->i", self.X @ self.A_inv, self.X)
        return np.clip(h, 0.0, None)


def _factorize(spec: SmootherSpec, X: np.ndarray) -> _Operator:
    """The smoother of ``spec`` on X: one Cholesky factorization and inverse, or one neighbor search.

    Raises
    ------
    RankDeficient
        Least squares (or ridge at lam = 0) on a design with rank(X) < p.
    DegenerateNeighbors
        kNN with k > n.
    """
    n, p = X.shape
    if spec.variant == "knn":
        return _Operator(spec, X, nbrs=neighbor_sets(X, X, spec.k))
    if spec.variant == "kernel_ridge":
        # one n x n distance matrix gives both the median bandwidth and K
        d2 = _sq_distances(X, X)
        bandwidth = gaussian_bandwidth(X, d2) if spec.bandwidth is None else spec.bandwidth
        K = kernel_matrix(X, X, bandwidth, d2)
        A_inv = _cho_inverse(_cholesky_spd(K + spec.lam * np.eye(n)))
        return _Operator(spec, X, K=K, bandwidth=bandwidth, A_inv=A_inv)
    G = X.T @ X
    if spec.lam:
        G = G + spec.lam * np.eye(p)
    try:
        factor = _cholesky_spd(G)
    except NotPositiveDefinite as exc:
        if spec.lam == 0.0:
            raise RankDeficient(f"rank(X) < p for n={n}, p={p}") from exc
        raise
    return _Operator(spec, X, A_inv=_cho_inverse(factor))


def fit(spec: SmootherSpec, X, Y) -> FittedSmoother:
    """Train a smoother.

    Parameters
    ----------
    spec : SmootherSpec
    X, Y : (n, p) and (n,) arrays

    Returns
    -------
    FittedSmoother

    Raises
    ------
    RankDeficient
        Least squares on a design with rank(X) < p.
    DegenerateNeighbors
        kNN with k > n.
    """
    X, Y = _as_xy(X, Y)
    op = _factorize(spec, X)
    c = op.solve(Y)
    h = op.hat_diag()
    return FittedSmoother(
        spec=spec,
        train_X=X,
        train_Y=Y,
        coefficients=None if spec.variant == "knn" else c,
        fitted=op.apply(c)[0],
        hat_diag=h,
        trace_S=float(h.sum()),
        bandwidth=op.bandwidth,
    )


def predict(model: FittedSmoother, X0: np.ndarray) -> np.ndarray:
    """Evaluate a fitted smoother at new covariate rows."""
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2 or X0.shape[1] != model.p:
        raise ValueError(f"X0 must be (m, {model.p})")
    if not np.all(np.isfinite(X0)):
        raise ValueError("X0 must be finite")
    c = model.train_Y if model.coefficients is None else model.coefficients
    return _Operator(model.spec, model.train_X, bandwidth=model.bandwidth).apply(c, X0)[0]


# --------------------------------------------------------------------------
# distances, neighbors and kernels
# --------------------------------------------------------------------------

#: Doubles in one block of query-by-training distances.
_BLOCK_DOUBLES = 4_000_000


def _sq_distances(X0: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared distances in the GEMM form (module docstring); exactly symmetric if ``X0 is X``."""
    c = X.mean(axis=0)
    B = X - c
    A = B if X0 is X else X0 - c
    d2 = -2.0 * (A @ B.T)
    a, b = np.einsum("ij,ij->i", A, A), np.einsum("ij,ij->i", B, B)
    step = max(1, 2**16 // len(b))  # |a|^2 + |b|^2 in blocks of 64K doubles, not one n x m array
    for s in range(0, len(a), step):
        d2[s:s + step] += np.add.outer(a[s:s + step], b)
    return np.maximum(d2, 0.0, out=d2)


def _rounding_tol(X0: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per query row, the bound ``tol`` on |E - D| (module docstring)."""
    c = X.mean(axis=0)
    sq = np.einsum("ij,ij->i", X0 - c, X0 - c) + np.max(np.einsum("ij,ij->i", X - c, X - c))
    return 8.0 * (X.shape[1] + 4) * np.finfo(float).eps * sq


def _exact_sq_pairs(X0: np.ndarray, X: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The difference form D for shortlisted pairs (X0[r], X[c]), at most ~4M differences at a time."""
    out = np.empty(len(rows))
    step = max(1, _BLOCK_DOUBLES // max(1, X.shape[1]))
    for s in range(0, len(rows), step):
        out[s:s + step] = ((X0[rows[s:s + step]] - X[cols[s:s + step]]) ** 2).sum(axis=1)
    return out


def neighbor_sets(X: np.ndarray, X0: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest training rows for every query row.

    Parameters
    ----------
    X : (n, p) array
        Training rows.
    X0 : (m, p) array
        Query rows (may be X itself; a row at zero distance is its own
        first neighbor).
    k : int
        Neighbor count, 1 <= k <= n.

    Returns
    -------
    (m, k) int array
        Neighbor indices, nearest first, distance ties broken by lowest
        index; the same as a stable argsort of the exact difference form.
    """
    X = np.asarray(X, dtype=float)
    X0 = np.asarray(X0, dtype=float)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise DegenerateNeighbors(f"k={k} outside 1..n={n}")
    m = X0.shape[0]
    out = np.empty((m, k), dtype=np.intp)
    chunk = max(1, _BLOCK_DOUBLES // n)
    for start in range(0, m, chunk):
        Q = X0[start:start + chunk]
        E = _sq_distances(Q, X)
        kth = np.partition(E, k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(E <= (kth + 2.0 * _rounding_tol(Q, X))[:, None])
        order = np.lexsort((cols, _exact_sq_pairs(Q, X, rows, cols), rows))
        first = np.searchsorted(rows, np.arange(len(Q)))  # rows come sorted from nonzero
        out[start:start + len(Q)] = cols[order][first[:, None] + np.arange(k)]
    return out


def gaussian_bandwidth(X: np.ndarray, d2: np.ndarray | None = None) -> float:
    """Median pairwise Euclidean distance of the rows (1.0 if degenerate).

    Zero distances (duplicate rows) are left out: pairs whose GEMM-form
    distance is within rounding of 0 are recomputed exactly.  ``d2`` is
    ``_sq_distances(X, X)`` if the caller already has it.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        return 1.0
    if d2 is None:
        d2 = _sq_distances(X, X)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    tol = np.max(_rounding_tol(X, X))
    sq = d2[upper]
    sq[sq <= tol] = _exact_sq_pairs(X, X, *np.nonzero(upper & (d2 <= tol)))
    d = np.sqrt(sq[sq > 0])
    return float(np.median(d)) if d.size else 1.0


def kernel_matrix(A: np.ndarray, B: np.ndarray, bandwidth: float,
                  d2: np.ndarray | None = None) -> np.ndarray:
    """Gaussian kernel block exp(-|a_i - b_j|^2 / (2 bandwidth^2)); ``d2`` is
    ``_sq_distances(A, B)`` if already computed."""
    if bandwidth is None or not 0 < bandwidth < np.inf:
        raise ValueError("gaussian kernel needs a finite bandwidth > 0")
    if d2 is None:
        d2 = _sq_distances(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    K = np.negative(d2)  # exp(-d2 / (2 bandwidth^2)) in one n x n array besides d2
    K /= 2.0 * bandwidth**2
    return np.exp(K, out=K)

