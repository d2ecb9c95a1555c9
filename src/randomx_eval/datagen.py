"""Synthetic data generation: covariate laws, mean functions, noise, RNG streams.

Covariate models
----------------
``normal_block``      zero-mean normal with a block correlation matrix: unit
                      diagonal, correlation ``rho`` inside each block, zero
                      across blocks.
``copula_uniform``    the normal-block draw pushed through the standard normal
                      CDF componentwise; uniform(0, 1) marginals, Gaussian
                      copula dependence.
``copula_t4``         the uniform draw pushed through the t(4) quantile;
                      exact t(4) marginals.
``isotropic_normal``  i.i.d. standard normal entries.
``scaled_product``    i.i.d. zero-mean unit-variance base entries z, returned
                      as x = z' Sigma^{1/2} (identity when ``sigma_half`` is
                      omitted).

Reproducibility
---------------
Every random draw comes from a counter-based Philox stream keyed by
``(master_seed, replicate, purpose)`` through `stream`.  Streams for distinct
keys are independent, and a draw depends only on its own key — never on how
many worker threads are running or in which order replicates complete — so
study output is byte-identical across ``--threads``.  The replicate runner
(`_pool`) runs these draws with BLAS on one thread unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set; ``eval`` draws
nothing and keeps the libraries' own BLAS threading.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from .errors import DomainError

__all__ = [
    "TRAIN",
    "NOISE",
    "TEST",
    "stream",
    "CovariateModel",
    "MeanModel",
    "NoiseModel",
    "block_correlation",
    "draw_covariates",
    "draw_response",
    "quantile_t",
]

# Purpose tags for stream keys.
TRAIN = 0
NOISE = 1
TEST = 2

_COVARIATE_VARIANTS = (
    "normal_block",
    "copula_uniform",
    "copula_t4",
    "isotropic_normal",
    "scaled_product",
)
_MEAN_VARIANTS = ("linear_sum", "abs_sum", "null", "linear_beta")
_BASES = ("normal", "uniform", "rademacher")


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent Philox stream for ``(master_seed, *key)``.

    The same arguments always produce a generator in the same state, so any
    quantity computed from a single stream is bit-reproducible regardless of
    thread count or evaluation order.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


# --------------------------------------------------------------------------
# covariate models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CovariateModel:
    """Law of one covariate row; see the module docstring for the variants.

    Parameters
    ----------
    variant : str
        One of ``normal_block``, ``copula_uniform``, ``copula_t4``,
        ``isotropic_normal``, ``scaled_product``.
    p : int
        Row dimension.
    blocks : int, optional
        Number of correlation blocks (block variants only).  ``p mod blocks``
        leading blocks get one extra coordinate.
    rho : float, optional
        Within-block correlation, in [0, 1).
    base : str, optional
        Marginal of the i.i.d. entries for ``scaled_product``: ``normal``,
        ``uniform`` (on (-sqrt(3), sqrt(3))) or ``rademacher`` — all zero
        mean, unit variance.
    sigma_half : (p, p) array, optional
        Symmetric square root applied on the right for ``scaled_product``.
    """

    variant: str
    p: int
    blocks: int = 1
    rho: float = 0.0
    base: str = "normal"
    sigma_half: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.variant not in _COVARIATE_VARIANTS:
            raise ValueError(f"unknown covariate variant {self.variant!r}")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not (1 <= self.blocks <= self.p):
            raise ValueError("blocks must satisfy 1 <= blocks <= p")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must lie in [0, 1)")
        if self.base not in _BASES:
            raise ValueError(f"unknown base marginal {self.base!r}")
        if self.sigma_half is not None:
            S = np.asarray(self.sigma_half, dtype=float)
            if S.shape != (self.p, self.p):
                raise ValueError("sigma_half must be p x p")
            if not np.allclose(S, S.T, atol=1e-10 * max(1.0, np.abs(S).max())):
                raise ValueError("sigma_half must be symmetric")
            object.__setattr__(self, "sigma_half", S)

    # convenience constructors ---------------------------------------------

    @classmethod
    def normal_block(cls, p: int, blocks: int, rho: float) -> "CovariateModel":
        return cls("normal_block", p, blocks=blocks, rho=rho)

    @classmethod
    def copula_uniform(cls, p: int, blocks: int, rho: float) -> "CovariateModel":
        return cls("copula_uniform", p, blocks=blocks, rho=rho)

    @classmethod
    def copula_t4(cls, p: int, blocks: int, rho: float) -> "CovariateModel":
        return cls("copula_t4", p, blocks=blocks, rho=rho)

    @classmethod
    def isotropic(cls, p: int) -> "CovariateModel":
        return cls("isotropic_normal", p)

    @classmethod
    def scaled_product(
        cls, p: int, base: str = "normal", sigma_half: np.ndarray | None = None
    ) -> "CovariateModel":
        return cls("scaled_product", p, base=base, sigma_half=sigma_half)


def block_sizes(p: int, blocks: int) -> list[int]:
    """Split p coordinates into ``blocks`` groups, leading groups one larger."""
    base, extra = divmod(p, blocks)
    return [base + 1] * extra + [base] * (blocks - extra)


def block_correlation(p: int, blocks: int, rho: float) -> np.ndarray:
    """Block-diagonal correlation matrix: rho within a block, 0 across."""
    sigma = np.zeros((p, p))
    start = 0
    for size in block_sizes(p, blocks):
        sigma[start : start + size, start : start + size] = rho
        start += size
    np.fill_diagonal(sigma, 1.0)
    return sigma


@functools.lru_cache(maxsize=64)
def _block_chol(p: int, blocks: int, rho: float) -> np.ndarray:
    """Cholesky factor of `block_correlation`, computed once per ``(p, blocks, rho)``; read-only."""
    L = np.linalg.cholesky(block_correlation(p, blocks, rho))
    L.flags.writeable = False
    return L


def draw_covariates(model: CovariateModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, p) covariate matrix with i.i.d. rows from ``model``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = model.p
    if model.variant == "isotropic_normal":
        return rng.standard_normal((n, p))
    if model.variant == "scaled_product":
        if model.base == "normal":
            Z = rng.standard_normal((n, p))
        elif model.base == "uniform":
            Z = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, p))
        else:  # rademacher
            Z = rng.integers(0, 2, size=(n, p)) * 2.0 - 1.0
        if model.sigma_half is None:
            return Z
        return Z @ model.sigma_half
    # block-correlated normal, possibly pushed through a copula
    L = _block_chol(p, model.blocks, model.rho)
    G = rng.standard_normal((n, p)) @ L.T
    if model.variant == "normal_block":
        return G
    U = scipy.special.ndtr(G)
    if model.variant == "copula_uniform":
        return U
    return quantile_t(U, 4.0)  # copula_t4


# --------------------------------------------------------------------------
# mean and noise
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanModel:
    """Regression function f.

    ``linear_sum``  f(x) = sum_j x_j
    ``abs_sum``     f(x) = C * sum_j |x_j|
    ``null``        f(x) = 0
    ``linear_beta`` f(x) = x' beta
    """

    variant: str
    C: float = 1.0
    beta: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.variant not in _MEAN_VARIANTS:
            raise ValueError(f"unknown mean variant {self.variant!r}")
        if not np.isfinite(self.C):
            raise ValueError("C must be finite")
        if self.variant == "linear_beta" and self.beta is None:
            raise ValueError("linear_beta requires beta")
        if self.beta is not None:
            b = np.asarray(self.beta, dtype=float)
            if b.ndim != 1 or not np.all(np.isfinite(b)):
                raise ValueError("beta must be a finite 1-D vector")
            object.__setattr__(self, "beta", b)

    @classmethod
    def linear_sum(cls) -> "MeanModel":
        return cls("linear_sum")

    @classmethod
    def abs_sum(cls, C: float = 1.0) -> "MeanModel":
        return cls("abs_sum", C=C)

    @classmethod
    def null(cls) -> "MeanModel":
        return cls("null")

    @classmethod
    def linear_beta(cls, beta: np.ndarray) -> "MeanModel":
        return cls("linear_beta", beta=beta)

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """f applied to every row of X."""
        X = np.asarray(X, dtype=float)
        if self.variant == "linear_sum":
            return X.sum(axis=1)
        if self.variant == "abs_sum":
            return self.C * np.abs(X).sum(axis=1)
        if self.variant == "null":
            return np.zeros(X.shape[0])
        if X.shape[1] != self.beta.shape[0]:
            raise ValueError("beta length does not match X columns")
        return X @ self.beta


@dataclass(frozen=True)
class NoiseModel:
    """Additive homoskedastic normal noise with standard deviation ``sigma > 0``."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and > 0")

    @property
    def sigma2(self) -> float:
        return self.sigma**2


def draw_response(
    X: np.ndarray,
    mean: MeanModel,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``Y = f(X) + sigma * eps`` with standard normal eps.

    Returns
    -------
    (Y, fX) : pair of (n,) arrays
        Responses and the noiseless mean at the same rows.
    """
    X = np.asarray(X, dtype=float)
    fX = mean.evaluate(X)
    Y = fX + noise.sigma * rng.standard_normal(X.shape[0])
    return Y, fX


# --------------------------------------------------------------------------
# quantiles
# --------------------------------------------------------------------------

#: Values per block of `_quantile_t4`: its temporaries stay a few cache-sized
#: blocks, so the quantile needs no memory beyond its output.
_T4_BLOCK = 8192


def _quantile_t4(u: np.ndarray) -> np.ndarray:
    """Closed-form t(4) quantile of a 1-D array (Shaw 2006, J. Comput. Finance 9(4)).

    With d = 2u - 1, c = 2 sqrt(u (1 - u)) and a = atan2(|d|, c) / 3,
    q = sign(d) 4 sin(a) sqrt(cos(a) / c): Shaw's
    2 sqrt(cos(arccos(c) / 3) / c - 1) rewritten without its cancellation
    at u near 1/2.
    """
    q = np.empty_like(u)
    for start in range(0, u.size, _T4_BLOCK):
        v = u[start:start + _T4_BLOCK]
        d = 2.0 * v - 1.0
        c = 2.0 * np.sqrt(v * (1.0 - v))
        a = np.arctan2(np.abs(d), c) / 3.0
        np.copysign(4.0 * np.sin(a) * np.sqrt(np.cos(a) / c), d, out=q[start:start + _T4_BLOCK])
    return q


def quantile_t(u, df: float):
    """Quantile of Student's t with ``df`` degrees of freedom.

    For ``df == 4`` (the ``copula_t4`` marginal) the quantile is Shaw's
    closed form: against 40-digit arithmetic its relative error measured at
    most 4.4e-16 for u spread over (0, 1), within 1e-12 of 1/2 and down to
    1e-300.  Other ``df`` use `scipy.special.stdtrit`, which at df = 4 was
    off by up to 2.2e-12 relative and returned 0.0 at u = 0.5 + 1e-9, where
    the quantile is 2.7e-9.

    Parameters
    ----------
    u : float or array
        Probability level(s), strictly inside (0, 1).
    df : float
        Degrees of freedom, > 0.

    Returns
    -------
    float or array
        Value q with t-CDF(q; df) = u.

    Raises
    ------
    DomainError
        If any u lies outside (0, 1) or df <= 0.
    """
    if not (np.isfinite(df) and df > 0):
        raise DomainError("df must be finite and > 0")
    arr = np.asarray(u, dtype=float)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("u must lie strictly inside (0, 1)")
    if df == 4:
        q = _quantile_t4(arr.reshape(-1)).reshape(arr.shape)
    else:
        q = scipy.special.stdtrit(df, arr)
    if np.isscalar(u) or arr.ndim == 0:
        return float(q)
    return q
