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
study output is byte-identical across ``--threads``.  Decomposition cells
that share ``(seed, n, reps)``, and criteria cells that also share ``test_m``,
run in one replicate loop: `draw_covariate_laws` draws their ``TRAIN`` (and
``TEST``) rows from one stream per p and base marginal, criteria cells share
one ``NOISE`` vector, and the cells share one factorization per distinct law,
so a cell's numbers equal those of running it alone.  Replicate loops run BLAS
on one thread.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
    "draw_covariate_laws",
    "X0Moments",
    "x0_moments",
    "draw_response",
    "quantile_t",
]

# Purpose tags for stream keys.
TRAIN = 0
NOISE = 1
TEST = 2

#: Each base marginal's draw of a matrix of the given shape; all have zero mean and unit variance.
_BASES = {
    "normal": lambda rng, shape: rng.standard_normal(shape),
    "uniform": lambda rng, shape: rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=shape),
    "rademacher": lambda rng, shape: rng.integers(0, 2, size=shape) * 2.0 - 1.0,
}


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent Philox stream for ``(master_seed, *key)``.

    The same arguments always produce a generator in the same state, so any
    quantity computed from a single stream is bit-reproducible regardless of
    thread count or evaluation order.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _check_variant(model, kind: str) -> None:
    """Reject an unknown variant, or an unread field (``model.FIELDS``) off its default."""
    if model.variant not in model.FIELDS:
        raise ValueError(f"unknown {kind} variant {model.variant!r}")
    for f in fields(model):
        if f.default is not MISSING and f.name not in model.FIELDS[model.variant] and (
                not np.array_equal(getattr(model, f.name), f.default)):
            raise ValueError(f"{kind} variant {model.variant} does not read {f.name}")


# --------------------------------------------------------------------------
# covariate models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CovariateModel:
    """Law of one covariate row; see the module docstring for the variants.

    Parameters
    ----------
    variant : str
        A key of ``FIELDS``.
    p : int
        Row dimension.
    blocks : int, optional
        Number of correlation blocks.  ``p mod blocks`` leading blocks get
        one extra coordinate.
    rho : float, optional
        Within-block correlation, in [0, 1).
    base : str, optional
        Marginal of the i.i.d. entries: ``normal``, ``uniform`` (on
        (-sqrt(3), sqrt(3))) or ``rademacher`` — all zero mean, unit variance.
    sigma_half : (p, p) array, optional
        Symmetric square root applied on the right.
    """

    #: Each variant's fields beyond ``p``, with their JSON kinds; the rest keep their defaults.
    FIELDS = {
        "normal_block": {"blocks": int, "rho": float},
        "copula_uniform": {"blocks": int, "rho": float},
        "copula_t4": {"blocks": int, "rho": float},
        "isotropic_normal": {},
        "scaled_product": {"base": str, "sigma_half": list},
    }

    variant: str
    p: int
    blocks: int = 1
    rho: float = 0.0
    base: str = "normal"
    sigma_half: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_variant(self, "covariate")
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


def _block_matrix(p: int, blocks: int, diag, within, across=0.0) -> np.ndarray:
    """``diag`` on the diagonal, ``within`` elsewhere inside a block, ``across`` between blocks."""
    base, extra = divmod(p, blocks)  # the leading ``extra`` blocks get one more coordinate
    block = np.repeat(np.arange(blocks), [base + 1] * extra + [base] * (blocks - extra))
    out = np.where(block[:, None] == block[None, :], within, across)
    np.fill_diagonal(out, diag)
    return out


def block_correlation(p: int, blocks: int, rho: float) -> np.ndarray:
    """Block-diagonal correlation matrix: rho within a block, 0 across."""
    return _block_matrix(p, blocks, 1.0, rho)


@functools.lru_cache(maxsize=64)
def _block_chol(p: int, blocks: int, rho: float) -> np.ndarray:
    """Cholesky factor of `block_correlation`, computed once per ``(p, blocks, rho)``; read-only."""
    L = np.linalg.cholesky(block_correlation(p, blocks, rho))
    L.flags.writeable = False
    return L


def _derivation(model: CovariateModel, n: int) -> list:
    """``(key, step)`` pairs from ``open_stream`` to n rows of ``model``; a key names its prefix."""
    p, base = model.p, model.base
    key = (p, base)
    steps = [(key, lambda open_stream: _BASES[base](open_stream(), (n, p)))]
    if model.variant in ("isotropic_normal", "scaled_product"):
        S = model.sigma_half
        return steps if S is None else steps + [(key + (S.tobytes(),), lambda Z: Z @ S)]
    L = _block_chol(p, model.blocks, model.rho)  # a block law's base is normal
    key += (model.blocks, model.rho)
    steps.append((key, lambda Z: Z @ L.T))
    if model.variant != "normal_block":
        from scipy.special import ndtr  # on first use: importing it costs about 65 ms
        steps.append((key + ("ndtr",), ndtr))
    if model.variant == "copula_t4":
        steps.append((key + ("ndtr", "t4"), lambda U: quantile_t(U, 4.0)))
    return steps


def draw_covariate_laws(models, n: int, open_stream, then=lambda X: X):
    """Yield ``then`` of an (n, p) matrix with i.i.d. rows from each law of ``models``, in order.

    Laws share the steps of `_derivation` whose keys agree, ``then`` included: one base draw per p
    and base from one ``open_stream()``, G per ``(blocks, rho)``, and ndtr(G).  Each matrix equals
    its law drawn alone from a fresh ``open_stream()``.  A law starts from the deepest step an
    earlier law made, and only such starting steps are kept, until the last law that starts from
    them: normal-block, uniform and t4 laws on one G, in that order and each result dropped before
    the next is drawn, hold at most two matrices at once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    chains = [[((), None)] + _derivation(model, n) for model in models]  # () is open_stream
    chains = [chain + [(chain[-1][0] + ("then",), then)] for chain in chains]
    made, starts, last = {()}, [], {}
    for i, chain in enumerate(chains):  # a key names its prefix, so shared steps lead a chain
        starts.append(sum(key in made for key, _ in chain))
        last[chain[starts[i] - 1][0]] = i
        made.update(key for key, _ in chain)
    kept = {(): open_stream}  # the steps a later law starts from
    for i, (chain, start) in enumerate(zip(chains, starts)):
        key = chain[start - 1][0]
        x = kept.pop(key) if last[key] == i else kept[key]
        for key, step in chain[start:]:
            x = step(x)
            if last.get(key, -1) > i:
                kept[key] = x
        yield x


def draw_covariates(model: CovariateModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, p) covariate matrix with i.i.d. rows from ``model``."""
    return next(draw_covariate_laws([model], n, lambda: rng))


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

    #: Each variant's fields, with their JSON kinds; the rest keep their defaults.
    FIELDS = {"linear_sum": {}, "abs_sum": {"C": float}, "null": {}, "linear_beta": {"beta": list}}

    variant: str
    C: float = 1.0
    beta: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_variant(self, "mean")
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
# moments of a fresh row
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class X0Moments:
    """The moments of a fresh row x0 that least squares and ridge integrate over.

    ``root`` R has R R' = Sigma_x = E[x x'] (lower Cholesky factor or ``sigma_half``);
    ``beta`` is beta* = Sigma_x^-1 E[x f]; ``e_perp`` = E[f^2] - E[x f]' beta* >= 0.
    """

    root: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    e_perp: float


def _t4_pair_moments(rho: float, nodes: int = 64, top: float = 12.0) -> tuple[float, float]:
    """``(E[x y], E|x||y|)`` of a ``copula_t4`` pair whose normals have correlation rho.

    With a(z) = |t4 quantile of Phi(-z)| and I(r) the integral of a(z) a(z')
    over z, z' > 0 at correlation r, E[x y] = 2 (I(rho) - I(-rho)) and E|x||y|
    = 2 (I(rho) + I(-rho)).  I puts z' = r z + sqrt(1 - r^2) t, with
    Gauss-Legendre rules on z in [0, top] and on the t with z' in [0, top]: the
    kink at 0 ends each rule.  Doubling ``nodes`` moves both by < 1e-14 for rho <= 0.99.
    """
    from scipy.special import ndtr
    k = np.arange(1.0, nodes)  # Golub-Welsch: the rule's nodes and weights from the Jacobi matrix
    x, V = eigh_tridiagonal(np.zeros(nodes), k / np.sqrt(4.0 * k * k - 1.0))
    w = 2.0 * V[0] ** 2
    z, wz = top / 2.0 * (x + 1.0), top / 2.0 * w

    def a(v: np.ndarray) -> np.ndarray:
        return -_quantile_t4(ndtr(-v.ravel())).reshape(v.shape)

    r, s = np.array([[rho], [-rho]]), np.sqrt(1.0 - rho * rho)  # both quadrant pairs at once
    lo = np.maximum(-r * z / s, -top)
    half = (np.maximum(np.minimum((top - r * z) / s, top), lo) - lo) / 2.0
    t = lo[..., None] + half[..., None] * (x + 1.0)  # (2, nodes, nodes)
    zr = r[..., None] * z[:, None] + s * t
    inner = np.sum(half[..., None] * w * np.exp(-0.5 * t * t) * a(zr), axis=-1)
    same, cross = np.sum(wz * np.exp(-0.5 * z * z) * a(z) * inner, axis=1) / np.pi
    return float(same - cross), float(same + cross)


def x0_moments(covariates: CovariateModel, mean: MeanModel) -> X0Moments | None:
    """The `X0Moments` of a fresh row; ``None`` for ``abs_sum`` on a non-normal ``scaled_product``.

    Linear and null means, and ``abs_sum`` on the (0, 1) marginals of
    ``copula_uniform``, give beta* exactly and e_perp = 0.  The other laws are
    symmetric, so under ``abs_sum`` beta* = 0 and e_perp = C^2 sum_jk E|x_j||x_k|.
    """
    p, blocks, rho, variant = covariates.p, covariates.blocks, covariates.rho, covariates.variant
    if variant in ("isotropic_normal", "scaled_product"):
        root = np.eye(p) if covariates.sigma_half is None else covariates.sigma_half
    elif variant == "normal_block":
        root = _block_chol(p, blocks, rho)
    elif variant == "copula_uniform":
        root = np.linalg.cholesky(  # Cov(U_j, U_k) = arcsin(rho / 2) / (2 pi), E[U] = 1/2
            _block_matrix(p, blocks, 1.0 / 3.0, np.arcsin(rho / 2.0) / (2.0 * np.pi) + 0.25, 0.25))
    else:  # copula_t4: E[x^2] = 4 / (4 - 2) = 2 and E|x| = 1
        prod, abs_prod = _t4_pair_moments(rho)
        root = np.linalg.cholesky(_block_matrix(p, blocks, 2.0, prod))
    if mean.variant != "abs_sum" or variant == "copula_uniform":  # f(x) = x' beta*
        beta = {"linear_sum": np.ones(p), "null": np.zeros(p), "abs_sum": np.full(p, mean.C)}
        return X0Moments(root, beta.get(mean.variant, mean.beta), 0.0)
    if variant == "copula_t4":
        abs_m = _block_matrix(p, blocks, 2.0, abs_prod, 1.0)
    elif variant == "scaled_product" and covariates.base != "normal":
        return None
    else:  # x ~ N(0, R R'): E|x_j||x_k| = s_j s_k (2/pi)(sqrt(1 - r^2) + r arcsin r)
        cov = root @ root.T
        ss = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        r = np.clip(cov / np.where(ss > 0.0, ss, 1.0), -1.0, 1.0)
        abs_m = ss * 2.0 / np.pi * (np.sqrt(1.0 - r * r) + r * np.arcsin(r))
    return X0Moments(root, np.zeros(p), mean.C**2 * float(np.sum(abs_m)))


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
        from scipy.special import stdtrit
        q = stdtrit(df, arr)
    if np.isscalar(u) or arr.ndim == 0:
        return float(q)
    return q
