"""Kernel basic thresholding classifier with RBF kernel and Gram caching.

The linear correlation and reconstruction steps are replaced by their
kernel-space counterparts: selection on K(A, y), a regularized solve on the
cached Gram submatrix, and residuals expanded entirely in kernel
evaluations. Both the kernel width gamma and the threshold M are estimated
off-line from the dictionary via the averaged sufficient-identification
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from btckit.btc import BtcParams, ResidualVector, SparseCode, beta_column, threshold_argmin
from btckit.data import Dictionary
from btckit.errors import ConfigError, NumericalError
from btckit.linalg import (
    beta_profile,
    chunks,
    gram_residuals,
    top_m_rows,
    top_m_select,
)

KERNEL_RBF = "rbf"
KERNEL_LINEAR = "linear"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind and, for the RBF kernel, its width gamma."""

    kind: str = KERNEL_RBF
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (KERNEL_RBF, KERNEL_LINEAR):
            raise ConfigError(f"unknown kernel {self.kind!r}")
        if self.kind == KERNEL_RBF and not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be finite and positive, got {self.gamma}")


@dataclass(frozen=True)
class KernelCache:
    """Precomputed N x N Gram matrix of the dictionary columns."""

    gram: np.ndarray
    spec: KernelSpec


@dataclass(frozen=True)
class KbtcParams(BtcParams):
    """Threshold M, regularization alpha, and kernel choice."""

    spec: KernelSpec


def kernel_matrix(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel evaluations between the columns of X and Y.

    The RBF value is exp(-gamma * max(|x|^2 + |y|^2 - 2 x'y, 0)), so every
    value lies in [0, 1]: selection, which always ranks by |v|, ranks RBF
    values by their signed size. The result is the only full-size array:
    X'Y is formed in it, then each row block of :func:`chunks` becomes
    kernel values in place, so a call holds the result plus about
    CHUNK_BYTES of work. A non-finite value, or RBF column norm, raises NumericalError.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if spec.kind == KERNEL_RBF:
        # before the result exists, so X * X and Y * Y do not add to its peak
        sq_x = np.sum(X * X, axis=0)
        sq_y = np.sum(Y * Y, axis=0)
        # an infinite norm meeting X'Y = -inf gives exp(-inf) = 0, which the block check passes
        if not (np.isfinite(sq_x).all() and np.isfinite(sq_y).all()):
            raise NumericalError("non-finite kernel input: a squared column norm is not finite")
    out = X.T @ Y
    for sl in chunks(out.shape[0], out.shape[1]):
        block = out[sl]
        if spec.kind == KERNEL_RBF:
            # -2P + S rounds as S - 2P does: negation is exact, addition commutes
            block *= -2.0
            block += sq_x[sl, None] + sq_y
            np.maximum(block, 0.0, out=block)
            block *= -spec.gamma
            np.exp(block, out=block)
        if not np.all(np.isfinite(block)):
            raise NumericalError("non-finite kernel value")
    return out


def kernel_cache(dictionary: Dictionary, spec: KernelSpec) -> KernelCache:
    """Compute the full training Gram matrix once."""
    gram = kernel_matrix(dictionary.columns, dictionary.columns, spec)
    return KernelCache(gram=gram, spec=spec)


def kbtc_residuals(
    dictionary: Dictionary,
    Y: np.ndarray,
    params: KbtcParams,
    cache: KernelCache,
) -> np.ndarray:
    """Per-class residuals (S x C) of every raw row of Y: the batch form of :func:`kbtc_classify`.

    The dictionary's ``scaling``, if any, is applied one chunk at a time, so
    rows arrive as loaded (:func:`kbtc_classify` takes one already scaled).
    The predicted class of row i is ``argmin(residuals[i]) + 1``. Rows are
    classified in chunks, one kernel block each, so memory stays bounded. Y
    may have any real float dtype: each chunk is widened to float64 as it is
    classified, so a float32 Y is never copied whole.
    """
    _check(dictionary, params, cache)
    Y = np.asarray(Y)
    labels, scaling = dictionary.column_labels(), dictionary.scaling
    out = np.empty((Y.shape[0], dictionary.n_classes))
    for sl in chunks(Y.shape[0], dictionary.n_samples + params.m * params.m):
        # scaling.apply widens the chunk itself
        rows = np.asarray(Y[sl], dtype=np.float64) if scaling is None else scaling.apply(Y[sl])
        V, kyy = _kernel_rows(dictionary, rows, params.spec)
        support = top_m_rows(V, params.m)
        out[sl], _ = gram_residuals(
            cache.gram, labels, dictionary.n_classes, V, kyy, support, params.alpha, first=sl.start
        )
    return out


def kbtc_classify(
    dictionary: Dictionary,
    y: np.ndarray,
    params: KbtcParams,
    cache: KernelCache,
    support: np.ndarray | None = None,
) -> tuple[ResidualVector, SparseCode]:
    """Classify one sample with the kernel BTC.

    Residuals are computed in kernel space:
    eps(j)^2 = K(y,y) - 2 x_j' K(A_j,y) + x_j' K(A_j,A_j) x_j.
    An explicit ``support`` overrides the selection step.
    """
    _check(dictionary, params, cache)
    V, kyy = _kernel_rows(dictionary, np.asarray(y, dtype=np.float64)[None, :], params.spec)
    if support is None:
        support = top_m_select(V[0], params.m)
    else:
        support = np.asarray(support, dtype=np.int64)
    residuals, coeffs = gram_residuals(
        cache.gram, dictionary.column_labels(), dictionary.n_classes, V, kyy,
        support[None, :], params.alpha,
    )
    code = SparseCode(support=support, coefficients=coeffs[0], ambient_size=dictionary.n_samples)
    return ResidualVector(values=residuals[0]), code


def _check(dictionary: Dictionary, params: KbtcParams, cache: KernelCache) -> None:
    params.validate(dictionary.n_features, dictionary.n_samples)
    if cache.spec != params.spec:
        raise ConfigError("kernel cache was built with a different spec")


def _kernel_rows(
    dictionary: Dictionary, Y: np.ndarray, spec: KernelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """K(A, y) for every row y of Y (S x N), and K(y, y) per row."""
    V = kernel_matrix(Y.T, dictionary.columns, spec)
    kyy = np.ones(Y.shape[0]) if spec.kind == KERNEL_RBF else np.einsum("ij,ij->i", Y, Y)
    return V, kyy


def kbtc_residual_alt(
    dictionary: Dictionary,
    y: np.ndarray,
    code: SparseCode,
    cache: KernelCache,
) -> ResidualVector:
    """Alternative residual |K(y,y) - x_j' K(A_j,y)| per class."""
    V, kyy = _kernel_rows(dictionary, np.asarray(y, dtype=np.float64)[None, :], cache.spec)
    labels = dictionary.column_labels()[code.support] - 1
    weights = code.coefficients * V[0, code.support]
    cross = np.bincount(labels, weights=weights, minlength=dictionary.n_classes)
    return ResidualVector(values=np.abs(kyy[0] - cross))


def kbtc_beta_sample(
    dictionary: Dictionary,
    class_id: int,
    sample_idx: int,
    params: KbtcParams,
    cache: KernelCache,
) -> float:
    """Kernel sufficient-identification ratio for one training column."""
    _check(dictionary, params, cache)
    col = beta_column(dictionary, class_id, sample_idx, params)
    return float(beta_profile(dictionary, [params.m], params.alpha, cache.gram, [col])[0, 0])


def kbtc_gamma_profile(
    dictionary: Dictionary,
    alpha: float,
    gamma_grid: list[float] | np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """Average identification ratio over all (M, sample) pairs per gamma.

    For each grid point, beta is averaged over M = 1..B-1 and all N
    columns with a shared kernel cache. M = 1 leaves an empty support and
    contributes exactly 1.
    """
    gammas, table = _gamma_m_table(dictionary, alpha, gamma_grid)
    return list(zip(gammas, table.mean(axis=1).tolist()))


def _gamma_m_table(
    dictionary: Dictionary, alpha: float, gamma_grid: list[float] | np.ndarray | None
) -> tuple[list[float], np.ndarray]:
    """The grid and its G x (B-1) table: beta averaged over all columns per (gamma, M = 1..B-1)."""
    gammas = [float(g) for g in (default_gamma_grid() if gamma_grid is None else gamma_grid)]
    if not gammas:
        raise ConfigError("empty gamma grid")
    ms = range(1, dictionary.n_features)
    grams = (kernel_cache(dictionary, KernelSpec(gamma=g)).gram for g in gammas)
    return gammas, np.array([beta_profile(dictionary, ms, alpha, gram).mean(axis=1) for gram in grams])


def kbtc_beta_average_m(
    dictionary: Dictionary, cache: KernelCache, m: int, alpha: float
) -> float:
    """Average identification ratio over all columns for a fixed M."""
    return float(beta_profile(dictionary, [m], alpha, cache.gram).mean())


def kbtc_estimate_params(
    dictionary: Dictionary,
    alpha: float,
    gamma_grid: list[float] | np.ndarray | None = None,
) -> tuple[float, int, list[tuple[float, float]], list[tuple[int, float]]]:
    """Two-stage estimation: gamma from the grid, then M at the chosen gamma.

    Returns (gamma_hat, m_hat, gamma_profile, m_profile). The gamma search
    already averages beta per M at every grid point, so the M profile
    (M = 2..B-1) is the chosen gamma's row of it. The first grid point
    attaining the minimum wins for gamma; the smallest M wins on M ties.
    """
    if dictionary.n_features < 3:
        raise ConfigError("feature dimension too small to estimate M")
    gammas, table = _gamma_m_table(dictionary, alpha, gamma_grid)
    means = table.mean(axis=1)
    best = int(np.argmin(means))
    m_hat, m_profile = threshold_argmin(range(2, dictionary.n_features), table[best, 1:])
    return gammas[best], m_hat, list(zip(gammas, means.tolist())), m_profile


def default_gamma_grid() -> list[float]:
    """Powers of two from 2^-10 up to 2^1."""
    return [2.0**e for e in range(-10, 2)]
