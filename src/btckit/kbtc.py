"""Kernel basic thresholding classifier with the RBF kernel.

The linear correlation and reconstruction steps are replaced by their
kernel-space counterparts: selection on K(A, y), a regularized solve on the
support's kernel block, and residuals expanded entirely in kernel
evaluations. Both the kernel width gamma and the threshold M are estimated
off-line from the dictionary via the averaged sufficient-identification
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from btckit.btc import BtcParams, ResidualVector, SparseCode, btc_residuals, threshold_argmin
from btckit.data import NORM_RANGE, Dictionary
from btckit.errors import ConfigError, DataFormatError
from btckit.linalg import (
    KERNEL_RBF,
    KernelSpec,
    batch_residuals,
    beta_profile,
    gram_residuals,
    kernel_matrix,
    kernel_values,
    squared_norms,
    top_m_select,
)


@dataclass(frozen=True)
class KernelCache:
    """Precomputed N x N Gram matrix of the dictionary columns."""

    gram: np.ndarray
    spec: KernelSpec


@dataclass(frozen=True)
class KbtcParams(BtcParams):
    """Threshold M, regularization alpha, and kernel choice."""

    norm_mode: ClassVar[str] = NORM_RANGE
    spec: KernelSpec


def kernel_cache(dictionary: Dictionary, spec: KernelSpec) -> KernelCache:
    """Compute the full training Gram matrix once."""
    gram = kernel_matrix(dictionary.columns, dictionary.columns, spec)
    return KernelCache(gram=gram, spec=spec)


def kbtc_residuals(dictionary: Dictionary, Y: np.ndarray, params: KbtcParams) -> np.ndarray:
    """Per-class residuals (S x C) of every raw row of Y: the batch form of :func:`kbtc_classify`.

    The dictionary's ``scaling``, if any, is applied one chunk at a time, so
    rows arrive as loaded (:func:`kbtc_classify` takes one already scaled).
    See :func:`batch_residuals` for chunking, dtypes and where the supports'
    kernel blocks come from.
    """
    params.validate(dictionary.n_features, dictionary.n_samples)
    scaling = dictionary.scaling

    def prepare(rows: np.ndarray, sq: np.ndarray | None) -> tuple:
        # scaling.apply widens the chunk itself
        rows = np.asarray(rows, dtype=np.float64) if scaling is None else scaling.apply(rows)
        return *_kernel_rows(dictionary, rows, params.spec, sq), None

    return batch_residuals(dictionary, Y, params.m, params.alpha, params.spec, prepare)


def residuals(dictionary: Dictionary, Y: np.ndarray, params: BtcParams) -> np.ndarray:
    """Per-class residuals (S x C) of every row of Y, by the classifier ``params`` names.

    :func:`kbtc_residuals` for :class:`KbtcParams`, whatever its kernel, and
    :func:`btc_residuals` for plain :class:`BtcParams`. Each params type's
    ``norm_mode`` is the normalization to build its dictionary with.
    """
    # KbtcParams subclasses BtcParams, so it is the one to test for
    if isinstance(params, KbtcParams):
        return kbtc_residuals(dictionary, Y, params)
    return btc_residuals(dictionary, Y, params)


def kbtc_classify(
    dictionary: Dictionary,
    y: np.ndarray,
    params: KbtcParams,
    cache: KernelCache,
) -> tuple[ResidualVector, SparseCode]:
    """Classify one sample with the kernel BTC.

    Residuals are computed in kernel space:
    eps(j)^2 = K(y,y) - 2 x_j' K(A_j,y) + x_j' K(A_j,A_j) x_j.
    """
    params.validate(dictionary.n_features, dictionary.n_samples)
    if cache.spec != params.spec:
        raise ConfigError("kernel cache was built with a different spec")
    y = np.asarray(y, dtype=np.float64)[None, :]
    V, kyy = _kernel_rows(dictionary, y, params.spec, squared_norms(dictionary.columns, params.spec))
    support = top_m_select(V[0], params.m)
    residuals, coeffs = gram_residuals(
        cache.gram[np.ix_(support, support)][None], dictionary.labels, dictionary.n_classes, V,
        kyy, support[None, :], params.alpha,
    )
    code = SparseCode(support=support, coefficients=coeffs[0], ambient_size=dictionary.n_samples)
    return ResidualVector(values=residuals[0]), code


def _kernel_rows(
    dictionary: Dictionary, Y: np.ndarray, spec: KernelSpec, sq: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """K(A, y) for every row y of Y (S x N), and K(y, y) per row.

    ``sq`` holds the :func:`squared_norms` of A's columns, so only Y's are
    computed here; the values are those of ``kernel_matrix(Y.T, A, spec)``.
    The first row whose squared norm is not finite (a value too large to
    square) raises DataFormatError naming sample i.
    """
    rbf = spec.kind == KERNEL_RBF
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        yy = np.sum(Y * Y, axis=1) if rbf else np.einsum("ij,ij->i", Y, Y)
    bad = np.flatnonzero(~np.isfinite(yy))
    if bad.size:
        raise DataFormatError("non-finite squared test vector norm", sample=int(bad[0]))
    V = kernel_values(Y @ dictionary.columns, spec, yy if rbf else None, sq)
    return V, (np.ones(Y.shape[0]) if rbf else yy)


def kbtc_residual_alt(
    dictionary: Dictionary,
    y: np.ndarray,
    code: SparseCode,
    cache: KernelCache,
) -> ResidualVector:
    """Alternative residual |K(y,y) - x_j' K(A_j,y)| per class."""
    y = np.asarray(y, dtype=np.float64)[None, :]
    V, kyy = _kernel_rows(dictionary, y, cache.spec, squared_norms(dictionary.columns, cache.spec))
    labels = dictionary.labels[code.support] - 1
    weights = code.coefficients * V[0, code.support]
    cross = np.bincount(labels, weights=weights, minlength=dictionary.n_classes)
    return ResidualVector(values=np.abs(kyy[0] - cross))


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

    Returns (gamma_hat, m_hat, gamma_profile, m_profile). A grid point's
    gamma profile value is beta averaged over all columns and M = 1..B-1 on
    one kernel Gram (M = 1 leaves an empty support and contributes exactly
    1). The M profile (M = 2..B-1) is the chosen gamma's per-M row of those
    averages. The first grid point attaining the minimum wins for gamma; the
    smallest M wins on M ties.
    """
    if dictionary.n_features < 3:
        raise ConfigError("feature dimension too small to estimate M")
    gammas = [float(g) for g in (default_gamma_grid() if gamma_grid is None else gamma_grid)]
    if not gammas:
        raise ConfigError("empty gamma grid")
    ms = range(1, dictionary.n_features)
    grams = (kernel_cache(dictionary, KernelSpec(gamma=g)).gram for g in gammas)
    table = np.array([beta_profile(dictionary, ms, alpha, gram).mean(axis=1) for gram in grams])
    means = table.mean(axis=1)
    best = int(np.argmin(means))
    m_hat, m_profile = threshold_argmin(range(2, dictionary.n_features), table[best, 1:])
    return gammas[best], m_hat, list(zip(gammas, means.tolist())), m_profile


def default_gamma_grid() -> list[float]:
    """Powers of two from 2^-10 up to 2^1."""
    return [2.0**e for e in range(-10, 2)]
