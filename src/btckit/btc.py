"""Linear basic thresholding classifier and its threshold estimator.

Classification is one-shot: correlate the test sample with every dictionary
column, keep the M strongest atoms, solve a Tikhonov-regularized least
squares on that support, and pick the class with minimum reconstruction
residual. The threshold M is estimated off-line from the dictionary alone
by minimizing the average sufficient-identification ratio.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from btckit.data import Dictionary, NORM_L2
from btckit.errors import ConfigError, DataFormatError
from btckit.linalg import (
    KERNEL_LINEAR,
    KernelSpec,
    beta_profile,
    batch_residuals,
    gram_residuals,
    solve_spd_regularized,
    top_m_select,
)


@dataclass(frozen=True)
class BtcParams:
    """Threshold M (atom count, M < feature dim) and regularization alpha."""

    # the normalization of the dictionary this classifier codes against
    norm_mode: ClassVar[str] = NORM_L2
    m: int
    alpha: float

    def validate(self, n_features: int, n_samples: int) -> None:
        if not 1 <= self.m < n_features:
            raise ConfigError(f"M={self.m} must satisfy 1 <= M < B={n_features}")
        if self.m > n_samples:
            raise ConfigError(f"M={self.m} exceeds sample count {n_samples}")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha={self.alpha} must lie in (0, 1)")


@dataclass(frozen=True)
class SparseCode:
    """Coefficients on a selected support; zero elsewhere."""

    support: np.ndarray  # selected column indices, selection order
    coefficients: np.ndarray  # aligned with support
    ambient_size: int

    def dense(self) -> np.ndarray:
        x = np.zeros(self.ambient_size)
        x[self.support] = self.coefficients
        return x


@dataclass(frozen=True)
class ResidualVector:
    """Per-class reconstruction errors; argmin is the predicted class."""

    values: np.ndarray  # length C, class ids 1..C

    @property
    def predicted_class(self) -> int:
        # np.argmin returns the first minimum: lowest class id on ties
        return int(np.argmin(self.values)) + 1


def btc_residuals(dictionary: Dictionary, Y: np.ndarray, params: BtcParams) -> np.ndarray:
    """Per-class residuals (S x C) of every row of Y: the batch form of :func:`btc_classify`.

    Each row is L2-normalized; its residuals are those of the linear kernel
    in Gram form, and reconstruction errors in feature space for the rows
    whose rounding needs them (:func:`gram_residuals`). See
    :func:`batch_residuals` for chunking, dtypes and where the supports'
    Gram blocks come from.
    """
    params.validate(dictionary.n_features, dictionary.n_samples)
    atoms = np.ascontiguousarray(dictionary.columns.T)

    def prepare(rows: np.ndarray, sq: None) -> tuple:  # the linear kernel needs no norms
        Yn, V = _correlations(dictionary, np.asarray(rows, dtype=np.float64))
        return V, np.ones(len(V)), (atoms, Yn)

    linear = KernelSpec(kind=KERNEL_LINEAR)
    return batch_residuals(dictionary, Y, params.m, params.alpha, linear, prepare)


def btc_classify(
    dictionary: Dictionary,
    y: np.ndarray,
    params: BtcParams,
) -> tuple[ResidualVector, SparseCode]:
    """Classify one sample with the linear BTC.

    The sample is L2-normalized, correlated against all columns, and
    reconstructed on the top-M support. Classes without support atoms get
    residual ||y||_2 = 1.
    """
    params.validate(dictionary.n_features, dictionary.n_samples)
    Yn, V = _correlations(dictionary, np.asarray(y, dtype=np.float64)[None, :])
    support = top_m_select(V[0], params.m)
    # the core on the support alone: its Gram block, labels and correlations
    D = dictionary.columns[:, support]
    residuals, coeffs = gram_residuals(
        (D.T @ D)[None], dictionary.labels[support], dictionary.n_classes, V[:, support],
        np.ones(1), np.arange(support.size)[None, :], params.alpha, features=(D.T, Yn),
    )
    code = SparseCode(support=support, coefficients=coeffs[0], ambient_size=dictionary.n_samples)
    return ResidualVector(values=residuals[0]), code


def _correlations(dictionary: Dictionary, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The L2-normalized rows y of Y (S x B) and A'y for each (S x N).

    The first row whose norm is zero raises ConfigError, or whose norm is
    not finite (a value too large to square) DataFormatError, naming sample i.
    """
    if dictionary.norm_mode != BtcParams.norm_mode:
        raise ConfigError("BTC requires an L2-normalized dictionary")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norms = np.linalg.norm(Y, axis=1)
    bad = np.flatnonzero((norms == 0) | ~np.isfinite(norms))
    if bad.size:
        i = int(bad[0])
        if norms[i] == 0:
            raise ConfigError("zero test vector", sample=i)
        raise DataFormatError("non-finite test vector norm", sample=i)
    Yn = Y / norms[:, None]
    return Yn, Yn @ dictionary.columns


def corr_classify(dictionary: Dictionary, y: np.ndarray, m: int) -> int:
    """Correlation baseline: argmax of class-wise sums of the M largest correlations."""
    v = _correlations(dictionary, np.asarray(y, dtype=np.float64)[None, :])[1][0]
    keep = top_m_select(v, m)
    labels = dictionary.labels[keep] - 1
    sums = np.bincount(labels, weights=v[keep], minlength=dictionary.n_classes)
    # ties -> lowest class id (argmax returns first maximum)
    return int(np.argmax(sums)) + 1


def btc_beta_average(dictionary: Dictionary, m: int, alpha: float) -> float:
    """Mean sufficient-identification ratio over all dictionary columns."""
    BtcParams(m=m, alpha=alpha).validate(dictionary.n_features, dictionary.n_samples)
    if m < 2:
        raise ConfigError("beta requires M >= 2")
    return float(beta_profile(dictionary, [m], alpha).mean())


def btc_estimate_threshold(
    dictionary: Dictionary,
    alpha: float,
    m_range: range | None = None,
) -> tuple[int, list[tuple[int, float]]]:
    """Exhaustively scan M and return (argmin, full profile).

    The default range is 2..B-1. The smallest M attaining the minimum
    average ratio wins.
    """
    b = dictionary.n_features
    if m_range is None:
        m_range = range(2, b)
    # checked by its ends alone, so a huge range is refused without being listed
    if not m_range:
        raise ConfigError("empty M range")
    if m_range[0] < 2 or m_range[-1] >= b:
        raise ConfigError(f"M range must lie within [2, {b - 1}]")
    return threshold_argmin(m_range, beta_profile(dictionary, m_range, alpha).mean(axis=1))


def threshold_argmin(ms: Sequence[int], averages: np.ndarray) -> tuple[int, list[tuple[int, float]]]:
    """(argmin, profile) of mean ratios per threshold M; the smallest M wins ties."""
    profile = [(int(m), float(beta)) for m, beta in zip(ms, averages)]
    return min(profile, key=lambda t: (t[1], t[0]))[0], profile


def recover_sparse(A: np.ndarray, y: np.ndarray, m: int, alpha: float) -> np.ndarray:
    """One-shot thresholding recovery of a sparse vector from y = A x.

    Selects the M columns most correlated (in magnitude) with y and solves
    the regularized least squares on that support; entries off the support
    are zero. Used by the synthetic recovery demo.
    """
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    v = A.T @ y
    sel = top_m_select(v, m)
    D = A[:, sel]
    coeffs = solve_spd_regularized(D.T @ D, D.T @ y, alpha)
    x = np.zeros(A.shape[1])
    x[sel] = coeffs
    return x
