"""Very sparse random projections, residual-mean ensembles, and rejection.

Each ensemble member projects the raw samples through an independent
three-point random matrix, rebuilds a unit-norm dictionary, and classifies;
the per-class residuals are fused by their sample mean. The projections
and dictionaries are built once per batch of test samples. The rejection
margin compares the two smallest fused residuals.
"""

from __future__ import annotations

import numpy as np

from btckit.btc import BtcParams, ResidualVector, btc_residuals
from btckit.data import build_dictionary
from btckit.errors import ConfigError


def make_sparse_projection(b: int, m: int, s: int, seed: int) -> np.ndarray:
    """Draw a B x m very sparse random projection, reproducible from the seed.

    Entries are +sqrt(S) with probability 1/(2S), -sqrt(S) with probability
    1/(2S), zero otherwise, scaled by 1/sqrt(m).
    """
    if not 1 <= b < m:
        raise ConfigError(f"need 1 <= B < m, got B={b}, m={m}")
    if s < 1:
        raise ConfigError(f"S must be >= 1, got {s}")
    rng = np.random.default_rng(seed)
    u = rng.random((b, m))
    root = np.sqrt(float(s))
    entries = np.where(u < 0.5 / s, root, np.where(u < 1.0 / s, -root, 0.0))
    return entries / np.sqrt(m)


def ensemble_residuals(
    raw_samples: np.ndarray,
    labels: np.ndarray,
    Y_raw: np.ndarray,
    n_classifiers: int,
    params: BtcParams,
    b: int,
    s: int,
    seed: int,
) -> np.ndarray:
    """BTC-n: mean-fused residuals (S x C) over n independently projected classifiers.

    ``raw_samples`` holds the unprojected training samples as rows; each
    member i uses the projection seeded with seed + i and a freshly
    unit-normalized projected dictionary, both built once for all rows of Y_raw.
    """
    if n_classifiers < 1:
        raise ConfigError("need at least one classifier")
    raw_samples = np.asarray(raw_samples, dtype=np.float64)
    Y_raw = np.asarray(Y_raw, dtype=np.float64)
    m_dim = raw_samples.shape[1]

    fused = None
    for i in range(1, n_classifiers + 1):
        proj = make_sparse_projection(b, m_dim, s, seed + i)
        dictionary = build_dictionary(raw_samples @ proj.T, labels, norm_mode=BtcParams.norm_mode)
        residuals = btc_residuals(dictionary, (proj @ Y_raw.T).T, params)
        fused = residuals if fused is None else fused + residuals
    return fused / n_classifiers


def ensemble_classify(
    raw_samples: np.ndarray,
    labels: np.ndarray,
    y_raw: np.ndarray,
    n_classifiers: int,
    params: BtcParams,
    b: int,
    s: int,
    seed: int,
) -> tuple[int, ResidualVector]:
    """One sample through :func:`ensemble_residuals`; returns (class id, fused residuals)."""
    y_raw = np.asarray(y_raw, dtype=np.float64)[None, :]
    fused = ensemble_residuals(raw_samples, labels, y_raw, n_classifiers, params, b, s, seed)
    result = ResidualVector(values=fused[0])
    return result.predicted_class, result


def rejection_margin(residuals: ResidualVector | np.ndarray) -> float:
    """1 - (smallest residual / second smallest), in [0, 1).

    0 when the two best classes tie; capped just below 1 when the best
    residual is exactly zero; defined as 0 when both are zero.
    """
    values = residuals.values if isinstance(residuals, ResidualVector) else np.asarray(residuals)
    if values.shape[0] < 2:
        raise ConfigError("rejection margin needs at least 2 classes")
    two = np.partition(values, 1)[:2]
    smallest, second = float(two[0]), float(two[1])
    if second == 0.0:
        return 0.0
    margin = 1.0 - smallest / second
    return min(margin, 1.0 - 1e-15)


def roc_sweep(
    valid_margins: np.ndarray,
    invalid_margins: np.ndarray,
    tau_grid: np.ndarray | None = None,
) -> list[tuple[float, float, float]]:
    """(tau, TPR, FPR) for accept-as-valid decisions over a tau grid.

    TPR is the fraction of valid samples accepted (margin >= tau), FPR the
    fraction of invalid samples accepted. Default grid: 1001 points on
    the open interval (0, 1). Each margin set is sorted once; the margins
    below tau are counted by a left binary search, so a tie at tau is
    accepted, and a NaN margin never is.
    """
    valid = np.asarray(valid_margins, dtype=np.float64)
    invalid = np.asarray(invalid_margins, dtype=np.float64)
    if valid.size == 0 or invalid.size == 0:
        raise ConfigError("both margin sets must be non-empty")
    if tau_grid is None:
        tau_grid = np.linspace(0.0, 1.0, 1003)[1:-1]
    taus = np.asarray(tau_grid, dtype=np.float64)

    def accepted(margins: np.ndarray) -> np.ndarray:
        ranked = np.sort(margins[~np.isnan(margins)])
        return (ranked.size - np.searchsorted(ranked, taus, side="left")) / margins.size

    return list(zip(taus.tolist(), accepted(valid).tolist(), accepted(invalid).tolist()))


def roc_auc(curve: list[tuple[float, float, float]]) -> float:
    """Trapezoidal area under the (FPR, TPR) curve, endpoints closed."""
    fpr = np.array([1.0] + [p[2] for p in curve] + [0.0])
    tpr = np.array([1.0] + [p[1] for p in curve] + [0.0])
    order = np.argsort(fpr)
    return float(np.trapezoid(tpr[order], fpr[order]))
