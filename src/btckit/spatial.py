"""Spatial-spectral pipeline: residual cubes, class-map masking, smoothing.

Every pixel of a scene is classified spectrally; the per-class residuals
form a cube of residual maps. Maps are masked with the pixel-wise class
map, smoothed (box filter or edge-preserving weighted least squares
against a guidance image), and the final label is the per-pixel argmin of
the smoothed residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

# btc_classify stays bound here: the benchmark's tracer test looks it up in this module
from btckit.btc import BtcParams, btc_classify, btc_residuals  # noqa: F401
from btckit.data import Dictionary
from btckit.errors import BtckitError, ConfigError, NumericalError
from btckit.kbtc import KbtcParams, kbtc_residuals, kernel_cache
from btckit.linalg import min_max, pca_first_component

# SciPy is imported by the smoothing that uses it, so the commands and the
# unsmoothed pipeline run on NumPy alone
if TYPE_CHECKING:
    import scipy.sparse

# Largest drift of a smoothed layer's sum, relative to the layer's absolute
# sum, that wls_smooth accepts as rounding
WLS_SUM_TOL = 1e-8
# Gradient floor of the WLS edge weights (|grad g|^alpha_wls + WLS_EPS)^-1
WLS_EPS = 1e-4


@dataclass(frozen=True)
class WlsParams:
    """Smoothing degree lambda and gradient exponent."""

    lam: float = 0.4
    alpha_wls: float = 0.9

    def __post_init__(self) -> None:
        if not 0 <= self.lam < np.inf:
            raise ConfigError("lambda must be finite and >= 0")
        if not 0 < self.alpha_wls < np.inf:
            raise ConfigError("alpha_wls must be finite and positive")


def build_residual_cube(
    cube: np.ndarray,
    dictionary: Dictionary,
    params: BtcParams | KbtcParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Classify every pixel of an H x W x B cube; stack the residuals into an H x W x C cube.

    BTC is used for :class:`BtcParams`, KBTC for :class:`KbtcParams` (on the
    dictionary's kernel cache, built here); the whole cube goes through one
    batch call, which widens the pixels to float64 one chunk at a time. The
    whole cube is min-max normalized to [0, 1] with one scale, so residuals
    stay comparable across layers. Also returns the pixel-wise (H, W) class
    map. A pixel that fails raises NumericalError naming its (row, column).
    """
    h, w, bands = cube.shape
    pixels = cube.reshape(h * w, bands)
    try:
        if isinstance(params, KbtcParams):
            flat = kbtc_residuals(dictionary, pixels, params, kernel_cache(dictionary, params.spec))
        else:
            flat = btc_residuals(dictionary, pixels, params)
    except BtckitError as exc:
        if exc.sample is None:
            raise
        r, c = divmod(exc.sample, w)
        raise NumericalError(f"pixel ({r},{c}): {exc.args[0]}") from exc
    # np.argmin returns the first minimum: lowest class id on ties
    classmap = np.argmin(flat, axis=1).reshape(h, w) + 1
    residuals = min_max(flat.reshape(h, w, dictionary.n_classes))
    return residuals, classmap


def mask_by_classmap(residuals: np.ndarray, classmap: np.ndarray) -> np.ndarray:
    """Set layer i of a normalized H x W x C cube to the maximum residual 1
    wherever the (H, W) class map's label is not i."""
    if classmap.shape != residuals.shape[:2]:
        raise ConfigError("class map dims do not match cube")
    own = classmap[:, :, None] == np.arange(1, residuals.shape[2] + 1)
    return np.where(own, residuals, 1.0)


def box_smooth(image: np.ndarray, window: int) -> np.ndarray:
    """Mean filter with replicate padding over an H x W image or each layer of
    an H x W x C stack; window must be odd, 1 is identity."""
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be odd and >= 1, got {window}")
    image = np.asarray(image, dtype=np.float64)
    if window == 1:
        return image.copy()
    import scipy.ndimage

    size = (window, window) + (1,) * (image.ndim - 2)
    return scipy.ndimage.uniform_filter(image, size=size, mode="nearest")


def wls_smooth(
    image: np.ndarray, guidance: np.ndarray, params: WlsParams
) -> np.ndarray:
    """Edge-preserving smoothing: solve (I + lambda * L_g) u = image.

    ``image`` is H x W or an H x W x C stack of layers. L_g is the 4-neighbor
    graph Laplacian with weights (|grad g|^alpha_wls + WLS_EPS)^-1 on
    guidance gradients, Neumann boundaries. The system is factored once by
    sparse LU and every layer is solved exactly against that factor.
    """
    image = np.asarray(image, dtype=np.float64)
    guidance = np.asarray(guidance, dtype=np.float64)
    if guidance.ndim != 2 or image.ndim not in (2, 3) or image.shape[:2] != guidance.shape:
        raise ConfigError("guidance must be 2-D and match the image's height and width")
    if not np.all(np.isfinite(guidance)):
        raise ConfigError("guidance image has non-finite values")
    if params.lam == 0:
        return image.copy()
    import scipy.sparse
    import scipy.sparse.linalg

    h, w = guidance.shape
    system = scipy.sparse.identity(h * w, format="csr") + params.lam * _guidance_laplacian(
        guidance, params
    )
    try:
        # the system is symmetric: a symmetric fill-reducing ordering halves the LU fill
        factor = scipy.sparse.linalg.splu(system.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # lambda * weights so large the identity term is lost
        raise NumericalError(f"WLS system is singular: {exc}") from None
    rhs = image.reshape(h * w, -1)
    out = factor.solve(rhs)
    # 1'(I + lambda L_g) = 1', so every layer keeps its sum; a drift means the
    # identity term was lost to rounding next to lambda * L_g
    drift = np.abs(out.sum(axis=0) - rhs.sum(axis=0))
    lost = np.flatnonzero(drift > WLS_SUM_TOL * np.abs(rhs).sum(axis=0))
    if lost.size:
        k = lost[0]
        raise NumericalError(
            f"WLS solve lost the identity term at lambda={params.lam:g}: layer {k + 1} sum "
            f"drifted by {drift[k]:.3e} (tolerance {WLS_SUM_TOL:g} of its absolute sum)"
        )
    return out.reshape(image.shape)


def _guidance_laplacian(guidance: np.ndarray, params: WlsParams) -> scipy.sparse.csr_matrix:
    import scipy.sparse

    h, w = guidance.shape
    idx = np.arange(h * w).reshape(h, w)

    rows, cols, vals = [], [], []

    def add_edges(a_idx, b_idx, grad):
        weight = 1.0 / (np.abs(grad) ** params.alpha_wls + WLS_EPS)
        a = a_idx.ravel()
        b = b_idx.ravel()
        wgt = weight.ravel()
        rows.extend([a, b, a, b])
        cols.extend([b, a, a, b])
        vals.extend([-wgt, -wgt, wgt, wgt])

    if w > 1:
        add_edges(idx[:, :-1], idx[:, 1:], guidance[:, 1:] - guidance[:, :-1])
    if h > 1:
        add_edges(idx[:-1, :], idx[1:, :], guidance[1:, :] - guidance[:-1, :])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(h * w, h * w))


def decide_from_cube(residuals: np.ndarray) -> np.ndarray:
    """(H, W) class map of the per-pixel argmin over the layers of an H x W x C
    cube; ties resolve to the lowest class id."""
    return np.argmin(residuals, axis=2).astype(np.int64) + 1


def classify_pixels(
    cube: np.ndarray,
    dictionary: Dictionary,
    params: BtcParams | KbtcParams,
    smoothing: str = "wls",
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Spectral half of the pipeline: the last step that reads the cube.

    Returns the residual cube masked by the pixel-wise class map, that (H, W)
    map, and, when ``smoothing`` is "wls", the guidance image (the first
    principal component of the cube; None otherwise). Nothing returned
    refers to the cube, so a caller that drops its own references frees the
    cube before :func:`smooth_and_decide` runs.
    """
    residuals, pixelwise = build_residual_cube(cube, dictionary, params)
    residuals = mask_by_classmap(residuals, pixelwise)
    guidance = pca_first_component(cube) if smoothing == "wls" else None
    return residuals, pixelwise, guidance


def smooth_and_decide(
    masked: np.ndarray,
    guidance: np.ndarray | None,
    smoothing: str = "wls",
    window: int = 5,
    wls_params: WlsParams | None = None,
) -> np.ndarray:
    """Spatial half of the pipeline: smooth the masked residual cube and decide.

    ``smoothing`` is one of none/box/wls; WLS needs the guidance image from
    :func:`classify_pixels`. Returns the (H, W) smoothed class map.
    """
    if smoothing == "none":
        smoothed = masked
    elif smoothing == "box":
        smoothed = box_smooth(masked, window)
    elif smoothing == "wls":
        smoothed = wls_smooth(masked, guidance, wls_params or WlsParams())
    else:
        raise ConfigError(f"unknown smoothing {smoothing!r}")
    return decide_from_cube(smoothed)


def spatial_spectral_classify(
    cube: np.ndarray,
    dictionary: Dictionary,
    params: BtcParams | KbtcParams,
    smoothing: str = "wls",
    window: int = 5,
    wls_params: WlsParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full pipeline: residual cube, masking, smoothing, final decision.

    :func:`classify_pixels` followed by :func:`smooth_and_decide`.
    ``smoothing`` is one of none/box/wls. WLS is guided by the first
    principal component of the cube. Returns the (H, W) smoothed and
    pixel-wise class maps. The caller's cube stays alive through smoothing;
    the CLI calls the two halves itself and drops the cube between them.
    """
    masked, pixelwise, guidance = classify_pixels(cube, dictionary, params, smoothing)
    return smooth_and_decide(masked, guidance, smoothing, window, wls_params), pixelwise
