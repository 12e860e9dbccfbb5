"""Spatial-spectral pipeline: residual cubes, class-map masking, smoothing.

Every pixel of a scene is classified spectrally; the per-class residuals
form a cube of residual maps. Maps are masked with the pixel-wise class
map, smoothed (box filter or edge-preserving weighted least squares
against a guidance image), and the final label is the per-pixel argmin of
the smoothed residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

# btc_classify stays bound here: the benchmark's tracer test looks it up in this module
from btckit.btc import BtcParams, btc_classify  # noqa: F401
from btckit.data import Dictionary
from btckit.errors import BtckitError, ConfigError, NumericalError
from btckit.kbtc import KbtcParams, residuals
from btckit.linalg import beside, min_max, one_blas_thread, pca_first_component

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

    The params pick BTC or KBTC (:func:`residuals`); the whole cube goes
    through one batch call, which widens the pixels to
    float64 one chunk at a time. The whole cube is min-max normalized to
    [0, 1] with one scale, so residuals stay comparable across layers. Also
    returns the pixel-wise (H, W) class map of dense ids 1..C (the
    dictionary's ``original_labels`` map them back). An error about one
    pixel keeps its class and names the pixel's (row, column) in place of
    its sample.
    """
    h, w, bands = cube.shape
    pixels = cube.reshape(h * w, bands)
    try:
        flat = residuals(dictionary, pixels, params)
    except BtckitError as exc:
        if exc.sample is None:
            raise
        r, c = divmod(exc.sample, w)
        raise type(exc)(f"pixel ({r},{c}): {exc.args[0]}") from exc
    # np.argmin returns the first minimum: lowest class id on ties
    classmap = np.argmin(flat, axis=1).reshape(h, w) + 1
    return min_max(flat.reshape(h, w, dictionary.n_classes)), classmap


def mask_by_classmap(residuals: np.ndarray, classmap: np.ndarray) -> np.ndarray:
    """Set layer i of a normalized H x W x C cube to the maximum residual 1
    wherever the (H, W) class map's dense id (1..C) is not i."""
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
    guidance gradients, Neumann boundaries. The system (:func:`_wls_system`)
    is factored once by sparse LU and every layer is solved exactly against
    that factor, with every bundled OpenBLAS held at one thread
    (:func:`one_blas_thread`).
    """
    image = np.asarray(image, dtype=np.float64)
    guidance = np.asarray(guidance, dtype=np.float64)
    if guidance.ndim != 2 or image.ndim not in (2, 3) or image.shape[:2] != guidance.shape:
        raise ConfigError("guidance must be 2-D and match the image's height and width")
    if not np.all(np.isfinite(guidance)):
        raise ConfigError("guidance image has non-finite values")
    if params.lam == 0:
        return image.copy()
    import scipy.sparse.linalg

    system = _wls_system(guidance, params)
    rhs = image.reshape(system.shape[0], -1)
    # SciPy's own OpenBLAS, loaded by that import, runs SuperLU's BLAS on one
    # thread: its idle threads would spin on after the solve
    with one_blas_thread():
        try:
            # the system is symmetric: a symmetric fill-reducing ordering halves the LU fill
            factor = scipy.sparse.linalg.splu(system, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # lambda * weights so large the identity term is lost
            raise NumericalError(f"WLS system is singular: {exc}") from None
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


def _wls_system(guidance: np.ndarray, params: WlsParams) -> scipy.sparse.csc_matrix:
    """I + lambda (D - W) as CSC, built from its five diagonals (offsets 0, +-1, +-W).

    W holds the edge weights between 4-neighbours and D their sums per node,
    added right, left, down, up. A neighbour outside the image, or an
    off-diagonal entry that underflows, is weight 0 and is not stored. The
    matrix is symmetric, so each column lists its rows up, left, self,
    right, down, in ascending order.
    """
    import scipy.sparse

    h, w = guidance.shape
    right, left, down, up = np.zeros((4, h, w))
    right[:, :-1] = 1.0 / (np.abs(np.diff(guidance, axis=1)) ** params.alpha_wls + WLS_EPS)
    down[:-1, :] = 1.0 / (np.abs(np.diff(guidance, axis=0)) ** params.alpha_wls + WLS_EPS)
    left[:, 1:], up[1:, :] = right[:, :-1], down[:-1, :]
    lam = params.lam
    diagonals = (-lam * up, -lam * left, 1.0 + lam * (right + left + down + up), -lam * right, -lam * down)
    data = np.stack(diagonals, axis=-1).reshape(h * w, 5)
    rows = np.arange(h * w)[:, None] + np.array([-w, -1, 0, 1, w])
    keep = data != 0
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return scipy.sparse.csc_matrix((data[keep], rows[keep], indptr), shape=(h * w, h * w))


def decide_from_cube(residuals: np.ndarray) -> np.ndarray:
    """(H, W) class map of dense ids 1..C, the per-pixel argmin over the layers
    of an H x W x C cube; ties resolve to the lowest class id."""
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
    principal component of the cube; None otherwise), computed on a helper
    thread while the residual cube is built (:func:`beside`); an error of
    the residual cube wins over one of the guidance. Nothing returned
    refers to the cube, so a caller that drops its own references frees the
    cube before :func:`smooth_and_decide` runs.
    """
    spectral = partial(build_residual_cube, cube, dictionary, params)
    if smoothing == "wls":
        (residuals, pixelwise), guidance = beside(spectral, partial(pca_first_component, cube))
    else:
        (residuals, pixelwise), guidance = spectral(), None
    return mask_by_classmap(residuals, pixelwise), pixelwise, guidance


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
    pixel-wise class maps, both of dense ids 1..C (the dictionary's
    ``original_labels`` map them back). The caller's cube stays alive
    through smoothing; the CLI calls the two halves itself and drops the
    cube between them.
    """
    masked, pixelwise, guidance = classify_pixels(cube, dictionary, params, smoothing)
    return smooth_and_decide(masked, guidance, smoothing, window, wls_params), pixelwise
