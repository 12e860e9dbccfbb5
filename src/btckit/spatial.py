"""Spatial-spectral pipeline: residual cubes, class-map masking, smoothing.

Every pixel of a scene is classified spectrally; the per-class residuals
form a cube of residual maps. Maps are masked with the pixel-wise class
map, smoothed (box filter or edge-preserving weighted least squares
against a guidance image), and the final label is the per-pixel argmin of
the smoothed residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage
import scipy.sparse
import scipy.sparse.linalg

# btc_classify stays bound here: the benchmark's tracer test looks it up in this module
from btckit.btc import BtcParams, btc_classify, btc_residuals  # noqa: F401
from btckit.data import Dictionary, HsiCube, LabelMap
from btckit.errors import BtckitError, ConfigError, NumericalError
from btckit.kbtc import KbtcParams, KernelCache, kbtc_residuals, kernel_cache


@dataclass(frozen=True)
class ResidualCube:
    """Height x width x C stack of per-class residual maps."""

    values: np.ndarray
    normalized: bool

    @property
    def n_classes(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class WlsParams:
    """Smoothing degree lambda, gradient exponent, and CG solve controls."""

    lam: float = 0.4
    alpha_wls: float = 0.9
    eps_wls: float = 1e-4
    cg_tol: float = 1e-5
    cg_max_iter: int = 2000

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")
        if self.alpha_wls <= 0 or self.eps_wls <= 0:
            raise ConfigError("alpha_wls and eps_wls must be positive")


def build_residual_cube(
    cube: HsiCube,
    dictionary: Dictionary,
    params: BtcParams | KbtcParams,
    cache: KernelCache | None = None,
    per_layer: bool = False,
) -> tuple[ResidualCube, LabelMap]:
    """Classify every pixel and stack the residual vectors into a cube.

    BTC is used for :class:`BtcParams`, KBTC for :class:`KbtcParams` (the
    kernel cache is built on demand); the whole cube goes through one batch
    call. The cube is min-max normalized to [0, 1], globally by default or
    per layer. Also returns the pixel-wise class map. A pixel that fails
    raises NumericalError naming its (row, column).
    """
    h, w = cube.height, cube.width
    pixels = cube.values.reshape(h * w, cube.bands)
    try:
        if isinstance(params, KbtcParams):
            if cache is None:
                cache = kernel_cache(dictionary, params.spec)
            flat = kbtc_residuals(dictionary, pixels, params, cache)
        else:
            flat = btc_residuals(dictionary, pixels, params)
    except BtckitError as exc:
        if exc.sample is None:
            raise
        r, c = divmod(exc.sample, w)
        raise NumericalError(f"pixel ({r},{c}): {exc.args[0]}") from exc
    # np.argmin returns the first minimum: lowest class id on ties
    classmap = np.argmin(flat, axis=1).reshape(h, w) + 1
    raw = flat.reshape(h, w, dictionary.n_classes)

    if per_layer:
        for k in range(raw.shape[2]):
            raw[:, :, k] = _min_max(raw[:, :, k])
    else:
        raw = _min_max(raw)
    return (
        ResidualCube(values=raw, normalized=True),
        LabelMap(height=h, width=w, labels=classmap),
    )


def _min_max(a: np.ndarray) -> np.ndarray:
    lo, hi = a.min(), a.max()
    if hi == lo:
        return np.zeros_like(a)
    return (a - lo) / (hi - lo)


def mask_by_classmap(cube: ResidualCube, classmap: LabelMap) -> ResidualCube:
    """Set layer i to the maximum residual 1 wherever the pixel label is not i."""
    if not cube.normalized:
        raise ConfigError("mask_by_classmap requires a normalized cube")
    if classmap.labels.shape != cube.values.shape[:2]:
        raise ConfigError("class map dims do not match cube")
    masked = cube.values.copy()
    for k in range(cube.n_classes):
        masked[:, :, k][classmap.labels != k + 1] = 1.0
    return ResidualCube(values=masked, normalized=True)


def box_smooth(image: np.ndarray, window: int) -> np.ndarray:
    """Mean filter with replicate padding; window must be odd, 1 is identity."""
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be odd and >= 1, got {window}")
    if window == 1:
        return np.asarray(image, dtype=np.float64).copy()
    return scipy.ndimage.uniform_filter(
        np.asarray(image, dtype=np.float64), size=window, mode="nearest"
    )


def wls_smooth(
    image: np.ndarray, guidance: np.ndarray, params: WlsParams
) -> np.ndarray:
    """Edge-preserving smoothing: solve (I + lambda * L_g) u = image.

    L_g is the 4-neighbor graph Laplacian with weights
    (|grad g|^alpha_wls + eps_wls)^-1 on guidance gradients, Neumann
    boundaries. Solved by preconditioned conjugate gradient.
    """
    image = np.asarray(image, dtype=np.float64)
    guidance = np.asarray(guidance, dtype=np.float64)
    if image.shape != guidance.shape or image.ndim != 2:
        raise ConfigError("image and guidance must be 2-D with equal shape")
    if params.lam == 0:
        return image.copy()

    h, w = image.shape
    system = scipy.sparse.identity(h * w, format="csr") + params.lam * _guidance_laplacian(
        guidance, params
    )
    b = image.ravel()
    precond = scipy.sparse.diags(1.0 / system.diagonal())
    u, info = scipy.sparse.linalg.cg(
        system, b, rtol=params.cg_tol, maxiter=params.cg_max_iter, M=precond
    )
    if info != 0:
        resid = float(np.linalg.norm(system @ u - b) / np.linalg.norm(b))
        raise NumericalError(f"CG did not converge (info={info}, relative residual {resid:.3e})")
    return u.reshape(h, w)


def _guidance_laplacian(guidance: np.ndarray, params: WlsParams) -> scipy.sparse.csr_matrix:
    h, w = guidance.shape
    idx = np.arange(h * w).reshape(h, w)

    rows, cols, vals = [], [], []

    def add_edges(a_idx, b_idx, grad):
        weight = 1.0 / (np.abs(grad) ** params.alpha_wls + params.eps_wls)
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


def decide_from_cube(cube: ResidualCube) -> LabelMap:
    """Per-pixel argmin over layers; ties resolve to the lowest class id."""
    labels = np.argmin(cube.values, axis=2).astype(np.int64) + 1
    return LabelMap(height=cube.values.shape[0], width=cube.values.shape[1], labels=labels)


def spatial_spectral_classify(
    cube: HsiCube,
    dictionary: Dictionary,
    params: BtcParams | KbtcParams,
    smoothing: str = "wls",
    window: int = 5,
    wls_params: WlsParams | None = None,
    guidance: np.ndarray | None = None,
    mask: bool = True,
    cache: KernelCache | None = None,
) -> tuple[LabelMap, LabelMap]:
    """Full pipeline: residual cube, masking, smoothing, final decision.

    ``smoothing`` is one of none/box/wls. For WLS the guidance image
    defaults to the first principal component of the cube. Returns
    (smoothed class map, pixel-wise class map).
    """
    from btckit.linalg import pca_first_component

    residual_cube, pixelwise = build_residual_cube(cube, dictionary, params, cache=cache)
    if mask:
        residual_cube = mask_by_classmap(residual_cube, pixelwise)

    if smoothing == "none":
        smoothed = residual_cube.values
    elif smoothing == "box":
        smoothed = np.stack(
            [box_smooth(residual_cube.values[:, :, k], window) for k in range(residual_cube.n_classes)],
            axis=2,
        )
    elif smoothing == "wls":
        if guidance is None:
            guidance = pca_first_component(cube)
        wp = wls_params or WlsParams()
        smoothed = np.stack(
            [
                wls_smooth(residual_cube.values[:, :, k], guidance, wp)
                for k in range(residual_cube.n_classes)
            ],
            axis=2,
        )
    else:
        raise ConfigError(f"unknown smoothing {smoothing!r}")

    final = decide_from_cube(ResidualCube(values=smoothed, normalized=residual_cube.normalized))
    return final, pixelwise
