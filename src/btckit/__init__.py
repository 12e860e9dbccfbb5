"""Basic thresholding classification toolkit.

Sparse-representation classifiers built around one-shot correlation
thresholding and Tikhonov-regularized least squares: the linear BTC, its
RBF-kernel variant KBTC, random-projection ensembles with rejection, and a
spatial-spectral pipeline for hyperspectral image cubes.
"""

from btckit.errors import BtckitError, ConfigError, DataFormatError, NumericalError
from btckit.data import (
    NORM_L2,
    NORM_RANGE,
    Dictionary,
    ScalingParams,
    build_dictionary,
    load_dense_dataset,
    load_hsi_cube,
    load_label_map,
    render_block_mask,
    save_hsi_cube,
    save_label_map,
    save_label_map_pgm,
    split_by_mask,
)
from btckit.linalg import (
    mutual_coherence,
    pca_first_component,
    solve_spd_regularized,
    top_m_select,
)
from btckit.btc import (
    BtcParams,
    ResidualVector,
    SparseCode,
    btc_beta_average,
    btc_beta_sample,
    btc_classify,
    btc_estimate_threshold,
    btc_residuals,
    corr_classify,
    recover_sparse,
)
from btckit.kbtc import (
    KERNEL_LINEAR,
    KERNEL_RBF,
    KbtcParams,
    KernelCache,
    KernelSpec,
    default_gamma_grid,
    kbtc_beta_average_m,
    kbtc_beta_sample,
    kbtc_classify,
    kbtc_estimate_params,
    kbtc_gamma_profile,
    kbtc_residual_alt,
    kbtc_residuals,
    kernel_cache,
    kernel_matrix,
)
from btckit.ensemble import (
    ensemble_classify,
    ensemble_residuals,
    make_sparse_projection,
    rejection_margin,
    roc_auc,
    roc_sweep,
)
from btckit.spatial import (
    WlsParams,
    box_smooth,
    build_residual_cube,
    classify_pixels,
    decide_from_cube,
    mask_by_classmap,
    smooth_and_decide,
    spatial_spectral_classify,
    wls_smooth,
)
from btckit.metrics import EvalReport, evaluate

__version__ = "0.1.0"
