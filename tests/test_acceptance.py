"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria that require the public benchmark datasets
are skipped unless ``BTCKIT_DATASET_DIR`` points at them.
"""

import os
import time

import numpy as np
import pytest
from numpy.random import default_rng

from btckit import (
    BtcParams,
    KbtcParams,
    KernelSpec,
    WlsParams,
    btc_classify,
    btc_estimate_threshold,
    build_dictionary,
    default_gamma_grid,
    ensemble_residuals,
    evaluate,
    kbtc_classify,
    kbtc_estimate_params,
    kbtc_residuals,
    kernel_cache,
    kernel_matrix,
    recover_sparse,
    rejection_margin,
    roc_auc,
    roc_sweep,
    solve_spd_regularized,
    spatial_spectral_classify,
    split_by_mask,
    wls_smooth,
)
from btckit.data import NORM_L2, NORM_RANGE
from tests.conftest import make_blobs, make_blocky_scene, make_rings, make_train_mask
from tests.test_btc import oracle_classify
from tests.test_kbtc import oracle_kbtc
from tests.test_spatial import oracle_wls_system


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def rings_fit():
    """Shared rings experiment: 500 train / 500 test plus estimated params."""
    x_tr, y_tr = make_rings(250, 11)
    x_te, y_te = make_rings(250, 99)
    d = build_dictionary(x_tr, y_tr, NORM_RANGE)
    gamma_hat, m_hat, gamma_profile, m_profile = kbtc_estimate_params(d, 1e-9)
    return x_tr, y_tr, x_te, y_te, d, gamma_hat, m_hat, gamma_profile


def _rings_oa(d, x_te, y_te, gamma, m):
    """OA of KBTC on the raw test rows (one batch call; the dictionary's scaling applies)."""
    spec = KernelSpec(kind="rbf", gamma=gamma)
    params = KbtcParams(m=m, alpha=1e-9, spec=spec)
    pred = np.argmin(kbtc_residuals(d, x_te, params), axis=1) + 1
    return float(np.mean(pred == y_te))


def test_criterion_1_synthetic_sparse_recovery():
    start = time.perf_counter()
    hits, errors = [], []
    for seed in range(20):
        rng = default_rng(seed)
        A = rng.standard_normal((170, 512))
        A /= np.linalg.norm(A, axis=0)
        x = np.zeros(512)
        support = rng.choice(512, 15, replace=False)
        x[support] = rng.choice([-1.0, 1.0], 15)
        x_hat = recover_sparse(A, A @ x, 120, 1e-4)
        hits.append(np.count_nonzero(x_hat[support]))
        errors.append(np.linalg.norm(x_hat - x) / np.linalg.norm(x))
    elapsed = time.perf_counter() - start
    mean_hits = float(np.mean(hits))
    mean_err = float(np.mean(errors))
    ok = mean_hits >= 13.0 and mean_err <= 0.15 and elapsed < 10.0
    _report(
        1,
        ok,
        f"sparse recovery: {mean_hits:.1f}/15 support hits, "
        f"rel l2 error {mean_err:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = default_rng(100)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(4, 21))
        n = int(rng.integers(8, 41))
        c = int(rng.integers(2, 5))
        samples = rng.normal(size=(n, b))
        labels = np.sort(rng.integers(1, c + 1, size=n))
        labels[:c] = np.arange(1, c + 1)
        labels = np.sort(labels)
        m = int(rng.integers(1, min(b, n)))
        y = rng.normal(size=b)

        d = build_dictionary(samples, labels, NORM_L2)
        res, _ = btc_classify(d, y, BtcParams(m=m, alpha=0.01))
        ref, _ = oracle_classify(d, y, m, 0.01)
        worst = max(worst, float(np.abs(res.values - ref).max()))

        dk = build_dictionary(samples, labels, NORM_RANGE)
        gamma = float(rng.uniform(0.1, 2.0))
        spec = KernelSpec(kind="rbf", gamma=gamma)
        cache = kernel_cache(dk, spec)
        yk = dk.scaling.apply(y)
        res_k, _ = kbtc_classify(dk, yk, KbtcParams(m=m, alpha=1e-4, spec=spec), cache)
        ref_k, _ = oracle_kbtc(dk, yk, m, 1e-4, gamma)
        worst = max(worst, float(np.abs(res_k.values - ref_k).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"100 instances, worst residual gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_linear_kernel_bridge():
    rng = default_rng(101)
    worst, same_support = 0.0, True
    for _ in range(100):
        b = int(rng.integers(4, 21))
        n = int(rng.integers(8, 41))
        samples = rng.normal(size=(n, b))
        labels = np.sort(rng.integers(1, 4, size=n))
        labels[:3] = [1, 2, 3]
        labels = np.sort(labels)
        d = build_dictionary(samples, labels, NORM_L2)
        m = int(rng.integers(1, min(b, n)))
        y = rng.normal(size=b)
        # normalized as BTC normalizes its rows, so both select on the same correlations
        yn = (y[None] / np.linalg.norm(y[None], axis=1)[:, None])[0]
        res_b, code = btc_classify(d, y, BtcParams(m=m, alpha=0.01))
        spec = KernelSpec(kind="linear")
        cache = kernel_cache(d, spec)
        res_k, code_k = kbtc_classify(d, yn, KbtcParams(m=m, alpha=0.01, spec=spec), cache)
        same_support = same_support and np.array_equal(code_k.support, code.support)
        worst = max(worst, float(np.abs(res_k.values - res_b.values).max()))
    ok = worst <= 1e-9 and same_support
    _report(3, ok, f"linear-kernel bridge, same supports {same_support}, worst residual gap {worst:.2e}")


def test_criterion_4_nonlinear_separation(rings_fit):
    x_tr, y_tr, x_te, y_te, d, gamma_hat, m_hat, _ = rings_fit
    oa_kbtc = _rings_oa(d, x_te, y_te, gamma_hat, m_hat)

    dl = build_dictionary(x_tr, y_tr, NORM_L2)
    m_lin, _ = btc_estimate_threshold(dl, 0.01)
    params = BtcParams(m=m_lin, alpha=0.01)
    pred = np.array([btc_classify(dl, x, params)[0].predicted_class for x in x_te])
    oa_btc = float(np.mean(pred == y_te))

    ok = oa_kbtc >= 0.95 and oa_btc <= 0.75
    _report(
        4,
        ok,
        f"rings: KBTC OA {oa_kbtc:.3f} (gamma 2^{np.log2(gamma_hat):.0f}, M {m_hat}) "
        f"vs linear BTC OA {oa_btc:.3f}",
    )


def test_criterion_5_parameter_estimation_consistency(rings_fit):
    _, _, x_te, y_te, d, gamma_hat, m_hat, gamma_profile = rings_fit
    betas = [b for _, b in gamma_profile]
    # unimodal over the grid: the sign of the discrete difference changes
    # at most once (decreasing then increasing)
    diffs = np.sign(np.diff(betas))
    changes = int(np.count_nonzero(np.diff(diffs[diffs != 0])))
    unimodal = changes <= 1

    oa_hat = _rings_oa(d, x_te, y_te, gamma_hat, m_hat)
    best_oa = max(
        _rings_oa(d, x_te, y_te, gamma, m)
        for gamma in default_gamma_grid()
        for m in range(2, d.n_features)
    )
    within = oa_hat >= best_oa - 0.02
    ok = unimodal and within
    _report(
        5,
        ok,
        f"beta profile unimodal={unimodal}; OA with estimated params {oa_hat:.3f} "
        f"vs grid-best {best_oa:.3f}",
    )


def test_criterion_5_benchmark_tables():
    if not os.environ.get("BTCKIT_DATASET_DIR"):
        pytest.skip("benchmark dataset tables need BTCKIT_DATASET_DIR")
    raise AssertionError("dataset-gated table checks not wired for this environment")


def test_criterion_6_ensemble_gain():
    start = time.perf_counter()
    params = BtcParams(m=10, alpha=0.01)
    oa = {1: [], 5: []}
    for seed in range(20):
        x_tr, y_tr = make_blobs(20, 5, 200, seed, 1.2)
        x_te, y_te = make_blobs(10, 5, 200, seed + 1000, 1.2)
        for n in (1, 5):
            fused = ensemble_residuals(x_tr, y_tr, x_te, n, params, 30, 3, seed)
            pred = np.unique(y_tr)[np.argmin(fused, axis=1)]
            oa[n].append(np.mean(pred == y_te))
    elapsed = time.perf_counter() - start
    mean1, mean5 = float(np.mean(oa[1])), float(np.mean(oa[5]))
    ok = mean5 >= mean1 and elapsed < 30.0
    _report(6, ok, f"BTC-1 OA {mean1:.3f} <= BTC-5 OA {mean5:.3f}, {elapsed:.1f}s")


def test_criterion_7_rejection_roc():
    x_tr, y_tr = make_blobs(20, 5, 200, 7, 0.9)
    known = y_tr <= 3
    d = build_dictionary(x_tr[known], y_tr[known], NORM_L2)
    params = BtcParams(m=10, alpha=0.01)
    x_te, y_te = make_blobs(40, 5, 200, 1007, 0.9)
    margins = np.array(
        [rejection_margin(btc_classify(d, x, params)[0]) for x in x_te]
    )
    valid = margins[y_te <= 3]
    invalid = margins[y_te > 3]
    curve = roc_sweep(valid, invalid)
    auc = roc_auc(curve)
    _report(7, auc >= 0.85, f"rejection AUC {auc:.3f} with 2 of 5 classes unseen")


def test_criterion_8_spatial_spectral_gain():
    start = time.perf_counter()
    cube, gt = make_blocky_scene(seed=3, sigma=0.45)
    mask = make_train_mask(gt, 20, seed=103)
    train, train_labels, _, _ = split_by_mask(cube, gt, mask)
    d = build_dictionary(train, train_labels, NORM_L2)
    params = BtcParams(m=10, alpha=1e-10)
    final_wls, pixelwise = spatial_spectral_classify(
        cube, d, params, smoothing="wls", wls_params=WlsParams(lam=0.4, alpha_wls=0.9)
    )
    final_box, _ = spatial_spectral_classify(cube, d, params, smoothing="box", window=5)
    elapsed = time.perf_counter() - start

    sel = (mask == 0) & (gt > 0)
    oa_spec = float(np.mean(pixelwise[sel] == gt[sel]))
    oa_wls = float(np.mean(final_wls[sel] == gt[sel]))
    oa_box = float(np.mean(final_box[sel] == gt[sel]))
    ok = (
        0.6 <= oa_spec <= 0.85
        and oa_wls >= oa_spec + 0.05
        and oa_box >= oa_spec + 0.03
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"spectral OA {oa_spec:.3f}, WLS {oa_wls:.3f} (+{oa_wls - oa_spec:.3f}), "
        f"box {oa_box:.3f} (+{oa_box - oa_spec:.3f}), {elapsed:.1f}s",
    )


def test_criterion_9_wls_correctness():
    rng = default_rng(102)
    worst = 0.0
    params = WlsParams(lam=0.4, alpha_wls=0.9)
    for _ in range(5):
        img = rng.normal(size=(16, 16))
        guidance = rng.uniform(0, 1, (16, 16))
        out = wls_smooth(img, guidance, params)
        dense = np.linalg.solve(oracle_wls_system(guidance, params), img.ravel())
        worst = max(worst, float(np.abs(out.ravel() - dense).max()))

    img = rng.normal(size=(8, 8))
    identity_ok = np.allclose(
        wls_smooth(img, rng.uniform(0, 1, (8, 8)), WlsParams(lam=0.0)), img, atol=1e-12
    )
    const = np.full((8, 8), 0.42)
    fixed_ok = np.allclose(
        wls_smooth(const, rng.uniform(0, 1, (8, 8)), params), const, atol=1e-8
    )
    ok = worst <= 1e-10 and identity_ok and fixed_ok
    _report(
        9,
        ok,
        f"WLS vs dense solve gap {worst:.2e}; lambda=0 identity {identity_ok}; "
        f"constant fixed point {fixed_ok}",
    )


def test_criterion_10_metrics():
    perfect = evaluate([1, 2, 3], [1, 2, 3])
    chance = evaluate([1, 2, 1, 2], [1, 1, 2, 2])
    exact_ok = (
        (perfect.oa, perfect.aa, perfect.kappa) == (1.0, 1.0, 1.0)
        and (chance.oa, chance.aa, chance.kappa) == (0.5, 0.5, 0.0)
    )

    rng = default_rng(103)
    truth = rng.integers(1, 4, 100)
    pred = rng.integers(1, 4, 100)
    report = evaluate(pred, truth)
    confusion = np.zeros((3, 3))
    for t, p in zip(truth, pred):
        confusion[t - 1, p - 1] += 1
    oa = np.trace(confusion) / 100
    p_e = sum(confusion[k].sum() * confusion[:, k].sum() for k in range(3)) / 1e4
    oracle_ok = (
        abs(report.oa - oa) <= 1e-12
        and abs(report.kappa - (oa - p_e) / (1 - p_e)) <= 1e-12
    )

    invariant = True
    base = evaluate(pred, truth)
    for _ in range(100):
        perm = rng.permutation(3) + 1
        relabeled = evaluate(perm[pred - 1], perm[truth - 1])
        invariant &= abs(relabeled.kappa - base.kappa) <= 1e-12
    ok = exact_ok and oracle_ok and invariant
    _report(
        10,
        ok,
        f"hand examples exact={exact_ok}, oracle={oracle_ok}, "
        f"kappa relabeling invariant={invariant}",
    )


def test_criterion_11_full_scale_paper_numbers():
    dataset_dir = os.environ.get("BTCKIT_DATASET_DIR")
    if not dataset_dir:
        print("[SKIP] criterion 11: full-scale benchmark run needs BTCKIT_DATASET_DIR")
        pytest.skip("benchmark datasets not supplied")
    raise AssertionError(
        "dataset-gated integration run not wired for this environment"
    )
