"""Residual cubes, masking, smoothing, and the spatial-spectral pipeline."""

import itertools

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from numpy.random import default_rng

from btckit import (
    BtcParams,
    WlsParams,
    box_smooth,
    btc_classify,
    btc_residuals,
    build_dictionary,
    build_residual_cube,
    decide_from_cube,
    mask_by_classmap,
    spatial_spectral_classify,
    wls_smooth,
)
from btckit.errors import ConfigError, NumericalError
from btckit.spatial import WLS_EPS, _wls_system
from tests.conftest import make_blocky_scene, make_train_mask


def oracle_wls_system(guidance, params):
    """Dense I + lambda L_g, built one pixel and its right and lower neighbours at a time."""
    h, w = guidance.shape
    system = np.eye(h * w)
    for r in range(h):
        for c in range(w):
            for rn, cn in ((r, c + 1), (r + 1, c)):
                if rn < h and cn < w:
                    i, j = r * w + c, rn * w + cn
                    weight = 1.0 / (abs(guidance[rn, cn] - guidance[r, c]) ** params.alpha_wls + WLS_EPS)
                    system[[i, j], [i, j]] += params.lam * weight
                    system[[i, j], [j, i]] -= params.lam * weight
    return system


def _coo_wls_system(guidance, params):
    """I + lambda L_g in CSC, its Laplacian summed by SciPy from a COO triplet list per edge."""
    h, w = guidance.shape
    idx = np.arange(h * w).reshape(h, w)
    rows, cols, vals = [], [], []
    for a, b, grad in ((idx[:, :-1], idx[:, 1:], np.diff(guidance, axis=1)),
                       (idx[:-1, :], idx[1:, :], np.diff(guidance, axis=0))):
        weight = (1.0 / (np.abs(grad) ** params.alpha_wls + WLS_EPS)).ravel()
        a, b = a.ravel(), b.ravel()
        rows.extend([a, b, a, b])
        cols.extend([b, a, a, b])
        vals.extend([-weight, -weight, weight, weight])
    laplacian = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(h * w, h * w)
    )
    return (scipy.sparse.identity(h * w, format="csr") + params.lam * laplacian).tocsc()


def _two_class_setup(seed=50, h=10, w=10, bands=6):
    rng = default_rng(seed)
    sigs = np.array([rng.uniform(0.2, 1.0, bands), rng.uniform(0.2, 1.0, bands)])
    gt = np.zeros((h, w), dtype=np.int64)
    gt[:, : w // 2] = 1
    gt[:, w // 2 :] = 2
    cube = sigs[gt - 1] + rng.normal(0, 0.05, (h, w, bands))
    train = np.vstack([sigs[0] + rng.normal(0, 0.05, (5, bands)),
                       sigs[1] + rng.normal(0, 0.05, (5, bands))])
    d = build_dictionary(train, [1] * 5 + [2] * 5)
    return cube, gt, d


class TestBuildResidualCube:
    def test_single_pixel(self):
        cube, _, d = _two_class_setup()
        one = cube[:1, :1]
        params = BtcParams(m=3, alpha=1e-4)
        rc, classmap = build_residual_cube(one, d, params)
        res, _ = btc_classify(d, one[0, 0], params)
        v = res.values
        expected = (v - v.min()) / (v.max() - v.min())
        np.testing.assert_allclose(rc[0, 0], expected, atol=1e-12)
        assert classmap[0, 0] == res.predicted_class

    def test_constant_cube_is_piecewise_constant(self):
        _, _, d = _two_class_setup()
        cube = np.tile(np.linspace(0.3, 0.9, 6), (3, 3, 1))
        rc, classmap = build_residual_cube(cube, d, BtcParams(m=3, alpha=1e-4))
        np.testing.assert_allclose(rc, np.broadcast_to(rc[0, 0], rc.shape), atol=1e-12)
        assert len(np.unique(classmap)) == 1

    def test_matches_per_pixel_loop_oracle(self):
        cube, _, d = _two_class_setup()
        params = BtcParams(m=3, alpha=1e-4)
        rc, classmap = build_residual_cube(cube, d, params)
        raw = np.empty((10, 10, 2))
        for r in range(10):
            for c in range(10):
                res, _ = btc_classify(d, cube[r, c], params)
                raw[r, c] = res.values
                assert classmap[r, c] == res.predicted_class
        expected = (raw - raw.min()) / (raw.max() - raw.min())
        np.testing.assert_allclose(rc, expected, atol=1e-12)
        assert rc.min() == 0.0 and rc.max() == 1.0

    def test_global_normalization(self):
        cube, _, d = _two_class_setup()
        params = BtcParams(m=3, alpha=1e-4)
        rc, _ = build_residual_cube(cube, d, params)
        raw = btc_residuals(d, cube.reshape(-1, cube.shape[2]), params).reshape(rc.shape)
        assert rc.min() == 0.0 and rc.max() == 1.0
        np.testing.assert_array_equal(np.argmin(rc, axis=2), np.argmin(raw, axis=2))
        # one scale for the whole cube: a layer keeps its range relative to the others
        spans = [np.ptp(rc[:, :, k]) / np.ptp(raw[:, :, k]) for k in range(rc.shape[2])]
        assert spans == pytest.approx([1 / np.ptp(raw)] * rc.shape[2], rel=1e-12)


class TestMaskByClassmap:
    def test_single_pixel_masking(self):
        values = np.array([[[0.2, 0.3, 0.4]]])
        classmap = np.array([[2]])
        masked = mask_by_classmap(values, classmap)
        np.testing.assert_allclose(masked[0, 0], [1.0, 0.3, 1.0])

    def test_uniform_map_saturates_other_layers(self, rng):
        values = rng.uniform(0, 0.5, (4, 4, 3))
        classmap = np.ones((4, 4), dtype=np.int64)
        masked = mask_by_classmap(values, classmap)
        np.testing.assert_allclose(masked[:, :, 1], 1.0)
        np.testing.assert_allclose(masked[:, :, 2], 1.0)
        np.testing.assert_allclose(masked[:, :, 0], values[:, :, 0])

    def test_matches_elementwise_oracle_and_never_decreases(self, rng):
        values = rng.uniform(0, 1, (5, 6, 4))
        labels = rng.integers(1, 5, (5, 6))
        masked = mask_by_classmap(values, labels)
        expected = np.empty_like(values)
        for r in range(5):
            for c in range(6):
                for k in range(4):
                    expected[r, c, k] = values[r, c, k] if labels[r, c] == k + 1 else 1.0
        np.testing.assert_array_equal(masked, expected)
        assert np.all(masked >= values - 1e-15)

    def test_dim_mismatch_rejected(self, rng):
        cube = rng.uniform(0, 1, (3, 3, 2))
        with pytest.raises(ConfigError):
            mask_by_classmap(cube, np.ones((2, 2), dtype=np.int64))


class TestBoxSmooth:
    def test_constant_unchanged(self):
        img = np.full((6, 6), 0.7)
        np.testing.assert_allclose(box_smooth(img, 3), img)

    def test_window_one_identity(self, rng):
        img = rng.normal(size=(5, 7))
        np.testing.assert_array_equal(box_smooth(img, 1), img)

    def test_matches_double_loop_oracle(self, rng):
        img = rng.normal(size=(5, 5))
        out = box_smooth(img, 3)
        padded = np.pad(img, 1, mode="edge")
        for r in range(5):
            for c in range(5):
                assert out[r, c] == pytest.approx(
                    padded[r : r + 3, c : c + 3].mean(), abs=1e-12
                )

    def test_stack_equals_per_layer_calls(self, rng):
        stack = rng.uniform(0, 1, (9, 11, 4))
        per_layer = np.stack([box_smooth(stack[:, :, k], 5) for k in range(4)], axis=2)
        np.testing.assert_array_equal(box_smooth(stack, 5), per_layer)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            box_smooth(np.zeros((3, 3)), 4)


class TestWlsSmooth:
    def test_lambda_zero_identity(self, rng):
        img = rng.normal(size=(6, 6))
        out = wls_smooth(img, rng.uniform(0, 1, (6, 6)), WlsParams(lam=0.0))
        np.testing.assert_allclose(out, img, atol=1e-12)

    def test_constant_fixed_point(self, rng):
        img = np.full((8, 8), 0.3)
        out = wls_smooth(img, rng.uniform(0, 1, (8, 8)), WlsParams())
        np.testing.assert_allclose(out, img, atol=1e-8)

    def test_matches_dense_direct_solve(self, rng):
        img = np.zeros((16, 16))
        img[:, 8:] = 1.0
        img += rng.normal(0, 0.1, (16, 16))
        guidance = np.zeros((16, 16))
        guidance[:, 8:] = 1.0
        params = WlsParams(lam=0.4, alpha_wls=0.9)
        out = wls_smooth(img, guidance, params)
        dense = np.linalg.solve(oracle_wls_system(guidance, params), img.ravel()).reshape(16, 16)
        np.testing.assert_allclose(out, dense, atol=1e-10)

    def test_step_edge_smoothing_preserves_contrast(self, rng):
        img = np.zeros((16, 16))
        img[:, 8:] = 1.0
        img += rng.normal(0, 0.1, (16, 16))
        guidance = np.zeros((16, 16))
        guidance[:, 8:] = 1.0
        out = wls_smooth(img, guidance, WlsParams(lam=0.4, alpha_wls=0.9))
        # variance within each flat region strictly reduced
        assert out[:, :8].var() < img[:, :8].var()
        assert out[:, 8:].var() < img[:, 8:].var()
        # edge contrast retained
        contrast_in = img[:, 8:].mean() - img[:, :8].mean()
        contrast_out = out[:, 8:].mean() - out[:, :8].mean()
        assert contrast_out >= 0.8 * contrast_in

    def test_stack_equals_per_layer_calls(self, rng):
        stack = rng.uniform(0, 1, (10, 12, 3))
        guidance = rng.uniform(0, 1, (10, 12))
        params = WlsParams()
        per_layer = np.stack([wls_smooth(stack[:, :, k], guidance, params) for k in range(3)], axis=2)
        np.testing.assert_array_equal(wls_smooth(stack, guidance, params), per_layer)

    def test_factors_once_per_call(self, rng, monkeypatch):
        calls = []
        splu = scipy.sparse.linalg.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
        wls_smooth(rng.uniform(0, 1, (6, 7, 5)), rng.uniform(0, 1, (6, 7)), WlsParams())
        assert len(calls) == 1

    def test_non_finite_guidance_rejected(self, rng):
        guidance = rng.uniform(0, 1, (6, 6))
        guidance[2, 3] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            wls_smooth(rng.uniform(0, 1, (6, 6, 2)), guidance, WlsParams())

    def test_overflowing_lambda_is_a_numerical_error(self, rng):
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="singular"):
            wls_smooth(rng.uniform(0, 1, (6, 6)), rng.uniform(0, 1, (6, 6)), WlsParams(lam=1e308))

    def test_lost_identity_term_is_a_numerical_error(self, rng):
        # 1'(I + lambda L_g) = 1': at lambda 1e12 the solve drifts the sum by ~1e-4 of it
        with pytest.raises(NumericalError, match="lost the identity term"):
            wls_smooth(rng.uniform(0, 1, (8, 8)), rng.uniform(0, 1, (8, 8)), WlsParams(lam=1e12))

    def test_default_lambda_output_is_the_plain_solve(self, rng):
        # at the smallest lambda, an off-diagonal entry of weight below 1/2 underflows to 0,
        # and neither form stores it
        for shape, lam in itertools.product(((1, 7), (9, 1), (10, 12), (61, 34)), (0.4, 5e-324)):
            guidance = rng.uniform(0, 10, shape)
            got, ref = _wls_system(guidance, WlsParams(lam=lam)), _coo_wls_system(guidance, WlsParams(lam=lam))
            assert got.format == "csc"
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, attr), getattr(ref, attr), err_msg=f"{attr} {shape}")
        params = WlsParams()
        stack = rng.uniform(0, 1, (10, 12, 3))
        guidance = rng.uniform(0, 1, (10, 12))
        factor = scipy.sparse.linalg.splu(_coo_wls_system(guidance, params), permc_spec="MMD_AT_PLUS_A")
        plain = factor.solve(stack.reshape(120, 3)).reshape(stack.shape)
        np.testing.assert_array_equal(wls_smooth(stack, guidance, params), plain)

    def test_one_pixel_image_is_its_own_solution(self):
        # a pixel without neighbours has an empty Laplacian: the system is I
        stack = np.array([[[0.3, -2.0]]])
        np.testing.assert_array_equal(wls_smooth(stack, np.ones((1, 1)), WlsParams()), stack)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ConfigError):
            wls_smooth(rng.uniform(0, 1, (6, 6, 2)), rng.uniform(0, 1, (6, 5)), WlsParams())

    def test_mean_preserved_under_uniform_guidance(self, rng):
        img = rng.uniform(0, 1, (12, 12))
        out = wls_smooth(img, np.full((12, 12), 0.5), WlsParams())
        assert out.mean() == pytest.approx(img.mean(), abs=1e-8)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            WlsParams(lam=-1.0)
        with pytest.raises(ConfigError):
            WlsParams(alpha_wls=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                WlsParams(lam=bad)
            with pytest.raises(ConfigError):
                WlsParams(alpha_wls=bad)


class TestDecideFromCube:
    def test_single_layer_all_class_one(self, rng):
        cube = rng.uniform(0, 1, (3, 3, 1))
        np.testing.assert_array_equal(decide_from_cube(cube), 1)

    def test_pixel_argmin(self):
        cube = np.array([[[0.2, 0.1, 0.9]]])
        assert decide_from_cube(cube)[0, 0] == 2

    def test_matches_elementwise_oracle_with_tie_rule(self, rng):
        values = rng.uniform(0, 1, (4, 4, 3))
        values[0, 0] = [0.5, 0.5, 0.9]  # tie -> lowest class id
        labels = decide_from_cube(values)
        assert labels[0, 0] == 1
        for r in range(4):
            for c in range(4):
                assert labels[r, c] == int(np.argmin(values[r, c])) + 1


class TestPipeline:
    def test_unsmoothed_unmasked_reproduces_pixelwise(self):
        cube, _, d = _two_class_setup()
        params = BtcParams(m=3, alpha=1e-4)
        # masking keeps each pixel's own layer, so with identity smoothing
        # the argmin is still the pixel-wise one
        final, pixelwise = spatial_spectral_classify(cube, d, params, smoothing="box", window=1)
        np.testing.assert_array_equal(final, pixelwise)

    def test_spatial_never_hurts_on_blocky_scene(self):
        cube, gt = make_blocky_scene(seed=9, sigma=0.45)
        mask = make_train_mask(gt, 20, seed=109)
        from btckit import split_by_mask

        train, train_labels, _, _ = split_by_mask(cube, gt, mask)
        d = build_dictionary(train, train_labels)
        params = BtcParams(m=10, alpha=1e-10)
        final, pixelwise = spatial_spectral_classify(cube, d, params, smoothing="wls")
        sel = (mask == 0) & (gt > 0)
        oa_spatial = np.mean(final[sel] == gt[sel])
        oa_spectral = np.mean(pixelwise[sel] == gt[sel])
        assert oa_spatial >= oa_spectral

    def test_unknown_smoothing_rejected(self):
        cube, _, d = _two_class_setup()
        with pytest.raises(ConfigError, match="unknown smoothing"):
            spatial_spectral_classify(cube, d, BtcParams(m=3, alpha=1e-4), smoothing="median")
