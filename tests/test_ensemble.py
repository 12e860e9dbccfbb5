"""Sparse random projections, residual-mean fusion, rejection, ROC."""

import numpy as np
import pytest
from numpy.random import default_rng

from btckit import (
    BtcParams,
    ResidualVector,
    btc_classify,
    build_dictionary,
    ensemble_classify,
    make_sparse_projection,
    rejection_margin,
    roc_auc,
    roc_sweep,
)
from btckit.errors import ConfigError
from tests.conftest import make_blobs


class TestMakeSparseProjection:
    def test_sparsity_one_has_no_zeros(self):
        proj = make_sparse_projection(10, 50, 1, seed=0)
        np.testing.assert_allclose(np.abs(proj), 1.0 / np.sqrt(50))

    def test_zero_fraction_within_binomial_bound(self):
        proj = make_sparse_projection(120, 10000, 100, seed=1)
        frac = np.mean(proj == 0.0)
        assert 0.9888 <= frac <= 0.9912

    def test_deterministic_from_seed(self):
        a = make_sparse_projection(8, 40, 3, seed=9)
        b = make_sparse_projection(8, 40, 3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_three_point_values_only(self):
        proj = make_sparse_projection(20, 200, 3, seed=2)
        scaled = proj * np.sqrt(200)
        allowed = {0.0, np.sqrt(3.0), -np.sqrt(3.0)}
        assert set(np.round(np.unique(scaled), 12)) <= {round(v, 12) for v in allowed}

    def test_plus_minus_balance(self):
        proj = make_sparse_projection(100, 1000, 2, seed=3)
        pos = np.sum(proj > 0)
        neg = np.sum(proj < 0)
        total = proj.size
        # each sign has probability 1/(2S) = 0.25
        assert abs(pos / total - 0.25) < 0.005
        assert abs(neg / total - 0.25) < 0.005

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            make_sparse_projection(50, 10, 3, seed=0)
        with pytest.raises(ConfigError):
            make_sparse_projection(5, 10, 0, seed=0)


class TestEnsembleClassify:
    def test_single_member_equals_projected_btc(self):
        rng = default_rng(40)
        x, y = make_blobs(10, 3, 60, 0, 0.8)
        sample = x[0] + rng.normal(0, 0.1, 60)
        params = BtcParams(m=6, alpha=0.01)
        cid, fused = ensemble_classify(x, y, sample, 1, params, 20, 3, seed=5)
        proj = make_sparse_projection(20, 60, 3, seed=6)  # member i=1 uses seed+1
        d = build_dictionary(x @ proj.T, y)
        res, _ = btc_classify(d, proj @ sample, params)
        np.testing.assert_array_equal(fused.values, res.values)
        assert cid == res.predicted_class

    def test_fusion_is_mean_of_members(self):
        x, y = make_blobs(10, 3, 60, 1, 0.8)
        sample = x[12]
        params = BtcParams(m=6, alpha=0.01)
        n = 4
        _, fused = ensemble_classify(x, y, sample, n, params, 20, 3, seed=11)
        members = []
        for i in range(1, n + 1):
            proj = make_sparse_projection(20, 60, 3, seed=11 + i)
            d = build_dictionary(x @ proj.T, y)
            res, _ = btc_classify(d, proj @ sample, params)
            members.append(res.values)
        np.testing.assert_allclose(fused.values, np.mean(members, axis=0), atol=1e-15)

    def test_accuracy_non_decreasing_with_members(self):
        params = BtcParams(m=10, alpha=0.01)
        oa = {1: [], 5: []}
        for seed in range(5):
            x_tr, y_tr = make_blobs(20, 5, 200, seed, 1.2)
            x_te, y_te = make_blobs(6, 5, 200, seed + 1000, 1.2)
            for n in (1, 5):
                pred = np.array(
                    [
                        ensemble_classify(x_tr, y_tr, s, n, params, 30, 3, seed)[0]
                        for s in x_te
                    ]
                )
                oa[n].append(np.mean(pred == y_te))
        assert np.mean(oa[5]) >= np.mean(oa[1]) - 1e-12

    def test_jl_distance_preservation(self):
        rng = default_rng(41)
        points = rng.normal(size=(100, 500))
        proj = make_sparse_projection(120, 500, 3, seed=77)
        projected = points @ proj.T
        # the 1/sqrt(m) scaling contracts squared distances by B/m in
        # expectation; check concentration around that factor
        scale = 120 / 500
        ok = 0
        for _ in range(50):
            i, j = rng.choice(100, 2, replace=False)
            d_orig = np.sum((points[i] - points[j]) ** 2)
            d_proj = np.sum((projected[i] - projected[j]) ** 2)
            if 0.5 <= d_proj / (scale * d_orig) <= 1.5:
                ok += 1
        assert ok >= 48  # >= 95% of 50 pairs

    def test_needs_at_least_one_member(self):
        x, y = make_blobs(5, 2, 20, 0, 0.5)
        with pytest.raises(ConfigError):
            ensemble_classify(x, y, x[0], 0, BtcParams(m=3, alpha=0.01), 10, 3, 0)


class TestRejectionMargin:
    def test_arithmetic(self):
        assert rejection_margin(np.array([0.1, 0.5, 0.9])) == pytest.approx(0.8)

    def test_all_equal_is_zero(self):
        assert rejection_margin(np.array([0.4, 0.4, 0.4])) == 0.0

    def test_zero_best_capped_below_one(self):
        m = rejection_margin(np.array([0.0, 0.3]))
        assert m == pytest.approx(1.0 - 1e-15)
        assert m < 1.0

    def test_both_zero_is_zero(self):
        assert rejection_margin(np.array([0.0, 0.0, 0.5])) == 0.0

    def test_accepts_residual_vector(self):
        rv = ResidualVector(values=np.array([0.2, 0.4]))
        assert rejection_margin(rv) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            rejection_margin(np.array([0.5]))


class TestRocSweep:
    def test_extreme_taus(self):
        valid = np.array([0.8, 0.9])
        invalid = np.array([0.1, 0.2])
        curve = roc_sweep(valid, invalid, tau_grid=np.array([1e-9, 1 - 1e-9]))
        tau0, tpr0, fpr0 = curve[0]
        tau1, tpr1, fpr1 = curve[1]
        assert (tpr0, fpr0) == (1.0, 1.0)
        assert (tpr1, fpr1) == (0.0, 0.0)

    def test_monotone_non_increasing(self, rng):
        valid = rng.beta(5, 2, 200)
        invalid = rng.beta(2, 5, 200)
        curve = roc_sweep(valid, invalid)
        tprs = [p[1] for p in curve]
        fprs = [p[2] for p in curve]
        assert all(b <= a for a, b in zip(tprs, tprs[1:]))
        assert all(b <= a for a, b in zip(fprs, fprs[1:]))

    def test_default_grid_has_1001_interior_points(self):
        curve = roc_sweep(np.array([0.5]), np.array([0.5]))
        assert len(curve) == 1001
        assert 0.0 < curve[0][0] and curve[-1][0] < 1.0

    def test_separated_margins_dominate_diagonal(self, rng):
        valid = rng.beta(8, 2, 500)
        invalid = rng.beta(2, 8, 500)
        curve = roc_sweep(valid, invalid)
        assert roc_auc(curve) >= 0.9
        # curve dominates the diagonal
        assert all(tpr >= fpr - 1e-12 for _, tpr, fpr in curve)

    def test_empty_margins_rejected(self):
        with pytest.raises(ConfigError):
            roc_sweep(np.array([]), np.array([0.5]))

    def test_equals_the_per_tau_definition_with_ties_at_tau(self):
        rng = default_rng(17)
        for _ in range(20):
            # margins on a coarse grid, and taus that hit them exactly
            valid = rng.integers(0, 11, int(rng.integers(1, 60))) / 10
            invalid = rng.integers(0, 11, int(rng.integers(1, 60))) / 10
            valid[0] = np.nan
            taus = np.concatenate([np.linspace(0.0, 1.0, 21), valid[1:4], [-1.0, 2.0, np.inf]])
            expected = [
                (float(t), float(np.mean(valid >= t)), float(np.mean(invalid >= t))) for t in taus
            ]
            assert roc_sweep(valid, invalid, taus) == expected


class TestRocAuc:
    def test_perfect_separation_is_one(self):
        curve = roc_sweep(np.array([0.9, 0.95]), np.array([0.05, 0.1]))
        assert roc_auc(curve) == pytest.approx(1.0, abs=1e-3)

    def test_identical_distributions_is_half(self):
        vals = np.linspace(0.05, 0.95, 50)
        curve = roc_sweep(vals, vals)
        assert roc_auc(curve) == pytest.approx(0.5, abs=0.02)
