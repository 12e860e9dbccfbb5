"""Linear thresholding classifier, SIC ratios, and threshold estimation."""

import numpy as np
import pytest
from numpy.random import default_rng

from btckit import (
    BtcParams,
    beta_profile,
    btc_beta_average,
    btc_classify,
    btc_estimate_threshold,
    build_dictionary,
    corr_classify,
    recover_sparse,
    solve_spd_regularized,
)
from btckit.errors import ConfigError
from tests.conftest import random_dictionary


def oracle_classify(dictionary, y, m, alpha, support=None):
    """Brute-force reference: dense normal equations, direct residuals."""
    y = y / np.linalg.norm(y)
    A = dictionary.columns
    if support is None:
        v = A.T @ y
        support = sorted(range(A.shape[1]), key=lambda i: (-abs(v[i]), i))[:m]
        support = np.array(support)
    D = A[:, support]
    x = np.linalg.solve(D.T @ D + alpha * np.eye(len(support)), D.T @ y)
    residuals = []
    for cid in range(1, dictionary.n_classes + 1):
        in_class = dictionary.labels[support] == cid
        if not in_class.any():
            residuals.append(np.linalg.norm(y))
            continue
        recon = A[:, support[in_class]] @ x[in_class]
        residuals.append(np.linalg.norm(y - recon))
    return np.array(residuals), support


def oracle_beta(dictionary, col, m, alpha):
    """Independent re-implementation of the identification ratio."""
    A = dictionary.columns
    a = A[:, col]
    v = A.T @ a
    ranking = [i for i in sorted(range(A.shape[1]), key=lambda i: (-abs(v[i]), i)) if i != col]
    support = np.array(ranking[: m - 1])
    residuals, _ = oracle_classify(dictionary, a, m, alpha, support=support)
    own = int(dictionary.labels[col])
    rivals = np.delete(residuals, own - 1)
    return residuals[own - 1] / rivals.min()


class TestBtcClassify:
    def test_exact_atom_match(self):
        d = build_dictionary(np.eye(2), [1, 2])
        res, code = btc_classify(d, np.array([1.0, 0.0]), BtcParams(m=1, alpha=1e-12))
        np.testing.assert_allclose(res.values, [0.0, 1.0], atol=1e-6)
        assert res.predicted_class == 1
        np.testing.assert_array_equal(code.support, [0])

    def test_orthonormal_coefficients_are_correlations(self, rng):
        # orthonormal dictionary, full support: Gram = I so x = A'y
        Q, _ = np.linalg.qr(rng.normal(size=(6, 4)))
        d = build_dictionary(Q.T, [1, 1, 2, 2])
        y = rng.normal(size=6)
        res, code = btc_classify(d, y, BtcParams(m=4, alpha=1e-12))
        yn = y / np.linalg.norm(y)
        expected = d.columns.T @ yn
        np.testing.assert_allclose(
            code.dense()[code.support], expected[code.support], atol=1e-9
        )

    def test_matches_dense_oracle_with_class2_combination(self):
        rng = default_rng(5)
        d = random_dictionary(rng, b=10, n=30, n_classes=3)
        own = d.labels == 2
        weights = rng.uniform(0.5, 1.0, np.count_nonzero(own))
        y = d.columns[:, own] @ weights + rng.normal(0, 0.01, 10)
        res, _ = btc_classify(d, y, BtcParams(m=8, alpha=0.01))
        oracle, _ = oracle_classify(d, y, 8, 0.01)
        np.testing.assert_allclose(res.values, oracle, atol=1e-9)
        assert res.predicted_class == 2

    def test_oracle_equivalence_randomized(self):
        rng = default_rng(1)
        for _ in range(30):
            b = int(rng.integers(4, 21))
            n = int(rng.integers(8, 41))
            d = random_dictionary(rng, b=b, n=n, n_classes=int(rng.integers(2, 5)))
            m = int(rng.integers(1, min(b, n)))
            y = rng.normal(size=b)
            res, _ = btc_classify(d, y, BtcParams(m=m, alpha=0.01))
            oracle, _ = oracle_classify(d, y, m, 0.01)
            np.testing.assert_allclose(res.values, oracle, atol=1e-9)

    def test_support_size_and_class_partition(self, rng):
        d = random_dictionary(default_rng(2), b=12, n=24, n_classes=3)
        res, code = btc_classify(d, rng.normal(size=12), BtcParams(m=7, alpha=0.01))
        assert code.support.shape == (7,)
        assert len(set(code.support.tolist())) == 7
        counts = np.bincount(d.labels[code.support], minlength=d.n_classes + 1)
        assert counts[0] == 0 and counts.sum() == 7

    def test_scale_invariance(self, rng):
        d = random_dictionary(default_rng(3), b=8, n=20)
        y = rng.normal(size=8)
        r1, _ = btc_classify(d, y, BtcParams(m=5, alpha=0.01))
        r2, _ = btc_classify(d, 3.7 * y, BtcParams(m=5, alpha=0.01))
        assert r1.predicted_class == r2.predicted_class
        np.testing.assert_allclose(r1.values, r2.values, atol=1e-12)

    def test_shrinkage_with_fixed_support(self, rng):
        d = random_dictionary(default_rng(4), b=8, n=20)
        y = rng.normal(size=8)
        _, code = btc_classify(d, y, BtcParams(m=5, alpha=0.01))
        D = d.columns[:, code.support]
        yn = y / np.linalg.norm(y)
        norms = [np.linalg.norm(solve_spd_regularized(D.T @ D, D.T @ yn, a)) for a in (1e-4, 1e-2, 0.1, 0.5)]
        assert all(n2 <= n1 + 1e-12 for n1, n2 in zip(norms, norms[1:]))

    def test_zero_vector_rejected(self):
        d = build_dictionary(np.eye(2), [1, 2])
        with pytest.raises(ConfigError, match="zero test vector"):
            btc_classify(d, np.zeros(2), BtcParams(m=1, alpha=0.01))

    def test_m_bound_enforced(self):
        d = build_dictionary(np.eye(2), [1, 2])
        with pytest.raises(ConfigError, match="M"):
            btc_classify(d, np.array([1.0, 0.0]), BtcParams(m=2, alpha=0.01))


class TestCorrClassify:
    def test_m1_is_most_correlated_atom_class(self, rng):
        d = random_dictionary(default_rng(6), b=10, n=25, n_classes=3)
        # noisy copy of a known atom: the top correlation is positive, so
        # M=1 must return that atom's class
        idx = int(rng.integers(25))
        y = d.columns[:, idx] + rng.normal(0, 0.05, 10)
        v = d.columns.T @ (y / np.linalg.norm(y))
        assert np.argmax(np.abs(v)) == idx and v[idx] > 0
        assert corr_classify(d, y, 1) == int(d.labels[idx])

    def test_orthogonal_sample_ties_to_class_one(self):
        d = build_dictionary(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), [1, 2])
        assert corr_classify(d, np.array([0.0, 0.0, 1.0]), 1) == 1

    def test_matches_exhaustive_oracle(self):
        rng = default_rng(7)
        for _ in range(20):
            d = random_dictionary(rng, b=9, n=21, n_classes=3)
            y = rng.normal(size=9)
            m = int(rng.integers(1, 21))
            v = d.columns.T @ (y / np.linalg.norm(y))
            keep = sorted(range(21), key=lambda i: (-abs(v[i]), i))[:m]
            sums = np.zeros(d.n_classes)
            for i in keep:
                sums[int(d.labels[i]) - 1] += v[i]
            assert corr_classify(d, y, m) == int(np.argmax(sums)) + 1


class TestBetaSample:
    def test_duplicate_atoms_identifiable(self):
        base = default_rng(8).normal(size=(2, 5))
        # each class holds three near-copies of its own atom
        samples = np.vstack(
            [base[0] + default_rng(i).normal(0, 1e-3, 5) for i in range(3)]
            + [base[1] + default_rng(10 + i).normal(0, 1e-3, 5) for i in range(3)]
        )
        d = build_dictionary(samples, [1, 1, 1, 2, 2, 2])
        betas = beta_profile(d, [3], 0.01)[0]
        for col in range(6):
            assert betas[col] < 1.0

    def test_orthogonal_atom_unidentifiable(self):
        samples = np.array(
            [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 1.0, 0.1, 0], [0, 0, 0, 1.0]]
        )
        d = build_dictionary(samples, [1, 2, 2, 2])
        # the class-1 atom is orthogonal to every other column
        beta = beta_profile(d, [2], 0.001)[0, 0]
        assert beta >= 1.0

    def test_matches_oracle(self):
        rng = default_rng(9)
        for _ in range(15):
            d = random_dictionary(rng, b=8, n=18, n_classes=2)
            m = int(rng.integers(2, 8))
            col = int(rng.integers(0, 18))
            got = beta_profile(d, [m], 0.01)[0, col]
            assert got == pytest.approx(oracle_beta(d, col, m, 0.01), abs=1e-9)


class TestBetaAverage:
    def test_m_below_two_rejected(self):
        d = build_dictionary(np.eye(3), [1, 2, 3])
        with pytest.raises(ConfigError, match="M >= 2"):
            btc_beta_average(d, 1, 0.01)

    def test_mean_of_two_samples(self):
        samples = default_rng(11).normal(size=(2, 4))
        d = build_dictionary(np.vstack([samples, samples * 1.01]), [1, 2, 1, 2])
        per_sample = beta_profile(d, [2], 0.01)[0]
        assert btc_beta_average(d, 2, 0.01) == pytest.approx(np.mean(per_sample), abs=1e-12)

    def test_single_class_rejected(self):
        d = build_dictionary(default_rng(12).normal(size=(4, 5)), [1, 1, 1, 1])
        with pytest.raises(ConfigError, match="2 classes"):
            btc_beta_average(d, 2, 0.01)

    def test_three_class_matches_direct_summation(self):
        rng = default_rng(13)
        d = random_dictionary(rng, b=7, n=15, n_classes=3)
        direct = np.mean(beta_profile(d, [4], 0.01)[0])
        assert btc_beta_average(d, 4, 0.01) == pytest.approx(direct, abs=1e-12)


class TestEstimateThreshold:
    def test_orthogonal_single_atom_classes_flat_profile(self):
        d = build_dictionary(np.eye(5), [1, 2, 3, 4, 5])
        m_hat, profile = btc_estimate_threshold(d, 0.01)
        betas = [b for _, b in profile]
        np.testing.assert_allclose(betas, betas[0], atol=1e-12)
        assert m_hat == 2  # flat profile: smallest M wins

    def test_matches_recomputed_profile(self):
        rng = default_rng(14)
        d = random_dictionary(rng, b=8, n=20, n_classes=2)
        m_hat, profile = btc_estimate_threshold(d, 0.01)
        recomputed = [(m, btc_beta_average(d, m, 0.01)) for m in range(2, 8)]
        for (m1, b1), (m2, b2) in zip(profile, recomputed):
            assert m1 == m2
            assert b1 == pytest.approx(b2, abs=1e-10)
        assert m_hat == min(recomputed, key=lambda t: (t[1], t[0]))[0]

    def test_empty_range_rejected(self):
        d = build_dictionary(np.eye(4), [1, 2, 3, 4])
        with pytest.raises(ConfigError, match="empty M range"):
            btc_estimate_threshold(d, 0.01, m_range=range(5, 5))

    def test_range_outside_bounds_rejected(self):
        d = build_dictionary(np.eye(4), [1, 2, 3, 4])
        with pytest.raises(ConfigError, match="M range"):
            btc_estimate_threshold(d, 0.01, m_range=range(2, 10))


class TestProp1Consistency:
    def test_identifiable_samples_classify_correctly(self):
        # whenever beta < 1, classifying the column against the dictionary
        # without it must recover its own class
        rng = default_rng(15)
        checked = 0
        for _ in range(10):
            samples = rng.normal(size=(16, 8))
            labels = np.array([1] * 8 + [2] * 8)
            d = build_dictionary(samples, labels)
            m = 5
            betas = beta_profile(d, [m], 0.01)[0]
            for col in range(16):
                cid = int(d.labels[col])
                beta = betas[col]
                if beta >= 1.0:
                    continue
                keep = np.arange(16) != col
                d_wo = build_dictionary(samples[keep], labels[keep])
                res, _ = btc_classify(
                    d_wo, samples[col], BtcParams(m=m - 1, alpha=0.01)
                )
                assert res.predicted_class == cid
                checked += 1
        assert checked > 20  # the property must actually get exercised


class TestRecoverSparse:
    def test_exact_support_recovery(self):
        rng = default_rng(16)
        A = rng.standard_normal((170, 512))
        A /= np.linalg.norm(A, axis=0)
        x = np.zeros(512)
        support = rng.choice(512, 15, replace=False)
        x[support] = rng.choice([-1.0, 1.0], 15)
        x_hat = recover_sparse(A, A @ x, 120, 1e-4)
        assert np.all(np.abs(x_hat[support]) > 0)
        rel = np.linalg.norm(x_hat - x) / np.linalg.norm(x)
        assert rel < 0.1
