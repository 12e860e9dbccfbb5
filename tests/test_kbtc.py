"""Kernel classifier: RBF evaluation, caching, residuals, estimation."""

import tracemalloc
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from btckit import (
    BtcParams,
    KbtcParams,
    KernelSpec,
    btc_classify,
    build_dictionary,
    default_gamma_grid,
    kbtc_beta_average_m,
    kbtc_classify,
    kbtc_estimate_params,
    kbtc_residual_alt,
    kernel_cache,
    kernel_matrix,
)
from btckit import kbtc, linalg
from btckit.data import NORM_L2, NORM_RANGE
from btckit.errors import ConfigError, NumericalError
from btckit.linalg import beta_profile
from tests.conftest import make_rings, random_dictionary


def rbf_oracle(x, y, gamma):
    return np.exp(-gamma * np.sum((x - y) ** 2))


def oracle_kbtc(dictionary, y, m, alpha, gamma, support=None):
    """Brute-force kernel classification with direct kernel evaluations."""
    A = dictionary.columns
    n = A.shape[1]
    v = np.array([rbf_oracle(A[:, i], y, gamma) for i in range(n)])
    if support is None:
        support = np.array(sorted(range(n), key=lambda i: (-v[i], i))[:m])
    K = np.array([[rbf_oracle(A[:, i], A[:, j], gamma) for j in support] for i in support])
    x = np.linalg.solve(K + alpha * np.eye(len(support)), v[support])
    residuals = []
    for cid in range(1, dictionary.n_classes + 1):
        in_class = dictionary.labels[support] == cid
        if not in_class.any():
            residuals.append(1.0)
            continue
        s = support[in_class]
        xs = x[in_class]
        Ks = np.array([[rbf_oracle(A[:, i], A[:, j], gamma) for j in s] for i in s])
        sq = 1.0 - 2.0 * xs @ v[s] + xs @ Ks @ xs
        residuals.append(np.sqrt(max(sq, 0.0)))
    return np.array(residuals), support


class TestKernelEvaluation:
    def test_self_kernel_is_one(self, rng):
        x = rng.normal(size=(5, 1))
        spec = KernelSpec(kind="rbf", gamma=0.7)
        assert kernel_matrix(x, x, spec)[0, 0] == pytest.approx(1.0)

    def test_analytic_value(self):
        spec = KernelSpec(kind="rbf", gamma=1.0)
        x = np.array([[1.0], [0.0]])
        y = np.array([[0.0], [0.0]])
        assert kernel_matrix(x, y, spec)[0, 0] == pytest.approx(np.exp(-1.0))

    def test_linear_kernel_equals_correlations(self, rng):
        d = random_dictionary(default_rng(20), b=8, n=16)
        y = rng.normal(size=8)
        yn = y / np.linalg.norm(y)
        v = kernel_matrix(d.columns, yn[:, None], KernelSpec(kind="linear"))[:, 0]
        np.testing.assert_allclose(v, d.columns.T @ yn, atol=1e-12)

    def test_rbf_bounds_and_symmetry(self, rng):
        X = rng.normal(size=(4, 12))
        K = kernel_matrix(X, X, KernelSpec(kind="rbf", gamma=0.5))
        assert np.all(K > 0) and np.all(K <= 1.0)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ConfigError, match="gamma"):
            KernelSpec(kind="rbf", gamma=-1.0)
        with pytest.raises(ConfigError, match="unknown kernel"):
            KernelSpec(kind="poly")

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 20),
        st.integers(1, 20),
        st.booleans(),
        st.booleans(),
        st.one_of(st.none(), st.floats(2.0**-10, 30.0)),
        st.booleans(),
    )
    def test_equals_the_whole_array_formula_bit_for_bit(self, seed, b, nx, ny, same, near, gamma, tiny):
        rng = default_rng(seed)
        X = rng.normal(size=(b, nx)) * 10.0 ** rng.integers(-2, 3)
        Y = X if same else rng.normal(size=(b, ny)) * 10.0 ** rng.integers(-2, 3)
        if near and not same:
            # near-duplicate columns: the rounded distance can fall below 0 and is clamped
            k = min(nx, ny)
            Y[:, :k] = X[:, :k] * (1.0 + 1e-12 * rng.normal(size=(b, k)))
        spec = KernelSpec(kind="linear") if gamma is None else KernelSpec(kind="rbf", gamma=gamma)
        with patch.object(linalg, "CHUNK_BYTES", 1) if tiny else nullcontext():
            got = kernel_matrix(X, Y, spec)
        if gamma is None:
            ref = X.T @ Y
        else:
            sq_x = np.sum(X * X, axis=0)[:, None]
            sq_y = np.sum(Y * Y, axis=0)[None, :]
            ref = np.exp(-gamma * np.maximum(sq_x + sq_y - 2.0 * (X.T @ Y), 0.0))
            # every RBF value is >= 0, so ranking by |v| ranks by value
            assert np.all(got >= 0.0)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_raises_in_any_row_block(self, kind, value):
        rng = default_rng(41)
        X, Y = rng.random((4, 6)), rng.random((4, 5))
        # the last column of X gives the last row block: one row per block here
        X[0, -1] = value
        with patch.object(linalg, "CHUNK_BYTES", 1), np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite kernel"):
                kernel_matrix(X, Y, KernelSpec(kind=kind, gamma=0.5))

    @pytest.mark.parametrize("transposed", [False, True])
    def test_infinite_column_with_one_signed_product_raises(self, transposed):
        # X'Y = -inf makes the squared distance +inf and exp(-inf) = 0, a finite value
        X, Y = np.array([[np.inf], [0.0]]), np.array([[-1.0], [0.0]])
        if transposed:
            X, Y = Y, X
        with pytest.raises(NumericalError, match="non-finite kernel"):
            kernel_matrix(X, Y, KernelSpec(gamma=1.0))


class TestKernelCache:
    def test_slices_match_direct_recomputation(self, rng):
        d = build_dictionary(rng.normal(size=(15, 6)), [1] * 8 + [2] * 7, NORM_RANGE)
        spec = KernelSpec(kind="rbf", gamma=0.3)
        cache = kernel_cache(d, spec)
        idx = rng.choice(15, 5, replace=False)
        direct = kernel_matrix(d.columns[:, idx], d.columns[:, idx], spec)
        np.testing.assert_allclose(cache.gram[np.ix_(idx, idx)], direct, atol=1e-12)

    def test_builds_one_gram_plus_a_chunk(self):
        rng = default_rng(42)
        n = 960
        d = build_dictionary(rng.normal(size=(n, 200)), np.repeat(np.arange(1, 17), n // 16), NORM_RANGE)
        spec = KernelSpec(kind="rbf", gamma=0.5)
        kernel_cache(d, spec)
        tracemalloc.start()
        try:
            kernel_cache(d, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the N x N result and about CHUNK_BYTES of work, no full-size temporaries
        assert peak < n * n * 8 + (2 << 20)

    def test_gram_submatrices_psd(self):
        rng = default_rng(21)
        d = build_dictionary(rng.normal(size=(40, 5)), [1] * 20 + [2] * 20, NORM_RANGE)
        cache = kernel_cache(d, KernelSpec(kind="rbf", gamma=1.0))
        for _ in range(20):
            k = int(rng.integers(2, 21))
            idx = rng.choice(40, k, replace=False)
            sub = cache.gram[np.ix_(idx, idx)]
            assert np.linalg.eigvalsh(sub).min() >= -1e-10


class TestKbtcClassify:
    def _dict(self, seed=22, n=20, b=6):
        rng = default_rng(seed)
        samples = np.vstack(
            [rng.normal(0, 0.3, (n // 2, b)), rng.normal(2, 0.3, (n // 2, b))]
        )
        return build_dictionary(samples, [1] * (n // 2) + [2] * (n // 2), NORM_RANGE)

    def test_training_atom_self_match(self):
        d = self._dict()
        spec = KernelSpec(kind="rbf", gamma=1.0)
        cache = kernel_cache(d, spec)
        params = KbtcParams(m=3, alpha=1e-9, spec=spec)
        res, code = kbtc_classify(d, d.columns[:, 0], params, cache)
        assert res.predicted_class == 1
        assert res.values[0] <= 1e-3
        assert 0 in code.support

    def test_matches_brute_force_oracle(self):
        rng = default_rng(23)
        for _ in range(20):
            b = int(rng.integers(3, 10))
            n = int(rng.integers(8, 25))
            samples = rng.normal(size=(n, b))
            labels = np.sort(rng.integers(1, 4, size=n))
            labels[:3] = [1, 2, 3]
            labels = np.sort(labels)
            d = build_dictionary(samples, labels, NORM_RANGE)
            gamma = float(rng.uniform(0.1, 2.0))
            spec = KernelSpec(kind="rbf", gamma=gamma)
            cache = kernel_cache(d, spec)
            m = int(rng.integers(1, min(b, n)))
            y = rng.uniform(0, 1, b)
            res, _ = kbtc_classify(d, y, KbtcParams(m=m, alpha=1e-4, spec=spec), cache)
            oracle, _ = oracle_kbtc(d, y, m, 1e-4, gamma)
            np.testing.assert_allclose(res.values, oracle, atol=1e-9)

    def test_linear_kernel_bridges_to_btc(self):
        rng = default_rng(24)
        d = random_dictionary(rng, b=8, n=16, n_classes=2)
        y = rng.normal(size=8)
        # normalized as BTC normalizes its rows, so both select on the same correlations
        yn = (y[None] / np.linalg.norm(y[None], axis=1)[:, None])[0]
        res_b, code_b = btc_classify(d, y, BtcParams(m=5, alpha=0.01))
        spec = KernelSpec(kind="linear")
        cache = kernel_cache(d, spec)
        res_k, code_k = kbtc_classify(d, yn, KbtcParams(m=5, alpha=0.01, spec=spec), cache)
        np.testing.assert_array_equal(code_k.support, code_b.support)
        np.testing.assert_allclose(res_k.values, res_b.values, atol=1e-9)

    def test_rings_separable_only_with_kernel(self):
        x_tr, y_tr = make_rings(100, 30)
        x_te, y_te = make_rings(100, 31)
        dk = build_dictionary(x_tr, y_tr, NORM_RANGE)
        spec = KernelSpec(kind="rbf", gamma=1.0)
        cache = kernel_cache(dk, spec)
        params = KbtcParams(m=5, alpha=1e-9, spec=spec)
        x_te_s = dk.scaling.apply(x_te)
        pred_k = np.array(
            [kbtc_classify(dk, x, params, cache)[0].predicted_class for x in x_te_s]
        )
        dl = build_dictionary(x_tr, y_tr, NORM_L2)
        pred_l = np.array(
            [
                btc_classify(dl, x, BtcParams(m=5, alpha=0.01))[0].predicted_class
                for x in x_te
            ]
        )
        assert np.mean(pred_k == y_te) >= 0.95
        assert np.mean(pred_l == y_te) <= 0.7

    def test_cache_spec_mismatch_rejected(self):
        d = self._dict()
        cache = kernel_cache(d, KernelSpec(kind="rbf", gamma=1.0))
        params = KbtcParams(m=3, alpha=1e-9, spec=KernelSpec(kind="rbf", gamma=2.0))
        with pytest.raises(ConfigError, match="different spec"):
            kbtc_classify(d, d.columns[:, 0], params, cache)

    def test_radicands_stay_non_negative(self):
        rng = default_rng(25)
        for _ in range(200):
            d = build_dictionary(
                rng.normal(size=(12, 4)), [1] * 6 + [2] * 6, NORM_RANGE
            )
            spec = KernelSpec(kind="rbf", gamma=float(rng.uniform(0.05, 4.0)))
            cache = kernel_cache(d, spec)
            y = rng.uniform(-0.2, 1.2, 4)
            res, _ = kbtc_classify(
                d, y, KbtcParams(m=3, alpha=1e-6, spec=spec), cache
            )
            assert np.all(res.values >= 0)


class TestResidualAlt:
    def test_zero_code_gives_unit_residuals(self):
        rng = default_rng(26)
        d = build_dictionary(rng.normal(size=(10, 4)), [1] * 5 + [2] * 5, NORM_RANGE)
        spec = KernelSpec(kind="rbf", gamma=0.5)
        cache = kernel_cache(d, spec)
        from btckit.btc import SparseCode

        code = SparseCode(support=np.array([0]), coefficients=np.array([0.0]), ambient_size=10)
        res = kbtc_residual_alt(d, rng.uniform(0, 1, 4), code, cache)
        np.testing.assert_allclose(res.values, [1.0, 1.0])

    def test_exact_representation_gives_zero(self):
        # a training atom represented by itself with unit coefficient:
        # K(y,y) = x' K(A_i, y) = 1
        rng = default_rng(27)
        d = build_dictionary(rng.normal(size=(10, 4)), [1] * 5 + [2] * 5, NORM_RANGE)
        spec = KernelSpec(kind="rbf", gamma=0.5)
        cache = kernel_cache(d, spec)
        from btckit.btc import SparseCode

        code = SparseCode(support=np.array([2]), coefficients=np.array([1.0]), ambient_size=10)
        res = kbtc_residual_alt(d, d.columns[:, 2], code, cache)
        assert res.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_argmin_agrees_on_separable_draws(self):
        rng = default_rng(28)
        agree = 0
        total = 1000
        for _ in range(total):
            samples = np.vstack(
                [rng.normal(0, 0.2, (8, 4)), rng.normal(1.5, 0.2, (8, 4))]
            )
            d = build_dictionary(samples, [1] * 8 + [2] * 8, NORM_RANGE)
            spec = KernelSpec(kind="rbf", gamma=1.0)
            cache = kernel_cache(d, spec)
            params = KbtcParams(m=3, alpha=1e-6, spec=spec)
            cls = int(rng.integers(1, 3))
            y = d.scaling.apply(rng.normal(0 if cls == 1 else 1.5, 0.2, 4))
            res, code = kbtc_classify(d, y, params, cache)
            alt = kbtc_residual_alt(d, y, code, cache)
            agree += res.predicted_class == alt.predicted_class
        assert agree / total >= 0.95


class TestKbtcBeta:
    def _clustered(self, seed=29):
        rng = default_rng(seed)
        samples = np.vstack(
            [rng.normal(0, 0.05, (6, 5)), rng.normal(1, 0.05, (6, 5))]
        )
        return build_dictionary(samples, [1] * 6 + [2] * 6, NORM_RANGE)

    def test_tight_clusters_are_identifiable(self):
        d = self._clustered()
        gram = kernel_cache(d, KernelSpec(kind="rbf", gamma=1.0)).gram
        betas = beta_profile(d, [3], 1e-9, gram)[0]
        assert max(betas) < 0.5

    def test_large_gamma_limit_is_one(self):
        d = self._clustered()
        gram = kernel_cache(d, KernelSpec(kind="rbf", gamma=1e6)).gram
        beta = beta_profile(d, [3], 1e-9, gram)[0, 0]
        assert beta == pytest.approx(1.0, abs=1e-6)

    def test_matches_independent_oracle(self):
        rng = default_rng(31)
        d = build_dictionary(rng.normal(size=(14, 5)), [1] * 7 + [2] * 7, NORM_RANGE)
        gamma = 0.8
        spec = KernelSpec(kind="rbf", gamma=gamma)
        cache = kernel_cache(d, spec)
        m = 4
        betas = beta_profile(d, [m], 1e-4, cache.gram)[0]
        for col in range(14):
            cid = int(d.labels[col])
            got = betas[col]
            # oracle: rank kernel values, drop self, take m-1, solve, residuals
            a = d.columns[:, col]
            v = np.array([rbf_oracle(d.columns[:, i], a, gamma) for i in range(14)])
            ranked = [i for i in sorted(range(14), key=lambda i: (-v[i], i)) if i != col]
            support = np.array(ranked[: m - 1])
            residuals, _ = oracle_kbtc(d, a, m, 1e-4, gamma, support=support)
            rivals = np.delete(residuals, cid - 1)
            assert got == pytest.approx(residuals[cid - 1] / rivals.min(), abs=1e-9)

    def test_prop2_consistency(self):
        # identifiable training columns classify to their own class
        d = self._clustered()
        spec = KernelSpec(kind="rbf", gamma=1.0)
        cache = kernel_cache(d, spec)
        params = KbtcParams(m=3, alpha=1e-9, spec=spec)
        betas = beta_profile(d, [3], 1e-9, cache.gram)[0]
        for col in range(d.n_samples):
            if betas[col] < 1.0:
                res, _ = kbtc_classify(d, d.columns[:, col], params, cache)
                assert res.predicted_class == d.labels[col]


class TestEstimation:
    def test_single_gamma_grid(self):
        d = TestKbtcBeta()._clustered()
        gamma_hat, _, profile, _ = kbtc_estimate_params(d, 1e-9, gamma_grid=[0.25])
        assert gamma_hat == 0.25
        assert len(profile) == 1

    def test_default_grid_is_powers_of_two(self):
        grid = default_gamma_grid()
        assert grid[0] == pytest.approx(2.0**-10)
        assert grid[-1] == pytest.approx(2.0)
        assert len(grid) == 12

    def test_profile_and_argmin_match_recompute(self):
        rng = default_rng(32)
        d = build_dictionary(rng.normal(size=(10, 4)), [1] * 5 + [2] * 5, NORM_RANGE)
        grid = [0.1, 1.0, 10.0]
        gamma_hat, m_hat, g_prof, m_prof = kbtc_estimate_params(d, 1e-6, gamma_grid=grid)
        # gamma profile: recompute via the single-M averages
        for gamma, beta in g_prof:
            spec = KernelSpec(kind="rbf", gamma=gamma)
            cache = kernel_cache(d, spec)
            direct = np.mean([kbtc_beta_average_m(d, cache, m, 1e-6) for m in range(1, 4)])
            assert beta == pytest.approx(direct, abs=1e-10)
        assert gamma_hat == min(g_prof, key=lambda t: t[1])[0]
        # M profile at gamma_hat
        spec = KernelSpec(kind="rbf", gamma=gamma_hat)
        cache = kernel_cache(d, spec)
        for m, beta in m_prof:
            assert beta == pytest.approx(kbtc_beta_average_m(d, cache, m, 1e-6), abs=1e-10)
        assert m_hat == min(m_prof, key=lambda t: (t[1], t[0]))[0]

    def test_one_kernel_gram_per_grid_point(self, monkeypatch):
        d = TestKbtcBeta()._clustered()
        built = []
        real = kbtc.kernel_cache

        def counting(dictionary, spec):
            built.append(spec.gamma)
            return real(dictionary, spec)

        monkeypatch.setattr(kbtc, "kernel_cache", counting)
        grid = [0.1, 1.0, 10.0]
        kbtc_estimate_params(d, 1e-6, gamma_grid=grid)
        assert built == grid

    def test_m_profile_equals_beta_profile_at_gamma_hat(self):
        rng = default_rng(34)
        d = build_dictionary(rng.normal(size=(18, 7)), [1] * 6 + [2] * 6 + [3] * 6, NORM_RANGE)
        gamma_hat, _, _, m_prof = kbtc_estimate_params(d, 1e-6, gamma_grid=[0.1, 1.0, 10.0])
        ms = list(range(2, d.n_features))
        gram = kernel_cache(d, KernelSpec(kind="rbf", gamma=gamma_hat)).gram
        ref = beta_profile(d, ms, 1e-6, gram).mean(axis=1)
        assert [m for m, _ in m_prof] == ms
        np.testing.assert_allclose([b for _, b in m_prof], ref, rtol=0, atol=1e-12)

    def test_m_equal_one_contributes_exactly_one(self):
        rng = default_rng(33)
        d = build_dictionary(rng.normal(size=(8, 4)), [1] * 4 + [2] * 4, NORM_RANGE)
        cache = kernel_cache(d, KernelSpec(kind="rbf", gamma=0.5))
        assert kbtc_beta_average_m(d, cache, 1, 1e-9) == pytest.approx(1.0, abs=1e-12)

    def test_empty_grid_rejected(self):
        d = TestKbtcBeta()._clustered()
        with pytest.raises(ConfigError, match="empty gamma grid"):
            kbtc_estimate_params(d, 1e-9, gamma_grid=[])
