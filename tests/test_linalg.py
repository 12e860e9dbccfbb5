"""Numerical kernels: SPD solves, top-M selection, PCA, coherence."""

import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from numpy.random import default_rng

from btckit import (
    build_dictionary,
    mutual_coherence,
    pca_first_component,
    solve_spd_regularized,
    top_m_select,
)
from btckit import linalg
from btckit.errors import ConfigError, DataFormatError
from btckit.linalg import top_m_rows


class TestSolveSpdRegularized:
    def test_identity_plus_alpha(self):
        x = solve_spd_regularized(np.eye(2), np.array([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(x, [1.5, 2.0])

    def test_scalar_system(self):
        x = solve_spd_regularized(np.array([[4.0]]), np.array([2.0]), 0.0)
        np.testing.assert_allclose(x, [0.5])

    def test_matches_dense_lu_oracle(self, rng):
        M = rng.normal(size=(5, 5))
        G = M.T @ M
        b = rng.normal(size=5)
        alpha = 1e-4
        oracle = np.linalg.solve(G + alpha * np.eye(5), b)
        np.testing.assert_allclose(solve_spd_regularized(G, b, alpha), oracle, atol=1e-9)

    def test_residual_bound_randomized(self):
        rng = default_rng(77)
        for trial in range(1000):
            n = int(rng.integers(1, 65))
            M = rng.normal(size=(n, n))
            G = M.T @ M
            b = rng.normal(size=n)
            alpha = [0.0, 1e-10, 1e-4, 1e-2][trial % 4]
            if alpha == 0.0:
                G = G + 1e-6 * np.eye(n)  # keep the unregularized case PD
            H = G + alpha * np.eye(n)
            x = solve_spd_regularized(G, b, alpha)
            resid = np.linalg.norm(H @ x - b)
            # backward-stable solve: residual scales with conditioning
            bound = 1e3 * np.finfo(np.float64).eps * np.linalg.cond(H)
            assert resid <= max(bound, 1e-10) * np.linalg.norm(b)

    def test_tikhonov_shrinkage_monotone(self, rng):
        M = rng.normal(size=(8, 8))
        G = M.T @ M
        b = rng.normal(size=8)
        norms = [
            np.linalg.norm(solve_spd_regularized(G, b, a))
            for a in (1e-6, 1e-4, 1e-2, 1e-1, 0.5)
        ]
        assert all(n2 <= n1 + 1e-12 for n1, n2 in zip(norms, norms[1:]))

    def test_non_square_rejected(self):
        with pytest.raises(ConfigError):
            solve_spd_regularized(np.ones((2, 3)), np.ones(2), 0.1)

    @pytest.mark.parametrize("alpha", [-1e-3, np.nan, np.inf])
    def test_alpha_not_finite_and_non_negative_rejected(self, alpha):
        with pytest.raises(ConfigError, match="alpha must be finite and >= 0"):
            solve_spd_regularized(np.eye(2), np.ones(2), alpha)


class TestTopMSelect:
    def test_magnitude_ranking(self):
        sel = top_m_select(np.array([0.1, -0.9, 0.5]), 2)
        np.testing.assert_array_equal(sel, [1, 2])

    def test_tie_break_ascending_index(self):
        sel = top_m_select(np.array([0.5, 0.5, 0.1]), 1)
        np.testing.assert_array_equal(sel, [0])

    def test_matches_sort_oracle(self, rng):
        v = rng.normal(size=200)
        sel = top_m_select(v, 50)
        oracle = sorted(range(200), key=lambda i: (-abs(v[i]), i))[:50]
        np.testing.assert_array_equal(sel, oracle)

    def test_full_selection_and_permutation_equivariance(self, rng):
        v = rng.normal(size=20)
        assert set(top_m_select(v, 20)) == set(range(20))
        perm = rng.permutation(20)
        sel_perm = top_m_select(v[perm], 5)
        # map back: selecting on the permuted vector must pick the same values
        np.testing.assert_allclose(np.abs(v[perm][sel_perm]), np.abs(v[top_m_select(v, 5)]))

    def test_m_out_of_range(self):
        with pytest.raises(ConfigError):
            top_m_select(np.ones(3), 4)
        with pytest.raises(ConfigError):
            top_m_select(np.ones(3), 0)


class TestTopMSelectExcluding:
    """top_m_rows with ``exclude``: the selection a beta profile codes each column on."""

    def test_excluded_is_maximum(self):
        sel = top_m_rows(np.array([[1.0, 0.9, 0.8]]), 2, exclude=np.array([0]))
        np.testing.assert_array_equal(sel, [[1, 2]])

    def test_excluded_not_maximum(self):
        sel = top_m_rows(np.array([[0.9, 1.0]]), 1, exclude=np.array([0]))
        np.testing.assert_array_equal(sel, [[1]])

    def test_matches_drop_oracle(self, rng):
        V = rng.normal(size=(3, 60))
        excluded = np.array([17, 0, 59])
        sel = top_m_rows(V, 9, exclude=excluded)
        for v, e, row in zip(V, excluded, sel):
            oracle = [i for i in sorted(range(60), key=lambda i: (-abs(v[i]), i)) if i != e]
            np.testing.assert_array_equal(row, oracle[:9])

    def test_excluded_out_of_range(self):
        with pytest.raises(ConfigError):
            top_m_rows(np.ones((1, 3)), 1, exclude=np.array([5]))


class TestChunks:
    @pytest.mark.parametrize("chunk_bytes, floats", [(1, 1), (64, 3), (80, 1), (800, 7), (1 << 20, 400 + 121)])
    def test_as_many_slices_as_fixed_steps_sized_within_one(self, chunk_bytes, floats):
        step = max(1, chunk_bytes // (8 * floats))
        with patch.object(linalg, "CHUNK_BYTES", chunk_bytes):
            for n in (*range(60), 399, 400, 401, 1000):
                slices = list(linalg.chunks(n, floats))
                assert len(slices) == -(-n // step)  # the count of fixed steps of `step` items
                assert [i for sl in slices for i in range(n)[sl]] == list(range(n))  # in order, each once
                sizes = [sl.stop - sl.start for sl in slices]
                assert not sizes or (max(sizes) - min(sizes) <= 1 and max(sizes) <= step)


class TestPcaFirstComponent:
    def test_single_band_identity(self, rng):
        values = rng.normal(size=(4, 5, 1))
        out = pca_first_component(values)
        band = values[:, :, 0]
        expected = (band - band.min()) / (band.max() - band.min())
        np.testing.assert_allclose(out, expected)

    def test_rank_one_cube_recovers_base(self, rng):
        base = rng.normal(size=(6, 6))
        coeffs = np.array([1.0, 2.0, -0.5])
        values = base[:, :, None] * coeffs[None, None, :]
        out = pca_first_component(values)
        expected = (base - base.min()) / (base.max() - base.min())
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_matches_eigendecomposition_oracle(self, rng):
        values = rng.normal(size=(8, 8, 4))
        out = pca_first_component(values)
        X = values.reshape(64, 4)
        Xc = X - X.mean(axis=0)
        cov = (Xc.T @ Xc) / 63
        w, V = np.linalg.eigh(cov)
        score = Xc @ V[:, -1]
        corr = abs(np.corrcoef(out.ravel(), score)[0, 1])
        assert corr >= 0.9999

    def test_band_permutation_invariance(self, rng):
        values = rng.normal(size=(5, 5, 6))
        out = pca_first_component(values)
        perm = rng.permutation(6)
        out_p = pca_first_component(values[:, :, perm])
        np.testing.assert_allclose(out, out_p, atol=1e-6)

    def test_constant_cube_gives_zeros(self):
        # a rounded band mean leaves centered noise at the larger shapes; exactly
        # zero is the answer whatever the shape, value or dtype
        for (h, w, b), level in (((7, 9, 5), 0.3), ((145, 145, 30), 0.37), ((61, 37, 20), 0.37)):
            for values in (np.full((h, w, b), level), np.tile(np.linspace(0.1, 0.9, b), (h, w, 1))):
                for dtype in (np.float64, np.float32):
                    out = pca_first_component(values.astype(dtype))
                    np.testing.assert_array_equal(out, np.zeros((h, w)))

    def test_float32_cube_equals_widened_cube_bit_for_bit(self, rng):
        # band-sequential float32, as load_hsi_cube returns an f32 file
        values = rng.normal(size=(6, 9, 7)).astype(np.float32).transpose(1, 2, 0)
        with patch.object(linalg, "CHUNK_BYTES", 1):
            out32 = pca_first_component(values)
            out64 = pca_first_component(values.astype(np.float64))
        np.testing.assert_array_equal(out32, out64)

    def test_memory_bounded_by_row_blocks(self, rng):
        h, w, b = 64, 64, 50
        values = rng.normal(size=(h, w, b)) + rng.normal(size=(h, w, 1)) * np.linspace(0, 3, b)
        with patch.object(linalg, "CHUNK_BYTES", 1 << 15):
            tracemalloc.start()
            try:
                out = pca_first_component(values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < values.nbytes / 4
        # the whole-cube formula: center every pixel at once, then project
        X = values.reshape(h * w, b)
        Xc = X - X.mean(axis=0)
        score = Xc @ np.linalg.eigh(Xc.T @ Xc / (h * w - 1))[1][:, -1]
        if score @ Xc.mean(axis=1) < 0:
            score = -score
        expected = ((score - score.min()) / (score.max() - score.min())).reshape(h, w)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_values_too_large_raise_data_format_error_unwarned(self, rng):
        values = rng.normal(size=(6, 5, 4)) * 1e300  # finite, but their squares are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="band covariance is not finite"):
                pca_first_component(values)

    def test_output_in_unit_interval(self, rng):
        values = rng.normal(size=(4, 4, 3)) * 100
        out = pca_first_component(values)
        assert out.min() == 0.0 and out.max() == 1.0


class TestMutualCoherence:
    def test_orthogonal_columns(self):
        d = build_dictionary(np.eye(2), [1, 2])
        assert mutual_coherence(d) == 0.0

    def test_duplicate_columns(self):
        samples = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        d = build_dictionary(samples, [1, 1, 2])
        assert mutual_coherence(d) == pytest.approx(1.0)

    def test_matches_exhaustive_pairs(self, rng):
        samples = rng.normal(size=(20, 10))
        d = build_dictionary(samples, [1] * 10 + [2] * 10)
        mu = mutual_coherence(d)
        best = max(
            abs(float(d.columns[:, i] @ d.columns[:, j]))
            for i in range(20)
            for j in range(20)
            if i != j
        )
        assert mu == pytest.approx(best, abs=1e-15)
        assert 0.0 <= mu <= 1.0
