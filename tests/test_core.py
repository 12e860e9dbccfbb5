"""The batched Gram-space core: selection, solves, class residuals, beta profiles."""

import dataclasses
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
    Dictionary,
    KbtcParams,
    KernelSpec,
    btc_classify,
    btc_estimate_threshold,
    btc_residuals,
    build_dictionary,
    build_residual_cube,
    ensemble_classify,
    ensemble_residuals,
    kbtc_classify,
    kbtc_estimate_params,
    kbtc_residuals,
    kernel_cache,
    residuals,
    top_m_select,
)
from btckit import linalg
from btckit.linalg import KERNEL_LINEAR, beta_profile, gram_residuals, top_m_rows
from btckit.data import NORM_L2, NORM_RANGE
from btckit.errors import ConfigError, NumericalError
from tests.conftest import make_train_mask

SETTINGS = settings(max_examples=40, deadline=None)

# (seed, features, samples per class, classes, M)
problems = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(4, 16),
    st.integers(2, 8),
    st.integers(2, 4),
    st.integers(1, 15),
)


def _problem(seed, b, per_class, c, m, norm_mode=NORM_L2):
    rng = default_rng(seed)
    samples = rng.normal(size=(per_class * c, b))
    labels = np.repeat(np.arange(1, c + 1), per_class)
    d = build_dictionary(samples, labels, norm_mode)
    return rng, d, min(m, b - 1, d.n_samples)


def _stable_top(scores, m):
    return sorted(range(scores.size), key=lambda i: (-scores[i], i))[:m]


def _tiny_chunks():
    """Chunks of one or two samples, so batches cross many chunk boundaries."""
    return patch.object(linalg, "CHUNK_BYTES", 1)


class TestResidualsDispatch:
    def test_params_pick_the_classifier_bit_for_bit(self):
        rng, d, m = _problem(3, 8, 5, 3, 4)
        _, dr, _ = _problem(3, 8, 5, 3, 4, norm_mode=NORM_RANGE)
        Y = rng.normal(size=(7, 8))
        btc = BtcParams(m=m, alpha=0.01)
        np.testing.assert_array_equal(residuals(d, Y, btc), btc_residuals(d, Y, btc))
        for spec in (KernelSpec(gamma=0.5), KernelSpec(kind=KERNEL_LINEAR)):
            kbtc = KbtcParams(m=m, alpha=0.01, spec=spec)
            np.testing.assert_array_equal(residuals(dr, Y, kbtc), kbtc_residuals(dr, Y, kbtc))
        # a linear KbtcParams is KBTC's even on an L2 dictionary, where BTC would
        # also accept it but normalize the rows first
        linear = KbtcParams(m=m, alpha=0.01, spec=KernelSpec(kind=KERNEL_LINEAR))
        got = residuals(d, Y, linear)
        np.testing.assert_array_equal(got, kbtc_residuals(d, Y, linear))
        assert not np.allclose(got, btc_residuals(d, Y, linear))

    def test_norm_mode_is_a_class_constant_not_a_field(self):
        assert (BtcParams.norm_mode, KbtcParams.norm_mode) == (NORM_L2, NORM_RANGE)
        assert [f.name for f in dataclasses.fields(BtcParams)] == ["m", "alpha"]
        assert [f.name for f in dataclasses.fields(KbtcParams)] == ["m", "alpha", "spec"]
        assert BtcParams(m=2, alpha=0.1).norm_mode == NORM_L2


class TestBatchEqualsSingle:
    @SETTINGS
    @given(problems, st.integers(1, 9))
    def test_btc(self, problem, s):
        rng, d, m = _problem(*problem)
        Y = rng.normal(size=(s, d.n_features))
        params = BtcParams(m=m, alpha=0.01)
        single = np.array([btc_classify(d, y, params)[0].values for y in Y])
        for chunking in (nullcontext(), _tiny_chunks()):
            with chunking:
                batch = btc_residuals(d, Y, params)
            np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    @SETTINGS
    @given(problems, st.integers(1, 9), st.floats(0.05, 4.0))
    def test_kbtc(self, problem, s, gamma):
        rng, d, m = _problem(*problem, norm_mode=NORM_RANGE)
        Y = rng.uniform(-0.2, 1.2, size=(s, d.n_features))
        spec = KernelSpec(kind="rbf", gamma=gamma)
        params = KbtcParams(m=m, alpha=1e-4, spec=spec)
        cache = kernel_cache(d, spec)
        # the batch form takes raw rows; the S=1 wrapper takes them scaled
        single = np.array([kbtc_classify(d, y, params, cache)[0].values for y in d.scaling.apply(Y)])
        for chunking in (nullcontext(), _tiny_chunks()):
            with chunking:
                batch = kbtc_residuals(d, Y, params)
            np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_ensemble(self, seed, n):
        rng = default_rng(seed)
        x = rng.normal(size=(12, 20))
        labels = np.repeat([1, 2, 3], 4)
        Y = rng.normal(size=(5, 20))
        params = BtcParams(m=4, alpha=0.01)
        batch = ensemble_residuals(x, labels, Y, n, params, 8, 3, seed % 1000)
        single = np.array(
            [ensemble_classify(x, labels, y, n, params, 8, 3, seed % 1000)[1].values for y in Y]
        )
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    @SETTINGS
    @given(problems)
    def test_btc_beta_profile(self, problem):
        _, d, _ = _problem(*problem)
        with _tiny_chunks():
            _, profile = btc_estimate_threshold(d, 0.01)
        profile = profile[: d.n_samples - 1]
        full = beta_profile(d, [m for m, _ in profile], 0.01)  # in chunks of the default size
        for (_, beta), row in zip(profile, full):
            assert beta == pytest.approx(np.mean(row), rel=0, abs=1e-12)

    def test_kbtc_cube_scales_raw_pixels(self):
        rng, d, m = _problem(5, 6, 5, 3, 4, norm_mode=NORM_RANGE)
        cube = rng.normal(size=(3, 4, 6))
        spec = KernelSpec(kind="rbf", gamma=0.7)
        params = KbtcParams(m=m, alpha=1e-4, spec=spec)
        with _tiny_chunks():
            _, classmap = build_residual_cube(cube, d, params)
        pixels = d.scaling.apply(cube.reshape(12, 6))
        cache = kernel_cache(d, spec)
        single = [kbtc_classify(d, y, params, cache)[0].predicted_class for y in pixels]
        np.testing.assert_array_equal(classmap.ravel(), single)

    def test_kbtc_beta_profile(self):
        _, d, _ = _problem(7, 5, 6, 2, 3, norm_mode=NORM_RANGE)
        with _tiny_chunks():
            gamma_hat, _, _, m_profile = kbtc_estimate_params(d, 1e-6, gamma_grid=[0.5, 2.0])
        gram = kernel_cache(d, KernelSpec(kind="rbf", gamma=gamma_hat)).gram
        full = beta_profile(d, [m for m, _ in m_profile], 1e-6, gram)  # in chunks of the default size
        for (_, beta), row in zip(m_profile, full):
            assert beta == pytest.approx(np.mean(row), rel=0, abs=1e-12)


def _block_calls(monkeypatch):
    """A list that grows by one per call of the block side's helper."""
    calls, real = [], linalg._support_blocks

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(linalg, "_support_blocks", counted)
    return calls


def _tied_problem(seed, norm_mode):
    """12 columns of B = 6 in 3 classes, one of them in three exact copies across two classes,
    and 5 rows, two of which equal that column: at M = 1 and 2 the M-th score ties."""
    rng = default_rng(seed)
    samples = rng.normal(size=(12, 6))
    samples[[3, 4, 9]] = samples[3]
    d = build_dictionary(samples, np.repeat([1, 2, 3], 4), norm_mode)
    Y = rng.normal(size=(5, 6))
    Y[[1, 3]] = samples[3]
    return d, Y


class TestBlockSideEqualsMatrixSide:
    """Batches with S M^2 <= N^2 form each support's kernel block from its atoms; larger ones
    gather it from the N x N matrix. The side is chosen by the batch size alone."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["btc", "linear", "rbf"])
    @pytest.mark.parametrize("tiny", [False, True])
    def test_sides_agree(self, monkeypatch, seed, m, kind, tiny):
        d, Y = _tied_problem(seed, NORM_L2 if kind == "btc" else NORM_RANGE)
        if kind == "btc":
            params = BtcParams(m=m, alpha=0.01)
            run = btc_residuals
        else:
            params = KbtcParams(m=m, alpha=1e-4, spec=KernelSpec(kind=kind, gamma=0.7))
            run = kbtc_residuals
        big = np.concatenate([Y] * (d.n_samples**2 // (len(Y) * m * m) + 1))
        assert len(Y) * m * m <= d.n_samples**2 < len(big) * m * m
        calls = _block_calls(monkeypatch)
        with _tiny_chunks() if tiny else nullcontext():
            blocks = run(d, Y, params)
            assert calls
            calls.clear()
            matrix = run(d, big, params)
            assert not calls
        np.testing.assert_allclose(blocks, matrix[: len(Y)], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["btc", "rbf"])
    def test_small_batch_holds_no_kernel_matrix(self, kind):
        rng = default_rng(5)
        n = 600
        samples, labels = rng.normal(size=(n, 20)), np.repeat([1, 2, 3], n // 3)
        if kind == "btc":
            d, params, run = build_dictionary(samples, labels), BtcParams(m=5, alpha=0.01), btc_residuals
        else:
            d = build_dictionary(samples, labels, NORM_RANGE)
            params = KbtcParams(m=5, alpha=1e-4, spec=KernelSpec(kind="rbf", gamma=0.5))
            run = kbtc_residuals
        Y = rng.normal(size=(8, 20))
        tracemalloc.start()
        try:
            run(d, Y, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the N x N matrix alone would be n * n * 8 bytes
        assert peak < n * n * 8 / 8


def _float32_cube(seed, h, w, b):
    """A float32 cube in the band-sequential layout load_hsi_cube returns, and its float64 twin."""
    values = default_rng(seed).uniform(0.1, 1.0, size=(b, h, w)).astype(np.float32).transpose(1, 2, 0)
    # astype keeps the band-sequential strides, as widening the raw file up front did
    return values, values.astype(np.float64)


def _cube_params(bands, kind):
    """A 3-class dictionary of 60 random spectra, and BTC or KBTC parameters."""
    train, labels = default_rng(0).uniform(0.1, 1.0, size=(60, bands)), np.repeat([1, 2, 3], 20)
    if kind == "btc":
        return build_dictionary(train, labels, NORM_L2), BtcParams(m=4, alpha=0.01)
    spec = KernelSpec(kind="rbf", gamma=0.5)
    return build_dictionary(train, labels, NORM_RANGE), KbtcParams(m=4, alpha=1e-4, spec=spec)


class TestFloat32Cube:
    @pytest.mark.parametrize("kind", ["btc", "kbtc"])
    def test_residual_cube_equals_widened_cube_bit_for_bit(self, kind):
        cube32, cube64 = _float32_cube(9, 6, 7, 12)
        d, params = _cube_params(cube32.shape[2], kind)
        with _tiny_chunks():
            r32, map32 = build_residual_cube(cube32, d, params)
            r64, map64 = build_residual_cube(cube64, d, params)
        np.testing.assert_array_equal(r32, r64)
        np.testing.assert_array_equal(map32, map64)

    @pytest.mark.parametrize("kind", ["btc", "kbtc"])
    def test_memory_below_the_widened_cube(self, kind):
        cube32, _ = _float32_cube(10, 64, 64, 100)
        d, params = _cube_params(cube32.shape[2], kind)
        widened = cube32.size * 8
        with patch.object(linalg, "CHUNK_BYTES", 1 << 15):
            tracemalloc.start()
            try:
                build_residual_cube(cube32, d, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # no copy of the cube is made, widened or not: a quarter of its float64
        # size is half its float32 size
        assert peak < widened / 4


class TestTies:
    @SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(2, 30),
        st.data(),
    )
    def test_boundary_ties_keep_ascending_index(self, seed, s, n, data):
        rng = default_rng(seed)
        # duplicated columns of a few integer levels: ties everywhere, at the
        # M-th score too
        base = rng.integers(-3, 4, size=(s, max(1, n // 3))).astype(float)
        V = base[:, rng.integers(0, base.shape[1], size=n)]
        m = data.draw(st.integers(1, n))
        got = top_m_rows(V, m)
        for row, v in zip(got, V):
            assert row.tolist() == _stable_top(np.abs(v), m)
            assert row.tolist() == top_m_select(v, m).tolist()

    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(3, 30), st.data())
    def test_exclusion_drops_only_that_column(self, seed, n, data):
        V = default_rng(seed).integers(-2, 3, size=(4, n)).astype(float)
        exclude = np.array([data.draw(st.integers(0, n - 1)) for _ in range(4)])
        m = data.draw(st.integers(1, n - 1))
        got = top_m_rows(V, m, exclude=exclude)
        for row, v, e in zip(got, V, exclude):
            ranked = [i for i in _stable_top(np.abs(v), n) if i != e]
            assert row.tolist() == ranked[:m]

    @SETTINGS
    @given(problems, st.integers(1, 5))
    def test_residual_ties_go_to_lowest_class(self, problem, s):
        rng, d, m = _problem(*problem)
        # atoms span only the first B-1 features; a sample along the last one
        # gets code 0 and the residual 1 in every class
        cols = d.columns.copy()
        cols[-1] = 0.0
        cols /= np.linalg.norm(cols, axis=0)
        flat = Dictionary(cols, d.labels, NORM_L2)
        Y = np.zeros((s, d.n_features))
        Y[:, -1] = rng.uniform(0.5, 2.0, s)
        residuals = btc_residuals(flat, Y, BtcParams(m=m, alpha=0.01))
        np.testing.assert_array_equal(residuals, 1.0)
        assert np.all(np.argmin(residuals, axis=1) == 0)
        assert btc_classify(flat, Y[0], BtcParams(m=m, alpha=0.01))[0].predicted_class == 1


class TestPermutationInvariance:
    @SETTINGS
    @given(problems, st.integers(1, 5))
    def test_columns_permuted_within_class(self, problem, s):
        seed, b, per_class, c, m = problem
        rng = default_rng(seed)
        samples = rng.normal(size=(per_class * c, b))
        labels = np.repeat(np.arange(1, c + 1), per_class)
        m = min(m, b - 1, samples.shape[0])
        perm = np.concatenate([rng.permutation(per_class) + k * per_class for k in range(c)])
        Y = rng.normal(size=(s, b))
        params = BtcParams(m=m, alpha=0.01)
        a = btc_residuals(build_dictionary(samples, labels), Y, params)
        p = btc_residuals(build_dictionary(samples[perm], labels[perm]), Y, params)
        np.testing.assert_allclose(a, p, rtol=0, atol=1e-10)


def _forge_blocks(monkeypatch, atom):
    """Give atom a negative self-kernel in every kernel block the core receives: any support
    holding it is not PD."""
    real = linalg.gram_residuals

    def forged(G, col_labels, n_classes, V, kyy, support, *args):
        mine = support == atom
        G = np.where(mine[:, :, None] & mine[:, None, :], -1.0, G)
        return real(G, col_labels, n_classes, V, kyy, support, *args)

    monkeypatch.setattr(linalg, "gram_residuals", forged)


class TestNumericalPolicy:
    def test_non_pd_system_names_the_sample(self, monkeypatch):
        rng = default_rng(3)
        train = rng.normal(size=(10, 4))
        d = build_dictionary(train, [1] * 5 + [2] * 5, NORM_RANGE)
        spec = KernelSpec(kind="rbf", gamma=1.0)
        params = KbtcParams(m=1, alpha=1e-6, spec=spec)
        _forge_blocks(monkeypatch, 7)
        # 6 rows take the block side, 106 the matrix side (106 * 1^2 > 10^2)
        for extra in (0, 100):
            # with M = 1 each sample selects the atom it equals
            Y = train[[0, 1, 2, 3, 7, 5] + [0] * extra]
            with _tiny_chunks(), pytest.raises(NumericalError, match="sample 4"):
                kbtc_residuals(d, Y, params)

    def test_non_pd_pixel_names_row_and_column(self, monkeypatch):
        rng = default_rng(4)
        train = rng.normal(size=(6, 5))
        d = build_dictionary(train, [1, 1, 1, 2, 2, 2], NORM_RANGE)
        spec = KernelSpec(kind="rbf", gamma=1.0)
        params = KbtcParams(m=1, alpha=1e-6, spec=spec)
        cube = train[[0, 1, 2, 3, 5, 4]].reshape(2, 3, 5)  # atom 4 sits at pixel (1,2)
        _forge_blocks(monkeypatch, 4)
        with pytest.raises(NumericalError, match=r"pixel \(1,2\)"):
            build_residual_cube(cube, d, params)

    def test_linear_kernel_on_large_raw_values_does_not_raise(self):
        # a sample equal to an atom leaves a radicand of order 0 next to terms
        # of order 1e9: the floor scales with K(y,y)
        spec = KernelSpec(kind="linear")
        for seed in range(5):
            cols = 1e4 * default_rng(seed).uniform(0, 1, (8, 12))
            d = Dictionary(cols, np.repeat([1, 2], 6), NORM_RANGE)
            params = KbtcParams(m=3, alpha=1e-9, spec=spec)
            residuals = kbtc_residuals(d, cols.T, params)
            assert np.all(residuals >= 0)

    def test_near_duplicate_atoms_at_tiny_alpha(self):
        # pairs of atoms 1.4e-5 apart, alpha 1e-10 and samples in their span:
        # codes reach about 1/(2 sqrt(alpha)), where the Gram form cancels
        alpha = 1e-10
        d, Y = _near_duplicate_problem()
        A, labels = d.columns, d.labels
        residuals = btc_residuals(d, Y, BtcParams(m=10, alpha=alpha))
        gram = A.T @ A
        for y, got in zip(Y, residuals):
            support = top_m_rows((y @ A)[None, :], 10)[0]
            x = linalg.solve_spd_regularized(gram[np.ix_(support, support)], y @ A[:, support], alpha)
            assert np.abs(x).max() > 1e3
            for j in (1, 2):
                own = labels[support] == j
                direct = np.linalg.norm(y - A[:, support[own]] @ x[own]) if own.any() else 1.0
                assert got[j - 1] == pytest.approx(direct, rel=0, abs=1e-8)
        # the Gram form (linear KBTC on the same rows) stays within its rounding
        spec = KernelSpec(kind="linear")
        kernel = kbtc_residuals(d, Y, KbtcParams(m=10, alpha=alpha, spec=spec))
        np.testing.assert_allclose(kernel, residuals, rtol=0, atol=1e-5)

    def test_forged_negative_radicand_raises(self):
        # |v| > sqrt(K(a,a) K(y,y)) breaks Cauchy-Schwarz: the radicand is about -99
        with pytest.raises(NumericalError, match="sample 0: negative residual radicand"):
            gram_residuals(
                np.array([[[1.0]]]), np.array([1]), 2, np.array([[10.0]]), np.array([1.0]),
                np.array([[0]]), 0.01,
            )

    def test_forged_negative_radicand_with_features_takes_the_feature_form(self):
        # the same forged values with BTC's features: the row is recomputed from them, and nothing raises
        atoms, y = np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])
        got, x = gram_residuals(
            np.array([[[1.0]]]), np.array([1]), 2, np.array([[10.0]]), np.array([1.0]),
            np.array([[0]]), 0.01, features=(atoms, y),
        )
        np.testing.assert_allclose(got, [[abs(1.0 - x[0, 0]), 1.0]], rtol=0, atol=1e-15)

    def test_radicand_floor_is_relative_to_self_kernel(self):
        def residuals(kyy):
            empty = np.empty((1, 0), dtype=np.int64)
            blocks = np.empty((1, 0, 0))
            return gram_residuals(blocks, np.array([1, 2]), 2, np.zeros((1, 2)), np.array([kyy]), empty, 0.01)[0]

        np.testing.assert_array_equal(residuals(-0.5e-10), 0.0)  # rounding: clamped
        with pytest.raises(NumericalError, match="negative residual radicand"):
            residuals(-2e-10)


def _near_duplicate_problem():
    """Ten pairs of unit atoms 1.4e-5 apart, split over two classes, and 20 unit rows in their span."""
    rng = default_rng(1)
    b = 40
    atoms, pairs = [], []
    for _ in range(10):
        a = rng.normal(size=b)
        a /= np.linalg.norm(a)
        u = rng.normal(size=b)
        u -= (u @ a) * a
        u /= np.linalg.norm(u)
        atoms += [a, a + 1.4e-5 * u]
        pairs.append((a, u))
    d = build_dictionary(np.array(atoms), np.repeat([1, 2], 10), NORM_L2)
    Y = np.array([sum(rng.normal() * a + rng.normal() * u for a, u in pairs[k:k + 5]) for k in (0, 5) * 10])
    return d, Y / np.linalg.norm(Y, axis=1)[:, None]


def _beta_reference(gram, labels, ms, alpha, features=None):
    """Per column and M: a stable-sort ranking without the column, one solve, per-class residuals.

    With ``features`` (N x B rows) a residual is ||a_g - A_j x_j||, else the
    kernel expansion sqrt(K(g,g) - 2 x_j'v_j + x_j'G_jj x_j), class by class.
    """
    n, n_classes = gram.shape[0], int(labels.max())
    out = np.empty((len(ms), n))
    for g in range(n):
        ranking = [i for i in _stable_top(np.abs(gram[g]), n) if i != g]
        for j, m in enumerate(ms):
            s = ranking[: m - 1]
            x = np.linalg.solve(gram[np.ix_(s, s)] + alpha * np.eye(len(s)), gram[s, g]) if s else np.zeros(0)
            res = []
            for c in range(1, n_classes + 1):
                own = [t for t, i in enumerate(s) if labels[i] == c]
                atoms, code = [s[t] for t in own], x[own]
                if features is not None:
                    res.append(np.linalg.norm(features[g] - code @ features[atoms]))
                else:
                    quad = gram[g, g] - 2 * code @ gram[atoms, g] + code @ gram[np.ix_(atoms, atoms)] @ code
                    res.append(np.sqrt(max(quad, 0.0)))
            rival = min(r for c, r in enumerate(res, 1) if c != labels[g])
            out[j, g] = np.inf if rival == 0 else res[labels[g] - 1] / rival
    return out


def _tie_exact_gram(columns, gram):
    """The Gram matrix with identical columns given bit-identical rows and columns."""
    gram = gram.copy()
    for i in range(columns.shape[1]):
        for k in range(i):
            if np.array_equal(columns[:, i], columns[:, k]):
                gram[i, :] = gram[k, :]
                gram[:, i] = gram[:, k]
                break
    return gram


class TestBetaProfile:
    # A column whose exact copy sits in a rival class has a rival residual of
    # about alpha and a ratio of about 1/alpha, where the residual's Gram form
    # keeps a relative, not an absolute, accuracy: the tolerance is both.

    # thresholds: unsorted, repeated, and past the column count (K clamped to N - 1)
    thresholds = st.lists(st.integers(1, 20), min_size=1, max_size=6)

    def _dictionary(self, problem, duplicate, norm_mode):
        seed, b, per_class, c, _ = problem
        rng = default_rng(seed)
        samples = rng.normal(size=(per_class * c, b))
        if duplicate:
            # exact copies tie with their originals, also at the M-th ranked score
            n = samples.shape[0]
            samples[rng.integers(0, n, n // 2)] = samples[rng.integers(0, n, n // 2)]
        return build_dictionary(samples, np.repeat(np.arange(1, c + 1), per_class), norm_mode)

    @SETTINGS
    @given(problems, thresholds, st.booleans())
    def test_btc_gram_equals_reference(self, problem, ms, duplicate):
        d = self._dictionary(problem, duplicate, NORM_L2)
        gram = _tie_exact_gram(d.columns, d.columns.T @ d.columns)
        with _tiny_chunks():
            got = beta_profile(d, ms, 0.01, gram)
        ref = _beta_reference(gram, d.labels, ms, 0.01, d.columns.T)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    @SETTINGS
    @given(problems, thresholds, st.booleans(), st.floats(0.05, 4.0))
    def test_kbtc_gram_equals_reference(self, problem, ms, duplicate, gamma):
        d = self._dictionary(problem, duplicate, NORM_RANGE)
        gram = _tie_exact_gram(d.columns, kernel_cache(d, KernelSpec(kind="rbf", gamma=gamma)).gram)
        got = beta_profile(d, ms, 0.01, gram)
        ref = _beta_reference(gram, d.labels, ms, 0.01)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    def test_rankings_past_one_inverse_block_equal_reference(self):
        # K = 39 > TRIL_BLOCK: the triangular inverse recurses
        _, d, _ = _problem(9, 40, 16, 3, 1)
        gram = d.columns.T @ d.columns
        ms = [40, 2, 17, 33, 40]
        got = beta_profile(d, ms, 0.01, gram)
        ref = _beta_reference(gram, d.labels, ms, 0.01, d.columns.T)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 5, 33, 70])
    def test_tril_inverse(self, k):
        rng = default_rng(k)
        L = np.tril(rng.normal(size=(3, k, k))) / k
        L[:, np.arange(k), np.arange(k)] = rng.uniform(1, 2, (3, k))
        W = linalg._tril_inverse(L)
        np.testing.assert_array_equal(W, np.tril(W))
        np.testing.assert_allclose(np.matmul(W, L), np.broadcast_to(np.eye(k), L.shape), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("ms", [[2], [4, 2]])
    def test_non_pd_block_names_the_column(self, ms):
        _, d, _ = _problem(8, 6, 5, 3, 4)
        gram = d.columns.T @ d.columns
        ranked = top_m_rows(gram, max(ms) - 1, exclude=np.arange(d.n_samples))
        atom = int(ranked[5, 0])
        gram[atom, atom] = -1.0  # no ranking changes: a column never ranks itself
        first = int(np.flatnonzero((ranked == atom).any(axis=1))[0])
        with _tiny_chunks(), pytest.raises(NumericalError, match=f"sample {first}:"):
            beta_profile(d, ms, 0.01, gram)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, -0.01, np.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        _, d, _ = _problem(8, 6, 5, 3, 4)
        with pytest.raises(ConfigError, match="alpha"):
            beta_profile(d, [2], alpha)

    def test_radicand_below_floor_raises(self):
        # |K(a0, a1)| = 10 > sqrt(K(a0, a0) K(a1, a1)) breaks Cauchy-Schwarz: the radicand is about -99
        d = Dictionary(np.eye(2), np.array([1, 2]), NORM_L2)
        gram = np.array([[1.0, 10.0], [10.0, 1.0]])
        with pytest.raises(NumericalError, match="sample 0: negative residual radicand"):
            beta_profile(d, [2], 0.01, gram)


class TestFeatureResiduals:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(0, 6), st.integers(1, 5))
    def test_equals_per_row_and_class_loop(self, seed, s, m, n_classes):
        rng = default_rng(seed)
        atoms = rng.normal(size=(12, 7))
        col_labels = rng.integers(0, n_classes, 12)
        Y = rng.normal(size=(s, 7))
        support = np.argsort(rng.uniform(size=(s, 12)), axis=1)[:, :m]
        x = rng.normal(size=(s, m))
        kyy = rng.uniform(0.5, 2.0, s)
        labels = col_labels[support]
        with _tiny_chunks():
            got = linalg._feature_residuals(atoms, Y, support, x, labels, n_classes, kyy)
        for i in range(s):
            for c in range(n_classes):
                own = labels[i] == c
                if own.any():
                    direct = np.linalg.norm(Y[i] - x[i, own] @ atoms[support[i, own]])
                    assert got[i, c] == pytest.approx(direct, rel=0, abs=1e-12)
                else:
                    assert got[i, c] == np.sqrt(kyy[i])


def _bench_shaped_scene():
    """A 145 x 145 x 200 cube of 16 blocky classes and 50 training pixels per class, as the benchmark's."""
    h = w = 145
    gt = (np.arange(h)[:, None] * 4 // h) * 4 + np.arange(w)[None, :] * 4 // w + 1
    signatures = default_rng(42).uniform(0.2, 1.0, (16, 200))
    cube = signatures[gt - 1] + default_rng(11).normal(0.0, 0.25, (h, w, 200))
    mask = make_train_mask(gt, 50, seed=12)
    dictionary = build_dictionary(cube[mask > 0], mask[mask > 0], NORM_L2)
    return dictionary, cube.reshape(h * w, 200)


@pytest.fixture(scope="module")
def bench_scene():
    return _bench_shaped_scene()


def _feature_oracle(d, Y, m, alpha):
    """BTC's residuals in the feature form alone, ||y - A_j x_j|| for every row and class.

    The codes are solved as the core solves them, on blocks of A'A, in the
    core's chunks of rows.
    """
    A, gram = d.columns, d.columns.T @ d.columns
    out = np.empty((len(Y), d.n_classes))
    for sl in linalg.chunks(len(Y), d.n_samples + m * m):
        rows = Y[sl] / np.linalg.norm(Y[sl], axis=1)[:, None]
        V = rows @ A
        support = top_m_rows(V, m)
        x = linalg.solve_spd_regularized(
            gram[support[:, :, None], support[:, None, :]], np.take_along_axis(V, support, axis=1), alpha
        )
        labels = d.labels[support] - 1
        out[sl] = linalg._feature_residuals(A.T, rows, support, x, labels, d.n_classes, np.ones(len(rows)))
    return out


def _feature_rows(monkeypatch):
    """The rows that go to the feature form, as each call's count, recorded from now on."""
    counts, real = [], linalg._feature_residuals

    def counting(atoms, Y, *args):
        counts.append(len(Y))
        return real(atoms, Y, *args)

    monkeypatch.setattr(linalg, "_feature_residuals", counting)
    return counts


class TestGramResiduals:
    @pytest.mark.parametrize("alpha", [1e-10, 0.01])
    def test_bench_shaped_cube_within_tolerance_of_feature_form(self, bench_scene, alpha):
        d, Y = bench_scene
        got = btc_residuals(d, Y, BtcParams(m=10, alpha=alpha))
        np.testing.assert_allclose(got, _feature_oracle(d, Y, 10, alpha), rtol=0, atol=linalg.RESIDUAL_TOL)

    @pytest.mark.parametrize("alpha", [1e-10, 0.01])
    def test_near_duplicate_atoms_within_tolerance_of_feature_form(self, alpha):
        d, Y = _near_duplicate_problem()
        got = btc_residuals(d, Y, BtcParams(m=10, alpha=alpha))
        np.testing.assert_allclose(got, _feature_oracle(d, Y, 10, alpha), rtol=0, atol=linalg.RESIDUAL_TOL)

    def test_feature_form_takes_exactly_the_training_pixels_at_tiny_alpha(self, bench_scene, monkeypatch):
        d, Y = bench_scene
        counts = _feature_rows(monkeypatch)
        btc_residuals(d, Y, BtcParams(m=10, alpha=1e-10))
        # a training pixel is its own atom: its own class's radicand is rounding alone
        assert sum(counts) == d.n_samples == 800
        counts.clear()
        btc_residuals(d, Y, BtcParams(m=10, alpha=0.01))
        assert sum(counts) == 0

    def test_feature_rows_are_the_unresolved_ones(self, monkeypatch):
        d, Y = _near_duplicate_problem()
        counts = _feature_rows(monkeypatch)
        # codes near 3e4 leave every row's radicands unresolved at alpha 1e-10
        btc_residuals(d, Y, BtcParams(m=10, alpha=1e-10))
        assert sum(counts) == len(Y)
