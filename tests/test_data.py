"""Dataset parsing, dictionary construction, cube IO, and mask splitting."""

import os
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.random import default_rng

from btckit import (
    BtcParams,
    ScalingParams,
    btc_classify,
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
from btckit import linalg
from btckit.data import NORM_L2, NORM_RANGE
from btckit.errors import DataFormatError


def _write(path, text):
    path.write_text(text)
    return str(path)


def _traced_peak(fn, *args):
    """Run fn once untraced (imports, caches), then return (result, tracemalloc peak) of a second call."""
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadDenseDataset:
    def test_direct_parse(self, tmp_path):
        f = _write(tmp_path / "x.csv", "1,0\n0,1\n")
        # blank lines in the labels file are skipped
        for text in ("1\n2\n", "\n1\n\n  \n2\n\n"):
            l = _write(tmp_path / "y.csv", text)
            samples, labels = load_dense_dataset(f, l)
            np.testing.assert_array_equal(samples, [[1, 0], [0, 1]])
            np.testing.assert_array_equal(labels, [1, 2])
            assert labels.dtype == np.int64 and labels.shape == (2,)

    def test_header_row_detected(self, tmp_path):
        f = _write(tmp_path / "x.csv", "a,b\n1,0\n0,1\n")
        l = _write(tmp_path / "y.csv", "1\n2\n")
        samples, _ = load_dense_dataset(f, l)
        assert samples.shape == (2, 2)

    def test_empty_labels(self, tmp_path):
        f = _write(tmp_path / "x.csv", "1,0\n0,1\n")
        for text in ("", "\n \n\n"):
            l = _write(tmp_path / "y.csv", text)
            with pytest.raises(DataFormatError, match="label count 0"):
                load_dense_dataset(f, l)

    def test_labels_file_with_two_cells_on_a_line(self, tmp_path):
        f = _write(tmp_path / "x.csv", "1,0\n0,1\n")
        l = _write(tmp_path / "y.csv", "1\n2,1\n")
        with pytest.raises(DataFormatError, match=r"ragged row at line 2 \(2 cells, expected 1\)"):
            load_dense_dataset(f, l)

    def test_parse_peak_is_about_the_result(self, tmp_path, rng):
        values = rng.normal(size=(2000, 200))
        f = str(tmp_path / "x.csv")
        np.savetxt(f, values, delimiter=",", fmt="%.6f")
        l = _write(tmp_path / "y.csv", "3\n" * 2000)
        (samples, labels), peak = _traced_peak(load_dense_dataset, f, l)
        np.testing.assert_array_equal(samples, np.loadtxt(f, delimiter=","))
        # the lines stream into the array: no copy of the file's text is held
        assert peak < samples.nbytes + labels.nbytes + (1 << 20)

    def test_ragged_row(self, tmp_path):
        f = _write(tmp_path / "x.csv", "1,0\n1\n")
        l = _write(tmp_path / "y.csv", "1\n2\n")
        with pytest.raises(DataFormatError, match="ragged row at line 2"):
            load_dense_dataset(f, l)

    def test_non_numeric_cell(self, tmp_path):
        f = _write(tmp_path / "x.csv", "1,0\n0,oops\n")
        l = _write(tmp_path / "y.csv", "1\n2\n")
        with pytest.raises(DataFormatError, match="non-numeric cell"):
            load_dense_dataset(f, l)

    def test_values_equal_per_cell_float_parse(self, tmp_path, rng):
        values = rng.normal(scale=1e3, size=(40, 7))
        cells = [[format(v, fmt) for v, fmt in zip(row, ("", ".17g", ".6e", ".3f", "g", ".12e", ".0f"))]
                 for row in values]
        text = "f1,f2,f3,f4,f5,f6,f7\n" + "\n\n".join(" , ".join(row) for row in cells) + "\n"
        f = _write(tmp_path / "x.csv", text)
        l = _write(tmp_path / "y.csv", "1\n" * 40)
        samples, _ = load_dense_dataset(f, l)
        np.testing.assert_array_equal(samples, [[float(c) for c in row] for row in cells])

    def test_header_only_has_no_samples(self, tmp_path):
        f = _write(tmp_path / "x.csv", "a,b\n")
        l = _write(tmp_path / "y.csv", "")
        with pytest.raises(DataFormatError, match="no samples"):
            load_dense_dataset(f, l)

    def test_label_below_one(self, tmp_path):
        f = _write(tmp_path / "x.csv", "1,0\n0,1\n")
        l = _write(tmp_path / "y.csv", "0\n1\n")
        with pytest.raises(DataFormatError, match="labels must be >= 1"):
            load_dense_dataset(f, l)


class TestBuildDictionary:
    def test_three_four_five_triangle(self):
        d = build_dictionary(np.array([[3.0, 4.0], [1.0, 0.0]]), [1, 2], NORM_L2)
        np.testing.assert_allclose(d.columns[:, 0], [0.6, 0.8])

    def test_zero_norm_column(self):
        with pytest.raises(DataFormatError, match="zero-norm column"):
            build_dictionary(np.array([[0.0, 0.0], [1.0, 1.0]]), [1, 2], NORM_L2)

    def test_interleaved_labels_grouped(self):
        samples = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        d = build_dictionary(samples, [2, 1, 2], NORM_L2)
        assert d.class_offsets == ((1, 0, 1), (2, 1, 2))
        # class 1 column is the [0,1] sample; class 2 keeps input order
        np.testing.assert_allclose(d.columns[:, 0], [0.0, 1.0])
        np.testing.assert_allclose(d.columns[:, 1], [1.0, 0.0])
        np.testing.assert_allclose(d.columns[:, 2], [1.0, 0.0])

    def test_dense_renumbering_keeps_original_labels(self):
        samples = np.eye(3)
        d = build_dictionary(samples, [7, 3, 7], NORM_L2)
        assert d.original_labels == (3, 7)
        assert [c for c, _, _ in d.class_offsets] == [1, 2]

    def test_range_scaling_maps_min_max_exactly(self, rng):
        samples = rng.normal(size=(12, 5)) * [1, 10, 100, 0.1, 2]
        d = build_dictionary(samples, [1] * 6 + [2] * 6, NORM_RANGE)
        np.testing.assert_allclose(d.columns.min(axis=1), 0.0, atol=1e-15)
        np.testing.assert_allclose(d.columns.max(axis=1), 1.0, atol=1e-15)

    def test_scaling_not_clamped_on_test(self, rng):
        samples = rng.uniform(0, 1, size=(8, 3))
        d = build_dictionary(samples, [1] * 4 + [2] * 4, NORM_RANGE)
        beyond = samples.max(axis=0) + 0.5
        assert np.all(d.scaling.apply(beyond) > 1.0)

    def test_permutation_stability(self, rng):
        samples = rng.normal(size=(20, 6))
        labels = np.array([1] * 10 + [2] * 10)
        perm = rng.permutation(20)
        d1 = build_dictionary(samples, labels, NORM_L2)
        d2 = build_dictionary(samples[perm], labels[perm], NORM_L2)
        assert d1.class_offsets == d2.class_offsets
        # downstream per-class residuals are order-invariant within a class
        params = BtcParams(m=4, alpha=0.01)
        y = rng.normal(size=6)
        r1, _ = btc_classify(d1, y, params)
        r2, _ = btc_classify(d2, y, params)
        np.testing.assert_allclose(r1.values, r2.values, atol=1e-12)


class TestScalingParams:
    def test_fit_apply_identity_on_train(self, rng):
        samples = rng.normal(size=(10, 4))
        sp = ScalingParams.fit(samples)
        scaled = sp.apply(samples)
        np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-15)

    def test_constant_feature_guard(self):
        samples = np.array([[1.0, 2.0], [1.0, 3.0]])
        sp = ScalingParams.fit(samples)
        scaled = sp.apply(samples)
        assert np.all(np.isfinite(scaled))
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_apply_equals_the_two_step_formula_and_leaves_its_input(self, rng, dtype):
        train = rng.normal(size=(30, 6)) * 5.0
        train[:, 2] = 1.5  # a constant feature: span 1
        sp = ScalingParams.fit(train)
        samples = (rng.normal(size=(40, 6)) * 7.0).astype(dtype)
        before = samples.copy()
        got = sp.apply(samples)
        span = np.where(sp.feat_max > sp.feat_min, sp.feat_max - sp.feat_min, 1.0)
        ref = (np.asarray(samples, dtype=np.float64) - sp.feat_min) / span
        assert got.dtype == np.float64
        assert got.tobytes() == ref.tobytes()
        assert samples.dtype == dtype and samples.tobytes() == before.tobytes()
        # float64 input too: the result is a new array
        assert not np.shares_memory(got, samples)


class TestHsiCubeIO:
    def test_small_cube_f32(self, tmp_path):
        hdr = _write(tmp_path / "c.hdr", "height=2\nwidth=2\nbands=1\ndtype=f32\norder=bsq\n")
        raw = tmp_path / "c.raw"
        np.arange(4, dtype="<f4").tofile(raw)
        cube = load_hsi_cube(hdr, str(raw))
        assert cube.shape == (2, 2, 1)
        # kept as stored: consumers widen the rows they use
        assert cube.dtype == np.float32
        np.testing.assert_allclose(cube[:, :, 0], [[0, 1], [2, 3]])

    def test_size_mismatch(self, tmp_path):
        hdr = _write(tmp_path / "c.hdr", "height=2\nwidth=2\nbands=2\ndtype=f32\n")
        raw = tmp_path / "c.raw"
        np.arange(4, dtype="<f4").tofile(raw)  # 16 bytes, needs 32
        with pytest.raises(DataFormatError, match="16 bytes"):
            load_hsi_cube(hdr, str(raw))

    def test_non_finite_payload_reports_index(self, tmp_path):
        hdr = _write(tmp_path / "c.hdr", "height=2\nwidth=2\nbands=1\ndtype=f64\n")
        raw = tmp_path / "c.raw"
        payload = np.array([0.0, np.inf, 2.0, 3.0])
        payload.tofile(raw)
        with pytest.raises(DataFormatError, match="flat index 1"):
            load_hsi_cube(hdr, str(raw))

    def test_non_finite_index_past_the_first_block(self, tmp_path):
        hdr = _write(tmp_path / "c.hdr", "height=10\nwidth=10\nbands=3\ndtype=f32\n")
        raw = tmp_path / "c.raw"
        payload = np.zeros(300, dtype="<f4")
        payload[[137, 138, 250]] = [np.nan, np.inf, -np.inf]
        payload.tofile(raw)
        # blocks of 4 values: the first bad value sits in the 35th block
        with patch.object(linalg, "CHUNK_BYTES", 32), pytest.raises(DataFormatError, match="flat index 137$"):
            load_hsi_cube(hdr, str(raw))

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_finiteness_check_holds_one_block(self, tmp_path, rng, dtype):
        h, w, b = 64, 64, 50
        hdr = _write(tmp_path / "c.hdr", f"height={h}\nwidth={w}\nbands={b}\ndtype={dtype}\n")
        raw = tmp_path / "c.raw"
        rng.normal(size=h * w * b).astype({"f32": "<f4", "f64": "<f8"}[dtype]).tofile(raw)
        chunk = 1 << 15
        with patch.object(linalg, "CHUNK_BYTES", chunk):
            cube, peak = _traced_peak(load_hsi_cube, hdr, str(raw))
        # the values sit in an mmap of their own, which tracemalloc does not see,
        # so the peak is the check's own work: less than one block
        assert peak < chunk < cube.nbytes

    @pytest.mark.parametrize("values", [3, 5], ids=["shrunk", "grown"])
    def test_raw_file_changing_size_after_its_check(self, tmp_path, monkeypatch, values):
        hdr = _write(tmp_path / "c.hdr", "height=2\nwidth=2\nbands=1\ndtype=f32\n")
        raw = str(tmp_path / "c.raw")
        np.arange(values, dtype="<f4").tofile(raw)
        # the size check sees the header's 16 bytes; the read then finds another size
        getsize = os.path.getsize
        monkeypatch.setattr(os.path, "getsize", lambda path: 16 if path == raw else getsize(path))
        with pytest.raises(DataFormatError, match="size changed while reading"):
            load_hsi_cube(hdr, raw)

    def test_unknown_dtype(self, tmp_path):
        hdr = _write(tmp_path / "c.hdr", "height=1\nwidth=1\nbands=1\ndtype=f16\n")
        raw = tmp_path / "c.raw"
        raw.write_bytes(b"\0\0")
        with pytest.raises(DataFormatError, match="unknown dtype"):
            load_hsi_cube(hdr, str(raw))

    def test_round_trip_f64_bit_exact(self, tmp_path, rng):
        values = rng.normal(size=(3, 4, 2))
        save_hsi_cube(values, str(tmp_path / "o.hdr"), str(tmp_path / "o.raw"), dtype="f64")
        back = load_hsi_cube(str(tmp_path / "o.hdr"), str(tmp_path / "o.raw"))
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, values)

    def test_round_trip_f32_one_ulp(self, tmp_path, rng):
        values = rng.normal(size=(2, 2, 3))
        save_hsi_cube(values, str(tmp_path / "o.hdr"), str(tmp_path / "o.raw"), dtype="f32")
        back = load_hsi_cube(str(tmp_path / "o.hdr"), str(tmp_path / "o.raw"))
        np.testing.assert_array_equal(back, values.astype(np.float32).astype(np.float64))


class TestLabelMapIO:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays(np.int64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40), elements=st.integers(0, 20)))
    def test_round_trip(self, tmp_path, labels):
        path = tmp_path / "m.csv"
        save_label_map(labels, str(path))
        back = load_label_map(str(path))
        assert back.shape == labels.shape
        assert back.dtype == np.int64
        np.testing.assert_array_equal(back, labels)
        # blank lines anywhere in the file are skipped
        path.write_text("\n" + "\n\n".join(path.read_text().splitlines()) + "\n \n")
        np.testing.assert_array_equal(load_label_map(str(path)), labels)

    def test_non_integer_cell(self, tmp_path):
        (tmp_path / "m.csv").write_text("0,1\n2,1.5\n")
        with pytest.raises(DataFormatError, match="non-integer"):
            load_label_map(str(tmp_path / "m.csv"))

    def test_ragged_row_names_its_line(self, tmp_path):
        (tmp_path / "m.csv").write_text("0,1,2\n\n2,1,0\n1,1\n")
        with pytest.raises(DataFormatError, match=r"ragged row at line 3 \(2 cells, expected 3\)"):
            load_label_map(str(tmp_path / "m.csv"))

    def test_parse_peak_is_about_the_result(self, tmp_path, rng):
        labels = rng.integers(0, 17, size=(145, 145))
        save_label_map(labels, str(tmp_path / "m.csv"))
        back, peak = _traced_peak(load_label_map, str(tmp_path / "m.csv"))
        np.testing.assert_array_equal(back, labels)
        # no list of rows of Python ints beside the int64 result
        assert peak < 1.5 * back.nbytes

    def test_pgm_with_mapping(self, tmp_path):
        save_label_map_pgm(np.array([[1, 2]]), str(tmp_path / "m.pgm"), str(tmp_path / "m.classes.txt"))
        text = (tmp_path / "m.pgm").read_text()
        assert text.startswith("P2\n2 1\n255\n")
        mapping = (tmp_path / "m.classes.txt").read_text()
        assert "2=255" in mapping


class TestSplitByMask:
    def _cube(self, h, w, bands=3, seed=0):
        return default_rng(seed).normal(size=(h, w, bands))

    def test_counting(self):
        cube = self._cube(2, 2)
        gt = np.array([[1, 1], [2, 2]])
        mask = np.array([[1, 0], [2, 0]])
        tr, trl, tel, coords = split_by_mask(cube, gt, mask)
        assert tr.shape[0] == 2 and len(coords) == 2
        np.testing.assert_array_equal(trl, [1, 2])
        np.testing.assert_array_equal(tel, [1, 2])
        np.testing.assert_array_equal(coords, [(0, 1), (1, 1)])

    def test_test_coordinates_are_an_int64_array(self):
        cube = self._cube(3, 4)
        gt = np.array([[1, 1, 0, 2], [1, 2, 2, 2], [0, 1, 2, 1]])
        mask = np.array([[1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]])
        _, _, tel, coords = split_by_mask(cube, gt, mask)
        assert isinstance(coords, np.ndarray)
        assert coords.dtype == np.int64 and coords.shape == (8, 2)
        np.testing.assert_array_equal(coords, np.argwhere((gt > 0) & (mask == 0)))
        np.testing.assert_array_equal(tel, gt[coords[:, 0], coords[:, 1]])

    def test_training_samples_are_float64_from_a_float32_cube(self):
        cube = self._cube(2, 2)
        cube32 = cube.astype(np.float32)
        gt = np.array([[1, 1], [2, 2]])
        mask = np.array([[1, 0], [2, 0]])
        tr = split_by_mask(cube32, gt, mask)[0]
        assert tr.dtype == np.float64
        np.testing.assert_array_equal(tr, cube32[[0, 1], [0, 0]])

    def test_all_unlabeled(self):
        cube = self._cube(2, 2)
        gt = np.zeros((2, 2), dtype=np.int64)
        mask = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(DataFormatError, match="no labeled pixels"):
            split_by_mask(cube, gt, mask)

    def test_disagreement_reports_coordinates(self):
        cube = self._cube(2, 2)
        gt = np.array([[1, 1], [2, 2]])
        mask = np.array([[2, 0], [0, 0]])
        with pytest.raises(DataFormatError, match=r"\(0,0\)"):
            split_by_mask(cube, gt, mask)

    def test_dims_mismatch(self):
        # a 3x3 cube under 2x2 maps: no pixel of it may be read as labeled
        cube = self._cube(3, 3)
        gt = np.array([[1, 1], [2, 2]])
        with pytest.raises(DataFormatError, match="ground truth dims"):
            split_by_mask(cube, gt, gt)
        with pytest.raises(DataFormatError, match="train mask dims"):
            split_by_mask(cube[:2, :2], gt, np.ones((3, 2), dtype=np.int64))

    def test_class_without_training_pixels(self):
        cube = self._cube(2, 2)
        gt = np.array([[1, 1], [2, 2]])
        mask = np.array([[1, 0], [0, 0]])
        with pytest.raises(DataFormatError, match="zero training pixels"):
            split_by_mask(cube, gt, mask)


class TestRenderBlockMask:
    def test_block_selects_matching_pixels(self):
        gt = np.array([[1, 1, 2], [1, 1, 2], [2, 2, 2]])
        mask = render_block_mask(gt, [(1, 0, 0, 2, 2), (2, 0, 2, 3, 1)])
        expected = np.array([[1, 1, 2], [1, 1, 2], [0, 0, 2]])
        np.testing.assert_array_equal(mask, expected)

    def test_block_without_class_pixels(self):
        gt = np.array([[1, 1], [1, 1]])
        with pytest.raises(DataFormatError, match="no class-2 pixels"):
            render_block_mask(gt, [(2, 0, 0, 2, 2)])
