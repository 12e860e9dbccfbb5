"""Dataset and HSI-cube ingestion, scaling, and dictionary construction.

Training samples are stored as the columns of a dictionary matrix grouped
contiguously by class. Two normalization modes exist: unit L2 columns (used
by the linear classifier) and per-feature [0, 1] range scaling (used by the
kernel classifier). Range scaling parameters are computed on the training
set only and reapplied to test samples without clamping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from btckit.errors import ConfigError, DataFormatError

NORM_L2 = "l2"
NORM_RANGE = "range"

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature min/max mapping features into [0, 1]."""

    feat_min: np.ndarray
    feat_max: np.ndarray

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Scale samples (rows) with the stored training-set ranges.

        Values outside the training range are not clamped; a test feature
        above the training maximum maps above 1.
        """
        span = self.feat_max - self.feat_min
        span = np.where(span > 0, span, 1.0)
        # one float64 result, never the caller's array
        out = np.subtract(samples, self.feat_min, dtype=np.float64)
        out /= span
        return out

    @classmethod
    def fit(cls, samples: np.ndarray) -> "ScalingParams":
        samples = np.asarray(samples, dtype=np.float64)
        return cls(feat_min=samples.min(axis=0), feat_max=samples.max(axis=0))


@dataclass(frozen=True)
class Dictionary:
    """Column matrix of labeled training samples with class partitions.

    ``columns`` is B x N (feature dim x sample count). ``class_offsets``
    lists (class_id, start, count) triples with contiguous partitions in
    ascending class_id order. Class ids are densely renumbered 1..C;
    ``original_labels`` maps each dense id back to the input label.
    """

    columns: np.ndarray
    class_offsets: tuple[tuple[int, int, int], ...]
    norm_mode: str
    scaling: ScalingParams | None = None
    original_labels: tuple[int, ...] = ()

    @property
    def n_features(self) -> int:
        return self.columns.shape[0]

    @property
    def n_samples(self) -> int:
        return self.columns.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_offsets)

    def class_slice(self, class_id: int) -> slice:
        for cid, start, count in self.class_offsets:
            if cid == class_id:
                return slice(start, start + count)
        raise ConfigError(f"unknown class id {class_id}")

    def column_labels(self) -> np.ndarray:
        """Dense class id of every column, in column order."""
        labels = np.empty(self.n_samples, dtype=np.int64)
        for cid, start, count in self.class_offsets:
            labels[start : start + count] = cid
        return labels


@dataclass(frozen=True)
class HsiCube:
    """Height x width x bands image cube with finite values.

    ``values`` is (height, width, bands) in any real float dtype; a loaded
    cube keeps its raw file's dtype. Consumers widen to float64 only the
    rows they are about to use.
    """

    height: int
    width: int
    bands: int
    values: np.ndarray


@dataclass(frozen=True)
class LabelMap:
    """Integer label grid; 0 means unlabeled."""

    height: int
    width: int
    labels: np.ndarray  # (height, width) int64


def load_dense_dataset(features_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a CSV feature matrix (one sample per row) and a labels file.

    A single header row is auto-detected when the first cell of the first
    line is non-numeric. Returns (samples, labels) with samples shaped
    (n_samples, n_features).
    """
    with open(features_path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines and _is_header(lines[0]):
        lines = lines[1:]
    if not lines:
        raise DataFormatError(f"{features_path}: no samples")
    width = lines[0].count(",") + 1
    for lineno, line in enumerate(lines, start=1):
        n_cells = line.count(",") + 1
        if n_cells != width:
            raise DataFormatError(
                f"{features_path}: ragged row at line {lineno} ({n_cells} cells, expected {width})"
            )
    try:
        samples = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise DataFormatError(f"{features_path}: non-numeric cell: {exc}") from exc
    bad = np.argwhere(~np.isfinite(samples))
    if bad.size:
        row, col = bad[0]
        raise DataFormatError(f"{features_path}: non-finite value at sample {row}, column {col}")

    labels = []
    with open(labels_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError as exc:
                raise DataFormatError(f"{labels_path}: non-integer label at line {lineno}") from exc
    if len(labels) != samples.shape[0]:
        raise DataFormatError(
            f"label count {len(labels)} ≠ sample count {samples.shape[0]}"
        )
    labels_arr = np.asarray(labels, dtype=np.int64)
    if labels_arr.min() < 1:
        raise DataFormatError(f"labels must be >= 1, got {labels_arr.min()}")
    return samples, labels_arr


def _is_header(line: str) -> bool:
    first = line.split(",")[0].strip()
    try:
        float(first)
        return False
    except ValueError:
        return True


def build_dictionary(
    samples: np.ndarray,
    labels: np.ndarray,
    norm_mode: str = NORM_L2,
) -> Dictionary:
    """Group samples (rows) by class and normalize into a Dictionary.

    Classes are renumbered densely 1..C in ascending order of original
    label; intra-class sample order is preserved. L2 mode divides each
    column by its Euclidean norm; range mode applies per-feature [0, 1]
    scaling fitted on these samples.
    """
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if samples.ndim != 2:
        raise DataFormatError("samples must be a 2-D matrix (rows = samples)")
    if labels.shape != (samples.shape[0],):
        raise DataFormatError("labels length must match sample count")
    if norm_mode not in (NORM_L2, NORM_RANGE):
        raise ConfigError(f"unknown norm_mode {norm_mode!r}")

    unique = np.unique(labels)
    scaling = None
    if norm_mode == NORM_RANGE:
        scaling = ScalingParams.fit(samples)
        samples = scaling.apply(samples)

    cols = []
    offsets = []
    start = 0
    for dense_id, orig in enumerate(unique, start=1):
        idx = np.flatnonzero(labels == orig)
        block = samples[idx].T  # (B, N_i)
        if norm_mode == NORM_L2:
            norms = np.linalg.norm(block, axis=0)
            if np.any(norms == 0):
                bad = idx[int(np.argmin(norms))]
                raise DataFormatError(f"zero-norm column at sample index {bad}")
            block = block / norms
        cols.append(block)
        offsets.append((dense_id, start, len(idx)))
        start += len(idx)

    columns = np.concatenate(cols, axis=1)
    return Dictionary(
        columns=columns,
        class_offsets=tuple(offsets),
        norm_mode=norm_mode,
        scaling=scaling,
        original_labels=tuple(int(u) for u in unique),
    )


def load_hsi_cube(header_path: str, raw_path: str) -> HsiCube:
    """Load a cube from a key-value header and a little-endian BSQ raw file.

    ``values`` keeps the file's dtype (float32 for ``f32``, float64 for
    ``f64``) as a band-sequential view; it is not widened here.
    """
    keys = _parse_header(header_path)
    for required in ("height", "width", "bands", "dtype"):
        if required not in keys:
            raise DataFormatError(f"{header_path}: missing key {required!r}")
    try:
        height, width, bands = (int(keys[k]) for k in ("height", "width", "bands"))
    except ValueError as exc:
        raise DataFormatError(f"{header_path}: non-integer dimension") from exc
    if min(height, width, bands) < 1:
        raise DataFormatError(f"{header_path}: non-positive dimension")
    if keys.get("order", "bsq") != "bsq":
        raise DataFormatError(f"{header_path}: unsupported order {keys['order']!r}")
    dtype = _DTYPES.get(keys["dtype"])
    if dtype is None:
        raise DataFormatError(f"{header_path}: unknown dtype {keys['dtype']!r}")

    expected = height * width * bands * dtype.itemsize
    actual = os.path.getsize(raw_path)
    if actual != expected:
        raise DataFormatError(
            f"{raw_path}: size {actual} bytes ≠ expected {expected} "
            f"({height}x{width}x{bands} {keys['dtype']})"
        )
    from btckit.linalg import chunks  # linalg imports this module

    flat = np.fromfile(raw_path, dtype=dtype)
    # block by block, so the check's masks stay one block long
    for sl in chunks(flat.size, 1):
        finite = np.isfinite(flat[sl])
        if not finite.all():
            first = sl.start + int(np.argmin(finite))
            raise DataFormatError(f"{raw_path}: non-finite value at flat index {first}")
    values = flat.reshape(bands, height, width).transpose(1, 2, 0)
    return HsiCube(height=height, width=width, bands=bands, values=values)


def save_hsi_cube(cube: HsiCube, header_path: str, raw_path: str, dtype: str = "f64") -> None:
    """Write a cube as header + little-endian BSQ raw binary."""
    if dtype not in _DTYPES:
        raise ConfigError(f"unknown dtype {dtype!r}")
    with open(header_path, "w", encoding="utf-8") as fh:
        fh.write(f"height={cube.height}\nwidth={cube.width}\nbands={cube.bands}\n")
        fh.write(f"dtype={dtype}\norder=bsq\n")
    bsq = cube.values.transpose(2, 0, 1).astype(_DTYPES[dtype])
    bsq.tofile(raw_path)


def _parse_header(path: str) -> dict[str, str]:
    keys: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}: malformed header line {lineno}")
            key, _, value = line.partition("=")
            keys[key.strip()] = value.strip()
    return keys


def load_label_map(path: str) -> LabelMap:
    """Load a label map stored as a CSV grid of integers."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    try:
        rows = [[int(c) for c in ln.split(",")] for ln in lines]
    except ValueError as exc:
        raise DataFormatError(f"{path}: non-integer label") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty label map")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataFormatError(f"{path}: ragged label map rows")
    labels = np.asarray(rows, dtype=np.int64)
    if labels.min() < 0:
        raise DataFormatError(f"{path}: negative label")
    return LabelMap(height=labels.shape[0], width=labels.shape[1], labels=labels)


def save_label_map(label_map: LabelMap, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        rows = label_map.labels.astype(np.int64, copy=False).tolist()
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def save_label_map_pgm(label_map: LabelMap, path: str, mapping_path: str) -> None:
    """Write a class map as plain PGM (P2) plus a class-to-gray mapping file."""
    n = int(label_map.labels.max())
    grays = np.array([0] + [int(round(255 * cid / max(n, 1))) for cid in range(1, n + 1)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"P2\n{label_map.width} {label_map.height}\n255\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in grays[label_map.labels].tolist())
    with open(mapping_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{cid}={g}\n" for cid, g in enumerate(grays.tolist()))


def split_by_mask(
    cube: HsiCube,
    gt: LabelMap,
    train_mask: LabelMap,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split cube pixels into training and test sets by a label mask.

    Training pixels are those with ``train_mask > 0``; test pixels are the
    remaining labeled ground-truth pixels. Returns (train_samples,
    train_labels, test_labels, test_rc): training samples in row form, and
    the test pixels' (row, column) coordinates as an (n, 2) int64 array in
    row-major order. Training samples are float64 whatever the cube's dtype.
    Test samples are not gathered; ``cube.values`` at ``test_rc`` holds them.
    """
    if (gt.height, gt.width) != (cube.height, cube.width):
        raise DataFormatError("ground truth dims do not match cube")
    if (train_mask.height, train_mask.width) != (cube.height, cube.width):
        raise DataFormatError("train mask dims do not match cube")

    disagree = (train_mask.labels > 0) & (train_mask.labels != gt.labels)
    if np.any(disagree):
        r, c = np.argwhere(disagree)[0]
        raise DataFormatError(f"train/gt label disagreement at ({r},{c})")
    if not np.any(gt.labels > 0):
        raise DataFormatError("no labeled pixels")

    train_rc = np.argwhere(train_mask.labels > 0)
    test_rc = np.argwhere((gt.labels > 0) & (train_mask.labels == 0))
    train_samples = cube.values[train_rc[:, 0], train_rc[:, 1]].astype(np.float64, copy=False)
    train_labels = gt.labels[train_rc[:, 0], train_rc[:, 1]]
    test_labels = gt.labels[test_rc[:, 0], test_rc[:, 1]]

    present = set(np.unique(gt.labels[gt.labels > 0]).tolist())
    trained = set(np.unique(train_labels).tolist())
    missing = present - trained
    if missing:
        raise DataFormatError(f"classes with zero training pixels: {sorted(missing)}")

    return train_samples, train_labels, test_labels, test_rc


def render_block_mask(gt: LabelMap, blocks: list[tuple[int, int, int, int, int]]) -> LabelMap:
    """Render (class_id, row, col, height, width) block specs into a training mask.

    Every pixel inside a block must carry the block's class in the ground
    truth; unlabeled pixels inside a block are skipped.
    """
    mask = np.zeros_like(gt.labels)
    for cid, row, col, h, w in blocks:
        patch = gt.labels[row : row + h, col : col + w]
        sel = patch == cid
        if not np.any(sel):
            raise DataFormatError(f"block at ({row},{col}) contains no class-{cid} pixels")
        mask[row : row + h, col : col + w][sel] = cid
    return LabelMap(height=gt.height, width=gt.width, labels=mask)
