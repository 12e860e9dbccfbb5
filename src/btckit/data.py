"""Dataset and HSI-cube ingestion, scaling, and dictionary construction.

Training samples are stored as the columns of a dictionary matrix grouped
contiguously by class. Two normalization modes exist: unit L2 columns (used
by the linear classifier) and per-feature [0, 1] range scaling (used by the
kernel classifier). Range scaling parameters are computed on the training
set only and reapplied to test samples without clamping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from collections.abc import Iterator
from typing import TextIO

import numpy as np

from btckit.errors import BtckitError, ConfigError, DataFormatError

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

    ``columns`` is B x N (feature dim x sample count). ``labels`` holds the
    dense class id 1..C of every column; it is non-decreasing, so each class
    is one contiguous run of columns. ``original_labels`` maps each dense id
    back to the input label.
    """

    columns: np.ndarray
    labels: np.ndarray
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
        # the largest dense id, since labels is non-decreasing
        return int(self.labels[-1])


def load_dense_dataset(features_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a CSV feature matrix (one sample per row) and a labels file.

    A single header row is auto-detected when the first cell of the first
    line is non-numeric. The labels file holds one integer per line. Both
    are parsed by :func:`_read_csv`, which streams the file, so parsing holds
    about the result and not the files' text. Returns (samples, labels) with
    samples shaped (n_samples, n_features).
    """
    samples = _read_csv(features_path, np.float64, "non-numeric cell", header=True)
    if not samples.size:
        raise DataFormatError(f"{features_path}: no samples")
    if not np.isfinite(samples).all():
        row, col = np.argwhere(~np.isfinite(samples))[0]
        raise DataFormatError(f"{features_path}: non-finite value at sample {row}, column {col}")

    labels = _read_csv(labels_path, np.int64, "non-integer label", width=1).ravel()
    if len(labels) != samples.shape[0]:
        raise DataFormatError(f"label count {len(labels)} ≠ sample count {samples.shape[0]}")
    if labels.min() < 1:
        raise DataFormatError(f"labels must be >= 1, got {labels.min()}")
    return samples, labels


def _read_csv(
    path: str, dtype: type, bad_cell: str, width: int | None = None, header: bool = False
) -> np.ndarray:
    """Parse a CSV of numbers into a 2-D ``dtype`` array without holding the file's lines.

    With ``header``, a first line whose first cell is non-numeric is dropped.
    ``np.loadtxt`` reads the open file from the first data line on. A file it
    refuses, or whose column count is not ``width``, is read again line by
    line (:func:`_read_csv_checked`), which accepts whitespace-only lines
    and otherwise words the error. An input without data lines gives an
    array of no rows.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            start = _first_data_line(fh, header)
            if start is None:
                # loadtxt would warn that the input contained no data
                return np.empty((0, width or 0), dtype=dtype)
            fh.seek(start)
            values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=dtype)
        if width is None or values.shape[1] == width:
            return values
    except ValueError:  # UnicodeDecodeError too: the checked reader words every refusal
        pass
    return _read_csv_checked(path, dtype, bad_cell, width, header)


def _first_data_line(fh: TextIO, header: bool) -> int | None:
    """Position of the first non-blank line of ``fh``, past a non-numeric header line
    with ``header``; None when no such line exists. The one rule of both CSV readers."""
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            return None
        if line.strip():
            break
    if header:
        try:
            float(line.strip().split(",")[0])
        except ValueError:
            return _first_data_line(fh, header=False)
    return start


def _read_csv_checked(
    path: str, dtype: type, bad_cell: str, width: int | None, header: bool
) -> np.ndarray:
    """:func:`_read_csv` line by line from the line :func:`_first_data_line` finds:
    stripped non-blank lines stream to ``np.loadtxt`` through a generator. A line without
    ``width`` cells (default: the first line's count) is reported by its number among the
    data lines, an unparsable cell with ``bad_cell``, and bytes that are not UTF-8 as such."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            start = _first_data_line(fh, header)
            if start is None:
                return np.empty((0, width or 0), dtype=dtype)
            fh.seek(start)
            expected = width

            def checked():
                nonlocal expected
                for lineno, line in enumerate((ln for ln in map(str.strip, fh) if ln), start=1):
                    n_cells = line.count(",") + 1
                    expected = expected or n_cells
                    if n_cells != expected:
                        raise DataFormatError(
                            f"{path}: ragged row at line {lineno} ({n_cells} cells, expected {expected})"
                        )
                    yield line

            return np.loadtxt(checked(), delimiter=",", comments=None, ndmin=2, dtype=dtype)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        raise DataFormatError(f"{path}: {bad_cell}: {exc}") from exc


def _read_key_values(path: str, error: type[BtckitError]) -> Iterator[tuple[str, str]]:
    """(key, value) of each ``key=value`` line of a UTF-8 file, skipping blank and
    ``#`` lines; a file that is not UTF-8, or a line without ``=`` or with a NUL, which no
    path may hold, raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line or "\0" in line:
            raise error(f"{path}: malformed line {lineno}")
        key, _, value = line.partition("=")
        yield key.strip(), value.strip()


def build_dictionary(
    samples: np.ndarray,
    labels: np.ndarray,
    norm_mode: str = NORM_L2,
) -> Dictionary:
    """Group samples (rows) by class and normalize into a Dictionary.

    Classes are renumbered densely 1..C in ascending order of original
    label; intra-class sample order is preserved. L2 mode divides each
    column by its Euclidean norm, refusing a zero or non-finite one (a value
    too large to square) with DataFormatError; range mode applies
    per-feature [0, 1] scaling fitted on these samples.
    """
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if samples.ndim != 2:
        raise DataFormatError("samples must be a 2-D matrix (rows = samples)")
    if labels.shape != (samples.shape[0],):
        raise DataFormatError("labels length must match sample count")
    if norm_mode not in (NORM_L2, NORM_RANGE):
        raise ConfigError(f"unknown norm_mode {norm_mode!r}")

    unique, dense = np.unique(labels, return_inverse=True)
    order = np.argsort(dense, kind="stable")
    scaling = None
    if norm_mode == NORM_RANGE:
        scaling = ScalingParams.fit(samples)
        samples = scaling.apply(samples)

    columns = samples[order].T  # (B, N), F-contiguous
    if norm_mode == NORM_L2:
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            norms = np.linalg.norm(columns, axis=0)
        if np.any(norms == 0):
            bad = order[int(np.argmin(norms))]
            raise DataFormatError(f"zero-norm column at sample index {bad}")
        finite = np.isfinite(norms)
        if not finite.all():
            bad = order[int(np.argmin(finite))]
            raise DataFormatError(f"non-finite column norm at sample index {bad}")
        columns = columns / norms
    return Dictionary(
        columns=columns,
        labels=dense[order] + 1,
        norm_mode=norm_mode,
        scaling=scaling,
        original_labels=tuple(int(u) for u in unique),
    )


def load_hsi_cube(header_path: str, raw_path: str) -> np.ndarray:
    """Load an (H, W, B) cube from a key-value header and a little-endian BSQ raw file.

    Every value is finite. The array is a band-sequential view in the file's
    dtype (float32 for ``f32``, float64 for ``f64``); it is not widened here,
    and consumers widen to float64 one chunk at a time. The values live in a
    private anonymous mapping of their own, not in a malloc'd buffer, so the
    pages go back to the system as soon as the last view of the cube dies. A
    raw file whose size no longer matches the header when it is read raises
    DataFormatError.
    """
    keys = dict(_read_key_values(header_path, DataFormatError))
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
    import mmap  # here, so commands that read no cube do not load it

    from btckit.linalg import chunks  # linalg imports this module

    # a mapping of its own, not a malloc'd block: freeing a block of many MB raises
    # glibc's mmap threshold, after which later large arrays stay on the heap and
    # raise the process's peak
    buf = mmap.mmap(-1, expected, flags=mmap.MAP_PRIVATE)
    with open(raw_path, "rb") as fh:
        if fh.readinto(buf) != expected or fh.read(1):
            raise DataFormatError(f"{raw_path}: size changed while reading (expected {expected} bytes)")
    flat = np.frombuffer(buf, dtype=dtype)
    # block by block, so the check's masks stay one block long
    for sl in chunks(flat.size, 1):
        finite = np.isfinite(flat[sl])
        if not finite.all():
            first = sl.start + int(np.argmin(finite))
            raise DataFormatError(f"{raw_path}: non-finite value at flat index {first}")
    return flat.reshape(bands, height, width).transpose(1, 2, 0)


def save_hsi_cube(cube: np.ndarray, header_path: str, raw_path: str, dtype: str = "f64") -> None:
    """Write an (H, W, B) cube as header + little-endian BSQ raw binary."""
    if dtype not in _DTYPES:
        raise ConfigError(f"unknown dtype {dtype!r}")
    with open(header_path, "w", encoding="utf-8") as fh:
        height, width, bands = cube.shape
        fh.write(f"height={height}\nwidth={width}\nbands={bands}\n")
        fh.write(f"dtype={dtype}\norder=bsq\n")
    bsq = cube.transpose(2, 0, 1).astype(_DTYPES[dtype])
    bsq.tofile(raw_path)


def load_label_map(path: str) -> np.ndarray:
    """Load a CSV grid of non-negative labels (0 means unlabeled) as an (H, W) int64
    array, parsed by :func:`_read_csv`."""
    labels = _read_csv(path, np.int64, "non-integer label")
    if not labels.size:
        raise DataFormatError(f"{path}: empty label map")
    if labels.min() < 0:
        raise DataFormatError(f"{path}: negative label")
    return labels


def save_label_map(labels: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        rows = labels.astype(np.int64, copy=False).tolist()
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def save_label_map_pgm(labels: np.ndarray, path: str, mapping_path: str) -> None:
    """Write an (H, W) class map as plain PGM (P2) plus a class-to-gray mapping file."""
    n = int(labels.max())
    grays = np.array([0] + [int(round(255 * cid / max(n, 1))) for cid in range(1, n + 1)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"P2\n{labels.shape[1]} {labels.shape[0]}\n255\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in grays[labels].tolist())
    with open(mapping_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{cid}={g}\n" for cid, g in enumerate(grays.tolist()))


def split_by_mask(
    cube: np.ndarray,
    gt: np.ndarray,
    train_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split cube pixels into training and test sets by a label mask.

    Training pixels are those with ``train_mask > 0``; test pixels are the
    remaining labeled ground-truth pixels. Returns (train_samples,
    train_labels, test_labels, test_rc): training samples in row form, and
    the test pixels' (row, column) coordinates as an (n, 2) int64 array in
    row-major order. Training samples are float64 whatever the cube's dtype.
    Test samples are not gathered; ``cube`` at ``test_rc`` holds them.
    """
    if gt.shape != cube.shape[:2]:
        raise DataFormatError("ground truth dims do not match cube")
    if train_mask.shape != cube.shape[:2]:
        raise DataFormatError("train mask dims do not match cube")

    disagree = (train_mask > 0) & (train_mask != gt)
    if np.any(disagree):
        r, c = np.argwhere(disagree)[0]
        raise DataFormatError(f"train/gt label disagreement at ({r},{c})")
    if not np.any(gt > 0):
        raise DataFormatError("no labeled pixels")

    train_rc = np.argwhere(train_mask > 0)
    test_rc = np.argwhere((gt > 0) & (train_mask == 0))
    train_samples = cube[train_rc[:, 0], train_rc[:, 1]].astype(np.float64, copy=False)
    train_labels = gt[train_rc[:, 0], train_rc[:, 1]]
    test_labels = gt[test_rc[:, 0], test_rc[:, 1]]

    present = set(np.unique(gt[gt > 0]).tolist())
    trained = set(np.unique(train_labels).tolist())
    missing = present - trained
    if missing:
        raise DataFormatError(f"classes with zero training pixels: {sorted(missing)}")

    return train_samples, train_labels, test_labels, test_rc


def render_block_mask(gt: np.ndarray, blocks: list[tuple[int, int, int, int, int]]) -> np.ndarray:
    """Render (class_id, row, col, height, width) block specs into a training mask like ``gt``.

    Every pixel inside a block must carry the block's class in the ground
    truth; unlabeled pixels inside a block are skipped.
    """
    mask = np.zeros_like(gt)
    for cid, row, col, h, w in blocks:
        patch = gt[row : row + h, col : col + w]
        sel = patch == cid
        if not np.any(sel):
            raise DataFormatError(f"block at ({row},{col}) contains no class-{cid} pixels")
        mask[row : row + h, col : col + w][sel] = cid
    return mask
