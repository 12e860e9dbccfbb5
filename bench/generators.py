"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes the workload seed and returns plain arrays; the
writers turn them into the files the CLI reads (CSV matrices, label files,
label-map CSVs, and a header plus little-endian BSQ raw cube). The values a
writer returns are the values the CLI will parse back, so the oracle sees
exactly the program's input.
"""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng

# significant digits written per CSV cell, like a typical exported dataset
CSV_DIGITS = 8
# class prototypes (blob centers, the ring plane, spectral signatures) come
# from this fixed seed, so accuracy does not depend on the workload seed,
# which draws the samples, the noise and the scene layout
PROTOTYPE_SEED = 42


def make_blobs(n_per_class: int, n_classes: int, dim: int, sigma: float, seed: int):
    """Gaussian blobs around fixed unit-variance random centers, rows = samples."""
    centers = default_rng(PROTOTYPE_SEED).normal(0.0, 1.0, (n_classes, dim))
    return (*sample_blobs(centers, n_per_class, sigma, seed), centers)


def sample_blobs(centers: np.ndarray, n_per_class: int, sigma: float, seed: int):
    """Samples around given centers, class-major, with labels 1..C."""
    n_classes, dim = centers.shape
    noise = default_rng(seed).normal(0.0, sigma, (n_classes * n_per_class, dim))
    return centers.repeat(n_per_class, axis=0) + noise, np.arange(1, n_classes + 1).repeat(n_per_class)


def make_rings(n_per_class: int, dim: int, noise: float, seed: int):
    """Two concentric rings (radii 1 and 2) in a fixed random 2-plane of `dim` dims.

    Linearly inseparable; a radial kernel separates them.
    """
    plane, _ = np.linalg.qr(default_rng(PROTOTYPE_SEED).normal(size=(dim, 2)))
    rng = default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, 2 * n_per_class)
    radius = np.repeat([1.0, 2.0], n_per_class)
    xy = np.c_[radius * np.cos(theta), radius * np.sin(theta)]
    xy += rng.normal(0.0, noise, xy.shape)
    x = xy @ plane.T + rng.normal(0.0, noise, (xy.shape[0], dim))
    return x, np.repeat([1, 2], n_per_class)


def make_blocky_scene(
    seed: int,
    height: int,
    width: int,
    bands: int,
    n_classes: int,
    sigma: float,
    unlabeled_every: int,
):
    """Blocky hyperspectral scene with fixed smooth class spectra and Gaussian noise.

    Classes tile a near-square grid of blocks; a few inner rectangles of other
    classes make the region boundaries nontrivial. Every ``unlabeled_every``-th
    row keeps its spectra but is unlabeled (0) in the ground truth. Returns
    (values float32 (H, W, B), ground truth int64 (H, W)).
    """
    rng = default_rng(seed)
    grid = int(np.ceil(np.sqrt(n_classes)))
    rows = np.minimum(np.arange(height) * grid // height, grid - 1)
    cols = np.minimum(np.arange(width) * grid // width, grid - 1)
    truth = (rows[:, None] * grid + cols[None, :]) % n_classes + 1
    for _ in range(2 * n_classes):
        h = int(rng.integers(height // 16, height // 6))
        w = int(rng.integers(width // 16, width // 6))
        r = int(rng.integers(0, height - h))
        c = int(rng.integers(0, width - w))
        truth[r : r + h, c : c + w] = int(rng.integers(1, n_classes + 1))

    # smooth spectra: a shared base curve plus a few low-frequency class terms
    proto = default_rng(PROTOTYPE_SEED)
    t = np.linspace(0.0, 1.0, bands)
    freqs = np.arange(1, 5)
    base = 0.6 + 0.2 * np.sin(2.0 * np.pi * t)
    coeff = proto.normal(0.0, 0.08, (n_classes, freqs.size))
    phase = proto.uniform(0.0, 2.0 * np.pi, (n_classes, freqs.size))
    sigs = base + np.sum(
        coeff[:, :, None] * np.sin(2.0 * np.pi * freqs[None, :, None] * t + phase[:, :, None]),
        axis=1,
    )
    values = sigs[truth - 1] + rng.normal(0.0, sigma, (height, width, bands))
    gt = truth.copy()
    gt[unlabeled_every - 1 :: unlabeled_every, :] = 0
    return values.astype(np.float32), gt


def make_train_mask(gt: np.ndarray, n_per_class: int, seed: int) -> np.ndarray:
    """Pick ``n_per_class`` labeled pixels of every class as the training mask."""
    rng = default_rng(seed)
    mask = np.zeros_like(gt)
    for c in np.unique(gt[gt > 0]):
        rr, cc = np.nonzero(gt == c)
        pick = rng.choice(rr.size, n_per_class, replace=False)
        mask[rr[pick], cc[pick]] = c
    return mask


def write_matrix_csv(path: str, x: np.ndarray) -> np.ndarray:
    """Write rows as CSV with :data:`CSV_DIGITS` digits; return the parsed values."""
    np.savetxt(path, x, fmt=f"%.{CSV_DIGITS}g", delimiter=",")
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_labels(path: str, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(v)) for v in labels) + "\n")


def write_label_map(path: str, labels: np.ndarray) -> None:
    np.savetxt(path, labels, fmt="%d", delimiter=",")


def write_cube(header_path: str, raw_path: str, values: np.ndarray) -> None:
    """Write an (H, W, B) float32 cube as a header plus little-endian BSQ raw."""
    h, w, b = values.shape
    with open(header_path, "w", encoding="utf-8") as fh:
        fh.write(f"height={h}\nwidth={w}\nbands={b}\ndtype=f32\norder=bsq\n")
    values.transpose(2, 0, 1).astype("<f4").tofile(raw_path)

