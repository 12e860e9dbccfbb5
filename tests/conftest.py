"""Shared synthetic data generators and helpers for the test suite."""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.random import default_rng

import btckit
from btckit import build_dictionary
from btckit.data import NORM_L2


def make_rings(n_per_class, seed, dim=10, noise=0.05, emb_seed=7):
    """Two concentric rings (radii 1 and 2) embedded in `dim` dimensions.

    The 2-D rings are rotated into a fixed random 2-plane of the ambient
    space (shared across train/test via ``emb_seed``) with small isotropic
    noise added in every dimension. Linearly inseparable; a radial kernel
    separates them easily.
    """
    rng = default_rng(seed)
    pts, labels = [], []
    for cid, r in ((1, 1.0), (2, 2.0)):
        theta = rng.uniform(0, 2 * np.pi, n_per_class)
        xy = np.c_[r * np.cos(theta), r * np.sin(theta)]
        xy += rng.normal(0, noise, (n_per_class, 2))
        pts.append(xy)
        labels += [cid] * n_per_class
    x2 = np.vstack(pts)
    emb, _ = np.linalg.qr(default_rng(emb_seed).normal(size=(dim, 2)))
    x = x2 @ emb.T + rng.normal(0, noise, (x2.shape[0], dim))
    return x, np.array(labels)


def make_blobs(n_per_class, n_classes, dim, seed, sigma, center_seed=42):
    """Gaussian blobs around fixed unit-variance random centers."""
    centers = default_rng(center_seed).normal(0, 1.0, (n_classes, dim))
    rng = default_rng(seed)
    x, y = [], []
    for c in range(n_classes):
        x.append(centers[c] + rng.normal(0, sigma, (n_per_class, dim)))
        y += [c + 1] * n_per_class
    return np.vstack(x), np.array(y)


def random_dictionary(rng, b=10, n=30, n_classes=3, norm_mode=NORM_L2):
    """Random Gaussian dictionary with roughly balanced classes."""
    samples = rng.normal(size=(n, b))
    labels = np.sort(rng.integers(1, n_classes + 1, size=n))
    # guarantee every class is present
    labels[:n_classes] = np.arange(1, n_classes + 1)
    labels = np.sort(labels)
    return build_dictionary(samples, labels, norm_mode)


def make_blocky_scene(seed, sigma, h=60, w=60, bands=20):
    """Noisy 4-class scene with blocky regions and fixed spectral signatures.

    Returns the (h, w, bands) cube and the (h, w) int64 ground truth.
    """
    rng = default_rng(41)
    sigs = rng.uniform(0.2, 1.0, (4, bands))
    gt = np.zeros((h, w), dtype=np.int64)
    gt[: h // 2, : w // 2] = 1
    gt[: h // 2, w // 2 :] = 2
    gt[h // 2 :, : w // 2] = 3
    gt[h // 2 :, w // 2 :] = 4
    # inner rectangles so region boundaries are nontrivial
    gt[10:20, 40:55] = 3
    gt[40:52, 8:22] = 2
    gt[44:56, 38:50] = 1
    noise = default_rng(seed).normal(0, sigma, (h, w, bands))
    return sigs[gt - 1] + noise, gt


def make_train_mask(gt, n_per_class, seed):
    """Random per-class training mask over a fully labeled ground truth."""
    rng = default_rng(seed)
    mask = np.zeros_like(gt)
    for c in np.unique(gt[gt > 0]):
        rr, cc = np.where(gt == c)
        pick = rng.choice(len(rr), n_per_class, replace=False)
        mask[rr[pick], cc[pick]] = c
    return mask


# Address-space cap of run_main_capped: a normal estimate-btc peaks at a VmPeak of ~180 MB
CAPPED_MAIN_BYTES = 1 << 30


def run_main_capped(argv, limit=CAPPED_MAIN_BYTES):
    """Run ``btckit.cli.main(argv)`` in a child process whose address space is capped.

    Returns (exit code, stderr). An input that would make the program grow
    without bound fails fast with a MemoryError there, instead of exhausting
    the machine.
    """
    # the child caps itself before it imports anything: a preexec_fn is unsafe
    # in this process, which runs BLAS threads
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from btckit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(btckit.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return out.returncode, out.stderr


@pytest.fixture
def rng():
    return default_rng(12345)
