"""The benchmark workloads: inputs, CLI calls, and correctness gates.

Each workload (or part of one) writes its inputs from the seed before anything is timed and
lists the CLI calls of one pass. Every call uses the CLI's own defaults for
everything the workload does not set (``--threads`` included), because that
is how the CLI is run. Gates read only the artifacts the calls wrote;
accuracies are computed here with numpy, never parsed from CLI output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import generators as gen
import oracle

# agreement with a profile CSV printed with 10 decimals: half a unit in the
# last place, plus slack for the reference's own rounding
PROFILE_TOL = 0.5e-10 + 1e-11


@dataclass
class Call:
    name: str
    argv: list[str]
    out_dir: str
    items: int  # samples, pixels or beta values one call produces


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Workload:
    root: str
    calls: list[Call] = field(default_factory=list)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def add_call(self, name: str, argv: list[str], items: int) -> None:
        out = self.path(f"out_{name}")
        self.calls.append(Call(name, argv + ["--output-dir", out], out, items))

    def call(self, name: str) -> Call:
        return next(c for c in self.calls if c.name == name)

    def resolved(self, name: str, artifact: str) -> dict[str, str]:
        """The resolved configuration from an artifact's sidecar."""
        with open(os.path.join(self.call(name).out_dir, artifact + ".config.txt"), encoding="utf-8") as fh:
            return dict(line.rstrip("\n").partition("=")[::2] for line in fh if "=" in line)


def artifacts_gate(workload: Workload, name: str, *artifacts: str) -> Gate:
    out = workload.call(name).out_dir
    paths = [os.path.join(out, a) for a in artifacts]
    paths += [p + ".config.txt" for p in paths]
    missing = [os.path.basename(p) for p in paths if not (os.path.isfile(p) and os.path.getsize(p) > 0)]
    return Gate(f"{name}.artifacts", not missing, f"missing {missing}" if missing else "")


def read_lines_int(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([int(v) for v in fh.read().split()], dtype=np.int64)


def floor_gate(name: str, value: float, floor: float) -> Gate:
    return Gate(f"{name}>={floor}", value >= floor, f"{value:.4f}")


# ---------------------------------------------------------------- dense


class Dense(Workload):
    """16 Gaussian blobs, B=200: BTC, KBTC and the BTC-5 ensemble per test sample."""

    CLASSES, DIM, SIGMA = 16, 200, 2.75
    TRAIN, TEST, ENSEMBLE_TEST = 60, 125, 25  # per class
    GAMMA = 0.1
    ORACLE_SAMPLES = 64
    FLOORS = {"oa_btc": 0.8, "oa_kbtc": 0.8, "oa_ensemble": 0.3}

    def __init__(self, root: str, seed: int):
        super().__init__(root)
        x, y, centers = gen.make_blobs(self.TRAIN, self.CLASSES, self.DIM, self.SIGMA, seed)
        xt, yt = gen.sample_blobs(centers, self.TEST, self.SIGMA, seed + 1)
        ens = np.arange(yt.size) % self.TEST < self.ENSEMBLE_TEST
        self.train = gen.write_matrix_csv(self.path("train.csv"), x)
        self.test = gen.write_matrix_csv(self.path("test.csv"), xt)
        gen.write_matrix_csv(self.path("ens_test.csv"), xt[ens])
        for name, labels in (("train", y), ("test", yt), ("ens_test", yt[ens])):
            gen.write_labels(self.path(f"{name}_labels.csv"), labels)
        self.train_labels, self.test_labels, self.ens_labels = y, yt, yt[ens]

        data = ["--train", self.path("train.csv"), "--train-labels", self.path("train_labels.csv")]
        test = ["--test", self.path("test.csv"), "--test-labels", self.path("test_labels.csv")]
        ens_test = ["--test", self.path("ens_test.csv"), "--test-labels", self.path("ens_test_labels.csv")]
        self.add_call("classify_btc", ["classify", *data, *test, "--classifier", "btc", "--m", "20"], yt.size)
        self.add_call(
            "classify_kbtc",
            ["classify", *data, *test, "--classifier", "kbtc", "--m", "20", "--gamma", str(self.GAMMA)],
            yt.size,
        )
        self.add_call(
            "ensemble",
            ["ensemble", *data, *ens_test, "--n", "5", "--b", "30", "--s", "3", "--m", "10"],
            int(ens.sum()),
        )

    def predictions(self, name: str) -> np.ndarray:
        return read_lines_int(os.path.join(self.call(name).out_dir, "predictions.csv"))

    def gates(self) -> tuple[list[Gate], dict]:
        gates = [artifacts_gate(self, c.name, "predictions.csv") for c in self.calls]
        if not all(g.ok for g in gates):
            return gates, {}
        pred = {c.name: self.predictions(c.name) for c in self.calls}
        truth = {"classify_btc": self.test_labels, "classify_kbtc": self.test_labels, "ensemble": self.ens_labels}
        if any(pred[n].shape != truth[n].shape for n in pred):
            return gates + [Gate("predictions.count", False, "wrong number of predictions")], {}

        pick = np.linspace(0, self.test_labels.size - 1, self.ORACLE_SAMPLES).astype(int)
        btc_cfg = self.resolved("classify_btc", "predictions.csv")
        expect = oracle.btc_labels(self.train, self.train_labels, self.test[pick], int(btc_cfg["m"]), float(btc_cfg["alpha"]))
        gates.append(mismatch_gate("classify_btc.oracle", pred["classify_btc"][pick], expect))
        kbtc_cfg = self.resolved("classify_kbtc", "predictions.csv")
        expect = oracle.kbtc_labels(
            self.train, self.train_labels, self.test[pick],
            int(kbtc_cfg["m"]), float(kbtc_cfg["alpha"]), float(kbtc_cfg["gamma"]),
        )
        gates.append(mismatch_gate("classify_kbtc.oracle", pred["classify_kbtc"][pick], expect))

        figures = {
            "oa_btc": float(np.mean(pred["classify_btc"] == truth["classify_btc"])),
            "oa_kbtc": float(np.mean(pred["classify_kbtc"] == truth["classify_kbtc"])),
            "oa_ensemble": float(np.mean(pred["ensemble"] == truth["ensemble"])),
        }
        gates += [floor_gate(k, figures[k], v) for k, v in self.FLOORS.items()]
        return gates, figures


def mismatch_gate(name: str, got: np.ndarray, expect: np.ndarray) -> Gate:
    bad = np.flatnonzero(got != expect)
    return Gate(name, bad.size == 0, f"{bad.size}/{got.size} differ" + (f", first at {bad[0]}" if bad.size else ""))


# ---------------------------------------------------------------- estimate


class Estimate(Workload):
    """Threshold estimation (B=50 blobs) and two-stage gamma/M estimation (rings)."""

    BLOB_CLASSES, BLOB_DIM, BLOB_PER_CLASS, BLOB_SIGMA = 8, 50, 50, 1.5
    RING_PER_CLASS, RING_DIM, RING_NOISE = 200, 10, 0.05
    GRID = 12  # points of the CLI's default gamma grid
    CHECK_M_BTC, CHECK_M_KBTC = (5, 20), (3, 7)

    def __init__(self, root: str, seed: int):
        super().__init__(root)
        x, y, _ = gen.make_blobs(self.BLOB_PER_CLASS, self.BLOB_CLASSES, self.BLOB_DIM, self.BLOB_SIGMA, seed)
        r, ry = gen.make_rings(self.RING_PER_CLASS, self.RING_DIM, self.RING_NOISE, seed + 1)
        self.blobs, self.blob_labels = gen.write_matrix_csv(self.path("blobs.csv"), x), y
        self.rings, self.ring_labels = gen.write_matrix_csv(self.path("rings.csv"), r), ry
        gen.write_labels(self.path("blobs_labels.csv"), y)
        gen.write_labels(self.path("rings_labels.csv"), ry)

        n_b, n_r = y.size, ry.size
        self.add_call(
            "estimate_btc",
            ["estimate-btc", "--train", self.path("blobs.csv"), "--train-labels", self.path("blobs_labels.csv")],
            (self.BLOB_DIM - 2) * n_b,
        )
        self.add_call(
            "estimate_kbtc",
            ["estimate-kbtc", "--train", self.path("rings.csv"), "--train-labels", self.path("rings_labels.csv")],
            (self.GRID * (self.RING_DIM - 1) + self.RING_DIM - 2) * n_r,
        )

    def profile(self, name: str, artifact: str) -> np.ndarray:
        return np.loadtxt(os.path.join(self.call(name).out_dir, artifact), delimiter=",", skiprows=1, ndmin=2)

    def gates(self) -> tuple[list[Gate], dict]:
        gates = [
            artifacts_gate(self, "estimate_btc", "beta_profile.csv"),
            artifacts_gate(self, "estimate_kbtc", "gamma_profile.csv", "m_profile.csv"),
        ]
        if not all(g.ok for g in gates):
            return gates, {}
        beta = self.profile("estimate_btc", "beta_profile.csv")
        gamma = self.profile("estimate_kbtc", "gamma_profile.csv")
        m_prof = self.profile("estimate_kbtc", "m_profile.csv")
        btc_alpha = float(self.resolved("estimate_btc", "beta_profile.csv")["alpha"])
        kbtc_alpha = float(self.resolved("estimate_kbtc", "m_profile.csv")["alpha"])
        gamma_hat = float(gamma[np.argmin(gamma[:, 1]), 0])

        def check(name, table, key, reference):
            row = table[np.isclose(table[:, 0], key, rtol=1e-9, atol=0)]
            if row.shape[0] != 1:
                return Gate(name, False, f"no row for {key}")
            gap = abs(float(row[0, 1]) - reference)
            return Gate(name, gap <= PROFILE_TOL, f"gap {gap:.2e}")

        for m in self.CHECK_M_BTC:
            ref = oracle.btc_beta(self.blobs, self.blob_labels, m, btc_alpha)
            gates.append(check(f"beta_profile.m{m}", beta, m, ref))
        for m in self.CHECK_M_KBTC:
            ref = oracle.kbtc_beta(self.rings, self.ring_labels, m, kbtc_alpha, gamma_hat)
            gates.append(check(f"m_profile.m{m}", m_prof, m, ref))
        for g in (gamma_hat, float(gamma[-1, 0])):
            ref = oracle.kbtc_gamma_beta(self.rings, self.ring_labels, kbtc_alpha, g)
            gates.append(check(f"gamma_profile.g{g:.6g}", gamma, g, ref))
        figures = {
            "beta_min_btc": float(beta[:, 1].min()),
            "beta_min_kbtc": float(m_prof[:, 1].min()),
            "m_hat_btc": int(beta[np.argmin(beta[:, 1]), 0]),
            "gamma_hat": gamma_hat,
        }
        # identifiable on average at the chosen M: the estimate is usable
        gates.append(Gate("beta_min_btc<1", figures["beta_min_btc"] < 1, f"{figures['beta_min_btc']:.4f}"))
        gates.append(Gate("beta_min_kbtc<1", figures["beta_min_kbtc"] < 1, f"{figures['beta_min_kbtc']:.4f}"))
        return gates, figures


# ---------------------------------------------------------------- hsi


class Hsi(Workload):
    """145 x 145 x 200 blocky 16-class cube through classify-hsi with WLS smoothing."""

    HEIGHT, WIDTH, BANDS, CLASSES = 145, 145, 200, 16
    SIGMA, UNLABELED_EVERY, TRAIN_PER_CLASS = 0.25, 12, 50
    ORACLE_PIXELS = 256
    FLOORS = {"oa_hsi_pixelwise": 0.6, "oa_hsi": 0.85}

    def __init__(self, root: str, seed: int):
        super().__init__(root)
        values, gt = gen.make_blocky_scene(
            seed, self.HEIGHT, self.WIDTH, self.BANDS, self.CLASSES, self.SIGMA, self.UNLABELED_EVERY
        )
        self.values, self.gt = values, gt
        self.mask = gen.make_train_mask(gt, self.TRAIN_PER_CLASS, seed + 1)
        self.seed = seed
        gen.write_cube(self.path("scene.hdr"), self.path("scene.raw"), values)
        gen.write_label_map(self.path("gt.csv"), gt)
        gen.write_label_map(self.path("mask.csv"), self.mask)
        self.add_call(
            "classify_hsi",
            [
                "classify-hsi", "--cube-header", self.path("scene.hdr"), "--cube-raw", self.path("scene.raw"),
                "--gt", self.path("gt.csv"), "--train-mask", self.path("mask.csv"),
                "--smoothing", "wls", "--m", "10",
            ],
            self.HEIGHT * self.WIDTH,
        )

    def classmap(self, name: str) -> np.ndarray:
        return np.loadtxt(os.path.join(self.call("classify_hsi").out_dir, name), delimiter=",", dtype=np.int64, ndmin=2)

    def gates(self) -> tuple[list[Gate], dict]:
        gates = [artifacts_gate(self, "classify_hsi", "classmap_pixelwise.csv", "classmap_smoothed.csv")]
        if not gates[0].ok:
            return gates, {}
        pixelwise = self.classmap("classmap_pixelwise.csv")
        smoothed = self.classmap("classmap_smoothed.csv")
        if pixelwise.shape != self.gt.shape or smoothed.shape != self.gt.shape:
            return gates + [Gate("classmap.shape", False, f"{pixelwise.shape}, {smoothed.shape}")], {}

        cfg = self.resolved("classify_hsi", "classmap_pixelwise.csv")
        train = np.argwhere(self.mask > 0)
        rng = np.random.default_rng(self.seed)
        pick = rng.choice(self.gt.size, self.ORACLE_PIXELS, replace=False)
        rows, cols = np.unravel_index(pick, self.gt.shape)
        expect = oracle.btc_labels(
            self.values[train[:, 0], train[:, 1]],
            self.gt[train[:, 0], train[:, 1]],
            self.values[rows, cols],
            int(cfg["m"]),
            float(cfg["alpha"]),
        )
        gates.append(mismatch_gate("classmap_pixelwise.oracle", pixelwise[rows, cols], expect))

        test = (self.gt > 0) & (self.mask == 0)
        figures = {
            "oa_hsi": float(np.mean(smoothed[test] == self.gt[test])),
            "oa_hsi_pixelwise": float(np.mean(pixelwise[test] == self.gt[test])),
        }
        gates += [floor_gate(k, figures[k], v) for k, v in self.FLOORS.items()]
        gates.append(Gate("smoothing_helps", figures["oa_hsi"] > figures["oa_hsi_pixelwise"]))
        return gates, figures


# ---------------------------------------------------------------- workloads


class Composite(Workload):
    """Parts that share one directory; a pass runs the calls of every part in turn."""

    PARTS: tuple = ()

    def __init__(self, root: str, seed: int):
        super().__init__(root)
        self.parts = [part(root, seed) for part in self.PARTS]
        self.calls = [c for p in self.parts for c in p.calls]

    def gates(self) -> tuple[list[Gate], dict]:
        gates, figures = [], {}
        for part in self.parts:
            g, f = part.gates()
            gates += g
            figures.update(f)
        return gates, figures


class EstimateHsi(Composite):
    """Threshold and parameter estimation, then the spatial-spectral HSI pipeline.

    The two share a workload so that each pass sums three calls of different
    code: on a shared VM the time of one call type drifts by over ten percent
    between runs, and a pass of a single call type did not settle within the
    bounds.
    """

    PARTS = (Estimate, Hsi)


WORKLOADS = {"dense": Dense, "estimate_hsi": EstimateHsi}
