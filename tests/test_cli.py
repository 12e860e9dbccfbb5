"""End-to-end command-line interface wiring."""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import btckit
from btckit import build_dictionary, kbtc_estimate_params, load_hsi_cube, save_hsi_cube, spatial
from btckit.cli import _build_parser, _parse_gamma_grid, main
from btckit.data import NORM_RANGE, save_label_map
from btckit.errors import ConfigError
from tests.conftest import make_blobs, make_blocky_scene, make_train_mask, run_main_capped


def _write_dense(tmp_path, prefix, samples, labels):
    fx = tmp_path / f"{prefix}_x.csv"
    fy = tmp_path / f"{prefix}_y.csv"
    fx.write_text("\n".join(",".join(f"{v:.10f}" for v in row) for row in samples) + "\n")
    fy.write_text("\n".join(str(int(v)) for v in labels) + "\n")
    return str(fx), str(fy)


@pytest.fixture
def blob_files(tmp_path):
    x_tr, y_tr = make_blobs(10, 3, 12, 0, 0.5)
    x_te, y_te = make_blobs(5, 3, 12, 1000, 0.5)
    train = _write_dense(tmp_path, "train", x_tr, y_tr)
    test = _write_dense(tmp_path, "test", x_te, y_te)
    return train, test


class TestParseGammaGrid:
    def test_power_range(self):
        grid = _parse_gamma_grid("2^-10..2^1")
        assert grid == [2.0**e for e in range(-10, 2)]

    def test_comma_list_with_powers(self):
        assert _parse_gamma_grid("0.5,2^2,1.25") == [0.5, 4.0, 1.25]

    def test_malformed_range(self):
        with pytest.raises(ConfigError):
            _parse_gamma_grid("0.1..0.9")

    def test_malformed_term(self):
        with pytest.raises(ConfigError, match="malformed gamma grid"):
            _parse_gamma_grid("0.5,abc")

    @pytest.mark.parametrize("grid", ["2^5000", "2^1..2^5000", "10^400", "0^-1"])
    def test_out_of_range_arithmetic_exit_code(self, tmp_path, capsys, grid):
        with pytest.raises(ConfigError, match="malformed gamma grid"):
            _parse_gamma_grid(grid)
        x, y = make_blobs(5, 2, 4, 0, 0.5)
        tr_x, tr_y = _write_dense(tmp_path, "tr", x, y)
        argv = ["estimate-kbtc", "--train", tr_x, "--train-labels", tr_y, "--gamma-grid", grid]
        assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "malformed gamma grid" in err and "Traceback" not in err


class TestClassifyCommand:
    def test_btc_end_to_end(self, blob_files, tmp_path, capsys):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        out = tmp_path / "out"
        rc = main([
            "classify", "--train", tr_x, "--train-labels", tr_y,
            "--test", te_x, "--test-labels", te_y,
            "--m", "6", "--alpha", "0.01", "--output-dir", str(out),
        ])
        assert rc == 0
        assert "OA=" in capsys.readouterr().out
        predictions = (out / "predictions.csv").read_text().strip().splitlines()
        assert len(predictions) == 15
        assert (out / "report.txt").exists()
        assert (out / "report.json").exists()
        assert (out / "predictions.csv.config.txt").exists()

    def test_btc_runs_without_scipy(self, blob_files, tmp_path):
        # a fresh interpreter: this one may have imported SciPy for other tests
        (tr_x, tr_y), (te_x, te_y) = blob_files
        argv = [
            "classify", "--train", tr_x, "--train-labels", tr_y,
            "--test", te_x, "--test-labels", te_y, "--classifier", "btc",
            "--m", "6", "--alpha", "0.01", "--output-dir", str(tmp_path / "out"),
        ]
        code = (
            "import sys, btckit, btckit.cli\n"
            f"rc = btckit.cli.main({argv!r})\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(btckit.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert out.stdout.splitlines()[-1] == "0 []"

    def test_kbtc_end_to_end(self, blob_files, tmp_path):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        out = tmp_path / "outk"
        rc = main([
            "classify", "--train", tr_x, "--train-labels", tr_y,
            "--test", te_x, "--test-labels", te_y, "--classifier", "kbtc",
            "--m", "6", "--alpha", "1e-4", "--gamma", "0.5",
            "--output-dir", str(out),
        ])
        assert rc == 0
        assert (out / "predictions.csv").exists()

    def test_deterministic_predictions(self, blob_files, tmp_path):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main([
                "classify", "--train", tr_x, "--train-labels", tr_y,
                "--test", te_x, "--test-labels", te_y,
                "--m", "6", "--output-dir", str(out),
            ])
            outputs.append((out / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_file_exit_code(self, tmp_path):
        rc = main([
            "classify", "--train", str(tmp_path / "nope.csv"),
            "--train-labels", str(tmp_path / "nope_y.csv"),
            "--test", str(tmp_path / "nope.csv"),
            "--test-labels", str(tmp_path / "nope_y.csv"),
            "--m", "5", "--output-dir", str(tmp_path),
        ])
        assert rc == 3

    def test_bad_m_exit_code(self, blob_files, tmp_path):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        rc = main([
            "classify", "--train", tr_x, "--train-labels", tr_y,
            "--test", te_x, "--test-labels", te_y,
            "--m", "99", "--output-dir", str(tmp_path / "bad"),
        ])
        assert rc == 2

    def test_original_labels_restored(self, tmp_path):
        # labels 3 and 7 must come back as 3 and 7, not 1 and 2
        rng = default_rng(63)
        x = np.vstack([rng.normal(0, 0.1, (6, 8)), rng.normal(3, 0.1, (6, 8))])
        y = np.array([3] * 6 + [7] * 6)
        (tr_x, tr_y) = _write_dense(tmp_path, "tr", x, y)
        (te_x, te_y) = _write_dense(tmp_path, "te", x[:4], y[:4])
        out = tmp_path / "orig"
        rc = main([
            "classify", "--train", tr_x, "--train-labels", tr_y,
            "--test", te_x, "--test-labels", te_y,
            "--m", "4", "--output-dir", str(out),
        ])
        assert rc == 0
        labels = {int(v) for v in (out / "predictions.csv").read_text().split()}
        assert labels <= {3, 7}


class TestConfigFile:
    def test_flags_fill_from_config(self, blob_files, tmp_path, capsys):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha=0.05\noutput-dir={tmp_path / 'cfg_out'}\n")
        rc = main([
            "classify", "--config", str(cfg), "--train", tr_x,
            "--train-labels", tr_y, "--test", te_x, "--test-labels", te_y,
            "--m", "6",
        ])
        assert rc == 0
        sidecar = (tmp_path / "cfg_out" / "predictions.csv.config.txt").read_text()
        assert "alpha=0.05" in sidecar

    def test_explicit_flag_overrides_config(self, blob_files, tmp_path):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.5\nm=4\n")
        out = tmp_path / "cfg_flag"
        rc = main([
            "classify", "--config", str(cfg), "--train", tr_x,
            "--train-labels", tr_y, "--test", te_x, "--test-labels", te_y,
            "--alpha", "0.02", "--output-dir", str(out),
        ])
        assert rc == 0
        sidecar = (out / "predictions.csv.config.txt").read_text().splitlines()
        assert "alpha=0.02" in sidecar  # the flag wins
        assert "m=4" in sidecar  # the file supplies a flag the command line left out

    @pytest.mark.parametrize("line", ["m=abc", "classifier=svm"])
    def test_bad_value_exit_code(self, blob_files, tmp_path, line):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main([
            "classify", "--config", str(cfg), "--train", tr_x,
            "--train-labels", tr_y, "--test", te_x, "--test-labels", te_y,
            "--m", "6", "--output-dir", str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize("command", ["ensemble", "synth-recovery"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_seed_exit_code(self, blob_files, tmp_path, capsys, command, from_config):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        argv = [command, "--output-dir", str(tmp_path / "out")]
        if command == "ensemble":
            argv += ["--train", tr_x, "--train-labels", tr_y, "--test", te_x, "--test-labels", te_y,
                     "--b", "6", "--m", "3"]
        if from_config:
            (tmp_path / "run.cfg").write_text("seed=-1\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        else:
            argv += ["--seed", "-5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("from_config", [False, True])
    @pytest.mark.parametrize("command, key, value", [
        ("classify", "m", "abc"),
        ("classify", "classifier", "svm"),
        ("classify", "seed", "-1"),
        ("classify-hsi", "window", "4"),
        ("ensemble", "n", "1001"),
    ])
    def test_bad_value_from_flag_or_file_exit_code(
        self, blob_files, tmp_path, capsys, command, key, value, from_config
    ):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        if command == "classify-hsi":
            argv = _hsi_files(tmp_path)[0]
        else:
            argv = [command, "--train", tr_x, "--train-labels", tr_y, "--test", te_x, "--test-labels", te_y,
                    "--m", "3"] + (["--b", "6"] if command == "ensemble" else [])
        if from_config:
            (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        else:
            argv += [f"--{key}", value]
        assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: argument --{key}: " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [["--alph", "0.5"], "alph=0.5", "output_dir=elsewhere", "config=other.cfg"])
    def test_not_a_flag_name_rejected(self, tmp_path, capsys, extra):
        # a line or flag must spell a flag out exactly: no abbreviation, no underscores
        argv = ["synth-recovery", "--output-dir", str(tmp_path / "out")]
        if isinstance(extra, str):
            (tmp_path / "run.cfg").write_text(extra + "\n")
            extra = ["--config", str(tmp_path / "run.cfg")]
        assert main(argv + extra) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nul_in_a_config_value_exit_code(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text(f"output-dir={tmp_path / 'o'}\0ut\n")
        assert main(["synth-recovery", "--n", "16", "--b", "8", "--k", "1", "--m", "2",
                     "--config", str(tmp_path / "run.cfg")]) == 2
        err = capsys.readouterr().err
        assert "run.cfg: malformed line 1" in err and "Traceback" not in err

    def test_unknown_key_rejected(self, blob_files, tmp_path):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble=1\n")
        rc = main([
            "classify", "--config", str(cfg), "--train", tr_x,
            "--train-labels", tr_y, "--test", te_x, "--test-labels", te_y,
            "--m", "6", "--output-dir", str(tmp_path),
        ])
        assert rc == 2


class TestEstimateCommands:
    def test_estimate_btc_profile(self, tmp_path, capsys):
        x, y = make_blobs(8, 2, 6, 2, 0.4)
        tr_x, tr_y = _write_dense(tmp_path, "tr", x, y)
        out = tmp_path / "est"
        rc = main([
            "estimate-btc", "--train", tr_x, "--train-labels", tr_y,
            "--output-dir", str(out),
        ])
        assert rc == 0
        assert "M_hat=" in capsys.readouterr().out
        profile = (out / "beta_profile.csv").read_text().splitlines()
        assert profile[0] == "m,beta_avg"
        assert len(profile) == 5  # m = 2..5 for B=6

    def test_estimate_kbtc_matches_library(self, tmp_path, capsys):
        x, y = make_blobs(6, 2, 5, 3, 0.4)
        tr_x, tr_y = _write_dense(tmp_path, "tr", x, y)
        out = tmp_path / "estk"
        rc = main([
            "estimate-kbtc", "--train", tr_x, "--train-labels", tr_y,
            "--gamma-grid", "0.25,1.0,4.0", "--output-dir", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        d = build_dictionary(x, y, NORM_RANGE)
        gamma_hat, m_hat, _, _ = kbtc_estimate_params(d, 1e-9, [0.25, 1.0, 4.0])
        assert f"gamma_hat={gamma_hat:.10g}" in printed
        assert f"M_hat={m_hat}" in printed
        assert (out / "gamma_profile.csv").exists()
        assert (out / "m_profile.csv").exists()


    @pytest.mark.parametrize(
        "command, alpha",
        [("estimate-btc", "nan"), ("estimate-btc", "0"), ("estimate-kbtc", "5")],
    )
    def test_alpha_outside_unit_interval_exit_code(self, tmp_path, command, alpha):
        x, y = make_blobs(6, 2, 5, 3, 0.4)
        tr_x, tr_y = _write_dense(tmp_path, "tr", x, y)
        rc = main([
            command, "--train", tr_x, "--train-labels", tr_y, "--alpha", alpha,
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 2


class TestNonFiniteCells:
    @pytest.mark.parametrize(
        "command, corrupt, value",
        [
            (["classify", "--m", "6"], "test", "nan"),
            (["classify", "--m", "6", "--classifier", "kbtc"], "train", "inf"),
            (["estimate-btc"], "train", "inf"),
            (["coherence"], "train", "-inf"),
        ],
    )
    def test_exit_code_names_the_cell(self, blob_files, tmp_path, capsys, command, corrupt, value):
        (tr_x, tr_y), (te_x, te_y) = blob_files
        path = tr_x if corrupt == "train" else te_x
        with open(path) as fh:
            rows = fh.read().splitlines()
        cells = rows[3].split(",")
        cells[2] = value
        rows[3] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        args = command + ["--train", tr_x, "--train-labels", tr_y, "--output-dir", str(tmp_path / "out")]
        if command[0] == "classify":
            args += ["--test", te_x, "--test-labels", te_y]
        assert main(args) == 3
        assert "non-finite value at sample 3, column 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, corrupt, message",
        [
            (["coherence"], "train", "non-finite column norm at sample index 3"),
            (["estimate-btc"], "train", "non-finite column norm at sample index 3"),
            (["classify", "--m", "6"], "train", "non-finite column norm at sample index 3"),
            (["classify", "--m", "6"], "test", "sample 3: non-finite test vector norm"),
            (["ensemble", "--m", "3", "--b", "6"], "test", "sample 3: non-finite test vector norm"),
        ],
    )
    def test_value_too_large_to_square_exit_code_names_the_sample(
        self, blob_files, tmp_path, capsys, command, corrupt, message
    ):
        # finite, so the files pass their check, but its square overflows the L2 norm
        (tr_x, tr_y), (te_x, te_y) = blob_files
        path = tr_x if corrupt == "train" else te_x
        with open(path) as fh:
            rows = fh.read().splitlines()
        rows[3] = ",".join(["1e200"] * len(rows[3].split(",")))
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        args = command + ["--train", tr_x, "--train-labels", tr_y, "--output-dir", str(tmp_path / "out")]
        if command[0] in ("classify", "ensemble"):
            args += ["--test", te_x, "--test-labels", te_y]
        assert main(args) == 3
        assert message in capsys.readouterr().err


def _hsi_files(tmp_path):
    cube, gt = make_blocky_scene(seed=4, sigma=0.4, h=20, w=20, bands=8)
    mask = make_train_mask(gt, 10, seed=104)
    hdr, raw = str(tmp_path / "c.hdr"), str(tmp_path / "c.raw")
    save_hsi_cube(cube, hdr, raw)
    gt_path = str(tmp_path / "gt.csv")
    mask_path = str(tmp_path / "mask.csv")
    save_label_map(gt, gt_path)
    save_label_map(mask, mask_path)
    args = ["classify-hsi", "--cube-header", hdr, "--cube-raw", raw, "--gt", gt_path,
            "--train-mask", mask_path, "--m", "6"]
    return args, gt, mask


def _root_buffer(array):
    """The object that owns an array's memory."""
    root = array
    while isinstance(root, np.ndarray) and root.base is not None:
        root = root.base
    return root.obj if isinstance(root, memoryview) else root


class TestHsiCommand:
    @pytest.mark.parametrize("classifier", ["btc", "kbtc"])
    @pytest.mark.parametrize("smoothing", ["wls", "box", "none"])
    def test_cube_is_freed_before_smoothing(self, tmp_path, monkeypatch, smoothing, classifier):
        args, _, _ = _hsi_files(tmp_path)
        cubes, alive = [], []

        def load(*paths):
            cube = load_hsi_cube(*paths)
            cubes.append(weakref.ref(_root_buffer(cube)))
            return cube

        def checked(fn):
            def run(*a, **kw):
                alive.append(cubes[0]() is not None)
                return fn(*a, **kw)
            return run

        monkeypatch.setattr(btckit.cli, "load_hsi_cube", load)
        # each smoothing, and the decision that follows every smoothing and stands in for "none"
        for name in ("wls_smooth", "box_smooth", "decide_from_cube"):
            monkeypatch.setattr(spatial, name, checked(getattr(spatial, name)))
        argv = args + ["--classifier", classifier, "--smoothing", smoothing]
        assert main(argv + ["--output-dir", str(tmp_path / "hsi")]) == 0
        assert alive and not any(alive)

    def test_raw_file_shrinking_after_its_check_exit_code(self, tmp_path, monkeypatch, capsys):
        args, _, _ = _hsi_files(tmp_path)
        raw = args[4]
        size = os.path.getsize(raw)
        with open(raw, "r+b") as fh:
            fh.truncate(size - 8)
        getsize = os.path.getsize
        monkeypatch.setattr(os.path, "getsize", lambda path: size if path == raw else getsize(path))
        assert main(args + ["--output-dir", str(tmp_path / "hsi")]) == 3
        err = capsys.readouterr().err
        assert "size changed while reading" in err and "Traceback" not in err

    def test_classify_hsi_small_scene(self, tmp_path, capsys):
        args, _, _ = _hsi_files(tmp_path)
        out = tmp_path / "hsi"
        rc = main(args + ["--smoothing", "wls", "--output-dir", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "pixelwise: OA=" in printed
        assert "smoothed: OA=" in printed
        for name in ("classmap_pixelwise", "classmap_smoothed"):
            assert (out / f"{name}.csv").exists()
            assert (out / f"{name}.pgm").exists()

    @pytest.mark.parametrize("classifier", ["btc", "kbtc"])
    def test_f32_and_f64_files_of_the_same_values_write_identical_maps(self, tmp_path, classifier):
        args, _, _ = _hsi_files(tmp_path)
        cube = load_hsi_cube(args[2], args[4]).astype(np.float32)
        for dtype in ("f32", "f64"):
            hdr, raw = str(tmp_path / f"{dtype}.hdr"), str(tmp_path / f"{dtype}.raw")
            save_hsi_cube(cube, hdr, raw, dtype=dtype)
            argv = args[:1] + ["--cube-header", hdr, "--cube-raw", raw] + args[5:]
            out = ["--classifier", classifier, "--smoothing", "wls", "--output-dir", str(tmp_path / dtype)]
            assert main(argv + out) == 0
        for name in ("classmap_pixelwise.csv", "classmap_smoothed.csv", "classmap_pixelwise.pgm",
                     "classmap_smoothed.pgm"):
            assert (tmp_path / "f32" / name).read_bytes() == (tmp_path / "f64" / name).read_bytes()

    def test_scores_test_pixels_only(self, tmp_path):
        args, gt, mask = _hsi_files(tmp_path)
        out = tmp_path / "hsi"
        assert main(args + ["--smoothing", "none", "--output-dir", str(out)]) == 0
        test = (gt > 0) & (mask == 0)
        pixelwise = np.loadtxt(out / "classmap_pixelwise.csv", delimiter=",", dtype=np.int64)
        report = json.loads((out / "report_pixelwise.json").read_text())
        assert np.sum(report["confusion"]) == test.sum() < (gt > 0).sum()
        assert report["oa"] == pytest.approx(np.mean(pixelwise[test] == gt[test]))

    def test_wls_losing_identity_term_exit_code(self, tmp_path):
        args, _, _ = _hsi_files(tmp_path)
        out = ["--smoothing", "wls", "--wls-lambda", "1e12", "--output-dir", str(tmp_path / "hsi")]
        assert main(args + out) == 4

    def test_non_integer_label_map_exit_code(self, tmp_path):
        args, _, _ = _hsi_files(tmp_path)
        with open(tmp_path / "gt.csv", "a", encoding="utf-8") as fh:
            fh.write("1,x\n")
        assert main(args + ["--output-dir", str(tmp_path / "hsi")]) == 3


class TestNotUtf8Input:
    """A byte that is not UTF-8 in an input file is an error of that input."""

    @pytest.mark.parametrize("target, code", [("csv", 3), ("cube header", 3), ("config", 2)])
    def test_exit_code_names_the_file(self, tmp_path, capsys, target, code):
        x, y = make_blobs(5, 2, 4, 0, 0.5)
        tr_x, tr_y = _write_dense(tmp_path, "tr", x, y)
        if target == "csv":
            bad = tr_x
            argv = ["coherence", "--train", tr_x, "--train-labels", tr_y]
        elif target == "cube header":
            argv, _, _ = _hsi_files(tmp_path)
            bad = argv[2]
        else:
            bad = str(tmp_path / "run.cfg")
            argv = ["estimate-btc", "--train", tr_x, "--train-labels", tr_y, "--config", bad]
        with open(bad, "ab") as fh:
            fh.write(b"# caf\xe9\n" if target != "csv" else b"0,\xe9,1,2\n")
        assert main(argv + ["--output-dir", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err


class TestOtherCommands:
    def test_ensemble_command(self, tmp_path):
        x_tr, y_tr = make_blobs(10, 3, 40, 5, 0.8)
        x_te, y_te = make_blobs(4, 3, 40, 1005, 0.8)
        tr = _write_dense(tmp_path, "tr", x_tr, y_tr)
        te = _write_dense(tmp_path, "te", x_te, y_te)
        out = tmp_path / "ens"
        rc = main([
            "ensemble", "--train", tr[0], "--train-labels", tr[1],
            "--test", te[0], "--test-labels", te[1],
            "--n", "3", "--b", "15", "--m", "6", "--output-dir", str(out),
        ])
        assert rc == 0
        assert len((out / "predictions.csv").read_text().split()) == 12

    def test_roc_command(self, tmp_path):
        (tmp_path / "valid.txt").write_text("0.9\n0.8\n0.7\n")
        (tmp_path / "invalid.txt").write_text("0.1\n0.2\n")
        out = tmp_path / "roc"
        rc = main([
            "roc", "--valid-margins", str(tmp_path / "valid.txt"),
            "--invalid-margins", str(tmp_path / "invalid.txt"),
            "--points", "11", "--output-dir", str(out),
        ])
        assert rc == 0
        lines = (out / "roc.csv").read_text().splitlines()
        assert lines[0] == "tau,tpr,fpr"
        assert len(lines) == 12
        # blank lines in a margins file are skipped
        (tmp_path / "valid.txt").write_text("\n0.9\n\n0.8\n  \n0.7\n\n")
        rc = main([
            "roc", "--valid-margins", str(tmp_path / "valid.txt"),
            "--invalid-margins", str(tmp_path / "invalid.txt"),
            "--points", "11", "--output-dir", str(tmp_path / "roc_blank"),
        ])
        assert rc == 0
        assert (tmp_path / "roc_blank" / "roc.csv").read_text().splitlines() == lines

    def test_non_numeric_margin_exit_code(self, tmp_path):
        (tmp_path / "valid.txt").write_text("0.9\nhigh\n")
        (tmp_path / "invalid.txt").write_text("0.1\n")
        rc = main([
            "roc", "--valid-margins", str(tmp_path / "valid.txt"),
            "--invalid-margins", str(tmp_path / "invalid.txt"), "--output-dir", str(tmp_path),
        ])
        assert rc == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_margin_exit_code(self, tmp_path, capsys, bad):
        (tmp_path / "valid.txt").write_text(f"0.9\n{bad}\n")
        (tmp_path / "invalid.txt").write_text("0.1\n")
        rc = main([
            "roc", "--valid-margins", str(tmp_path / "valid.txt"),
            "--invalid-margins", str(tmp_path / "invalid.txt"),
            "--points", "3", "--output-dir", str(tmp_path / "roc"),
        ])
        assert rc == 3
        assert "non-finite margin at index 1" in capsys.readouterr().err
        assert not (tmp_path / "roc").exists()

    @pytest.mark.parametrize("points", ["-5", "0"])
    def test_roc_points_below_one_exit_code(self, tmp_path, points):
        (tmp_path / "valid.txt").write_text("0.9\n")
        (tmp_path / "invalid.txt").write_text("0.1\n")
        rc = main([
            "roc", "--valid-margins", str(tmp_path / "valid.txt"),
            "--invalid-margins", str(tmp_path / "invalid.txt"),
            "--points", points, "--output-dir", str(tmp_path / "roc"),
        ])
        assert rc == 2
        assert not (tmp_path / "roc").exists()

    @pytest.mark.parametrize("flags", [["--k", "600"], ["--k", "-1"], ["--n", "0"], ["--b", "0"]])
    def test_synth_recovery_bad_sizes_exit_code(self, tmp_path, flags):
        rc = main(["synth-recovery", *flags, "--output-dir", str(tmp_path / "rec")])
        assert rc == 2
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("argv, message", [
        (["roc", "--points", "100000000000"], "must be"),
        (["synth-recovery", "--n", "1000000000000", "--k", "1"], "must be"),
        (["synth-recovery", "--b", "1000000000000"], "must be"),
        (["estimate-btc", "--m-max", "100000000000"], "M range must lie"),
        (["estimate-btc", "--m-min", "-100000000000", "--m-max", "3"], "M range must lie"),
        (["estimate-kbtc", "--gamma-grid", "2^-100000000000..2^1"], "at most 1000 points"),
        (["synth-recovery", "--n", "10000000", "--b", "1", "--k", "1", "--m", "10000000"],
         "argument --m: must be"),
        (["classify-hsi", "--smoothing", "box", "--window", "100000000001"], "argument --window: must be"),
        (["ensemble", "--n", "100000000000"], "argument --n: must be"),
    ], ids=[
        "roc-points", "synth-recovery-n", "synth-recovery-b",
        "estimate-btc-m-max", "estimate-btc-m-min", "estimate-kbtc-gamma-grid",
        "synth-recovery-m", "classify-hsi-window", "ensemble-n",
    ])
    def test_size_above_its_bound_exit_code(self, tmp_path, argv, message):
        # in a capped child: an unchecked size fails fast there with a MemoryError
        if argv[0] == "roc":
            (tmp_path / "valid.txt").write_text("0.9\n")
            (tmp_path / "invalid.txt").write_text("0.1\n")
            argv = argv + ["--valid-margins", str(tmp_path / "valid.txt"),
                           "--invalid-margins", str(tmp_path / "invalid.txt")]
        elif argv[0].startswith("estimate"):
            tr_x, tr_y = _write_dense(tmp_path, "tr", *make_blobs(5, 2, 4, 0, 0.5))
            argv = argv + ["--train", tr_x, "--train-labels", tr_y]
        elif argv[0] == "classify-hsi":
            argv = _hsi_files(tmp_path)[0] + argv[1:]
        elif argv[0] == "ensemble":
            tr_x, tr_y = _write_dense(tmp_path, "tr", *make_blobs(5, 2, 8, 0, 0.5))
            argv = argv + ["--train", tr_x, "--train-labels", tr_y, "--test", tr_x, "--test-labels", tr_y,
                           "--b", "4", "--m", "2"]
        rc, err = run_main_capped(argv + ["--output-dir", str(tmp_path / "out")])
        assert rc == 2, err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_synth_recovery_non_finite_alpha_exit_code(self, tmp_path, capsys, alpha):
        rc = main(["synth-recovery", "--n", "32", "--b", "16", "--k", "2", "--m", "8", "--alpha", alpha,
                   "--output-dir", str(tmp_path / "rec")])
        assert rc == 2
        assert "alpha must be finite" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_synth_recovery_command(self, tmp_path, capsys):
        out = tmp_path / "rec"
        rc = main([
            "synth-recovery", "--n", "128", "--b", "64", "--k", "5",
            "--m", "40", "--seed", "7", "--output-dir", str(out),
        ])
        assert rc == 0
        assert "relative_l2_error=" in capsys.readouterr().out
        lines = (out / "recovery.csv").read_text().splitlines()
        assert lines[0] == "true,recovered"
        assert len(lines) == 129

    def test_coherence_command(self, tmp_path, capsys):
        x, y = make_blobs(5, 2, 8, 6, 0.5)
        tr_x, tr_y = _write_dense(tmp_path, "tr", x, y)
        rc = main(["coherence", "--train", tr_x, "--train-labels", tr_y,
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out
        mu = float(printed.partition("mu=")[2])
        assert 0.0 <= mu <= 1.0

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2


def test_every_int_flag_has_a_bounded_type():
    # argparse applies a flag's type to config lines too, so a bound there holds for both
    # sources; every typed flag that is not a float must be such a bounded int
    _, commands = _build_parser()
    actions = [action for command in commands.values() for action in command._actions]
    typed = [action for action in actions if action.type not in (None, float)]
    assert all(action in typed for action in actions if type(action.default) is int)
    assert len(typed) == 8 + 14  # --seed on every subcommand, and the others
    for action in typed:
        for beyond in (2**63, -(2**63) - 1, 10**30):
            with pytest.raises(argparse.ArgumentTypeError):
                action.type(str(beyond))
        with pytest.raises(argparse.ArgumentTypeError):
            action.type("12x")
        if action.default is not None:
            assert action.type(str(action.default)) == action.default


# The CLI contract through main for every subcommand: small valid runs, changed by drawn values
@pytest.fixture(scope="module")
def contract_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    x, y = make_blobs(4, 2, 6, 0, 0.5)
    tr_x, tr_y = _write_dense(root, "tr", x, y)
    te_x, te_y = _write_dense(root, "te", x[:3], y[:3])
    hsi = _hsi_files(root)[0]
    (root / "valid.txt").write_text("0.9\n0.4\n")
    (root / "invalid.txt").write_text("0.1\n")
    dense = ["--train", tr_x, "--train-labels", tr_y]
    test = ["--test", te_x, "--test-labels", te_y]
    runs = {
        "classify": ["classify", *dense, *test, "--m", "3"],
        "estimate-btc": ["estimate-btc", *dense],
        "estimate-kbtc": ["estimate-kbtc", *dense, "--gamma-grid", "0.5,2"],
        "classify-hsi": hsi,
        "ensemble": ["ensemble", *dense, *test, "--n", "2", "--b", "4", "--m", "2"],
        "roc": ["roc", "--valid-margins", str(root / "valid.txt"), "--invalid-margins",
                str(root / "invalid.txt"), "--points", "5"],
        "synth-recovery": ["synth-recovery", "--n", "32", "--b", "16", "--k", "2", "--m", "8"],
        "coherence": ["coherence", *dense],
    }
    bad_files = {"missing": b"", "empty": b"", "not-utf8": b"1,\xe9\n", "ragged": b"1,2\n3\n",
                 "huge": b"1e308,-1e308,1e308,1e308,1e308,1e308\n" * 8}
    for name, content in bad_files.items():
        if name != "missing":
            (root / name).write_bytes(content)
    return root, runs, [str(root / name) for name in bad_files]


_JUNK = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6)


def _value(action, bad_files):
    """Text for one flag: small or far-out ints, non-finite floats, bad files, junk."""
    if action.choices:
        good = st.sampled_from(sorted(action.choices))
    elif action.type is float:
        good = st.floats().map(repr) | st.sampled_from(["nan", "inf", "-inf", "-0", "0", "1e-300"])
    elif action.type is not None:  # a bounded int: small, or far above any bound
        good = st.integers(-3, 12) | st.integers(2**40, 2**70) | st.integers(-(2**70), -(2**40))
        good = good.map(str)
    elif action.dest == "gamma_grid":
        good = st.sampled_from(["0.5", "2^-1..2^1", "2^-70..2^1000", "1,0,-1"])
    else:
        good = st.sampled_from(bad_files)
    return good | _JUNK


@st.composite
def _contract_example(draw, runs, bad_files):
    name = draw(st.sampled_from(sorted(runs)))
    command = _build_parser()[1][name]
    actions = [a for a in command._actions if a.dest not in ("help", "config", "output_dir")]
    argv, lines = list(runs[name]), []
    for action in draw(st.lists(st.sampled_from(actions), max_size=3, unique_by=lambda a: a.dest)):
        value = draw(_value(action, bad_files))
        if draw(st.booleans()):
            argv += [action.option_strings[0], value]
        else:  # a config line, conflicting with a flag when argv already sets it
            lines.append(f"{action.option_strings[0][2:]}={value.strip()}")
    config = draw(st.sampled_from(["none", "lines", "missing", "not-utf8", "malformed"]))
    return command, argv, lines, config


class TestCliContract:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_any_value_exits_with_a_contract_code(self, contract_runs, data):
        root, runs, bad_files = contract_runs
        command, argv, lines, config = data.draw(_contract_example(runs, bad_files))
        out, from_file, cfg = root / "out", root / "from_file", root / "run.cfg"
        for stale in (out, from_file):
            shutil.rmtree(stale, ignore_errors=True)
        cfg.unlink(missing_ok=True)
        text = "\n".join([f"output-dir={from_file}", *lines]) + "\n"
        content = {"lines": text.encode(), "not-utf8": b"# caf\xe9\n", "malformed": b"m 3\n"}.get(config)
        if content:
            cfg.write_bytes(content)
        if config != "none":
            argv += ["--config", str(cfg)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + ["--output-dir", str(out)])
        assert rc in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        given = argv + (lines if config == "lines" else [])
        if any(str(root / "huge") in token for token in given) and not any("kbtc" in t for t in given):
            # its cells are too large to square: refused (exit 3) unless the parser refused
            # another value first (exit 2); KBTC range-scales them instead, another case
            assert rc in (2, 3), err.getvalue()
        assert not from_file.exists()  # the explicit --output-dir beats the file's line
        sidecars = sorted(out.glob("*.config.txt"))  # coherence writes none
        if rc != 0 or not sidecars:
            return
        # every other value is the last flag given, else the file's line: the parser's own rule
        resolved = {}
        for line in lines if config == "lines" else []:
            key, _, value = line.partition("=")
            resolved[key.replace("-", "_")] = value
        flags = {a.option_strings[0]: a.dest for a in command._actions if a.option_strings}
        for flag, value in zip(argv, argv[1:]):
            if flag in flags:
                resolved[flags[flag]] = value
        sidecar = sidecars[0].read_text().splitlines()
        types = {a.dest: a.type or str for a in command._actions}
        for dest, value in resolved.items():
            if dest != "config":
                assert f"{dest}={types[dest](value)}" in sidecar
