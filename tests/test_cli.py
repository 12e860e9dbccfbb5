"""End-to-end command-line interface wiring."""

import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from numpy.random import default_rng

import btckit
from btckit import build_dictionary, kbtc_estimate_params, load_hsi_cube, save_hsi_cube, spatial
from btckit.cli import _parse_gamma_grid, main
from btckit.data import NORM_RANGE, save_label_map
from btckit.errors import ConfigError
from tests.conftest import make_blobs, make_blocky_scene, make_train_mask


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
        assert "--seed must be >= 0" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("argv", [
        ["roc", "--points", "100000000000"],
        ["synth-recovery", "--n", "1000000000000", "--k", "1"],
        ["synth-recovery", "--b", "1000000000000"],
    ], ids=["roc-points", "synth-recovery-n", "synth-recovery-b"])
    def test_size_above_its_bound_exit_code(self, tmp_path, capsys, argv):
        if argv[0] == "roc":
            (tmp_path / "valid.txt").write_text("0.9\n")
            (tmp_path / "invalid.txt").write_text("0.1\n")
            argv = argv + ["--valid-margins", str(tmp_path / "valid.txt"),
                           "--invalid-margins", str(tmp_path / "invalid.txt")]
        assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "must be" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
