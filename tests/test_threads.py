"""The batch core's chunks on several threads, and the BLAS thread pin the CLI runs them under."""

import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import default_rng

import btckit
from btckit import (
    BtcParams,
    KbtcParams,
    KernelSpec,
    btc,
    btc_residuals,
    build_dictionary,
    build_residual_cube,
    cli,
    kbtc_residuals,
    linalg,
    load_hsi_cube,
    save_hsi_cube,
    spatial,
)
from btckit.cli import main
from btckit.data import NORM_L2, NORM_RANGE
from btckit.errors import DataFormatError, NumericalError
from btckit.linalg import beta_profile, map_chunks, pca_first_component
from btckit.spatial import WlsParams, classify_pixels, wls_smooth
from tests.test_cli import _hsi_files


class _RecordingPool:
    """A helper pool of this test's own that records what map_chunks submits to it."""

    def __init__(self, threads=8):
        self.pool = ThreadPoolExecutor(threads, thread_name_prefix="test-chunks")
        self.submitted = []

    def submit(self, fn):
        self.submitted.append(fn)
        return self.pool.submit(fn)


@pytest.fixture
def helpers(monkeypatch):
    """The helper tasks map_chunks submits from now on, run on a pool of this test's own."""
    recording = _RecordingPool()
    monkeypatch.setattr(linalg, "_helpers", lambda: recording)
    yield recording.submitted
    recording.pool.shutdown()


@pytest.fixture
def workers(monkeypatch, helpers):
    """Set W, the threads map_chunks may use, on any host: the CPU-count probe reports
    ``n`` CPUs and the BLAS-thread probe a single-threaded BLAS."""

    def use(n):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: n)
        monkeypatch.setattr(linalg, "_blas_threads", lambda: 1)

    return use


@pytest.fixture
def tiny_chunks(monkeypatch):
    """Chunks of one or two rows or columns, so a small batch has many."""
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 1)


def _problem(norm_mode, n_per_class=8, b=10, rows=30, seed=3):
    rng = default_rng(seed)
    samples = rng.normal(size=(3 * n_per_class, b))
    d = build_dictionary(samples, np.repeat([1, 2, 3], n_per_class), norm_mode)
    return d, rng.normal(size=(rows, b))


def _inline_and_parallel(workers, helpers, run):
    workers(1)
    inline = run()
    assert not helpers
    workers(2)
    parallel = run()
    assert helpers  # the parallel path really ran
    return inline, parallel


class TestParallelChunksEqualInline:
    @pytest.mark.parametrize("rows", [6, 400])  # 6 M^2 <= N^2: block side; 400 M^2 > N^2: matrix side
    @pytest.mark.parametrize("kind", ["btc", "rbf", "linear"])
    def test_residuals(self, workers, helpers, tiny_chunks, kind, rows):
        if kind == "btc":
            d, Y = _problem(NORM_L2, rows=rows)
            params, run = BtcParams(m=4, alpha=0.01), btc_residuals
        else:
            d, Y = _problem(NORM_RANGE, rows=rows)
            params, run = KbtcParams(m=4, alpha=1e-4, spec=KernelSpec(kind=kind, gamma=0.7)), kbtc_residuals
        inline, parallel = _inline_and_parallel(workers, helpers, lambda: run(d, Y, params))
        np.testing.assert_array_equal(parallel, inline)

    def test_beta_profile(self, workers, helpers, tiny_chunks):
        d, _ = _problem(NORM_L2)
        inline, parallel = _inline_and_parallel(workers, helpers, lambda: beta_profile(d, range(1, 9), 0.01))
        np.testing.assert_array_equal(parallel, inline)

    @pytest.mark.parametrize("kind", ["btc", "kbtc"])
    def test_residual_cube(self, workers, helpers, tiny_chunks, kind):
        if kind == "btc":
            d, params = _problem(NORM_L2)[0], BtcParams(m=4, alpha=0.01)
        else:
            d = _problem(NORM_RANGE)[0]
            params = KbtcParams(m=4, alpha=1e-4, spec=KernelSpec(kind="rbf", gamma=0.7))
        cube = default_rng(8).normal(size=(5, 6, 10))
        inline, parallel = _inline_and_parallel(workers, helpers, lambda: build_residual_cube(cube, d, params))
        for got, expect in zip(parallel, inline):
            np.testing.assert_array_equal(got, expect)


class TestParallelChunkRules:
    def test_two_failing_chunks_raise_the_lower_sample(self, workers, helpers, tiny_chunks, monkeypatch):
        d, Y = _problem(NORM_L2, rows=12)
        Y[3], Y[8] = 1e200, 2e200  # squares overflow: both norms are infinite
        real = btc._correlations

        def late_at_row_3(dictionary, rows):
            if (rows == 1e200).any():  # the chunk holding row 3: the higher failing chunk fails first
                time.sleep(0.2)
            return real(dictionary, rows)

        monkeypatch.setattr(btc, "_correlations", late_at_row_3)
        workers(2)
        with pytest.raises(DataFormatError, match="sample 3: non-finite test vector norm"):
            btc_residuals(d, Y, BtcParams(m=4, alpha=0.01))
        assert helpers

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("row, sample", [(1, 5), (None, None)])  # row 1 of the chunk from 4, or no row
    def test_error_names_the_batch_sample(self, workers, helpers, n, row, sample):
        workers(n)

        def fail_in_third(sl):
            if sl.start == 4:
                raise DataFormatError("bad row", sample=row)

        with pytest.raises(DataFormatError, match="bad row$") as caught:
            map_chunks(fail_in_third, [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8)])
        assert caught.value.sample == sample
        assert bool(helpers) == (n == 2)

    def test_one_chunk_starts_no_thread(self, workers, helpers):
        d, Y = _problem(NORM_L2, rows=1)
        workers(2)
        btc_residuals(d, Y, BtcParams(m=4, alpha=0.01))
        assert not helpers

    def test_nested_call_runs_inline(self, workers, helpers):
        workers(2)
        inline = []

        def outer(sl):
            me, seen = threading.current_thread(), []
            map_chunks(lambda _: seen.append(threading.current_thread()), [slice(0, 1), slice(1, 2)])
            inline.append(seen == [me, me])

        map_chunks(outer, [slice(0, 1), slice(1, 2)])
        assert len(helpers) == 1  # the outer call's one helper
        assert inline == [True, True]

    def test_every_slice_runs_once_under_contention(self, workers):
        workers(8)  # more threads than this host has CPUs
        counts = np.zeros(500, dtype=np.int64)

        def bump(sl):
            counts[sl] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            map_chunks(bump, (slice(i, i + 1) for i in range(500)))
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(counts, 1)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_helpers(self, monkeypatch):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        monkeypatch.setattr(linalg, "_blas_threads", lambda: 1)
        counts = np.zeros(4, dtype=np.int64)

        def bump(sl):
            counts[sl] += 1

        slices = [slice(i, i + 1) for i in range(4)]
        map_chunks(bump, slices)  # the process's kept helpers now exist
        pid = os.fork()
        if pid == 0:  # the child has none of those threads: it must not wait for them
            map_chunks(bump, slices)
            os._exit(0 if (counts == 2).all() else 1)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        np.testing.assert_array_equal(counts, 1)


class TestGuidanceBesideCube:
    """classify_pixels computes the WLS guidance image on a helper thread while the cube is built."""

    def _scene(self):
        d, params = _problem(NORM_L2)[0], BtcParams(m=4, alpha=0.01)
        return default_rng(5).normal(size=(9, 7, 10)).astype(np.float32), d, params  # 9 row blocks

    def test_guidance_equals_sequential_pca(self, workers, helpers, tiny_chunks, monkeypatch):
        cube, d, params = self._scene()
        real, seen = spatial.pca_first_component, []

        def recording(values):
            seen.append((threading.current_thread(), linalg._workers(5)))
            return real(values)

        monkeypatch.setattr(spatial, "pca_first_component", recording)
        inline, parallel = _inline_and_parallel(workers, helpers, lambda: classify_pixels(cube, d, params))
        for got, expect in zip(parallel, inline):
            np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(parallel[2], pca_first_component(cube))
        caller = threading.current_thread()
        # inline after the cube, then on a helper, where a chunk loop would run inline
        assert seen[0] == (caller, 1) and seen[1][0] is not caller and seen[1][1] == 1

    def test_cube_helper_queued_behind_guidance_joins_once_it_ends(self, workers, tiny_chunks, monkeypatch):
        cube, d, params = self._scene()
        workers(1)
        expect = classify_pixels(cube, d, params)
        one = _RecordingPool(threads=1)  # as on 2 CPUs: the guidance holds the only helper
        monkeypatch.setattr(linalg, "_helpers", lambda: one)
        real = spatial.pca_first_component

        def slow(values):
            time.sleep(0.2)
            return real(values)

        monkeypatch.setattr(spatial, "pca_first_component", slow)
        workers(2)
        try:
            got = classify_pixels(cube, d, params)
        finally:
            one.pool.shutdown()
        assert len(one.submitted) == 2  # the guidance, then the cube's helper
        for g, e in zip(got, expect):
            np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize("n", [1, 2])
    def test_guidance_error_after_a_clean_cube_is_raised(self, workers, helpers, monkeypatch, n):
        cube, d, params = self._scene()

        def fail(values):
            raise NumericalError("bad guidance")

        monkeypatch.setattr(spatial, "pca_first_component", fail)
        workers(n)
        with pytest.raises(NumericalError, match="bad guidance"):
            classify_pixels(cube, d, params)
        assert bool(helpers) == (n == 2)

    def test_cube_error_wins_once_the_guidance_has_ended(self, workers, helpers, monkeypatch):
        cube, d, params = self._scene()
        ended = []

        def late_failure(values):
            time.sleep(0.2)
            ended.append(True)
            raise NumericalError("bad guidance")

        def cube_failure(*args):
            raise DataFormatError("bad cube")

        monkeypatch.setattr(spatial, "pca_first_component", late_failure)
        monkeypatch.setattr(spatial, "build_residual_cube", cube_failure)
        workers(2)
        with pytest.raises(DataFormatError, match="bad cube"):
            classify_pixels(cube, d, params)
        assert ended == [True]

    @pytest.mark.parametrize(
        "value, code, message", [(1e200, 3, "non-finite test vector norm"), (0.0, 2, "zero test vector")]
    )
    def test_bad_test_pixel_exit_code_names_the_pixel(self, tmp_path, capsys, workers, helpers, value, code, message):
        args, _, mask = _hsi_files(tmp_path)
        cube = load_hsi_cube(args[2], args[4])
        r, c = np.argwhere(mask == 0)[5]
        cube[r, c] = value
        save_hsi_cube(cube, args[2], args[4], dtype="f64")
        workers(2)
        assert main(args + ["--output-dir", str(tmp_path / "hsi")]) == code
        err = capsys.readouterr().err
        assert f"pixel ({r},{c}): {message}" in err and "Traceback" not in err
        assert helpers

    @pytest.mark.parametrize("smoothing", ["wls", "box"])
    def test_one_cpu_submits_no_helper_task(self, workers, helpers, tiny_chunks, smoothing):
        cube, d, params = self._scene()
        workers(1)
        classify_pixels(cube, d, params, smoothing)
        assert not helpers

    def test_nested_call_runs_both_inline(self, workers, helpers):
        workers(2)
        seen = []

        def outer(sl):
            me = threading.current_thread()
            seen.append(linalg.beside(threading.current_thread, threading.current_thread) == (me, me))

        map_chunks(outer, [slice(0, 1), slice(1, 2)])
        assert len(helpers) == 1  # the outer call's one helper
        assert seen == [True, True]


def _bundled_openblas():
    threads = linalg._openblas()
    if threads is None:
        pytest.skip("NumPy's bundled OpenBLAS (numpy.libs/libscipy_openblas64_) is not loaded")
    return threads


def _scipy_bundled_openblas():
    pytest.importorskip("scipy.sparse.linalg")  # loads SciPy's library, if it bundles one
    threads = linalg._scipy_openblas()
    if threads is None:
        pytest.skip("SciPy's bundled OpenBLAS (scipy.libs/libscipy_openblas) is not loaded")
    return threads


class TestBlasPin:
    @pytest.mark.parametrize(
        "flags, code",
        [
            (["synth-recovery", "--n", "32", "--b", "16", "--k", "2", "--m", "8"], 0),
            (["synth-recovery", "--m", "0"], 2),
            (["coherence", "--train", "missing.csv", "--train-labels", "missing.csv"], 3),  # in tmp_path
            (["synth-recovery", "--n", "32", "--b", "16", "--k", "2", "--m", "20", "--alpha", "0"], 4),
        ],
    )
    def test_count_is_one_inside_a_command_and_restored_after(self, tmp_path, monkeypatch, flags, code):
        get, put = _bundled_openblas()
        inside, real = [], cli.recover_sparse

        def recording(*args):
            inside.append(get())
            return real(*args)

        monkeypatch.setattr(cli, "recover_sparse", recording)
        before = get()
        put(3)
        try:
            monkeypatch.chdir(tmp_path)
            assert main(flags + ["--output-dir", str(tmp_path)]) == code
            assert get() == 3
        finally:
            put(before)
        assert inside == ([1] if flags[0] == "synth-recovery" and code != 2 else [])

    def test_scipy_count_is_one_inside_a_command_once_loaded(self, tmp_path, monkeypatch):
        get, put = _scipy_bundled_openblas()
        inside, real = [], cli.recover_sparse

        def recording(*args):
            inside.append(get())
            return real(*args)

        monkeypatch.setattr(cli, "recover_sparse", recording)
        before = get()
        put(3)
        try:
            flags = ["synth-recovery", "--n", "32", "--b", "16", "--k", "2", "--m", "8"]
            assert main(flags + ["--output-dir", str(tmp_path)]) == 0
            assert get() == 3
        finally:
            put(before)
        assert inside == [1]

    def test_scipy_count_is_one_inside_wls_factor_and_solve_and_restored_after(self, monkeypatch):
        get, put = _scipy_bundled_openblas()
        import scipy.sparse.linalg

        inside, real = [], scipy.sparse.linalg.splu

        class Factor:
            def __init__(self, factor):
                self.factor = factor

            def solve(self, rhs):
                inside.append(("solve", get()))
                return self.factor.solve(rhs)

        def splu(*args, **kwargs):
            inside.append(("factor", get()))
            return Factor(real(*args, **kwargs))

        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        rng = default_rng(6)
        before = get()
        put(2)
        try:
            wls_smooth(rng.uniform(size=(12, 9, 3)), rng.uniform(size=(12, 9)), WlsParams())
            assert get() == 2
        finally:
            put(before)
        assert inside == [("factor", 1), ("solve", 1)]

    def test_without_openblas_commands_run_inline(self, tmp_path, monkeypatch, helpers, tiny_chunks):
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        x, y = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
        np.savetxt(x, _problem(NORM_L2, rows=6)[1], delimiter=",")
        np.savetxt(y, np.repeat([1, 2, 3], 2), fmt="%d")
        rc = main(["classify", "--train", x, "--train-labels", y, "--test", x, "--test-labels", y,
                   "--m", "3", "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        assert not helpers

    def test_import_looks_up_no_library(self):
        # NumPy imports ctypes itself, so the library lookup is what an import must not run:
        # no cached NumPy answer, no search for any OpenBLAS file, and no SciPy to look in;
        # the thread pool's and the cube reader's modules load when first used
        code = (
            "import glob, sys\n"
            "seen, real = [], glob.glob\n"
            "glob.glob = lambda pattern, *a, **k: seen.append(pattern) or real(pattern, *a, **k)\n"
            "import btckit.cli, btckit.linalg as l\n"
            "print(l._openblas.cache_info().currsize, sum('openblas' in p for p in seen),\n"
            "      *(name in sys.modules for name in ('scipy', 'concurrent.futures', 'mmap')))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(btckit.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.split() == ["0", "0", "False", "False", "False"]
