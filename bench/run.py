"""btckit benchmark: run one workload through the CLI and print its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {dense,estimate_hsi} --seed N --seconds S --trace {0,1}

The inputs are generated from the seed and written before timing starts.
The CLI calls run in passes inside a fresh worker process, through
``btckit.cli.main`` from the checkout's ``src/``, for about ``--seconds``
seconds. Correctness gates then check the artifacts of the last pass
against a brute-force oracle and accuracy floors. Each CLI call and each
gate is one operation.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (``setup_s``, ``peak_rss_mb``, ``pass_s``); with
``--trace 1`` they are per-layer call counts and self times from traced
passes, the waste ratios, and ``trace.overhead``. The line before it is a
JSON report with the named per-call figures, gate results and host facts.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import numpy as np

import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_REPEATS = 11
SETUP_PROBE = "import time; t = time.perf_counter(); import btckit.cli; print(time.perf_counter() - t)"

# figure name -> (call, scale): items / median call seconds, or the seconds themselves
CALL_FIGURES = {
    "btc_samples_per_s": ("classify_btc", "rate"),
    "kbtc_samples_per_s": ("classify_kbtc", "rate"),
    "ensemble_samples_per_s": ("ensemble", "rate"),
    "estimate_btc_s": ("estimate_btc", "time"),
    "estimate_kbtc_s": ("estimate_kbtc", "time"),
    "hsi_pixels_per_s": ("classify_hsi", "rate"),
}

# ratio name -> (call, traced layer counted in that call, divisor: call items or a constant)
RATIOS = {
    "ensemble.dictionaries_per_sample": ("ensemble", "data.build_dictionary", None),
    "linalg.solves_per_beta": ("estimate_btc", "linalg.solve_spd_regularized", None),
    "kbtc.gram_builds_per_gamma": ("estimate_kbtc", "kbtc.kernel_matrix", workloads.Estimate.GRID),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def python_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(src: str) -> float:
    """Median wall time of ``import btckit.cli`` in fresh processes (first one discarded)."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=python_env(src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def run_worker(workdir: str, src: str, workload, seconds: float, trace: bool, budget: float) -> dict:
    plan = os.path.join(workdir, "plan.json")
    result = os.path.join(workdir, "result.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"src": src, "seconds": seconds, "trace": trace, "calls": [c.argv for c in workload.calls]}, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), plan, result],
            env=python_env(src), capture_output=True, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"passes": [], "errors": [f"worker exceeded {budget:.0f} s"]}
    if proc.returncode != 0 or not os.path.isfile(result):
        return {"passes": [], "errors": [f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    if proc.stderr:
        out["errors"].append(proc.stderr[-2000:])
    return out


def call_seconds(passes: list[dict], index: int) -> float:
    """Wall time of one call: the mean over the CPUs it started on of its median there.

    Only passes that ran the call count (the last may be partial). Weighing
    each CPU equally keeps a run from reading fast or slow by how its
    samples fell between a fast and a slow CPU.
    """
    by_cpu = defaultdict(list)
    for p in passes:
        if len(p["calls"]) > index:
            by_cpu[p["calls"][index]["cpu"]].append(p["calls"][index]["s"])
    return statistics.mean(statistics.median(times) for times in by_cpu.values())


def pass_seconds(passes: list[dict]) -> float:
    """The time of one pass: the sum over its calls of each call's median."""
    return sum(call_seconds(passes, i) for i in range(len(passes[0]["calls"])))


def end_to_end_metrics(setup_s: float, maxrss_kb: int, untraced: list[dict]) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": maxrss_kb / 1024.0, "unit": "MB"},
        "pass_s": {"value": pass_seconds(untraced), "unit": "s"},
    }


def run_gates(workload) -> tuple[list, dict]:
    try:
        return workload.gates()
    except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable or malformed artifacts
        return [workloads.Gate("artifacts.readable", False, repr(exc))], {}


def call_figures(workload, untraced: list[dict]) -> dict:
    names = [c.name for c in workload.calls]
    out = {}
    for figure, (call, kind) in CALL_FIGURES.items():
        if call in names:
            i = names.index(call)
            secs = call_seconds(untraced, i)
            out[figure] = workload.calls[i].items / secs if kind == "rate" else secs
    return out


def layer_metrics(workload, passes: list[dict]) -> dict:
    """Per-layer metrics from the traced passes, medians over passes."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics = {}
    for name in tracer.LAYER_NAMES:
        calls = statistics.median(p["layers"]["pass"][name][0] for p in traced)
        self_s = statistics.median(p["layers"]["pass"][name][1] for p in traced)
        metrics[f"{name}.calls"] = {"value": int(round(calls)), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    names = [c.name for c in workload.calls]
    for ratio, (call, layer, divisor) in RATIOS.items():
        value = 0.0
        if call in names:
            i = names.index(call)
            count = statistics.median(p["layers"]["per_call"][i][layer][0] for p in traced)
            value = count / (divisor or workload.calls[i].items)
        metrics[ratio] = {"value": value, "unit": "ratio"}
    overhead = pass_seconds(traced) / pass_seconds(untraced) - 1.0
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def host_facts(root: str, workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    sidecars = sorted(glob.glob(os.path.join(workload.calls[0].out_dir, "*.config.txt")))
    threads = None
    if sidecars:
        artifact = os.path.basename(sidecars[0])[: -len(".config.txt")]
        threads = workload.resolved(workload.calls[0].name, artifact).get("threads")
    src_dir = os.path.join(root, "src", "btckit")
    src_lines = 0
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cli_threads": int(threads) if threads else None,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "btckit", "cli.py")):
        print(f"no btckit source under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        setup_s = None if args.trace else measure_setup(src)
        budget = RUN_LIMIT_S - (time.perf_counter() - started) - 20.0  # leave time for the gates
        outcome = run_worker(workdir, src, workload, args.seconds, bool(args.trace), budget)
        passes = outcome["passes"]
        calls = [c for p in passes for c in p["calls"]]
        attempted = max(len(calls), 1)
        failed = sum(1 for c in calls if c["rc"] != 0) + (0 if calls else 1)
        gates, figures = run_gates(workload) if calls else ([], {})
        attempted += len(gates)
        failed += sum(1 for g in gates if not g.ok)

        untraced = [p for p in passes if not p["traced"]]
        metrics = {}
        if passes and args.trace:
            metrics = layer_metrics(workload, passes)
        elif passes:
            metrics = end_to_end_metrics(setup_s, outcome["maxrss_kb"], untraced)
            figures.update({name: m["value"] for name, m in metrics.items()})
        if untraced:
            figures.update(call_figures(workload, untraced))
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "call_seconds_cpu": {
                c.name: [(p["calls"][i]["s"], p["calls"][i]["cpu"]) for p in untraced if len(p["calls"]) > i]
                for i, c in enumerate(workload.calls)
            },
            "figures": figures,
            "gates": [{"name": g.name, "ok": bool(g.ok), "detail": g.detail} for g in gates],
            "errors": outcome["errors"],
            "host": host_facts(root, workload),
            "wall_s": time.perf_counter() - started,
        }
        print(json.dumps(report))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it


if __name__ == "__main__":
    sys.exit(main())
