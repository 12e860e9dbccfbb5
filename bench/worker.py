"""Runs one workload's CLI calls in passes inside a fresh process.

Usage: python3 worker.py <plan.json> <result.json>

The plan lists the CLI argument vectors of one pass, the number of seconds
to keep running, and whether to trace. Every call goes through
``btckit.cli.main`` looked up at call time, so a traced pass sees the
wrapped entry point. Untraced, the calls run round-robin and a call starts
only if one as slow as its slowest so far still ends before the deadline,
so the last pass may be partial and the whole budget is measured. In trace
mode untraced and traced passes alternate, whole, so the tracing overhead
is measured in the same process. The result records each call's exit code,
wall time and CPU, the process's peak RSS and, for traced passes, the layer
totals of the pass and of each call.

Call i of pass p starts on CPU (p + i) mod the number of CPUs the process
may use; the process is moved there and then allowed every CPU again. A
single-threaded call mostly stays on the CPU it starts on, and on a shared
VM one CPU can run tens of percent slower than the other for minutes, so
otherwise one run of a single-threaded workload could measure one CPU and
the next run the other.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import tracer


def run_call(cli, argv: list[str]) -> tuple[int, float, str]:
    """One operation: exit code, wall seconds, and any escaped traceback."""
    err = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback escaping main is a failed operation
        rc, err = -1, traceback.format_exc(limit=4)
    return rc, time.perf_counter() - start, err


def start_on(cpu: int, cpus: set[int]) -> None:
    """Move this thread to ``cpu``, then allow it every CPU in ``cpus`` again."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setaffinity(0, cpus)


def run_pass(
    cli, calls: list[list[str]], number: int, trace: tracer.Tracer | None, errors: list[str], fits=lambda i: True
) -> dict:
    cpus = os.sched_getaffinity(0)
    order = sorted(cpus)
    record = {"traced": trace is not None, "calls": []}
    if trace is not None:
        trace.install()
    try:
        for i, argv in enumerate(calls):
            if not fits(i):
                break
            if trace is not None:
                trace.run = i
            cpu = order[(number + i) % len(order)]
            if len(order) > 1:
                start_on(cpu, cpus)
            rc, secs, err = run_call(cli, argv)
            record["calls"].append({"rc": rc, "s": secs, "cpu": cpu})
            if err:
                errors.append(err)
    finally:
        if trace is not None:
            trace.restore()
    if trace is not None:
        record["layers"] = {
            "pass": tracer.layer_totals(trace.spans),
            "per_call": [tracer.layer_totals([s for s in trace.spans if s.run == i]) for i in range(len(calls))],
        }
    return record


def main() -> int:
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.realpath(plan["src"])
    sys.path.insert(0, src)
    import btckit.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"btckit imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    passes, errors = [], []
    deadline = time.perf_counter() + plan["seconds"]
    if plan["trace"]:
        while True:
            traced = len(passes) % 2 == 1
            # a traced pass starts its calls on the same CPUs as the untraced one before it
            passes.append(run_pass(cli, plan["calls"], len(passes) // 2, tracer.Tracer() if traced else None, errors))
            # start another pass only if one as slow as the slowest so far still fits
            slowest = max(sum(c["s"] for c in p["calls"]) for p in passes)
            if len(passes) >= 2 and time.perf_counter() + slowest > deadline:
                break
    else:
        slowest = [0.0] * len(plan["calls"])

        def fits(i: int) -> bool:
            return time.perf_counter() + slowest[i] <= deadline

        while not passes or len(passes[-1]["calls"]) == len(plan["calls"]):
            passes.append(run_pass(cli, plan["calls"], len(passes), None, errors, fits if passes else lambda i: True))
            for i, call in enumerate(passes[-1]["calls"]):
                slowest[i] = max(slowest[i], call["s"])
        if not passes[-1]["calls"]:
            passes.pop()

    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "maxrss_kb": maxrss_kb, "errors": errors}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
