"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload local_dense --seed 1 --seconds 16 --trace 0

Workloads: ``local_dense`` and ``congest_sparse`` (closed-loop coloring
through ``repro.api``), ``serve_read`` and ``serve_mixed`` (open-loop
traffic through the ``repro serve`` socket daemon).  See README.md.

The run sets up several times, each in a fresh interpreter, and reports
the median set-up time at reference speed (see README.md); the last
set-up goes on to measure for ``--seconds``.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  The exit code is 1 when any output
check failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from statistics import median
from time import perf_counter_ns

from common import REFERENCE_MS, ROOT, WORK_ROOT, child_env, import_repro, reference_ms

WORKLOADS = ("local_dense", "congest_sparse", "serve_read", "serve_mixed")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: A run that takes longer than this is abandoned.
CHILD_TIMEOUT_S = 170.0


def declared_metrics(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ child side
def child(args) -> int:
    """Set up (the parent times this until ``READY``); then measure if asked."""
    import_repro()
    traced = bool(args.trace) and args.child == "measure"
    if args.workload.startswith("serve_"):
        import serving

        setup = serving.Setup(args.workload, args.seed, traced)
    else:
        import coloring
        from spans import Tracer

        setup = coloring.Setup(args.workload, args.seed, Tracer() if traced else None)
    print("READY", flush=True)
    if args.child == "setup":
        if args.workload.startswith("serve_"):
            setup.close()
            setup.remove()
        return 0
    if args.workload.startswith("serve_"):
        try:
            result = serving.measure(setup, args.seconds)
        finally:
            setup.close()
            setup.remove()
    else:
        result = coloring.measure(setup, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


# ----------------------------------------------------------------- parent side
def run_child(args, role: str):
    """Start one child; return (seconds until READY, the reference loop's
    time around that, the child's final JSON or None)."""
    command = [sys.executable, os.path.abspath(__file__), "--child", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    ref_before = reference_ms()
    t0 = perf_counter_ns()
    # A session of its own, so that a child abandoned on error is killed
    # together with any daemon it started.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                               start_new_session=True)
    try:
        ready = process.stdout.readline()
        setup_s = (perf_counter_ns() - t0) / 1e9
        ref_ms = (ref_before + reference_ms()) / 2
        if ready.strip() != b"READY":
            raise RuntimeError(f"{role} child failed during set-up")
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {process.returncode}")
    lines = out.decode().strip().splitlines()
    return setup_s, ref_ms, (json.loads(lines[-1]) if lines else None)


def end_to_end(workload: str, result: dict, setup_s: float) -> dict:
    """The gated metrics, reported by every workload.

    ``time_per_op_ms`` is the program's time for one operation: solving
    and verifying one graph (at reference speed), or the daemon's work
    for one request.  Client latency is reported but not gated; see
    README.md.
    """
    if workload.startswith("serve_"):
        time_per_op_ms = result["op_ms"]
    else:
        time_per_op_ms = result["scaled_ms_p50"]
    return {"setup_s": setup_s, "peak_rss_mb": result["peak_rss_mb"],
            "time_per_op_ms": time_per_op_ms}


def with_units(values: dict, kind: str) -> dict:
    """Every declared metric of ``kind``, with its unit; a layer idle here reads 0."""
    declared = declared_metrics(kind)
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json {kind}: {unknown}")
    if kind == "end_to_end" and set(values) != set(declared):
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(set(declared) - set(values))}")
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in declared.items()}


def report(workload: str, result: dict, setups: list, measured: list) -> None:
    """Human-readable lines: every figure by name, with its unit."""
    each = ", ".join(f"{s:.3f}" for s in setups)
    print(f"[{workload}] setup_s           {median(setups):.4f} s  (at reference speed, "
          f"median of {each}; {median(measured):.4f} s as measured)")
    print(f"[{workload}] peak_rss_mb       {result['peak_rss_mb']:.1f} MB")
    if workload.startswith("serve_"):
        for level, row in result["levels"].items():
            print(f"[{workload}] p50_ms.{level:<4}       {row['p50_ms']:.3f} ms  "
                  f"({row['rps']} req/s offered, n={row['requests']})")
            tail = f"p{row['tail']:g}_ms.{level}" if row["tail"] else f"p99_ms.{level}"
            value = row["tail_ms"] if row["tail"] else row["p99_ms"]
            note = "" if row["tail"] else ", too few samples for any tail"
            print(f"[{workload}] {tail:<17} {value:.3f} ms  "
                  f"(failed={row['failed']}, backlog grows={row['backlog_grows']}{note})")
        print(f"[{workload}] slo_rps           {result['slo_rps']} req/s  (p99 <= 25 ms)")
        print(f"[{workload}] time_per_op_ms    {result['op_ms']:.4f} ms  "
              f"(serial in-process replay, mean without the slowest 1%)")
        print(f"[{workload}] daemon_cpu_ms     {result['daemon_cpu_ms']:.4f} ms  "
              f"(the socket daemon's CPU time per request, all levels)")
        print(f"[{workload}] cache_hit_ratio   {result['cache_hit_ratio']:.3f}")
        print(f"[{workload}] loadgen lag p99   {result['lag_ms_p99']:.3f} ms, "
              f"backlog max {result['backlog_max']}"
              + ("" if result["pinned"] else "; not pinned: fewer than two CPUs allowed"))
    else:
        print(f"[{workload}] edges_per_s       {result['edges_per_s']:.1f} edges/s")
        print(f"[{workload}] instance_s_p50    {result['instance_s_p50']:.4f} s  "
              f"(n={result['instances']})")
        print(f"[{workload}] time_per_op_ms    {result['scaled_ms_p50']:.2f} ms  "
              f"(at reference speed; {result['best_s_p50'] * 1e3:.2f} ms as measured, "
              f"reference loop {result['reference_ms']:.3f} ms; median over "
              f"{result['graphs']} graphs of each one's fastest run)")
        print(f"[{workload}] charged_rounds    {result['charged_rounds']} rounds")
    for failure in result["failures"]:
        print(f"[{workload}] FAILED: {failure}")


def run_workload(args) -> int:
    """Set up several times, measure once, report; the exit code of one workload."""
    measured = []  # seconds until READY
    setups = []  # the same, at reference speed
    result = None
    try:
        for i in range(SETUPS):
            role = "measure" if i == SETUPS - 1 else "setup"
            setup_s, ref_ms, result = run_child(args, role)
            measured.append(setup_s)
            setups.append(setup_s * REFERENCE_MS / ref_ms)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    report(args.workload, result, setups, measured)
    try:
        if args.trace:
            metrics = with_units(result["layers"], "per_layer")
        else:
            metrics = with_units(end_to_end(args.workload, result, median(setups)),
                                 "end_to_end")
    except (OSError, KeyError, ValueError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = result["failed"] == 0
    for metric in metrics.values():  # failed requests can make a latency infinite
        if not math.isfinite(metric["value"]):
            metric["value"] = None
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    import_repro()
    if args.workload != "all":
        return run_workload(args)
    return max(run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
               for workload in WORKLOADS)


if __name__ == "__main__":
    raise SystemExit(main())
