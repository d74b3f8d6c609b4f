"""Serving workloads: open-loop traffic through the ``repro serve`` socket daemon.

* ``serve_read`` — only reads (``color`` and ``schedule``), keys drawn
  from a Zipf distribution, so the daemon's result cache hits often.
* ``serve_mixed`` — the same reads plus about 20% writes.  A write
  deletes a uniformly chosen edge and reinserts it in the next request
  line, so the graph stays stationary and no read ever meets an absent
  edge; every write bumps the epoch, so the result cache rarely hits.

The artifact is a random 8-regular graph on 10,000 nodes.  Set-up
builds it, saves it and starts the daemon (``python -m repro serve
--listen``; the traced run starts it through ``launcher.py`` instead).
Load comes from one single-threaded ``selectors`` loop on one
connection: requests are sent when due, whether or not earlier replies
have arrived, and each is timed from when it was due.  Afterwards the
whole request stream is replayed through a serial in-process
``ServingSession`` over a copy of the same artifact; on one connection
the protocol makes responses deterministic, so every response must
match.  The replay also times each request: that gives the gated
``time_per_op_ms``.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import selectors
import shutil
import socket
import subprocess
import sys
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

from common import (
    HERE,
    WORK_ROOT,
    child_env,
    cpu_seconds,
    peak_rss_mb,
    percentile,
    sub_rng,
    sub_seed,
    tail_percentile,
    trimmed_mean,
    zipf_cdf,
)

#: Offered load per level, requests per second.
SPECS = {
    "serve_read": {"write_share": 0.0, "levels": {"low": 500, "mid": 2000, "high": 10000}},
    "serve_mixed": {"write_share": 0.2, "levels": {"low": 200, "mid": 500, "high": 1000}},
}
#: Share of the run each level gets.
LEVELS = {"low": 0.4, "mid": 0.35, "high": 0.25}
NODES, DEGREE = 10_000, 8
ZIPF_S = 1.1
#: The latency limit behind ``slo_rps``: p99 at or under this many ms.
SLO_P99_MS = 25.0
#: A request unanswered this long after its level ends has timed out.
DRAIN_TIMEOUT_S = 10.0
#: Backlog sampling period of the load generator.
SAMPLE_NS = 10_000_000


class Stream:
    """One level's requests: due offsets (ns) and encoded lines, in send order."""

    def __init__(self) -> None:
        self.due: List[int] = []
        self.lines: List[bytes] = []

    def add(self, due_ns: int, request: dict) -> None:
        self.due.append(due_ns)
        self.lines.append((json.dumps(request) + "\n").encode())


def make_stream(workload: str, seed: int, level: str, graph, seconds: float) -> Stream:
    """Poisson arrivals at the level's rate; the same seed gives the same stream."""
    spec = SPECS[workload]
    rate = spec["levels"][level]
    rng = sub_rng(seed, f"{workload}/{level}/stream")
    keys = sub_rng(seed, f"{workload}/keys")
    edge_rank = list(range(graph.num_edges))
    node_rank = list(range(graph.num_nodes))
    keys.shuffle(edge_rank)
    keys.shuffle(node_rank)
    edge_cdf = zipf_cdf(graph.num_edges, ZIPF_S)
    node_cdf = zipf_cdf(graph.num_nodes, ZIPF_S)
    # A write is two lines (delete, insert), so a share w of lines being
    # writes needs a share w / (2 - w) of arrivals to be writes.
    write_arrivals = spec["write_share"] / (2.0 - spec["write_share"])
    stream = Stream()
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return stream
        due = int(t * 1e9)
        if rng.random() < write_arrivals:
            u, v = graph.edge_endpoints(rng.randrange(graph.num_edges))
            stream.add(due, {"op": "delete", "u": u, "v": v})
            stream.add(due, {"op": "insert", "u": u, "v": v})
        elif rng.random() < 0.5:
            e = edge_rank[bisect.bisect_left(edge_cdf, rng.random())]
            u, v = graph.edge_endpoints(e)
            stream.add(due, {"op": "color", "u": u, "v": v})
        else:
            v = node_rank[bisect.bisect_left(node_cdf, rng.random())]
            stream.add(due, {"op": "schedule", "v": v})


class LevelRun:
    """What the generator saw for one level."""

    def __init__(self, n: int) -> None:
        self.lag_ns = [0] * n
        self.latency_ns = [0] * n
        self.responses: List[Optional[bytes]] = [None] * n
        self.backlog: List[int] = []
        #: The daemon's CPU time over the level, all its threads.
        self.daemon_cpu_s = 0.0


def open_loop(sock: socket.socket, stream: Stream) -> LevelRun:
    """Send each line when due and read replies as they come (one thread)."""
    n = len(stream.lines)
    run = LevelRun(n)
    due, lines = stream.due, stream.lines
    outbuf = bytearray()
    inbuf = bytearray()
    sent = received = 0
    selector = selectors.DefaultSelector()
    selector.register(sock, selectors.EVENT_READ)
    start = perf_counter_ns() + 1_000_000
    deadline = start + (due[-1] if due else 0) + int(DRAIN_TIMEOUT_S * 1e9)
    next_sample = start
    writing = False
    try:
        while received < n:
            now = perf_counter_ns()
            if now > deadline:
                break
            while sent < n and start + due[sent] <= now:
                outbuf += lines[sent]
                run.lag_ns[sent] = now - start - due[sent]
                sent += 1
            if outbuf:
                try:
                    del outbuf[: sock.send(outbuf)]
                except BlockingIOError:
                    pass
            if bool(outbuf) != writing:
                writing = bool(outbuf)
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if writing else 0)
                selector.modify(sock, events)
            if now >= next_sample:
                run.backlog.append(sent - received)
                next_sample += SAMPLE_NS
            wake = min(next_sample, start + due[sent]) if sent < n else next_sample
            for _key, mask in selector.select(max(0.0, (wake - perf_counter_ns()) / 1e9)):
                if not mask & selectors.EVENT_READ:
                    continue
                chunk = sock.recv(1 << 18)
                if not chunk:
                    raise ConnectionError("the daemon closed the connection")
                arrived = perf_counter_ns()
                inbuf += chunk
                while True:
                    cut = inbuf.find(b"\n")
                    if cut < 0:
                        break
                    run.responses[received] = bytes(inbuf[:cut])
                    run.latency_ns[received] = arrived - start - due[received]
                    del inbuf[: cut + 1]
                    received += 1
    finally:
        selector.close()
    return run


def _request(sock_file, request: dict) -> dict:
    sock_file.write((json.dumps(request) + "\n").encode())
    sock_file.flush()
    return json.loads(sock_file.readline())


class Daemon:
    """One ``repro serve --listen`` process over one artifact file."""

    def __init__(self, path: str, trace_out: Optional[str] = None) -> None:
        serve = ["serve", "--listen", "127.0.0.1:0", "--artifact", path]
        if trace_out:
            command = [sys.executable, os.path.join(HERE, "launcher.py"), trace_out, *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        with open(path + ".log", "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, env=child_env()
            )
        line = self.process.stdout.readline().decode()
        if not line.startswith("listening on "):
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"the daemon did not start: {line!r}")
        host, _, port = line.split("listening on ", 1)[1].strip().rpartition(":")
        self.address = (host, int(port))
        self.pid = self.process.pid

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def close(self) -> None:
        """Shut the daemon down through the protocol and wait for it."""
        if self.process.poll() is None:
            try:
                with self.connect() as sock:
                    _request(sock.makefile("rwb"), {"op": "shutdown"})
            except OSError:
                self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Setup:
    """Graph → artifact → saved JSON → daemon listening (the timed set-up)."""

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        from repro.graphs import generators
        from repro.serving import build_artifact

        self.workload = workload
        self.seed = seed
        self.work = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        path = os.path.join(self.work, "artifact.json")
        self.trace_out = os.path.join(self.work, "layers.json") if traced else None
        self.graph = generators.random_regular_graph(
            NODES, DEGREE, seed=sub_seed(seed, f"{workload}/graph")
        )
        t0 = perf_counter_ns()
        artifact = build_artifact(self.graph)
        t1 = perf_counter_ns()
        artifact.save(path)
        t2 = perf_counter_ns()
        # Pristine copies: the daemon journals its writes into ``path``.
        self.pristine = os.path.join(self.work, "pristine.json")
        shutil.copyfile(path, self.pristine)
        self.daemon = Daemon(path, self.trace_out)
        t3 = perf_counter_ns()
        self.setup_s = {"build_s": (t1 - t0) / 1e9, "save_s": (t2 - t1) / 1e9,
                        "ready_s": (t3 - t2) / 1e9}

    def copy_artifact(self, name: str) -> str:
        path = os.path.join(self.work, name)
        shutil.copyfile(self.pristine, path)
        return path

    def close(self) -> None:
        self.daemon.close()

    def remove(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def replay(
    artifact_path: str, lines: List[bytes], responses: List[Optional[bytes]]
) -> Tuple[List[bool], List[int]]:
    """Replay the stream through a serial in-process session; flag differing
    answers and time each request.

    The session journals its writes next to ``artifact_path`` as the
    daemon does, so each request costs what it costs the daemon, less
    the socket.  ``artifact_path`` must therefore be a copy.
    """
    from repro.serving import ServingSession
    from repro.serving.artifact import ColoringArtifact
    from repro.serving.protocol import encode_response

    session = ServingSession(ColoringArtifact.load(artifact_path))
    session.write_hook = lambda _response: session.artifact.save(artifact_path, journal=True)
    flags = []
    times_ns = []
    for line, response in zip(lines, responses):
        t0 = perf_counter_ns()
        expected = encode_response(session.query(json.loads(line))).encode()
        times_ns.append(perf_counter_ns() - t0)
        flags.append(response != expected)
    return flags, times_ns


def _backlog_grows(samples: List[int]) -> bool:
    third = len(samples) // 3
    if third == 0:
        return False
    first = sum(samples[:third]) / third
    last = sum(samples[-third:]) / third
    return last > 2 * first + 10


def pin(daemon_pid: int) -> bool:
    """Give the generator and the daemon a CPU each, when two are allowed."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return False
    os.sched_setaffinity(0, {cpus[0]})
    os.sched_setaffinity(daemon_pid, {cpus[1]})
    return True



def drive(daemon: Daemon, streams: Dict[str, Stream]) -> dict:
    """Run the streams' levels in order against ``daemon``; read its counters after."""
    sock = daemon.connect()
    sock.setblocking(False)
    runs: Dict[str, LevelRun] = {}
    pinned = pin(daemon.pid)
    # The generator does not stop for garbage collection while it sends.
    gc.disable()
    try:
        for level, stream in streams.items():
            cpu_before = cpu_seconds(daemon.pid)
            runs[level] = open_loop(sock, stream)
            runs[level].daemon_cpu_s = cpu_seconds(daemon.pid) - cpu_before
            if any(r is None for r in runs[level].responses):
                break
    finally:
        gc.enable()
        sock.close()
    # A fresh connection: the load connection may still owe late replies.
    with daemon.connect() as sock, sock.makefile("rwb") as sock_file:
        stats = _request(sock_file, {"op": "stats", "scope": "daemon"})
    return {"runs": runs, "stats": stats["cache_stats"], "pinned": pinned,
            "peak_rss_mb": peak_rss_mb(daemon.pid)}


def measure(setup: Setup, seconds: float) -> dict:
    """The open-loop levels, one after another, then the timed serial replay.

    Traced, the ``low`` level is afterwards sent again to an untraced
    daemon over a pristine copy of the artifact; the two daemons' CPU
    time over it gives the tracing overhead.
    """
    spec = SPECS[setup.workload]
    streams = {lv: make_stream(setup.workload, setup.seed, lv, setup.graph, share * seconds)
               for lv, share in LEVELS.items()}
    driven = drive(setup.daemon, streams)
    setup.close()
    runs = driven["runs"]
    baseline_cpu_s = None
    if setup.trace_out:
        baseline = Daemon(setup.copy_artifact("baseline.json"))
        try:
            low = drive(baseline, {"low": streams["low"]})["runs"]["low"]
        finally:
            baseline.close()
        baseline_cpu_s = low.daemon_cpu_s

    all_lines = [line for lv in runs for line in streams[lv].lines]
    all_responses = [r for lv in runs for r in runs[lv].responses]
    wrong, times_ns = replay(setup.copy_artifact("replay.json"), all_lines, all_responses)
    result = {"peak_rss_mb": driven["peak_rss_mb"], "pinned": driven["pinned"], "levels": {},
              "attempted": 0, "failed": 0, "failures": [],
              "op_ms": trimmed_mean(times_ns) / 1e6}
    offset = 0
    slo_rps = 0
    lags = []
    backlog_max = 0
    for level in LEVELS:
        stream = streams[level]
        run = runs.get(level)
        n = len(stream.lines)
        result["attempted"] += n
        if run is None:
            result["failed"] += n
            result["failures"].append(f"{level}: not run after an earlier timeout")
            continue
        unanswered = [r is None for r in run.responses]
        errors = [r is not None and not json.loads(r)["ok"] for r in run.responses]
        mismatched = [w and r is not None for w, r in zip(wrong[offset: offset + n], run.responses)]
        offset += n
        lost = [any(flags) for flags in zip(unanswered, errors, mismatched)]
        failed = sum(lost)
        result["failed"] += failed
        for label, flags in (("timed out", unanswered), ("error responses", errors),
                             ("differ from the serial replay", mismatched)):
            if any(flags):
                result["failures"].append(f"{level}: {sum(flags)} {label}")
        # A failed request misses every latency limit.
        latency_ms = [math.inf if x else ns / 1e6 for x, ns in zip(lost, run.latency_ns)]
        lags.extend(run.lag_ns)
        backlog_max = max([backlog_max, *run.backlog])
        grows = _backlog_grows(run.backlog)
        p99 = percentile(latency_ms, 99)
        tail = tail_percentile(n)
        rate = spec["levels"][level]
        result["levels"][level] = {
            "rps": rate,
            "requests": n,
            "p50_ms": percentile(latency_ms, 50),
            "p99_ms": p99,
            "tail": tail,
            "tail_ms": percentile(latency_ms, tail) if tail else None,
            "failed": failed,
            "backlog_grows": grows,
        }
        if p99 <= SLO_P99_MS and failed == 0 and not grows:
            slo_rps = max(slo_rps, rate)
    result["slo_rps"] = slo_rps
    # Per request sent, over the levels that ran.
    result["daemon_cpu_ms"] = (sum(r.daemon_cpu_s for r in runs.values()) * 1e3
                               / sum(len(r.responses) for r in runs.values()))
    result["lag_ms_p99"] = percentile(lags, 99) / 1e6 if lags else 0.0
    result["backlog_max"] = backlog_max
    stats = driven["stats"]
    lookups = stats["hits"] + stats["misses"]
    deltas = stats["deltas_applied"]
    result["cache_hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
    result["touched_per_write"] = stats["touched"] / deltas if deltas else 0.0
    result["fallback_ratio"] = stats["fallbacks"] / deltas if deltas else 0.0
    if setup.trace_out:
        with open(setup.trace_out, encoding="utf-8") as handle:
            result["layers"] = _layer_metrics(json.load(handle), result, setup)
        result["layers"]["trace.overhead_ratio"] = runs["low"].daemon_cpu_s / baseline_cpu_s - 1.0
    return result


def _layer_metrics(layers: dict, result: dict, setup: Setup) -> Dict[str, float]:
    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0)

    return {
        "serving.daemon.server_ms_p50": get("serving.daemon", "wall_ms_p50"),
        "serving.daemon.server_ms_p99": get("serving.daemon", "wall_ms_p99"),
        "serving.daemon.cpu_ms": result["daemon_cpu_ms"],
        "serving.protocol.self_s": get("serving.protocol", "self_s"),
        "serving.session.self_s": get("serving.session", "self_s"),
        "serving.session.cache_hit_ratio": result["cache_hit_ratio"],
        "serving.artifact.read_self_s": get("serving.artifact.read", "self_s"),
        "serving.repair.calls": get("serving.repair", "calls"),
        "serving.repair.self_s": get("serving.repair", "self_s"),
        "serving.repair.self_ms_p99": get("serving.repair", "self_ms_p99"),
        "serving.repair.touched_per_write": result["touched_per_write"],
        "serving.repair.fallback_ratio": result["fallback_ratio"],
        "serving.journal.calls": get("serving.journal", "calls"),
        "serving.journal.self_s": get("serving.journal", "self_s"),
        **{f"serving.setup.{k}": v for k, v in setup.setup_s.items()},
        "loadgen.lag_ms_p99": result["lag_ms_p99"],
        "loadgen.backlog_max": result["backlog_max"],
    }
