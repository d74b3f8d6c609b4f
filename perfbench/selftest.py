"""Self-tests for the benchmark's own helpers.

Run from the repository root: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import sys
import threading
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    WORK_ROOT,
    import_repro,
    percentile,
    sub_seed,
    tail_percentile,
    trimmed_mean,
)
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402

import_repro()

import coloring  # noqa: E402
import serving  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertEqual(tail_percentile(99), 50.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(999), 90.0)
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(100000), 99.0)

    def test_trimmed_mean_drops_the_slowest_percent(self):
        self.assertEqual(trimmed_mean([1.0] * 198 + [500.0, 900.0]), 1.0)
        self.assertEqual(trimmed_mean([1.0] * 98 + [4.0]), 102 / 99)  # under 100: none dropped

    def test_rank_is_exact(self):
        self.assertEqual(percentile(list(range(1, 10001)), 99.9), 9990)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 99), 99)
        self.assertEqual(percentile(values, 100), 100)
        self.assertEqual(percentile([3.0], 99), 3.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            Span(1, 0, "outer", 0, 100, None),
            Span(2, 1, "a", 10, 40, None),
            Span(3, 1, "b", 30, 60, None),  # overlaps a: 10..60 is covered once
            Span(4, 2, "deep", 15, 20, None),  # a grandchild does not count for outer
            Span(5, 1, "c", 90, 120, None),  # clipped to the parent's end
        ]
        own = self_times(spans)
        self.assertEqual(own[1], 100 - 50 - 10)
        self.assertEqual(own[2], 30 - 5)
        self.assertEqual(own[3], 30)
        self.assertEqual(own[4], 5)

    def test_wrapped_calls_nest(self):
        tracer = Tracer()

        def inner():
            time.sleep(0.02)

        def outer():
            time.sleep(0.01)
            traced_inner()
            traced_inner()

        traced_inner = tracer.wrap("inner", inner)
        tracer.wrap("outer", outer)()
        totals = layer_totals(tracer.spans)
        self.assertEqual(totals["inner"].calls, 2)
        self.assertEqual(totals["outer"].calls, 1)
        self.assertGreaterEqual(totals["inner"].self_s, 0.04)
        self.assertLess(totals["outer"].self_s, 0.03)
        outer_wall = totals["outer"].wall_ms[0] / 1e3
        self.assertAlmostEqual(totals["outer"].self_s + totals["inner"].self_s, outer_wall,
                               places=6)

    def test_install_and_restore(self):
        class Owner:
            def method(self, x):
                return x + 1

        tracer = Tracer()
        original = Owner.method
        tracer.install(Owner, "method", "owner.method", lambda a, k, r: {"seen": r})
        self.assertEqual(Owner().method(1), 2)
        tracer.restore()
        self.assertIs(Owner.method, original)
        self.assertEqual(layer_totals(tracer.spans)["owner.method"].attrs, {"seen": 2})


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(sub_seed(3, "x"), sub_seed(3, "x"))
        self.assertNotEqual(sub_seed(3, "x"), sub_seed(4, "x"))
        graphs = [coloring.make_graphs("congest_sparse", 5)[0] for _ in range(2)]
        self.assertEqual(list(graphs[0].endpoint_arrays()), list(graphs[1].endpoint_arrays()))
        a, b, c = (serving.make_stream("serve_mixed", seed, "low", graphs[0], 0.5)
                   for seed in (5, 5, 6))
        self.assertEqual((a.due, a.lines), (b.due, b.lines))
        self.assertNotEqual(a.lines, c.lines)
        ops = [json.loads(line)["op"] for line in a.lines]
        self.assertIn("delete", ops)
        for i, op in enumerate(ops):
            if op == "delete":  # every delete is followed by its reinsert
                self.assertEqual(ops[i + 1], "insert")
                self.assertEqual(a.due[i], a.due[i + 1])


class TwinCheck(unittest.TestCase):
    def setUp(self):
        from repro.graphs.generators import random_regular_graph
        from repro.serving import build_artifact

        self.work = os.path.join(WORK_ROOT, f"selftest-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.path = os.path.join(self.work, "artifact.json")
        self.graph = random_regular_graph(200, 6, seed=1)
        build_artifact(self.graph).save(self.path)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    def test_flags_an_injected_wrong_response(self):
        from repro.serving import ServingSession
        from repro.serving.artifact import ColoringArtifact
        from repro.serving.protocol import encode_response

        stream = serving.make_stream("serve_mixed", 1, "high", self.graph, 0.3)
        session = ServingSession(ColoringArtifact.load(self.path))
        responses = [encode_response(session.query(json.loads(line))).encode()
                     for line in stream.lines]
        # Each replay journals its writes next to its artifact: one copy each.
        copies = [os.path.join(self.work, f"copy{i}.json") for i in range(2)]
        for copy in copies:
            shutil.copyfile(self.path, copy)
        flags, times_ns = serving.replay(copies[0], stream.lines, responses)
        self.assertFalse(any(flags))
        self.assertEqual(len(times_ns), len(stream.lines))
        reads = [i for i, r in enumerate(responses) if b'"color"' in r]
        wrong = list(responses)
        wrong[reads[-1]] = wrong[reads[-1]].replace(b'"color": ', b'"color": 1')
        flags, _ = serving.replay(copies[1], stream.lines, wrong)
        self.assertEqual([i for i, f in enumerate(flags) if f], [reads[-1]])


class OpenLoop(unittest.TestCase):
    def test_sends_on_schedule_and_times_from_due(self):
        client, server = socket.socketpair()

        def slow_echo():
            with server, server.makefile("rwb") as stream:
                for line in stream:
                    time.sleep(0.002)  # replies lag; sends must not wait for them
                    stream.write(b'{"ok": true}\n')
                    stream.flush()

        thread = threading.Thread(target=slow_echo, daemon=True)
        thread.start()
        stream = serving.Stream()
        for i in range(100):
            stream.add(i * 500_000, {"op": "color", "u": 0, "v": i})  # 2000 req/s
        client.setblocking(False)
        run = serving.open_loop(client, stream)
        client.close()
        thread.join(timeout=5)
        self.assertFalse(thread.is_alive())
        self.assertTrue(all(r == b'{"ok": true}' for r in run.responses))
        # 2 ms of service per 0.5 ms of arrivals: a queue builds, and the
        # latency from the due time grows with it.
        self.assertGreater(max(run.backlog), 10)
        self.assertGreater(run.latency_ns[-1], 100 * 1_000_000)
        self.assertLess(percentile(run.lag_ns, 50), 5_000_000)

    def test_growing_backlog(self):
        self.assertTrue(serving._backlog_grows([1, 2, 3, 10, 20, 30, 60, 80, 100]))
        self.assertFalse(serving._backlog_grows([5, 7, 6, 5, 8, 6, 7, 5, 6]))

    def test_no_pinning_on_one_cpu(self):
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            self.assertFalse(serving.pin(os.getpid()))
            self.assertEqual(os.sched_getaffinity(0), {min(allowed)})
        finally:
            os.sched_setaffinity(0, allowed)


if __name__ == "__main__":
    unittest.main()
