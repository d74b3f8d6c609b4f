"""Helpers shared by the benchmark's workloads: paths, seeds, percentiles, memory, speed."""

from __future__ import annotations

import math
import os
import random
import sys
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for one run (artifacts, journals, daemon logs).
WORK_ROOT = os.path.join(ROOT, ".perfbench_run")

#: The reference loop's time (``reference_ms``) that defines reference speed.
REFERENCE_MS = 2.5
#: Percentiles considered for a tail, highest first; p99 is the SLO's.
TAIL_PERCENTILES = (99.0, 90.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Share of the slowest requests left out of a serving workload's
#: ``time_per_op_ms``: the rare full recomputes of repair, which would
#: otherwise set most of it (see README.md).
TRIM = 0.01


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``repro`` importable from ``src``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return env


def import_repro() -> None:
    """Make ``repro`` importable from the checkout, or exit with an error."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro comes from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def sub_rng(seed: int, name: str) -> random.Random:
    """An independent, reproducible random stream for one input of one seed.

    String seeds are hashed with SHA-512 by :mod:`random`, so the stream
    does not depend on ``PYTHONHASHSEED`` or the interpreter run.
    """
    return random.Random(f"perfbench:{seed}:{name}")


def sub_seed(seed: int, name: str) -> int:
    """A 31-bit integer seed derived from ``(seed, name)``."""
    return sub_rng(seed, name).getrandbits(31)


def _rank(n: int, p: float) -> int:
    # Rounded first, so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``p`` percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def trimmed_mean(values: Sequence[float]) -> float:
    """The mean of ``values`` without the largest :data:`TRIM` share of them."""
    kept = sorted(values)[: len(values) - int(len(values) * TRIM)]
    return sum(kept) / len(kept)


def reference_ms() -> float:
    """The fastest of five runs of a fixed pure-Python loop, in ms.

    The loop is the benchmark's own code, so no change to the program
    moves it; only the machine's speed does.
    """
    best = math.inf
    for _ in range(5):
        t0 = perf_counter_ns()
        table = {}
        acc = 0
        for i in range(20_000):
            table[i & 1023] = acc
            acc += i * i % 7
        best = min(best, perf_counter_ns() - t0)
    return best / 1e6


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, all its threads, in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # Fields after the command name, which may itself hold spaces;
        # utime and stime are fields 14 and 15 of the whole line.
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def zipf_cdf(n: int, s: float) -> List[float]:
    """Cumulative Zipf(``s``) weights over ranks ``1..n``."""
    total = 0.0
    cdf = []
    for rank in range(1, n + 1):
        total += rank ** -s
        cdf.append(total)
    return [c / total for c in cdf]
