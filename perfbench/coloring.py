"""Coloring workloads: closed-loop runs of the public ``repro.api`` entry points.

* ``local_dense`` — Theorem 1.1 (2Δ−1)-coloring, ``color_edges_local``,
  on random Δ-regular graphs with n=512, Δ=64.
* ``congest_sparse`` — Theorem 1.2 (8+ε)Δ-coloring, ``color_edges_congest``,
  plus the CONGEST-audited Linial run on the message-passing simulator
  (``run_linial_network``), on random Δ-regular graphs with n=4096, Δ=16.

One instance is one graph solved and verified; instances run one after
another in one process, cycling over the workload's graphs.  Graph
generation and one warm-up instance are set-up, outside the timer.
"""

from __future__ import annotations

from contextlib import nullcontext
from importlib import import_module
from statistics import median
from time import perf_counter_ns
from typing import Dict, List, Optional

from common import REFERENCE_MS, peak_rss_mb, reference_ms, sub_seed
from spans import Tracer, layer_totals

SPECS = {
    "local_dense": {"n": 512, "degree": 64, "graphs": 8},
    "congest_sparse": {"n": 4096, "degree": 16, "graphs": 8},
}

#: Every label ``details["round_breakdown"]`` carries on these workloads.
ROUND_LABELS = (
    "degree-reduction-split-level",
    "list-solver-split-level",
    "bipartite-split-level",
    "bipartite-leaf-coloring",
    "greedy-edge-classes",
    "linial",
    "defective-poly-reduction",
    "defective-local-search",
)

#: Per-call counters and their span names (see ``install_layers``).
D4 = "core.list_edge_coloring.theorem_d4"
D3 = "core.list_edge_coloring.lemma_d3"
D2 = "core.list_edge_coloring.lemma_d2"
ORIENT = "core.balanced_orientation"
NETWORK = "distributed.network"
GENERATORS = "graphs.generators"
INSTANCE = "instance"

#: Layers reported as ``<name>.calls`` and ``<name>.self_s``.
CALL_LAYERS = (
    D4,
    D3,
    D2,
    "core.defective_edge_coloring",
    ORIENT,
    "core.congest_coloring",
    "core.bipartite_coloring",
    "coloring.linial",
    "coloring.defective_vertex",
    "coloring.greedy",
)


def _d3_attrs(args, kwargs, result) -> dict:
    edge_set = args[3] if len(args) > 3 else kwargs["edge_set"]
    coloring = args[4] if len(args) > 4 else kwargs["coloring"]
    offered = sum(1 for e in edge_set if e not in coloring)
    return {"offered": offered, "colored": len(result)}


def _d2_attrs(args, kwargs, result) -> dict:
    return {"edges": len(result)}


def _orientation_attrs(args, kwargs, result) -> dict:
    return {"edges": len(result.orientation), "phases": result.phases}


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public function where its caller imported it."""
    # ``repro.core`` re-exports functions named like some of its modules,
    # so the modules are looked up by their full names.
    api, bipartite, congest, defective, lec, generators = (
        import_module(f"repro.{name}")
        for name in ("api", "core.bipartite_coloring", "core.congest_coloring",
                     "core.defective_edge_coloring", "core.list_edge_coloring",
                     "graphs.generators")
    )

    tracer.install(generators, "random_regular_graph", GENERATORS)
    tracer.install(api, "list_edge_coloring", D4)
    tracer.install(lec, "partially_color_bipartite", D3, _d3_attrs)
    tracer.install(lec, "solve_relaxed_instance", D2, _d2_attrs)
    for module in (lec, bipartite):
        tracer.install(
            module, "generalized_defective_two_edge_coloring", "core.defective_edge_coloring"
        )
    tracer.install(defective, "compute_balanced_orientation", ORIENT, _orientation_attrs)
    tracer.install(api, "congest_edge_coloring", "core.congest_coloring")
    tracer.install(congest, "bipartite_edge_coloring", "core.bipartite_coloring")
    for module in (lec, congest):
        tracer.install(module, "linial_vertex_coloring", "coloring.linial")
        tracer.install(module, "defective_split_coloring", "coloring.defective_vertex")
    for module in (lec, congest, bipartite):
        tracer.install(module, "proper_edge_schedule", "coloring.greedy")
        tracer.install(module, "greedy_edge_coloring_by_classes", "coloring.greedy")
    tracer.install(api, "run_linial_network", NETWORK)
    tracer.install(api, "is_proper_edge_coloring", "verification.checkers")


def make_graphs(workload: str, seed: int) -> list:
    """The workload's graphs; the same seed gives the same graphs."""
    from repro.graphs import generators

    spec = SPECS[workload]
    return [
        generators.random_regular_graph(
            spec["n"], spec["degree"], seed=sub_seed(seed, f"{workload}/graph{i}")
        )
        for i in range(spec["graphs"])
    ]


def check_edge_coloring(graph, outcome) -> Optional[str]:
    """The benchmark's own check of a coloring outcome; ``None`` when correct."""
    if not outcome.is_proper:
        return "the program's checker rejected its coloring"
    colors = outcome.colors
    if len(colors) != graph.num_edges:
        return f"{graph.num_edges - len(colors)} edges left uncolored"
    edge_u, edge_v = graph.endpoint_arrays()
    taken = set()
    for e in range(graph.num_edges):
        c = colors[e]
        a, b = (edge_u[e], c), (edge_v[e], c)
        if a in taken or b in taken:
            return f"edge {e} shares color {c} with an adjacent edge"
        taken.add(a)
        taken.add(b)
    if len(set(colors.values())) != outcome.num_colors:
        return "num_colors disagrees with the coloring"
    if outcome.num_colors > outcome.bound:
        return f"{outcome.num_colors} colors exceed the bound {outcome.bound}"
    return None


def check_linial(graph, outcome) -> Optional[str]:
    if outcome.congest_violations:
        return f"{outcome.congest_violations} messages over the CONGEST budget"
    colors = outcome.outputs
    edge_u, edge_v = graph.endpoint_arrays()
    for e in range(graph.num_edges):
        if colors[edge_u[e]] == colors[edge_v[e]]:
            return f"Linial gave both endpoints of edge {e} one color"
    return None


class Instance:
    """One solved graph: timing, rounds and the outcome of the checks."""

    def __init__(self, workload: str, graph, tracer: Optional[Tracer] = None) -> None:
        import repro.api as api

        ref_before = reference_ms()
        with tracer.span(INSTANCE) if tracer is not None else nullcontext():
            t0 = perf_counter_ns()
            if workload == "local_dense":
                outcome = api.color_edges_local(graph)
                network = None
            else:
                outcome = api.color_edges_congest(graph)
                network = api.run_linial_network(graph)
            self.ns = perf_counter_ns() - t0
        self.ref_ms = (ref_before + reference_ms()) / 2
        self.edges = graph.num_edges
        self.rounds = outcome.rounds
        self.breakdown: Dict[str, int] = outcome.details["round_breakdown"]
        self.network = network
        self.failure = check_edge_coloring(graph, outcome)
        if self.failure is None and network is not None:
            self.failure = check_linial(graph, network)


class Setup:
    def __init__(self, workload: str, seed: int, tracer: Optional[Tracer]) -> None:
        self.workload = workload
        self.tracer = tracer
        if tracer is not None:
            install_layers(tracer)
        self.graphs = make_graphs(workload, seed)
        warm = Instance(workload, self.graphs[0])
        if warm.failure:
            raise RuntimeError(f"warm-up instance failed: {warm.failure}")
        if tracer is not None:
            self.generator_s = layer_totals(tracer.spans)[GENERATORS].self_s
            tracer.restore()
            tracer.spans.clear()


def measure(setup: Setup, seconds: float) -> dict:
    """Closed loop over the graphs for ``seconds`` (and at least one pass).

    Untraced, this gives the end-to-end figures.  Traced, each graph is
    solved twice in a row, untraced then traced, so the same run yields
    the layer figures and the tracing overhead.
    """
    tracer = setup.tracer
    graphs = setup.graphs
    plain: List[Instance] = []
    traced: List[Instance] = []
    deadline = perf_counter_ns() + int(seconds * 1e9)

    def more() -> bool:
        if len(plain) < len(graphs):
            return True
        if tracer is not None and len(plain) % len(graphs):
            return True  # traced figures are per whole pass over the graphs
        return perf_counter_ns() < deadline

    while more():
        graph = graphs[len(plain) % len(graphs)]
        plain.append(Instance(setup.workload, graph))
        if tracer is not None:
            install_layers(tracer)
            traced.append(Instance(setup.workload, graph, tracer))
            tracer.restore()
    runs = plain + traced
    times = [r.ns / 1e9 for r in plain]
    # The fastest of each graph's runs: contention on the machine only
    # ever adds time, so the minimum is the steadiest figure per graph.
    best = [min(r.ns for r in plain[g:: len(graphs)]) / 1e9 for g in range(len(graphs))]
    scaled = [min(r.ns / 1e6 * REFERENCE_MS / r.ref_ms for r in plain[g:: len(graphs)])
              for g in range(len(graphs))]
    result = {
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r.failure),
        "failures": sorted({r.failure for r in runs if r.failure}),
        "peak_rss_mb": peak_rss_mb(),
        "charged_rounds": sum(r.rounds for r in plain[: len(graphs)]),
        "instances": len(times),
        "edges_per_s": sum(r.edges for r in plain) / sum(times),
        "instance_s_p50": median(times),
        "graphs": len(graphs),
        "best_s_p50": median(best),
        "scaled_ms_p50": median(scaled),
        "reference_ms": median([r.ref_ms for r in plain]),
    }
    if tracer is not None:
        traced_s = sum(r.ns for r in traced) / 1e9
        result["layers"] = _layer_metrics(setup, traced, sum(times), traced_s)
    return result


def _round_totals(instances: List[Instance]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for run in instances:
        for label, rounds in run.breakdown.items():
            totals[label] = totals.get(label, 0) + rounds
    return totals


def _layer_metrics(setup: Setup, traced: List[Instance], untraced_s: float, traced_s: float):
    """Per-layer figures per pass over the graphs (one pass = every graph once)."""
    passes = len(traced) / len(setup.graphs)
    totals = layer_totals(setup.tracer.spans)
    metrics: Dict[str, float] = {f"{GENERATORS}.self_s": setup.generator_s}
    for layer in CALL_LAYERS:
        entry = totals.get(layer)
        metrics[f"{layer}.calls"] = entry.calls / passes if entry else 0
        metrics[f"{layer}.self_s"] = entry.self_s / passes if entry else 0.0
    for layer in ("verification.checkers", NETWORK):
        entry = totals.get(layer)
        metrics[f"{layer}.self_s"] = entry.self_s / passes if entry else 0.0

    def ratio(layer: str, num: str, den: Optional[str]) -> float:
        entry = totals.get(layer)
        if entry is None:
            return 0.0
        base = entry.attrs[den] if den else entry.calls
        return entry.attrs[num] / base if base else 0.0

    metrics[f"{D3}.colored_ratio"] = ratio(D3, "colored", "offered")
    metrics[f"{D2}.edges_per_call"] = ratio(D2, "edges", None)
    metrics[f"{ORIENT}.edges_per_call"] = ratio(ORIENT, "edges", None)
    metrics[f"{ORIENT}.phases"] = totals[ORIENT].attrs["phases"] / passes if ORIENT in totals else 0
    networks = [r.network for r in traced if r.network is not None]
    metrics[f"{NETWORK}.messages"] = sum(n.messages for n in networks) / passes
    metrics[f"{NETWORK}.max_message_bits"] = max((n.max_message_bits for n in networks), default=0)
    metrics[f"{NETWORK}.congest_violations"] = sum(n.congest_violations for n in networks)
    instance_s = totals[INSTANCE].wall_ms
    attributed = sum(t.self_s for name, t in totals.items() if name != INSTANCE)
    wall = sum(instance_s) / 1e3
    metrics["unattributed_s"] = (wall - attributed) / passes
    metrics["unattributed_ratio"] = (wall - attributed) / wall
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    rounds = _round_totals(traced[: len(setup.graphs)])
    for label in ROUND_LABELS:
        metrics[f"rounds.{label}"] = rounds.get(label, 0)
    metrics["rounds.total"] = sum(rounds.values())
    return metrics
