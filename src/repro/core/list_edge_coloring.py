"""(degree+1)-list edge coloring in the LOCAL model (Section 7 / Appendix D).

The algorithm only ever asks two things of a color list: how many of
its colors are still free at both endpoints, and which free color is
smallest within a value range.  Lists are therefore held as color
bitmasks (one ``int`` per edge, bit ``c`` set iff ``c`` is allowed),
and the colors used around each node as one
:class:`repro.coloring.greedy.UsedColorMasks` per solve.  A list given
in any order is treated as the set of its colors.

Three layers, mirroring the paper:

* :func:`solve_relaxed_instance` — the Lemma D.2 solver.  On a 2-colored
  bipartite (sub)graph whose edges satisfy ``|L_e| ≥ deg(e) + 1`` it
  recursively halves the color space, using the generalized defective
  2-edge coloring of Section 5 with λ_e = |L_e ∩ left half| / |L_e| to
  split the edges, sends low-degree / low-slack edges to per-level
  *passive* sets, and finally colors the passive sets greedily from the
  deepest level upwards.  A part's share of the color space is a mask
  per edge: the split boundary is the middle set bit of the OR of the
  part's masks, and each side keeps the bits below or above it.  An
  additional post-split check (see DESIGN.md §3) re-passivates any edge
  whose list would become smaller than its new degree + 1, so the
  output is a correct list coloring for *every* input satisfying the
  (degree+1) condition, independent of how well the defective splits
  performed.

* :func:`partially_color_bipartite` — the Lemma D.3 substitute (DESIGN.md
  §3.3).  It splits the uncolored bipartite graph into
  ``params.list_reduction_parts`` edge-disjoint parts with λ = 1/2
  defective splits and colors the parts sequentially with the Lemma D.2
  solver, where an edge participates only while its available list —
  ``L_e & ~(used(u) | used(v))`` — is at least ``params.list_slack``
  times its uncolored within-part degree.  Edges that stay uncolored
  were skipped, and an edge is only skipped when its uncolored degree is
  already small — which is exactly the degree-reduction guarantee
  Lemma D.3 provides.

In both lemmas the parts of one recursion level are edge-disjoint, and
their defective splits run in parallel: each level is one
:func:`repro.core.defective_edge_coloring.defective_two_edge_coloring_level`
call, charged the maximum over its parts.

* :func:`list_edge_coloring` — Theorem D.4.  A defective 4-coloring of
  the nodes splits the uncolored graph into bipartite class pairs; each
  pair is partially colored with :func:`partially_color_bipartite`; the
  uncolored degree shrinks by a constant factor per outer iteration, and
  the constant-degree leftover is colored greedily.  The (degree+1)
  invariant — every uncolored edge always has more available colors than
  uncolored neighbors — is maintained throughout, so the final greedy
  step (and hence the whole algorithm) always succeeds.  The solve owns
  the one ``UsedColorMasks`` every layer below updates in place.

The standard (2Δ−1)-edge coloring of Theorem 1.1 is the special case in
which every list is ``{0, …, 2Δ−2}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.coloring.defective_vertex import defective_split_coloring
from repro.coloring.greedy import (
    UsedColorMasks,
    color_mask,
    greedy_edge_coloring_by_classes,
    proper_edge_schedule,
)
from repro.coloring.linial import linial_vertex_coloring
from repro.core import parameters
from repro.core.defective_edge_coloring import SplitPart, defective_two_edge_coloring_level

# The one-part split entry stays importable from this module: the
# repository benchmark (perfbench/) traces it at this import site.
from repro.core.defective_edge_coloring import generalized_defective_two_edge_coloring  # noqa: F401
from repro.core.slack import ListEdgeColoringInstance, uniform_instance
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import Bipartition
from repro.graphs.core import Graph


@dataclass
class ColoringBuildState:
    """Solver state worth keeping after the batch solve finishes.

    The serving plane (:mod:`repro.serving`) wants the solve's per-node
    availability to warm-start a lookup artifact without an O(m)
    rebuild, so the pipeline hands it over on request.

    Attributes:
        masks: the solve's own per-node used-color bitmasks, which
            reflect the final coloring.
        palette: color → multiplicity over all colored edges.
    """

    masks: UsedColorMasks
    palette: Dict[int, int]


@dataclass
class ListColoringResult:
    """Outcome of the Theorem D.4 list edge coloring.

    Attributes:
        colors: proper list edge coloring, keyed by edge index.
        num_colors: number of distinct colors used.
        color_space: size of the instance's color space C.
        bound: 2Δ − 1 (the Theorem 1.1 bound; meaningful for the uniform
            instance, informational for arbitrary lists).
        rounds: communication rounds charged.
        outer_iterations: number of Theorem D.4 outer recursion levels.
        level_degrees: maximum uncolored degree at the start of each level.
        build_state: extracted solver state (``None`` unless the solve
            was asked to capture it); see :class:`ColoringBuildState`.
    """

    colors: Dict[int, int]
    num_colors: int
    color_space: int
    bound: int
    rounds: int
    outer_iterations: int
    level_degrees: List[int] = field(default_factory=list)
    build_state: Optional[ColoringBuildState] = None


# ---------------------------------------------------------------------------- helpers
@dataclass
class _Part:
    """An edge-disjoint part of the Lemma D.2 recursion.

    ``windows`` maps each edge to a color bitmask: bit ``c`` is set iff
    ``c`` is in the edge's list *and* in the part's share of the color
    space.  Halving a part's color space by value is one mask AND per
    edge, so nothing list-shaped is ever copied down the recursion.
    ``degrees`` holds the edge degrees within the part when they are
    already known.
    """

    edges: List[int]
    windows: Dict[int, int]
    degrees: Optional[Dict[int, int]] = None


def _kth_color(mask: int, k: int) -> int:
    """The ``k``-th smallest (0-based) color whose bit is set in ``mask``."""
    for _ in range(k):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


def _edge_degrees_within(graph: Graph, edges: Iterable[int]) -> Dict[int, int]:
    """Edge degrees restricted to the given edge set."""
    edge_list = list(edges)
    edge_u, edge_v = graph.endpoint_arrays()
    node_deg = [0] * graph.num_nodes
    for e in edge_list:
        node_deg[edge_u[e]] += 1
        node_deg[edge_v[e]] += 1
    return {e: node_deg[edge_u[e]] + node_deg[edge_v[e]] - 2 for e in edge_list}


# ---------------------------------------------------------------------------- Lemma D.2
def solve_relaxed_instance(
    graph: Graph,
    bipartition: Bipartition,
    lists: Optional[Dict[int, Sequence[int]]],
    edge_set: Optional[Iterable[int]] = None,
    existing_colors: Optional[Dict[int, int]] = None,
    params: Optional[parameters.PracticalParameters] = None,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
    *,
    list_masks: Optional[Dict[int, int]] = None,
    used: Optional[UsedColorMasks] = None,
) -> Dict[int, int]:
    """Color every edge of a bipartite list instance from its list (Lemma D.2).

    Requirements: every instance edge is bichromatic w.r.t. ``bipartition``
    and its (already pruned) list has at least ``deg(e) + 1`` colors,
    where the degree counts adjacent instance edges.  The paper requires
    slack ``S ≥ e²``; this implementation stays correct for slack 1 — the
    slack only influences how early edges turn passive and therefore the
    round count.

    Lists are sets of colors: each is turned into a bitmask once, and
    every part of the recursion keeps one *window* mask per edge.  A
    level halves a part's color space by value: the boundary is the
    middle set bit of the OR of the part's active windows, λ_e is the
    share of the window below it (the same two integers a per-color
    count would give), and each side keeps ``window & low`` or
    ``window & ~low``.  Passive edges are colored greedily, deepest level
    first, each with the smallest color of its window that neither
    endpoint uses.

    Args:
        graph: the host graph.
        bipartition: node sides.
        lists: per-edge available color lists (already excluding the
            colors of adjacent edges colored before this call); ignored
            when ``list_masks`` is given.
        edge_set: instance edges (defaults to the keys of the lists).
        existing_colors: colors of edges outside the instance (only used
            to seed the greedy passes; the lists must already exclude
            them); ignored when ``used`` is given.
        params: practical parameter overrides.
        tracker: optional round tracker.
        scan_path: orientation engine selector, forwarded to
            :func:`repro.core.defective_edge_coloring.
            defective_two_edge_coloring_level`, which splits all parts
            of a recursion level in one call.
        list_masks: the lists as color bitmasks (bit ``c`` set iff ``c``
            is allowed), as :func:`partially_color_bipartite` computes
            them; replaces ``lists``.
        used: caller-owned per-node used-color state exactly reflecting
            the colors outside the instance; the greedy passes read it
            and record their assignments in it **in place**.

    Returns the colors chosen for the instance edges.
    """
    params = params or parameters.DEFAULT_PARAMETERS
    own = RoundTracker()
    if list_masks is None:
        list_masks = {e: color_mask(lst) for e, lst in lists.items()}
    edges: List[int] = sorted(set(edge_set)) if edge_set is not None else sorted(list_masks)
    if not edges:
        return {}
    if used is None:
        used = UsedColorMasks.from_edge_coloring(graph, existing_colors or {})

    degrees = _edge_degrees_within(graph, edges)
    color_union = 0
    for e in edges:
        size = list_masks[e].bit_count()
        if size < degrees[e] + 1:
            raise ValueError(
                f"edge {e} has {size} available colors but degree {degrees[e]}; "
                "the (degree+1) condition is violated"
            )
        color_union |= list_masks[e]
    max_levels = max(1, math.ceil(math.log2(max(2, color_union.bit_count()))) + 1)

    parts: List[_Part] = [_Part(edges=edges, windows=list_masks, degrees=degrees)]
    #: Passive entries are ``(edge, window)`` pairs.
    passive_levels: List[List[Tuple[int, int]]] = []

    epsilon = max(params.epsilon, 0.5)
    nu = params.resolved_nu()
    for _level in range(max_levels):
        if not parts:
            break
        # Per part, its passive entries in the order the part produces
        # them; the level's batch lists the parts in order.
        part_passive: List[List[Tuple[int, int]]] = []
        splits: List[SplitPart] = []
        pending: List[Tuple[List[Tuple[int, int]], Dict[int, int], int]] = []
        for part in parts:
            passive: List[Tuple[int, int]] = []
            part_passive.append(passive)
            part_degrees = part.degrees or _edge_degrees_within(graph, part.edges)
            windows = part.windows
            active: List[int] = []
            for e in part.edges:
                degree = part_degrees[e]
                window = windows[e]
                if degree <= params.leaf_degree or window.bit_count() < params.passive_slack_threshold * max(1, degree):
                    passive.append((e, window))
                else:
                    active.append(e)
            if not active:
                continue
            # Split the part's color space in half by value (Section 7):
            # ``low`` holds the colors below the middle color of the union.
            union = 0
            for e in active:
                union |= windows[e]
            union_size = union.bit_count()
            if union_size <= 1:
                passive.extend((e, windows[e]) for e in active)
                continue
            low = (1 << _kth_color(union, union_size // 2)) - 1
            lambdas = []
            for e in active:
                size = windows[e].bit_count()
                lambdas.append((windows[e] & low).bit_count() / size if size else 0.5)
            splits.append(
                SplitPart(
                    active,
                    lambdas,
                    epsilon,
                    params.beta(max(part_degrees.values(), default=0)),
                    nu,
                )
            )
            pending.append((passive, windows, low))
        # The parts at one level are edge-disjoint and use disjoint color
        # spaces: their defective splits run in parallel, so the level costs
        # the maximum over the parts.
        level_rounds = 0
        new_parts: List[_Part] = []
        for (passive, windows, low), split in zip(
            pending,
            defective_two_edge_coloring_level(graph, bipartition, splits, scan_path=scan_path),
        ):
            level_rounds = max(level_rounds, split.rounds)
            # Red edges keep the low colors, blue edges the others.
            for side_edges, side_degrees, side in (
                (split.red, split.red_degrees, low),
                (split.blue, split.blue_degrees, ~low),
            ):
                survivors: Dict[int, int] = {}
                for e, degree in zip(side_edges, side_degrees):
                    kept = windows[e] & side
                    if kept.bit_count() > degree:
                        survivors[e] = kept
                    else:
                        # Correctness net: the split left this edge with
                        # too few colors; keep it at the parent level.
                        passive.append((e, windows[e]))
                if survivors:
                    new_parts.append(_Part(edges=list(survivors), windows=survivors))
        own.charge(level_rounds, "list-solver-split-level")
        passive_levels.append([entry for passive in part_passive for entry in passive])
        parts = new_parts

    # Any still-active leaves are colored first (deepest batch).
    if parts:
        passive_levels.append([(e, part.windows[e]) for part in parts for e in part.edges])

    result: Dict[int, int] = {}
    for batch in reversed(passive_levels):
        if not batch:
            continue
        batch_windows = dict(batch)
        schedule = proper_edge_schedule(
            graph, list(batch_windows), tracker=own, scan_path=scan_path
        )
        result.update(
            greedy_edge_coloring_by_classes(
                graph, schedule, tracker=own, used_colors=used, list_masks=batch_windows
            )
        )

    if tracker is not None:
        tracker.merge(own)
    return result


# ---------------------------------------------------------------------------- Lemma D.3 substitute
def partially_color_bipartite(
    graph: Graph,
    bipartition: Bipartition,
    instance: ListEdgeColoringInstance,
    edge_set: Iterable[int],
    coloring: Dict[int, int],
    params: Optional[parameters.PracticalParameters] = None,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
    *,
    masks: Optional[UsedColorMasks] = None,
) -> Dict[int, int]:
    """Partially color a bipartite piece so that its uncolored degree drops (Lemma D.3).

    The uncolored edges are split into ``params.list_reduction_parts``
    edge-disjoint parts (repeated λ = 1/2 defective splits); the parts are
    colored sequentially with :func:`solve_relaxed_instance`, where an
    edge participates only if its currently available list is at least
    ``params.list_slack`` times its uncolored within-part degree (and at
    least that degree + 1).  Edges skipped this way already have a small
    uncolored degree, which is the degree-reduction guarantee.
    An edge's available list is the mask ``L_e & ~(used(u) | used(v))``
    and its size one ``bit_count``.
    ``scan_path`` selects the orientation engine of every defective
    split (``"auto"`` / ``"numpy"`` / ``"python"``).

    ``masks`` is the caller's per-node used-color state for ``coloring``
    (the Theorem D.4 solve passes its own); every color this call assigns
    is recorded in it in place.  Without it the call builds a private one.

    Returns the newly assigned colors (``coloring`` itself is not modified).
    """
    params = params or parameters.DEFAULT_PARAMETERS
    own = RoundTracker()
    edges = sorted(e for e in edge_set if e not in coloring)
    newly: Dict[int, int] = {}
    if not edges:
        return newly

    split_levels = max(1, math.ceil(math.log2(max(2, params.list_reduction_parts))))
    # Every part carries its edges (ascending) and their degrees within
    # the part; a split hands both over for its two classes.
    degrees = _edge_degrees_within(graph, edges)
    parts: List[Tuple[List[int], List[int]]] = [(edges, [degrees[e] for e in edges])]
    epsilon = max(params.epsilon, 0.5)
    nu = params.resolved_nu()
    for _ in range(split_levels):
        # A part whose edge degrees are all ≤ 1 is not split further.
        splitting = [max(part_degrees) > 1 for _part, part_degrees in parts]
        splits = iter(
            defective_two_edge_coloring_level(
                graph,
                bipartition,
                [
                    SplitPart(part, 0.5, epsilon, params.beta(max(part_degrees)), nu)
                    for (part, part_degrees), split in zip(parts, splitting)
                    if split
                ],
                scan_path=scan_path,
            )
        )
        next_parts: List[Tuple[List[int], List[int]]] = []
        # Parts are edge-disjoint: the splits of one level run in parallel.
        level_rounds = 0
        for part, split in zip(parts, splitting):
            if not split:
                next_parts.append(part)
                continue
            outcome = next(splits)
            level_rounds = max(level_rounds, outcome.rounds)
            next_parts.append((outcome.red, outcome.red_degrees))
            next_parts.append((outcome.blue, outcome.blue_degrees))
        own.charge(level_rounds, "degree-reduction-split-level")
        parts = [part for part in next_parts if part[0]]

    if masks is None:
        masks = UsedColorMasks.from_edge_coloring(graph, coloring)
    edge_u, edge_v = graph.endpoint_arrays()
    list_masks = instance.list_masks()
    # Participation threshold per uncolored degree, memoized (the same
    # few degree values recur across all parts).
    list_slack = params.list_slack
    threshold_memo: Dict[int, int] = {}
    # The parts are edge-disjoint and hold only edges uncolored on entry,
    # and each solve colors edges of its own part only: every part edge
    # is still uncolored when its part's turn comes.
    for part, part_degrees in parts:
        available: Dict[int, int] = {}
        for e, degree in zip(part, part_degrees):
            free = list_masks[e] & ~masks.blocked(edge_u[e], edge_v[e])
            threshold = threshold_memo.get(degree)
            if threshold is None:
                threshold = max(degree + 1, math.ceil(list_slack * degree))
                threshold_memo[degree] = threshold
            if free.bit_count() >= threshold:
                available[e] = free
        if not available:
            continue
        newly.update(
            solve_relaxed_instance(
                graph,
                bipartition,
                None,
                edge_set=list(available),
                params=params,
                tracker=own,
                scan_path=scan_path,
                list_masks=available,
                used=masks,
            )
        )

    if tracker is not None:
        tracker.merge(own)
    return newly


# ---------------------------------------------------------------------------- Theorem D.4
def list_edge_coloring(
    graph: Graph,
    instance: Optional[ListEdgeColoringInstance] = None,
    params: Optional[parameters.PracticalParameters] = None,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
    capture_build_state: bool = False,
) -> ListColoringResult:
    """Solve the (degree+1)-list edge coloring problem (Theorems 1.1 / D.4).

    Args:
        graph: the input graph.
        instance: the list instance; defaults to the uniform (2Δ−1)-list
            instance, in which case the output is a (2Δ−1)-edge coloring.
        params: practical parameter overrides.
        tracker: optional round tracker.
        scan_path: orientation engine selector (``"auto"`` / ``"numpy"``
            / ``"python"``), forwarded to every defective split the
            recursion performs; both forced engines are bit-identical.
        capture_build_state: when true, hand the solve's per-node
            used-color bitmasks and a palette table to the result
            (:class:`ColoringBuildState`) for the serving plane instead
            of discarding them.  The coloring itself is unaffected.

    Raises ``ValueError`` if the instance violates the (degree+1) condition.
    """
    params = params or parameters.DEFAULT_PARAMETERS
    own = RoundTracker()
    if instance is None:
        instance = uniform_instance(graph)
    if not instance.is_degree_plus_one():
        raise ValueError("the instance violates the (degree+1)-list condition")

    bound = max(1, 2 * graph.max_degree - 1)
    # The solve's one availability state: every layer below reads and
    # updates these per-node used-color masks in place.
    masks = UsedColorMasks(graph.num_nodes)
    if graph.num_edges == 0:
        return ListColoringResult(
            colors={},
            num_colors=0,
            color_space=instance.color_space,
            bound=bound,
            rounds=0,
            outer_iterations=0,
            build_state=(
                ColoringBuildState(masks=masks, palette={}) if capture_build_state else None
            ),
        )

    vertex_colors, vertex_color_count = linial_vertex_coloring(graph, tracker=own)
    coloring: Dict[int, int] = {}
    level_degrees: List[int] = []
    max_outer = 2 * math.ceil(math.log2(max(2, graph.max_degree))) + 4
    outer = 0

    # The uncolored edge set shrinks monotonically; it is maintained
    # incrementally (filter out the edges colored in the last iteration)
    # instead of rescanning every graph edge twice per level, and its
    # degrees come from a zero-copy EdgeSubsetView instead of building a
    # fresh Graph per level.
    edge_u, edge_v = graph.endpoint_arrays()
    uncolored: List[int] = list(graph.edges())

    while True:
        if not uncolored:
            break
        view = graph.edge_subset_view(uncolored)
        current_delta = view.max_degree
        level_degrees.append(current_delta)
        if current_delta <= params.final_degree or outer >= max_outer:
            break
        outer += 1

        classes, _defect = defective_split_coloring(
            view,
            num_classes=4,
            epsilon=0.125,
            proper_coloring=vertex_colors,
            proper_num_colors=vertex_color_count,
            tracker=own,
            scan_path=scan_path,
        )
        # Bucket the uncolored edges by their (unordered) class pair in
        # one pass; the pairs are edge-disjoint, so the per-pair lists
        # cannot be invalidated by the other pairs' colorings.
        pair_buckets: Dict[Tuple[int, int], List[int]] = {}
        for e in uncolored:
            cu = classes[edge_u[e]]
            cv = classes[edge_v[e]]
            if cu != cv:
                key = (cu, cv) if cu < cv else (cv, cu)
                bucket = pair_buckets.get(key)
                if bucket is None:
                    pair_buckets[key] = [e]
                else:
                    bucket.append(e)
        for class_a in range(4):
            for class_b in range(class_a + 1, 4):
                pair_edges = pair_buckets.get((class_a, class_b))
                if not pair_edges:
                    continue
                bipartition = Bipartition(
                    [0 if classes[v] == class_a else 1 for v in graph.nodes()]
                )
                new = partially_color_bipartite(
                    graph,
                    bipartition,
                    instance,
                    pair_edges,
                    coloring,
                    params=params,
                    tracker=own,
                    scan_path=scan_path,
                    masks=masks,
                )
                coloring.update(new)
        uncolored = [e for e in uncolored if e not in coloring]

    # Final stage: the uncolored graph has small degree; greedy from the
    # instance lists against the solve's masks.
    if uncolored:
        schedule = proper_edge_schedule(graph, uncolored, tracker=own, scan_path=scan_path)
        new = greedy_edge_coloring_by_classes(
            graph,
            schedule,
            edge_set=set(uncolored),
            existing_colors=coloring,
            tracker=own,
            used_colors=masks,
            list_masks=instance.list_masks(),
        )
        coloring.update(new)

    if tracker is not None:
        tracker.merge(own)
    build_state: Optional[ColoringBuildState] = None
    if capture_build_state:
        palette: Dict[int, int] = {}
        for c in coloring.values():
            palette[c] = palette.get(c, 0) + 1
        build_state = ColoringBuildState(masks=masks, palette=palette)
    return ListColoringResult(
        colors=coloring,
        num_colors=len(set(coloring.values())),
        color_space=instance.color_space,
        bound=bound,
        rounds=own.total,
        outer_iterations=outer,
        level_degrees=level_degrees,
        build_state=build_state,
    )
