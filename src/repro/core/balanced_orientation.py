"""Generalized balanced edge orientations (Section 5).

Given a 2-colored bipartite (sub)graph and per-edge thresholds ``η_e``,
the algorithm orients every edge such that, up to a slack of
``(ε/2)·deg(e) + β``, the in-degree difference across every edge respects
``η_e`` (Definition 5.2).  The orientation is computed in phases: in each
phase the still-unoriented high-degree edges propose an orientation based
on the current in-degrees, every node accepts at most ``k_φ`` proposals,
and one instance of the generalized token dropping game (Section 4)
repairs the edges whose constraint became violated — moving a token over
an edge corresponds to flipping its orientation.

The implementation follows the seven numbered steps of Section 5
verbatim; all parameters (ν, k_φ, δ_φ, α_v(φ)) come from
:mod:`repro.core.parameters`.  The algorithm operates on an explicit
``edge_set`` so that the recursive color-space-splitting algorithms can
run it on subgraphs without re-indexing edges.

There is one engine, plus its pure-python reference twin, selected by
the ``scan_path`` knob (or the ``REPRO_SCAN_PATH`` environment variable
in ``"auto"`` mode):

* the **batched engine** (:func:`orient_parts`) orients all the
  edge-disjoint parts of one recursion level at once.  The parts share
  one flat edge layout (:class:`PartLayout`: part-major, ascending edges
  within a part) and one compact node space keyed by (part, node).  They
  advance in lockstep: per phase, participation, the proposal
  directions, the per-node ``k_φ`` accept cap (a stable argsort by
  target node plus a group-rank cut) and the accept step are array ops
  over the whole layout, with each part's Δ̄, threshold, ``k_φ``, ``δ_φ``
  and α gathered by part id.  A part without proposals in a phase is
  only charged that phase's rounds, and phases in which no part
  proposes are skipped arithmetically.  Only the (rare) token dropping
  repair games run per part, in python.  ``"auto"`` runs it whenever
  numpy is available, whatever the part sizes; a single instance is a
  level of one part.
* the **pure-python reference twin** — a direct transcription of the
  seven steps for one part, with incremental violation tracking.

Both are required to produce bit-identical orientations, in-degrees,
phase counts and round charges on every part; the differential test
matrix (``tests/test_differential_paths.py``) cross-checks them end to
end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core import parameters
from repro.core.engine import _np, resolve_use_numpy
from repro.core.token_dropping import ROUNDS_PER_PHASE, _token_dropping_core
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import Bipartition
from repro.graphs.core import Graph


@dataclass
class BalancedOrientationResult:
    """Outcome of the Section 5 orientation algorithm.

    Attributes:
        orientation: per edge, the pair ``(tail, head)`` the edge is
            oriented as (``tail -> head``).
        in_degrees: ``x_w`` — the number of instance edges oriented
            towards each node.
        phases: number of orientation phases executed.
        rounds: communication rounds charged.
        nu: the ν the run used.
        bar_delta: the Δ̄ upper bound of the instance.
        edge_degrees: static edge degrees within the instance (used by
            the Definition 5.2 checks).
    """

    orientation: Dict[int, Tuple[int, int]]
    in_degrees: List[int]
    phases: int
    rounds: int
    nu: float
    bar_delta: int
    edge_degrees: Dict[int, int] = field(default_factory=dict)

    def definition_52_violations(
        self,
        graph: Graph,
        bipartition: Bipartition,
        eta: Dict[int, float],
        epsilon: float,
        beta: float,
    ) -> List[Tuple[int, float, float]]:
        """Edges violating the (ε, β)-balanced orientation conditions (I)/(II).

        Returns tuples ``(edge, lhs, rhs)`` for every violated inequality;
        an empty list means the orientation is (ε, β)-balanced w.r.t. η.
        """
        violations = []
        for e, (tail, head) in self.orientation.items():
            u, v = bipartition.orient_edge(graph, e)
            slack = (epsilon / 2.0) * self.edge_degrees.get(e, 0) + beta
            x_u = self.in_degrees[u]
            x_v = self.in_degrees[v]
            if tail == u and head == v:
                lhs = x_v - x_u
                rhs = eta[e] + 1 + slack
            else:
                lhs = x_u - x_v
                rhs = -eta[e] + 1 + slack
            if lhs > rhs + 1e-9:
                violations.append((e, float(lhs), float(rhs)))
        return violations


def instance_arrays(
    graph: Graph,
    bipartition: Bipartition,
    edges: List[int],
) -> Tuple[List[int], Dict[int, int], List[int], List[int]]:
    """Per-instance degree and orientation arrays (reference engine).

    Returns ``(static_deg, edge_degrees, o_u, o_v)``: node degrees within
    the instance, edge degrees keyed by edge, and the oriented endpoints
    per edge (U side first) as dense arrays over the host graph's edge
    ids — so hot loops index instead of calling ``orient_edge``.  Raises
    ``ValueError`` for edges that do not cross the bipartition.
    """
    n = graph.num_nodes
    edge_u, edge_v = graph.endpoint_arrays()
    sides = bipartition.sides

    static_deg = [0] * n
    for e in edges:
        static_deg[edge_u[e]] += 1
        static_deg[edge_v[e]] += 1

    edge_degrees = {
        e: static_deg[edge_u[e]] + static_deg[edge_v[e]] - 2 for e in edges
    }

    o_u = [0] * graph.num_edges
    o_v = [0] * graph.num_edges
    for e in edges:
        a = edge_u[e]
        b = edge_v[e]
        if sides[a] == 0 and sides[b] == 1:
            o_u[e], o_v[e] = a, b
        elif sides[a] == 1 and sides[b] == 0:
            o_u[e], o_v[e] = b, a
        else:
            raise ValueError(
                f"edge {e} = ({a}, {b}) is not bichromatic in this bipartition"
            )
    return static_deg, edge_degrees, o_u, o_v


def resolve_nu(nu: Optional[float], epsilon: float) -> float:
    """The ν an orientation runs with: ``nu`` (or ε/8), clamped to (0, 1/8]."""
    resolved = nu if nu is not None else parameters.nu_from_epsilon(epsilon)
    return min(parameters.NU_UPPER_BOUND, max(1e-6, resolved))


def phase_budget(nu: float, bar_delta: int, max_phases: Optional[int] = None) -> int:
    """Number of orientation phases (the analytic O(log Δ̄ / ν) count by default)."""
    if max_phases is not None:
        return max_phases
    return parameters.orientation_phase_count(nu, bar_delta) + 1


def _game_shape(nu: float, bar_delta: int, phase: int) -> Tuple[int, int, int]:
    """``(k_φ, δ, game phases)`` of the phase's repair game.

    δ is ``δ_φ`` capped at ``k_φ``; the game runs ``k_φ // δ − 1`` phases.
    """
    k_phi = parameters.k_phase(nu, bar_delta, phase)
    delta_use = min(parameters.delta_phase(nu, bar_delta, phase), k_phi)
    return k_phi, delta_use, max(0, k_phi // delta_use - 1)


def _idle_game_rounds(nu: float, bar_delta: int, start: int, stop: int) -> int:
    """Token dropping rounds charged by phases ``start .. stop − 1`` when
    violated edges exist but no game can move a token."""
    return sum(
        max(1, ROUNDS_PER_PHASE * _game_shape(nu, bar_delta, p)[2])
        for p in range(start, stop)
    )


@lru_cache(maxsize=4096)
def _thresholds(nu: float, bar_delta: int, budget: int) -> Tuple[float, ...]:
    """The participation threshold ``(1 − ν)^φ · Δ̄`` of phases 0 .. budget."""
    return tuple((1.0 - nu) ** phase * bar_delta for phase in range(budget + 1))


def _next_active_phase(
    nu: float, bar_delta: int, phase: int, budget: int, max_unor: int
) -> int:
    """The first phase after ``phase`` whose threshold falls below the
    largest unoriented edge degree (``budget + 1`` if none does).

    Phases before it have no participating edge: they orient nothing,
    move no token and leave every violation flag unchanged, so only
    their round charges need replaying.
    """
    if max_unor > 0:
        schedule = _thresholds(nu, bar_delta, budget)
        for p in range(phase + 1, budget + 1):
            if schedule[p] < max_unor:
                return p
    return budget + 1


def _fast_forward_phases(
    phase: int,
    phase_budget: int,
    max_unor: int,
    has_violated: bool,
    resolved_nu: float,
    bar_delta: int,
    local_tracker: RoundTracker,
) -> Tuple[int, int, int]:
    """Replay the charges of proposal-free phases arithmetically.

    Returns ``(next_phase, phases_run, extra_proposal_rounds)``.
    """
    target = _next_active_phase(resolved_nu, bar_delta, phase, phase_budget, max_unor)
    stop = min(target, phase_budget + 1)
    if has_violated:
        local_tracker.charge(
            _idle_game_rounds(resolved_nu, bar_delta, phase, stop),
            "orientation-token-dropping",
        )
    return target, min(target - 1, phase_budget), 2 * (stop - phase)


def _phase_loop_python(
    graph: Graph,
    n: int,
    edges: List[int],
    o_u: List[int],
    o_v: List[int],
    eta_arr: List[float],
    static_deg: List[int],
    edge_degrees: Dict[int, int],
    bar_delta: int,
    resolved_nu: float,
    phase_budget: int,
    local_tracker: RoundTracker,
) -> Tuple[Dict[int, Tuple[int, int]], List[int], int]:
    """The pure-python reference engine (the seven steps, incremental)."""
    edge_u, edge_v = graph.endpoint_arrays()

    # Unoriented edges: a compact ascending list compacted during the
    # per-phase scan, plus a flag array for O(1) membership.
    unoriented_list: List[int] = list(edges)
    unoriented_count = len(unoriented_list)
    oriented_flag = bytearray(graph.num_edges)
    orientation: Dict[int, Tuple[int, int]] = {}
    x = [0] * n  # in-degrees
    unor_deg = list(static_deg)  # node degrees among unoriented instance edges
    # α_v is a function of d⁻(v), the min static edge degree among the
    # node's oriented edges (Δ̄ when it has none).  Both are maintained
    # incrementally — d⁻ changes only when an edge is oriented — instead of
    # recomputing α for every node in every phase.
    d_minus: List[Optional[int]] = [None] * n
    alpha_default = parameters.alpha_node(resolved_nu, bar_delta, bar_delta)
    alpha_now: List[int] = [alpha_default] * n
    alpha_memo: Dict[int, int] = {bar_delta: alpha_default}
    phases_run = 0

    # Step 5 asks, every phase, which *previously oriented* edges violate
    # their η constraint under the phase-start in-degrees.  An edge's
    # status can only change when one of its endpoints' in-degree changed
    # or its orientation flipped, so instead of rescanning every oriented
    # edge per phase we maintain the violated set and recheck only
    # the edges queued as dirty by the previous phase (newly oriented
    # edges, flipped edges, and edges incident to nodes whose x changed).
    # The violated list is emitted in orientation order — the order the
    # seed implementation produced by iterating the orientation dict — so
    # the token dropping games see bit-identical inputs.
    dir_flag = bytearray(graph.num_edges)  # proposal direction: 1 = U→V, 2 = V→U
    violated_set: Set[int] = set()
    orient_seq: Dict[int, int] = {}  # edge -> position in orientation order
    # Nodes whose in-degree changed this phase (plus flip endpoints);
    # their incident oriented edges — which cover every edge whose
    # violation status can differ next phase, including newly oriented
    # ones — are rechecked at the next phase start.
    dirty_nodes: Set[int] = set()
    graph_xadj, graph_inc = graph.incidence_csr()

    # Per-phase proposal rounds are accumulated and charged once after
    # the loop (the tracker sums per label, so the account is identical).
    proposal_rounds = 0
    phase = 1
    while phase <= phase_budget:
        if not unoriented_count:
            break
        phases_run = phase
        threshold = (1.0 - resolved_nu) ** phase * bar_delta
        # In-degrees are only read before step 4 mutates them, so the
        # phase-start snapshot the paper's steps refer to is ``x`` itself.
        x_old = x

        # Refresh the violation flags of the edges dirtied last phase,
        # against the same phase-start snapshot the full rescan used.
        if dirty_nodes:
            recheck: Set[int] = set()
            for node in dirty_nodes:
                for i in range(graph_xadj[node], graph_xadj[node + 1]):
                    f = graph_inc[i]
                    if oriented_flag[f]:
                        recheck.add(f)
            dirty_nodes.clear()
            for e in recheck:
                tail = orientation[e][0]
                u = o_u[e]
                v = o_v[e]
                if tail == u:
                    bad = x_old[v] - x_old[u] > eta_arr[e]
                else:
                    bad = x_old[u] - x_old[v] > -eta_arr[e]
                if bad:
                    violated_set.add(e)
                else:
                    violated_set.discard(e)

        # Steps 1 + 2 fused: scan the unoriented edges once, and for each
        # participating edge (degree above the threshold) record its
        # proposal immediately.  Ascending edge order falls out of the
        # scan, so the per-node proposal lists are ascending without
        # sorting.  The chosen direction is recorded as one byte per edge
        # (1 = U→V, 2 = V→U); the (tail, head) tuple is only materialized
        # for accepted edges.  Degrees are integers, so ``d > threshold``
        # is equivalent to comparing against ⌊threshold⌋ (int-int
        # compares are cheaper).  ``max_unor`` (the largest unoriented
        # edge degree) is only needed by the fast-forward.
        proposals: Dict[int, List[int]] = {}
        num_participating = 0
        max_unor = 0
        threshold_floor = int(threshold)
        alive: List[int] = []
        for e in unoriented_list:
            if oriented_flag[e]:
                continue
            alive.append(e)
            if unor_deg[edge_u[e]] + unor_deg[edge_v[e]] - 2 > threshold_floor:
                num_participating += 1
                u = o_u[e]
                v = o_v[e]
                if x_old[v] - x_old[u] <= eta_arr[e]:
                    target = v
                    dir_flag[e] = 1
                else:
                    target = u
                    dir_flag[e] = 2
                bucket = proposals.get(target)
                if bucket is None:
                    proposals[target] = [e]
                else:
                    bucket.append(e)
        unoriented_list = alive
        if not num_participating:
            # max degree is only needed by the fast-forward below.
            for e in alive:
                d = unor_deg[edge_u[e]] + unor_deg[edge_v[e]] - 2
                if d > max_unor:
                    max_unor = d
            phase, phases_run, extra = _fast_forward_phases(
                phase,
                phase_budget,
                max_unor,
                bool(violated_set),
                resolved_nu,
                bar_delta,
                local_tracker,
            )
            proposal_rounds += extra
            continue

        # The repair game of step 6 needs the phase-start α values; step 4
        # logs its (rare) α overwrites so the snapshot can be
        # reconstructed on demand instead of copying α every phase.
        alpha_undo: List[Tuple[int, int]] = []
        # Step 3: every node accepts at most k_φ proposals (smallest edge
        # indices first; the lists are already ascending).
        k_phi = parameters.k_phase(resolved_nu, bar_delta, phase)
        accepted: List[int] = []
        accepted_count = [0] * n
        max_accepted = 0
        for node in sorted(proposals):
            chosen = proposals[node][:k_phi]
            accepted.extend(chosen)
            count = len(chosen)
            accepted_count[node] = count
            if count > max_accepted:
                max_accepted = count
        # Step 4: orient the accepted edges.
        for e in accepted:
            if dir_flag[e] == 1:
                direction = (o_u[e], o_v[e])
            else:
                direction = (o_v[e], o_u[e])
            orient_seq[e] = len(orient_seq)
            orientation[e] = direction
            head = direction[1]
            x[head] += 1
            dirty_nodes.add(head)
            oriented_flag[e] = 1
            unoriented_count -= 1
            u = edge_u[e]
            v = edge_v[e]
            unor_deg[u] -= 1
            unor_deg[v] -= 1
            deg_e = edge_degrees[e]
            for endpoint in (u, v):
                current = d_minus[endpoint]
                if current is None or deg_e < current:
                    d_minus[endpoint] = deg_e
                    alpha = alpha_memo.get(deg_e)
                    if alpha is None:
                        alpha = parameters.alpha_node(resolved_nu, bar_delta, deg_e)
                        alpha_memo[deg_e] = alpha
                    alpha_undo.append((endpoint, alpha_now[endpoint]))
                    alpha_now[endpoint] = alpha
        proposal_rounds += 2

        # Step 5: previously oriented edges whose constraint is violated —
        # the maintained violation set, in orientation order.  Edges
        # accepted *this* phase cannot be in it (their first status check
        # happens next phase), matching the seed's accepted-set exclusion.
        if not violated_set:
            phase += 1
            continue

        # Step 6: one token dropping instance on the violated edges,
        # directed opposite to their current orientation.  Two cheap
        # checks identify games that cannot move a single token — then
        # the round charge is the only observable effect and the game
        # (and its arc structure) need not be built at all:
        #
        # * ``k_φ // δ − 1 == 0``: the game runs zero phases;
        # * every initial token count is < 2: no node ever reaches the
        #   activity threshold ``α_v + δ ≥ 2``, and inactive nodes
        #   neither freeze nor transfer tokens, so the state is frozen.
        _k_phi, delta_use, game_phases = _game_shape(resolved_nu, bar_delta, phase)
        max_initial = min(k_phi, max_accepted)
        if game_phases == 0 or max_initial < 2:
            local_tracker.charge(
                max(1, ROUNDS_PER_PHASE * game_phases), "orientation-token-dropping"
            )
            phase += 1
            continue

        violated: List[int] = sorted(violated_set, key=orient_seq.__getitem__)
        # Reconstruct the phase-start α from the undo log (applied in
        # reverse so earlier values win).
        alpha_old = list(alpha_now)
        for undo_index in range(len(alpha_undo) - 1, -1, -1):
            node, previous = alpha_undo[undo_index]
            alpha_old[node] = previous
        # The game runs on flat arc arrays directly (no per-phase
        # DirectedGraph / TokenDroppingGame construction); inputs are
        # valid by construction: 0 ≤ initial tokens ≤ k_φ and α ≥ 1.
        game_tails: List[int] = []
        in_map: Dict[int, List[int]] = {}
        deg_count: Dict[int, int] = {}
        for index, e in enumerate(violated):
            tail, head = orientation[e]
            # The game arc runs opposite to the orientation: head -> tail.
            game_tails.append(head)
            in_map.setdefault(tail, []).append(index)
            deg_count[head] = deg_count.get(head, 0) + 1
            deg_count[tail] = deg_count.get(tail, 0) + 1
        initial_tokens = [0] * n
        for node, count in enumerate(accepted_count):
            if count:
                initial_tokens[node] = count if count < k_phi else k_phi
        _x, _y, moved_arcs, _arc_moves, game_phases = _token_dropping_core(
            n=n,
            tails=game_tails,
            in_map=in_map,
            degrees=deg_count,
            k=k_phi,
            initial_tokens=initial_tokens,
            alphas=alpha_old,
            delta=delta_use,
        )
        local_tracker.charge(
            max(1, ROUNDS_PER_PHASE * game_phases), "orientation-token-dropping"
        )

        # Step 7: flip the orientation of every edge over which a token moved.
        for arc_index in moved_arcs:
            e = violated[arc_index]
            tail, head = orientation[e]
            orientation[e] = (head, tail)
            x[head] -= 1
            x[tail] += 1
            dirty_nodes.add(head)
            dirty_nodes.add(tail)
        phase += 1

    if proposal_rounds:
        local_tracker.charge(proposal_rounds, "orientation-proposals")

    # Remaining unoriented edges (constant per node): orient from U to V.
    if unoriented_count:
        for e in unoriented_list:
            if oriented_flag[e]:
                continue
            orientation[e] = (o_u[e], o_v[e])
            x[o_v[e]] += 1
        local_tracker.charge(1, "orientation-final")

    return orientation, x, phases_run


@dataclass
class PartLayout:
    """Edge-disjoint parts of one recursion level on one flat layout.

    Positions are part-major, and each part's edges are ascending; part
    ``p`` holds positions ``eoff[p]:eoff[p + 1]``.  Nodes are compacted
    by (part, node) in ascending order, so part ``p`` holds the compact
    nodes ``noff[p]:noff[p + 1]`` and they keep the order of their host
    node ids.  The arrays are numpy ``int64``.

    Attributes:
        ids: host edge id per position.
        pid: part id per position.
        ou / ov: compact U-side / V-side endpoint per position.
        node_graph: host node id per compact node.
        node_pid: part id per compact node.
        deg: compact node degree within its part.
        dege: edge degree within its part, per position.
        eoff / noff: the part offsets into positions / compact nodes.
        bar_delta: Δ̄ (largest edge degree) per part.
    """

    ids: Any
    pid: Any
    ou: Any
    ov: Any
    node_graph: Any
    node_pid: Any
    deg: Any
    dege: Any
    eoff: List[int]
    noff: List[int]
    bar_delta: List[int]


def segment_parts(
    graph: Graph, bipartition: Bipartition, parts: Sequence[Sequence[int]]
) -> PartLayout:
    """Lay out edge-disjoint parts (each ascending) for :func:`orient_parts`.

    Raises ``ValueError`` naming the first edge, in layout order, that
    does not cross the bipartition.
    """
    np = _np
    sizes = [len(part) for part in parts]
    eoff = [0]
    for size in sizes:
        eoff.append(eoff[-1] + size)
    total = eoff[-1]
    num_parts = len(parts)
    ids = np.fromiter(chain.from_iterable(parts), dtype=np.int64, count=total)
    pid = np.repeat(np.arange(num_parts, dtype=np.int64), sizes)
    eu_all, ev_all = graph.endpoint_arrays_np()
    eu = eu_all[ids]
    ev = ev_all[ids]
    sides = np.asarray(bipartition.sides, dtype=np.int8)
    su = sides[eu]
    bad = su == sides[ev]
    if bad.any():
        first = int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"edge {int(ids[first])} = ({int(eu[first])}, {int(ev[first])}) is not "
            f"bichromatic in this bipartition"
        )
    swap = su == 1
    n = graph.num_nodes
    base = pid * n
    keys = np.concatenate((base + np.where(swap, ev, eu), base + np.where(swap, eu, ev)))
    node_keys, compact = np.unique(keys, return_inverse=True)
    ou = compact[:total]
    ov = compact[total:]
    node_pid = node_keys // n
    deg = np.bincount(compact, minlength=node_keys.size)
    dege = deg[ou] + deg[ov] - 2
    bar_delta = np.zeros(num_parts, dtype=np.int64)
    np.maximum.at(bar_delta, pid, dege)
    return PartLayout(
        ids=ids,
        pid=pid,
        ou=ou,
        ov=ov,
        node_graph=node_keys % n,
        node_pid=node_pid,
        deg=deg,
        dege=dege,
        eoff=eoff,
        noff=np.searchsorted(node_pid, np.arange(num_parts + 1)).tolist(),
        bar_delta=bar_delta.tolist(),
    )


@dataclass
class PartOrientations:
    """What :func:`orient_parts` leaves behind, per position and per part.

    Attributes:
        sdir: final signed direction per position (+1 = U→V, −1 = V→U).
        seq: orientation order per position; −1 for the edges the final
            step oriented U→V.
        in_degrees: in-degree per compact node.
        phases: phases executed, per part.
        token_rounds / proposal_rounds: rounds charged to the repair
            games and to the proposal steps, per part.
        final: per part, whether the final U→V step ran (and cost a round).
    """

    sdir: Any
    seq: Any
    in_degrees: Any
    phases: List[int]
    token_rounds: List[int]
    proposal_rounds: List[int]
    final: List[bool]

    def rounds(self, part: int) -> int:
        """Rounds charged to one part."""
        return self.token_rounds[part] + self.proposal_rounds[part] + int(self.final[part])

    def charge(self, part: int, tracker: RoundTracker) -> None:
        """Charge one part's rounds under the reference engine's labels, in its order."""
        if self.token_rounds[part]:
            tracker.charge(self.token_rounds[part], "orientation-token-dropping")
        if self.proposal_rounds[part]:
            tracker.charge(self.proposal_rounds[part], "orientation-proposals")
        if self.final[part]:
            tracker.charge(1, "orientation-final")


def orient_parts(
    layout: PartLayout,
    eta,
    nus: Sequence[float],
    budgets: Sequence[int],
) -> PartOrientations:
    """The batched engine: orient every part of ``layout`` at once.

    ``eta`` holds η_e per position (float64); ``nus`` and ``budgets``
    hold each part's ν and phase budget.  Parts with Δ̄ = 0 are trivial:
    they run no phase and are oriented U→V for free.  Every part's
    orientation, phase count and round charges equal a one-part run of
    the reference engine (see the module docstring).
    """
    np = _np
    ou, ov, pid, dege = layout.ou, layout.ov, layout.pid, layout.dege
    node_pid = layout.node_pid
    eoff, noff, bar = layout.eoff, layout.noff, layout.bar_delta
    num_parts = len(bar)
    num = int(layout.ids.size)
    num_nodes = int(layout.deg.size)

    x = np.zeros(num_nodes, dtype=np.int64)  # in-degrees
    unor = layout.deg.copy()  # node degrees among unoriented part edges
    # Signed direction code: +1 = U→V, −1 = V→U, 0 = unoriented.  The
    # sign folds the two η comparisons of step 5 into one (multiplying
    # an inequality by −1 flips it exactly, for ints and IEEE floats
    # alike).
    sdir = np.zeros(num, dtype=np.int8)
    unoriented = np.ones(num, dtype=bool)
    # Signed η, +inf while unoriented: the step-5 scan collapses to one
    # ``sign·diff > seta`` comparison — unoriented edges compare against
    # +inf and can never flag.
    seta = np.full(num, np.inf, dtype=np.float64)
    seq = np.full(num, -1, dtype=np.int64)  # position in orientation order
    d_minus = np.asarray(bar, dtype=np.int64)[node_pid]
    alpha_memo: Dict[Tuple[float, int, int], int] = {}
    remaining = [eoff[p + 1] - eoff[p] for p in range(num_parts)]
    active_parts = [p for p in range(num_parts) if bar[p] > 0]
    phases = [0] * num_parts
    token_rounds = [0] * num_parts
    proposal_rounds = [0] * num_parts
    # Per part, the current phase's participation limit and accept cap.
    # An edge of degree d participates when d > threshold, i.e. when the
    # sum of its endpoints' unoriented degrees (d + 2) exceeds
    # ⌊threshold⌋ + 2.  A part that is done (or trivial) keeps a limit
    # no edge exceeds.
    never = np.iinfo(np.int64).max
    limits = np.full(num_parts, never, dtype=np.int64)
    caps = np.zeros(num_parts, dtype=np.int64)
    seq_counter = 0
    last_phase = max((budgets[p] for p in active_parts), default=0)
    phase = 1
    while phase <= last_phase:
        live = [p for p in active_parts if remaining[p] and phase <= budgets[p]]
        if not live:
            break
        limits.fill(never)
        for p in live:
            limits[p] = int(_thresholds(nus[p], bar[p], budgets[p])[phase]) + 2

        # Phase-start snapshot: x is only mutated after every read below.
        diff = x[ov] - x[ou]
        # Step 5 input: previously oriented edges violating their η
        # constraint under the phase-start in-degrees, and which parts
        # have any.  Before anything is oriented the scan is vacuous.
        violated = [False] * num_parts
        viol_pos = None
        if seq_counter:
            viol_pos = np.nonzero(sdir * diff > seta)[0]
            if viol_pos.size:
                violated = (np.bincount(pid[viol_pos], minlength=num_parts) > 0).tolist()

        # Steps 1 + 2: participation scan + proposal directions.
        ends_unor = unor[ou] + unor[ov]
        cand = np.nonzero(unoriented & (ends_unor > limits[pid]))[0]
        if not cand.size:
            # No part proposes: skip to the first phase in which one
            # does, replaying every live part's charges on the way.
            alive = np.where(unoriented, ends_unor, 2)
            next_phase = min(
                _next_active_phase(
                    nus[p], bar[p], phase, budgets[p], int(alive[eoff[p]:eoff[p + 1]].max()) - 2
                )
                for p in live
            )
            for p in live:
                stop = min(next_phase, budgets[p] + 1)
                proposal_rounds[p] += 2 * (stop - phase)
                if violated[p]:
                    token_rounds[p] += _idle_game_rounds(nus[p], bar[p], phase, stop)
                phases[p] = stop - 1
            phase = next_phase
            continue

        for p in live:
            phases[p] = phase
            proposal_rounds[p] += 2
            caps[p] = parameters.k_phase(nus[p], bar[p], phase)
        cond = diff[cand] <= eta[cand]
        ptarget = np.where(cond, ov[cand], ou[cand])

        # Step 3: per-node accept cap.  A stable argsort by target node
        # groups each node's proposals while preserving ascending edge
        # order within the group, so cutting each group at rank k_φ
        # reproduces the reference "smallest edge indices first" choice —
        # and concatenating the groups in argsort order reproduces, within
        # each part, the ascending-node accepted order the repair game's
        # inputs depend on.
        order = np.argsort(ptarget, kind="stable")
        tsort = ptarget[order]
        newgrp = np.empty(tsort.size, dtype=bool)
        newgrp[0] = True
        np.not_equal(tsort[1:], tsort[:-1], out=newgrp[1:])
        grp = np.cumsum(newgrp) - 1
        starts = np.nonzero(newgrp)[0]
        group_nodes = tsort[starts]
        group_caps = caps[node_pid[group_nodes]]
        acc_order = order[np.arange(tsort.size) < (starts + group_caps)[grp]]
        acc = cand[acc_order]  # accepted positions, accepted-list order
        acc_sdir = np.where(cond[acc_order], np.int8(1), np.int8(-1))

        # Which parts run a repair game that can move a token: all inputs
        # are phase-start values, so decide now, and snapshot d⁻ (for the
        # phase-start α) only when some game runs.
        shapes: Dict[int, Tuple[int, int, int]] = {}
        games: Set[int] = set()
        for p in live:
            if violated[p]:
                shapes[p] = _game_shape(nus[p], bar[p], phase)
        if any(shape[2] > 0 for shape in shapes.values()):
            capped = np.minimum(np.bincount(grp), group_caps)
            max_accepted = np.zeros(num_parts, dtype=np.int64)
            np.maximum.at(max_accepted, node_pid[group_nodes], capped)
            for p, (k_phi, _delta, game_phases) in shapes.items():
                if game_phases > 0 and min(k_phi, int(max_accepted[p])) >= 2:
                    games.add(p)
        if games:
            d_minus_old = d_minus.copy()
            start_tokens = np.zeros(num_nodes, dtype=np.int64)
            start_tokens[group_nodes] = capped

        # Step 4: orient the accepted edges (bincount scatters — exact
        # integer adds).
        heads = ptarget[acc_order]
        sdir[acc] = acc_sdir
        unoriented[acc] = False
        seta[acc] = acc_sdir * eta[acc]
        seq[acc] = np.arange(seq_counter, seq_counter + acc.size, dtype=np.int64)
        seq_counter += int(acc.size)
        x += np.bincount(heads, minlength=num_nodes)
        ends = np.concatenate((ou[acc], ov[acc]))
        unor -= np.bincount(ends, minlength=num_nodes)
        np.minimum.at(d_minus, ends, np.concatenate((dege[acc], dege[acc])))
        for p, count in enumerate(np.bincount(pid[acc], minlength=num_parts).tolist()):
            remaining[p] -= count

        # Steps 5 + 6: one repair game per part with violated edges.  A
        # game that cannot move a token only costs its rounds: one with
        # zero game phases, or in which no game tail starts active.
        # Tokens only move out of active tails, and a tail's tokens only
        # change when tokens move, so a tail that starts inactive stays
        # inactive (this covers the "fewer than two initial tokens
        # everywhere" case of the reference engine).
        for p, (k_phi, delta_use, game_phases) in shapes.items():
            if p not in games:
                token_rounds[p] += max(1, ROUNDS_PER_PHASE * game_phases)
                continue
            lo, hi = noff[p], noff[p + 1]
            part_viol = viol_pos[
                np.searchsorted(viol_pos, eoff[p]):np.searchsorted(viol_pos, eoff[p + 1])
            ]
            viol_sorted = part_viol[np.argsort(seq[part_viol])]  # orientation order
            vdir = sdir[viol_sorted]
            vtail = np.where(vdir == 1, ou[viol_sorted], ov[viol_sorted])
            vhead = np.where(vdir == 1, ov[viol_sorted], ou[viol_sorted])
            # Phase-start α of the part's nodes, per distinct d⁻ value.
            uniq, inv = np.unique(d_minus_old[lo:hi], return_inverse=True)
            alpha_uniq = np.empty(uniq.size, dtype=np.int64)
            for i, degree in enumerate(uniq.tolist()):
                key = (nus[p], bar[p], degree)
                alpha = alpha_memo.get(key)
                if alpha is None:
                    alpha = parameters.alpha_node(nus[p], bar[p], degree)
                    alpha_memo[key] = alpha
                alpha_uniq[i] = alpha
            alphas = alpha_uniq[inv]
            # The game runs on part-local node ids (same order as the host
            # ids), and its arcs run opposite to the orientation: head ->
            # tail.
            game_tails = vhead - lo
            tokens = start_tokens[lo:hi]
            if not (tokens[game_tails] >= alphas[game_tails] + delta_use).any():
                token_rounds[p] += max(1, ROUNDS_PER_PHASE * game_phases)
                continue
            # Each receiver's in-arcs, ascending (a stable sort by
            # receiver), and every node's game degree.
            receivers = vtail - lo
            by_receiver = np.argsort(receivers, kind="stable")
            grouped = receivers[by_receiver]
            bounds = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
            arcs = by_receiver.tolist()
            in_map = {
                node: arcs[start:stop]
                for node, start, stop in zip(
                    grouped[[0] + bounds].tolist(), [0] + bounds, bounds + [len(arcs)]
                )
            }
            game_deg = np.bincount(np.concatenate((game_tails, receivers)), minlength=hi - lo)
            touched = np.flatnonzero(game_deg)
            _x, _y, moved_arcs, _arc_moves, played = _token_dropping_core(
                n=hi - lo,
                tails=game_tails.tolist(),
                in_map=in_map,
                degrees=dict(zip(touched.tolist(), game_deg[touched].tolist())),
                k=k_phi,
                initial_tokens=tokens.tolist(),
                alphas=alphas.tolist(),
                delta=delta_use,
            )
            token_rounds[p] += max(1, ROUNDS_PER_PHASE * played)

            # Step 7: flip every edge over which a token moved.
            if moved_arcs:
                moved = np.fromiter(moved_arcs, dtype=np.int64, count=len(moved_arcs))
                flip_pos = viol_sorted[moved]
                x -= np.bincount(vhead[moved], minlength=num_nodes)
                x += np.bincount(vtail[moved], minlength=num_nodes)
                sdir[flip_pos] = -sdir[flip_pos]
                seta[flip_pos] = -seta[flip_pos]
        phase += 1

    # Remaining unoriented edges (constant per node, or a trivial part):
    # orient from U to V.
    final = [False] * num_parts
    rest = np.nonzero(unoriented)[0]
    if rest.size:
        x += np.bincount(ov[rest], minlength=num_nodes)
        sdir[rest] = 1
        for p in active_parts:
            final[p] = remaining[p] > 0
    return PartOrientations(
        sdir=sdir,
        seq=seq,
        in_degrees=x,
        phases=phases,
        token_rounds=token_rounds,
        proposal_rounds=proposal_rounds,
        final=final,
    )


def _orient_python(
    graph: Graph,
    edges: List[int],
    static_deg: List[int],
    edge_degrees: Dict[int, int],
    o_u: List[int],
    o_v: List[int],
    eta_arr: List[float],
    bar_delta: int,
    nu: float,
    max_phases: Optional[int],
    tracker: RoundTracker,
) -> Tuple[Dict[int, Tuple[int, int]], List[int], int]:
    """One part on the reference engine: ``(orientation, in_degrees, phases)``."""
    n = graph.num_nodes
    if bar_delta <= 0:
        # Trivial instance: orient everything U -> V.
        orientation = {}
        x = [0] * n
        for e in edges:
            orientation[e] = (o_u[e], o_v[e])
            x[o_v[e]] += 1
        return orientation, x, 0
    return _phase_loop_python(
        graph,
        n,
        edges,
        o_u,
        o_v,
        eta_arr,
        static_deg,
        edge_degrees,
        bar_delta,
        nu,
        phase_budget(nu, bar_delta, max_phases),
        tracker,
    )


def compute_balanced_orientation(
    graph: Graph,
    bipartition: Bipartition,
    eta: Dict[int, float],
    epsilon: float,
    edge_set: Optional[Iterable[int]] = None,
    nu: Optional[float] = None,
    tracker: Optional[RoundTracker] = None,
    max_phases: Optional[int] = None,
    scan_path: str = "auto",
) -> BalancedOrientationResult:
    """Compute a generalized balanced edge orientation (Theorem 5.6).

    A one-part run of the batched engine (:func:`orient_parts`).

    Args:
        graph: the host graph.
        bipartition: 2-coloring of the nodes; every edge of the instance
            must be bichromatic.
        eta: per-edge thresholds η_e (Definition 5.2), keyed by edge index.
        epsilon: target slack ε of the orientation; ν defaults to ε/8.
        edge_set: the instance's edges (defaults to all edges of ``graph``).
        nu: optional override of the phase parameter ν (clamped to (0, 1/8]).
        tracker: optional round tracker.
        max_phases: optional cap on the number of orientation phases
            (defaults to the analytic O(log Δ̄ / ν) phase count).
        scan_path: ``"auto"`` (the batched engine when numpy is available
            — overridable via the ``REPRO_SCAN_PATH`` environment
            variable — the reference engine otherwise), ``"numpy"`` (force
            the batched engine; raises ``RuntimeError`` when numpy is
            unavailable) or ``"python"`` (force the pure-python reference
            engine).  Both are required to produce bit-identical results
            — the knob exists so tests can cross-check them.

    Returns a :class:`BalancedOrientationResult` covering every edge of
    the instance.
    """
    local_tracker = RoundTracker()
    n = graph.num_nodes
    edges = sorted(set(edge_set)) if edge_set is not None else list(graph.edges())

    if resolve_use_numpy(scan_path):
        np = _np
        layout = segment_parts(graph, bipartition, [edges])
        bar_delta = layout.bar_delta[0]
        edge_degrees = dict(zip(edges, layout.dege.tolist()))
        resolved_nu = resolve_nu(nu, epsilon) if bar_delta > 0 else 0.0
        if bar_delta > 0:
            eta_np = np.fromiter((eta[e] for e in edges), dtype=np.float64, count=len(edges))
        else:
            eta_np = np.zeros(len(edges), dtype=np.float64)
        run = orient_parts(
            layout,
            eta_np,
            [resolved_nu],
            [phase_budget(resolved_nu, bar_delta, max_phases) if bar_delta > 0 else 0],
        )
        run.charge(0, local_tracker)
        phases_run = run.phases[0]
        # The reference engine's insertion order: oriented edges in
        # orientation order, then the edges the final step oriented U→V,
        # ascending.
        host_u = layout.node_graph[layout.ou]
        host_v = layout.node_graph[layout.ov]
        positions = np.nonzero(run.seq >= 0)[0]
        positions = np.concatenate(
            (positions[np.argsort(run.seq[positions])], np.nonzero(run.seq < 0)[0])
        )
        orientation: Dict[int, Tuple[int, int]] = {}
        for e, d, a, b in zip(
            layout.ids[positions].tolist(),
            run.sdir[positions].tolist(),
            host_u[positions].tolist(),
            host_v[positions].tolist(),
        ):
            orientation[e] = (a, b) if d == 1 else (b, a)
        in_degrees = np.zeros(n, dtype=np.int64)
        in_degrees[layout.node_graph] = run.in_degrees
        x = in_degrees.tolist()
    else:
        static_deg, edge_degrees, o_u, o_v = instance_arrays(graph, bipartition, edges)
        bar_delta = max(edge_degrees.values(), default=0)
        resolved_nu = resolve_nu(nu, epsilon) if bar_delta > 0 else 0.0
        eta_arr = [0.0] * graph.num_edges
        if bar_delta > 0:
            for e in edges:
                eta_arr[e] = eta[e]
        orientation, x, phases_run = _orient_python(
            graph,
            edges,
            static_deg,
            edge_degrees,
            o_u,
            o_v,
            eta_arr,
            bar_delta,
            resolved_nu,
            max_phases,
            local_tracker,
        )

    if tracker is not None:
        tracker.merge(local_tracker)
    return BalancedOrientationResult(
        orientation=orientation,
        in_degrees=x,
        phases=phases_run,
        rounds=local_tracker.total,
        nu=resolved_nu,
        bar_delta=bar_delta,
        edge_degrees=edge_degrees,
    )
