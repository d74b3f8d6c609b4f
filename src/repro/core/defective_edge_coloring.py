"""Generalized defective 2-edge coloring (Section 5).

Definition 5.1: given per-edge parameters λ_e ∈ [0, 1], color every edge
red or blue such that a red edge has at most ``(1+ε)·λ_e·deg(e) + λ_e·β``
red neighbors and a blue edge at most ``(1+ε)·(1−λ_e)·deg(e) + (1−λ_e)·β``
blue neighbors.

Lemma 5.3 reduces the problem (on 2-colored bipartite graphs) to a
generalized balanced edge orientation with thresholds ``η_e`` given by
Equation (3); edges oriented U→V become red and edges oriented V→U become
blue.  Corollary 5.7 plugs in the orientation algorithm of Theorem 5.6.

The recursive algorithms of Sections 6 and 7 split many edge-disjoint
parts per recursion level, and in the distributed model those splits run
in parallel.  :func:`defective_two_edge_coloring_level` does the same: it
takes every part of one level, computes η for all of them at once and
hands them to the batched orientation engine
(:func:`repro.core.balanced_orientation.orient_parts`) in one call; with
``scan_path="python"`` it runs the pure-python reference engine part by
part instead.  :func:`generalized_defective_two_edge_coloring` is the
one-part public entry, with the full result object, and
:func:`eta_from_lambda` the reduction itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.balanced_orientation import (
    BalancedOrientationResult,
    compute_balanced_orientation,
    instance_arrays,
    orient_parts,
    phase_budget,
    resolve_nu,
    segment_parts,
)
from repro.core.engine import _np, resolve_use_numpy
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import Bipartition
from repro.graphs.core import Graph

RED = 0
BLUE = 1


def eta_from_lambda(
    lambda_e: float,
    deg_u: int,
    deg_v: int,
    deg_e: int,
    epsilon: float,
    beta: float,
) -> float:
    """The threshold η_e of Equation (3).

    ``deg_u`` / ``deg_v`` are the degrees of the U-side / V-side endpoint
    within the instance, ``deg_e = deg_u + deg_v − 2`` the edge degree.
    """
    return (
        1.0
        - 2.0 * lambda_e
        - (1.0 - lambda_e) * deg_u
        + lambda_e * deg_v
        + epsilon * (lambda_e - 0.5) * deg_e
        + (2.0 * lambda_e - 1.0) * beta
    )


class DefectiveTwoColoringResult:
    """Outcome of a generalized defective 2-edge coloring.

    Attributes:
        colors: per edge, ``RED`` (0) or ``BLUE`` (1).
        red_edges / blue_edges: the two color classes.
        defects: measured number of same-colored neighboring edges, per
            edge (computed lazily on first access — the recursive
            splitting algorithms only consume the two color classes).
        orientation: the underlying balanced orientation.
        epsilon / beta: the parameters the run used (β is the additive
            slack used when computing η; the *guarantee* of Lemma 5.3 is
            with 2β).
        rounds: communication rounds charged.
    """

    def __init__(
        self,
        colors: Dict[int, int],
        red_edges: Set[int],
        blue_edges: Set[int],
        orientation: BalancedOrientationResult,
        epsilon: float,
        beta: float,
        rounds: int,
        lambdas: Optional[Dict[int, float]] = None,
        edge_degrees: Optional[Dict[int, int]] = None,
        defects: Optional[Dict[int, int]] = None,
        _graph: Optional[Graph] = None,
    ) -> None:
        self.colors = colors
        self.red_edges = red_edges
        self.blue_edges = blue_edges
        self.orientation = orientation
        self.epsilon = epsilon
        self.beta = beta
        self.rounds = rounds
        self.lambdas = lambdas if lambdas is not None else {}
        self.edge_degrees = edge_degrees if edge_degrees is not None else {}
        self._defects = defects
        self._measure_graph = _graph
        self._red_sorted: Optional[List[int]] = None
        self._blue_sorted: Optional[List[int]] = None

    def red_sorted(self) -> List[int]:
        """The red class as an ascending list (cached; the recursive
        splitting callers all consume the classes sorted)."""
        if self._red_sorted is None:
            self._red_sorted = sorted(self.red_edges)
        return self._red_sorted

    def blue_sorted(self) -> List[int]:
        """The blue class as an ascending list (cached)."""
        if self._blue_sorted is None:
            self._blue_sorted = sorted(self.blue_edges)
        return self._blue_sorted

    @property
    def defects(self) -> Dict[int, int]:
        """Measured same-colored neighbor counts, keyed by edge."""
        if self._defects is None:
            if self._measure_graph is None:
                raise ValueError("defects were not supplied and no graph is attached")
            self._defects = measure_defects(
                self._measure_graph, self.colors, self.colors.keys()
            )
        return self._defects

    def defect_bound(self, e: int, beta: Optional[float] = None) -> float:
        """The Definition 5.1 bound for edge ``e`` (with slack 2β as in Lemma 5.3)."""
        bound_beta = 2.0 * self.beta if beta is None else beta
        lam = self.lambdas[e]
        deg = self.edge_degrees[e]
        if self.colors[e] == RED:
            return (1.0 + self.epsilon) * lam * deg + lam * bound_beta
        return (1.0 + self.epsilon) * (1.0 - lam) * deg + (1.0 - lam) * bound_beta

    def violations(self, beta: Optional[float] = None) -> List[Tuple[int, int, float]]:
        """Edges whose measured defect exceeds the Definition 5.1 bound."""
        result = []
        for e, defect in self.defects.items():
            bound = self.defect_bound(e, beta=beta)
            if defect > bound + 1e-9:
                result.append((e, defect, bound))
        return result

    def max_defect(self) -> int:
        """The largest measured defect."""
        return max(self.defects.values(), default=0)


def generalized_defective_two_edge_coloring(
    graph: Graph,
    bipartition: Bipartition,
    lambdas: Dict[int, float],
    epsilon: float,
    edge_set: Optional[Iterable[int]] = None,
    beta: Optional[float] = None,
    nu: Optional[float] = None,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
) -> DefectiveTwoColoringResult:
    """Solve the generalized (1+ε, 2β)-relaxed defective 2-edge coloring (Corollary 5.7).

    The one-part entry: the same coloring and rounds as one part of
    :func:`defective_two_edge_coloring_level`, plus the orientation and
    the inputs the Definition 5.1 checks need.

    Args:
        graph: the host graph.
        bipartition: 2-coloring of the nodes; all instance edges must cross it.
        lambdas: per-edge λ_e ∈ [0, 1].
        epsilon: the ε of Definition 5.1.
        edge_set: the instance's edges (defaults to all edges).
        beta: additive slack used in Equation (3); defaults to 0 (the
            practical override — see ``repro.core.parameters``); the
            analytic value is ``beta_theoretical(ε, Δ̄)``.
        nu: optional override of the orientation's phase parameter.
        tracker: optional round tracker.
        scan_path: forwarded to :func:`repro.core.balanced_orientation.
            compute_balanced_orientation` (``"auto"`` / ``"numpy"`` /
            ``"python"``; both forced engines are bit-identical).
    """
    edges: List[int] = sorted(set(edge_set)) if edge_set is not None else list(graph.edges())
    local_tracker = RoundTracker()
    resolved_beta = 0.0 if beta is None else float(beta)

    node_deg, edge_degrees, o_u, o_v = instance_arrays(graph, bipartition, edges)
    eta = {
        e: eta_from_lambda(
            lambdas[e],
            node_deg[o_u[e]],
            node_deg[o_v[e]],
            edge_degrees[e],
            epsilon,
            resolved_beta,
        )
        for e in edges
    }
    orientation = compute_balanced_orientation(
        graph,
        bipartition,
        eta,
        epsilon=epsilon,
        edge_set=edges,
        nu=nu,
        tracker=local_tracker,
        scan_path=scan_path,
    )

    # U→V is RED, V→U is BLUE; the classes come out ascending.
    colors: Dict[int, int] = {}
    red_list: List[int] = []
    blue_list: List[int] = []
    arrows = orientation.orientation
    for e in edges:
        if arrows[e][0] == o_u[e]:
            colors[e] = RED
            red_list.append(e)
        else:
            colors[e] = BLUE
            blue_list.append(e)

    local_tracker.charge(1, "defective-2-coloring-output")
    if tracker is not None:
        tracker.merge(local_tracker)

    result = DefectiveTwoColoringResult(
        colors=colors,
        red_edges=set(red_list),
        blue_edges=set(blue_list),
        orientation=orientation,
        epsilon=epsilon,
        beta=resolved_beta,
        rounds=local_tracker.total,
        lambdas=dict(lambdas),
        edge_degrees=edge_degrees,
        _graph=graph,
    )
    result._red_sorted = red_list
    result._blue_sorted = blue_list
    return result


@dataclass
class SplitPart:
    """One edge-disjoint part of a level split, with its Definition 5.1 parameters.

    Attributes:
        edges: the part's edges, ascending.
        lambdas: λ_e per edge (aligned with ``edges``), or one λ for all.
        epsilon: the ε of Definition 5.1 (and of ν = ε/8 when ``nu`` is None).
        beta: the additive slack of Equation (3).
        nu: optional override of the orientation's phase parameter.
    """

    edges: List[int]
    lambdas: Union[float, Sequence[float]]
    epsilon: float
    beta: float
    nu: Optional[float] = None


@dataclass
class PartSplit:
    """The red/blue split of one part.

    Attributes:
        red / blue: the two color classes, ascending.
        red_degrees / blue_degrees: per edge of the class (aligned), its
            degree within its class — its measured defect, and the edge
            degree a recursion on the class starts from.
        rounds: rounds the part's split costs.
    """

    red: List[int]
    blue: List[int]
    red_degrees: List[int]
    blue_degrees: List[int]
    rounds: int


def defective_two_edge_coloring_level(
    graph: Graph,
    bipartition: Bipartition,
    parts: Sequence[SplitPart],
    scan_path: str = "auto",
) -> List[PartSplit]:
    """Split every edge-disjoint part of one recursion level red/blue (Corollary 5.7).

    Each part is colored exactly as a
    :func:`generalized_defective_two_edge_coloring` call on it alone
    would color it, and its ``rounds`` equal that call's.  The parts run
    in parallel in the distributed model, so a level costs the maximum
    over its parts; the caller charges it.

    ``scan_path`` selects the engine: ``"auto"`` / ``"numpy"`` run all
    parts through the batched orientation engine at once, ``"python"``
    runs the reference engine part by part.
    """
    if not parts:
        return []
    if not resolve_use_numpy(scan_path):
        splits = []
        for part in parts:
            lambdas = part.lambdas
            if isinstance(lambdas, (int, float)):
                lambdas = [lambdas] * len(part.edges)
            result = generalized_defective_two_edge_coloring(
                graph,
                bipartition,
                dict(zip(part.edges, lambdas)),
                epsilon=part.epsilon,
                edge_set=part.edges,
                beta=part.beta,
                nu=part.nu,
                scan_path="python",
            )
            red, blue = result.red_sorted(), result.blue_sorted()
            defects = measure_defects(graph, result.colors, part.edges, scan_path="python")
            splits.append(
                PartSplit(
                    red=red,
                    blue=blue,
                    red_degrees=[defects[e] for e in red],
                    blue_degrees=[defects[e] for e in blue],
                    rounds=result.rounds,
                )
            )
        return splits

    np = _np
    layout = segment_parts(graph, bipartition, [part.edges for part in parts])
    sizes = [len(part.edges) for part in parts]
    lam = np.concatenate(
        [
            np.full(size, part.lambdas, dtype=np.float64)
            if isinstance(part.lambdas, (int, float))
            else np.asarray(part.lambdas, dtype=np.float64)
            for part, size in zip(parts, sizes)
        ]
    )
    epsilon = np.repeat(np.asarray([part.epsilon for part in parts], dtype=np.float64), sizes)
    beta = np.repeat(np.asarray([float(part.beta) for part in parts], dtype=np.float64), sizes)
    deg, ou, ov = layout.deg, layout.ou, layout.ov
    # Equation (3) elementwise, in the scalar expression's exact order
    # (so the η values are IEEE-identical to :func:`eta_from_lambda`).
    eta = (
        1.0
        - 2.0 * lam
        - (1.0 - lam) * deg[ou]
        + lam * deg[ov]
        + epsilon * (lam - 0.5) * layout.dege
        + (2.0 * lam - 1.0) * beta
    )
    nus = []
    budgets = []
    for part, bar_delta in zip(parts, layout.bar_delta):
        if bar_delta > 0:
            nu = resolve_nu(part.nu, part.epsilon)
            nus.append(nu)
            budgets.append(phase_budget(nu, bar_delta))
        else:
            nus.append(0.0)
            budgets.append(0)
    run = orient_parts(layout, eta, nus, budgets)

    # U→V is RED.  Every edge is red or blue, so the blue degree of a
    # node is its part degree minus its red degree.
    red_mask = run.sdir == 1
    red_deg = np.bincount(
        np.concatenate((ou[red_mask], ov[red_mask])), minlength=deg.size
    )
    blue_deg = deg - red_deg
    class_deg = np.where(red_mask, red_deg[ou] + red_deg[ov], blue_deg[ou] + blue_deg[ov]) - 2
    splits = []
    for p in range(len(parts)):
        lo, hi = layout.eoff[p], layout.eoff[p + 1]
        ids = layout.ids[lo:hi]
        red_part = red_mask[lo:hi]
        blue_part = ~red_part
        degrees = class_deg[lo:hi]
        splits.append(
            PartSplit(
                red=ids[red_part].tolist(),
                blue=ids[blue_part].tolist(),
                red_degrees=degrees[red_part].tolist(),
                blue_degrees=degrees[blue_part].tolist(),
                rounds=run.rounds(p) + 1,  # + the output round
            )
        )
    return splits


def measure_defects(
    graph: Graph,
    colors: Dict[int, int],
    edges: Iterable[int],
    scan_path: str = "auto",
) -> Dict[int, int]:
    """Number of same-colored neighboring edges for every edge of the instance.

    ``scan_path`` selects the counting engine like every other knob of
    this family (``"auto"`` / ``"numpy"`` / ``"python"``; bit-identical
    results — the lazily computed ``DefectiveTwoColoringResult.defects``
    uses ``"auto"``, steerable via ``REPRO_SCAN_PATH``).
    """
    edge_list = list(edges)
    if resolve_use_numpy(scan_path, len(edge_list)):
        # Vectorized (node, color) counting: color values are factorized
        # through np.unique, so any int color space works; counts and
        # defects are plain int arithmetic either way (bit-identical).
        np = _np
        ids = np.fromiter(edge_list, dtype=np.int64, count=len(edge_list))
        edge_u_np, edge_v_np = graph.endpoint_arrays_np()
        cvals = np.fromiter(
            (colors[e] for e in edge_list), dtype=np.int64, count=len(edge_list)
        )
        _uniq, code = np.unique(cvals, return_inverse=True)
        num_codes = int(_uniq.size)
        # The bincount below is O(n · distinct colors); that is only a
        # win for the few-color inputs the defective splits produce
        # (RED/BLUE).  Near-injective colorings fall through to the
        # O(m) dict counter.
        if num_codes * graph.num_nodes <= max(4096, 8 * len(edge_list)):
            eu = edge_u_np[ids]
            ev = edge_v_np[ids]
            keys = np.concatenate((eu, ev)) * num_codes + np.concatenate((code, code))
            counts = np.bincount(keys)
            per_edge = counts[eu * num_codes + code] + counts[ev * num_codes + code] - 2
            return dict(zip(edge_list, per_edge.tolist()))
    # Count per (node, color) to avoid quadratic scans.
    per_node_color: Dict[Tuple[int, int], int] = {}
    edge_u, edge_v = graph.endpoint_arrays()
    for e in edge_list:
        c = colors[e]
        ku = (edge_u[e], c)
        kv = (edge_v[e], c)
        per_node_color[ku] = per_node_color.get(ku, 0) + 1
        per_node_color[kv] = per_node_color.get(kv, 0) + 1
    defects: Dict[int, int] = {}
    for e in edge_list:
        c = colors[e]
        defects[e] = (
            per_node_color[(edge_u[e], c)] + per_node_color[(edge_v[e], c)] - 2
        )
    return defects


def half_split_lambdas(edges: Iterable[int]) -> Dict[int, float]:
    """λ_e = 1/2 for every edge (the plain degree-splitting case of Section 6)."""
    return {e: 0.5 for e in edges}


def list_driven_lambdas(
    lists: Dict[int, Sequence[int]],
    left_colors: Set[int],
    edges: Iterable[int],
) -> Dict[int, float]:
    """λ_e = |L_e ∩ left| / |L_e| as in Section 7 / Lemma D.1."""
    lambdas = {}
    for e in edges:
        colors = lists[e]
        if not colors:
            lambdas[e] = 0.5
            continue
        in_left = sum(1 for c in colors if c in left_colors)
        lambdas[e] = in_left / len(colors)
    return lambdas
