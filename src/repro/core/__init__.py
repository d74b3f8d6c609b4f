"""The paper's contribution: token dropping, balanced orientations, edge colorings."""

from repro.core import parameters
from repro.core.token_dropping import TokenDroppingGame, TokenDroppingResult, run_token_dropping
from repro.core.balanced_orientation import (
    BalancedOrientationResult,
    compute_balanced_orientation,
)
from repro.core.defective_edge_coloring import (
    DefectiveTwoColoringResult,
    PartSplit,
    SplitPart,
    defective_two_edge_coloring_level,
    eta_from_lambda,
    generalized_defective_two_edge_coloring,
)
from repro.core.slack import ListEdgeColoringInstance, degree_plus_one_instance, uniform_instance
from repro.core.bipartite_coloring import BipartiteColoringResult, bipartite_edge_coloring
from repro.core.congest_coloring import CongestColoringResult, congest_edge_coloring
from repro.core.list_edge_coloring import (
    ListColoringResult,
    list_edge_coloring,
    solve_relaxed_instance,
)

__all__ = [
    "parameters",
    "TokenDroppingGame",
    "TokenDroppingResult",
    "run_token_dropping",
    "BalancedOrientationResult",
    "compute_balanced_orientation",
    "DefectiveTwoColoringResult",
    "PartSplit",
    "SplitPart",
    "defective_two_edge_coloring_level",
    "eta_from_lambda",
    "generalized_defective_two_edge_coloring",
    "ListEdgeColoringInstance",
    "degree_plus_one_instance",
    "uniform_instance",
    "BipartiteColoringResult",
    "bipartite_edge_coloring",
    "CongestColoringResult",
    "congest_edge_coloring",
    "ListColoringResult",
    "list_edge_coloring",
    "solve_relaxed_instance",
]
