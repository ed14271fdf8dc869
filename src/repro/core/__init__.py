"""Picasso core (paper §IV): the primary contribution.

Algorithm 1 (:class:`Picasso`), palette/list assignment, conflict-graph
construction, Algorithm 2 list coloring, and the Lemma 2 analysis
helpers.
"""

from repro.core.analysis import (
    expected_conflict_degree,
    expected_conflict_edges,
    list_share_probability,
    predict_coo_bytes,
    share_probability_upper_bound,
    sublinear_space_bound,
)
from repro.coloring import (
    greedy_list_color_dynamic,
    greedy_list_color_static,
)
from repro.core.conflict import build_conflict_graph, count_conflict_edges
from repro.core.palette import assign_color_lists, lists_nbytes
from repro.core.params import PicassoParams, aggressive_params, normal_params
from repro.core.partition import (
    UnitaryGroup,
    UnitaryPartition,
    partition_from_coloring,
    verify_unitarity,
)
from repro.core.picasso import (
    IterationStats,
    Picasso,
    PicassoNonConvergence,
    PicassoResult,
    picasso_color,
)
from repro.core.sources import ExplicitGraphSource, PauliComplementSource

__all__ = [
    "expected_conflict_degree",
    "expected_conflict_edges",
    "list_share_probability",
    "predict_coo_bytes",
    "share_probability_upper_bound",
    "sublinear_space_bound",
    "build_conflict_graph",
    "count_conflict_edges",
    "greedy_list_color_dynamic",
    "greedy_list_color_static",
    "assign_color_lists",
    "lists_nbytes",
    "PicassoParams",
    "aggressive_params",
    "normal_params",
    "UnitaryGroup",
    "UnitaryPartition",
    "partition_from_coloring",
    "verify_unitarity",
    "IterationStats",
    "PicassoNonConvergence",
    "Picasso",
    "PicassoResult",
    "picasso_color",
    "ExplicitGraphSource",
    "PauliComplementSource",
]
