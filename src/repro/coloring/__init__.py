"""The coloring layer: the engine subsystem plus whole-graph baselines.

Two families live here:

- **List-coloring engines** (the paper's Algorithm 2 and its parallel
  analog) behind the :mod:`repro.coloring.engine` registry —
  ``greedy-dynamic`` / ``sets`` / ``greedy-static`` /
  ``parallel-list`` — selected by the Picasso driver via
  ``PicassoParams(color_engine=...)``.  Serial machinery in
  :mod:`repro.coloring.greedy_list`, the round-synchronous engine in
  :mod:`repro.coloring.parallel_list`.  Every engine colors in the
  calling process; executors shard only the conflict sweeps.
- **Whole-graph baselines** (paper §III, §VII comparisons):
  :func:`greedy_coloring` (the ColPack analog),
  :func:`jones_plassmann_ldf` (ECL-GC-R),
  :func:`speculative_coloring` (Kokkos-EB), Luby MIS and iterated
  greedy.  All need the explicit graph in memory; their ``peak_bytes``
  expose the Table IV accounting.

Every result carries uniform provenance (``engine``, ``n_rounds``,
``peak_bytes``) so memory and round-count comparisons are
like-for-like.
"""

from repro.coloring.base import ColoringResult, smallest_available_color
from repro.coloring.engine import (
    ListColoringEngine,
    ListColoringOutcome,
    available_engines,
    get_engine,
    register_engine,
)
from repro.coloring.greedy import greedy_coloring
from repro.coloring.greedy_list import (
    greedy_list_color_dynamic,
    greedy_list_color_dynamic_sets,
    greedy_list_color_static,
)
from repro.coloring.jones_plassmann import jones_plassmann_ldf
from repro.coloring.ordering import (
    ALL_ORDERS,
    DYNAMIC_ORDERS,
    STATIC_ORDERS,
    degeneracy,
    largest_first_order,
    natural_order,
    random_order,
    smallest_last_order,
    static_order,
)
from repro.coloring.luby import luby_coloring, luby_mis
from repro.coloring.parallel_list import parallel_list_color
from repro.coloring.recolor import iterated_greedy
from repro.coloring.speculative import speculative_coloring

__all__ = [
    "ColoringResult",
    "smallest_available_color",
    "ListColoringEngine",
    "ListColoringOutcome",
    "available_engines",
    "get_engine",
    "register_engine",
    "greedy_coloring",
    "greedy_list_color_dynamic",
    "greedy_list_color_dynamic_sets",
    "greedy_list_color_static",
    "parallel_list_color",
    "jones_plassmann_ldf",
    "ALL_ORDERS",
    "DYNAMIC_ORDERS",
    "STATIC_ORDERS",
    "degeneracy",
    "largest_first_order",
    "natural_order",
    "random_order",
    "smallest_last_order",
    "static_order",
    "speculative_coloring",
    "luby_coloring",
    "luby_mis",
    "iterated_greedy",
]
