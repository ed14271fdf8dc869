"""The naive conflict-graph reference of the differential tests.

Every pair ``i < j`` comes from ``np.triu_indices``, the palette test
intersects the two candidate lists as Python sets, and the source's
``edge_mask`` decides the survivors; rows are ordered with
``np.lexsort``.  It shares no enumeration, bitset, kernel or CSR
assembly code with the library, so a sweep plan that agrees with it
agrees with the definition of a conflict edge.  :func:`reference_coloring`
runs Picasso end to end on it.
"""

import numpy as np
import pytest

from repro.core.params import PicassoParams
from repro.graphs.csr import CSRGraph, index_dtype


def naive_conflict_csr(n, edge_mask_fn, col_lists) -> tuple[CSRGraph, int]:
    """``(graph, n_conflict_edges)`` of the conflict graph over ``n``
    vertices: the pairs that are edges of ``edge_mask_fn`` and whose
    candidate lists (rows of ``col_lists``) share a color.  Rows are in
    :class:`CSRGraph`'s canonical order: neighbours above the vertex
    ascending, then neighbours below it ascending."""
    sets = [set(row.tolist()) for row in np.asarray(col_lists)]
    i, j = np.triu_indices(n, k=1)
    share = np.array(
        [bool(sets[a] & sets[b]) for a, b in zip(i.tolist(), j.tolist())],
        dtype=bool,
    )
    i, j = i[share], j[share]
    if len(i):
        edge = np.asarray(edge_mask_fn(i, j)).astype(bool)
        i, j = i[edge], j[edge]
    row = np.concatenate([i, j])
    nbr = np.concatenate([j, i])
    order = np.lexsort((nbr, nbr < row, row))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=offsets[1:])
    graph = CSRGraph(offsets=offsets, targets=nbr[order].astype(index_dtype(n)))
    return graph, len(i)


def _naive_graph(n, edge_mask_fn, col_lists, palette_size, *args, **kwargs):
    """:func:`naive_conflict_csr` in the driver's host builder signature."""
    return naive_conflict_csr(n, edge_mask_fn, col_lists)


def reference_coloring(inp, seed, **params):
    """The end-to-end reference run: Picasso with the ``sets`` color
    engine, every host conflict build swapped for
    :func:`naive_conflict_csr`."""
    import repro.core.picasso as picasso

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(picasso, "build_conflict_graph", _naive_graph)
        return picasso.Picasso(
            PicassoParams(color_engine="sets", **params), seed=seed
        ).color(inp)
