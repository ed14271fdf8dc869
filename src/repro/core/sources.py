"""Edge sources: where the graph being colored comes from.

Picasso never materializes its input graph.  A *source* answers one
question — "is ``(i, j)`` an edge of the graph I should color?" — over
vectorized pair-index arrays, and exposes the subset operation the
iterative driver needs (Algorithm 1 line 11).

Two sources cover the paper's settings:

- :class:`PauliComplementSource` — the quantum-computing application:
  vertices are Pauli strings; the colored graph is the *complement* of
  the anticommutation graph, derived on the fly from the 3-bit encoding
  (§IV-A).  This is the memory-efficient streaming path.
- :class:`ExplicitGraphSource` — the generalized setting: any
  :class:`CSRGraph` (§I's "can be used in a generalized graph setting").
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.pauli.strings import PauliSet


class PauliComplementSource:
    """Stream complement ("commute") edges of a Pauli set's graph."""

    def __init__(self, pauli_set: PauliSet, kernel: str = "iooh") -> None:
        self.pauli_set = pauli_set
        self._oracle = pauli_set.oracle(kernel)

    @property
    def n(self) -> int:
        return self.pauli_set.n

    def edge_mask(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """1 where (i, j) is an edge of the graph to color (= commuting
        distinct Pauli pairs)."""
        return self._oracle.commute_edges(i, j)

    def edge_block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Block form of :meth:`edge_mask` for the row-strip sweep: one
        word-broadcast over the encoded payload, no row gather.  Only
        strict upper-triangle entries are meaningful."""
        return self._oracle.commute_block(r0, r1, c0, c1)

    def subset(self, idx: np.ndarray) -> "PauliComplementSource":
        """Source induced by the uncolored vertices (new local ids)."""
        return PauliComplementSource(
            self.pauli_set.subset(idx), kernel=self._oracle.kernel
        )

    @property
    def nbytes(self) -> int:
        """Resident bytes: the encoded Pauli payload only — no graph."""
        return self.pauli_set.nbytes + self._oracle.nbytes

    def validate(self, colors: np.ndarray, sample_pairs: int | None = None) -> bool:
        """Check coloring properness against the streamed edges.

        ``sample_pairs`` limits verification to a random subsample for
        large inputs; ``None`` checks every pair.
        """
        from repro.util.chunking import iter_pair_chunks, num_pairs, pair_index_to_ij
        from repro.util.rng import as_generator

        colors = np.asarray(colors)
        if sample_pairs is not None and sample_pairs < num_pairs(self.n):
            rng = as_generator(0)
            k = rng.choice(num_pairs(self.n), size=sample_pairs, replace=False)
            i, j = pair_index_to_ij(np.sort(k), self.n)
            bad = (colors[i] == colors[j]) & self.edge_mask(i, j).astype(bool)
            return not bad.any() and (colors >= 0).all()
        for i, j in iter_pair_chunks(self.n, 1 << 18):
            bad = (colors[i] == colors[j]) & self.edge_mask(i, j).astype(bool)
            if bad.any():
                return False
        return bool((colors >= 0).all())


class ExplicitGraphSource:
    """Color an explicit :class:`CSRGraph` (generalized setting).

    Edge queries are vectorized binary searches over one global sorted
    key array ``row * n + target``, built on the first :meth:`edge_mask`
    call: block queries scatter the CSR rows and need no keys, and a
    ``greedy-dynamic`` run asks neither.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self._keys: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.graph.n_vertices

    def edge_mask(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Vectorized membership test of ``j`` in ``adj(i)``."""
        if self._keys is None:
            src = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self.graph.offsets)
            )
            self._keys = np.sort(src * self.n + self.graph.targets)
        q = np.asarray(i, dtype=np.int64) * self.n + np.asarray(j, dtype=np.int64)
        if len(self._keys) == 0:
            return np.zeros(len(q), dtype=np.uint8)
        pos = np.searchsorted(self._keys, q)
        pos[pos == len(self._keys)] = 0
        return (self._keys[pos] == q).astype(np.uint8)

    def edge_block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Dense adjacency block ``(r1-r0, c1-c0)`` as uint8.

        Scatters the CSR rows of the block's vertices into a zeroed
        block — O(arcs incident to the row range) per block, fully
        vectorized (no per-pair membership search).
        """
        offsets = self.graph.offsets
        lo, hi = int(offsets[r0]), int(offsets[r1])
        src = np.repeat(np.arange(r0, r1), np.diff(offsets[r0 : r1 + 1]))
        tgt = self.graph.targets[lo:hi]
        sel = (tgt >= c0) & (tgt < c1)
        block = np.zeros((r1 - r0, c1 - c0), dtype=np.uint8)
        block[src[sel] - r0, tgt[sel] - c0] = 1
        return block

    def subset(self, idx: np.ndarray) -> "ExplicitGraphSource":
        from repro.graphs.ops import induced_subgraph

        sub, _ = induced_subgraph(self.graph, idx)
        return ExplicitGraphSource(sub)

    @property
    def nbytes(self) -> int:
        """Explicit sources pay for the whole graph (baseline regime),
        plus the edge-query keys once built."""
        keys = 0 if self._keys is None else self._keys.nbytes
        return int(self.graph.nbytes + keys)

    def validate(self, colors: np.ndarray, sample_pairs: int | None = None) -> bool:
        return self.graph.validate_coloring(np.asarray(colors))
