"""The in-RAM arrays behind :class:`~repro.graph.graph.Graph`.

:class:`ArrayStorage` holds the canonical edge array (deduplicated, ``u < v``,
lexicographically sorted), the CSR adjacency (offsets + neighbour array) and
the optional node labels.  A :class:`~repro.graph.graph.Graph` delegates to
it, so a second ``Graph`` over the same storage (the walk engine's) shares
the buffers instead of copying them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ArrayStorage:
    """The in-RAM representation behind :class:`Graph`.

    Constructed either from already-canonical arrays or, via
    :meth:`from_edge_array`, from a raw (validated) edge array using exactly
    the radix-sort canonicalisation the :class:`Graph` constructor always
    performed — same code, same bytes.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: np.ndarray,
        csr_offsets: np.ndarray,
        csr_neighbours: np.ndarray,
        degrees: np.ndarray,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> None:
        self._num_nodes = int(num_nodes)
        self._name = str(name)
        self._edges = edges
        self._offsets = csr_offsets
        self._neighbours = csr_neighbours
        self._degrees = degrees
        self._labels = labels
        # Freeze the shared buffers: `edges`, `degrees` and neighbour slices
        # expose views of these arrays, and a caller silently writing through
        # a view would corrupt the adjacency for everyone else.
        for arr in (edges, csr_offsets, csr_neighbours, degrees):
            arr.flags.writeable = False

    @classmethod
    def from_edge_array(
        cls,
        num_nodes: int,
        edge_arr: np.ndarray,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> "ArrayStorage":
        """Canonicalise a validated ``(k, 2)`` int64 edge array and build CSR.

        Dedup + canonical (u < v, lexicographically sorted) ordering in one
        shot: encode each undirected edge as ``lo * num_nodes + hi``,
        radix-sort the keys (``kind="stable"`` selects radix sort for integer
        dtypes, ~4x faster than ``np.unique``'s default sort) and drop
        consecutive duplicates.  int64 keys are exact for num_nodes < ~3e9.
        """
        n = np.int64(num_nodes)
        if edge_arr.shape[0]:
            lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
            hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
            keys = np.sort(lo * n + hi, kind="stable")
            keep = np.empty(keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
            edges = np.column_stack([keys // n, keys % n])
        else:
            edges = np.zeros((0, 2), dtype=np.int64)

        # Each undirected edge contributes two directed arcs; sorting the
        # encoded arcs src * n + dst places every neighbourhood contiguously
        # and already sorted, so `has_edge` can use binary search.
        u, v = edges[:, 0], edges[:, 1]
        arcs = np.sort(np.concatenate([u * n + v, v * n + u]), kind="stable")
        src = arcs // n
        neighbours = arcs % n
        degrees = np.bincount(src, minlength=num_nodes).astype(np.int64)
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return cls(
            num_nodes,
            edges,
            offsets,
            neighbours,
            degrees,
            labels=labels,
            name=name,
        )

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return int(self._edges.shape[0])

    @property
    def name(self) -> str:
        return self._name

    @property
    def csr_offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def csr_neighbours(self) -> np.ndarray:
        return self._neighbours

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    @property
    def labels(self) -> Optional[np.ndarray]:
        return self._labels
