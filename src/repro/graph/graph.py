"""Undirected graph container used throughout the library.

A :class:`Graph` holds its arrays itself, in RAM: the canonical edge list
(deduplicated, ``u < v``, lexicographically sorted), a CSR adjacency
(offsets + neighbour array) for O(degree) neighbourhood queries, the degrees
and optional node labels.  Nodes are integers ``0 .. num_nodes - 1``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

#: Node count above which dense adjacency materialisation is refused by
#: default — a dense float64 matrix at this size is already ~3.2 GB.
DENSE_LIMIT_DEFAULT = 20_000


class Graph:
    """Simple undirected graph with contiguous integer node ids.

    Parameters
    ----------
    num_nodes:
        Number of nodes; node ids are ``0 .. num_nodes - 1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected (the paper
        pre-processes all datasets to remove them) and duplicate edges are
        collapsed.
    labels:
        Optional per-node integer class labels (used by node clustering).
    name:
        Optional human-readable dataset name.

    Attributes
    ----------
    edges:
        ``(num_edges, 2)`` int64 array of edges with ``u < v``.
    csr_offsets, csr_neighbours:
        CSR adjacency: node ``v``'s sorted neighbours are
        ``csr_neighbours[csr_offsets[v]:csr_offsets[v + 1]]`` (int64, lengths
        ``num_nodes + 1`` and ``2 * num_edges``).
    degrees:
        Per-node int64 degree array.

    These four arrays are read-only, and so is every view of them
    (``neighbours(v)`` included): a caller writing through a view would
    corrupt the adjacency for everyone else.  Copy before mutating (fancy
    indexing such as ``graph.edges[idx]`` already returns a fresh writable
    array).
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        labels: Optional[Sequence[int]] = None,
        name: str = "graph",
    ) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        num_nodes = int(num_nodes)

        if isinstance(edges, np.ndarray):
            edge_arr = edges.astype(np.int64, copy=False)
        else:
            edge_arr = np.array(list(edges), dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        elif edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise ValueError(
                f"edges must have shape (num_edges, 2), got {edge_arr.shape}"
            )
        if edge_arr.shape[0]:
            self_loop = edge_arr[:, 0] == edge_arr[:, 1]
            out_of_range = ((edge_arr < 0) | (edge_arr >= num_nodes)).any(axis=1)
            invalid = self_loop | out_of_range
            if invalid.any():
                i = int(np.argmax(invalid))
                u, v = int(edge_arr[i, 0]), int(edge_arr[i, 1])
                if u == v:
                    raise ValueError(f"self-loop ({u}, {v}) is not allowed")
                raise ValueError(
                    f"edge ({u}, {v}) references a node outside [0, {num_nodes})"
                )

        if labels is not None:
            labels_arr: Optional[np.ndarray] = np.asarray(labels, dtype=np.int64)
            if labels_arr.shape != (num_nodes,):
                raise ValueError(
                    f"labels must have shape ({num_nodes},), got {labels_arr.shape}"
                )
        else:
            labels_arr = None

        # Dedup + canonical (u < v, lexicographically sorted) ordering in one
        # shot: encode each undirected edge as lo * num_nodes + hi, radix-sort
        # the keys (kind="stable" selects radix sort for integer dtypes, ~4x
        # faster than np.unique's default sort) and drop consecutive
        # duplicates.  int64 keys are exact for num_nodes < ~3e9.
        n = np.int64(num_nodes)
        if edge_arr.shape[0]:
            lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
            hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
            keys = np.sort(lo * n + hi, kind="stable")
            keep = np.empty(keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
            canonical = np.column_stack([keys // n, keys % n])
        else:
            canonical = np.zeros((0, 2), dtype=np.int64)

        # Each undirected edge contributes two directed arcs; sorting the
        # encoded arcs src * n + dst places every neighbourhood contiguously
        # and already sorted, so `has_edge` can use binary search.
        u, v = canonical[:, 0], canonical[:, 1]
        arcs = np.sort(np.concatenate([u * n + v, v * n + u]), kind="stable")
        src = arcs // n
        neighbours = arcs % n
        degrees = np.bincount(src, minlength=num_nodes).astype(np.int64)
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        for arr in (canonical, offsets, neighbours, degrees):
            arr.flags.writeable = False

        self.num_nodes = num_nodes
        self.name = str(name)
        self.labels = labels_arr
        self.edges = canonical
        self.csr_offsets = offsets
        self.csr_neighbours = neighbours
        self.degrees = degrees

    @property
    def num_edges(self) -> int:
        """Number of (undirected, deduplicated) edges."""
        return int(self.edges.shape[0])

    def neighbours(self, node: int) -> np.ndarray:
        """Sorted neighbour ids of ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
        offsets = self.csr_offsets
        lo, hi = offsets[node], offsets[node + 1]
        return self.csr_neighbours[lo:hi]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
        return int(self.degrees[node])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        if u == v:
            return False
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            return False
        neigh = self.neighbours(u)
        idx = np.searchsorted(neigh, v)
        return bool(idx < neigh.size and neigh[idx] == v)

    # ------------------------------------------------------------------
    # matrix views
    # ------------------------------------------------------------------
    def _check_dense_limit(self, method: str, dense_limit: Optional[int]) -> None:
        if dense_limit is not None and self.num_nodes > dense_limit:
            raise ValueError(
                f"{method} refuses to materialise a {self.num_nodes}x"
                f"{self.num_nodes} dense matrix (dense_limit={dense_limit}); "
                f"raise dense_limit or pass dense_limit=None to override"
            )

    def adjacency_matrix(
        self, dtype=np.float64, dense_limit: Optional[int] = DENSE_LIMIT_DEFAULT
    ) -> np.ndarray:
        """Dense symmetric adjacency matrix (only sensible for small graphs).

        Refuses graphs above ``dense_limit`` nodes (default
        :data:`DENSE_LIMIT_DEFAULT`) rather than silently allocating
        gigabytes; pass a larger limit or ``None`` to override.
        """
        self._check_dense_limit("adjacency_matrix", dense_limit)
        adj = np.zeros((self.num_nodes, self.num_nodes), dtype=dtype)
        if self.num_edges:
            u, v = self.edges[:, 0], self.edges[:, 1]
            adj[u, v] = 1
            adj[v, u] = 1
        return adj

    def normalized_adjacency(
        self,
        add_self_loops: bool = True,
        dense_limit: Optional[int] = DENSE_LIMIT_DEFAULT,
    ) -> np.ndarray:
        """Symmetrically normalised adjacency ``D^{-1/2} (A + I) D^{-1/2}``.

        Subject to the same ``dense_limit`` guard as :meth:`adjacency_matrix`.
        """
        self._check_dense_limit("normalized_adjacency", dense_limit)
        adj = self.adjacency_matrix(dense_limit=dense_limit)
        if add_self_loops:
            adj = adj + np.eye(self.num_nodes)
        deg = adj.sum(axis=1)
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
        return adj * inv_sqrt[:, None] * inv_sqrt[None, :]

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def subgraph_with_edges(self, edges: np.ndarray, name: Optional[str] = None) -> "Graph":
        """Return a graph over the same node set restricted to ``edges``.

        Used by the link-prediction protocol: the training graph keeps all
        nodes (so embeddings exist for every node) but only the training
        edges.
        """
        edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return Graph(
            self.num_nodes,
            edge_arr,
            labels=None if self.labels is None else np.array(self.labels),
            name=name or f"{self.name}-sub",
        )

    def edge_set(self) -> Set[Tuple[int, int]]:
        """Set of ``(min(u,v), max(u,v))`` tuples for membership queries."""
        return {(int(u), int(v)) for u, v in self.edges}

    def connected_components(self) -> List[List[int]]:
        """Connected components via vectorized min-label propagation.

        Every node starts labelled with its own id; labels relax to the
        minimum over each edge and are path-compressed (pointer jumping)
        until a fixed point, so each component ends up labelled with its
        smallest node id.  Components are returned sorted by that id with
        their members in ascending order — the same output as a BFS that
        scans start nodes in ascending order.
        """
        labels = np.arange(self.num_nodes, dtype=np.int64)
        edges = self.edges
        u, v = edges[:, 0], edges[:, 1]
        while u.size:
            before = labels.copy()
            np.minimum.at(labels, u, labels[v])
            np.minimum.at(labels, v, labels[u])
            while True:
                jumped = labels[labels]
                if np.array_equal(jumped, labels):
                    break
                labels = jumped
            if np.array_equal(labels, before):
                break
        order = np.argsort(labels, kind="stable")
        boundaries = np.flatnonzero(np.diff(labels[order])) + 1
        return [chunk.tolist() for chunk in np.split(order, boundaries)]

    def label_counts(self) -> Dict[int, int]:
        """Histogram of node labels (empty dict if the graph is unlabelled)."""
        if self.labels is None:
            return {}
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labelled = "labelled" if self.labels is not None else "unlabelled"
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, {labelled})"
        )
