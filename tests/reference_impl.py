"""Loop-based reference implementations of the graph kernels.

These are the original (pre-vectorization) Python-loop implementations of
edge dedup, CSR construction, connected components and skip-gram pair
extraction.  They are kept verbatim as the oracle for the parity tests:
``tests/test_graph_kernels.py`` asserts that the vectorized kernels in
:mod:`repro.graph.graph` and :mod:`repro.graph.random_walk` produce identical
outputs on random graphs.  The library never imports this module.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.graph.graph import Graph


def reference_dedup_edges(
    num_nodes: int, edges: Iterable[Tuple[int, int]]
) -> np.ndarray:
    """Legacy per-edge dedup/validation loop from ``Graph.__init__``."""
    seen: Set[Tuple[int, int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(
                f"edge ({u}, {v}) references a node outside [0, {num_nodes})"
            )
        seen.add((min(u, v), max(u, v)))
    return np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)


def reference_build_adjacency(
    num_nodes: int, edges: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Legacy per-edge CSR construction loop from ``Graph._build_adjacency``.

    Returns ``(offsets, neighbours, degree)``.
    """
    degree = np.zeros(num_nodes, dtype=np.int64)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])
    neighbours = np.zeros(offsets[-1], dtype=np.int64)
    cursor = offsets[:-1].copy()
    for u, v in edges:
        neighbours[cursor[u]] = v
        cursor[u] += 1
        neighbours[cursor[v]] = u
        cursor[v] += 1
    for node in range(num_nodes):
        lo, hi = offsets[node], offsets[node + 1]
        neighbours[lo:hi].sort()
    return offsets, neighbours, degree


def reference_connected_components(graph: Graph) -> List[List[int]]:
    """Legacy BFS connected components from ``Graph.connected_components``."""
    seen = np.zeros(graph.num_nodes, dtype=bool)
    components: List[List[int]] = []
    for start in range(graph.num_nodes):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp: List[int] = []
        while queue:
            node = queue.pop()
            comp.append(node)
            for nb in graph.neighbours(node):
                if not seen[nb]:
                    seen[nb] = True
                    queue.append(int(nb))
        components.append(sorted(comp))
    return components


def reference_walks_to_pairs(
    walks: List[List[int]], window_size: int = 5
) -> np.ndarray:
    """Legacy nested-loop skip-gram pair extraction."""
    if window_size <= 0:
        raise ValueError(f"window_size must be positive, got {window_size}")
    pairs: List[Tuple[int, int]] = []
    for walk in walks:
        for i, centre in enumerate(walk):
            lo = max(0, i - window_size)
            hi = min(len(walk), i + window_size + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((centre, walk[j]))
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.array(pairs, dtype=np.int64)
