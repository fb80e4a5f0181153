"""Loop-based reference implementations of the graph kernels.

These are the original (pre-vectorization) Python-loop implementations of
edge dedup, CSR construction, connected components and skip-gram pair
extraction, and the two dataset generators as they drew through numpy's
scalar calls.  They are kept verbatim as the oracle for the parity tests:
``tests/test_graph_kernels.py`` asserts that the vectorized kernels in
:mod:`repro.graph.graph` and :mod:`repro.graph.random_walk` produce identical
outputs on random graphs, and ``tests/test_generators.py`` that the
generators in :mod:`repro.graph.generators` build identical graphs and leave
the caller's generator in the same state.  The library never imports this
module.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.utils.rng import RngLike, ensure_rng


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


def reference_powerlaw_cluster_graph(
    num_nodes: int,
    attachment: int,
    triangle_prob: float,
    rng: RngLike = None,
    name: str = "powerlaw-cluster",
) -> Graph:
    """Tuple-keyed Holme-Kim loop on numpy scalar draws.

    The body of ``repro.graph.generators.powerlaw_cluster_graph`` before its
    draws moved to :class:`repro.utils.rng.ScalarDraws`.
    """
    rng = ensure_rng(rng)
    if not 0 <= triangle_prob <= 1:
        raise ValueError(f"triangle_prob must lie in [0, 1], got {triangle_prob}")
    if attachment < 1:
        raise ValueError(f"attachment must be >= 1, got {attachment}")
    if num_nodes <= attachment:
        raise ValueError(
            f"num_nodes ({num_nodes}) must exceed attachment ({attachment})"
        )
    edges: set[Tuple[int, int]] = set()
    adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
    repeated: List[int] = []

    def _add_edge(u: int, v: int) -> bool:
        if u == v:
            return False
        key = (min(u, v), max(u, v))
        if key in edges:
            return False
        edges.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
        repeated.extend((u, v))
        return True

    for u in range(attachment + 1):
        for v in range(u + 1, attachment + 1):
            _add_edge(u, v)

    for new_node in range(attachment + 1, num_nodes):
        added = 0
        last_target: Optional[int] = None
        guard = 0
        while added < attachment and guard < 100 * attachment:
            guard += 1
            if (
                last_target is not None
                and adjacency[last_target]
                and rng.random() < triangle_prob
            ):
                candidate = adjacency[last_target][
                    int(rng.integers(0, len(adjacency[last_target])))
                ]
            else:
                candidate = repeated[int(rng.integers(0, len(repeated)))]
            if _add_edge(new_node, candidate):
                added += 1
                last_target = candidate
    return Graph(num_nodes, sorted(edges), name=name)


def reference_labelled_powerlaw_community_graph(
    num_nodes: int,
    num_communities: int,
    attachment: int,
    intra_prob: float = 0.9,
    rng: RngLike = None,
    name: str = "powerlaw-community",
) -> Graph:
    """Tuple-keyed community-attachment loop on numpy scalar draws.

    The body of ``repro.graph.generators.labelled_powerlaw_community_graph``
    before its draws moved to :class:`repro.utils.rng.ScalarDraws`.
    """
    rng = ensure_rng(rng)
    if num_communities < 2:
        raise ValueError(f"num_communities must be >= 2, got {num_communities}")
    if not 0 < intra_prob <= 1:
        raise ValueError(f"intra_prob must lie in (0, 1], got {intra_prob}")
    if num_nodes <= attachment + num_communities:
        raise ValueError("num_nodes too small for the requested configuration")

    labels = rng.integers(0, num_communities, size=num_nodes)
    edges: set[Tuple[int, int]] = set()
    repeated_by_comm: List[List[int]] = [[] for _ in range(num_communities)]
    repeated_all: List[int] = []

    def _add_edge(u: int, v: int) -> bool:
        if u == v:
            return False
        key = (min(u, v), max(u, v))
        if key in edges:
            return False
        edges.add(key)
        for node in (u, v):
            repeated_all.append(node)
            repeated_by_comm[labels[node]].append(node)
        return True

    for u in range(attachment + 1):
        for v in range(u + 1, attachment + 1):
            _add_edge(u, v)

    for new_node in range(attachment + 1, num_nodes):
        added = 0
        guard = 0
        own = int(labels[new_node])
        while added < attachment and guard < 200 * attachment:
            guard += 1
            pool = repeated_by_comm[own]
            if pool and rng.random() < intra_prob:
                candidate = pool[int(rng.integers(0, len(pool)))]
            else:
                candidate = repeated_all[int(rng.integers(0, len(repeated_all)))]
            if _add_edge(new_node, candidate):
                added += 1
    return Graph(num_nodes, sorted(edges), labels=labels, name=name)
