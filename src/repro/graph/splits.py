"""Train/test edge splitting for the link-prediction protocol.

The paper's protocol: 90% of edges form the training graph, 10% are held out
as positive test links, an equal number of non-edges are sampled as negative
test links, and (for training classifiers that need them) an equal number of
non-edges are also sampled as negative training pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class EdgeSplit:
    """Output of :func:`train_test_split_edges`.

    Attributes
    ----------
    train_graph:
        Graph over all original nodes containing only the training edges.
    train_edges, test_edges:
        Positive edge arrays, shape ``(n, 2)``.
    train_negatives, test_negatives:
        Sampled non-edges of the same cardinality as the corresponding
        positive sets.
    """

    train_graph: Graph
    train_edges: np.ndarray
    test_edges: np.ndarray
    train_negatives: np.ndarray
    test_negatives: np.ndarray


def _edge_keys(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted int64 keys ``u * num_nodes + v`` of the stored ``(u, v)`` rows.

    Keys are built from the rows exactly as stored, like the tuples of
    :meth:`Graph.edge_set`: a candidate's key ``min * n + max`` matches only
    a row stored as ``(min, max)``.  Exact while ``num_nodes ** 2 < 2 ** 63``.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.sort(edges[:, 0] * np.int64(num_nodes) + edges[:, 1])


def _sample_non_edges(
    graph: Graph, count: int, rng: np.random.Generator, forbidden: np.ndarray
) -> np.ndarray:
    """Sample ``count`` distinct node pairs whose keys are not in ``forbidden``.

    ``forbidden`` is a sorted array of :func:`_edge_keys`.  The result is
    the one of a scalar loop that draws ``u = rng.integers(0, n)`` then
    ``v = rng.integers(0, n)`` per attempt and keeps ``(min, max)`` unless
    ``u == v`` or the pair is forbidden or already kept, for at most
    ``200 * count + 1000`` attempts; that loop's generator state is left too.

    The draws come in blocks instead: ``rng.integers(0, n, size=(m, 2))``
    yields the same values, in the same order, as ``m`` scalar pairs and
    leaves the same generator state.  In a block a candidate is kept when
    ``u != v``, its key is the first occurrence in the block, and the key is
    neither forbidden nor kept by an earlier block, which is exactly the
    loop's test.  Once ``count`` pairs are kept, the generator is rewound to
    its state before the block and exactly the pairs the loop consumed are
    drawn again, so it ends where the loop ended.  Blocks never cross the
    attempt cap, so the error path consumes the same draws and raises the
    same ``RuntimeError``.
    """
    n = np.int64(graph.num_nodes)
    kept = np.zeros(0, dtype=np.int64)  # keys, in draw order
    attempts_left = 200 * count + 1000
    while kept.size < count and attempts_left > 0:
        need = count - kept.size
        size = min(attempts_left, 2 * need + 1024)
        state = rng.bit_generator.state
        draws = rng.integers(0, n, size=(size, 2))
        lo, hi = draws.min(axis=1), draws.max(axis=1)
        keys = lo * n + hi
        first = np.zeros(size, dtype=bool)
        first[np.unique(keys, return_index=True)[1]] = True
        taken = np.sort(np.concatenate([forbidden, kept])) if kept.size else forbidden
        if taken.size:
            clash = taken[np.minimum(np.searchsorted(taken, keys), taken.size - 1)] == keys
        else:
            clash = np.zeros(size, dtype=bool)
        accepted = np.flatnonzero((lo != hi) & first & ~clash)[:need]
        if accepted.size == need and accepted[-1] + 1 < size:
            rng.bit_generator.state = state
            rng.integers(0, n, size=(accepted[-1] + 1, 2))
        kept = np.concatenate([kept, keys[accepted]])
        attempts_left -= size
    if kept.size < count:
        raise RuntimeError(
            "could not sample enough non-edges; the graph may be too dense"
        )
    if count == 0:
        return np.array([], dtype=np.int64)
    return np.column_stack([kept // n, kept % n])


def train_test_split_edges(
    graph: Graph,
    test_fraction: float = 0.1,
    rng: RngLike = None,
) -> EdgeSplit:
    """Split ``graph`` into train/test edges plus sampled negative pairs.

    Parameters
    ----------
    graph:
        Original graph.
    test_fraction:
        Fraction of edges held out as positive test links (paper uses 0.1).
    rng:
        Seed or generator controlling the split.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = ensure_rng(rng)
    edges = graph.edges
    num_edges = edges.shape[0]
    num_test = max(1, int(round(num_edges * test_fraction)))
    if num_test >= num_edges:
        raise ValueError("test_fraction leaves no training edges")

    perm = rng.permutation(num_edges)
    test_idx = perm[:num_test]
    train_idx = perm[num_test:]
    test_edges = edges[test_idx]
    train_edges = edges[train_idx]

    forbidden = _edge_keys(edges, graph.num_nodes)
    test_negatives = _sample_non_edges(graph, num_test, rng, forbidden)
    forbidden = np.sort(
        np.concatenate([forbidden, _edge_keys(test_negatives, graph.num_nodes)])
    )
    train_negatives = _sample_non_edges(graph, train_edges.shape[0], rng, forbidden)

    train_graph = graph.subgraph_with_edges(train_edges, name=f"{graph.name}-train")
    return EdgeSplit(
        train_graph=train_graph,
        train_edges=train_edges,
        test_edges=test_edges,
        train_negatives=train_negatives,
        test_negatives=test_negatives,
    )
