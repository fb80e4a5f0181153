"""Synthetic graph generators.

The paper evaluates on six public datasets (PPI, Facebook, Wiki, Blog,
Epinions, DBLP).  This repository has no network access, so the dataset
registry (:mod:`repro.graph.datasets`) builds *synthetic analogues* with these
generators.  The generators produce the two structural properties that
skip-gram embedding quality depends on:

* a heavy-tailed degree distribution (preferential attachment), and
* community structure (planted communities / clustered attachment),

so the *relative* behaviour of the methods under comparison is preserved even
though absolute AUC/MI values differ from the paper's.

The two generators, :func:`powerlaw_cluster_graph` and
:func:`labelled_powerlaw_community_graph`, both behind the registry, grow the graph one node at a time
and make two scalar draws per attachment attempt.  They take those draws
through :class:`repro.utils.rng.ScalarDraws`, which reads the generator's raw
PCG64 stream in blocks and returns exactly what ``rng.random()`` and
``rng.integers(0, n)`` would, about 3x faster per build than numpy's scalar
calls; on return the caller's generator is in the state those calls would
have left.  So a build is bit-for-bit the same per seed as one drawn through
numpy directly (``tests/reference_impl.py`` keeps that version as the
oracle).  Only a PCG64 generator is accepted, which is what every seed and
``np.random.default_rng`` give; any other bit generator is refused with a
``TypeError``.  Edges are deduplicated on integer keys ``lo * num_nodes +
hi``, and :class:`~repro.graph.graph.Graph` sorts the decoded keys.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graph.graph import Graph
from repro.utils.rng import RngLike, ScalarDraws, ensure_rng


def powerlaw_cluster_graph(
    num_nodes: int,
    attachment: int,
    triangle_prob: float,
    rng: RngLike = None,
    name: str = "powerlaw-cluster",
) -> Graph:
    """Holme-Kim power-law graph with tunable clustering.

    Like Barabasi-Albert but, after each preferential attachment, with
    probability ``triangle_prob`` the new node also connects to a random
    neighbour of the node it just attached to, closing a triangle.  This gives
    the higher clustering coefficients seen in social graphs (Facebook, Blog).
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
    keys: set[int] = set()
    adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
    repeated: List[int] = []
    for u in range(attachment + 1):
        for v in range(u + 1, attachment + 1):
            keys.add(u * num_nodes + v)
            adjacency[u].append(v)
            adjacency[v].append(u)
            repeated.extend((u, v))

    with ScalarDraws(rng) as draws:
        random, below = draws.random, draws.below
        for new_node in range(attachment + 1, num_nodes):
            added = 0
            last_target: Optional[int] = None
            guard = 0
            while added < attachment and guard < 100 * attachment:
                guard += 1
                if (
                    last_target is not None
                    and adjacency[last_target]
                    and random() < triangle_prob
                ):
                    neighbours = adjacency[last_target]
                    candidate = neighbours[below(len(neighbours))]
                else:
                    candidate = repeated[below(len(repeated))]
                # Only earlier nodes and new_node itself have edges yet, so
                # candidate <= new_node.
                key = candidate * num_nodes + new_node
                if candidate == new_node or key in keys:
                    continue
                keys.add(key)
                adjacency[new_node].append(candidate)
                adjacency[candidate].append(new_node)
                repeated.extend((new_node, candidate))
                added += 1
                last_target = candidate
    return Graph(num_nodes, _edges_from_keys(keys, num_nodes), name=name)


def labelled_powerlaw_community_graph(
    num_nodes: int,
    num_communities: int,
    attachment: int,
    intra_prob: float = 0.9,
    rng: RngLike = None,
    name: str = "powerlaw-community",
) -> Graph:
    """Power-law degree graph with planted communities and node labels.

    Combines preferential attachment (heavy-tailed degrees) with a community
    bias: each node is assigned a community label and attaches to nodes of the
    same community with probability ``intra_prob``.  This resembles the
    labelled social/biological networks (PPI, Blog, Wiki) better than a pure
    SBM, whose degree distribution is binomial.
    """
    rng = ensure_rng(rng)
    if num_communities < 2:
        raise ValueError(f"num_communities must be >= 2, got {num_communities}")
    if not 0 < intra_prob <= 1:
        raise ValueError(f"intra_prob must lie in (0, 1], got {intra_prob}")
    if num_nodes <= attachment + num_communities:
        raise ValueError("num_nodes too small for the requested configuration")

    labels = rng.integers(0, num_communities, size=num_nodes)
    community = labels.tolist()
    keys: set[int] = set()
    repeated_by_comm: List[List[int]] = [[] for _ in range(num_communities)]
    repeated_all: List[int] = []
    # Seed: a short path through the first few nodes so every community list
    # eventually becomes non-empty via the global list fallback.
    for u in range(attachment + 1):
        for v in range(u + 1, attachment + 1):
            keys.add(u * num_nodes + v)
            repeated_all.extend((u, v))
            repeated_by_comm[community[u]].append(u)
            repeated_by_comm[community[v]].append(v)

    with ScalarDraws(rng) as draws:
        random, below = draws.random, draws.below
        for new_node in range(attachment + 1, num_nodes):
            added = 0
            guard = 0
            pool = repeated_by_comm[community[new_node]]
            while added < attachment and guard < 200 * attachment:
                guard += 1
                if pool and random() < intra_prob:
                    candidate = pool[below(len(pool))]
                else:
                    candidate = repeated_all[below(len(repeated_all))]
                # Only earlier nodes and new_node itself have edges yet, so
                # candidate <= new_node.
                key = candidate * num_nodes + new_node
                if candidate == new_node or key in keys:
                    continue
                keys.add(key)
                repeated_all.extend((new_node, candidate))
                pool.append(new_node)
                repeated_by_comm[community[candidate]].append(candidate)
                added += 1
    return Graph(
        num_nodes, _edges_from_keys(keys, num_nodes), labels=labels, name=name
    )


def _edges_from_keys(keys: set[int], num_nodes: int) -> np.ndarray:
    """Decode ``lo * num_nodes + hi`` edge keys into an ``(m, 2)`` array."""
    flat = np.fromiter(keys, dtype=np.int64, count=len(keys))
    return np.column_stack([flat // num_nodes, flat % num_nodes])
