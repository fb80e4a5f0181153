"""Dataset registry: synthetic analogues of the paper's six datasets.

The paper evaluates on PPI, Facebook, Wiki, Blog, Epinions and DBLP.  Without
network access we stand in synthetic graphs whose *structural class* matches
each dataset (labelled community graphs for the labelled datasets, clustered
power-law graphs for the social networks) at a laptop-friendly scale.  Every
dataset is generated deterministically from its name plus a seed, so repeated
calls return identical graphs.

Scale note: node counts are reduced roughly 4-1400x relative to the originals
(e.g. PPI 3,890 -> 1,000 nodes, DBLP 2.2M -> 1,600 nodes) so the full benchmark
suite runs in minutes on a CPU while keeping the subsampling rates ``B/|E|``
and ``Bk/|V|`` in a regime where the privacy budget meaningfully limits
training, as in the paper.  ``load_dataset(name, scale=...)`` lets callers
enlarge them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.graph.generators import (
    labelled_powerlaw_community_graph,
    powerlaw_cluster_graph,
)
from repro.graph.graph import Graph
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one synthetic dataset analogue.

    Attributes
    ----------
    name:
        Registry key (lower-case).
    paper_nodes, paper_edges:
        Size of the original dataset reported in the paper, kept for
        documentation.
    base_nodes:
        Node count of the synthetic analogue at ``scale=1.0``.
    labelled:
        Whether the analogue carries node labels (needed for clustering).
    num_classes:
        Number of label classes when ``labelled``.
    builder:
        Callable ``(num_nodes, rng) -> Graph`` that constructs the graph.
    """

    name: str
    paper_nodes: int
    paper_edges: int
    base_nodes: int
    labelled: bool
    num_classes: int
    builder: Callable[[int, np.random.Generator], Graph]


def _build_ppi(num_nodes: int, rng: np.random.Generator) -> Graph:
    # PPI: 3,890 nodes, 50 classes, dense biological interaction structure.
    return labelled_powerlaw_community_graph(
        num_nodes=num_nodes,
        num_communities=10,
        attachment=8,
        intra_prob=0.85,
        rng=rng,
        name="ppi",
    )


def _build_facebook(num_nodes: int, rng: np.random.Generator) -> Graph:
    # Facebook ego-networks: unlabelled, strongly clustered social graph.
    return powerlaw_cluster_graph(
        num_nodes=num_nodes,
        attachment=10,
        triangle_prob=0.6,
        rng=rng,
        name="facebook",
    )


def _build_wiki(num_nodes: int, rng: np.random.Generator) -> Graph:
    # Wiki hyperlinks: 40 categories, moderately clustered.
    return labelled_powerlaw_community_graph(
        num_nodes=num_nodes,
        num_communities=8,
        attachment=9,
        intra_prob=0.8,
        rng=rng,
        name="wiki",
    )


def _build_blog(num_nodes: int, rng: np.random.Generator) -> Graph:
    # BlogCatalog: 39 categories, denser social network.
    return labelled_powerlaw_community_graph(
        num_nodes=num_nodes,
        num_communities=8,
        attachment=12,
        intra_prob=0.8,
        rng=rng,
        name="blog",
    )


def _build_epinions(num_nodes: int, rng: np.random.Generator) -> Graph:
    # Epinions trust network: large, unlabelled, sparse power-law graph.
    return powerlaw_cluster_graph(
        num_nodes=num_nodes,
        attachment=6,
        triangle_prob=0.3,
        rng=rng,
        name="epinions",
    )


def _build_dblp(num_nodes: int, rng: np.random.Generator) -> Graph:
    # DBLP scholarly network: very large, sparse, low clustering.  Each new
    # node attaches 4 edges, so the analogue has about 4.0 edges per node
    # against DBLP's 1.94 (4,354,534 / 2,244,021), and at equal scale its
    # B/|E| sampling rate is about half the paper's.  Changing the
    # attachment would change every cached dblp row.
    return powerlaw_cluster_graph(
        num_nodes=num_nodes,
        attachment=4,
        triangle_prob=0.2,
        rng=rng,
        name="dblp",
    )


_REGISTRY: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("ppi", 3890, 76584, 1000, True, 10, _build_ppi),
        DatasetSpec("facebook", 4039, 88234, 1000, False, 0, _build_facebook),
        DatasetSpec("wiki", 4777, 92517, 1000, True, 8, _build_wiki),
        DatasetSpec("blog", 10312, 333983, 1200, True, 8, _build_blog),
        DatasetSpec("epinions", 75879, 508837, 1400, False, 0, _build_epinions),
        DatasetSpec("dblp", 2244021, 4354534, 1600, False, 0, _build_dblp),
    )
}


def list_datasets() -> list[str]:
    """Names of all registered dataset analogues."""
    return sorted(_REGISTRY)


def get_spec(name: str) -> DatasetSpec:
    """Return the :class:`DatasetSpec` for ``name`` (case-insensitive)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(list_datasets())}"
        )
    return _REGISTRY[key]


def load_dataset(
    name: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> Graph:
    """Build the synthetic analogue of dataset ``name``.

    Parameters
    ----------
    name:
        One of :func:`list_datasets` (case-insensitive).
    scale:
        Multiplier on the analogue's base node count (``scale=2`` doubles the
        graph).  Must be positive.
    seed:
        Seed for the generator.  Defaults to a stable per-dataset seed so two
        calls with the same arguments return identical graphs.
    """
    spec = get_spec(name)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    num_nodes = max(64, int(round(spec.base_nodes * scale)))
    if seed is None:
        # Stable per-dataset default seed derived from the name (hash() is
        # salted per interpreter run, so a character sum is used instead).
        seed = sum(ord(c) for c in spec.name) * 7919
    return spec.builder(num_nodes, ensure_rng(seed))

