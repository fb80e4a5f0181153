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

import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.graph.generators import (
    labelled_powerlaw_community_graph,
    powerlaw_cluster_graph,
)
from repro.graph.graph import Graph
from repro.graph.storage import META_FILENAME
from repro.utils.rng import ensure_rng

#: Environment variable overriding the default on-disk graph cache root.
GRAPH_CACHE_ENV = "REPRO_GRAPH_CACHE"


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
    # DBLP scholarly network: very large, sparse, low clustering.
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


def graph_cache_root(cache_dir: Optional[Union[str, Path]] = None) -> Path:
    """Root directory for on-disk dataset graphs.

    ``cache_dir`` argument wins, then ``$REPRO_GRAPH_CACHE``, then the
    default ``~/.cache/repro/graphs``.
    """
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(GRAPH_CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "graphs"


def load_dataset(
    name: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
    on_disk: bool = False,
    cache_dir: Optional[Union[str, Path]] = None,
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
    on_disk:
        Return a memory-mapped graph instead of an in-RAM one.  The graph is
        materialised once under the cache root (keyed by name/scale/seed) and
        reopened with ``Graph.open`` on subsequent calls; its arrays are
        bit-identical to the in-RAM build.
    cache_dir:
        Cache root for ``on_disk=True`` (see :func:`graph_cache_root`).
    """
    spec = get_spec(name)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    num_nodes = max(64, int(round(spec.base_nodes * scale)))
    if seed is None:
        # Stable per-dataset default seed derived from the name (hash() is
        # salted per interpreter run, so a character sum is used instead).
        seed = sum(ord(c) for c in spec.name) * 7919
    if on_disk:
        return _load_on_disk(spec, num_nodes, scale, int(seed), cache_dir)
    rng = ensure_rng(seed)
    graph = spec.builder(num_nodes, rng)
    return graph


def _load_on_disk(
    spec: DatasetSpec,
    num_nodes: int,
    scale: float,
    seed: int,
    cache_dir: Optional[Union[str, Path]],
) -> Graph:
    """Materialise (once) and open the on-disk copy of one dataset cell."""
    target = graph_cache_root(cache_dir) / f"{spec.name}-s{scale:g}-seed{seed}"
    if (target / META_FILENAME).is_file():
        return Graph.open(target)
    graph = spec.builder(num_nodes, ensure_rng(seed))
    target.parent.mkdir(parents=True, exist_ok=True)
    # Build into a temp sibling and rename: concurrent callers race benignly
    # (whoever renames first wins, everyone opens a complete directory).
    tmp = Path(tempfile.mkdtemp(prefix=f".{target.name}-", dir=target.parent))
    try:
        graph.save(tmp, overwrite=True)
        try:
            os.replace(tmp, target)
        except OSError:
            if not (target / META_FILENAME).is_file():
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return Graph.open(target)
