"""node2vec: skip-gram over second-order biased random walks.

node2vec (Grover & Leskovec, 2016) generalises DeepWalk with two parameters:
``p`` (return) and ``q`` (in-out) that bias the walk towards BFS- or DFS-like
exploration.  The training procedure is identical to DeepWalk once the walk
corpus is produced, so this class subclasses :class:`DeepWalk` and only
injects the bias parameters into its walks (see
:meth:`DeepWalk._make_pair_source`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.api.registry import register_model
from repro.embedding.deepwalk import DeepWalk, DeepWalkConfig
from repro.graph.graph import Graph
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive


@dataclass
class Node2VecConfig(DeepWalkConfig):
    """DeepWalk hyper-parameters plus the node2vec bias parameters."""

    p: float = 1.0
    q: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self.p, "p")
        check_positive(self.q, "q")


@register_model(
    "node2vec",
    paper="Sec. VI related models (node2vec, Grover & Leskovec 2016)",
    description="Skip-gram over second-order (p, q)-biased random walks",
)
class Node2Vec(DeepWalk):
    """node2vec trainer (biased walks + skip-gram)."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[Node2VecConfig] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(graph, config or Node2VecConfig(), rng=rng)

    def _walk_bias(self) -> Dict[str, float]:
        cfg: Node2VecConfig = self.config  # type: ignore[assignment]
        return {"p": cfg.p, "q": cfg.q}
