"""Link-prediction evaluation protocol (Section VI-A of the paper).

90% of edges form the training graph, 10% are held out as positive test
links, and an equal number of sampled non-edges serve as negative test links.
A model is scored by the AUC of its edge scores over the combined test set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.evals.metrics import roc_auc_score
from repro.graph.graph import Graph
from repro.graph.splits import EdgeSplit, train_test_split_edges
from repro.nn.functional import score_pairs
from repro.utils.rng import RngLike


ScoreSource = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass
class LinkPredictionResult:
    """Outcome of a link-prediction evaluation."""

    auc: float
    num_test_edges: int
    num_test_negatives: int


class LinkPredictionTask:
    """Holds a train/test edge split and scores embedding models on it.

    Parameters
    ----------
    graph:
        Full graph; the split is drawn from it at construction time.
    test_fraction:
        Fraction of edges held out (paper: 0.1).
    rng:
        Seed or generator controlling the split (fix it to compare models on
        the identical split, as the paper does).
    """

    def __init__(
        self,
        graph: Graph,
        test_fraction: float = 0.1,
        rng: RngLike = None,
    ) -> None:
        self.graph = graph
        self.split: EdgeSplit = train_test_split_edges(
            graph, test_fraction=test_fraction, rng=rng
        )

    @property
    def train_graph(self) -> Graph:
        """Graph containing only training edges (train models on this)."""
        return self.split.train_graph

    def _scores_for(self, source: ScoreSource, pairs: np.ndarray) -> np.ndarray:
        if callable(source):
            return np.asarray(source(pairs), dtype=np.float64)
        embeddings = np.asarray(source, dtype=np.float64)
        if embeddings.ndim != 2 or embeddings.shape[0] != self.graph.num_nodes:
            raise ValueError(
                "embeddings must be (num_nodes, dim); "
                f"got shape {embeddings.shape} for {self.graph.num_nodes} nodes"
            )
        return score_pairs(pairs, embeddings)

    def evaluate(self, source: ScoreSource) -> LinkPredictionResult:
        """Compute test AUC for a model.

        Parameters
        ----------
        source:
            Either an ``(num_nodes, dim)`` embedding matrix (scored by inner
            products) or a callable mapping an ``(n, 2)`` pair array to
            scores (e.g. ``model.score_edges``).
        """
        pos = self.split.test_edges
        neg = self.split.test_negatives
        pairs = np.vstack([pos, neg])
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        scores = self._scores_for(source, pairs)
        if scores.shape[0] != pairs.shape[0]:
            raise ValueError("score source returned the wrong number of scores")
        return LinkPredictionResult(
            auc=roc_auc_score(labels, scores),
            num_test_edges=int(len(pos)),
            num_test_negatives=int(len(neg)),
        )
