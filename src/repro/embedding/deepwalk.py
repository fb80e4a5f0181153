"""DeepWalk: skip-gram over uniform random-walk co-occurrence pairs.

DeepWalk (Perozzi et al., 2014) treats truncated random walks as sentences and
trains a skip-gram model over (centre, context) pairs drawn from a sliding
window.  A fit has one pair pipeline: it walks the corpus once on one
stream (:meth:`~repro.graph.walk_engine.WalkEngine.walk_corpus`), extracts
the pairs with :func:`~repro.graph.random_walk.walks_to_pairs` and trains
from an :class:`~repro.train.ArrayPairSource`, which reshuffles the same
pairs every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.api.estimator import EstimatorMixin
from repro.api.registry import register_model
from repro.backend import NUMPY_BACKEND
from repro.graph.graph import Graph
from repro.graph.random_walk import walks_to_pairs
from repro.graph.sampling import (
    AliasTable,
    check_negative_distribution,
    unigram_weights,
)
from repro.graph.walk_engine import WalkEngine
from repro.nn.functional import pair_gradients, score_pairs, sigmoid_pair
from repro.nn.init import uniform_embedding
from repro.train import ArrayPairSource, PairSource, TrainingLoop
from repro.utils.logging import TrainingHistory
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_positive


@dataclass
class DeepWalkConfig:
    """Hyper-parameters of DeepWalk."""

    embedding_dim: int = 128
    num_walks: int = 5
    walk_length: int = 20
    window_size: int = 5
    num_negatives: int = 5
    learning_rate: float = 0.05
    num_epochs: int = 2
    batch_size: int = 512
    negative_distribution: str = "uniform"

    def __post_init__(self) -> None:
        for name in ("embedding_dim", "num_walks", "walk_length", "window_size",
                     "num_negatives", "num_epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        check_positive(self.learning_rate, "learning_rate")
        check_negative_distribution(self.negative_distribution)


@register_model(
    "deepwalk",
    paper="Sec. VI related models (DeepWalk, Perozzi et al. 2014)",
    description="Skip-gram over uniform random-walk co-occurrence pairs",
)
class DeepWalk(EstimatorMixin):
    """DeepWalk trainer built on the shared skip-gram update rule."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[DeepWalkConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.config = config or DeepWalkConfig()
        self._rng = rng
        self.graph: Optional[Graph] = None
        self.history = TrainingHistory()
        if graph is not None:
            self._setup(graph)

    def _setup(self, graph: Graph) -> None:
        """Bind ``graph``: initialise embeddings and the negative table."""
        self.graph = graph
        self.backend_ = NUMPY_BACKEND
        self._init_rng, self._walk_rng, self._train_rng = spawn_rngs(self._rng, 3)
        dim = self.config.embedding_dim
        self.w_in = uniform_embedding(graph.num_nodes, dim, rng=self._init_rng)
        self.w_out = uniform_embedding(graph.num_nodes, dim, rng=self._init_rng)
        self._negative_table = (
            AliasTable(unigram_weights(graph.degrees))
            if self.config.negative_distribution == "unigram075"
            else None
        )

    def _draw_negatives(self, count: int, num_negatives: int) -> np.ndarray:
        """``(count, k)`` negative node ids from the configured distribution."""
        if self._negative_table is not None:
            return self._negative_table.draw(
                self._train_rng, size=(count, num_negatives)
            )
        return self._train_rng.integers(
            0, self.graph.num_nodes, size=(count, num_negatives)
        )

    @property
    def embeddings(self) -> np.ndarray:
        """Released node embeddings, as a numpy array."""
        return self.backend_.to_numpy(self.w_in)

    def _walk_bias(self) -> Dict[str, float]:
        """Second-order bias kwargs for the walk engine (node2vec overrides)."""
        return {}

    def _make_pair_source(self) -> PairSource:
        """Walk the corpus, extract its pairs and wrap them in a source.

        The golden digests pin this corpus-then-shuffle path bit for bit.
        The walk engine lives for this one expression: it and its node2vec
        table are freed by reference counting before the pairs are
        extracted.  The pair array goes to the source, whose last pass
        shuffles it in place: the walk corpus and the pairs are the only
        corpus-sized arrays, and only the pairs survive extraction.
        """
        cfg = self.config
        corpus = WalkEngine(self.graph).walk_corpus(
            cfg.num_walks, cfg.walk_length, rng=self._walk_rng, **self._walk_bias()
        )
        pairs = walks_to_pairs(corpus, window_size=cfg.window_size)
        return ArrayPairSource(
            pairs, batch_size=cfg.batch_size, passes=cfg.num_epochs
        )

    def _train_on_batch(self, batch: np.ndarray) -> float:
        """One mini-batch of skip-gram updates; returns the batch loss."""
        cfg = self.config
        be = self.backend_
        centres, contexts = batch[:, 0], batch[:, 1]
        negatives = self._draw_negatives(batch.shape[0], cfg.num_negatives)

        v_c = np.take(self.w_in, centres, axis=0)
        v_o = np.take(self.w_out, contexts, axis=0)
        # The negatives first: they read the raw centre rows, which
        # pair_gradients scales in place.  They keep their own (B, k) einsum
        # because a centre's sum over its k negatives is not a scatter.
        neg_vectors = np.take(self.w_out, negatives, axis=0)  # (B, k, dim)
        neg_scores = np.einsum("ij,ikj->ik", v_c, neg_vectors)
        neg_sigmoid, neg_flipped = sigmoid_pair(neg_scores)
        neg_coeff = -neg_sigmoid
        neg_centre = np.einsum("ik,ikj->ij", neg_coeff, neg_vectors)
        neg_rows = (neg_coeff[:, :, None] * v_c[:, None, :]).reshape(-1, v_c.shape[1])

        _, pos_sigmoid, grad_centre, grad_context = pair_gradients(
            v_c, v_o, batch.shape[0]
        )
        grad_centre += neg_centre

        lr = cfg.learning_rate
        grad_centre *= lr
        grad_context *= lr
        neg_rows *= lr
        be.index_add_(self.w_in, centres, grad_centre)
        be.index_add_(self.w_out, contexts, grad_context)
        be.index_add_(self.w_out, negatives.ravel(), neg_rows)

        batch_obj = np.sum(np.log(pos_sigmoid + 1e-12)) + np.sum(np.log(neg_flipped + 1e-12))
        return float(-batch_obj / batch.shape[0])

    def _train_one_pass(self, source: PairSource) -> float:
        """One epoch of mini-batch updates over the source's batches."""
        total_loss = 0.0
        num_batches = 0
        for batch in source.batches(self._train_rng):
            total_loss += self._train_on_batch(batch)
            num_batches += 1
        if num_batches == 0:
            raise RuntimeError("random walks produced no training pairs")
        return total_loss / num_batches

    def fit(self, graph: Optional[Graph] = None, callbacks=()) -> "DeepWalk":
        """Generate walks and train for the configured number of epochs."""
        self._bind_on_fit(graph)
        source = self._make_pair_source()
        self.pair_source_ = source
        loop = TrainingLoop(self.config.num_epochs, 1, callbacks=callbacks)
        try:
            loop.run(
                lambda epoch, step: self._train_one_pass(source),
                lambda epoch, losses: self.history.record("loss", losses[0]),
            )
        finally:
            source.release()
        return self

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Link-prediction scores from input-vector inner products."""
        return self.backend_.to_numpy(score_pairs(pairs, self.w_in))
