"""LINE-style skip-gram model with negative sampling (Eq. 2 of the paper).

The model keeps two embedding matrices: ``W_in`` (node/input vectors) and
``W_out`` (context/output vectors).  For a positive pair ``(i, j)`` and ``k``
negative nodes ``n`` the per-pair objective (to be maximised) is

    log sigma(v_i . v_j) + sum_n log sigma(-v_n . v_i)

where ``v_i`` is row ``i`` of ``W_in`` and ``v_j``, ``v_n`` are rows of
``W_out``.  Training follows Algorithm 2's sampling: batches of ``B`` edges
plus ``B*k`` uniformly sampled negative pairs.

Only the node (input) vectors are released as the embedding, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api.estimator import EstimatorMixin
from repro.api.registry import register_model
from repro.backend import NUMPY_BACKEND
from repro.graph.graph import Graph
from repro.graph.sampling import EdgeSampler, SampleBatch
from repro.nn.functional import log_sigmoid, pair_gradients, score_pairs
from repro.nn.init import uniform_embedding
from repro.train import SampledBatchSource, TrainingLoop
from repro.utils.logging import TrainingHistory
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_positive


@dataclass
class SkipGramConfig:
    """Hyper-parameters of the non-private skip-gram trainer."""

    embedding_dim: int = 128
    num_negatives: int = 5
    batch_size: int = 128
    learning_rate: float = 0.1
    num_epochs: int = 50
    batches_per_epoch: int = 15

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.num_negatives <= 0:
            raise ValueError("num_negatives must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        check_positive(self.learning_rate, "learning_rate")
        if self.num_epochs <= 0 or self.batches_per_epoch <= 0:
            raise ValueError("num_epochs and batches_per_epoch must be positive")


@register_model(
    "sgm",
    aliases=("skipgram", "sgm(no dp)"),
    paper="Sec. II-B, Eq. 2 (SGM baseline of Table V)",
    description="Non-private LINE-style skip-gram with negative sampling",
)
class SkipGramModel(EstimatorMixin):
    """Skip-gram graph embedding (LINE first-order with negative sampling).

    Parameters
    ----------
    graph:
        Training graph; omit to create an unbound estimator and pass the
        graph to :meth:`fit` instead.
    config:
        :class:`SkipGramConfig`; defaults follow the paper's settings.
    rng:
        Seed or generator controlling initialisation and sampling.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[SkipGramConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.config = config or SkipGramConfig()
        self._rng = rng
        self.graph: Optional[Graph] = None
        self.history = TrainingHistory()
        if graph is not None:
            self._setup(graph)

    def _setup(self, graph: Graph) -> None:
        """Bind ``graph``: initialise embeddings and the batch sampler."""
        self.graph = graph
        self.backend_ = NUMPY_BACKEND
        init_rng, sample_rng = spawn_rngs(self._rng, 2)
        dim = self.config.embedding_dim
        self.w_in = uniform_embedding(graph.num_nodes, dim, rng=init_rng)
        self.w_out = uniform_embedding(graph.num_nodes, dim, rng=init_rng)
        # Project every row onto the unit ball (ensures C = 1).  The carry
        # holds the rows of (W_in, W_out) whose norm is still above 1 after
        # their last rescale: train_step rescales them with the rows its
        # batch touched, and every other row is an exact fixed point of
        # x / max(||x||, 1), so each step is bit-for-bit the full pass.
        all_rows = (np.arange(graph.num_nodes),)
        self._carry = tuple(
            self.backend_.normalize_rows_(matrix, 1.0, all_rows)
            for matrix in (self.w_in, self.w_out)
        )
        self.sampler = EdgeSampler(
            graph,
            batch_size=self.config.batch_size,
            num_negatives=self.config.num_negatives,
            rng=sample_rng,
        )
        # The LINE-style trainer consumes its edge batches through the same
        # PairSource seam as the walk-corpus trainers; each pulled batch is
        # exactly one sampler draw, so the stream order is unchanged.
        self.pair_source_ = SampledBatchSource(self.sampler.sample)

    # ------------------------------------------------------------------
    # embedding access
    # ------------------------------------------------------------------
    @property
    def embeddings(self) -> np.ndarray:
        """Released node embeddings (the input vectors ``W_in``), as numpy."""
        return self.backend_.to_numpy(self.w_in)

    # ------------------------------------------------------------------
    # loss / gradients
    # ------------------------------------------------------------------
    def pair_scores(self, pairs: np.ndarray) -> np.ndarray:
        """Inner products ``v_i . v_j`` for an ``(n, 2)`` array of pairs."""
        return score_pairs(pairs, self.w_in, self.w_out)

    @staticmethod
    def _loss(scores: np.ndarray, num_positive: int, batch_size: int):
        """Negative mean objective of a batch's scores, positives first."""
        objective = (
            log_sigmoid(scores[:num_positive]).sum()
            + log_sigmoid(-scores[num_positive:]).sum()
        )
        return -objective / max(1, batch_size)

    def batch_loss(self, batch: SampleBatch):
        """Negative mean skip-gram objective of a batch (lower is better).

        Returned as a 0-d array, not a Python float: :meth:`fit` sums the
        losses and converts to ``float`` once per epoch.
        """
        pos = batch.positive_edges
        scores = self.pair_scores(np.concatenate([pos, batch.negative_pairs]))
        return self._loss(scores, pos.shape[0], batch.batch_size)

    def _loss_and_gradients(self, batch: SampleBatch) -> tuple:
        """The batch loss and ascent gradients for the touched rows.

        Gathers each side's rows once; :func:`pair_gradients` scores them and
        scales them in place into the per-pair gradients.  Returns
        ``(loss, grad_in, touched_in, grad_out, touched_out)`` where each
        gradient is a compact ``(len(touched), dim)`` array aligned with its
        sorted-unique touched-row array.  Each gradient row sums its pairs'
        contributions positives first, then negatives, in batch order — the
        historical ``np.add.at`` order, so the update stays bit-for-bit
        (pinned by the golden digests).
        """
        be = self.backend_
        pos = batch.positive_edges
        pairs = np.concatenate([pos, batch.negative_pairs])
        split = pos.shape[0]
        vi = np.take(self.w_in, pairs[:, 0], axis=0)
        vj = np.take(self.w_out, pairs[:, 1], axis=0)
        scores, _, grad_vi, grad_vj = pair_gradients(vi, vj, split)
        grads = []
        for side, rows in ((0, grad_vi), (1, grad_vj)):
            touched, slots = np.unique(pairs[:, side], return_inverse=True)
            grads += [be.segment_sum(slots, rows, touched.shape[0]), touched]
        return (self._loss(scores, split, batch.batch_size), *grads)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_step(self, batch: Optional[SampleBatch] = None):
        """One batch of gradient-ascent updates; returns the batch loss.

        ``batch`` defaults to one fresh sampler draw (the historical
        behaviour); :meth:`fit` passes batches pulled from ``pair_source_``.
        The loss is a 0-d array (see :meth:`batch_loss`).

        Updates follow the usual skip-gram/SGD convention: per-pair gradients
        are accumulated into their embedding rows and applied with the full
        learning rate (no division by the batch size), which is how word2vec,
        LINE and DeepWalk implementations behave.  Each matrix takes one
        :meth:`~repro.backend.numpy_backend.NumpyBackend.add_rows_project_`
        call, which adds the update and renormalises the rows it touched
        plus the carry.
        """
        if batch is None:
            batch = self.sampler.sample()
        be = self.backend_
        lr = self.config.learning_rate
        loss, grad_in, touched_in, grad_out, touched_out = self._loss_and_gradients(batch)
        # The touched indices are unique and aligned with the compact
        # accumulators, so this is exactly the historical
        # ``w[touched] += lr * grad[touched]`` update (the same multiply,
        # done in place).
        grad_in *= lr
        grad_out *= lr
        # The carry comes back from the same call (see :meth:`_setup`).
        self._carry = (
            be.add_rows_project_(self.w_in, touched_in, grad_in, self._carry[0]),
            be.add_rows_project_(self.w_out, touched_out, grad_out, self._carry[1]),
        )
        return loss

    def fit(self, graph: Optional[Graph] = None, callbacks=()) -> "SkipGramModel":
        """Run the full schedule through the shared loop and return ``self``."""
        self._bind_on_fit(graph)
        loop = TrainingLoop(
            self.config.num_epochs, self.config.batches_per_epoch, callbacks=callbacks
        )

        def epoch_end(epoch: int, losses) -> None:
            # Losses are 0-d arrays: one conversion to float per epoch.
            self.history.record("loss", float(sum(losses)) / self.config.batches_per_epoch)

        batches = self.pair_source_.batches()
        loop.run(lambda epoch, step: self.train_step(next(batches)), epoch_end)
        return self

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Link-prediction scores: inner product of the *input* vectors."""
        return self.backend_.to_numpy(score_pairs(pairs, self.w_in))
