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
from repro.backend import get_backend
from repro.graph.graph import Graph
from repro.graph.sampling import EdgeSampler, SampleBatch, check_negative_distribution
from repro.nn.functional import log_sigmoid, sigmoid
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
    normalize_embeddings: bool = True
    negative_distribution: str = "uniform"
    backend: Optional[str] = None

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
        check_negative_distribution(self.negative_distribution)
        if self.backend is not None:
            self.backend = str(self.backend)


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
        self.backend_ = get_backend(self.config.backend)
        init_rng, sample_rng = spawn_rngs(self._rng, 2)
        dim = self.config.embedding_dim
        self.w_in = uniform_embedding(
            graph.num_nodes, dim, rng=init_rng, backend=self.backend_
        )
        self.w_out = uniform_embedding(
            graph.num_nodes, dim, rng=init_rng, backend=self.backend_
        )
        # Fast-precision backends run each batch through the fused
        # ``skipgram_step`` and draw their negatives device-side, so their
        # pair source pulls positives-only batches (the unigram alias table
        # is a host-side structure; it stays on the generic path).
        self._fused = (
            self.backend_.precision == "fast"
            and self.config.negative_distribution == "uniform"
        )
        # Rows of (W_in, W_out) whose norm is still above 1 after their last
        # rescale, as backend index arrays; see :meth:`_normalize`.
        self._carry = (np.empty(0, dtype=np.int64),) * 2
        if self.config.normalize_embeddings:
            all_rows = (np.arange(graph.num_nodes),)
            self._normalize((all_rows, all_rows))
        self.sampler = EdgeSampler(
            graph,
            batch_size=self.config.batch_size,
            num_negatives=self.config.num_negatives,
            rng=sample_rng,
            negative_distribution=self.config.negative_distribution,
        )
        # The LINE-style trainer consumes its edge batches through the same
        # PairSource seam as the walk-corpus trainers; each pulled batch is
        # exactly one sampler draw, so the stream order is unchanged.
        self.pair_source_ = SampledBatchSource(
            self._sample_fused_batch if self._fused else self.sampler.sample
        )

    # ------------------------------------------------------------------
    # embedding access
    # ------------------------------------------------------------------
    @property
    def embeddings(self) -> np.ndarray:
        """Released node embeddings (the input vectors ``W_in``), as numpy."""
        return self.backend_.to_numpy(self.w_in)

    def _normalize(self, touched: tuple) -> None:
        """Project every embedding row onto the unit ball (ensures C = 1).

        ``touched`` is ``(W_in rows, W_out rows)``, each a tuple of index
        arrays naming the rows changed since the last call.  Only those rows
        and the carry (rows whose norm was still above 1 after their last
        rescale) are rescaled, and the carry is refreshed.  Every other row
        has norm at most 1 and is an exact fixed point of
        ``x / max(||x||, 1)``, so the result is bit-for-bit the full pass.
        """
        self._carry = tuple(
            self.backend_.normalize_rows_(matrix, 1.0, (*rows, carry))
            for matrix, rows, carry in zip((self.w_in, self.w_out), touched, self._carry)
        )

    # ------------------------------------------------------------------
    # loss / gradients
    # ------------------------------------------------------------------
    def pair_scores(self, pairs: np.ndarray) -> np.ndarray:
        """Inner products ``v_i . v_j`` for an ``(n, 2)`` array of pairs."""
        be = self.backend_
        pairs = np.asarray(pairs, dtype=np.int64)
        return be.rowwise_dot(
            be.gather(self.w_in, pairs[:, 0]), be.gather(self.w_out, pairs[:, 1])
        )

    def batch_loss(self, batch: SampleBatch):
        """Negative mean skip-gram objective of a batch (lower is better).

        Returned as a backend-native 0-d value, not a Python float: the
        training loop accumulates losses natively and scalarises once per
        epoch (:meth:`repro.backend.base.Backend.scalar`), so accelerator
        backends are never forced into a per-batch device sync.
        """
        be = self.backend_
        pos_scores = self.pair_scores(batch.positive_edges)
        neg_scores = self.pair_scores(batch.negative_pairs)
        objective = (
            log_sigmoid(pos_scores, backend=be).sum()
            + log_sigmoid(-neg_scores, backend=be).sum()
        )
        return -objective / max(1, batch.batch_size)

    def _accumulate_gradients(
        self, batch: SampleBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Ascent gradients for the touched rows of ``W_in`` and ``W_out``.

        Returns ``(grad_in, touched_in, grad_out, touched_out)`` where each
        gradient is a compact ``(len(touched), dim)`` array aligned with its
        sorted-unique touched-row array.  Each gradient row sums its pairs'
        contributions positives first, then negatives, in batch order — the
        historical ``np.add.at`` order, so the update stays bit-for-bit
        (pinned by the golden digests).
        """
        be = self.backend_
        pos, neg = batch.positive_edges, batch.negative_pairs
        pos_coeff = 1.0 - sigmoid(self.pair_scores(pos), backend=be)  # d log sigma(x) / dx
        neg_coeff = -sigmoid(self.pair_scores(neg), backend=be)  # d log sigma(-x) / dx
        pairs = np.concatenate([pos, neg])
        split = pos.shape[0]
        grads = []
        for side, other in ((0, self.w_out), (1, self.w_in)):
            # A pair's gradient for its row on one side is the other side's
            # vector scaled by the pair's coefficient.
            touched, slots = np.unique(pairs[:, side], return_inverse=True)
            rows = be.gather(other, pairs[:, 1 - side])
            rows[:split] *= pos_coeff[:, None]
            rows[split:] *= neg_coeff[:, None]
            grads += [be.segment_sum(slots, rows, touched.shape[0]), touched]
        return tuple(grads)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _sample_fused_batch(self) -> SampleBatch:
        """A positives-only batch for the fused fast path.

        Negatives are drawn device-side inside :meth:`train_step`, so none
        are pulled from the host stream here.
        """
        return SampleBatch(
            positive_edges=self.sampler.sample_positives(),
            negative_pairs=np.empty((0, 2), dtype=np.int64),
        )

    def train_step(self, batch: Optional[SampleBatch] = None):
        """One batch of gradient-ascent updates; returns the batch loss.

        ``batch`` defaults to one fresh sampler draw (the historical
        behaviour); :meth:`fit` passes batches pulled from ``pair_source_``.
        The loss is backend-native (see :meth:`batch_loss`).

        Updates follow the usual skip-gram/SGD convention: per-pair gradients
        are accumulated into their embedding rows and applied with the full
        learning rate (no division by the batch size), which is how word2vec,
        LINE and DeepWalk implementations behave.  On a fast backend
        (``backend="torch:cuda:fast"``) the whole batch runs through the
        backend's fused :meth:`~repro.backend.base.Backend.skipgram_step`.
        Either way only the rows the batch touched (plus the carry, see
        :meth:`_normalize`) are renormalised afterwards.
        """
        if batch is None:
            batch = self._sample_fused_batch() if self._fused else self.sampler.sample()
        be = self.backend_
        lr = self.config.learning_rate
        if self._fused:
            pos = batch.positive_edges
            if batch.negative_pairs.shape[0]:
                # A caller-supplied full batch: reuse its negative nodes
                # (each row of negative_pairs is (source, negative) with the
                # sources repeating positive[:, 0] in order).
                negatives = batch.negative_pairs[:, 1].reshape(pos.shape[0], -1)
            else:
                negatives = be.sample_negatives(
                    self.sampler.rng,
                    (pos.shape[0], self.config.num_negatives),
                    self.graph.num_nodes,
                )
            loss = be.skipgram_step(self.w_in, self.w_out, pos, negatives, lr)
            # The fused step moves the sources' W_in rows and the
            # destinations' and negatives' W_out rows.
            touched = ((pos[:, 0],), (pos[:, 1], negatives))
        else:
            loss = self.batch_loss(batch)
            grad_in, touched_in, grad_out, touched_out = self._accumulate_gradients(batch)
            # The touched indices are unique and aligned with the compact
            # accumulators, so this is exactly the historical
            # ``w[touched] += lr * grad[touched]`` update.
            be.index_add_(self.w_in, touched_in, lr * grad_in, unique=True)
            be.index_add_(self.w_out, touched_out, lr * grad_out, unique=True)
            touched = ((touched_in,), (touched_out,))
        if self.config.normalize_embeddings:
            self._normalize(touched)
        return loss

    def fit(self, graph: Optional[Graph] = None, callbacks=()) -> "SkipGramModel":
        """Run the full schedule through the shared loop and return ``self``."""
        self._bind_on_fit(graph)
        loop = TrainingLoop(
            self.config.num_epochs, self.config.batches_per_epoch, callbacks=callbacks
        )

        def epoch_end(epoch: int, losses) -> None:
            # Losses are backend-native 0-d values: one scalarisation per
            # epoch, not one device sync per batch.
            self.history.record(
                "loss",
                self.backend_.scalar(sum(losses)) / self.config.batches_per_epoch,
            )

        batches = self.pair_source_.batches()
        loop.run(lambda epoch, step: self.train_step(next(batches)), epoch_end)
        return self

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Link-prediction scores: inner product of the *input* vectors."""
        be = self.backend_
        pairs = np.asarray(pairs, dtype=np.int64)
        return be.to_numpy(
            be.rowwise_dot(be.gather(self.w_in, pairs[:, 0]), be.gather(self.w_in, pairs[:, 1]))
        )
