"""DPGVAE: differentially private graph variational auto-encoder (simplified).

Yang et al. (IJCAI 2021) also propose a graph VAE whose encoder weights are
trained with DPSGD.  Reproduced mechanism:

* a one-layer GCN encoder ``Z = A_hat X W_mu`` over random node features
  (the paper's evaluation setting assigns random features when none exist).
  There is no variance head: the encoder learns the latent means only, and
  the embeddings are those means, so no Gaussian reparameterisation is drawn,
* an inner-product decoder reconstructing sampled edges vs non-edges,
* DPSGD (clip + noise calibrated to the batch sensitivity) on the encoder
  weight, with budget-driven early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api.estimator import EstimatorMixin
from repro.api.registry import register_model
from repro.backend import NUMPY_BACKEND
from repro.graph.graph import Graph
from repro.graph.sampling import EdgeSampler
from repro.nn.functional import rowwise_dot, score_pairs, sigmoid
from repro.nn.init import normal_init, xavier_uniform
from repro.privacy.clipping import clip_by_l2_norm
from repro.train import PrivacyBudget, PrivateModelMixin, TrainingLoop
from repro.utils.logging import TrainingHistory
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_positive, check_probability


@dataclass
class DPGVAEConfig:
    """Hyper-parameters of the simplified DPGVAE baseline."""

    feature_dim: int = 64
    embedding_dim: int = 128
    batch_size: int = 128
    learning_rate: float = 0.05
    num_epochs: int = 50
    batches_per_epoch: int = 15
    clip_norm: float = 1.0
    noise_multiplier: float = 5.0
    epsilon: float = 6.0
    delta: float = 1e-5
    kl_weight: float = 1e-3

    def __post_init__(self) -> None:
        for name in (
            "feature_dim",
            "embedding_dim",
            "batch_size",
            "num_epochs",
            "batches_per_epoch",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        check_positive(self.learning_rate, "learning_rate")
        check_positive(self.clip_norm, "clip_norm")
        check_positive(self.noise_multiplier, "noise_multiplier")
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta")
        check_positive(self.kl_weight, "kl_weight")


@register_model(
    "dpgvae",
    private=True,
    paper="Sec. VI baselines (DPGVAE, Yang et al. IJCAI 2021) / Fig. 3-4",
    description="DPSGD-trained graph variational auto-encoder",
)
class DPGVAE(PrivateModelMixin, EstimatorMixin):
    """Simplified DPSGD-trained graph VAE."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[DPGVAEConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.config = config or DPGVAEConfig()
        self._rng = rng
        self.graph: Optional[Graph] = None
        self.history = TrainingHistory()
        self.stopped_early = False
        if graph is not None:
            self._setup(graph)

    def _setup(self, graph: Graph) -> None:
        """Bind ``graph``; the (privatised) GCN aggregation happens here."""
        self.graph = graph
        self.backend_ = NUMPY_BACKEND
        be = self.backend_
        feat_rng, weight_rng, sample_rng, noise_rng = spawn_rngs(self._rng, 4)
        cfg = self.config
        # Random node features, as in the paper's feature-less evaluation.
        self.features = normal_init((graph.num_nodes, cfg.feature_dim), std=1.0, rng=feat_rng)
        self.weight_mu = xavier_uniform((cfg.feature_dim, cfg.embedding_dim), rng=weight_rng)
        self._adj_norm = graph.normalized_adjacency()
        self.sampler = EdgeSampler(
            graph, batch_size=cfg.batch_size, num_negatives=1, rng=sample_rng
        )
        self.budget = PrivacyBudget.sampled(
            self.sampler, cfg.noise_multiplier, cfg.epsilon, cfg.delta
        )
        # The released embeddings must not leak the raw adjacency: the GCN
        # aggregation itself is privatised once with unit node-level
        # sensitivity (a removed node's unit-norm feature enters each
        # neighbour's normalised aggregate with weight 1/sqrt(d_i d_j), which
        # sums to at most 1 in L2), meant to consume half of the budget; the
        # other half pays for the DPSGD weight training.
        aggregated = self._adj_norm @ self.features
        self._aggregated = aggregated + be.gaussian(
            noise_rng, 0.0, self.budget.uncharged_aggregation_sigma(), tuple(aggregated.shape)
        )
        self._noise_rng = noise_rng

    # ------------------------------------------------------------------
    @property
    def embeddings(self) -> np.ndarray:
        """Mean latent embeddings ``A_hat X W_mu``, as a numpy array."""
        return self.backend_.to_numpy(self._latent_means())

    def _latent_means(self) -> np.ndarray:
        """``A_hat X W_mu``."""
        return self._aggregated @ self.weight_mu

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Inner-product decoder scores."""
        emb = self._latent_means()
        return self.backend_.to_numpy(score_pairs(pairs, emb))

    # ------------------------------------------------------------------
    def _train_step(self) -> None:
        """One DPSGD update of the encoder mean weight.

        Only the batch's latent means are computed: the aggregated rows of
        both endpoints are gathered as one block (all ``i`` rows, then all
        ``j`` rows) and multiplied by ``W_mu`` once, rather than projecting
        every node through :meth:`_latent_means` and reading 2 * batch rows.
        The gemm computes each output row from its own input row alone, so
        the update is byte-equal to the full projection's
        (``tests/test_rewrite_parity.py``), as in
        :func:`~repro.train.heads.fit_link_prediction_head`.
        """
        cfg = self.config
        be = self.backend_
        batch = self.sampler.sample()
        pos = batch.positive_edges
        neg = batch.negative_pairs
        pairs = np.vstack([pos, neg])
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])

        count = pairs.shape[0]
        agg = np.take(self._aggregated, pairs.T.reshape(-1), axis=0)
        z = agg @ self.weight_mu
        zi, zj = z[:count], z[count:]
        agg_i, agg_j = agg[:count], agg[count:]
        probs = sigmoid(rowwise_dot(zi, zj))
        # d(BCE)/d(score) = probs - labels; chain through both endpoints.
        residual = (probs - labels)[:, None]
        grad_weight = agg_i.T @ (residual * zj) + agg_j.T @ (residual * zi)
        grad_weight /= count
        # KL regulariser towards a standard normal prior on the weights.
        grad_weight += cfg.kl_weight * self.weight_mu

        clipped = clip_by_l2_norm(grad_weight, cfg.clip_norm)
        noise_std = count * cfg.clip_norm * cfg.noise_multiplier
        noise = be.gaussian(self._noise_rng, 0.0, noise_std, tuple(clipped.shape))
        self.weight_mu -= cfg.learning_rate * (clipped + noise / count)
        self.budget.charge()

    def fit(self, graph: Optional[Graph] = None, callbacks=()) -> "DPGVAE":
        """Train until the schedule ends or the privacy budget is exhausted."""
        self._bind_on_fit(graph)
        loop = TrainingLoop(
            self.config.num_epochs,
            self.config.batches_per_epoch,
            budget=self.budget,
            callbacks=callbacks,
        )
        self.stopped_early = loop.run(
            lambda epoch, step: self._train_step(),
            lambda epoch, losses: self.history.record(
                "epsilon_spent", self.privacy_spent().epsilon
            ),
        ).stopped_early
        return self
