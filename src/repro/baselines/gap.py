"""GAP: differentially private GNN via aggregation perturbation (simplified).

Sajadmanesh et al. (USENIX Security 2023) achieve edge/node-level DP for GNNs
by perturbing the *aggregation* step: node features are row-normalised, the
neighbourhood sums ``A X`` of each hop are perturbed with Gaussian noise
calibrated to the per-node contribution, and all downstream learning operates
only on the noisy aggregates (post-processing).  The AdvSGM paper runs GAP
with random input features because its datasets have no attributes.

Reproduced here:

* random row-normalised features,
* ``num_hops`` perturbed aggregation stages, each charged to the budget via
  the RDP accountant (noise multiplier calibrated so the whole pipeline meets
  the target (epsilon, delta)),
* a lightweight non-private MLP trained on the noisy aggregates with a
  link-prediction objective, whose output embeddings are evaluated exactly
  like the other baselines.  Its training runs un-noised SGD on the private
  training edges and is not charged to the accountant, so it is not
  post-processing (ROADMAP item 9, open).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api.estimator import EstimatorMixin
from repro.api.registry import register_model
from repro.backend import NUMPY_BACKEND
from repro.graph.graph import Graph
from repro.nn.functional import score_pairs
from repro.nn.init import normal_init, xavier_uniform
from repro.privacy.accountant import RdpAccountant
from repro.train import fit_link_prediction_head
from repro.utils.logging import TrainingHistory
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_positive, check_probability


@dataclass
class GAPConfig:
    """Hyper-parameters of the simplified GAP baseline."""

    feature_dim: int = 64
    embedding_dim: int = 128
    num_hops: int = 2
    max_degree: int = 64
    learning_rate: float = 0.05
    num_epochs: int = 30
    batch_size: int = 256
    epsilon: float = 6.0
    delta: float = 1e-5

    def __post_init__(self) -> None:
        for name in (
            "feature_dim",
            "embedding_dim",
            "num_hops",
            "max_degree",
            "num_epochs",
            "batch_size",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        check_positive(self.learning_rate, "learning_rate")
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta")


@register_model(
    "gap",
    private=True,
    paper="Sec. VI baselines (GAP, Sajadmanesh et al. 2023) / Fig. 3-4",
    description="DP GNN via per-hop aggregation perturbation",
)
class GAP(EstimatorMixin):
    """Aggregation-perturbation GNN baseline."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[GAPConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.config = config or GAPConfig()
        self._rng = rng
        self.graph: Optional[Graph] = None
        self.history = TrainingHistory()
        self._noisy_aggregates: Optional[np.ndarray] = None
        if graph is not None:
            self._setup(graph)

    def _setup(self, graph: Graph) -> None:
        """Bind ``graph``: split the seed stream and calibrate the noise."""
        self.graph = graph
        self.backend_ = NUMPY_BACKEND
        feat_rng, noise_rng, weight_rng, train_rng = spawn_rngs(self._rng, 4)
        self._feat_rng = feat_rng
        self._noise_rng = noise_rng
        self._train_rng = train_rng
        cfg = self.config
        self.weight = xavier_uniform(
            (cfg.feature_dim * (cfg.num_hops + 1), cfg.embedding_dim),
            rng=weight_rng,
        )
        self.accountant = RdpAccountant(self._calibrated_sigma())

    # ------------------------------------------------------------------
    def _calibrated_sigma(self) -> float:
        """Noise multiplier such that ``num_hops`` aggregations meet the budget."""
        cfg = self.config
        return RdpAccountant.calibrate_noise_multiplier(
            target_epsilon=cfg.epsilon,
            target_delta=cfg.delta,
            sampling_rate=1.0,  # every aggregation touches the full graph
            num_steps=cfg.num_hops,
        )

    def _perturbed_aggregations(self) -> np.ndarray:
        """Compute the noisy multi-hop aggregation matrix (the PMA step)."""
        cfg = self.config
        features = normal_init(
            (self.graph.num_nodes, cfg.feature_dim), std=1.0, rng=self._feat_rng
        )
        # Row-normalise so each node contributes at most 1 to any aggregate.
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        features = features / np.maximum(norms, 1e-12)

        adjacency = self.graph.adjacency_matrix()
        stages = [features]
        current = features
        # Node-level sensitivity of one aggregation: removing a node changes
        # the sums of up to max_degree neighbours by a unit-norm vector each,
        # so the L2 sensitivity is sqrt(max_degree).  This is the term that
        # makes aggregation perturbation expensive at node level, which is
        # exactly the weakness the AdvSGM paper points out.
        sensitivity = float(np.sqrt(cfg.max_degree))
        noise_std = sensitivity * self.accountant.noise_multiplier
        for _ in range(cfg.num_hops):
            aggregated = adjacency @ current
            noisy = aggregated + self._noise_rng.normal(
                0.0, noise_std, size=aggregated.shape
            )
            self.accountant.step(1.0)
            # Re-normalise so the next hop's sensitivity stays 1.
            norms = np.linalg.norm(noisy, axis=1, keepdims=True)
            current = noisy / np.maximum(norms, 1e-12)
            stages.append(current)
        return np.concatenate(stages, axis=1)

    # ------------------------------------------------------------------
    @property
    def embeddings(self) -> np.ndarray:
        """Node embeddings: learned projection of the noisy aggregates."""
        return self.backend_.to_numpy(self._projected())

    def _projected(self) -> np.ndarray:
        if self._noisy_aggregates is None:
            raise RuntimeError("call fit() before accessing embeddings")
        return self._noisy_aggregates @ self.weight

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Inner-product link scores on the learned embeddings."""
        emb = self._projected()
        return self.backend_.to_numpy(score_pairs(pairs, emb))

    def privacy_spent(self):
        """Converted (epsilon, delta) spend of the aggregation perturbation."""
        return self.accountant.get_privacy_spent(self.config.delta)

    # ------------------------------------------------------------------
    def fit(self, graph: Optional[Graph] = None, callbacks=()) -> "GAP":
        """Perturb aggregations once, then train the projection head on them.

        The head is the shared ``repro.train`` link-prediction projection.
        It sees the noisy aggregates, but trains with un-noised SGD on the
        private training edges, uncharged to the accountant (ROADMAP
        item 9), so ``privacy_spent`` covers only the aggregation.
        """
        self._bind_on_fit(graph)
        cfg = self.config
        self._noisy_aggregates = self._perturbed_aggregations()
        fit_link_prediction_head(
            graph=self.graph,
            features=self._noisy_aggregates,
            weight=self.weight,
            num_epochs=cfg.num_epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate,
            history=self.history,
            rng=self._train_rng,
            callbacks=callbacks,
        )
        return self
