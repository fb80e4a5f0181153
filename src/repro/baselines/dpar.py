"""DPAR: decoupled GNN with node-level DP (simplified reimplementation).

Zhang et al. (WWW 2024) decouple feature propagation from learning: a
personalised-PageRank-style propagation matrix is computed once with
differentially private noise (and degree-based sensitivity control), and the
downstream model trains on the privatised propagated features only, so the
per-step re-perturbation that hurts GAP is avoided.  DPAR is the strongest
baseline in the paper's Fig. 3, behind AdvSGM.

Reproduced here:

* random row-normalised features,
* truncated-power-iteration personalised PageRank propagation with per-node
  degree clipping,
* a single Gaussian perturbation of the propagated features, calibrated to
  the full (epsilon, delta) budget (one mechanism invocation — this is why it
  beats GAP, which splits the budget over multiple hops),
* a non-private link-prediction head trained on the private features.  Its
  training runs un-noised SGD on the private training edges and is not
  charged to the accountant, so it is not post-processing (ROADMAP item 9,
  open).
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
from repro.utils.validation import check_in_range, check_positive, check_probability


@dataclass
class DPARConfig:
    """Hyper-parameters of the simplified DPAR baseline."""

    feature_dim: int = 64
    embedding_dim: int = 128
    teleport: float = 0.15
    propagation_steps: int = 2
    max_degree: int = 32
    learning_rate: float = 0.05
    num_epochs: int = 30
    batch_size: int = 256
    epsilon: float = 6.0
    delta: float = 1e-5

    def __post_init__(self) -> None:
        for name in (
            "feature_dim",
            "embedding_dim",
            "propagation_steps",
            "max_degree",
            "num_epochs",
            "batch_size",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        check_in_range(self.teleport, 0.01, 0.99, "teleport")
        check_positive(self.learning_rate, "learning_rate")
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta")


@register_model(
    "dpar",
    private=True,
    paper="Sec. VI baselines (DPAR, Zhang et al. WWW 2024) / Fig. 3-4",
    description="Decoupled GNN with one privatised PPR propagation release",
)
class DPAR(EstimatorMixin):
    """Decoupled GNN with a single privatised propagation."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[DPARConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.config = config or DPARConfig()
        self._rng = rng
        self.graph: Optional[Graph] = None
        self.history = TrainingHistory()
        self._private_features: Optional[np.ndarray] = None
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
            (cfg.feature_dim * (cfg.propagation_steps + 1), cfg.embedding_dim),
            rng=weight_rng,
        )
        self.accountant = RdpAccountant(self._calibrated_sigma())

    def _calibrated_sigma(self) -> float:
        """Noise multiplier so that all propagation releases meet the budget."""
        cfg = self.config
        return RdpAccountant.calibrate_noise_multiplier(
            target_epsilon=cfg.epsilon,
            target_delta=cfg.delta,
            sampling_rate=1.0,
            num_steps=cfg.propagation_steps,
        )

    # ------------------------------------------------------------------
    def _degree_clipped_adjacency(self) -> np.ndarray:
        """Row-stochastic adjacency with per-node degree clipped to ``max_degree``."""
        cfg = self.config
        adjacency = self.graph.adjacency_matrix()
        degrees = adjacency.sum(axis=1)
        # Scale rows of high-degree nodes down so each node's total outgoing
        # weight is at most max_degree (bounds the propagation sensitivity).
        scale = np.minimum(1.0, cfg.max_degree / np.maximum(degrees, 1.0))
        clipped = adjacency * scale[:, None]
        row_sums = clipped.sum(axis=1, keepdims=True)
        return clipped / np.maximum(row_sums, 1e-12)

    def _privatised_features(self) -> np.ndarray:
        """Release degree-clipped PPR-weighted propagation stages with DP noise.

        Each propagation stage ``T^h X`` (T the degree-clipped row-stochastic
        transition, weighted by the PPR factor ``(1 - teleport)^h``) is
        released once through the Gaussian mechanism; the stages are
        concatenated with the (data-independent) random features themselves.
        The node-level sensitivity of one stage is small because a removed
        node's unit-norm feature is diluted by ~1/degree at every receiving
        node, giving an L2 influence of roughly
        ``(1 - teleport) / sqrt(mean_degree)`` — this bounded-sensitivity
        decoupled release is why DPAR keeps more utility than per-hop
        aggregation perturbation (GAP).
        """
        cfg = self.config
        features = normal_init(
            (self.graph.num_nodes, cfg.feature_dim), std=1.0, rng=self._feat_rng
        )
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        features = features / np.maximum(norms, 1e-12)

        transition = self._degree_clipped_adjacency()
        mean_degree = float(max(1.0, self.graph.degrees.mean()))
        sensitivity = (1.0 - cfg.teleport) / np.sqrt(mean_degree)
        noise_std = sensitivity * self.accountant.noise_multiplier

        stages = [features]
        current = features
        for hop in range(1, cfg.propagation_steps + 1):
            current = (1.0 - cfg.teleport) * (transition @ current)
            noisy = current + self._noise_rng.normal(0.0, noise_std, size=current.shape)
            self.accountant.step(1.0)
            stages.append(noisy)
        return np.concatenate(stages, axis=1)

    # ------------------------------------------------------------------
    @property
    def embeddings(self) -> np.ndarray:
        """Node embeddings: learned projection of the private features."""
        return self.backend_.to_numpy(self._projected())

    def _projected(self) -> np.ndarray:
        if self._private_features is None:
            raise RuntimeError("call fit() before accessing embeddings")
        return self._private_features @ self.weight

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Inner-product link scores on the learned embeddings."""
        emb = self._projected()
        return self.backend_.to_numpy(score_pairs(pairs, emb))

    def privacy_spent(self):
        """Converted (epsilon, delta) spend of the propagation release."""
        return self.accountant.get_privacy_spent(self.config.delta)

    # ------------------------------------------------------------------
    def fit(self, graph: Optional[Graph] = None, callbacks=()) -> "DPAR":
        """Privatise the propagation once, then train the projection head.

        The head is the shared ``repro.train`` link-prediction projection.
        It sees the already-private features, but trains with un-noised SGD
        on the private training edges, uncharged to the accountant (ROADMAP
        item 9), so ``privacy_spent`` covers only the propagation release.
        """
        self._bind_on_fit(graph)
        cfg = self.config
        self._private_features = self._privatised_features()
        fit_link_prediction_head(
            graph=self.graph,
            features=self._private_features,
            weight=self.weight,
            num_epochs=cfg.num_epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate,
            history=self.history,
            rng=self._train_rng,
            callbacks=callbacks,
        )
        return self
