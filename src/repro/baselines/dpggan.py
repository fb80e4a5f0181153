"""DPGGAN: differentially private graph GAN (simplified reimplementation).

Yang et al. (IJCAI 2021) train a graph generative adversarial network with
DPSGD on the discriminator and report link prediction from the learned latent
node representations.  The defining characteristics reproduced here:

* an inner-product GAN over node pairs — the discriminator scores pairs by
  ``sigmoid(z_i . z_j)`` on latent vectors, the generator produces fake latent
  pairs from Gaussian noise;
* DPSGD on every discriminator update, with the moments-accountant-style
  budget tracking that makes the model converge prematurely when the budget
  is small (the behaviour the AdvSGM paper highlights).

The original operates on adjacency reconstructions of much larger graphs; the
latent-pair formulation keeps the same mechanism at laptop scale.
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
from repro.nn.functional import pair_gradients, rowwise_dot, score_pairs, sigmoid
from repro.nn.init import normal_init, xavier_uniform
from repro.privacy.dpsgd import dpsgd_row_step
from repro.train import PrivacyBudget, PrivateModelMixin, TrainingLoop
from repro.utils.logging import TrainingHistory
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_positive, check_probability


@dataclass
class DPGGANConfig:
    """Hyper-parameters of the simplified DPGGAN baseline."""

    embedding_dim: int = 128
    batch_size: int = 128
    learning_rate: float = 0.05
    generator_learning_rate: float = 0.05
    num_epochs: int = 50
    batches_per_epoch: int = 15
    clip_norm: float = 1.0
    noise_multiplier: float = 5.0
    epsilon: float = 6.0
    delta: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("embedding_dim", "batch_size", "num_epochs", "batches_per_epoch"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        check_positive(self.learning_rate, "learning_rate")
        check_positive(self.generator_learning_rate, "generator_learning_rate")
        check_positive(self.clip_norm, "clip_norm")
        check_positive(self.noise_multiplier, "noise_multiplier")
        check_positive(self.epsilon, "epsilon")
        check_probability(self.delta, "delta")


@register_model(
    "dpggan",
    private=True,
    paper="Sec. VI baselines (DPGGAN, Yang et al. IJCAI 2021) / Fig. 3-4",
    description="DPSGD-trained inner-product graph GAN",
)
class DPGGAN(PrivateModelMixin, EstimatorMixin):
    """Simplified DPSGD-trained graph GAN."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[DPGGANConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.config = config or DPGGANConfig()
        self._rng = rng
        self.graph: Optional[Graph] = None
        self.history = TrainingHistory()
        self.stopped_early = False
        if graph is not None:
            self._setup(graph)

    def _setup(self, graph: Graph) -> None:
        """Bind ``graph``: initialise latents, generator, sampler, privacy handle."""
        self.graph = graph
        self.backend_ = NUMPY_BACKEND
        init_rng, sample_rng, noise_rng, gen_rng = spawn_rngs(self._rng, 4)
        dim = self.config.embedding_dim
        self.latent = normal_init((graph.num_nodes, dim), std=0.1, rng=init_rng)
        self.generator_weight = xavier_uniform((dim, dim), rng=gen_rng)
        self._noise_rng = noise_rng
        self._gen_rng = gen_rng
        self.sampler = EdgeSampler(
            graph, batch_size=self.config.batch_size, num_negatives=1, rng=sample_rng
        )
        self.budget = PrivacyBudget.sampled(
            self.sampler, self.config.noise_multiplier, self.config.epsilon, self.config.delta
        )

    @property
    def embeddings(self) -> np.ndarray:
        """Latent node vectors used for link prediction, as numpy."""
        return self.backend_.to_numpy(self.latent)

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Link-prediction scores from latent inner products."""
        return self.backend_.to_numpy(score_pairs(pairs, self.latent))

    # ------------------------------------------------------------------
    def _generate_fake(self, count: int) -> np.ndarray:
        be = self.backend_
        noise = be.gaussian(self._gen_rng, 0.0, 1.0, (count, self.config.embedding_dim))
        return np.tanh(noise @ self.generator_weight)

    def _discriminator_step(self) -> None:
        """DPSGD update of the latent vectors on real vs fake pairs."""
        cfg = self.config
        batch = self.sampler.sample()
        pairs = batch.positive_edges
        count = pairs.shape[0]
        zi = np.take(self.latent, pairs[:, 0], axis=0)
        zj = np.take(self.latent, pairs[:, 1], axis=0)
        fake = self._generate_fake(count)
        # The fake pairs read the raw rows: score them before the real pairs'
        # gradients scale the rows in place.
        fake_scores = sigmoid(rowwise_dot(zi, fake))
        # Maximise log D(real) + log(1 - D(fake)) w.r.t. the latent vectors.
        _, _, grad_zi, grad_zj = pair_gradients(zi, zj, count)
        grad_zi = grad_zi - fake_scores[:, None] * fake
        # DPSGD over the latent matrix: every updated row receives an
        # independent draw calibrated to the B*C batch-sum sensitivity.
        dpsgd_row_step(
            ((self.latent, pairs[:, 0], grad_zi), (self.latent, pairs[:, 1], grad_zj)),
            self._noise_rng,
            cfg.clip_norm,
            cfg.noise_multiplier,
            cfg.learning_rate,
        )
        self.budget.charge()

    def _generator_step(self) -> None:
        """Non-private generator update (post-processing of the latent state)."""
        cfg = self.config
        be = self.backend_
        batch = self.sampler.sample()
        pairs = batch.positive_edges
        count = pairs.shape[0]
        zi = np.take(self.latent, pairs[:, 0], axis=0)
        noise = be.gaussian(self._gen_rng, 0.0, 1.0, (count, cfg.embedding_dim))
        pre = noise @ self.generator_weight
        fake = np.tanh(pre)
        fake_scores = sigmoid(rowwise_dot(zi, fake))
        # Generator maximises log D(fake): gradient ascent through tanh.
        grad_fake = (1.0 - fake_scores)[:, None] * zi
        grad_pre = grad_fake * (1.0 - fake**2)
        grad_weight = noise.T @ grad_pre / count
        self.generator_weight += cfg.generator_learning_rate * grad_weight

    def fit(self, graph: Optional[Graph] = None, callbacks=()) -> "DPGGAN":
        """Alternate DPSGD discriminator updates with generator updates."""
        self._bind_on_fit(graph)

        def epoch_end(epoch: int, losses) -> None:
            self._generator_step()
            self.history.record("epsilon_spent", self.privacy_spent().epsilon)

        loop = TrainingLoop(
            self.config.num_epochs,
            self.config.batches_per_epoch,
            budget=self.budget,
            callbacks=callbacks,
        )
        self.stopped_early = loop.run(
            lambda epoch, step: self._discriminator_step(), epoch_end
        ).stopped_early
        return self
