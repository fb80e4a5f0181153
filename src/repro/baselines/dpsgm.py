"""DP-SGM: skip-gram with DPSGD gradient perturbation.

This is the "skip-gram model with DPSGD" baseline of Section VI-A.  Per-pair
gradients are clipped to L2 norm ``C``; the batch sum is perturbed with
Gaussian noise calibrated to the graph sensitivity ``B * C`` (Section III-B
explains why the sensitivity is proportional to the batch size: changing one
node can change the gradient of every pair in the batch), then averaged and
applied.  Privacy is tracked by the same privacy handle and subsampled-RDP
accountant as AdvSGM, so the comparison isolates the effect of the
perturbation mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api.estimator import EstimatorMixin
from repro.api.registry import register_model
from repro.backend import NUMPY_BACKEND
from repro.graph.graph import Graph
from repro.graph.sampling import EdgeSampler, check_negative_distribution
from repro.nn.functional import pair_gradients, score_pairs
from repro.nn.init import uniform_embedding
from repro.privacy.dpsgd import dpsgd_row_step
from repro.train import BudgetExhausted, PrivacyBudget, PrivateModelMixin, TrainingLoop
from repro.utils.logging import TrainingHistory
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_positive, check_probability


@dataclass
class DPSGMConfig:
    """Hyper-parameters for the DP-SGM baseline (paper defaults)."""

    embedding_dim: int = 128
    num_negatives: int = 5
    batch_size: int = 128
    learning_rate: float = 0.1
    num_epochs: int = 50
    batches_per_epoch: int = 15
    clip_norm: float = 1.0
    noise_multiplier: float = 5.0
    epsilon: float = 6.0
    delta: float = 1e-5
    negative_distribution: str = "uniform"

    def __post_init__(self) -> None:
        check_negative_distribution(self.negative_distribution)
        for name in (
            "embedding_dim",
            "num_negatives",
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


@register_model(
    "dpsgm",
    aliases=("dp-sgm",),
    private=True,
    paper="Sec. III-B / Table V (DP-SGM baseline)",
    description="Skip-gram trained with DPSGD gradient perturbation",
)
class DPSGM(PrivateModelMixin, EstimatorMixin):
    """Skip-gram trained with DPSGD (the DP-SGM baseline)."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[DPSGMConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.config = config or DPSGMConfig()
        self._rng = rng
        self.graph: Optional[Graph] = None
        self.history = TrainingHistory()
        self.stopped_early = False
        if graph is not None:
            self._setup(graph)

    def _setup(self, graph: Graph) -> None:
        """Bind ``graph``: initialise embeddings, sampler and privacy handle."""
        self.graph = graph
        self.backend_ = NUMPY_BACKEND
        init_rng, sample_rng, noise_rng = spawn_rngs(self._rng, 3)
        dim = self.config.embedding_dim
        self.w_in = uniform_embedding(graph.num_nodes, dim, rng=init_rng)
        self.w_out = uniform_embedding(graph.num_nodes, dim, rng=init_rng)
        self._noise_rng = noise_rng
        self.sampler = EdgeSampler(
            graph,
            batch_size=self.config.batch_size,
            num_negatives=self.config.num_negatives,
            rng=sample_rng,
            negative_distribution=self.config.negative_distribution,
        )
        self.budget = PrivacyBudget.sampled(
            self.sampler, self.config.noise_multiplier, self.config.epsilon, self.config.delta
        )

    # ------------------------------------------------------------------
    @property
    def embeddings(self) -> np.ndarray:
        """Released node embeddings, as a numpy array."""
        return self.backend_.to_numpy(self.w_in)

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Link-prediction scores."""
        return self.backend_.to_numpy(score_pairs(pairs, self.w_in))

    # ------------------------------------------------------------------
    def _pair_gradients(self, pairs: np.ndarray, positive: bool):
        """Per-pair skip-gram ascent gradients (input-row, output-row)."""
        vi = np.take(self.w_in, pairs[:, 0], axis=0)
        vj = np.take(self.w_out, pairs[:, 1], axis=0)
        _, _, grad_in, grad_out = pair_gradients(vi, vj, pairs.shape[0] if positive else 0)
        return grad_in, grad_out

    def _dpsgd_update(self, pairs: np.ndarray, positive: bool) -> None:
        """Clip per-pair grads, add BC-calibrated noise, average and apply.

        The sensitivity of the batch sum is B*C (Section III-B), so every
        updated row receives an independent draw of standard deviation
        B * C * sigma before the average (:func:`dpsgd_row_step`).
        """
        cfg = self.config
        grad_in, grad_out = self._pair_gradients(pairs, positive)
        dpsgd_row_step(
            ((self.w_in, pairs[:, 0], grad_in), (self.w_out, pairs[:, 1], grad_out)),
            self._noise_rng,
            cfg.clip_norm,
            cfg.noise_multiplier,
            cfg.learning_rate,
        )
        self.budget.charge(positive)

    def _train_batch(self, epoch: int, step: int) -> None:
        """One DPSGD batch: positive then negative sub-batch updates."""
        batch = self.sampler.sample()
        self._dpsgd_update(batch.positive_edges, positive=True)
        if self.budget.exhausted():
            raise BudgetExhausted
        self._dpsgd_update(batch.negative_pairs, positive=False)

    def _on_epoch_end(self, epoch: int, losses) -> None:
        """End-of-epoch hook (overridden by DP-ASGM to add generator steps)."""
        self.history.record("epsilon_spent", self.privacy_spent().epsilon)

    def fit(self, graph: Optional[Graph] = None, callbacks=()) -> "DPSGM":
        """Train until the epoch schedule ends or the budget is exhausted.

        The shared loop polls the budget before every batch; a mid-batch
        exhaustion (between the positive and negative sub-batches) aborts via
        :class:`BudgetExhausted`, skipping the epoch-end hook exactly like the
        original hand-rolled loop did.
        """
        self._bind_on_fit(graph)
        loop = TrainingLoop(
            self.config.num_epochs,
            self.config.batches_per_epoch,
            budget=self.budget,
            callbacks=callbacks,
        )
        self.stopped_early = loop.run(self._train_batch, self._on_epoch_end).stopped_early
        return self
