"""AdvSGM training algorithm (Algorithm 3 of the paper).

The trainer alternates between:

* ``discriminator_steps`` discriminator iterations per epoch.  Each iteration
  samples fake neighbours from the generators, draws a batch of ``B``
  positive edges and ``B*k`` negative pairs (Algorithm 2), and applies the
  Theorem-6 perturbed gradient update twice — once on the positive sub-batch
  and once on the negative sub-batch — recording each as one subsampled
  Gaussian mechanism invocation with sampling rate ``B/|E|`` and ``B*k/|V|``
  respectively (Theorem 7).  After every update the RDP accountant is
  queried; training stops as soon as the implied failure probability at the
  target epsilon exceeds delta (lines 9-11).
* ``generator_steps`` generator iterations per epoch, which only consume the
  (already privatised) discriminator embeddings and are therefore covered by
  the post-processing property.

When ``config.dp_enabled`` is ``False`` the same architecture trains without
noise and without accounting — this is the "AdvSGM (No DP)" model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.api.estimator import EstimatorMixin
from repro.api.registry import register_model
from repro.backend import NUMPY_BACKEND
from repro.core.config import AdvSGMConfig
from repro.core.discriminator import AdvSGMDiscriminator
from repro.core.generator import GeneratorPair
from repro.graph.graph import Graph
from repro.graph.sampling import EdgeSampler
from repro.nn.functional import rowwise_dot
from repro.privacy.accountant import PrivacySpent, RdpAccountant
from repro.train import BudgetExhausted, PrivacyBudget, TrainingLoop
from repro.utils.logging import TrainingHistory
from repro.utils.rng import RngLike, spawn_rngs


@register_model(
    "advsgm",
    aliases=("adv-sgm",),
    private=True,
    paper="Sec. V, Algorithm 3 (the paper's contribution)",
    description="DP adversarial skip-gram with optimizable noise terms",
)
class AdvSGM(EstimatorMixin):
    """Differentially private adversarial skip-gram trainer.

    Parameters
    ----------
    graph:
        Training graph; omit to create an unbound estimator and pass the
        graph to :meth:`fit` instead.
    config:
        :class:`AdvSGMConfig`; defaults follow the paper.
    rng:
        Seed or generator; all stochastic subcomponents derive their streams
        from it, so a fixed seed makes the whole run reproducible.

    Examples
    --------
    >>> from repro import AdvSGM, AdvSGMConfig, load_dataset
    >>> graph = load_dataset("ppi", scale=0.25)
    >>> config = AdvSGMConfig(num_epochs=2, epsilon=6.0)
    >>> model = AdvSGM(graph, config, rng=0).fit()
    >>> model.embeddings.shape[0] == graph.num_nodes
    True
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[AdvSGMConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.config = config or AdvSGMConfig()
        self._rng = rng
        self.graph: Optional[Graph] = None
        self.history = TrainingHistory()
        self.stopped_early = False
        self._fitted = False
        self.accountant = None
        self.budget = None
        if graph is not None:
            self._setup(graph)

    def _setup(self, graph: Graph) -> None:
        """Bind ``graph``: build discriminator, generators, sampler, budget."""
        self.graph = graph
        self.backend_ = NUMPY_BACKEND
        disc_rng, gen_rng, sample_rng = spawn_rngs(self._rng, 3)

        self.discriminator = AdvSGMDiscriminator(graph.num_nodes, self.config, rng=disc_rng)
        self.generators = GeneratorPair(
            embedding_dim=self.config.embedding_dim,
            noise_multiplier=self.config.noise_multiplier,
            clip_norm=self.config.clip_norm,
            sigmoid_a=self.config.sigmoid_a,
            sigmoid_b=self.config.sigmoid_b,
            dp_enabled=self.config.dp_enabled,
            rng=gen_rng,
        )
        self.sampler = EdgeSampler(
            graph,
            batch_size=self.config.batch_size,
            num_negatives=self.config.num_negatives,
            rng=sample_rng,
            negative_distribution=self.config.negative_distribution,
        )
        self.accountant = (
            RdpAccountant(self.config.noise_multiplier, orders=self.config.rdp_orders)
            if self.config.dp_enabled
            else None
        )
        self.budget = (
            PrivacyBudget(self.accountant, self.config.epsilon, self.config.delta)
            if self.accountant is not None
            else None
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def embeddings(self) -> np.ndarray:
        """Privacy-preserving node embeddings (``W_in``)."""
        return self.discriminator.embeddings

    def privacy_spent(self) -> Optional[PrivacySpent]:
        """Converted (epsilon, delta) guarantee so far (``None`` if DP is off)."""
        if self.accountant is None:
            return None
        return self.accountant.get_privacy_spent(self.config.delta)

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Link-prediction scores (inner products of released node vectors)."""
        pairs = np.asarray(pairs, dtype=np.int64)
        emb = self.discriminator.w_in
        scores = rowwise_dot(np.take(emb, pairs[:, 0], axis=0), np.take(emb, pairs[:, 1], axis=0))
        return self.backend_.to_numpy(scores)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _budget_exhausted(self) -> bool:
        """Line 10-11 of Algorithm 3 (delegated to the shared PrivacyBudget)."""
        return self.budget is not None and self.budget.exhausted()

    def _discriminator_substep(self, pairs: np.ndarray, positive: bool, rate: float) -> None:
        """One Theorem-6 update on a positive or negative sub-batch."""
        count = pairs.shape[0]
        fake_vj, fake_vi = self.generators.generate_pairs(count)
        grads = self.discriminator.perturbed_batch_gradients(
            pairs, fake_vj, fake_vi, positive=positive
        )
        self.discriminator.apply_gradients(
            *grads, learning_rate=self.config.learning_rate_d
        )
        if self.accountant is not None:
            self.accountant.step(rate)

    def _train_discriminator_iteration(self) -> bool:
        """One of the nD discriminator iterations; returns False on budget stop."""
        batch = self.sampler.sample()
        # Sub-step on the positive batch E_B (sampling rate B / |E|).
        if self._budget_exhausted():
            return False
        self._discriminator_substep(
            batch.positive_edges, positive=True, rate=self.sampler.edge_sampling_probability
        )
        if self._budget_exhausted():
            return False
        # Sub-step on the negative batch E_Bk (sampling rate B*k / |V|).
        self._discriminator_substep(
            batch.negative_pairs, positive=False, rate=self.sampler.node_sampling_probability
        )
        return not self._budget_exhausted()

    def _train_generator_iteration(self) -> float:
        """One of the nG generator iterations (post-processing, no accounting)."""
        batch = self.sampler.sample()
        pairs = batch.positive_edges
        real_vi = np.take(self.discriminator.w_in, pairs[:, 0], axis=0)
        real_vj = np.take(self.discriminator.w_out, pairs[:, 1], axis=0)
        return self.generators.train_step(
            real_vi, real_vj, learning_rate=self.config.learning_rate_g
        )

    def fit(self, graph: Optional[Graph] = None, callbacks=()) -> "AdvSGM":
        """Run Algorithm 3 through the shared training loop and return ``self``.

        Each loop step is one discriminator iteration; the generator phase is
        post-processing (free under DP), so it runs in the epoch-end hook even
        for the epoch in which the budget ran out
        (``finish_epoch_on_stop=True``).  Calling ``fit`` twice raises to
        avoid silently double-spending the privacy budget.
        """
        self._bind_on_fit(graph)
        if self._fitted:
            raise RuntimeError("fit() may only be called once per AdvSGM instance")
        self._fitted = True

        def step(epoch: int, step_idx: int) -> None:
            if not self._train_discriminator_iteration():
                raise BudgetExhausted

        def epoch_end(epoch: int, losses) -> None:
            gen_loss = 0.0
            for _ in range(self.config.generator_steps):
                gen_loss += self._train_generator_iteration()
            self.history.record("generator_loss", gen_loss / self.config.generator_steps)
            spent = self.privacy_spent()
            if spent is not None:
                self.history.record("epsilon_spent", spent.epsilon)

        loop = TrainingLoop(
            self.config.num_epochs,
            self.config.discriminator_steps,
            finish_epoch_on_stop=True,
            callbacks=callbacks,
        )
        self.stopped_early = loop.run(step, epoch_end).stopped_early
        return self
