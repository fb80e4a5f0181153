"""AdvSGM training algorithm (Algorithm 3 of the paper).

The trainer alternates between:

* ``discriminator_steps`` discriminator iterations per epoch.  Each iteration
  samples fake neighbours from the generators, draws a batch of ``B``
  positive edges and ``B*k`` negative pairs (Algorithm 2), and applies the
  Theorem-6 perturbed gradient update twice — once on the positive sub-batch
  and once on the negative sub-batch — recording each as one subsampled
  Gaussian mechanism invocation with sampling rate ``B/|E|`` and ``B*k/|V|``
  respectively (Theorem 7).  Before and after every update the privacy
  handle (:class:`~repro.train.PrivacyBudget`) is queried; training stops as
  soon as the implied failure probability at the target epsilon reaches
  delta (lines 9-11).
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
from repro.nn.functional import score_pairs
from repro.train import BudgetExhausted, PrivacyBudget, PrivateModelMixin, TrainingLoop
from repro.utils.logging import TrainingHistory
from repro.utils.rng import RngLike, spawn_rngs


@register_model(
    "advsgm",
    aliases=("adv-sgm",),
    private=True,
    paper="Sec. V, Algorithm 3 (the paper's contribution)",
    description="DP adversarial skip-gram with optimizable noise terms",
)
class AdvSGM(PrivateModelMixin, EstimatorMixin):
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
        if self.config.dp_enabled:
            self.budget = PrivacyBudget.sampled(
                self.sampler,
                self.config.noise_multiplier,
                self.config.epsilon,
                self.config.delta,
                orders=self.config.rdp_orders,
            )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def embeddings(self) -> np.ndarray:
        """Privacy-preserving node embeddings (``W_in``)."""
        return self.discriminator.embeddings

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Link-prediction scores (inner products of released node vectors)."""
        return self.backend_.to_numpy(score_pairs(pairs, self.discriminator.w_in))

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _discriminator_substep(self, pairs: np.ndarray, positive: bool) -> None:
        """One Theorem-6 update on a positive or negative sub-batch."""
        count = pairs.shape[0]
        fake_vj, fake_vi = self.generators.generate_pairs(count)
        grads = self.discriminator.perturbed_batch_gradients(
            pairs, fake_vj, fake_vi, positive=positive
        )
        self.discriminator.apply_gradients(
            *grads, learning_rate=self.config.learning_rate_d
        )
        if self.budget is not None:
            self.budget.charge(positive)

    def _train_discriminator_iteration(self) -> bool:
        """One of the nD discriminator iterations; returns False on budget stop.

        The budget is checked before the positive batch E_B, before the
        negative batch E_Bk and after both (lines 9-11).
        """
        batch = self.sampler.sample()
        budget = self.budget
        for pairs, positive in ((batch.positive_edges, True), (batch.negative_pairs, False)):
            if budget is not None and budget.exhausted():
                return False
            self._discriminator_substep(pairs, positive)
        return budget is None or not budget.exhausted()

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
