"""DP-ASGM: the paper's first-cut solution (Section III-B).

Adversarial skip-gram trained with DPSGD: the discriminator loss is
``L_sgm + lambda * L_adv`` with a *plain* adversarial module (no optimizable
noise terms), and privacy comes from perturbing the clipped gradient sum with
noise calibrated to the ``B * C`` sensitivity — exactly Eq. (6).  The
comparison against AdvSGM isolates the benefit of folding the noise into the
adversarial module's activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api.registry import register_model
from repro.baselines.dpsgm import DPSGM, DPSGMConfig
from repro.core.generator import GeneratorPair
from repro.graph.graph import Graph
from repro.nn.functional import pair_gradients, rowwise_dot, sigmoid
from repro.privacy.clipping import clip_rows_by_l2_norm
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_positive


@dataclass
class DPASGMConfig(DPSGMConfig):
    """DP-SGM hyper-parameters plus the adversarial-module weight."""

    adversarial_weight: float = 1.0
    generator_learning_rate: float = 0.1
    generator_steps: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive(self.adversarial_weight, "adversarial_weight")
        check_positive(self.generator_learning_rate, "generator_learning_rate")
        if self.generator_steps <= 0:
            raise ValueError("generator_steps must be positive")


@register_model(
    "dpasgm",
    aliases=("dp-asgm",),
    private=True,
    paper="Sec. III-B / Table V (DP-ASGM, the paper's first-cut solution)",
    description="Adversarial skip-gram trained with DPSGD (plain module)",
)
class DPASGM(DPSGM):
    """Adversarial skip-gram + DPSGD (the DP-ASGM baseline)."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        config: Optional[DPASGMConfig] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(graph, config or DPASGMConfig(), rng=rng)

    def _setup(self, graph: Graph) -> None:
        """Bind ``graph``; splits the seed stream exactly as before.

        The parent consumes a child stream (``model_rng``) and the generator
        pair another (``gen_rng``), preserving seed-for-seed parity with the
        construction-time binding this class always had.
        """
        cfg: DPASGMConfig = self.config  # type: ignore[assignment]
        model_rng, gen_rng = spawn_rngs(self._rng, 2)
        self._rng = model_rng
        super()._setup(graph)
        self.generators = GeneratorPair(
            embedding_dim=cfg.embedding_dim,
            noise_multiplier=cfg.noise_multiplier,
            clip_norm=cfg.clip_norm,
            dp_enabled=False,  # the plain adversarial module has no noise terms
            rng=gen_rng,
        )

    def _pair_gradients(self, pairs: np.ndarray, positive: bool):
        """Skip-gram gradients plus the plain adversarial-module gradient.

        For the plain module the gradient contribution of the adversarial
        term is ``lambda * F(v_i . v'_j) * v'_j`` (Eq. 11) — it cannot be
        folded into a DP mechanism, hence the extra DPSGD noise added by the
        parent class.  The discriminant values read the raw rows, so they
        are taken before :func:`pair_gradients` scales the rows in place.
        """
        cfg: DPASGMConfig = self.config  # type: ignore[assignment]
        count = pairs.shape[0]
        vi = np.take(self.w_in, pairs[:, 0], axis=0)
        vj = np.take(self.w_out, pairs[:, 1], axis=0)
        fake_vj, fake_vi = self.generators.generate_pairs(count)
        f1 = sigmoid(rowwise_dot(vi, fake_vj))
        f2 = sigmoid(rowwise_dot(fake_vi, vj))
        _, _, grad_in, grad_out = pair_gradients(vi, vj, count if positive else 0)
        grad_in = grad_in + cfg.adversarial_weight * f1[:, None] * fake_vj
        grad_out = grad_out + cfg.adversarial_weight * f2[:, None] * fake_vi
        return (
            clip_rows_by_l2_norm(grad_in, cfg.clip_norm),
            clip_rows_by_l2_norm(grad_out, cfg.clip_norm),
        )

    def _on_epoch_end(self, epoch: int, losses) -> None:
        """Generator updates between DPSGD epochs (post-processing), then log.

        Inherits the discriminator batch schedule and budget stop from
        :meth:`DPSGM.fit` via the shared training loop.
        """
        cfg: DPASGMConfig = self.config  # type: ignore[assignment]
        for _ in range(cfg.generator_steps):
            batch = self.sampler.sample()
            pairs = batch.positive_edges
            self.generators.train_step(
                np.take(self.w_in, pairs[:, 0], axis=0),
                np.take(self.w_out, pairs[:, 1], axis=0),
                learning_rate=cfg.generator_learning_rate,
            )
        super()._on_epoch_end(epoch, losses)
