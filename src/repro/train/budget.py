"""The privacy handle of the seven DP models (Algorithm 3 lines 9-11, Theorem 7).

AdvSGM, DPSGM/DPASGM, DPGGAN, DPGVAE, GAP and DPAR each hold one
:class:`PrivacyBudget`, the only place that builds their RDP accountant,
picks the sampling rate of a charge, checks Algorithm 3's stop rule and
converts the spend.  The :class:`~repro.train.loop.TrainingLoop` polls
:meth:`PrivacyBudget.exhausted` before every step; AdvSGM and DPSGM also
check it between the substeps of a step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graph.sampling import EdgeSampler
from repro.privacy.accountant import PrivacySpent, RdpAccountant


def _release_sigma(epsilon: float, delta: float, releases: int) -> float:
    """Smallest noise multiplier for ``releases`` full-graph Gaussian releases."""
    return RdpAccountant.calibrate_noise_multiplier(
        target_epsilon=epsilon, target_delta=delta, sampling_rate=1.0, num_steps=releases
    )


def _refuse_empty_budget(epsilon: float, delta: float) -> None:
    """Raise when an accountant that has charged nothing is already exhausted.

    Uncharged, the converted epsilon is ``log(1/delta) / (max order - 1)``
    whatever the noise multiplier (0.183 at delta 1e-5, orders up to 64), so
    a smaller target admits no step and the model would release its
    initialisation.
    """
    empty = RdpAccountant(1.0)
    if empty.budget_exhausted(epsilon, delta):
        floor = empty.get_privacy_spent(delta).epsilon
        raise ValueError(
            f"epsilon={epsilon:g} at delta={delta:g} admits no training step: "
            f"an untrained model already reports epsilon {floor:.3f}"
        )


@dataclass
class PrivacyBudget:
    """A target ``(epsilon, delta)`` tracked by an RDP accountant.

    ``sampler`` is the model's :class:`EdgeSampler`, whose batch sizes set
    the sampling rates; ``None`` when every release reads the whole graph.
    Training must stop once the accountant's implied failure probability at
    ``epsilon`` reaches ``delta``.
    """

    accountant: RdpAccountant
    epsilon: float
    delta: float
    sampler: Optional[EdgeSampler] = None

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    @classmethod
    def sampled(
        cls,
        sampler: EdgeSampler,
        noise_multiplier: float,
        epsilon: float,
        delta: float,
    ) -> "PrivacyBudget":
        """Handle of a trainer charging ``sampler``'s batches.

        Refuses a target admitting no step.
        """
        _refuse_empty_budget(epsilon, delta)
        return cls(RdpAccountant(noise_multiplier), epsilon, delta, sampler)

    @classmethod
    def calibrated(cls, releases: int, epsilon: float, delta: float) -> "PrivacyBudget":
        """Handle of ``releases`` full-graph releases, sigma calibrated so all fit the target.

        Refuses a target admitting no step.
        """
        _refuse_empty_budget(epsilon, delta)
        return cls(RdpAccountant(_release_sigma(epsilon, delta, releases)), epsilon, delta)

    def uncharged_aggregation_sigma(self) -> float:
        """Sigma of DPGVAE's GCN aggregation: one release at ``(epsilon/2, delta/2)``.

        It is charged to no accountant, so :meth:`spent` does not cover it
        (ROADMAP item 13).
        """
        return _release_sigma(self.epsilon / 2.0, self.delta / 2.0, 1)

    def exhausted(self) -> bool:
        """Line 10-11 of Algorithm 3: stop when delta-hat >= delta."""
        return self.accountant.budget_exhausted(self.epsilon, self.delta)

    def charge(self, positive: bool = True) -> None:
        """Charge one mechanism invocation at its sampling rate (Theorem 7).

        ``B/|E|`` for a positive batch, ``Bk/|V|`` for a negative one, 1.0
        without a sampler (a full-graph release).
        """
        if self.sampler is None:
            rate = 1.0
        elif positive:
            rate = self.sampler.edge_sampling_probability
        else:
            rate = self.sampler.node_sampling_probability
        self.accountant.step(rate)

    def spent(self) -> PrivacySpent:
        """Converted ``(epsilon, delta)`` guarantee consumed so far."""
        return self.accountant.get_privacy_spent(self.delta)


class PrivateModelMixin:
    """``accountant`` and ``privacy_spent`` of a model holding its handle at ``budget``.

    ``budget`` is ``None`` until a graph is bound, and for AdvSGM with DP off.
    """

    budget: Optional[PrivacyBudget] = None

    @property
    def accountant(self) -> Optional[RdpAccountant]:
        return None if self.budget is None else self.budget.accountant

    def privacy_spent(self) -> Optional[PrivacySpent]:
        """Converted (epsilon, delta) spend so far (``None`` without a handle)."""
        return None if self.budget is None else self.budget.spent()
