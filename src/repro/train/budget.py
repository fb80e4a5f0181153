"""Privacy-budget early stopping (Algorithm 3 lines 9-11), in one place.

Every DP trainer used to duplicate the same three lines: ask the RDP
accountant for the failure probability implied by the target epsilon and
compare it against delta.  :class:`PrivacyBudget` owns that check now (the
comparison itself is :meth:`RdpAccountant.budget_exhausted`); the
:class:`~repro.train.loop.TrainingLoop` polls it before every step, and
trainers query it between the positive/negative sub-batches of a step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.privacy.accountant import PrivacySpent, RdpAccountant


@dataclass
class PrivacyBudget:
    """A target ``(epsilon, delta)`` budget tracked by an RDP accountant.

    Attributes
    ----------
    accountant:
        The :class:`RdpAccountant` the trainer charges its mechanism
        invocations to.
    epsilon, delta:
        The target guarantee.  Training must stop once the accountant's
        implied failure probability at ``epsilon`` reaches ``delta``.
    """

    accountant: RdpAccountant
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    def exhausted(self) -> bool:
        """Line 10-11 of Algorithm 3: stop when delta-hat >= delta."""
        return self.accountant.budget_exhausted(self.epsilon, self.delta)

    def spent(self) -> PrivacySpent:
        """Converted ``(epsilon, delta)`` guarantee consumed so far."""
        return self.accountant.get_privacy_spent(self.delta)
