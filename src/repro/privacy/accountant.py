"""RDP privacy accountant.

Tracks cumulative Renyi-DP over training steps of subsampled Gaussian
mechanisms and converts the running total to (epsilon, delta)-DP.  This is
the accountant Algorithm 3 consults after every discriminator update (lines
9-11): training stops once the spent budget would exceed the target.

The accountant also offers inverse calibration: given a target (epsilon,
delta), a sampling rate and a step count, find the smallest noise multiplier
sigma that stays within budget — or, as used by AdvSGM's experiments, given a
fixed sigma find how many steps fit in the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.privacy.composition import DEFAULT_RDP_ORDERS, rdp_to_dp
from repro.privacy.subsampling import subsampled_gaussian_rdp
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class PrivacySpent:
    """Snapshot of the accountant's converted privacy guarantee."""

    epsilon: float
    delta: float
    best_order: int


class RdpAccountant:
    """Accumulates RDP over steps of subsampled Gaussian mechanisms.

    Parameters
    ----------
    noise_multiplier:
        Gaussian noise multiplier sigma (in units of the sensitivity).
    orders:
        Integer RDP orders to track.
    """

    def __init__(
        self,
        noise_multiplier: float,
        orders: Sequence[int] = DEFAULT_RDP_ORDERS,
    ) -> None:
        check_positive(noise_multiplier, "noise_multiplier")
        self.noise_multiplier = float(noise_multiplier)
        self.orders = tuple(int(o) for o in orders)
        if any(o < 2 for o in self.orders):
            raise ValueError("all RDP orders must be integers >= 2")
        if len(set(self.orders)) != len(self.orders):
            raise ValueError(f"RDP orders must be distinct, got {self.orders}")
        # The running total and the cached per-rate curves are float64
        # arrays aligned with ``orders``: a step is one vector add.
        self._rdp = np.zeros(len(self.orders))
        self._one_minus_order = 1.0 - np.array(self.orders, dtype=np.float64)
        self._steps = 0
        self._curve_cache: Dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def _per_step_curve(self, sampling_rate: float) -> np.ndarray:
        """RDP curve of a single subsampled Gaussian step (cached per rate)."""
        key = round(float(sampling_rate), 12)
        cached = self._curve_cache.get(key)
        if cached is None:
            cached = np.array(
                [subsampled_gaussian_rdp(order, key, self.noise_multiplier)
                 for order in self.orders],
                dtype=np.float64,
            )
            self._curve_cache[key] = cached
        return cached

    def step(self, sampling_rate: float, num_steps: int = 1) -> None:
        """Record ``num_steps`` mechanism invocations at ``sampling_rate``."""
        check_probability(sampling_rate, "sampling_rate")
        if num_steps < 0:
            raise ValueError(f"num_steps must be >= 0, got {num_steps}")
        if num_steps == 0 or sampling_rate == 0:
            return
        self._rdp += num_steps * self._per_step_curve(sampling_rate)
        self._steps += num_steps

    @property
    def steps(self) -> int:
        """Number of recorded mechanism invocations."""
        return self._steps

    @property
    def rdp(self) -> Dict[int, float]:
        """Copy of the accumulated per-order RDP epsilons."""
        return dict(zip(self.orders, self._rdp.tolist()))

    # ------------------------------------------------------------------
    # conversion / queries
    # ------------------------------------------------------------------
    def get_privacy_spent(self, delta: float) -> PrivacySpent:
        """Convert the accumulated RDP to the tightest (epsilon, delta)-DP."""
        epsilon, order = rdp_to_dp(self.rdp, delta, self.orders)
        return PrivacySpent(epsilon=epsilon, delta=delta, best_order=order)

    def get_delta_spent(self, target_epsilon: float) -> float:
        """Smallest delta achievable for ``target_epsilon`` (inverse query).

        Used by Algorithm 3 line 10: given the target epsilon, the trainer
        checks whether the implied failure probability has reached delta.
        """
        check_positive(target_epsilon, "target_epsilon")
        # From Theorem 3: epsilon = eps_rdp + log(1/delta)/(alpha-1)
        #             =>  delta  = exp(-(alpha-1)(epsilon - eps_rdp))
        # Capping the exponent at 0 caps delta at 1 and keeps exp() finite.
        exponent = self._one_minus_order * (target_epsilon - self._rdp)
        return float(np.exp(np.minimum(exponent, 0.0)).min(initial=1.0))

    def budget_exhausted(self, target_epsilon: float, target_delta: float) -> bool:
        """Algorithm 3's stop rule: the implied delta has reached ``target_delta``.

        True once ``get_delta_spent(target_epsilon) >= target_delta``.
        """
        return self.get_delta_spent(target_epsilon) >= target_delta

    # ------------------------------------------------------------------
    # calibration helpers
    # ------------------------------------------------------------------
    @staticmethod
    def max_steps_for_budget(
        target_epsilon: float,
        target_delta: float,
        noise_multiplier: float,
        sampling_rate: float,
        orders: Sequence[int] = DEFAULT_RDP_ORDERS,
        max_steps: int = 1_000_000,
    ) -> int:
        """Largest step count whose spend stays within the target budget.

        Uses the linearity of RDP composition: the per-step curve is computed
        once, scaled by a candidate step count and converted; binary search
        finds the largest admissible count.
        """
        check_positive(target_epsilon, "target_epsilon")
        check_probability(target_delta, "target_delta")
        check_probability(sampling_rate, "sampling_rate")
        per_step = {
            order: subsampled_gaussian_rdp(order, sampling_rate, noise_multiplier)
            for order in orders
        }

        def _epsilon_at(steps: int) -> float:
            scaled = {order: steps * eps for order, eps in per_step.items()}
            eps, _ = rdp_to_dp(scaled, target_delta, orders)
            return eps

        if _epsilon_at(1) > target_epsilon:
            return 0
        lo, hi = 1, 1
        while hi < max_steps and _epsilon_at(hi) <= target_epsilon:
            lo, hi = hi, hi * 2
        hi = min(hi, max_steps)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _epsilon_at(mid) <= target_epsilon:
                lo = mid
            else:
                hi = mid - 1
        return lo

    @staticmethod
    def calibrate_noise_multiplier(
        target_epsilon: float,
        target_delta: float,
        sampling_rate: float,
        num_steps: int,
        orders: Sequence[int] = DEFAULT_RDP_ORDERS,
        lower: float = 0.3,
        upper: float = 200.0,
        tolerance: float = 1e-3,
    ) -> float:
        """Smallest sigma such that ``num_steps`` steps stay within budget."""
        check_positive(target_epsilon, "target_epsilon")
        check_probability(target_delta, "target_delta")
        check_probability(sampling_rate, "sampling_rate")
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")

        def _epsilon_for(sigma: float) -> float:
            curve = {
                order: num_steps
                * subsampled_gaussian_rdp(order, sampling_rate, sigma)
                for order in orders
            }
            eps, _ = rdp_to_dp(curve, target_delta, orders)
            return eps

        if _epsilon_for(upper) > target_epsilon:
            raise ValueError(
                "even the largest considered noise multiplier exceeds the budget"
            )
        lo, hi = lower, upper
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if _epsilon_for(mid) <= target_epsilon:
                hi = mid
            else:
                lo = mid
        return hi
