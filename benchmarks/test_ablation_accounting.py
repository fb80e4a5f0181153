"""Ablation: subsampled-RDP accounting vs naive sequential composition.

The accounting choice is a design decision worth ablating: the
subsampling amplification theorem (Theorem 4) is what allows AdvSGM to take
hundreds of gradient steps within a single-digit budget; naive sequential
composition of the unamplified Gaussian mechanism would exhaust the same
budget after a handful of steps.
"""

from conftest import run_once

from repro.privacy.accountant import RdpAccountant
from repro.privacy.composition import DEFAULT_RDP_ORDERS, rdp_to_dp
from repro.privacy.gaussian import gaussian_rdp


def _steps_with_and_without_amplification(sigma: float, gamma: float, epsilon: float, delta: float):
    amplified = RdpAccountant.max_steps_for_budget(epsilon, delta, sigma, gamma)

    # Naive: ignore subsampling, compose the raw Gaussian mechanism.
    def naive_epsilon(steps: int) -> float:
        curve = {order: steps * gaussian_rdp(order, sigma) for order in DEFAULT_RDP_ORDERS}
        return rdp_to_dp(curve, delta)[0]

    naive = 0
    while naive_epsilon(naive + 1) <= epsilon and naive < 100_000:
        naive += 1
    return amplified, naive


def test_ablation_subsampled_accounting(benchmark, bench_settings):
    sigma = bench_settings.noise_multiplier
    gamma = 0.05
    amplified, naive = run_once(
        benchmark, _steps_with_and_without_amplification, sigma, gamma, 3.0, bench_settings.delta
    )
    print(f"\nsteps within (3, 1e-5)-DP at sigma={sigma}, gamma={gamma}: "
          f"subsampled-RDP={amplified}, naive composition={naive}")
    assert amplified > 5 * max(1, naive)
