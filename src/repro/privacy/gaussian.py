"""The Gaussian mechanism's Renyi-DP curve.

For a function ``f`` with L2 sensitivity ``Delta``, adding noise
``N(0, sigma^2 Delta^2 I)`` yields ``(alpha, alpha / (2 sigma^2))``-RDP for
every order ``alpha > 1`` (Mironov 2017, Proposition 7; the paper states this
as ``epsilon = alpha Delta^2 / (2 sigma^2)`` with the sensitivity folded in).
"""

from __future__ import annotations

from repro.utils.validation import check_positive


def gaussian_rdp(alpha: float, noise_multiplier: float) -> float:
    """RDP epsilon of the Gaussian mechanism at order ``alpha``.

    ``noise_multiplier`` is ``sigma / Delta`` — the noise standard deviation
    expressed in units of the sensitivity.
    """
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    check_positive(noise_multiplier, "noise_multiplier")
    return float(alpha / (2.0 * noise_multiplier**2))
