"""The RDP order grid and conversion to (epsilon, delta)-DP.

Sequential composition (Theorem 1) adds RDP epsilons per order; the
accountant keeps that running sum.  Conversion (Theorem 3, Mironov 2017): an
``(alpha, eps)``-RDP mechanism is ``(eps + log(1/delta)/(alpha - 1),
delta)``-DP; the accountant minimises the converted epsilon over a grid of
orders.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_probability

# Integer orders only: the subsampling amplification bound (Theorem 4) is
# stated for integer alpha.  2..64 covers the regimes used in the paper
# (sigma = 5, gamma in the percent range, tens of epochs).
DEFAULT_RDP_ORDERS: Tuple[int, ...] = tuple(range(2, 65))


def rdp_to_dp(
    rdp: Dict[int, float] | Sequence[float],
    delta: float,
    orders: Sequence[int] = DEFAULT_RDP_ORDERS,
) -> Tuple[float, int]:
    """Convert an RDP curve to the tightest (epsilon, delta)-DP guarantee.

    Parameters
    ----------
    rdp:
        Either a mapping ``order -> epsilon`` or a sequence aligned with
        ``orders``.
    delta:
        Target failure probability.

    Returns
    -------
    (epsilon, best_order):
        The smallest converted epsilon and the order achieving it.
    """
    check_probability(delta, "delta")
    if delta <= 0:
        raise ValueError("delta must be strictly positive for the conversion")
    if isinstance(rdp, dict):
        pairs = [(int(order), float(eps)) for order, eps in sorted(rdp.items())]
    else:
        rdp_seq = list(rdp)
        if len(rdp_seq) != len(orders):
            raise ValueError(
                f"rdp sequence length {len(rdp_seq)} does not match orders {len(orders)}"
            )
        pairs = [(int(order), float(eps)) for order, eps in zip(orders, rdp_seq)]

    best_eps = np.inf
    best_order = pairs[0][0]
    for order, eps in pairs:
        if order <= 1:
            continue
        converted = eps + np.log(1.0 / delta) / (order - 1)
        if converted < best_eps:
            best_eps = converted
            best_order = order
    return float(best_eps), int(best_order)
