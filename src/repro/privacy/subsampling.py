"""Privacy amplification by subsampling without replacement.

Implements Theorem 4 of the paper (Wang, Balle & Kasiviswanathan, AISTATS
2019): if a base mechanism satisfies ``(alpha, eps(alpha))``-RDP, then running
it on a uniformly subsampled fraction ``gamma`` of the data satisfies
``(alpha, eps'(alpha))``-RDP with

    eps'(alpha) <= 1/(alpha-1) * log(1
        + gamma^2 C(alpha,2) min{4 (e^{eps(2)} - 1), e^{eps(2)} min{2, (e^{eps(inf)}-1)^2}}
        + sum_{j=3}^{alpha} gamma^j C(alpha,j) e^{(j-1) eps(j)} min{2, (e^{eps(inf)}-1)^j})

for integer ``alpha >= 2``.  For the Gaussian mechanism ``eps(inf)`` is
unbounded, so the ``min{...}`` terms resolve to ``min{4(e^{eps(2)}-1), 2 e^{eps(2)}}``
and ``2`` respectively.  All sums are evaluated in log space to avoid overflow
at large orders, by ``logsumexp`` below: a port of scipy 1.17.1's
``scipy.special.logsumexp`` for real 1-D input, kept in the repository so
the paper's epsilon does not depend on the installed scipy's version.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.privacy.gaussian import gaussian_rdp
from repro.utils.validation import check_probability


def logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` of a non-empty real 1-D array, as scipy 1.17.1 does.

    The maximum's copies are split out of the shifted sum for precision; a
    non-finite result (all ``-inf``, a ``+inf`` or a NaN entry) is recomputed
    directly, as scipy does.
    """
    a_max = a.max()
    at_max = a == a_max
    m = float(np.count_nonzero(at_max))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max))
        if s != 0:
            s /= m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def subsampled_rdp(
    alpha: int,
    gamma: float,
    base_rdp: Callable[[float], float],
) -> float:
    """Amplified RDP at integer order ``alpha`` for sampling rate ``gamma``.

    Parameters
    ----------
    alpha:
        Integer RDP order, ``alpha >= 2``.
    gamma:
        Subsampling probability (fraction of records in the batch).
    base_rdp:
        Function returning the *base* mechanism's RDP epsilon at a given
        order (e.g. ``lambda a: gaussian_rdp(a, sigma)``).
    """
    if int(alpha) != alpha or alpha < 2:
        raise ValueError(f"alpha must be an integer >= 2, got {alpha}")
    check_probability(gamma, "gamma")
    alpha = int(alpha)
    if gamma == 0:
        return 0.0
    if gamma == 1.0:
        return float(base_rdp(alpha))

    log_gamma = math.log(gamma)
    eps2 = float(base_rdp(2))
    # Gaussian mechanism: eps(inf) is unbounded, so the paper's inner min(...)
    # terms reduce to 2; the j=2 term keeps the tighter of its two options.
    j2_option_a = math.log(4.0) + math.log(math.expm1(eps2)) if eps2 > 0 else -math.inf
    j2_option_b = math.log(2.0) + eps2
    log_j2 = (
        2 * log_gamma
        + math.log(math.comb(alpha, 2))
        + min(j2_option_a, j2_option_b)
    )

    log_terms = [0.0, log_j2]  # the leading "1 +" is exp(0)
    for j in range(3, alpha + 1):
        eps_j = float(base_rdp(j))
        log_terms.append(
            j * log_gamma
            + math.log(math.comb(alpha, j))
            + (j - 1) * eps_j
            + math.log(2.0)
        )
    log_total = logsumexp(np.array(log_terms))
    amplified = log_total / (alpha - 1)
    # Amplification can never hurt: cap by the unsampled mechanism's epsilon.
    return float(min(amplified, base_rdp(alpha)))


def subsampled_gaussian_rdp(
    alpha: int,
    gamma: float,
    noise_multiplier: float,
) -> float:
    """Amplified RDP of the subsampled Gaussian mechanism at order ``alpha``."""
    return subsampled_rdp(
        alpha, gamma, lambda order: gaussian_rdp(order, noise_multiplier)
    )
