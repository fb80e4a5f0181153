"""Numerically stable activations, the row-wise dot product, pair scores and
the skip-gram pair gradient.

These are the only non-linearities used by the skip-gram family models and
the simplified GNN baselines.  Each accepts scalars or arrays and returns
``float64``.  ``sigmoid`` and ``sigmoid_pair`` are branch-free rewrites of
a boolean-mask sigmoid; ``tests/test_rewrite_parity.py`` pins them
byte-equal to it.  :func:`pair_gradients` is the one skip-gram pair
gradient: every skip-gram trainer and DPGGAN's discriminator call it, and
each keeps its own reduction of the per-pair rows.

The models gather embedding rows with ``np.take(x, idx, axis=0)``, not
``x[idx]``: the same bytes as a fresh, writable array, without fancy
indexing's per-call set-up (about 3x faster at narrow rows; pinned by
``tests/test_rewrite_parity.py::TestTakeGather``).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

#: Pairs :func:`score_pairs` gathers and scores at a time, so scoring many
#: pairs (a link-prediction probe) holds two blocks of rows, not two
#: gathered copies of every pair's rows.
PAIR_SCORE_BLOCK = 4096

# Sigmoid saturates numerically past |x| ~ 36 in float64; clipping the input
# keeps exp() away from overflow without changing the value of the output.
SIGMOID_CLIP = 500.0


def _sigmoid_branches(x) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clipped ``x`` and the sigmoid's two branches, ``1 / d`` and ``e / d``.

    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below: both
    branches share e = exp(-|x|) and d = 1 + e, so one pass over x computes
    either.  min(x, -x) is -|x| but keeps a NaN's sign, as exp(x) did.
    """
    x = np.clip(np.asarray(x, dtype=np.float64), -SIGMOID_CLIP, SIGMOID_CLIP)
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return x, 1.0 / d, e / d


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, stable for large positive and negative inputs."""
    x, upper, lower = _sigmoid_branches(x)
    return np.where(x >= 0, upper, lower)


def sigmoid_pair(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(sigmoid(x), sigmoid(-x))`` from one pass over ``x``.

    The clip is symmetric and ``-|x|`` is the same for ``-x``, so the second
    is the first with its branches swapped: the same bytes, except that a NaN
    input gives a NaN of the other sign.
    """
    x, upper, lower = _sigmoid_branches(x)
    return np.where(x >= 0, upper, lower), np.where(x <= 0, upper, lower)


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """``log(sigmoid(x))`` computed without intermediate underflow."""
    x = np.asarray(x, dtype=np.float64)
    # log sigma(x) = -softplus(-x) = min(x, 0) - log1p(exp(-|x|))
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row inner products: ``(n, d), (n, d) -> (n,)``."""
    return np.einsum("ij,ij->i", a, b)


def score_pairs(
    pairs: np.ndarray, left: np.ndarray, right: Optional[np.ndarray] = None
) -> np.ndarray:
    """``left[i] . right[j]`` for each ``(i, j)`` row of an ``(n, 2)`` pair array.

    ``right`` defaults to ``left``.  Each block of :data:`PAIR_SCORE_BLOCK`
    pairs gathers its rows and scores them with :func:`rowwise_dot`; a row's
    score does not depend on the rows beside it, so the result has the same
    bytes as one pass over all pairs.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    right = left if right is None else right
    scores = np.empty(pairs.shape[0], dtype=np.result_type(left, right))
    for start in range(0, pairs.shape[0], PAIR_SCORE_BLOCK):
        block = pairs[start : start + PAIR_SCORE_BLOCK]
        scores[start : start + block.shape[0]] = rowwise_dot(
            np.take(left, block[:, 0], axis=0), np.take(right, block[:, 1], axis=0)
        )
    return scores


def pair_gradients(
    vi: np.ndarray,
    vj: np.ndarray,
    num_positive: int,
    sigmoid: Callable[[np.ndarray], np.ndarray] = sigmoid,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair ascent gradients of the skip-gram objective (Eq. 2).

    ``vi`` and ``vj`` are the gathered ``(n, d)`` rows of each pair's two
    sides; the first ``num_positive`` pairs are positives, the rest
    negatives.  A pair scores ``x = vi . vj``; its coefficient is
    ``1 - S(x)`` (the derivative of ``log S(x)``) for a positive and
    ``-S(x)`` (of ``log S(-x)``) for a negative, and each side's gradient
    is the other side's row times it.  ``S`` is :func:`sigmoid` or
    AdvSGM's ``ConstrainedSigmoid``.

    Returns ``(scores, s, grad_vi, grad_vj)``.  The gradients are ``vj``
    and ``vi`` scaled in place, so a caller that needs the raw rows reads
    them first.
    """
    scores = rowwise_dot(vi, vj)
    s = sigmoid(scores)
    coeff = -s
    coeff[:num_positive] = 1.0 - s[:num_positive]
    vj *= coeff[:, None]
    vi *= coeff[:, None]
    return scores, s, vj, vi
