"""Numerically stable activations and the row-wise dot product.

These are the only non-linearities used by the skip-gram family models and
the simplified GNN baselines.  Each accepts scalars or arrays and returns
``float64``.  ``sigmoid`` and ``sigmoid_pair`` are branch-free rewrites of
a boolean-mask sigmoid; ``tests/test_rewrite_parity.py`` pins them
byte-equal to it.

The models gather embedding rows with ``np.take(x, idx, axis=0)``, not
``x[idx]``: the same bytes as a fresh, writable array, without fancy
indexing's per-call set-up (about 3x faster at narrow rows; pinned by
``tests/test_rewrite_parity.py::TestTakeGather``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

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
