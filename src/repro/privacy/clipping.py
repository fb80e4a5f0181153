"""L2 gradient clipping as used by DPSGD (Eq. 5 of the paper).

``clip(g, C) = g / max(1, ||g||_2 / C)`` — a gradient whose norm is already
below ``C`` is untouched, larger gradients are rescaled onto the C-sphere.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


def clip_by_l2_norm(gradient: np.ndarray, clip_norm: float) -> np.ndarray:
    """Clip a single gradient tensor to L2 norm at most ``clip_norm``."""
    check_positive(clip_norm, "clip_norm")
    grad = np.asarray(gradient, dtype=np.float64)
    norm = float(np.linalg.norm(grad))
    scale = max(1.0, norm / clip_norm)
    return grad / scale


def clip_rows_by_l2_norm(gradients: np.ndarray, clip_norm: float) -> np.ndarray:
    """Clip every row of a ``(batch, dim)`` per-example gradient matrix."""
    check_positive(clip_norm, "clip_norm")
    grads = np.asarray(gradients, dtype=np.float64)
    if grads.ndim != 2:
        raise ValueError(f"expected a 2-D per-example gradient matrix, got {grads.shape}")
    # What np.linalg.norm(grads, axis=1) computes, without its dispatch.
    norms = np.sqrt(np.add.reduce(grads * grads, axis=1))
    scales = np.maximum(1.0, norms / clip_norm)
    return grads / scales[:, None]
