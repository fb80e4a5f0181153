"""Parameter initialisers used by the embedding models and GNN baselines.

Every initialiser draws from a numpy ``Generator``, so a fixed seed
initialises identically, and returns a plain ``float64`` ndarray.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


def xavier_uniform(shape: tuple[int, ...], rng: RngLike = None) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for dense layers."""
    rng = ensure_rng(rng)
    if len(shape) < 2:
        raise ValueError(f"xavier_uniform needs a >=2-D shape, got {shape}")
    fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def uniform_embedding(
    num_rows: int,
    dim: int,
    scale: float | None = None,
    rng: RngLike = None,
) -> np.ndarray:
    """Standard skip-gram embedding initialisation ``U(-0.5/dim, 0.5/dim)``.

    This mirrors the word2vec/LINE convention: small uniform values whose
    magnitude shrinks with the embedding dimension.
    """
    rng = ensure_rng(rng)
    if num_rows <= 0 or dim <= 0:
        raise ValueError(f"num_rows and dim must be positive, got {num_rows}, {dim}")
    if scale is None:
        scale = 0.5 / dim
    return rng.uniform(-scale, scale, size=(num_rows, dim))


def normal_init(
    shape: tuple[int, ...],
    std: float = 0.1,
    rng: RngLike = None,
) -> np.ndarray:
    """Zero-mean Gaussian initialisation with standard deviation ``std``."""
    rng = ensure_rng(rng)
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    return rng.normal(0.0, std, size=shape)
