"""Random-number-generator helpers.

Every stochastic component in the library accepts either an integer seed, a
``numpy.random.Generator`` or ``None``.  ``ensure_rng`` normalises all three
to a ``Generator`` so that experiments are reproducible end to end.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, or an existing
        ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"seed must be None, an int or a numpy Generator, got {type(seed)!r}"
    )


def shuffle_rows(pairs: np.ndarray, rng: np.random.Generator) -> None:
    """Shuffle the rows of a C-contiguous ``(n, 2)`` array in place.

    Viewed as one opaque item per row, the array is shuffled by the same
    Fisher-Yates draws ``rng.permutation(n)`` makes, so the rows land where
    ``np.take(pairs, rng.permutation(n), axis=0)`` puts them and ``rng``
    ends in the same state, without an index array or a gathered copy.
    """
    row = np.dtype((np.void, pairs.dtype.itemsize * pairs.shape[1]))
    rng.shuffle(pairs.view(row).ravel())


def spawn_rngs(seed: RngLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from one seed.

    Useful when a model has several stochastic subcomponents (e.g. the
    discriminator noise, the generator noise and the batch sampler) that must
    not share a stream, yet the whole run has to be reproducible from a single
    seed.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    root = ensure_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]
