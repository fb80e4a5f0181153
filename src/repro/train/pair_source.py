"""Pair delivery between corpus/sampler generation and the skip-gram trainers.

A :class:`PairSource` supplies the training batches for one pass (epoch) of a
skip-gram-style trainer, hiding *where* the batches come from:

* :class:`ArrayPairSource` — a materialised ``(n, 2)`` pair array, its rows
  shuffled once per pass (the draws of one ``rng.permutation``) and sliced
  into contiguous batches.  DeepWalk/node2vec train from it; it
  reproduces the historical permute-and-gather loop bit-for-bit (same RNG
  call sequence, same batches).  Each pass shuffles a copy; told how many
  passes it serves, the source shuffles the array itself on the last one,
  so a one-epoch fit holds exactly one pair corpus.
* :class:`SampledBatchSource` — an endless stream over a sampling callable
  (e.g. ``EdgeSampler.sample``), which is how the LINE-style trainers
  (SkipGram, AdvSGM-family) fit the same seam: each pull performs exactly one
  sampler draw, in step order.

Trainers only ever iterate ``source.batches(rng)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.utils.rng import RngLike, ensure_rng, shuffle_rows


class PairSource(ABC):
    """Supplier of training batches for one pass of a trainer."""

    @abstractmethod
    def batches(self, rng: RngLike = None) -> Iterator[Any]:
        """Yield the pass's training batches in delivery order."""

    @property
    def num_pairs(self) -> Optional[int]:
        """Total pairs per pass when known up front, else ``None``."""
        return None

    def release(self) -> None:
        """Drop the pairs held for the passes; the counts stay readable.

        A trainer calls this after its last pass.  It keeps the source for
        the counts, and must not keep the training corpus alive with it.
        """


class ArrayPairSource(PairSource):
    """Materialised pair array, shuffled once per pass and sliced into batches.

    Each pass shuffles a copy of the pairs (the draws of one
    ``rng.permutation`` per pass) and yields contiguous slices of it, so the
    caller's array is never written.  ``passes`` hands the array over
    instead: the last of ``passes`` passes shuffles the source's own array in
    place, and a further pass raises.  A one-pass trainer then holds one
    copy of the corpus, not a corpus plus its shuffled copy.
    """

    def __init__(
        self, pairs: np.ndarray, batch_size: int, passes: Optional[int] = None
    ) -> None:
        pairs = np.asarray(pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs must have shape (n, 2), got {pairs.shape}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if passes is not None:
            if passes <= 0:
                raise ValueError(f"passes must be positive, got {passes}")
            pairs = np.require(pairs, requirements="CW")
        self.pairs: Optional[np.ndarray] = pairs
        self.batch_size = int(batch_size)
        self._num_pairs = int(pairs.shape[0])
        self._passes_left = passes

    def batches(self, rng: RngLike = None) -> Iterator[np.ndarray]:
        if self.pairs is None:
            raise RuntimeError("the pairs were released after the last pass")
        if self._passes_left == 0:
            raise RuntimeError("the pairs were shuffled in place by the last pass")
        rng = ensure_rng(rng)
        if self._passes_left is not None:
            self._passes_left -= 1
        shuffled = self.pairs if self._passes_left == 0 else self.pairs.copy()
        shuffle_rows(shuffled, rng)
        for start in range(0, self._num_pairs, self.batch_size):
            yield shuffled[start : start + self.batch_size]

    @property
    def num_pairs(self) -> int:
        return self._num_pairs

    def release(self) -> None:
        self.pairs = None


class SampledBatchSource(PairSource):
    """Endless source over a sampling callable (one draw per pulled batch)."""

    def __init__(self, draw: Callable[[], Any]) -> None:
        self._draw = draw

    def batches(self, rng: RngLike = None) -> Iterator[Any]:
        while True:
            yield self._draw()
