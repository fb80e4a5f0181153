"""Pair delivery between corpus/sampler generation and the skip-gram trainers.

A :class:`PairSource` supplies the training batches for one pass (epoch) of a
skip-gram-style trainer, hiding *where* the batches come from:

* :class:`ArrayPairSource` — a materialised ``(n, 2)`` pair array, its rows
  shuffled once per pass (the draws of one ``rng.permutation``) and sliced
  into contiguous batches.  This is the default for DeepWalk/node2vec and
  reproduces the historical permute-and-gather loop bit-for-bit (same RNG
  call sequence, same batches).  Each pass shuffles a copy; told how many
  passes it serves, the source shuffles the array itself on the last one,
  so a one-epoch fit holds exactly one pair corpus.
* :class:`StreamingPairSource` — batches carved from a chunked generator
  (:func:`repro.graph.random_walk.iter_walk_pairs`), so the full corpus is
  never held in memory; the peak buffered-pair count is tracked, and
  ``tests/test_pair_streaming.py`` asserts it stays within one chunk plus
  one batch.  With ``walk_workers >= 2`` its chunk generator walks passes in
  a process pool that runs ahead of the trainer; the pool lives inside the
  generator and is shut down when the generator finishes or is closed.
* :class:`SampledBatchSource` — an endless stream over a sampling callable
  (e.g. ``EdgeSampler.sample``), which is how the LINE-style trainers
  (SkipGram, AdvSGM-family) fit the same seam: each pull performs exactly one
  sampler draw, in step order.

Trainers only ever iterate ``source.batches(rng)``; swapping the pipeline is
a config flag, not a trainer change.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


class PairSource(ABC):
    """Supplier of training batches for one pass of a trainer."""

    @abstractmethod
    def batches(self, rng: RngLike = None) -> Iterator[Any]:
        """Yield the pass's training batches in delivery order."""

    @property
    def num_pairs(self) -> Optional[int]:
        """Total pairs per pass when known up front, else ``None``."""
        return None

    @property
    def peak_buffer_pairs(self) -> Optional[int]:
        """Largest number of pairs ever buffered by this source, if tracked."""
        return None

    def release(self) -> None:
        """Drop the pairs held for the passes; the counts stay readable.

        A trainer calls this after its last pass.  It keeps the source for
        the counts, and must not keep the training corpus alive with it.
        """


def _shuffle_rows(pairs: np.ndarray, rng: np.random.Generator) -> None:
    """Shuffle the rows of a C-contiguous ``(n, 2)`` array in place.

    Viewed as one opaque item per row, the array is shuffled by the same
    Fisher-Yates draws ``rng.permutation(n)`` makes, so the rows land where
    ``np.take(pairs, rng.permutation(n), axis=0)`` puts them and ``rng``
    ends in the same state, without an index array or a gathered copy.
    """
    row = np.dtype((np.void, pairs.dtype.itemsize * pairs.shape[1]))
    rng.shuffle(pairs.view(row).ravel())


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
        _shuffle_rows(shuffled, rng)
        for start in range(0, self._num_pairs, self.batch_size):
            yield shuffled[start : start + self.batch_size]

    @property
    def num_pairs(self) -> int:
        return self._num_pairs

    @property
    def peak_buffer_pairs(self) -> int:
        # The whole corpus is resident — that is exactly what streaming avoids.
        return self._num_pairs

    def release(self) -> None:
        self.pairs = None


class StreamingPairSource(PairSource):
    """Batches carved from a chunk generator; the corpus is never materialised.

    Parameters
    ----------
    chunk_factory:
        Zero-argument callable returning a fresh iterable of ``(m, 2)`` pair
        chunks.  It is invoked once per pass, so a factory closing over a
        persistent generator (e.g. a model's walk RNG) yields fresh walks
        every epoch — streaming mode resamples the corpus instead of replaying
        one materialised draw.
    batch_size:
        Rows per yielded batch; the final partial batch is yielded too.
    """

    def __init__(
        self, chunk_factory: Callable[[], Iterable[np.ndarray]], batch_size: int
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self._chunk_factory = chunk_factory
        self.batch_size = int(batch_size)
        self._peak_buffer = 0
        self.pairs_delivered = 0

    def batches(self, rng: RngLike = None) -> Iterator[np.ndarray]:
        buffer: Optional[np.ndarray] = None
        for chunk in self._chunk_factory():
            if chunk.shape[0] == 0:
                continue
            buffer = (
                chunk if buffer is None else np.concatenate([buffer, chunk], axis=0)
            )
            self._peak_buffer = max(self._peak_buffer, buffer.shape[0])
            while buffer.shape[0] >= self.batch_size:
                batch, buffer = (
                    buffer[: self.batch_size],
                    buffer[self.batch_size :],
                )
                self.pairs_delivered += batch.shape[0]
                yield batch
            if buffer.shape[0] == 0:
                buffer = None
        if buffer is not None and buffer.shape[0]:
            self.pairs_delivered += buffer.shape[0]
            yield buffer

    @property
    def peak_buffer_pairs(self) -> int:
        return self._peak_buffer


class SampledBatchSource(PairSource):
    """Endless source over a sampling callable (one draw per pulled batch)."""

    def __init__(self, draw: Callable[[], Any]) -> None:
        self._draw = draw

    def batches(self, rng: RngLike = None) -> Iterator[Any]:
        while True:
            yield self._draw()
