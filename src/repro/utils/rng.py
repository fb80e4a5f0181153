"""Random-number-generator helpers.

Every stochastic component in the library accepts either an integer seed, a
``numpy.random.Generator`` or ``None``.  ``ensure_rng`` normalises all three
to a ``Generator`` so that experiments are reproducible end to end.
:class:`ScalarDraws` serves a loop of scalar draws from a generator's raw
stream with the values the generator's own scalar calls would give.
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


#: 64-bit outputs read from the stream per ``random_raw`` call.
_RAW_BLOCK = 4096
_TWO_POW_M53 = 1.0 / 9007199254740992.0
_UINT32_MASK = 0xFFFFFFFF
_UINT32_RANGE = 1 << 32


class ScalarDraws:
    """Scalar ``random()`` / ``integers(0, n)`` draws read from the raw stream.

    ``draws.random()`` and ``draws.below(n)`` return the values that
    ``rng.random()`` and ``int(rng.integers(0, n))`` would return on the same
    PCG64 stream, at a fraction of a numpy scalar call's cost: 64-bit outputs
    are read in blocks through ``bit_generator.random_raw``; a double is the
    top 53 bits times 2**-53, and ``below(n)`` is numpy's 32-bit Lemire
    method (Lemire, "Fast Random Integer Generation in an Interval", ACM
    TOMACS 2019) on the generator's shared 32-bit half-word buffer.

    The block read runs the generator ahead, so ``rng`` must not be drawn
    from while the helper is open.  :meth:`close` (or leaving the ``with``
    block) puts ``bit_generator.state`` where the scalar calls would have
    left it.  Only PCG64, which every seed and ``default_rng`` give, is
    accepted.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                "scalar draws need a PCG64 bit generator, got "
                f"{type(bit_generator).__name__}"
            )
        self._bit_generator = bit_generator
        self._snapshot = bit_generator.state
        self._has_half = bool(self._snapshot["has_uint32"])
        self._half = int(self._snapshot["uinteger"])
        self._block: list[int] = []
        self._pos = 0
        self._consumed = 0

    def __enter__(self) -> "ScalarDraws":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _next64(self) -> int:
        pos = self._pos
        if pos == len(self._block):
            self._consumed += pos
            self._block = self._bit_generator.random_raw(_RAW_BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        return self._block[pos]

    def _next32(self) -> int:
        # PCG64's next_uint32: hand out the held high half, else split a
        # fresh output and hold its high half.  A consumed half keeps its
        # value, as numpy's ``uinteger`` does.
        if self._has_half:
            self._has_half = False
            return self._half
        raw = self._next64()
        self._has_half = True
        self._half = raw >> 32
        return raw & _UINT32_MASK

    def random(self) -> float:
        """The next ``rng.random()``: a double in ``[0, 1)``."""
        return (self._next64() >> 11) * _TWO_POW_M53

    def below(self, n: int) -> int:
        """The next ``int(rng.integers(0, n))`` for ``1 <= n <= 2**32``."""
        if not 1 < n < _UINT32_RANGE:
            if n == 1:
                return 0
            if n == _UINT32_RANGE:
                return self._next32()
            raise ValueError(f"below(n) needs 1 <= n <= 2**32, got {n}")
        product = self._next32() * n
        leftover = product & _UINT32_MASK
        if leftover < n:
            threshold = (_UINT32_RANGE - n) % n
            while leftover < threshold:
                product = self._next32() * n
                leftover = product & _UINT32_MASK
        return product >> 32

    def close(self) -> None:
        """Leave ``rng`` in the state the equivalent scalar calls would."""
        bit_generator = self._bit_generator
        bit_generator.state = self._snapshot
        # advance() clears the half-word buffer, so it is set afterwards.
        bit_generator.advance(self._consumed + self._pos)
        state = bit_generator.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bit_generator.state = state


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
