"""Host-speed correction for time metrics on a shared machine.

On a shared host the same single-threaded work takes a varying amount of
CPU time: neighbours contend for the physical cores and the memory system,
in phases from seconds to tens of minutes long.  On the 2-vCPU machine the
benchmark was tuned on, one ``node2vec-ppi`` repetition of one seed took
8.7-13.3s within a single process, so raw seconds from two runs cannot be
compared to a 25% bound.

:class:`HostSpeed` samples the host while the workload runs: a timer signal
interrupts the main thread every :data:`INTERVAL` seconds and times a fixed
reference kernel (a pure-Python loop plus a random gather from a 32 MB
array), so the samples see the same interpreter and memory slowdowns as the
workload.  A time measured over a window is then scaled by
``REFERENCE_SECONDS / median(samples in the window)``: the seconds it would
have taken on a host where the reference kernel takes
:data:`REFERENCE_SECONDS`.  The raw times and the scales are kept in the
report.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: Seconds between samples.  One sample costs about 0.5 ms, so the
#: sampler takes about 1% of the workload's time.
INTERVAL = 0.05
#: The reference kernel's time on the nominal host: about its median on
#: the machine the benchmark was tuned on, so corrected seconds read close
#: to raw seconds there.  A constant, so corrected times compare across
#: runs and commits.
REFERENCE_SECONDS = 500e-6

_LOOP = 2000
_ARRAY = 4_000_000  # int64: 32 MB, larger than the last-level cache
_GATHER = 20_000


class HostSpeed:
    """Timer-driven samples of a reference kernel's duration.

    Use as a context manager around the region to sample; ``mark()`` and
    ``scale(since)`` bracket one timed window inside it.
    """

    def __init__(self) -> None:
        import numpy as np

        self.samples: List[float] = []
        self._array = np.arange(_ARRAY, dtype=np.int64)
        self._index = np.random.default_rng(0).integers(0, _ARRAY, _GATHER)

    def sample(self) -> None:
        """Time the reference kernel once."""
        start = time.perf_counter()
        total = 0
        for i in range(_LOOP):
            total += i * i
        self._array[self._index].sum()
        self.samples.append(time.perf_counter() - start)

    def _on_timer(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Start of a window: the index of its first sample."""
        return len(self.samples)

    def scale(self, since: int) -> float:
        """Correction factor for a time measured since ``mark()`` returned
        ``since``.  Takes one more sample first, so a window shorter than
        :data:`INTERVAL` still has one."""
        self.sample()
        return REFERENCE_SECONDS / statistics.median(self.samples[since:])
