"""Asynchronous prefetching pair pipeline: overlap chunk generation with SGD.

:class:`PrefetchingPairSource` wraps any chunk-producing factory (the same
zero-argument contract as :class:`~repro.train.pair_source.StreamingPairSource`)
and moves its evaluation to a background producer: while the trainer runs SGD
on the current chunk's batches, the producer is already generating, extracting
and shuffling the next chunks and pushing them into a bounded queue (double
buffering — default depth 2).  The shape follows DGL graphbolt's prefetching
item samplers: a worker fills a fixed-depth buffer, the consumer drains it,
and neither ever waits unless the other is genuinely slower.

Determinism
-----------
The producer is a spawned process that evaluates the *same factory* the
in-process streaming path would have evaluated, against the same generator
state: the factory is pickled once at worker start, and a pickled
``numpy.random.Generator`` round-trips its bit-generator state *and* its
seed-sequence spawn counter, so the worker replays the identical sequence of
passes (including the per-pass ``independent_child`` shuffle streams) that
the streaming path would have produced.  The producer never touches the
trainer's own stream — chunk order, chunk content and therefore the
delivered pair multiset are bit-identical seed-for-seed.

Robustness
----------
A producer exception is caught in the worker, formatted with its original
traceback, and re-raised trainer-side as :class:`ProducerError`.  A producer
that dies without reporting (``kill -9``) is detected by liveness polling.
Shutdown — normal exhaustion, trainer exception, or ``KeyboardInterrupt`` —
goes through :meth:`PrefetchingPairSource.close`: the stop flag is set, the
queue is drained so a blocked producer can observe it, and the worker is
joined (then terminated as a last resort).  The producer additionally polls
its parent's liveness so an abandoned worker exits on its own instead of
orphaning.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
import traceback
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.train.pair_source import StreamingPairSource

#: Message tags on the producer queue.
_CHUNK, _PASS_END, _ERROR = 0, 1, 2

#: Seconds between stop-flag / liveness checks while blocked on the queue.
_POLL_SECONDS = 0.05

#: Seconds to wait for a worker to exit after the stop flag before escalating.
_JOIN_SECONDS = 5.0


class ProducerError(RuntimeError):
    """The prefetch producer failed; the message carries its traceback."""


def _parent_alive() -> bool:
    """Whether the process that spawned this worker is still running."""
    parent = multiprocessing.parent_process()
    return parent is None or parent.is_alive()


def _producer_loop(factory, out_queue, stop, buffered_pairs) -> None:
    """Produce pass after pass of chunks until stopped or the parent dies.

    Runs in the background worker.  Each factory evaluation is one pass;
    chunks are tagged ``_CHUNK``, pass boundaries ``_PASS_END``.  Every put
    is a bounded-timeout loop so a full queue never hides the stop flag, and
    ``buffered_pairs`` counts the pairs handed to the queue but not yet
    consumed (the producer side of the peak-buffer metric).
    """

    def put(tag, payload, pairs=0):
        if pairs:
            with buffered_pairs.get_lock():
                buffered_pairs.value += pairs
        while not stop.is_set() and _parent_alive():
            try:
                out_queue.put((tag, payload), timeout=_POLL_SECONDS)
                return True
            except queue_module.Full:
                continue
        if pairs:  # aborted put: give the accounting back
            with buffered_pairs.get_lock():
                buffered_pairs.value -= pairs
        return False

    try:
        while not stop.is_set() and _parent_alive():
            for chunk in factory():
                if not put(_CHUNK, chunk, pairs=int(chunk.shape[0])):
                    return
            if not put(_PASS_END, None):
                return
    except BaseException as exc:  # noqa: BLE001 — forwarded to the trainer
        if not stop.is_set():
            put(_ERROR, (repr(exc), traceback.format_exc()))
    finally:
        # Never let the mp.Queue feeder thread block process exit: anything
        # still unflushed on shutdown is data the consumer no longer wants.
        if stop.is_set():
            out_queue.cancel_join_thread()


class PrefetchingPairSource(StreamingPairSource):
    """Streaming pair source whose chunks are produced by a background worker.

    Parameters
    ----------
    chunk_factory:
        Picklable zero-argument callable returning a fresh iterable of
        ``(m, 2)`` pair chunks; one evaluation is one pass.  The worker
        evaluates it repeatedly, so consecutive passes see the advancing
        generator state exactly as the in-process streaming path would.
    batch_size:
        Rows per delivered batch (identical carving to the parent class).
    depth:
        Bound of the chunk queue.  ``2`` is classic double buffering: one
        chunk in flight to the trainer, one ready, one being generated.
    """

    def __init__(
        self,
        chunk_factory: Callable[[], Iterable[np.ndarray]],
        batch_size: int,
        *,
        depth: int = 2,
    ) -> None:
        super().__init__(chunk_factory, batch_size)
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        self.depth = int(depth)
        #: Cumulative seconds the consumer spent blocked waiting for chunks —
        #: the benchmark's overlap diagnostic (near zero == full overlap).
        self.consumer_wait_seconds = 0.0
        self._ctx = multiprocessing.get_context("spawn")
        self._worker = None
        self._queue = None
        self._stop = None
        self._buffered_pairs = None
        self._error: Optional[ProducerError] = None

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _ensure_worker(self) -> None:
        if self._worker is not None:
            return
        if self._error is not None:
            raise self._error
        self._stop = self._ctx.Event()
        self._buffered_pairs = self._ctx.Value("q", 0)
        self._queue = self._ctx.Queue(maxsize=self.depth)
        self._worker = self._ctx.Process(
            target=_producer_loop,
            args=(self._chunk_factory, self._queue, self._stop, self._buffered_pairs),
            name="pair-prefetch-producer",
            # Non-daemonic on purpose: the producer may itself shard walk
            # passes over a process pool (walk_workers > 1), which daemon
            # processes cannot do.  Orphan safety comes from the parent
            # liveness poll in _producer_loop plus close().
            daemon=False,
        )
        self._worker.start()

    def _worker_alive(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    def _get_message(self):
        """Blocking queue read that notices a producer that died silently."""
        while True:
            try:
                return self._queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                if not self._worker_alive():
                    # The worker exited; give its final flush one grace read.
                    try:
                        return self._queue.get(timeout=_POLL_SECONDS)
                    except queue_module.Empty:
                        raise ProducerError(
                            "prefetch producer exited without delivering a "
                            "result (killed or crashed before reporting)"
                        ) from None

    def _chunks(self) -> Iterator[np.ndarray]:
        """One pass's chunks, pulled from the producer queue."""
        if self._error is not None:
            raise self._error
        self._ensure_worker()
        while True:
            wait_start = time.perf_counter()
            tag, payload = self._get_message()
            self.consumer_wait_seconds += time.perf_counter() - wait_start
            if tag == _CHUNK:
                with self._buffered_pairs.get_lock():
                    self._buffered_pairs.value -= int(payload.shape[0])
                yield payload
            elif tag == _PASS_END:
                return
            else:  # _ERROR
                exc_repr, tb = payload
                self._error = ProducerError(
                    f"prefetch producer raised {exc_repr}\n"
                    f"--- producer traceback ---\n{tb}"
                )
                self.close()
                raise self._error

    def _external_buffered_pairs(self) -> int:
        if self._buffered_pairs is None:
            return 0
        with self._buffered_pairs.get_lock():
            return int(self._buffered_pairs.value)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Discard queued messages so a producer blocked on put can proceed."""
        while True:
            try:
                self._queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                return

    def close(self) -> None:
        """Stop the producer, drain the queue, and join the worker.

        Idempotent, and safe to call from any trainer exit path — normal
        completion, a trainer-side exception, or ``KeyboardInterrupt``.
        """
        worker, self._worker = self._worker, None
        if worker is None:
            return
        self._stop.set()
        deadline = time.monotonic() + _JOIN_SECONDS
        while worker.is_alive() and time.monotonic() < deadline:
            # Drain while joining: the producer may need queue space to
            # observe the stop flag, and its feeder thread needs the pipe
            # read before the process can exit.
            self._drain()
            worker.join(timeout=_POLL_SECONDS)
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=_JOIN_SECONDS)
        self._drain()
        self._queue.cancel_join_thread()
        self._queue.close()
        self._queue = None

    def __del__(self) -> None:  # best-effort backstop; close() is the API
        try:
            self.close()
        except Exception:
            pass
