"""Prefetching pair pipeline tests: parity, failure paths, clean shutdown.

The contract under test (see ``repro/train/prefetch.py``):

* the producer delivers the *bit-identical batch sequence* (hence the same
  pair multiset) as the in-process streaming path, seed-for-seed, for any
  queue depth — and epoch 1 additionally matches the materialised corpus
  multiset;
* a producer exception re-raises trainer-side as :class:`ProducerError`
  carrying the producer's traceback, with no worker left behind;
* early trainer exit (``close()``, context-manager ``__exit__``,
  ``TrainingLoop`` resource cleanup on an exception) leaks no producer
  process;
* prefetch composes with sharded walk generation (``walk_workers=2``);
* the default materialised path constructs no queue/worker machinery at all.

Every queue-touching test carries a ``timeout`` marker so a deadlock fails
fast instead of hanging the suite.
"""

import multiprocessing

import numpy as np
import pytest

from repro.api.registry import make_model
from repro.graph.random_walk import WalkPairChunkFactory, walks_to_pairs
from repro.train import (
    ArrayPairSource,
    PrefetchingPairSource,
    ProducerError,
    StreamingPairSource,
    TrainingLoop,
)

def pair_multiset(pairs):
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return sorted(map(tuple, arr))


def drain(source, rng=None):
    """One pass's batches, as a list."""
    return list(source.batches(rng))


def make_factory(graph, seed, **overrides):
    kwargs = dict(
        graph=graph, num_walks=2, walk_length=10, window_size=3,
        chunk_walks=25, rng=seed,
    )
    kwargs.update(overrides)
    return WalkPairChunkFactory(**kwargs)


def assert_no_leaked_workers():
    assert multiprocessing.active_children() == []


class ExplodingFactory:
    """Yields one chunk, then raises — module-level so the producer pickles it."""

    def __call__(self):
        return self._generate()

    def _generate(self):
        yield np.zeros((4, 2), dtype=np.int64)
        raise RuntimeError("boom in producer")


class EndlessFactory:
    """An infinite chunk stream, for early-exit shutdown tests."""

    def __call__(self):
        return self._generate()

    def _generate(self):
        rng = np.random.default_rng(0)
        while True:
            yield rng.integers(0, 50, size=(16, 2)).astype(np.int64)


class TestPrefetchParity:
    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_batch_sequence_matches_streaming_and_materialised(
        self, small_graph, depth
    ):
        corpus = small_graph.walk_engine().walk_corpus(2, 10, rng=21)
        materialised = walks_to_pairs(corpus, window_size=3)

        streaming = StreamingPairSource(make_factory(small_graph, 21), batch_size=32)
        prefetch = PrefetchingPairSource(
            make_factory(small_graph, 21), batch_size=32, depth=depth
        )
        try:
            for epoch in range(2):
                expected = drain(streaming)
                got = drain(prefetch)
                # Bit-identical delivery, not merely the same multiset: the
                # producer replays the exact chunk/shuffle stream.
                assert len(got) == len(expected)
                for got_batch, expected_batch in zip(got, expected):
                    assert np.array_equal(got_batch, expected_batch)
                if epoch == 0:
                    assert pair_multiset(np.concatenate(got)) == pair_multiset(
                        materialised
                    )
        finally:
            prefetch.close()
        assert_no_leaked_workers()

    @pytest.mark.timeout(180)
    def test_trained_embeddings_match_streaming(self, small_graph):
        def embeddings(**kwargs):
            return make_model(
                "deepwalk", graph=small_graph, rng=13, num_walks=2, walk_length=10,
                window_size=3, embedding_dim=8, num_epochs=2, batch_size=64,
                stream_chunk_walks=30, **kwargs,
            ).fit().embeddings_

        streamed = embeddings(pair_streaming=True)
        prefetched = embeddings(pair_prefetch=True)
        assert np.array_equal(streamed, prefetched)
        assert_no_leaked_workers()

    @pytest.mark.timeout(180)
    def test_composes_with_sharded_walk_corpus(self, small_graph):
        def embeddings(**kwargs):
            return make_model(
                "node2vec", graph=small_graph, rng=5, num_walks=2, walk_length=8,
                window_size=2, embedding_dim=8, num_epochs=1, batch_size=32,
                p=0.5, q=2.0, walk_workers=2, stream_chunk_walks=40, **kwargs,
            ).fit().embeddings_

        assert np.array_equal(
            embeddings(pair_streaming=True), embeddings(pair_prefetch=True)
        )
        assert_no_leaked_workers()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            PrefetchingPairSource(EndlessFactory(), batch_size=8, depth=0)
        with pytest.raises(ValueError):
            make_model("deepwalk", prefetch_depth=0)


class TestProducerFailure:
    @pytest.mark.timeout(120)
    def test_producer_exception_propagates_with_traceback(self):
        source = PrefetchingPairSource(ExplodingFactory(), batch_size=2)
        with pytest.raises(ProducerError, match="boom in producer"):
            drain(source)
        # The original producer-side traceback rides along for debugging.
        with pytest.raises(ProducerError, match="RuntimeError"):
            drain(source)  # subsequent passes re-raise instead of restarting
        source.close()
        assert_no_leaked_workers()

    @pytest.mark.timeout(120)
    def test_killed_producer_is_detected(self):
        source = PrefetchingPairSource(
            EndlessFactory(), batch_size=8, depth=1
        )
        batches = source.batches()
        next(batches)  # worker is up and producing
        source._worker.kill()  # no error message can be sent
        with pytest.raises(ProducerError, match="exited without delivering"):
            for _ in range(10_000):
                next(batches)
        source.close()
        assert_no_leaked_workers()


class TestShutdown:
    @pytest.mark.timeout(120)
    def test_early_exit_leaks_nothing(self):
        source = PrefetchingPairSource(EndlessFactory(), batch_size=8, depth=2)
        batches = source.batches()
        next(batches)  # abandon the pass after one batch
        source.close()
        source.close()  # idempotent
        assert_no_leaked_workers()

    @pytest.mark.timeout(120)
    def test_context_manager_closes_on_exception(self):
        with pytest.raises(KeyboardInterrupt):
            with PrefetchingPairSource(EndlessFactory(), batch_size=8) as source:
                next(source.batches())
                raise KeyboardInterrupt
        assert_no_leaked_workers()

    @pytest.mark.timeout(120)
    def test_training_loop_closes_resources_on_failure(self):
        source = PrefetchingPairSource(EndlessFactory(), batch_size=8)
        loop = TrainingLoop(1, 1)

        def step(epoch, stepno):
            next(source.batches())
            raise RuntimeError("trainer died mid-pass")

        with pytest.raises(RuntimeError, match="trainer died"):
            loop.run(step, resources=(source,))
        assert_no_leaked_workers()


class TestBufferAccounting:
    def test_external_buffered_pairs_enter_the_peak(self):
        class PaddedSource(StreamingPairSource):
            def _external_buffered_pairs(self):
                return 1000

        chunks = [np.arange(20).reshape(10, 2), np.arange(24).reshape(12, 2)]
        plain = StreamingPairSource(lambda: iter(chunks), batch_size=8)
        padded = PaddedSource(lambda: iter(chunks), batch_size=8)
        drain(plain)
        drain(padded)
        assert padded.peak_buffer_pairs == plain.peak_buffer_pairs + 1000

    @pytest.mark.timeout(120)
    def test_prefetch_peak_counts_queued_chunks(self, small_graph):
        depth, chunk_walks, batch = 4, 10, 16
        source = PrefetchingPairSource(
            make_factory(small_graph, 3, chunk_walks=chunk_walks),
            batch_size=batch, depth=depth,
        )
        try:
            drain(source)
        finally:
            source.close()
        # Bounded by consumer chunk + queue depth + one chunk at the producer.
        bound = (depth + 2) * (chunk_walks * 10 * 2 * 3) + batch
        assert 0 < source.peak_buffer_pairs <= bound


class TestDefaultPathUntouched:
    def test_default_mode_builds_no_machinery(self, small_graph):
        model = make_model(
            "deepwalk", graph=small_graph, rng=5, num_walks=1, walk_length=8,
            window_size=2, embedding_dim=8, num_epochs=1, batch_size=32,
        )
        source = model._make_pair_source()
        assert isinstance(source, ArrayPairSource)
        assert not isinstance(source, StreamingPairSource)
        assert_no_leaked_workers()

    def test_default_embeddings_unchanged_by_prefetch_knobs(self, small_graph):
        def embeddings(**kwargs):
            return make_model(
                "deepwalk", graph=small_graph, rng=5, num_walks=1, walk_length=8,
                window_size=2, embedding_dim=8, num_epochs=1, batch_size=32,
                **kwargs,
            ).fit().embeddings_

        assert np.array_equal(embeddings(), embeddings(prefetch_depth=7))
