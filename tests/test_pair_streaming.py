"""Streaming pair pipeline, sharded walk corpus, and PairSource tests.

The key guarantees under test:

* ``iter_walk_pairs`` yields the *same pair multiset* as
  ``walks_to_pairs(walk_corpus(...))`` for the same seed, serial and sharded;
* ``walk_corpus(workers=N)`` is independent of the worker count and equals
  executing the same derived-seed passes serially;
* the default (materialised) trainer path is untouched — ``ArrayPairSource``
  replays the historical permutation/slice loop exactly;
* streaming training bounds the peak pair buffer by roughly one chunk;
* a materialised fit holds one pair corpus at its peak and leaves no
  second-order table on the graph's walk engine;
* the walk pool, the only background component, is gone after every fit,
  completed or interrupted;
* the rejection-sampling second-order fallback draws from the same
  distribution as the transition table.
"""

import multiprocessing
import tracemalloc

import numpy as np
import pytest

from repro.api.registry import make_model
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Graph
from repro.graph.random_walk import iter_walk_pairs, walks_to_pairs
from repro.graph.walk_engine import WalkEngine, derive_pass_seeds
from repro.train import ArrayPairSource, Callback, SampledBatchSource, StreamingPairSource


def pair_multiset(pairs):
    """Order-independent canonical form of an (n, 2) pair array."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return sorted(map(tuple, arr))


def collect_stream(graph, *args, **kwargs):
    chunks = list(iter_walk_pairs(graph, *args, **kwargs))
    if not chunks:
        return np.zeros((0, 2), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


class TestIterWalkPairs:
    @pytest.mark.parametrize("chunk_walks", [1, 7, 50, 10_000])
    def test_multiset_matches_materialised_uniform(self, small_graph, chunk_walks):
        corpus = small_graph.walk_engine().walk_corpus(3, 12, rng=42)
        reference = walks_to_pairs(corpus, window_size=4)
        streamed = collect_stream(
            small_graph, 3, 12, window_size=4, chunk_walks=chunk_walks, rng=42
        )
        assert pair_multiset(streamed) == pair_multiset(reference)

    def test_multiset_matches_materialised_node2vec(self, small_graph):
        corpus = small_graph.walk_engine().walk_corpus(2, 10, p=0.5, q=2.0, rng=5)
        reference = walks_to_pairs(corpus, window_size=3)
        streamed = collect_stream(
            small_graph, 2, 10, window_size=3, p=0.5, q=2.0, chunk_walks=64, rng=5
        )
        assert pair_multiset(streamed) == pair_multiset(reference)

    def test_multiset_matches_sharded_corpus(self, small_graph):
        corpus = small_graph.walk_engine().walk_corpus(4, 8, rng=9, workers=2)
        reference = walks_to_pairs(corpus, window_size=2)
        streamed = collect_stream(
            small_graph, 4, 8, window_size=2, chunk_walks=77, rng=9, workers=2
        )
        assert pair_multiset(streamed) == pair_multiset(reference)

    def test_shuffle_within_chunk_preserves_multiset(self, small_graph):
        shuffled = collect_stream(small_graph, 2, 8, window_size=2, rng=3)
        plain = collect_stream(small_graph, 2, 8, window_size=2, rng=3, shuffle=False)
        assert pair_multiset(shuffled) == pair_multiset(plain)

    def test_shuffle_does_not_perturb_walk_stream(self, small_graph):
        # The shuffle generator is spawned off the walk rng without consuming
        # draws, so shuffle on/off must produce identical walk streams.
        corpus = small_graph.walk_engine().walk_corpus(2, 8, rng=3)
        reference = walks_to_pairs(corpus, window_size=2)
        streamed = collect_stream(small_graph, 2, 8, window_size=2, rng=3)
        assert pair_multiset(streamed) == pair_multiset(reference)

    def test_walk_length_one_yields_nothing(self, small_graph):
        assert list(iter_walk_pairs(small_graph, 2, 1, window_size=2, rng=0)) == []

    def test_rejects_bad_arguments(self, small_graph):
        with pytest.raises(ValueError):
            list(iter_walk_pairs(small_graph, 0, 5))
        with pytest.raises(ValueError):
            list(iter_walk_pairs(small_graph, 1, 5, window_size=0))
        with pytest.raises(ValueError):
            list(iter_walk_pairs(small_graph, 1, 5, chunk_walks=0))
        with pytest.raises(ValueError, match="workers must be >= 1"):
            list(iter_walk_pairs(small_graph, 1, 5, workers=0))
        with pytest.raises(ValueError, match="workers must be >= 1"):
            small_graph.walk_engine().walk_corpus(2, 5, workers=-3)

    def test_pairs_are_int32_for_small_graphs(self, small_graph):
        chunk = next(iter_walk_pairs(small_graph, 1, 8, window_size=2, rng=0))
        assert chunk.dtype == np.int32


class TestShardedWalkCorpus:
    def test_worker_count_does_not_change_corpus(self, small_graph):
        engine = small_graph.walk_engine()
        two = engine.walk_corpus(4, 8, rng=9, workers=2)
        three = engine.walk_corpus(4, 8, rng=9, workers=3)
        assert np.array_equal(two, three)

    def test_sharded_equals_derived_seed_serial(self, small_graph):
        engine = small_graph.walk_engine()
        sharded = engine.walk_corpus(3, 10, rng=17, workers=2)
        seeds = derive_pass_seeds(np.random.default_rng(17), 3)
        serial = np.vstack(
            [engine.corpus_pass(int(seed), 10) for seed in seeds]
        )
        assert np.array_equal(sharded, serial)

    def test_sharded_node2vec_equals_derived_seed_serial(self, small_graph):
        engine = small_graph.walk_engine()
        sharded = engine.walk_corpus(2, 8, p=0.25, q=4.0, rng=23, workers=2)
        seeds = derive_pass_seeds(np.random.default_rng(23), 2)
        serial = np.vstack(
            [engine.corpus_pass(int(seed), 8, p=0.25, q=4.0) for seed in seeds]
        )
        assert np.array_equal(sharded, serial)

    def test_serial_path_unchanged_by_workers_argument(self, small_graph):
        # workers=1 must keep the historical shared-stream corpus bit-for-bit.
        engine = small_graph.walk_engine()
        legacy = engine.walk_corpus(3, 6, rng=0)
        explicit = engine.walk_corpus(3, 6, rng=0, workers=1)
        assert np.array_equal(legacy, explicit)


class TestRejectionSampling:
    def test_walks_stay_on_edges(self, small_graph):
        engine = WalkEngine(small_graph)
        engine.second_order_entry_limit = 0  # force rejection in "auto"
        walks = engine.node2vec_walks(np.arange(small_graph.num_nodes), 10, p=0.5, q=2.0, rng=3)
        assert not engine._tables  # no table was built
        for row in walks:
            for a, b in zip(row[:-1], row[1:]):
                if b < 0:
                    break
                assert small_graph.has_edge(int(a), int(b))

    def test_explicit_mode_validation(self, small_graph):
        engine = small_graph.walk_engine()
        with pytest.raises(ValueError):
            engine.node2vec_walks(np.arange(4), 5, p=0.5, q=2.0, second_order="bogus")

    def test_rejection_matches_table_distribution(self):
        # Tiny fixed graph: walk arrived at node 1 coming from node 0.
        # Neighbours of 1 are {0, 2, 3}; (2, 0) is an edge (triangle) while
        # (3, 0) is not, so the unnormalised weights are 1/p, 1, 1/q.
        graph = Graph(4, [(0, 1), (1, 2), (0, 2), (1, 3)])
        engine = WalkEngine(graph)
        p, q = 0.5, 2.0
        draws = 40_000
        prev = np.zeros(draws, dtype=np.int64)
        current = np.ones(draws, dtype=np.int64)
        sampled = engine._rejection_step(prev, current, p, q, np.random.default_rng(0))
        weights = {0: 1.0 / p, 2: 1.0, 3: 1.0 / q}
        total = sum(weights.values())
        for node, weight in weights.items():
            frequency = float(np.mean(sampled == node))
            assert frequency == pytest.approx(weight / total, abs=0.02)

    def test_second_order_entry_count(self, triangle_graph):
        engine = triangle_graph.walk_engine()
        degrees = np.asarray(triangle_graph.degrees)
        assert engine.second_order_entry_count() == int((degrees**2).sum())


class TestPairSources:
    def test_array_source_replays_historical_loop(self, rng):
        pairs = rng.integers(0, 50, size=(103, 2))
        source = ArrayPairSource(pairs, batch_size=16)
        batches = list(source.batches(np.random.default_rng(11)))
        order = np.random.default_rng(11).permutation(pairs.shape[0])
        expected = [pairs[order[i : i + 16]] for i in range(0, pairs.shape[0], 16)]
        assert len(batches) == len(expected)
        for got, want in zip(batches, expected):
            assert np.array_equal(got, want)
        assert source.num_pairs == 103
        assert source.peak_buffer_pairs == 103

    def test_fit_releases_array_pairs(self, small_graph):
        # A fitted model keeps its source for the counts, not the corpus.
        model = make_model(
            "deepwalk", graph=small_graph, rng=5, num_walks=1, walk_length=8,
            window_size=2, embedding_dim=8, num_epochs=2, batch_size=32,
        ).fit()
        source = model.pair_source_
        assert source.pairs is None
        assert source.num_pairs == source.peak_buffer_pairs > 0
        with pytest.raises(RuntimeError):
            next(source.batches())

    def test_fit_releases_array_pairs_when_a_callback_raises(self, small_graph):
        class Interrupt(Callback):
            def on_epoch_end(self, epoch, losses):
                raise RuntimeError("interrupted")

        model = make_model(
            "deepwalk", graph=small_graph, rng=5, num_walks=1, walk_length=8,
            window_size=2, embedding_dim=8, num_epochs=2, batch_size=32,
        )
        with pytest.raises(RuntimeError, match="interrupted"):
            model.fit(callbacks=[Interrupt()])
        assert model.pair_source_.pairs is None

    def test_streaming_source_carves_batches(self):
        chunks = [np.arange(n * 2).reshape(n, 2) + offset
                  for n, offset in ((10, 0), (3, 100), (12, 200))]
        source = StreamingPairSource(lambda: iter(chunks), batch_size=8)
        batches = list(source.batches())
        assert [b.shape[0] for b in batches] == [8, 8, 8, 1]
        reassembled = np.concatenate(batches, axis=0)
        assert pair_multiset(reassembled) == pair_multiset(np.concatenate(chunks))
        assert source.pairs_delivered == 25
        # Peak buffer is bounded by one chunk plus the batch remainder.
        assert source.peak_buffer_pairs <= max(c.shape[0] for c in chunks) + 8

    def test_streaming_source_fresh_pass_per_call(self):
        calls = []

        def factory():
            calls.append(None)
            return iter([np.zeros((4, 2), dtype=np.int64)])

        source = StreamingPairSource(factory, batch_size=4)
        list(source.batches())
        list(source.batches())
        assert len(calls) == 2

    def test_sampled_batch_source_pulls_in_order(self):
        counter = iter(range(100))
        source = SampledBatchSource(lambda: next(counter))
        batches = source.batches()
        assert [next(batches) for _ in range(3)] == [0, 1, 2]


class TestStreamingTraining:
    def test_streaming_deepwalk_bounds_pair_buffer(self, small_graph):
        kwargs = dict(
            graph=small_graph, rng=7, num_walks=2, walk_length=10,
            window_size=3, embedding_dim=8, num_epochs=2, batch_size=64,
            stream_chunk_walks=30,
        )
        model = make_model("deepwalk", pair_streaming=True, **kwargs).fit()
        assert np.isfinite(model.embeddings_).all()
        source = model.pair_source_
        assert source.pairs_delivered > 0
        # 30 walks of length 10 with window 3 emit < 30 * 10 * 6 pairs; the
        # buffer may additionally hold one partial batch.
        assert source.peak_buffer_pairs <= 30 * 10 * 6 + 64
        # Streaming delivers every epoch the same number of pairs the
        # materialised corpus holds, from a smaller buffer.
        twin = make_model("deepwalk", **kwargs).fit().pair_source_
        assert source.pairs_delivered == kwargs["num_epochs"] * twin.num_pairs
        assert source.peak_buffer_pairs < twin.peak_buffer_pairs

    def test_streaming_node2vec_trains(self, small_graph):
        model = make_model(
            "node2vec", graph=small_graph, rng=7, num_walks=1, walk_length=8,
            window_size=2, embedding_dim=8, num_epochs=1, batch_size=64,
            p=0.5, q=2.0, pair_streaming=True, stream_chunk_walks=50,
        ).fit()
        assert np.isfinite(model.embeddings_).all()

    def test_streaming_is_deterministic_per_seed(self, small_graph):
        def train():
            return make_model(
                "deepwalk", graph=small_graph, rng=13, num_walks=1, walk_length=8,
                window_size=2, embedding_dim=8, num_epochs=2, batch_size=32,
                pair_streaming=True, stream_chunk_walks=40,
            ).fit().embeddings_

        assert np.array_equal(train(), train())

    def test_default_mode_unaffected_by_streaming_knobs(self, small_graph):
        # The chunk size only matters when streaming is enabled.
        base = make_model(
            "deepwalk", graph=small_graph, rng=5, num_walks=1, walk_length=8,
            window_size=2, embedding_dim=8, num_epochs=1, batch_size=32,
        ).fit().embeddings_
        other = make_model(
            "deepwalk", graph=small_graph, rng=5, num_walks=1, walk_length=8,
            window_size=2, embedding_dim=8, num_epochs=1, batch_size=32,
            stream_chunk_walks=17,
        ).fit().embeddings_
        assert np.array_equal(base, other)


class TestWalkPoolShutdown:
    """The walk pool is the one background component: no exit path leaks it."""

    KW = dict(
        num_walks=6, walk_length=8, window_size=2, embedding_dim=8,
        num_epochs=2, batch_size=32, pair_streaming=True, walk_workers=2,
        stream_chunk_walks=40,
    )

    @pytest.mark.timeout(120)
    def test_interrupt_mid_epoch_leaks_no_worker(self, small_graph, monkeypatch):
        model = make_model("deepwalk", graph=small_graph, rng=3, **self.KW)
        train_on_batch = model._train_on_batch
        seen = []

        def interrupt_on_third(batch):
            seen.append(len(multiprocessing.active_children()))
            if len(seen) == 3:
                raise KeyboardInterrupt
            return train_on_batch(batch)

        monkeypatch.setattr(model, "_train_on_batch", interrupt_on_third)
        with pytest.raises(KeyboardInterrupt):
            model.fit()
        assert seen[-1] > 0  # the pool was up when the trainer died
        assert multiprocessing.active_children() == []

    @pytest.mark.timeout(120)
    def test_completed_fit_leaks_no_worker(self, small_graph):
        model = make_model("deepwalk", graph=small_graph, rng=3, **self.KW).fit()
        assert np.isfinite(model.embeddings_).all()
        assert multiprocessing.active_children() == []

    def test_default_mode_builds_no_machinery(self, small_graph):
        model = make_model(
            "deepwalk", graph=small_graph, rng=5, num_walks=1, walk_length=8,
            window_size=2, embedding_dim=8, num_epochs=1, batch_size=32,
        )
        source = model._make_pair_source()
        assert isinstance(source, ArrayPairSource)
        assert multiprocessing.active_children() == []


class TestMaterialisedMemory:
    """A materialised fit holds one pair corpus and pins no walk table."""

    def test_fit_drops_second_order_table(self, small_graph):
        def fit(**overrides):
            return make_model(
                "node2vec", graph=small_graph, rng=9, p=0.5, q=2.0, num_walks=2,
                walk_length=8, window_size=2, embedding_dim=8, num_epochs=2,
                batch_size=64, **overrides,
            ).fit()

        engine = small_graph.walk_engine()
        assert engine.resolved_second_order(0.5, 2.0) == "table"
        first = fit()
        assert not engine._tables
        # The next fit on the same graph object rebuilds the table it needs.
        assert fit().embeddings_.tobytes() == first.embeddings_.tobytes()
        assert not engine._tables
        fit(pair_streaming=True, stream_chunk_walks=16)
        assert not engine._tables

    def test_fit_peak_is_one_pair_corpus(self):
        # One epoch, so the source's only pass shuffles the pairs in place.
        # 8,000 walks fit in one extraction chunk, and the pair array is
        # about four times the walk corpus.
        graph = powerlaw_cluster_graph(2000, attachment=3, triangle_prob=0.3, rng=4)
        num_walks, walk_length, window, batch = 4, 40, 2, 1024
        model = make_model(
            "deepwalk", graph=graph, rng=3, num_walks=num_walks,
            walk_length=walk_length, window_size=window, embedding_dim=8,
            num_negatives=1, num_epochs=1, batch_size=batch,
        )
        graph.walk_engine()
        rows = num_walks * graph.num_nodes
        corpus_bytes = rows * walk_length * 8  # int64 walk matrix
        pair_bytes = rows * window * (2 * walk_length - window - 1) * 2 * 4  # int32
        # Beside the two corpus-sized arrays, extraction holds one chunk's
        # boundary grid (int64 contexts of rows * window * 2 * window
        # entries, three bool masks of that shape and one gathered column:
        # under 48 * rows * window**2 bytes), and training one batch's
        # temporaries and the interpreter's bookkeeping (1 MiB).
        slack = 48 * rows * window**2 + (1 << 20)
        tracemalloc.start()
        try:
            model.fit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.pair_source_.num_pairs * 8 == pair_bytes
        assert peak <= pair_bytes + corpus_bytes + slack, (
            peak, pair_bytes, corpus_bytes, slack
        )
