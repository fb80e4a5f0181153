"""Walk corpus, pair delivery and materialised-fit memory tests.

The key guarantees under test:

* ``walk_corpus`` walks every pass on one shared stream, writes its passes
  into one int32 matrix, byte-equal to stacking them as int32, and peaks at
  the corpus plus about one int64 pass;
* ``ArrayPairSource`` replays the historical permutation/slice loop
  exactly;
* a materialised fit holds one pair corpus at its peak and leaves no
  second-order table on the graph's walk engine;
* building the node2vec table holds the table plus one chunk's
  temporaries;
* the rejection-sampling second-order fallback draws from the same
  distribution as the transition table.
"""

import tracemalloc

import numpy as np
import pytest

from repro.api.registry import make_model
from repro.graph import walk_engine
from repro.graph.datasets import load_dataset
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Graph
from repro.graph.walk_engine import WalkEngine
from repro.train import ArrayPairSource, Callback, SampledBatchSource


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

    def test_fit_releases_array_pairs(self, small_graph):
        # A fitted model keeps its source for the counts, not the corpus.
        model = make_model(
            "deepwalk", graph=small_graph, rng=5, num_walks=1, walk_length=8,
            window_size=2, embedding_dim=8, num_epochs=2, batch_size=32,
        ).fit()
        source = model.pair_source_
        assert source.pairs is None
        assert source.num_pairs > 0
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

    def test_sampled_batch_source_pulls_in_order(self):
        counter = iter(range(100))
        source = SampledBatchSource(lambda: next(counter))
        batches = source.batches()
        assert [next(batches) for _ in range(3)] == [0, 1, 2]


class TestCorpusAssembly:
    """``walk_corpus`` writes each pass into its slice of one matrix."""

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.5, 2.0)], ids=["uniform", "biased"])
    def test_equals_stacked_passes(self, small_graph, p, q):
        engine = small_graph.walk_engine()
        corpus = engine.walk_corpus(3, 9, p=p, q=q, rng=31)
        # The schedule by hand: every pass shuffles the start order and walks
        # once from each node, all on one generator.
        rng = np.random.default_rng(31)
        nodes = np.arange(small_graph.num_nodes)
        passes = []
        for _ in range(3):
            rng.shuffle(nodes)
            passes.append(engine.node2vec_walks(nodes, 9, p=p, q=q, rng=rng))
        # Every pass is int64; the corpus holds the same ids as int32.
        assert all(walks.dtype == np.int64 for walks in passes)
        stacked = np.vstack(passes).astype(np.int32)
        assert corpus.dtype == stacked.dtype and corpus.shape == stacked.shape
        assert corpus.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.5, 2.0)], ids=["uniform", "table"])
    def test_peak_is_corpus_plus_one_pass(self, p, q):
        graph = powerlaw_cluster_graph(3000, attachment=3, triangle_prob=0.3, rng=4)
        engine = graph.walk_engine()
        # The node2vec table is the engine's cache, built on first use; it
        # is built before the trace, which measures walking only.
        if engine.resolved_second_order(p, q) == "table":
            engine.second_order_table(p, q)
        num_walks, walk_length, n = 10, 80, graph.num_nodes
        pass_bytes = n * walk_length * 8  # one int64 pass matrix
        corpus_bytes = num_walks * n * walk_length * 4  # the int32 corpus
        # Beside the corpus and the pass being walked, a step holds arrays
        # of one 8-byte value per walk: the shuffled start order, the active
        # walks and their nodes and, on the table path, the arcs, segment
        # bounds, draws and the bisection's working arrays.  Fewer than 32
        # are alive at once; 256 KiB covers the interpreter's bookkeeping.
        slack = 32 * n * 8 + (256 << 10)
        tracemalloc.start()
        try:
            corpus = engine.walk_corpus(num_walks, walk_length, p=p, q=q, rng=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.nbytes == corpus_bytes
        assert peak <= corpus_bytes + pass_bytes + slack, (
            peak, corpus_bytes, pass_bytes, slack
        )


class TestTableMemory:
    """The node2vec table is built a bounded chunk of entries at a time."""

    def test_build_peak_is_table_plus_one_chunk(self):
        # ppi at scale 3 is the node2vec benchmark's graph.
        engine = WalkEngine(load_dataset("ppi", scale=3.0))
        arcs = int(engine.graph.degrees.sum())
        tracemalloc.start()
        try:
            table = engine.second_order_table(0.25, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = sum(
            getattr(table, f).nbytes
            for f in ("arc_keys", "entry_offsets", "candidates", "cum_weights", "base", "total")
        )
        assert table_bytes == 12 * engine.second_order_entry_count() + 32 * arcs + 8
        # Beside the table the build holds two int64 values per arc (each
        # arc's source node, then the segment ends) and one chunk's
        # temporaries, fewer than eight 8-byte values per entry; 256 KiB
        # covers the interpreter's bookkeeping.
        slack = 16 * arcs + 64 * walk_engine._TABLE_CHUNK_ENTRIES + (256 << 10)
        assert peak <= table_bytes + slack, (peak, table_bytes, slack)
        assert peak <= 1.3 * table_bytes, (peak, table_bytes)


class TestMaterialisedMemory:
    """A materialised fit holds one pair corpus and pins no walk table."""

    def test_fit_drops_second_order_table(self, small_graph):
        def fit():
            return make_model(
                "node2vec", graph=small_graph, rng=9, p=0.5, q=2.0, num_walks=2,
                walk_length=8, window_size=2, embedding_dim=8, num_epochs=2,
                batch_size=64,
            ).fit()

        engine = small_graph.walk_engine()
        assert engine.resolved_second_order(0.5, 2.0) == "table"
        first = fit()
        assert not engine._tables
        # The next fit on the same graph object rebuilds the table it needs.
        assert fit().embeddings_.tobytes() == first.embeddings_.tobytes()
        assert not engine._tables

    def test_fit_peak_is_one_pair_corpus(self):
        # One epoch, so the source's only pass shuffles the pairs in place.
        # 8,000 walks fit in one extraction chunk, and the pair array of
        # 2-byte ids (2,000 nodes: uint16) is about four times the int32
        # walk corpus.
        graph = powerlaw_cluster_graph(2000, attachment=3, triangle_prob=0.3, rng=4)
        num_walks, walk_length, window, batch = 4, 40, 2, 1024
        model = make_model(
            "deepwalk", graph=graph, rng=3, num_walks=num_walks,
            walk_length=walk_length, window_size=window, embedding_dim=8,
            num_negatives=1, num_epochs=1, batch_size=batch,
        )
        graph.walk_engine()
        rows = num_walks * graph.num_nodes
        corpus_bytes = rows * walk_length * 4  # int32 walk matrix
        pair_bytes = rows * window * (2 * walk_length - window - 1) * 2 * 2  # uint16
        # Beside the two corpus-sized arrays, extraction holds one chunk's
        # boundary grid (int32 contexts of rows * window * 2 * window
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
        assert model.pair_source_.num_pairs * 4 == pair_bytes
        assert peak <= pair_bytes + corpus_bytes + slack, (
            peak, pair_bytes, corpus_bytes, slack
        )
