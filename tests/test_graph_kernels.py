"""Parity and property tests for the vectorized graph kernels.

The vectorized CSR construction, connected components, walk engine and
``walks_to_pairs`` are checked against the loop-based reference
implementations preserved in ``tests/reference_impl.py``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.graph.random_walk import walks_to_pairs
from repro.graph.walk_engine import WalkEngine
from reference_impl import (
    reference_build_adjacency,
    reference_connected_components,
    reference_dedup_edges,
    reference_walks_to_pairs,
)


def random_edge_list(rng, num_nodes, num_edges):
    """Random edges with duplicates and both orientations, no self-loops."""
    e = rng.integers(0, num_nodes, size=(num_edges, 2))
    return e[e[:, 0] != e[:, 1]]


def sort_pairs(pairs):
    return pairs[np.lexsort(pairs.T[::-1])]


def padded(walks):
    """Walks as the engine's ``-1``-padded int64 matrix, one walk per row."""
    matrix = np.full((len(walks), max(map(len, walks), default=0)), -1, dtype=np.int64)
    for row, walk in zip(matrix, walks):
        row[: len(walk)] = walk
    return matrix


def unpadded(matrix):
    """Rows of a ``-1``-padded walk matrix as lists, for the reference loops."""
    return [row[row >= 0].tolist() for row in matrix]


class TestCsrParity:
    @pytest.mark.parametrize("trial", range(10))
    def test_construction_matches_reference(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 80))
        edges = random_edge_list(rng, n, int(rng.integers(0, 5 * n)))
        g = Graph(n, edges.tolist())
        ref_edges = reference_dedup_edges(n, edges.tolist())
        assert np.array_equal(g.edges, ref_edges)
        offsets, neighbours, degree = reference_build_adjacency(n, ref_edges)
        assert np.array_equal(g.csr_offsets, offsets)
        assert np.array_equal(g.csr_neighbours, neighbours)
        assert np.array_equal(g.degrees, degree)

    def test_ndarray_and_list_inputs_agree(self):
        rng = np.random.default_rng(0)
        edges = random_edge_list(rng, 30, 100)
        g_arr = Graph(30, edges)
        g_list = Graph(30, [tuple(map(int, e)) for e in edges])
        assert np.array_equal(g_arr.edges, g_list.edges)

    def test_empty_graph(self):
        g = Graph(5, [])
        assert g.num_edges == 0
        assert g.csr_offsets.tolist() == [0] * 6
        assert g.connected_components() == [[0], [1], [2], [3], [4]]

    def test_misshaped_edge_array_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Graph(6, np.array([[0, 1, 2], [3, 4, 5]]))
        with pytest.raises(ValueError, match="shape"):
            Graph(6, np.array([0, 1, 2]))


class TestConnectedComponentsParity:
    @pytest.mark.parametrize("trial", range(10))
    def test_matches_reference_bfs(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 120))
        # Sparse edges so several components exist.
        edges = random_edge_list(rng, n, int(rng.integers(0, n)))
        g = Graph(n, edges.tolist())
        assert g.connected_components() == reference_connected_components(g)

    def test_isolated_nodes_are_singletons(self):
        g = Graph(6, [(0, 1), (3, 4)])
        comps = g.connected_components()
        assert [0, 1] in comps and [3, 4] in comps
        assert [2] in comps and [5] in comps


class TestReadOnlyViews:
    def test_internal_buffers_are_frozen(self, triangle_graph):
        for arr in (
            triangle_graph.edges,
            triangle_graph.degrees,
            triangle_graph.csr_offsets,
            triangle_graph.csr_neighbours,
            triangle_graph.neighbours(0),
        ):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_fancy_indexing_still_returns_writable_copies(self, triangle_graph):
        batch = triangle_graph.edges[np.array([0, 1])]
        batch[0, 0] = 99  # must not raise
        assert triangle_graph.edges[0, 0] != 99


class TestWalkEngine:
    def test_uniform_walks_shape_and_edges(self, small_graph):
        engine = WalkEngine(small_graph)
        starts = np.arange(small_graph.num_nodes)
        walks = engine.uniform_walks(starts, 10, rng=0)
        assert walks.shape == (small_graph.num_nodes, 10)
        assert np.array_equal(walks[:, 0], starts)
        for row in walks[:40]:
            for a, b in zip(row, row[1:]):
                assert small_graph.has_edge(int(a), int(b))

    def test_uniform_walks_deterministic(self, small_graph):
        engine = WalkEngine(small_graph)
        starts = np.arange(small_graph.num_nodes)
        w1 = engine.uniform_walks(starts, 8, rng=3)
        w2 = engine.uniform_walks(starts, 8, rng=3)
        assert np.array_equal(w1, w2)

    def test_isolated_start_is_padded(self):
        g = Graph(4, [(0, 1)])
        walks = WalkEngine(g).uniform_walks(np.array([2, 0]), 5, rng=0)
        assert walks[0].tolist() == [2, -1, -1, -1, -1]
        assert (walks[1] >= 0).all()

    def test_node2vec_walks_follow_edges(self, small_graph):
        engine = WalkEngine(small_graph)
        walks = engine.node2vec_walks(
            np.arange(small_graph.num_nodes), 8, p=0.25, q=4.0, rng=0
        )
        for row in walks[:40]:
            for a, b in zip(row, row[1:]):
                assert small_graph.has_edge(int(a), int(b))

    def test_node2vec_small_p_returns(self):
        # Path graph 0-1-2: from the second step on, a tiny p makes the walk
        # return to the previous node almost surely.
        g = Graph(3, [(0, 1), (1, 2)])
        engine = WalkEngine(g)
        walks = engine.node2vec_walks(np.zeros(200, dtype=np.int64), 4, p=1e-9, q=1.0, rng=0)
        # step0=0, step1=1 (forced), step2 should return to 0 nearly always
        returns = (walks[:, 2] == 0).mean()
        assert returns > 0.99

    def test_node2vec_large_q_stays_local(self):
        # Star + ring: large q discourages moving to nodes not adjacent to the
        # previous node; just verify validity and determinism here.
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        engine = WalkEngine(g)
        w1 = engine.node2vec_walks(np.arange(5), 6, p=2.0, q=8.0, rng=5)
        w2 = engine.node2vec_walks(np.arange(5), 6, p=2.0, q=8.0, rng=5)
        assert np.array_equal(w1, w2)

    def test_second_order_table_weights(self):
        # Triangle 0-1-2 plus pendant 2-3; arc (0 -> 1): candidates of node 1
        # are [0, 2]; 0 is the previous node (1/p), 2 is adjacent to 0 (1.0).
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        engine = WalkEngine(g)
        table = engine.second_order_table(p=4.0, q=0.5)
        arc = int(np.searchsorted(table.arc_keys, 0 * 4 + 1))
        lo, hi = table.entry_offsets[arc], table.entry_offsets[arc + 1]
        cands = table.candidates[lo:hi].tolist()
        weights = np.diff(np.concatenate([[table.base[arc]], table.cum_weights[lo:hi]]))
        lookup = dict(zip(cands, weights))
        assert lookup[0] == pytest.approx(1.0 / 4.0)  # return to prev
        assert lookup[2] == pytest.approx(1.0)  # triangle closure
        # arc (3 -> 2): candidate 0 and 1 are NOT adjacent to 3 -> 1/q
        arc = int(np.searchsorted(table.arc_keys, 3 * 4 + 2))
        lo, hi = table.entry_offsets[arc], table.entry_offsets[arc + 1]
        cands = table.candidates[lo:hi].tolist()
        weights = np.diff(np.concatenate([[table.base[arc]], table.cum_weights[lo:hi]]))
        lookup = dict(zip(cands, weights))
        assert lookup[0] == pytest.approx(1.0 / 0.5)
        assert lookup[1] == pytest.approx(1.0 / 0.5)
        assert lookup[3] == pytest.approx(1.0 / 4.0)

    def test_validation(self, small_graph):
        engine = WalkEngine(small_graph)
        with pytest.raises(ValueError):
            engine.uniform_walks(np.array([0]), 0)
        with pytest.raises(ValueError):
            engine.uniform_walks(np.array([-1]), 5)
        with pytest.raises(ValueError):
            engine.node2vec_walks(np.array([0]), 5, p=0.0)

    def test_walk_corpus_stacks_shuffled_passes(self, small_graph):
        engine = WalkEngine(small_graph)
        corpus = engine.walk_corpus(3, 6, rng=0)
        assert corpus.shape == (3 * small_graph.num_nodes, 6)
        assert corpus.dtype == np.int32
        starts = np.sort(corpus[:, 0])
        assert np.array_equal(
            starts, np.repeat(np.arange(small_graph.num_nodes), 3)
        )
        with pytest.raises(ValueError):
            engine.walk_corpus(0, 5)

    def test_refuses_ids_past_int32(self):
        # The node count is checked before any graph array is read.
        with pytest.raises(ValueError, match="int32"):
            WalkEngine(SimpleNamespace(num_nodes=2**31))


class TestWalksToPairsParity:
    @pytest.mark.parametrize("trial", range(10))
    def test_ragged_corpus_matches_reference(self, trial):
        rng = np.random.default_rng(200 + trial)
        walks = [
            list(map(int, rng.integers(0, 50, size=int(rng.integers(1, 12)))))
            for _ in range(int(rng.integers(1, 25)))
        ]
        window = int(rng.integers(1, 7))
        got = walks_to_pairs(padded(walks), window)
        ref = reference_walks_to_pairs(walks, window)
        assert got.shape == ref.shape
        assert np.array_equal(sort_pairs(got), sort_pairs(ref))

    @pytest.mark.parametrize("window", [1, 3, 5, 9, 19, 30])
    def test_full_matrix_matches_reference(self, window):
        rng = np.random.default_rng(42)
        matrix = rng.integers(0, 500, size=(50, 20))
        got = walks_to_pairs(matrix, window)
        ref = reference_walks_to_pairs([row.tolist() for row in matrix], window)
        assert np.array_equal(sort_pairs(got), sort_pairs(ref))

    def test_window_larger_than_walk(self):
        walks = [[0, 1, 2]]
        got = walks_to_pairs(padded(walks), window_size=99)
        ref = reference_walks_to_pairs(walks, window_size=99)
        assert np.array_equal(sort_pairs(got), sort_pairs(ref))

    def test_single_node_walks_and_empty(self):
        assert walks_to_pairs(padded([[5]]), 2).shape == (0, 2)
        assert walks_to_pairs(padded([]), 2).shape == (0, 2)
        assert walks_to_pairs(np.zeros((0, 4), dtype=np.int64), 2).shape == (0, 2)

    def test_padded_matrix_skips_sentinels(self):
        matrix = np.array([[0, 1, -1, -1], [2, 3, 4, -1]])
        got = walks_to_pairs(matrix, 2)
        ref = reference_walks_to_pairs([[0, 1], [2, 3, 4]], 2)
        assert np.array_equal(sort_pairs(got), sort_pairs(ref))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            walks_to_pairs(padded([[0, 1]]), 0)

    @pytest.mark.parametrize(
        "walks",
        [np.array([0, 1, 2]), np.array([[0.0, 1.0, 2.0]]), [[0, 1], [2]]],
        ids=["1-d", "float", "ragged-lists"],
    )
    def test_only_2d_integer_matrices(self, walks):
        with pytest.raises(ValueError):
            walks_to_pairs(walks, 2)

    def test_all_padding_rows_round_trip(self):
        # Rows that are entirely -1 padding contribute no pairs and must agree
        # with the reference pipeline run on the truncated corpus.
        matrix = np.array([[-1, -1, -1, -1], [0, 1, 2, -1], [-1, -1, -1, -1]])
        got = walks_to_pairs(matrix, 2)
        ref = reference_walks_to_pairs(unpadded(matrix), 2)
        assert np.array_equal(sort_pairs(got), sort_pairs(ref))

    def test_entirely_padded_matrix_yields_no_pairs(self):
        matrix = np.full((5, 4), -1, dtype=np.int64)
        assert walks_to_pairs(matrix, 3).shape == (0, 2)

    @pytest.mark.parametrize("dtype", [np.int32, np.int16])
    def test_integer_dtypes_round_trip(self, dtype):
        # The walk engine emits int64 but int32 corpora (e.g. reloaded from
        # disk) must produce exactly the same pairs as the reference loops.
        rng = np.random.default_rng(77)
        matrix = rng.integers(0, 120, size=(40, 9)).astype(dtype)
        matrix[rng.random(matrix.shape) < 0.2] = -1
        # Re-impose the engine's prefix-validity convention (-1 only as padding).
        first_pad = np.argmax(matrix < 0, axis=1)
        has_pad = (matrix < 0).any(axis=1)
        for i in np.flatnonzero(has_pad):
            matrix[i, first_pad[i]:] = -1
        got = walks_to_pairs(matrix, 3)
        ref = reference_walks_to_pairs(unpadded(matrix), 3)
        assert np.array_equal(sort_pairs(got.astype(np.int64)), sort_pairs(ref))


# ---------------------------------------------------------------------------
# engine-side derived caches (transition tables, entry count)
# ---------------------------------------------------------------------------
class TestEngineCaches:
    def test_second_order_entry_count_cached_and_correct(self, small_graph):
        engine = WalkEngine(small_graph)
        expected = int(
            (small_graph.degrees.astype(np.float64) ** 2).sum()
        )
        assert engine.second_order_entry_count() == expected
        assert engine._entry_count == expected  # memoised
        assert engine.second_order_entry_count() == expected

    def test_second_order_table_cached_per_pq(self, small_graph):
        engine = WalkEngine(small_graph)
        table = engine.second_order_table(0.5, 2.0)
        assert engine.second_order_table(0.5, 2.0) is table
        assert engine.second_order_table(2.0, 0.5) is not table

    def test_resolved_second_order_modes(self, small_graph):
        engine = WalkEngine(small_graph)
        assert engine.resolved_second_order(1.0, 1.0) == "uniform"
        assert engine.resolved_second_order(0.5, 2.0) == "table"
        # The table/rejection choice is made from the entry count alone.
        engine.second_order_entry_limit = engine.second_order_entry_count()
        assert engine.resolved_second_order(0.5, 2.0) == "table"
        engine.second_order_entry_limit -= 1
        assert engine.resolved_second_order(0.5, 2.0) == "rejection"

    def test_cached_table_walks_match_fresh_engine(self, small_graph):
        """Reusing a cached table across passes changes nothing numerically."""
        warm = WalkEngine(small_graph)
        assert warm.resolved_second_order(0.5, 2.0) == "table"
        warm.second_order_table(0.5, 2.0)  # pre-warm
        a = warm.node2vec_walks(
            np.arange(20), 8, p=0.5, q=2.0, rng=np.random.default_rng(3)
        )
        b = WalkEngine(small_graph).node2vec_walks(
            np.arange(20), 8, p=0.5, q=2.0, rng=np.random.default_rng(3)
        )
        np.testing.assert_array_equal(a, b)
