"""Tests for Algorithm-2 sampling and train/test edge splitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.graph import Graph
from repro.graph.sampling import EdgeSampler
from repro.graph.splits import train_test_split_edges


class TestEdgeSampler:
    def test_batch_shapes(self, small_graph):
        sampler = EdgeSampler(small_graph, batch_size=16, num_negatives=5, rng=0)
        batch = sampler.sample()
        assert batch.positive_edges.shape == (16, 2)
        assert batch.negative_pairs.shape == (80, 2)
        assert batch.batch_size == 16
        assert batch.negatives_per_edge == 5

    def test_positive_edges_exist_in_graph(self, small_graph):
        sampler = EdgeSampler(small_graph, batch_size=32, num_negatives=2, rng=0)
        batch = sampler.sample()
        for u, v in batch.positive_edges:
            assert small_graph.has_edge(int(u), int(v))

    def test_negative_sources_match_positive_sources(self, small_graph):
        sampler = EdgeSampler(small_graph, batch_size=8, num_negatives=3, rng=0)
        batch = sampler.sample()
        expected = np.repeat(batch.positive_edges[:, 0], 3)
        assert np.array_equal(batch.negative_pairs[:, 0], expected)

    def test_sampling_probabilities(self, small_graph):
        sampler = EdgeSampler(small_graph, batch_size=16, num_negatives=5, rng=0)
        assert sampler.edge_sampling_probability == pytest.approx(
            16 / small_graph.num_edges
        )
        assert sampler.node_sampling_probability == pytest.approx(
            min(1.0, 80 / small_graph.num_nodes)
        )

    def test_probabilities_clamped_to_one(self, triangle_graph):
        sampler = EdgeSampler(triangle_graph, batch_size=100, num_negatives=5, rng=0)
        assert sampler.edge_sampling_probability == 1.0
        assert sampler.node_sampling_probability == 1.0

    def test_probabilities_follow_actual_take(self):
        # Regression: with batch_size > |E| the sampler clamps its draw, and
        # the probabilities reported to the RDP accountant must describe the
        # clamped take, not the configured batch size.
        from repro.graph.graph import Graph

        sparse = Graph(100, [(0, 1), (1, 2), (2, 3)])
        sampler = EdgeSampler(sparse, batch_size=10, num_negatives=2, rng=0)
        batch = sampler.sample()
        assert batch.batch_size == 3  # clamped to |E|
        assert sampler.positive_batch_size == 3
        assert batch.negative_pairs.shape == (6, 2)
        assert sampler.edge_sampling_probability == pytest.approx(1.0)
        # 3 * 2 / 100, not the configured 10 * 2 / 100 = 0.2 over-charge.
        assert sampler.node_sampling_probability == pytest.approx(0.06)

    def test_batch_capped_at_edge_count(self, triangle_graph):
        sampler = EdgeSampler(triangle_graph, batch_size=100, num_negatives=2, rng=0)
        batch = sampler.sample()
        assert batch.batch_size == triangle_graph.num_edges

    def test_invalid_parameters(self, small_graph):
        with pytest.raises(ValueError):
            EdgeSampler(small_graph, batch_size=0)
        with pytest.raises(ValueError):
            EdgeSampler(small_graph, batch_size=4, num_negatives=0)

    def test_sample_nodes(self, small_graph):
        sampler = EdgeSampler(small_graph, batch_size=4, rng=0)
        nodes = sampler.sample_nodes(10)
        assert nodes.shape == (10,)
        assert nodes.min() >= 0 and nodes.max() < small_graph.num_nodes
        with pytest.raises(ValueError):
            sampler.sample_nodes(0)

    def test_reproducible_with_seed(self, small_graph):
        b1 = EdgeSampler(small_graph, batch_size=8, rng=42).sample()
        b2 = EdgeSampler(small_graph, batch_size=8, rng=42).sample()
        assert np.array_equal(b1.positive_edges, b2.positive_edges)
        assert np.array_equal(b1.negative_pairs, b2.negative_pairs)


class TestEdgeSplit:
    def test_split_sizes(self, small_graph):
        split = train_test_split_edges(small_graph, test_fraction=0.1, rng=0)
        expected_test = int(round(small_graph.num_edges * 0.1))
        assert split.test_edges.shape[0] == expected_test
        assert split.train_edges.shape[0] == small_graph.num_edges - expected_test
        assert split.test_negatives.shape[0] == expected_test
        assert split.train_negatives.shape[0] == split.train_edges.shape[0]

    def test_train_graph_preserves_node_count(self, small_graph):
        split = train_test_split_edges(small_graph, rng=0)
        assert split.train_graph.num_nodes == small_graph.num_nodes
        assert split.train_graph.num_edges == split.train_edges.shape[0]

    def test_negatives_are_non_edges(self, small_graph):
        split = train_test_split_edges(small_graph, rng=0)
        for u, v in split.test_negatives:
            assert not small_graph.has_edge(int(u), int(v))
        for u, v in split.train_negatives:
            assert not small_graph.has_edge(int(u), int(v))

    def test_train_and_test_edges_disjoint(self, small_graph):
        split = train_test_split_edges(small_graph, rng=0)
        train = {tuple(e) for e in split.train_edges.tolist()}
        test = {tuple(e) for e in split.test_edges.tolist()}
        assert not train & test

    def test_invalid_fraction(self, small_graph):
        with pytest.raises(ValueError):
            train_test_split_edges(small_graph, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split_edges(small_graph, test_fraction=1.0)

    def test_reproducible(self, small_graph):
        s1 = train_test_split_edges(small_graph, rng=3)
        s2 = train_test_split_edges(small_graph, rng=3)
        assert np.array_equal(s1.test_edges, s2.test_edges)
        assert np.array_equal(s1.test_negatives, s2.test_negatives)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(3, 60),
        st.floats(0.02, 0.45),
        st.sampled_from([0.1, 0.25, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    def test_negatives_are_distinct_canonical_non_edges(self, n, density, test_fraction, seed):
        rng = np.random.default_rng(seed)
        edges = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
        edges = edges[rng.random(len(edges)) < density]
        if len(edges) < 2:
            edges = np.array([[0, 1], [1, 2]])
        graph = Graph(n, edges)
        try:
            split = train_test_split_edges(graph, test_fraction, rng=seed)
        except RuntimeError:
            return  # too dense for the requested negatives
        negatives = np.vstack([split.test_negatives, split.train_negatives])
        assert split.test_negatives.shape == split.test_edges.shape
        assert split.train_negatives.shape == split.train_edges.shape
        assert (negatives[:, 0] < negatives[:, 1]).all()
        assert not any(graph.has_edge(int(u), int(v)) for u, v in negatives)
        assert len({(int(u), int(v)) for u, v in negatives}) == len(negatives)
