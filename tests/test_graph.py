"""Tests for the Graph data structure."""

import numpy as np
import pytest

from repro.graph.graph import Graph


class TestGraphConstruction:
    def test_basic_properties(self, triangle_graph):
        assert triangle_graph.num_nodes == 4
        assert triangle_graph.num_edges == 4

    def test_edges_are_sorted_and_deduplicated(self):
        g = Graph(3, [(1, 0), (0, 1), (2, 1)])
        assert g.num_edges == 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(3, [(0, 5)])

    def test_nonpositive_num_nodes_rejected(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    def test_labels_shape_validated(self):
        with pytest.raises(ValueError, match="labels"):
            Graph(3, [(0, 1)], labels=[0, 1])

    def test_labels_stored(self):
        g = Graph(3, [(0, 1)], labels=[0, 1, 1])
        assert g.labels.tolist() == [0, 1, 1]


class TestGraphQueries:
    def test_degrees(self, triangle_graph):
        assert triangle_graph.degree(2) == 3
        assert triangle_graph.degree(3) == 1
        assert triangle_graph.degrees.sum() == 2 * triangle_graph.num_edges

    def test_neighbours_sorted(self, triangle_graph):
        assert triangle_graph.neighbours(2).tolist() == [0, 1, 3]

    def test_neighbours_out_of_range(self, triangle_graph):
        with pytest.raises(ValueError):
            triangle_graph.neighbours(10)

    def test_has_edge(self, triangle_graph):
        assert triangle_graph.has_edge(0, 1)
        assert triangle_graph.has_edge(1, 0)
        assert not triangle_graph.has_edge(0, 3)
        assert not triangle_graph.has_edge(0, 0)
        assert not triangle_graph.has_edge(0, 99)

    def test_edge_set(self, triangle_graph):
        assert (0, 1) in triangle_graph.edge_set()
        assert (1, 0) not in triangle_graph.edge_set()

    def test_degree_out_of_range(self, triangle_graph):
        with pytest.raises(ValueError):
            triangle_graph.degree(-1)


class TestGraphMatrices:
    def test_adjacency_matrix_symmetric(self, triangle_graph):
        adj = triangle_graph.adjacency_matrix()
        assert np.array_equal(adj, adj.T)
        assert adj.sum() == 2 * triangle_graph.num_edges
        assert np.all(np.diag(adj) == 0)

    def test_normalized_adjacency_row_bound(self, small_graph):
        norm = small_graph.normalized_adjacency()
        # Symmetric normalisation keeps entries in [0, 1] and the matrix symmetric.
        assert np.all(norm >= 0)
        assert np.all(norm <= 1 + 1e-12)
        assert np.allclose(norm, norm.T)

    def test_normalized_adjacency_without_self_loops(self, triangle_graph):
        norm = triangle_graph.normalized_adjacency(add_self_loops=False)
        assert np.allclose(np.diag(norm), 0.0)

    def test_dense_limit_guard(self, triangle_graph):
        with pytest.raises(ValueError, match="dense_limit"):
            triangle_graph.adjacency_matrix(dense_limit=3)
        with pytest.raises(ValueError, match="dense_limit"):
            triangle_graph.normalized_adjacency(dense_limit=3)

    def test_dense_limit_override(self, triangle_graph):
        # Raising the limit (or disabling it with None) restores the matrix.
        adj = triangle_graph.adjacency_matrix(dense_limit=None)
        assert adj.shape == (4, 4)
        norm = triangle_graph.normalized_adjacency(dense_limit=4)
        assert norm.shape == (4, 4)

    def test_dense_limit_message_names_method_and_size(self, triangle_graph):
        with pytest.raises(ValueError, match=r"adjacency_matrix .*4x4"):
            triangle_graph.adjacency_matrix(dense_limit=2)


class TestGraphTransforms:
    def test_subgraph_with_edges(self, triangle_graph):
        sub = triangle_graph.subgraph_with_edges(np.array([[0, 1]]))
        assert sub.num_nodes == triangle_graph.num_nodes
        assert sub.num_edges == 1

    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert sorted(map(len, comps)) == [1, 2, 2]

    def test_connected_components_cover_all_nodes(self, small_graph):
        comps = small_graph.connected_components()
        assert sum(len(c) for c in comps) == small_graph.num_nodes

    def test_label_counts(self, labelled_graph):
        counts = labelled_graph.label_counts()
        assert sum(counts.values()) == labelled_graph.num_nodes
        assert len(counts) == 4

    def test_label_counts_empty_for_unlabelled(self, small_graph):
        assert small_graph.label_counts() == {}
