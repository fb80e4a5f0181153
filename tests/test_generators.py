"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from reference_impl import (
    reference_labelled_powerlaw_community_graph,
    reference_powerlaw_cluster_graph,
)
from repro.graph import datasets
from repro.graph.generators import (
    labelled_powerlaw_community_graph,
    powerlaw_cluster_graph,
)


class TestPowerlawCluster:
    def test_size(self):
        g = powerlaw_cluster_graph(200, attachment=4, triangle_prob=0.5, rng=0)
        assert g.num_nodes == 200
        assert g.num_edges > 0

    def test_triangle_prob_validation(self):
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(100, attachment=2, triangle_prob=1.5)

    def test_clustering_increases_with_triangle_prob(self):
        def triangle_count(graph):
            count = 0
            for u, v in graph.edges:
                nu = set(graph.neighbours(int(u)).tolist())
                nv = set(graph.neighbours(int(v)).tolist())
                count += len(nu & nv)
            return count

        low = powerlaw_cluster_graph(300, attachment=4, triangle_prob=0.0, rng=3)
        high = powerlaw_cluster_graph(300, attachment=4, triangle_prob=0.9, rng=3)
        assert triangle_count(high) > triangle_count(low)


class TestLabelledPowerlawCommunity:
    def test_labels_present(self):
        g = labelled_powerlaw_community_graph(200, num_communities=5, attachment=4, rng=0)
        assert g.labels is not None
        assert set(np.unique(g.labels)) <= set(range(5))

    def test_community_assortativity(self):
        g = labelled_powerlaw_community_graph(
            300, num_communities=4, attachment=5, intra_prob=0.9, rng=2
        )
        labels = g.labels
        intra = sum(1 for u, v in g.edges if labels[u] == labels[v])
        assert intra / g.num_edges > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            labelled_powerlaw_community_graph(100, num_communities=1, attachment=3)
        with pytest.raises(ValueError):
            labelled_powerlaw_community_graph(100, num_communities=4, attachment=3, intra_prob=0.0)


def assert_same_graph(graph, reference):
    assert graph.name == reference.name
    assert graph.num_nodes == reference.num_nodes
    assert graph.edges.dtype == reference.edges.dtype
    assert graph.edges.tobytes() == reference.edges.tobytes()
    if reference.labels is None:
        assert graph.labels is None
    else:
        assert graph.labels.dtype == reference.labels.dtype
        assert graph.labels.tobytes() == reference.labels.tobytes()


class TestReferenceParity:
    """The raw-stream generators build the graphs numpy's scalar draws built."""

    @pytest.mark.parametrize("seed", [None, 0, 7])
    @pytest.mark.parametrize("name,scale", [
        *((name, scale) for scale in (0.25, 1.0) for name in datasets.list_datasets()),
        ("ppi", 3.0),
    ])
    def test_registered_datasets(self, name, scale, seed, monkeypatch):
        graph = datasets.load_dataset(name, scale=scale, seed=seed)
        monkeypatch.setattr(
            datasets, "powerlaw_cluster_graph", reference_powerlaw_cluster_graph
        )
        monkeypatch.setattr(
            datasets,
            "labelled_powerlaw_community_graph",
            reference_labelled_powerlaw_community_graph,
        )
        assert_same_graph(graph, datasets.load_dataset(name, scale=scale, seed=seed))

    @staticmethod
    def check(build, reference, kwargs, seed, hold_half_word):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if hold_half_word:
            # A 32-bit draw leaves the high half of its output held.
            assert rng.integers(0, 5) == ref_rng.integers(0, 5)
            assert rng.bit_generator.state["has_uint32"] == 1
        assert_same_graph(build(rng=rng, **kwargs), reference(rng=ref_rng, **kwargs))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()
        assert rng.integers(0, 1000) == ref_rng.integers(0, 1000)

    @pytest.mark.parametrize("hold_half_word", [False, True])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("kwargs", [
        dict(num_nodes=2, attachment=1, triangle_prob=0.5),
        dict(num_nodes=5, attachment=4, triangle_prob=0.3),
        dict(num_nodes=300, attachment=1, triangle_prob=0.5),
        dict(num_nodes=300, attachment=3, triangle_prob=0.0),
        dict(num_nodes=300, attachment=3, triangle_prob=1.0),
        dict(num_nodes=60, attachment=20, triangle_prob=0.6),
    ], ids=["smallest", "smallest-a4", "attachment-1", "triangle-0", "triangle-1",
            "dense"])
    def test_powerlaw_cluster_boundaries(self, kwargs, seed, hold_half_word):
        self.check(powerlaw_cluster_graph, reference_powerlaw_cluster_graph,
                   kwargs, seed, hold_half_word)

    @pytest.mark.parametrize("hold_half_word", [False, True])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("kwargs", [
        dict(num_nodes=5, num_communities=2, attachment=2),
        dict(num_nodes=300, num_communities=4, attachment=1),
        dict(num_nodes=300, num_communities=4, attachment=3, intra_prob=1.0),
        dict(num_nodes=300, num_communities=2, attachment=3, intra_prob=0.01),
        dict(num_nodes=40, num_communities=3, attachment=30, intra_prob=0.7),
    ], ids=["smallest", "attachment-1", "intra-1", "intra-tiny", "dense"])
    def test_labelled_community_boundaries(self, kwargs, seed, hold_half_word):
        self.check(labelled_powerlaw_community_graph,
                   reference_labelled_powerlaw_community_graph,
                   kwargs, seed, hold_half_word)

    @pytest.mark.parametrize("build", [
        lambda rng: powerlaw_cluster_graph(50, 2, 0.5, rng=rng),
        lambda rng: labelled_powerlaw_community_graph(50, 3, 2, rng=rng),
    ], ids=["powerlaw-cluster", "labelled-community"])
    def test_non_pcg64_generator_is_refused(self, build):
        with pytest.raises(TypeError, match="PCG64 bit generator, got MT19937"):
            build(np.random.Generator(np.random.MT19937(0)))
