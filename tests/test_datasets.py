"""Tests for the dataset registry."""

import hashlib

import numpy as np
import pytest

from repro.graph.datasets import DatasetSpec, get_spec, list_datasets, load_dataset


class TestRegistry:
    def test_all_six_datasets_registered(self):
        names = list_datasets()
        assert names == sorted(["ppi", "facebook", "wiki", "blog", "epinions", "dblp"])

    def test_get_spec_case_insensitive(self):
        assert get_spec("PPI").name == "ppi"

    def test_get_spec_unknown(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            get_spec("imaginary")

    def test_specs_record_paper_sizes(self):
        spec = get_spec("ppi")
        assert isinstance(spec, DatasetSpec)
        assert spec.paper_nodes == 3890
        assert spec.paper_edges == 76584


class TestLoading:
    @pytest.mark.parametrize("name", ["ppi", "facebook", "wiki", "blog", "epinions", "dblp"])
    def test_load_small_scale(self, name):
        g = load_dataset(name, scale=0.1, seed=1)
        assert g.num_nodes >= 64
        assert g.num_edges > g.num_nodes  # denser than a tree
        assert g.name == name

    def test_labelled_datasets_have_labels(self):
        for name in ("ppi", "wiki", "blog"):
            g = load_dataset(name, scale=0.1, seed=1)
            assert g.labels is not None

    def test_unlabelled_datasets_have_no_labels(self):
        for name in ("facebook", "epinions", "dblp"):
            g = load_dataset(name, scale=0.1, seed=1)
            assert g.labels is None

    def test_deterministic_default_seed(self):
        g1 = load_dataset("ppi", scale=0.1)
        g2 = load_dataset("ppi", scale=0.1)
        assert np.array_equal(g1.edges, g2.edges)

    def test_seed_changes_graph(self):
        g1 = load_dataset("ppi", scale=0.1, seed=1)
        g2 = load_dataset("ppi", scale=0.1, seed=2)
        assert not np.array_equal(g1.edges, g2.edges)

    def test_scale_changes_size(self):
        small = load_dataset("facebook", scale=0.1, seed=1)
        large = load_dataset("facebook", scale=0.3, seed=1)
        assert large.num_nodes > small.num_nodes

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("ppi", scale=0.0)


class TestPinnedDatasets:
    """sha256 of each analogue's edge and label bytes at its default seed.

    Result-cache keys name a dataset only by (name, scale, seed), so a build
    that drifts by one edge would silently mix graphs in one store.  The
    arrays are integers, so the digests hold on any BLAS.
    """

    PINNED = {
        ("blog", 0.25): (
            "6d3b0faa02bb46d6cb130cdc62fe9ab561008c8b6033d7b6b8b11b8b8256cc70",
            "1f7c03c746e9030a555b596a14bd4f8b75d400c255cb478d75cb849199a0828e",
        ),
        ("dblp", 0.25): (
            "1fe26de7f84117c0854f16a6f24c97261971ce3b626e4627b0e6bb4490b9c285",
            None,
        ),
        ("epinions", 0.25): (
            "88639a22455a55d63976da24ae4a0fc09d72ca8c72aa16c03428589d94882f4f",
            None,
        ),
        ("facebook", 0.25): (
            "aa97e3af985561d839ddca45121fc62740745f7cc99b413b04e1de86f2ecfa59",
            None,
        ),
        ("ppi", 0.25): (
            "e2641802a27cd621dee52e0dbb5a0a228374331048b45b2ca341222d792cc8fa",
            "c6a1981aa63f63803e296e634a98124293cee05d2ae590f689707aaeaede0d33",
        ),
        ("wiki", 0.25): (
            "a80fb093d2c9a76aae444871f9921a7d95b50d8ad4022896a7076be3d778f0a5",
            "2241d2a0d1299fda69aa83907873fd1e0ebd243f63ade78631bb34380563386d",
        ),
        ("ppi", 3.0): (
            "e7ab0fa7551d3fd71f3f8a0c455557ad169235d7d7b2d0a630684be68855ce57",
            "a9e5018be7dca80e6114b684cf02a9ef14dfa37622d21b9fddff532fdaa8f3d2",
        ),
    }

    @pytest.mark.parametrize("name,scale", sorted(PINNED))
    def test_bytes_are_pinned(self, name, scale):
        graph = load_dataset(name, scale=scale)
        edges_digest, labels_digest = self.PINNED[(name, scale)]
        assert graph.edges.dtype == np.int64
        assert hashlib.sha256(graph.edges.tobytes()).hexdigest() == edges_digest
        if labels_digest is None:
            assert graph.labels is None
        else:
            assert graph.labels.dtype == np.int64
            assert hashlib.sha256(graph.labels.tobytes()).hexdigest() == labels_digest
