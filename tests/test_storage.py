"""Out-of-core graph storage tests: format, parity, pickling.

The contract under test (see ``repro/graph/storage.py``):

* ``Graph.save`` / ``Graph.open`` round-trip every array bit-for-bit, and
  the on-disk manifest fingerprint equals the in-RAM one — storage is a
  placement detail, never a semantic one;
* a memory-mapped graph pickles as its *path* (O(bytes), not O(edges)), so
  process pools ship a directory name instead of copying CSR buffers;
* walks, streamed pairs and trained embeddings are bit-identical between the
  in-RAM and memory-mapped storages, including under the walk pool;
* corruption is detected: ``verify()`` recomputes digests, ``read_meta``
  rejects unknown format versions.
"""

import pickle

import numpy as np
import pytest

from repro.api.registry import make_model
from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.graph.random_walk import WalkPairChunkFactory
from repro.graph.storage import (
    ARRAY_FILES,
    GRAPH_FORMAT_VERSION,
    GraphFormatError,
    MmapStorage,
    read_meta,
    storage_fingerprint,
)
from repro.train import StreamingPairSource


@pytest.fixture(scope="module")
def ram_graph() -> Graph:
    return load_dataset("ppi", scale=0.12)


@pytest.fixture(scope="module")
def disk_graph(ram_graph, tmp_path_factory) -> Graph:
    path = tmp_path_factory.mktemp("storage") / "ppi"
    ram_graph.save(path)
    return Graph.open(path)


class TestRoundTrip:
    def test_arrays_bit_identical(self, ram_graph, disk_graph):
        for attr in ("edges", "csr_offsets", "csr_neighbours", "degrees", "labels"):
            ram = getattr(ram_graph, attr)
            disk = getattr(disk_graph, attr)
            assert np.array_equal(ram, disk), attr
            assert ram.dtype == disk.dtype, attr

    def test_basic_properties_match(self, ram_graph, disk_graph):
        assert disk_graph.num_nodes == ram_graph.num_nodes
        assert disk_graph.num_edges == ram_graph.num_edges
        assert disk_graph.name == ram_graph.name

    def test_fingerprint_matches_ram(self, ram_graph, disk_graph):
        assert disk_graph.fingerprint == ram_graph.fingerprint
        assert storage_fingerprint(disk_graph.storage.path) == ram_graph.fingerprint

    def test_mmap_arrays_are_memory_mapped(self, disk_graph):
        assert isinstance(disk_graph.csr_neighbours, np.memmap)

    def test_save_refuses_overwrite(self, disk_graph, tmp_path):
        target = tmp_path / "dup"
        disk_graph.save(target)
        with pytest.raises(FileExistsError):
            disk_graph.save(target)
        disk_graph.save(target, overwrite=True)  # explicit opt-in

    def test_unlabelled_graph_round_trips(self, tmp_path):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)], name="tiny")
        g.save(tmp_path / "tiny")
        reopened = Graph.open(tmp_path / "tiny")
        assert reopened.labels is None
        assert reopened.fingerprint == g.fingerprint


class TestCorruptionDetection:
    def test_verify_ok(self, disk_graph):
        disk_graph.storage.verify()  # does not raise

    def test_verify_detects_flipped_byte(self, ram_graph, tmp_path):
        path = tmp_path / "corrupt"
        ram_graph.save(path)
        target = path / ARRAY_FILES["csr_neighbours"]
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(GraphFormatError, match="digest mismatch"):
            MmapStorage(path).verify()

    def test_read_meta_rejects_future_format(self, ram_graph, tmp_path):
        import json

        path = tmp_path / "future"
        ram_graph.save(path)
        meta_path = path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = GRAPH_FORMAT_VERSION + 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(GraphFormatError, match="format version"):
            read_meta(path)

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(GraphFormatError, match="not an on-disk graph"):
            Graph.open(tmp_path / "nowhere")


class TestPickling:
    def test_mmap_graph_pickles_as_path(self, disk_graph):
        payload = pickle.dumps(disk_graph)
        # O(KB): the path plus object scaffolding, never the arrays
        # (the CSR buffers alone are tens of KB for this graph).
        assert len(payload) < 2048
        clone = pickle.loads(payload)
        assert np.array_equal(clone.csr_neighbours, disk_graph.csr_neighbours)
        assert clone.fingerprint == disk_graph.fingerprint

    def test_walk_corpus_process_pool_parity(self, ram_graph, disk_graph):
        # Four passes, so workers=4 really runs four pool processes.
        kwargs = dict(num_walks=4, walk_length=8, rng=7)
        serial = ram_graph.walk_engine().walk_corpus(workers=1, **kwargs)
        disk1 = disk_graph.walk_engine().walk_corpus(workers=1, **kwargs)
        assert serial.tobytes() == disk1.tobytes()
        # Pooled passes derive per-pass seeds up front, so workers=2 on the
        # mmap graph must reproduce workers=2 on the RAM graph exactly, and
        # the worker count never changes a bit.
        ram2 = ram_graph.walk_engine().walk_corpus(workers=2, **kwargs)
        disk2 = disk_graph.walk_engine().walk_corpus(workers=2, **kwargs)
        disk4 = disk_graph.walk_engine().walk_corpus(workers=4, **kwargs)
        assert np.array_equal(ram2, disk2)
        assert disk4.tobytes() == disk2.tobytes()
        assert serial.shape == disk2.shape

    @pytest.mark.timeout(120)
    def test_streaming_walk_pool_parity(self, ram_graph, disk_graph):
        # The pool workers receive the mmap graph as a path and re-map it;
        # the streamed batches must equal the RAM graph's, batch for batch.
        def batches(graph):
            factory = WalkPairChunkFactory(
                graph=graph, num_walks=2, walk_length=8, window_size=3,
                chunk_walks=40, workers=2, rng=11,
            )
            return list(StreamingPairSource(factory, batch_size=256).batches())

        inline = batches(ram_graph)
        mapped = batches(disk_graph)
        assert len(inline) == len(mapped)
        for a, b in zip(inline, mapped):
            assert np.array_equal(a, b)


class TestEmbeddingParity:
    def test_deepwalk_embeddings_bit_identical(self, ram_graph, disk_graph):
        def embed(graph):
            model = make_model(
                "deepwalk", graph=graph, rng=3,
                num_walks=2, walk_length=8, num_epochs=1, embedding_dim=16,
            )
            model.fit()
            return model.embeddings_

        assert np.array_equal(embed(ram_graph), embed(disk_graph))

    def test_deepwalk_streaming_walk_pool_parity(self, ram_graph, disk_graph):
        def embed(graph):
            model = make_model(
                "deepwalk", graph=graph, rng=3,
                num_walks=2, walk_length=8, num_epochs=1, embedding_dim=16,
                pair_streaming=True, walk_workers=2,
            )
            model.fit()
            return model.embeddings_

        assert np.array_equal(embed(ram_graph), embed(disk_graph))


class TestOnDiskDatasets:
    def test_load_dataset_on_disk_parity(self, tmp_path):
        ram = load_dataset("facebook", scale=0.1)
        disk = load_dataset("facebook", scale=0.1, on_disk=True, cache_dir=tmp_path)
        assert isinstance(disk.storage, MmapStorage)
        assert np.array_equal(ram.edges, disk.edges)
        assert ram.fingerprint == disk.fingerprint

    def test_load_dataset_on_disk_reuses_cache(self, tmp_path):
        first = load_dataset("facebook", scale=0.1, on_disk=True, cache_dir=tmp_path)
        dirs = sorted(p.name for p in tmp_path.iterdir())
        second = load_dataset("facebook", scale=0.1, on_disk=True, cache_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == dirs
        assert first.fingerprint == second.fingerprint
