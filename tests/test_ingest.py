"""External-sort ingest tests: parity with ``Graph.__init__``, determinism.

The contract under test (see ``repro/graph/ingest.py``):

* ``build_disk_graph`` produces byte-identical ``.npy`` files to
  ``Graph(...).save(...)`` for every chunk size — including sizes small
  enough to force multi-round run merges — so the external sort is an
  out-of-core re-implementation of the in-RAM canonicalisation, not an
  approximation of it;
* duplicate and flipped duplicate edges collapse exactly as in
  ``Graph.__init__``; validation errors carry the same messages;
* node-count inference (explicit > file header hint > max id + 1) and
  self-loop policy behave as documented;
* repeated builds are bit-for-bit deterministic;
* peak memory stays flat while the edge count grows 10x.
"""

import tracemalloc

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.graph.ingest import build_disk_graph
from repro.graph.io import write_edge_list
from repro.graph.storage import ARRAY_FILES, read_meta


def reference_files(graph: Graph, tmp_path, name="ref"):
    """The on-disk bytes ``Graph.save`` writes for ``graph``."""
    ref_dir = tmp_path / name
    graph.save(ref_dir)
    return {
        role: (ref_dir / filename).read_bytes()
        for role, filename in ARRAY_FILES.items()
        if (ref_dir / filename).is_file()
    }


def built_files(out_dir):
    return {
        role: (out_dir / filename).read_bytes()
        for role, filename in ARRAY_FILES.items()
        if (out_dir / filename).is_file()
    }


@pytest.fixture(scope="module")
def messy_edges():
    """A shuffled, duplicated, direction-flipped edge array."""
    rng = np.random.default_rng(42)
    base = rng.integers(0, 200, size=(3000, 2), dtype=np.int64)
    base = base[base[:, 0] != base[:, 1]]
    flipped = base[:, ::-1]
    dupes = np.concatenate([base, flipped, base[:500]])
    return dupes[rng.permutation(len(dupes))]


class TestParity:
    @pytest.mark.parametrize("chunk_edges", [97, 1000, 1_000_000])
    def test_bytes_identical_to_graph_save(self, messy_edges, tmp_path, chunk_edges):
        # chunk_edges=97 forces many runs and multiple merge rounds.
        graph = Graph(200, messy_edges, name="messy")
        expected = reference_files(graph, tmp_path)
        out = tmp_path / f"ingest-{chunk_edges}"
        build_disk_graph(
            messy_edges, out, num_nodes=200, name="messy", chunk_edges=chunk_edges
        )
        assert built_files(out) == expected

    def test_labels_round_trip(self, tmp_path):
        edges = [(0, 1), (1, 2), (2, 3)]
        labels = [0, 1, 1, 0]
        graph = Graph(4, edges, labels=labels, name="lab")
        expected = reference_files(graph, tmp_path)
        out = tmp_path / "ingest-lab"
        build_disk_graph(
            np.asarray(edges), out, num_nodes=4, labels=labels, name="lab"
        )
        assert built_files(out) == expected

    def test_graph_source(self, messy_edges, tmp_path):
        graph = Graph(200, messy_edges, name="messy")
        expected = reference_files(graph, tmp_path)
        out = tmp_path / "from-graph"
        build_disk_graph(graph, out, name="messy", chunk_edges=97)
        assert built_files(out) == expected

    def test_text_file_source_with_header_hint(self, messy_edges, tmp_path):
        graph = Graph(200, messy_edges, name="messy")
        listing = tmp_path / "edges.txt"
        write_edge_list(graph, listing)  # writes the `# nodes=200` header
        expected = reference_files(graph, tmp_path)
        out = tmp_path / "from-text"
        build_disk_graph(listing, out, name="messy", chunk_edges=97)
        assert built_files(out) == expected
        assert read_meta(out)["num_nodes"] == 200


class TestDeterminism:
    def test_repeat_builds_identical(self, messy_edges, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            build_disk_graph(messy_edges, out, num_nodes=200, chunk_edges=101)
        assert built_files(a) == built_files(b)

    def test_input_order_is_irrelevant(self, messy_edges, tmp_path):
        shuffled = messy_edges[np.random.default_rng(7).permutation(len(messy_edges))]
        a, b = tmp_path / "a", tmp_path / "b"
        build_disk_graph(messy_edges, a, num_nodes=200, chunk_edges=97)
        build_disk_graph(shuffled, b, num_nodes=200, chunk_edges=97)
        assert built_files(a) == built_files(b)


def edge_chunk_stream(num_nodes, num_edges, chunk, seed=0):
    """Seeded random edge chunks; the full edge list never exists in RAM."""
    rng = np.random.default_rng(seed)
    remaining = num_edges
    while remaining > 0:
        take = min(chunk, remaining)
        arr = rng.integers(0, num_nodes, size=(take, 2), dtype=np.int64)
        yield arr[arr[:, 0] != arr[:, 1]]
        remaining -= take


class TestBoundedMemory:
    def test_peak_memory_flat_over_10x_edges(self, tmp_path):
        # tracemalloc counts numpy buffers and, unlike sampled RSS, is
        # deterministic.  The external sort holds one chunk and fixed-size
        # merge blocks, so a 10x larger edge stream must not grow the peak.
        chunk_edges = 1 << 14
        peaks = {}
        for count in (40_000, 120_000, 400_000):
            tracemalloc.start()
            try:
                build_disk_graph(
                    edge_chunk_stream(8_000, count, chunk_edges),
                    tmp_path / f"ingest-{count}",
                    num_nodes=8_000,
                    chunk_edges=chunk_edges,
                )
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert read_meta(tmp_path / "ingest-400000")["num_edges"] > 300_000
        assert peaks[400_000] <= 1.5 * peaks[40_000], peaks


class TestValidationAndInference:
    def test_num_nodes_inferred_from_max_id(self, tmp_path):
        out = tmp_path / "g"
        build_disk_graph(np.array([[0, 5], [1, 2]]), out)
        assert read_meta(out)["num_nodes"] == 6

    def test_self_loop_rejected_by_default(self, tmp_path):
        with pytest.raises(ValueError, match="self-loop"):
            build_disk_graph(np.array([[0, 0], [0, 1]]), tmp_path / "g", num_nodes=2)

    def test_self_loops_dropped_on_request(self, tmp_path):
        out = tmp_path / "g"
        build_disk_graph(
            np.array([[0, 0], [0, 1], [1, 1]]), out, num_nodes=2, self_loops="drop"
        )
        assert read_meta(out)["num_edges"] == 1

    def test_out_of_range_edge_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="outside"):
            build_disk_graph(np.array([[0, 9]]), tmp_path / "g", num_nodes=3)

    def test_existing_output_needs_overwrite(self, tmp_path):
        out = tmp_path / "g"
        edges = np.array([[0, 1]])
        build_disk_graph(edges, out, num_nodes=2)
        with pytest.raises(FileExistsError):
            build_disk_graph(edges, out, num_nodes=2)
        build_disk_graph(edges, out, num_nodes=2, overwrite=True)

    def test_result_opens_as_graph(self, messy_edges, tmp_path):
        out = tmp_path / "g"
        build_disk_graph(messy_edges, out, num_nodes=200, chunk_edges=97)
        opened = Graph.open(out)
        reference = Graph(200, messy_edges)
        assert np.array_equal(opened.edges, reference.edges)
        assert opened.fingerprint == reference.fingerprint
