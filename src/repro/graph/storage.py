"""Graph storage seam: in-RAM arrays or a memory-mapped on-disk format.

A :class:`~repro.graph.graph.Graph` no longer owns its CSR buffers directly;
it delegates to a *storage* object satisfying the :class:`GraphStorage`
protocol.  Two implementations exist:

* :class:`ArrayStorage` — the historical in-RAM arrays, bit-for-bit: the edge
  canonicalisation (dedup + ``u < v`` lexicographic order) and the CSR
  construction moved here unchanged from ``Graph.__init__``.
* :class:`MmapStorage` — a versioned on-disk directory format opened with
  ``np.load(mmap_mode="r")``, so a graph far larger than RAM costs only page
  cache.  It pickles as its *path* (``__reduce__``), which is what makes
  the walk pool's workers reopen the map instead of copying arrays through
  the pickle stream.

On-disk layout (``GRAPH_FORMAT_VERSION`` 1)::

    <dir>/meta.json        format version, sizes, per-array sha256, fingerprint
    <dir>/offsets.npy      int64 (num_nodes + 1,)   CSR offsets
    <dir>/neighbours.npy   int64 (2 * num_edges,)   CSR neighbour array
    <dir>/degrees.npy      int64 (num_nodes,)       per-node degrees
    <dir>/edges.npy        int64 (num_edges, 2)     undirected edges, u < v
    <dir>/labels.npy       int64 (num_nodes,)       optional node labels

``meta.json`` is written last, so a directory without it is never a readable
graph (an interrupted write cannot masquerade as a finished one).  The
*content fingerprint* — sha256 over the format version, the sizes and the
per-array content digests, excluding the cosmetic ``name`` — identifies the
graph's content independently of where it lives; the experiment cache hashes
it into ``cell_key`` so two different on-disk graphs submitted under the same
dataset name can never alias (:mod:`repro.cache.keys`).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterator, Optional, Protocol, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

#: Version of the on-disk directory layout and of the fingerprint formula.
GRAPH_FORMAT_VERSION = 1

#: Name of the manifest file; its presence marks a complete, readable graph.
META_FILENAME = "meta.json"

#: Role -> file name of every array in the on-disk format.
ARRAY_FILES: Dict[str, str] = {
    "csr_offsets": "offsets.npy",
    "csr_neighbours": "neighbours.npy",
    "degrees": "degrees.npy",
    "edges": "edges.npy",
    "labels": "labels.npy",
}

#: Default edges per chunk for :meth:`GraphStorage.iter_edges` (16 MB int64).
DEFAULT_CHUNK_EDGES = 1 << 20

#: Rows hashed per block when digesting an array (bounds digest RAM).
_DIGEST_CHUNK_ROWS = 1 << 20


class GraphFormatError(ValueError):
    """An on-disk graph directory is missing, incomplete, or incompatible."""


class GraphStorage(Protocol):
    """What the graph layer needs from a storage backend.

    All arrays are int64 and read-only (in-RAM buffers are frozen, mapped
    buffers are opened with ``mmap_mode="r"``); ``fingerprint`` is a stable
    content address or ``None`` when the backend does not provide one.
    """

    @property
    def num_nodes(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    @property
    def name(self) -> str: ...

    @property
    def csr_offsets(self) -> np.ndarray: ...

    @property
    def csr_neighbours(self) -> np.ndarray: ...

    @property
    def degrees(self) -> np.ndarray: ...

    @property
    def edges(self) -> np.ndarray: ...

    @property
    def labels(self) -> Optional[np.ndarray]: ...

    @property
    def fingerprint(self) -> Optional[str]: ...

    def iter_edges(self, chunk_edges: int = DEFAULT_CHUNK_EDGES) -> Iterator[np.ndarray]: ...


def iter_array_chunks(
    arr: np.ndarray, chunk_rows: int = DEFAULT_CHUNK_EDGES
) -> Iterator[np.ndarray]:
    """Yield row slices of ``arr`` at most ``chunk_rows`` long (views)."""
    if chunk_rows <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk_rows}")
    for start in range(0, arr.shape[0], chunk_rows):
        yield arr[start : start + chunk_rows]


def digest_array(arr: np.ndarray) -> str:
    """sha256 of the array's element bytes (C order), computed block-wise.

    The digest covers the *content only* — not the ``.npy`` header — so an
    in-RAM array and its on-disk copy digest identically regardless of how
    the file was produced.
    """
    sha = hashlib.sha256()
    for block in iter_array_chunks(arr, _DIGEST_CHUNK_ROWS):
        sha.update(np.ascontiguousarray(block).tobytes())
    return sha.hexdigest()


def content_fingerprint(
    num_nodes: int, num_edges: int, array_digests: Dict[str, str]
) -> str:
    """The content address of one graph: format + sizes + array digests.

    The cosmetic ``name`` is deliberately excluded — renaming a graph must
    not change its identity in the experiment cache.
    """
    payload = json.dumps(
        {
            "format_version": GRAPH_FORMAT_VERSION,
            "num_nodes": int(num_nodes),
            "num_edges": int(num_edges),
            "arrays": {k: array_digests[k] for k in sorted(array_digests)},
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# in-RAM storage
# ---------------------------------------------------------------------------
class ArrayStorage:
    """The historical in-RAM representation behind :class:`Graph`.

    Constructed either from already-canonical arrays or, via
    :meth:`from_edge_array`, from a raw (validated) edge array using exactly
    the radix-sort canonicalisation the :class:`Graph` constructor always
    performed — same code, same bytes.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: np.ndarray,
        csr_offsets: np.ndarray,
        csr_neighbours: np.ndarray,
        degrees: np.ndarray,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> None:
        self._num_nodes = int(num_nodes)
        self._name = str(name)
        self._edges = edges
        self._offsets = csr_offsets
        self._neighbours = csr_neighbours
        self._degrees = degrees
        self._labels = labels
        # Freeze the shared buffers: `edges`, `degrees` and neighbour slices
        # expose views of these arrays, and a caller silently writing through
        # a view would corrupt the adjacency for everyone else.
        for arr in (edges, csr_offsets, csr_neighbours, degrees):
            arr.flags.writeable = False
        self._fingerprint: Optional[str] = None

    @classmethod
    def from_edge_array(
        cls,
        num_nodes: int,
        edge_arr: np.ndarray,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> "ArrayStorage":
        """Canonicalise a validated ``(k, 2)`` int64 edge array and build CSR.

        Dedup + canonical (u < v, lexicographically sorted) ordering in one
        shot: encode each undirected edge as ``lo * num_nodes + hi``,
        radix-sort the keys (``kind="stable"`` selects radix sort for integer
        dtypes, ~4x faster than ``np.unique``'s default sort) and drop
        consecutive duplicates.  int64 keys are exact for num_nodes < ~3e9.
        """
        n = np.int64(num_nodes)
        if edge_arr.shape[0]:
            lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
            hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
            keys = np.sort(lo * n + hi, kind="stable")
            keep = np.empty(keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
            edges = np.column_stack([keys // n, keys % n])
        else:
            edges = np.zeros((0, 2), dtype=np.int64)

        # Each undirected edge contributes two directed arcs; sorting the
        # encoded arcs src * n + dst places every neighbourhood contiguously
        # and already sorted, so `has_edge` can use binary search.
        u, v = edges[:, 0], edges[:, 1]
        arcs = np.sort(np.concatenate([u * n + v, v * n + u]), kind="stable")
        src = arcs // n
        neighbours = arcs % n
        degrees = np.bincount(src, minlength=num_nodes).astype(np.int64)
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return cls(
            num_nodes,
            edges,
            offsets,
            neighbours,
            degrees,
            labels=labels,
            name=name,
        )

    # -- protocol ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return int(self._edges.shape[0])

    @property
    def name(self) -> str:
        return self._name

    @property
    def csr_offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def csr_neighbours(self) -> np.ndarray:
        return self._neighbours

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    @property
    def labels(self) -> Optional[np.ndarray]:
        return self._labels

    @property
    def fingerprint(self) -> str:
        """Content fingerprint, computed lazily and cached.

        Identical to the fingerprint :func:`write_storage` records on disk
        for the same content, so ``graph.fingerprint`` is stable across the
        in-RAM / on-disk boundary.
        """
        if self._fingerprint is None:
            self._fingerprint = content_fingerprint(
                self._num_nodes, self.num_edges, self._array_digests()
            )
        return self._fingerprint

    def iter_edges(self, chunk_edges: int = DEFAULT_CHUNK_EDGES) -> Iterator[np.ndarray]:
        return iter_array_chunks(self._edges, chunk_edges)

    # -- helpers -------------------------------------------------------
    def _arrays(self) -> Dict[str, Optional[np.ndarray]]:
        return {
            "csr_offsets": self._offsets,
            "csr_neighbours": self._neighbours,
            "degrees": self._degrees,
            "edges": self._edges,
            "labels": self._labels,
        }

    def _array_digests(self) -> Dict[str, str]:
        return {
            role: digest_array(arr)
            for role, arr in self._arrays().items()
            if arr is not None
        }


# ---------------------------------------------------------------------------
# on-disk storage
# ---------------------------------------------------------------------------
def read_meta(path: PathLike) -> Dict:
    """Read and validate the manifest of an on-disk graph directory."""
    meta_path = Path(path) / META_FILENAME
    if not meta_path.is_file():
        raise GraphFormatError(
            f"{path} is not an on-disk graph (no {META_FILENAME}); "
            f"build one with `python -m repro graph build` or Graph.save()"
        )
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"cannot read {meta_path}: {exc}")
    version = meta.get("format_version")
    if version != GRAPH_FORMAT_VERSION:
        raise GraphFormatError(
            f"{meta_path} has graph format version {version!r}; this build "
            f"reads version {GRAPH_FORMAT_VERSION}"
        )
    for field in ("num_nodes", "num_edges", "arrays", "fingerprint"):
        if field not in meta:
            raise GraphFormatError(f"{meta_path} is missing the {field!r} field")
    return meta


def storage_fingerprint(path: PathLike) -> str:
    """The content fingerprint of an on-disk graph, from its manifest alone.

    Cheap (one small JSON read, no array IO) — this is what the experiment
    cache calls while hashing a cell that references a disk graph.
    """
    return str(read_meta(path)["fingerprint"])


class MmapStorage:
    """A graph directory opened with ``np.load(mmap_mode="r")``.

    The arrays are never loaded; reads fault pages in on demand and the OS
    page cache shares them between every process mapping the same files.
    Instances pickle as their path, so shipping the graph to a spawned
    worker costs O(bytes of the path), not O(graph).
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.meta = read_meta(self.path)
        self._num_nodes = int(self.meta["num_nodes"])
        self._num_edges = int(self.meta["num_edges"])
        self._name = str(self.meta.get("name", "graph"))
        arrays = self.meta["arrays"]
        self._offsets = self._open("csr_offsets", (self._num_nodes + 1,))
        self._neighbours = self._open("csr_neighbours", (2 * self._num_edges,))
        self._degrees = self._open("degrees", (self._num_nodes,))
        self._edges = self._open("edges", (self._num_edges, 2))
        self._labels = (
            self._open("labels", (self._num_nodes,)) if "labels" in arrays else None
        )

    def _open(self, role: str, expected_shape: Tuple[int, ...]) -> np.ndarray:
        entry = self.meta["arrays"].get(role)
        if entry is None:
            raise GraphFormatError(f"{self.path} manifest lists no {role!r} array")
        file_path = self.path / str(entry["file"])
        try:
            arr = np.load(file_path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise GraphFormatError(f"cannot map {file_path}: {exc}")
        if arr.shape != expected_shape:
            raise GraphFormatError(
                f"{file_path} has shape {arr.shape}, expected {expected_shape}"
            )
        if arr.dtype != np.int64:
            raise GraphFormatError(
                f"{file_path} has dtype {arr.dtype}, expected int64"
            )
        return arr

    def __reduce__(self):
        # Pickle as the path: the receiving process re-maps the files
        # instead of copying array bytes through the pickle stream.
        return (MmapStorage, (str(self.path),))

    # -- protocol ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def name(self) -> str:
        return self._name

    @property
    def csr_offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def csr_neighbours(self) -> np.ndarray:
        return self._neighbours

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    @property
    def labels(self) -> Optional[np.ndarray]:
        return self._labels

    @property
    def fingerprint(self) -> str:
        return str(self.meta["fingerprint"])

    def iter_edges(self, chunk_edges: int = DEFAULT_CHUNK_EDGES) -> Iterator[np.ndarray]:
        return iter_array_chunks(self._edges, chunk_edges)

    def verify(self) -> None:
        """Recompute every array digest and compare against the manifest.

        O(bytes on disk) streamed in blocks; raises
        :class:`GraphFormatError` naming the first corrupt array.
        """
        recorded = {
            role: str(entry["sha256"])
            for role, entry in self.meta["arrays"].items()
        }
        arrays = {
            "csr_offsets": self._offsets,
            "csr_neighbours": self._neighbours,
            "degrees": self._degrees,
            "edges": self._edges,
        }
        if self._labels is not None:
            arrays["labels"] = self._labels
        for role, arr in arrays.items():
            actual = digest_array(arr)
            if actual != recorded.get(role):
                raise GraphFormatError(
                    f"{self.path}: {role} content digest mismatch "
                    f"(file corrupt or edited): {actual} != {recorded.get(role)}"
                )
        expected = content_fingerprint(
            self._num_nodes, self._num_edges, recorded
        )
        if expected != self.fingerprint:
            raise GraphFormatError(
                f"{self.path}: manifest fingerprint does not match its own "
                f"array digests"
            )


# ---------------------------------------------------------------------------
# sequential .npy IO (plain buffered files, no mmap, bounded RAM)
# ---------------------------------------------------------------------------
class NpyStreamWriter:
    """Write one ``.npy`` of known shape in row chunks through plain IO.

    Plain ``write()`` calls keep the pages in the OS page cache rather than
    the process's resident set, which is what lets the external-sort ingest
    demonstrate flat peak RSS while the output grows.  The writer also
    accumulates the content sha256 as it goes.
    """

    def __init__(self, path: PathLike, shape: Tuple[int, ...], dtype=np.int64) -> None:
        self.path = Path(path)
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self._fp = open(self.path, "wb")
        header = {
            "descr": np.lib.format.dtype_to_descr(self.dtype),
            "fortran_order": False,
            "shape": self.shape,
        }
        np.lib.format.write_array_header_1_0(self._fp, header)
        self._sha = hashlib.sha256()
        self._rows = 0
        self._digest: Optional[str] = None

    def write(self, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype=self.dtype)
        expected_cols = self.shape[1:]
        if arr.shape[1:] != expected_cols:
            raise ValueError(
                f"chunk shape {arr.shape} does not extend {self.shape} row-wise"
            )
        data = arr.tobytes()
        self._fp.write(data)
        self._sha.update(data)
        self._rows += arr.shape[0] if arr.ndim else 0

    @property
    def digest(self) -> str:
        """Content sha256 of everything written; available after close()."""
        if self._digest is None:
            raise RuntimeError(f"{self.path}: writer not closed yet")
        return self._digest

    def close(self) -> str:
        """Flush, validate the row count, and return the content sha256."""
        if self._digest is not None:
            return self._digest
        self._fp.close()
        if self._rows != self.shape[0]:
            raise ValueError(
                f"{self.path}: wrote {self._rows} rows, header promised "
                f"{self.shape[0]}"
            )
        self._digest = self._sha.hexdigest()
        return self._digest

    def __enter__(self) -> "NpyStreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # leave no half-written file behind the failed writer
            self._fp.close()
            self.path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# writing a storage to disk
# ---------------------------------------------------------------------------
def write_storage(
    storage: GraphStorage, path: PathLike, overwrite: bool = False
) -> Path:
    """Write ``storage`` in the on-disk format; returns the directory path.

    Arrays are streamed in chunks through plain buffered writes (bounded
    RAM even when the source is itself memory-mapped), and ``meta.json`` is
    written last so an interrupted save never looks like a finished graph.
    """
    path = Path(path)
    if (path / META_FILENAME).exists() and not overwrite:
        raise FileExistsError(
            f"{path} already holds an on-disk graph; pass overwrite=True to replace it"
        )
    path.mkdir(parents=True, exist_ok=True)
    num_nodes, num_edges = storage.num_nodes, storage.num_edges
    plans: Dict[str, Tuple[np.ndarray, Tuple[int, ...]]] = {
        "csr_offsets": (storage.csr_offsets, (num_nodes + 1,)),
        "csr_neighbours": (storage.csr_neighbours, (2 * num_edges,)),
        "degrees": (storage.degrees, (num_nodes,)),
        "edges": (storage.edges, (num_edges, 2)),
    }
    labels = storage.labels
    if labels is not None:
        plans["labels"] = (labels, (num_nodes,))
    digests: Dict[str, str] = {}
    for role, (arr, shape) in plans.items():
        with NpyStreamWriter(path / ARRAY_FILES[role], shape) as writer:
            for chunk in iter_array_chunks(arr):
                writer.write(chunk)
        digests[role] = writer.digest
    meta = {
        "format_version": GRAPH_FORMAT_VERSION,
        "num_nodes": int(num_nodes),
        "num_edges": int(num_edges),
        "name": storage.name,
        "arrays": {
            role: {"file": ARRAY_FILES[role], "sha256": digests[role]}
            for role in plans
        },
        "fingerprint": content_fingerprint(num_nodes, num_edges, digests),
    }
    tmp = path / (META_FILENAME + ".tmp")
    tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path / META_FILENAME)
    return path
