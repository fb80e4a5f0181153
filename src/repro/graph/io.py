"""Edge-list / label file IO.

Simple whitespace-separated formats so generated datasets and embeddings can
be exchanged with external tools:

* edge list: one ``u v`` pair per line, ``#``-prefixed comments allowed;
* label file: one ``node label`` pair per line;
* embedding file: word2vec text format (``num_nodes dim`` header, then one
  node id followed by its vector per line).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.graph.graph import Graph

PathLike = Union[str, Path]

#: Bytes of text pulled per ``readlines`` batch while scanning an edge list.
_READ_BATCH_BYTES = 1 << 22

#: Edges formatted per write while dumping an edge list.
_WRITE_CHUNK_EDGES = 1 << 20


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` edges as a whitespace-separated edge list.

    A ``# nodes=N edges=M`` header comes first, so isolated nodes survive a
    round trip through :func:`read_edge_list`.  Edges are formatted in numpy
    chunks (one ``str`` conversion per column, one write per chunk) rather
    than one f-string per edge, which is what makes dumping a
    multi-million-edge graph IO-bound instead of interpreter-bound.
    """
    path = Path(path)
    edges = graph.edges
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# nodes={graph.num_nodes} edges={graph.num_edges}\n")
        for start in range(0, edges.shape[0], _WRITE_CHUNK_EDGES):
            cols = edges[start : start + _WRITE_CHUNK_EDGES].astype(str)
            lines = np.char.add(np.char.add(cols[:, 0], " "), cols[:, 1])
            handle.write("\n".join(lines.tolist()) + "\n")


def read_edge_list(
    path: PathLike, num_nodes: Optional[int] = None, name: str = "graph"
) -> Graph:
    """Read an edge list written by :func:`write_edge_list` (or compatible).

    One ``u v`` pair per line; blank lines and ``#`` comments are skipped.
    The node count is ``num_nodes`` if given, else the first ``nodes=N``
    comment hint anywhere in the file, else the largest node id plus one.
    The result is an in-RAM :class:`Graph`, so a user's own graph trains
    like any dataset: ``make_model(name, graph=read_edge_list(path)).fit()``.
    """
    declared = num_nodes
    parts = []
    with Path(path).open("r", encoding="utf-8") as handle:
        while True:
            lines = handle.readlines(_READ_BATCH_BYTES)
            if not lines:
                break
            tokens = []
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    for token in line[1:].split():
                        if token.startswith("nodes=") and declared is None:
                            declared = int(token.split("=", 1)[1])
                    continue
                fields = line.split()
                if len(fields) < 2:
                    raise ValueError(f"malformed edge line: {line!r}")
                tokens.append(fields[:2])
            if tokens:
                # One C-level string->int64 conversion for the whole batch
                # instead of two Python int() calls per line.
                parts.append(np.array(tokens, dtype="U").astype(np.int64))
    edges = np.concatenate(parts) if parts else np.zeros((0, 2), dtype=np.int64)
    if declared is None:
        if not edges.shape[0]:
            raise ValueError("cannot infer num_nodes from an empty edge list")
        declared = int(edges.max()) + 1
    return Graph(declared, edges, name=name)


def write_labels(graph: Graph, path: PathLike) -> None:
    """Write node labels as ``node label`` lines.

    Raises ``ValueError`` for unlabelled graphs.
    """
    if graph.labels is None:
        raise ValueError("graph has no labels to write")
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for node, label in enumerate(graph.labels):
            handle.write(f"{node} {int(label)}\n")


def read_labels(path: PathLike, num_nodes: int) -> np.ndarray:
    """Read a label file into an array of length ``num_nodes``."""
    labels = np.full(num_nodes, -1, dtype=np.int64)
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            node_str, label_str = line.split()[:2]
            node = int(node_str)
            if not 0 <= node < num_nodes:
                raise ValueError(f"node id {node} out of range")
            labels[node] = int(label_str)
    return labels


def write_embeddings(embeddings: np.ndarray, path: PathLike) -> None:
    """Write embeddings in word2vec text format."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shape {emb.shape}")
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{emb.shape[0]} {emb.shape[1]}\n")
        for node, row in enumerate(emb):
            values = " ".join(f"{x:.6f}" for x in row)
            handle.write(f"{node} {values}\n")


def read_embeddings(path: PathLike) -> np.ndarray:
    """Read embeddings written by :func:`write_embeddings`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise ValueError("missing word2vec-style header line")
        num_nodes, dim = int(header[0]), int(header[1])
        emb = np.zeros((num_nodes, dim), dtype=np.float64)
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            node = int(parts[0])
            if not 0 <= node < num_nodes:
                raise ValueError(f"node id {node} out of range")
            emb[node] = [float(x) for x in parts[1 : dim + 1]]
    return emb
