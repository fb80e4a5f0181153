"""Random-walk corpora for DeepWalk / node2vec style skip-gram training.

AdvSGM itself trains from edge samples (LINE-style), but the paper's related
models (DeepWalk, node2vec) and the example applications use walk corpora, so
the substrate provides both uniform and biased (node2vec) walks.

The public functions keep their original list-of-lists signatures but are now
thin wrappers around the frontier-batched :class:`repro.graph.walk_engine.WalkEngine`,
which advances all walks one step at a time with vectorized neighbour
indexing.  ``walks_to_pairs`` is vectorized with stride tricks (a
``sliding_window_view`` over full-length walks, an index grid for ragged
corpora); it emits exactly the same multiset of (centre, context) pairs as
the original nested loops, but the emission *order* is an implementation
detail — downstream trainers shuffle pairs before batching anyway.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.graph.graph import Graph
from repro.utils.rng import RngLike

WalkCorpus = Union[np.ndarray, Sequence[Sequence[int]]]

#: Walk rows processed per chunk in ``walks_to_pairs``.  A chunk without
#: padding writes its interior pairs straight into the output, so this bounds
#: only the temporaries beside it: a ragged chunk's (rows, walk_length,
#: 2 * window) index grid, or a full chunk's boundary pairs
#: (``rows * window * (3 * window - 1)`` of them).
_PAIR_CHUNK_ROWS = 16384


def random_walks(
    graph: Graph,
    num_walks: int,
    walk_length: int,
    rng: RngLike = None,
) -> List[List[int]]:
    """Uniform random walks: ``num_walks`` walks of ``walk_length`` per node."""
    if num_walks <= 0 or walk_length <= 0:
        raise ValueError("num_walks and walk_length must be positive")
    return matrix_to_walks(
        graph.walk_engine().walk_corpus(num_walks, walk_length, rng=rng)
    )


def node2vec_walks(
    graph: Graph,
    num_walks: int,
    walk_length: int,
    p: float = 1.0,
    q: float = 1.0,
    rng: RngLike = None,
) -> List[List[int]]:
    """Second-order biased walks (node2vec).

    ``p`` controls the return probability (likelihood of revisiting the
    previous node) and ``q`` the in-out bias (BFS-like for q > 1, DFS-like for
    q < 1).  ``p = q = 1`` reduces to uniform walks.
    """
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    if num_walks <= 0 or walk_length <= 0:
        raise ValueError("num_walks and walk_length must be positive")
    return matrix_to_walks(
        graph.walk_engine().walk_corpus(num_walks, walk_length, p=p, q=q, rng=rng)
    )


def matrix_to_walks(matrix: np.ndarray) -> List[List[int]]:
    """Convert a ``-1``-padded walk matrix to the list-of-lists corpus form.

    Accepts any integer dtype; rows that are entirely padding become empty
    walks, and a zero-column matrix yields one empty walk per row.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"walk matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape[1] == 0:
        return [[] for _ in range(matrix.shape[0])]
    valid = matrix >= 0
    lengths = np.where(valid.all(axis=1), matrix.shape[1], np.argmin(valid, axis=1))
    return [row[:n].tolist() for row, n in zip(matrix, lengths)]


def _pad_walks(walks: Sequence[Sequence[int]]) -> np.ndarray:
    """Pack variable-length walks into a ``-1``-padded int64 matrix."""
    num_walks = len(walks)
    if num_walks == 0:
        return np.zeros((0, 0), dtype=np.int64)
    lengths = np.fromiter((len(w) for w in walks), dtype=np.int64, count=num_walks)
    total = int(lengths.sum())
    max_len = int(lengths.max())
    matrix = np.full((num_walks, max_len), -1, dtype=np.int64)
    if total:
        flat = np.fromiter(chain.from_iterable(walks), dtype=np.int64, count=total)
        rows = np.repeat(np.arange(num_walks), lengths)
        starts = np.zeros(num_walks, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        cols = np.arange(total) - np.repeat(starts, lengths)
        matrix[rows, cols] = flat
    return matrix


def _full_pair_count(rows: int, length: int, window_size: int) -> int:
    """Pairs of ``rows`` unpadded walks of ``length``: ``w (2 L - w - 1)`` each.

    ``w = min(window_size, length - 1)``: every offset ``1 <= d <= w`` pairs
    ``length - d`` positions, in both directions.
    """
    w = min(window_size, length - 1)
    return rows * w * (2 * length - w - 1)


def _ragged_grid(
    matrix: np.ndarray, window_size: int, centre_lo: int, centre_hi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Context columns and validity mask of the index-grid extraction.

    ``valid[r, c, k]`` says whether centre ``centre_lo + c`` of row ``r`` and
    its ``k``-th context (column ``cols[c, k]``) are both walk steps.
    """
    length = matrix.shape[1]
    deltas = np.concatenate(
        [np.arange(-window_size, 0), np.arange(1, window_size + 1)]
    )
    context_idx = np.arange(centre_lo, centre_hi)[:, None] + deltas[None, :]
    in_range = (context_idx >= 0) & (context_idx < length)
    cols = np.where(in_range, context_idx, 0)
    stepped = matrix >= 0
    valid = in_range[None, :, :] & stepped[:, centre_lo:centre_hi, None] & stepped[:, cols]
    return cols, valid


def _pairs_from_ragged_matrix(
    matrix: np.ndarray,
    window_size: int,
    out: np.ndarray,
    centre_lo: int = 0,
    centre_hi: int | None = None,
) -> None:
    """Index-grid pair extraction handling ``-1`` padding (ragged corpora).

    Writes the pairs of the centres with column index in
    ``[centre_lo, centre_hi)`` into ``out``, which must hold exactly as many
    rows as ``valid`` has true entries; the full-matrix path uses this for
    its boundary columns.
    """
    if centre_hi is None:
        centre_hi = matrix.shape[1]
    cols, valid = _ragged_grid(matrix, window_size, centre_lo, centre_hi)
    contexts = matrix[:, cols]
    centres = np.broadcast_to(matrix[:, centre_lo:centre_hi, None], contexts.shape)
    out[:, 0] = centres[valid]
    out[:, 1] = contexts[valid]


def _pairs_from_full_matrix(
    matrix: np.ndarray, window_size: int, out: np.ndarray
) -> None:
    """Stride-tricks pair extraction for matrices without ``-1`` padding.

    Interior centres (those with a complete window on both sides) are read
    through a zero-copy ``sliding_window_view`` and written straight into
    ``out`` as a (rows, centres, contexts, 2) block; the pairs of the ``w``
    left and ``w`` right boundary centres follow it, through the index-grid
    path on a narrow slice.
    """
    rows, length = matrix.shape
    w = min(window_size, length - 1)
    interior = length - 2 * w
    if interior <= 0:
        _pairs_from_ragged_matrix(matrix, window_size, out)
        return
    windows = np.lib.stride_tricks.sliding_window_view(matrix, 2 * w + 1, axis=1)
    inner = rows * interior * 2 * w
    block = out[:inner].reshape(rows, interior, 2 * w, 2)
    block[..., 0] = windows[:, :, w, None]
    block[:, :, :w, 1] = windows[:, :, :w]
    block[:, :, w:, 1] = windows[:, :, w + 1 :]
    # Left boundary: centres 0..w-1 only reach contexts < 2w, w + i of them
    # for centre i; the right boundary mirrors it.  Both slices are exactly
    # wide enough.
    edge = inner + rows * w * (3 * w - 1) // 2
    _pairs_from_ragged_matrix(matrix[:, : 2 * w], w, out[inner:edge], 0, w)
    _pairs_from_ragged_matrix(matrix[:, -2 * w :], w, out[edge:], w, 2 * w)


def _chunk_pair_count(chunk: np.ndarray, window_size: int) -> int:
    """Number of pairs ``_write_chunk_pairs`` writes for one walk-matrix chunk."""
    if chunk.size == 0 or chunk.shape[1] < 2:
        return 0
    if chunk.min() >= 0:
        return _full_pair_count(*chunk.shape, window_size)
    return int(np.count_nonzero(_ragged_grid(chunk, window_size, 0, chunk.shape[1])[1]))


def _write_chunk_pairs(chunk: np.ndarray, window_size: int, out: np.ndarray) -> None:
    """Pair extraction for one walk-matrix chunk (full or ragged dispatch)."""
    if out.shape[0] == 0:
        return
    if chunk.min() >= 0:
        _pairs_from_full_matrix(chunk, window_size, out)
    else:
        _pairs_from_ragged_matrix(chunk, window_size, out)


def walks_to_pairs(walks: WalkCorpus, window_size: int = 5) -> np.ndarray:
    """Convert walk corpora to (centre, context) skip-gram training pairs.

    Accepts either the list-of-lists corpus produced by :func:`random_walks`
    or a ``-1``-padded walk matrix (any integer dtype) straight from the
    :class:`~repro.graph.walk_engine.WalkEngine`.

    Pair extraction is memory-bandwidth-bound, so when every node id fits in
    32 bits (``num_nodes < 2**31`` — always, in practice) the pairs are
    emitted as int32, halving the size of the materialised corpus.  NumPy
    fancy indexing accepts int32 indices, so downstream trainers are
    unaffected.

    The pair count is worked out first (a closed form for chunks without
    padding, the validity mask for ragged ones), and each chunk of
    ``_PAIR_CHUNK_ROWS`` walks then writes its pairs straight into its slice
    of one output array: the corpus is allocated once and never copied.
    """
    if window_size <= 0:
        raise ValueError(f"window_size must be positive, got {window_size}")
    if isinstance(walks, np.ndarray):
        matrix = walks.astype(np.int64, copy=False)
        if matrix.ndim != 2:
            raise ValueError(f"walk matrix must be 2-D, got shape {matrix.shape}")
    else:
        matrix = _pad_walks(walks)
    if matrix.size == 0 or matrix.shape[1] < 2:
        return np.zeros((0, 2), dtype=np.int64)
    dtype = np.int32 if matrix.max() < 2**31 else np.int64
    chunks = [
        matrix[start : start + _PAIR_CHUNK_ROWS]
        for start in range(0, matrix.shape[0], _PAIR_CHUNK_ROWS)
    ]
    counts = [_chunk_pair_count(chunk, window_size) for chunk in chunks]
    pairs = np.empty((sum(counts), 2), dtype=dtype)
    end = 0
    for chunk, count in zip(chunks, counts):
        _write_chunk_pairs(chunk, window_size, pairs[end : end + count])
        end += count
    return pairs
