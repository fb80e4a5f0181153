"""Skip-gram training pairs from random-walk corpora (DeepWalk / node2vec).

AdvSGM itself trains from edge samples (LINE-style), but the paper's related
models (DeepWalk, node2vec) train from walk corpora.  The frontier-batched
:class:`repro.graph.walk_engine.WalkEngine` draws a corpus as one ``-1``-padded
integer matrix, one walk per row; ``walks_to_pairs`` turns that matrix into
(centre, context) pairs, vectorized with stride tricks (a
``sliding_window_view`` over full-length walks, an index grid for ragged
ones).  It emits exactly the same multiset of pairs as the original nested
loops, but the emission *order* is an implementation detail — downstream
trainers shuffle pairs before batching anyway.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Walk rows processed per chunk in ``walks_to_pairs``.  A chunk without
#: padding writes its interior pairs straight into the output, so this bounds
#: only the temporaries beside it: a ragged chunk's (rows, walk_length,
#: 2 * window) index grid, or a full chunk's boundary pairs
#: (``rows * window * (3 * window - 1)`` of them).
_PAIR_CHUNK_ROWS = 16384


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


def _ragged_pair_count(chunk: np.ndarray, window_size: int) -> int:
    """Pairs of a ``-1``-padded chunk, counted without its index grid.

    Offset ``d`` pairs every two walk steps ``d`` columns apart, once in
    each direction.
    """
    stepped = chunk >= 0
    reach = min(window_size, chunk.shape[1] - 1)
    return 2 * sum(
        int(np.count_nonzero(stepped[:, :-d] & stepped[:, d:]))
        for d in range(1, reach + 1)
    )


def walks_to_pairs(walks: np.ndarray, window_size: int = 5) -> np.ndarray:
    """Convert a walk corpus to (centre, context) skip-gram training pairs.

    ``walks`` is a 2-D integer matrix, one walk per row, padded with ``-1``
    after a walk ends, as :meth:`~repro.graph.walk_engine.WalkEngine.walk_corpus`
    returns it; it is read in its own dtype, without a copy.

    The pairs take the narrowest unsigned integer dtype that holds the
    largest node id (``np.min_scalar_type``): uint8 for ids up to 255,
    uint16 up to 65,535, uint32 up to 2**32 - 1, else uint64.  The pair
    array is a walk fit's largest allocation, so a graph of at most 65,536
    nodes pays 4 bytes per pair.  Trainers only index with the ids, which
    NumPy accepts in any integer dtype.

    Each chunk of ``_PAIR_CHUNK_ROWS`` walks is checked once for padding,
    and its pair count worked out first (a closed form without padding, a
    per-offset count of step pairs with it); each chunk then writes its
    pairs straight into its slice of one output array: the corpus is
    allocated once and never copied.
    """
    if window_size <= 0:
        raise ValueError(f"window_size must be positive, got {window_size}")
    matrix = np.asarray(walks)
    if matrix.ndim != 2 or matrix.dtype.kind not in "iu":
        raise ValueError(
            f"walks must be a 2-D integer matrix, got {matrix.dtype} of shape {matrix.shape}"
        )
    if matrix.size == 0 or matrix.shape[1] < 2:
        return np.zeros((0, 2), dtype=np.int64)
    # An all-padding corpus has no id: its (empty) pairs are uint8.
    dtype = np.min_scalar_type(max(int(matrix.max()), 0))
    chunks = [
        matrix[start : start + _PAIR_CHUNK_ROWS]
        for start in range(0, matrix.shape[0], _PAIR_CHUNK_ROWS)
    ]
    ragged = [bool(chunk.min() < 0) for chunk in chunks]
    counts = [
        _ragged_pair_count(chunk, window_size)
        if is_ragged
        else _full_pair_count(*chunk.shape, window_size)
        for chunk, is_ragged in zip(chunks, ragged)
    ]
    pairs = np.empty((sum(counts), 2), dtype=dtype)
    end = 0
    for chunk, is_ragged, count in zip(chunks, ragged, counts):
        write = _pairs_from_ragged_matrix if is_ragged else _pairs_from_full_matrix
        write(chunk, window_size, pairs[end : end + count])
        end += count
    return pairs
