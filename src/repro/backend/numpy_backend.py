"""The NumPy compute backend — bit-for-bit the historical code.

Every operation here is the *exact* numpy expression the models used before
the backend seam existed, or a rewrite of it that a test pins byte-equal
(the stable activation implementations moved here from
:mod:`repro.nn.functional`, which now delegates back).  The rewrites
``tests/test_rewrite_parity.py`` pins against the code they replaced are
``stable_sigmoid`` and ``stable_sigmoid_pair``, the flat scatter in
``index_add_`` (which adds float64 rows of even width as complex128 pairs),
the ``np.take`` in ``gather`` and the fused update in
``add_rows_project_`` (against the ``index_add_`` + ``normalize_rows_`` pair
it replaces).  ``asarray`` / ``to_numpy`` are identities for float64 arrays,
so routing the models through this backend changes no bytes: the
golden-parity suite pins that.

scipy is imported on first use, by ``segment_sum`` (the ``sgm``
update), so ``import repro`` loads numpy and no scipy module.  Importing this
module pins glibc's malloc thresholds (``_pin_malloc_thresholds``).
"""

from __future__ import annotations

import ctypes
import os
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.backend.base import Backend
from repro.privacy.clipping import clip_by_l2_norm, clip_rows_by_l2_norm

# glibc's mallopt parameters (malloc.h) and the values they are pinned to.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 32 MiB and 64 MiB.

    glibc starts both thresholds low (128 KiB) and raises them when the
    program frees a large mmapped block, so whether the skip-gram step's
    multi-MB temporaries are reused from the heap or trimmed and faulted
    back in on every step would depend on what happened to be imported
    first.  On a 50k-node ``sgm`` fit the latter costs about 1,800 minor
    page faults per step and 1.2-1.6x the step time.  Both thresholds are
    set, because setting either one freezes the other at its default.

    Runs only on glibc, and not at all when the environment already tunes
    malloc: set ``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or a
    ``glibc.malloc.*`` entry of ``GLIBC_TUNABLES`` to keep your own values.
    Never raises.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        env = os.environ
        if (
            "MALLOC_MMAP_THRESHOLD_" in env
            or "MALLOC_TRIM_THRESHOLD_" in env
            or "glibc.malloc." in env.get("GLIBC_TUNABLES", "")
        ):
            return
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    except Exception:  # no confstr name, no mallopt symbol, ...: keep glibc's
        pass


_pin_malloc_thresholds()

# Sigmoid saturates numerically past |x| ~ 36 in float64; clipping the input
# keeps exp() away from overflow without changing the value of the output.
SIGMOID_CLIP = 500.0


def _sigmoid_branches(x: Any) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clipped ``x`` and the sigmoid's two branches, ``1 / d`` and ``e / d``.

    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below: both
    branches share e = exp(-|x|) and d = 1 + e, so one pass over x computes
    either.  min(x, -x) is -|x| but keeps a NaN's sign, as exp(x) did.
    """
    x = np.clip(np.asarray(x, dtype=np.float64), -SIGMOID_CLIP, SIGMOID_CLIP)
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return x, 1.0 / d, e / d


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, stable for large positive and negative inputs."""
    x, upper, lower = _sigmoid_branches(x)
    return np.where(x >= 0, upper, lower)


def stable_sigmoid_pair(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(stable_sigmoid(x), stable_sigmoid(-x))`` from one pass over ``x``.

    The clip is symmetric and ``-|x|`` is the same for ``-x``, so the second
    is the first with its branches swapped: the same bytes, except that a NaN
    input gives a NaN of the other sign.
    """
    x, upper, lower = _sigmoid_branches(x)
    return np.where(x >= 0, upper, lower), np.where(x <= 0, upper, lower)


def stable_log_sigmoid(x: np.ndarray) -> np.ndarray:
    """``log(sigmoid(x))`` computed without intermediate underflow."""
    x = np.asarray(x, dtype=np.float64)
    # log sigma(x) = -softplus(-x) = min(x, 0) - log1p(exp(-|x|))
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction for stability."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def _project_rows_(x: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Divide the rows ``x[ids]`` by ``max(||row||, 1)`` where that is not 1.0.

    Returns the ``ids`` whose recomputed norm is still above 1.  A row left
    alone has norm at most 1, so it is neither written back nor re-measured.
    """
    scale = np.maximum(np.linalg.norm(np.take(x, ids, axis=0), axis=1), 1.0)
    move = scale != 1.0
    moved = ids[move]
    divided = np.take(x, moved, axis=0) / scale[move, None]
    x[moved] = divided
    return moved[np.linalg.norm(divided, axis=1) > 1.0]


class NumpyBackend(Backend):
    """CPU numpy backend; the reference implementation of the protocol."""

    # ------------------------------------------------------------------
    # conversion and allocation
    # ------------------------------------------------------------------
    def asarray(self, x: Any) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def to_numpy(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)

    def zeros(self, shape: Tuple[int, ...]) -> np.ndarray:
        return np.zeros(shape)

    def zeros_like(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    def full_like(self, x: np.ndarray, value: float) -> np.ndarray:
        return np.full_like(x, float(value))

    def copy(self, x: np.ndarray) -> np.ndarray:
        return np.array(x, dtype=np.float64)

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def gather(self, x: np.ndarray, idx: Any) -> np.ndarray:
        # The bytes of x[idx] as a fresh, writable array, without fancy
        # indexing's per-call set-up (about 3x faster at narrow rows).
        return np.take(x, idx, axis=0)

    def index_add_(
        self, target: np.ndarray, idx: Any, rows: np.ndarray, unique: bool = False
    ) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        if unique:
            target[idx] += rows
        elif (
            target.ndim == 2
            and idx.ndim == 1
            and target.flags.c_contiguous
            and not np.isnan(rows).any()
        ):
            # One 1-D np.add.at over the flat view, about 3x faster than the
            # 2-D call.  Each element still receives its adds in row order, so
            # the bytes match; negative rows map to the same elements, and an
            # out-of-range row is still out of range, so it still raises.
            # Only NaN onto NaN differs (the 1-D loop keeps the target's NaN,
            # the 2-D loop the row's), hence the NaN check on the rows.
            dim = target.shape[1]
            rows = np.asarray(rows)
            if rows.shape != (idx.size, dim):
                rows = np.broadcast_to(rows, (idx.size, dim))
            flat = target.reshape(-1)
            if dim % 2 == 0 and target.dtype == np.float64 and target.flags.aligned:
                # A complex add is two independent float64 adds, so adding
                # (re, im) pairs keeps every element's adds in row order
                # with half the indices to build and walk.
                rows = np.ascontiguousarray(rows, dtype=np.float64)
                if rows.flags.aligned:
                    dim //= 2
                    flat = flat.view(np.complex128)
                    rows = rows.view(np.complex128)
            flat_idx = (idx[:, None] * dim + np.arange(dim)).reshape(-1)
            np.add.at(flat, flat_idx, rows.reshape(-1))
        else:
            np.add.at(target, idx, rows)

    def segment_sum(self, slots: Any, rows: np.ndarray, n: int) -> np.ndarray:
        # A 0/1 selection matrix whose row s lists, in ascending order, the
        # positions of the rows with slot s.  scipy's CSR product adds them
        # one at a time into a zeroed output — the same sequential sum as
        # np.add.at into zeros.  (np.add.reduceat sums pairwise and differs
        # in the last bits.)
        import scipy.sparse

        slots = np.asarray(slots, dtype=np.int64)
        indptr = np.zeros(int(n) + 1, dtype=np.int64)
        np.cumsum(np.bincount(slots, minlength=int(n)), out=indptr[1:])
        select = scipy.sparse.csr_matrix(
            (np.ones(slots.shape[0]), np.argsort(slots, kind="stable"), indptr),
            shape=(int(n), slots.shape[0]),
        )
        return select @ rows

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def transpose(self, x: np.ndarray) -> np.ndarray:
        return x.T

    def rowwise_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", a, b)

    def batched_rowwise_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ikj->ik", a, b)

    def weighted_rows_sum(self, coeff: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ik,ikj->ij", coeff, b)

    # ------------------------------------------------------------------
    # activations and elementwise math
    # ------------------------------------------------------------------
    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        return stable_sigmoid(x)

    def sigmoid_pair(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return stable_sigmoid_pair(x)

    def log_sigmoid(self, x: np.ndarray) -> np.ndarray:
        return stable_log_sigmoid(x)

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return stable_softmax(x, axis=axis)

    def relu(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(x, dtype=np.float64), 0.0)

    def tanh(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(np.asarray(x, dtype=np.float64))

    def exp(self, x: np.ndarray) -> np.ndarray:
        return np.exp(x)

    def log(self, x: np.ndarray) -> np.ndarray:
        return np.log(x)

    def sqrt(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(x)

    def _clip(
        self, x: np.ndarray, lower: Optional[float], upper: Optional[float]
    ) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=np.float64), lower, upper)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, x: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
        return np.sum(x, axis=axis)

    def mean(self, x: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
        return np.mean(x, axis=axis)

    # ------------------------------------------------------------------
    # norm-based row operations
    # ------------------------------------------------------------------
    def normalize_rows_(
        self, x: np.ndarray, floor: float, rows: Optional[Sequence[Any]] = None
    ) -> Optional[np.ndarray]:
        if rows is not None:
            rows = np.unique(np.concatenate([np.ravel(r) for r in rows]))
        # Distinct rows as many as x has are all of x: rescale in place
        # rather than through a gathered copy of the whole matrix.
        whole = rows is None or rows.shape[0] == x.shape[0]
        block = x if whole else x[rows]
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        np.divide(block, np.maximum(norms, floor), out=block)
        if rows is None:
            return None
        if not whole:
            x[rows] = block
        return rows[np.linalg.norm(block, axis=1) > floor]

    def add_rows_project_(
        self, x: np.ndarray, idx: Any, rows: np.ndarray, carry: np.ndarray
    ) -> np.ndarray:
        # The add is index_add_'s; the projection is normalize_rows_'s
        # without its np.unique (idx has no repeats, and carry \ idx is
        # disjoint from it) and without rewriting fixed points: a row whose
        # scale max(||x||, 1) is exactly 1.0 is left alone, since dividing by
        # 1.0 is the identity on every float64, -0.0 and NaN included.  NaN
        # and inf norms are not 1.0, so those rows are still divided, as
        # normalize_rows_ divides them.
        idx = np.asarray(idx, dtype=np.int64)
        self.index_add_(x, idx, rows, unique=True)
        kept = [_project_rows_(x, idx)]
        if np.size(carry):
            rest = np.setdiff1d(np.asarray(carry, dtype=np.int64), idx)
            kept.append(_project_rows_(x, rest))
        return np.sort(np.concatenate(kept))

    def clip_rows(self, x: np.ndarray, max_norm: float) -> np.ndarray:
        return clip_rows_by_l2_norm(x, max_norm)

    def clip_global(self, x: np.ndarray, max_norm: float) -> np.ndarray:
        return clip_by_l2_norm(x, max_norm)

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def gaussian(
        self,
        rng: np.random.Generator,
        mean: float,
        std: float,
        shape: Tuple[int, ...],
    ) -> np.ndarray:
        return rng.normal(mean, std, size=shape)

    def uniform(
        self,
        rng: np.random.Generator,
        low: float,
        high: float,
        shape: Tuple[int, ...],
    ) -> np.ndarray:
        return rng.uniform(low, high, size=shape)
