"""The default NumPy compute backend — bit-for-bit the historical code.

Every operation here is the *exact* numpy expression the models used before
the backend seam existed, or a rewrite of it that a test pins byte-equal
(the stable activation implementations moved here from
:mod:`repro.nn.functional`, which now delegates back).  The rewrites
``tests/test_rewrite_parity.py`` pins against the code they replaced are
``stable_sigmoid``, the flat scatter in ``index_add_`` and the ``np.take``
in ``gather``.  ``asarray`` / ``to_numpy`` are identities for float64
arrays, so routing the models through this backend changes no bytes: the
golden-parity suite pins that.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse

from repro.backend.base import Backend
from repro.privacy.clipping import clip_by_l2_norm, clip_rows_by_l2_norm

# Sigmoid saturates numerically past |x| ~ 36 in float64; clipping the input
# keeps exp() away from overflow without changing the value of the output.
SIGMOID_CLIP = 500.0


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, stable for large positive and negative inputs."""
    x = np.clip(np.asarray(x, dtype=np.float64), -SIGMOID_CLIP, SIGMOID_CLIP)
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below: both
    # branches share e = exp(-|x|), so one pass over x computes either.
    # min(x, -x) is -|x| but keeps a NaN's sign, as exp(x) did.
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


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


class NumpyBackend(Backend):
    """CPU numpy backend; the reference implementation of the protocol."""

    name = "numpy"

    @property
    def device(self) -> str:
        return "cpu"

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
            flat_idx = (idx[:, None] * dim + np.arange(dim)).reshape(-1)
            rows = np.broadcast_to(rows, (idx.size, dim)).reshape(-1)
            np.add.at(target.reshape(-1), flat_idx, rows)
        else:
            np.add.at(target, idx, rows)

    def segment_sum(self, slots: Any, rows: np.ndarray, n: int) -> np.ndarray:
        # A 0/1 selection matrix whose row s lists, in ascending order, the
        # positions of the rows with slot s.  scipy's CSR product adds them
        # one at a time into a zeroed output — the same sequential sum as
        # np.add.at into zeros.  (np.add.reduceat sums pairwise and differs
        # in the last bits.)
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
