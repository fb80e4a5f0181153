"""The six array kernels the models share, as methods of :class:`NumpyBackend`.

Every registered model binds the process-wide instance
(:data:`repro.backend.NUMPY_BACKEND`) as ``model.backend_`` and calls these
kernels through it; everything else the models compute is plain numpy.
The kernels are:

* ``to_numpy``: the public surface's array (``model.embeddings``);
* ``index_add_``: the scatter-add of every sparse embedding update, whose
  flat 1-D form adds float64 rows of even width as complex128 pairs;
* ``segment_sum``: the ``sgm`` update's per-row gradient sums;
* ``normalize_rows_``: the unit-ball projection, whole or touched rows;
* ``add_rows_project_``: the ``sgm`` update, ``index_add_`` fused with the
  touched-row projection;
* ``gaussian``: Gaussian draws (most DP noise, the generators' inputs)
  from the caller's seeded stream.

They stay methods of one class, not plain functions, because the benchmark
harness (``perfbench/layers.py``) times and counts them by patching
``NumpyBackend``'s attributes.  ``tests/test_rewrite_parity.py`` pins the
flat scatter in ``index_add_`` and the fused update in ``add_rows_project_``
(against the ``index_add_`` + ``normalize_rows_`` pair it replaces)
byte-equal to the code they replaced.

scipy is imported on first use, by ``segment_sum`` (the ``sgm``
update), so ``import repro`` loads numpy and no scipy module.  Importing this
module pins glibc's malloc thresholds (``_pin_malloc_thresholds``).
"""

from __future__ import annotations

import ctypes
import os
from typing import Any, Optional, Sequence, Tuple

import numpy as np

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


class NumpyBackend:
    """The models' shared array kernels (see the module docstring)."""

    def to_numpy(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a ``numpy.ndarray`` (the identity for an ndarray)."""
        return np.asarray(x)

    def index_add_(
        self, target: np.ndarray, idx: Any, rows: np.ndarray, unique: bool = False
    ) -> None:
        """In-place scatter-add of ``rows`` into ``target[idx]``.

        Repeated indices accumulate (``np.add.at`` semantics), which is what
        the skip-gram family's sparse embedding updates rely on.  A caller
        whose ``idx`` has no repeats may pass ``unique=True``: the result is
        the same, applied as one vectorised ``target[idx] += rows``.
        """
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
        """``(n, d)`` array whose row ``s`` sums the ``rows`` with ``slots == s``.

        Each output row adds its contributions from ``0.0`` in the order
        they occur in ``rows``: exactly ``zeros((n, d))`` followed by
        :meth:`index_add_`.  ``slots`` is an integer array with values in
        ``[0, n)``, in any order.
        """
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

    def normalize_rows_(
        self, x: np.ndarray, floor: float, rows: Optional[Sequence[Any]] = None
    ) -> Optional[np.ndarray]:
        """In-place ``x[i] /= max(||x[i]||_2, floor)`` for every row.

        With ``rows`` (a sequence of row-index arrays, in any order and with
        repeats) only the rows in their union are rescaled.  The return
        value is then an index array of the rescaled rows a later pass can
        still move (those whose recomputed norm is above ``floor``), to hand
        back as one of the next call's ``rows``.  Every other row is a fixed
        point: its norm is at most ``floor``, so it is divided by ``floor``,
        which for ``floor = 1.0`` leaves it bit-for-bit unchanged.  Without
        ``rows`` every row is rescaled and nothing is returned.
        """
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
        """``x[idx] += rows``, then project ``idx`` and ``carry`` onto the unit ball.

        ``idx`` holds no repeats.  Each row in ``idx`` or ``carry`` is
        divided by ``max(||x[i]||_2, 1)``; the return value is the next
        carry, as :meth:`normalize_rows_` with ``rows=(idx, carry)`` returns
        it.  The result is byte-equal to that pair of calls,
        ``index_add_(x, idx, rows, unique=True)`` then
        ``normalize_rows_(x, 1.0, (idx, carry))``, which the tests keep as
        the reference.
        """
        # The add is index_add_'s; the projection is normalize_rows_'s
        # without its np.unique (idx has no repeats, and carry \ idx is
        # disjoint from it) and without rewriting fixed points: a row whose
        # scale max(||x||, 1) is exactly 1.0 is left alone, since dividing by
        # 1.0 is the identity on every float64, -0.0 and NaN included.  NaN
        # and inf norms are not 1.0, so those rows are still divided, as
        # normalize_rows_ divides them.  The add stays a call to index_add_,
        # so patching that one method disables the whole update.
        idx = np.asarray(idx, dtype=np.int64)
        self.index_add_(x, idx, rows, unique=True)
        kept = [_project_rows_(x, idx)]
        if np.size(carry):
            rest = np.setdiff1d(np.asarray(carry, dtype=np.int64), idx)
            kept.append(_project_rows_(x, rest))
        return np.sort(np.concatenate(kept))

    def gaussian(
        self,
        rng: np.random.Generator,
        mean: float,
        std: float,
        shape: Tuple[int, ...],
    ) -> np.ndarray:
        """Seeded Gaussian draw from the caller's ``numpy.random.Generator``."""
        return rng.normal(mean, std, size=shape)
