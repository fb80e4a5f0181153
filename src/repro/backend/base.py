"""The array-ops protocol the numpy compute backend implements.

:class:`Backend` is the seam between the models' *algorithms* (sampling
schedules, privacy accounting, update rules) and their *tensor math*
(matmuls, activations, scatter-adds).  Its one implementation is
:class:`~repro.backend.numpy_backend.NumpyBackend`:

* **Parameters are numpy arrays.**  ``parameter``/``asarray`` coerce data to
  float64 and ``to_numpy`` hands it back at the public surface
  (``model.embeddings``); both are identities for float64 arrays.
* **Randomness stays on numpy Generator streams.**  ``gaussian``/``uniform``
  draw from the caller's seeded ``numpy.random.Generator``, so a fixed seed
  fixes the noise and the initialisation.
* **Indices are plain integer arrays.**  ``gather``/``index_add_`` accept
  the numpy index arrays the samplers and the walk engine produce.

Only the operations the models actually use are part of the protocol; this
is an array-ops seam, not an autograd framework.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence, Tuple

import numpy as np

#: A backend-native array (``numpy.ndarray`` for NumpyBackend).
Array = Any


class Backend(ABC):
    """Abstract array-ops backend (see the module docstring for the contract)."""

    # ------------------------------------------------------------------
    # conversion and allocation
    # ------------------------------------------------------------------
    @abstractmethod
    def asarray(self, x: Any) -> Array:
        """Coerce ``x`` to a native float array."""

    def parameter(self, x: Any) -> Array:
        """Adopt an initialised (numpy) parameter as native, mutable state."""
        return self.asarray(x)

    @abstractmethod
    def to_numpy(self, x: Array) -> np.ndarray:
        """Materialise a native array as ``numpy.ndarray`` (float64)."""

    @abstractmethod
    def zeros(self, shape: Tuple[int, ...]) -> Array:
        """A zero-filled native float array."""

    @abstractmethod
    def zeros_like(self, x: Array) -> Array:
        """A zero-filled native array shaped like ``x``."""

    @abstractmethod
    def full_like(self, x: Array, value: float) -> Array:
        """A constant-filled native array shaped like ``x``."""

    @abstractmethod
    def copy(self, x: Array) -> Array:
        """A native array with ``x``'s values that shares no memory with it."""

    # ------------------------------------------------------------------
    # rows: gather / scatter
    # ------------------------------------------------------------------
    @abstractmethod
    def gather(self, x: Array, idx: Any) -> Array:
        """Row selection ``x[idx]`` (``idx`` a numpy integer array)."""

    @abstractmethod
    def index_add_(
        self, target: Array, idx: Any, rows: Array, unique: bool = False
    ) -> None:
        """In-place scatter-add of ``rows`` into ``target[idx]``.

        Repeated indices accumulate (``np.add.at`` semantics), which is what
        the skip-gram family's sparse embedding updates rely on.  A caller
        whose ``idx`` has no repeats may pass ``unique=True``: the result is
        the same, but a backend may then apply it as one vectorised
        ``target[idx] += rows``.
        """

    @abstractmethod
    def segment_sum(self, slots: Any, rows: Array, n: int) -> Array:
        """``(n, d)`` array whose row ``s`` sums the ``rows`` with ``slots == s``.

        Each output row adds its contributions from ``0.0`` in the order
        they occur in ``rows`` — exactly ``zeros((n, d))`` followed by
        :meth:`index_add_`.  ``slots`` is a numpy integer array with values
        in ``[0, n)``, in any order.
        """

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    @abstractmethod
    def matmul(self, a: Array, b: Array) -> Array:
        """Matrix product ``a @ b``."""

    @abstractmethod
    def transpose(self, x: Array) -> Array:
        """2-D transpose ``x.T``."""

    @abstractmethod
    def rowwise_dot(self, a: Array, b: Array) -> Array:
        """Per-row inner products: ``(n, d), (n, d) -> (n,)``."""

    @abstractmethod
    def batched_rowwise_dot(self, a: Array, b: Array) -> Array:
        """Dot of each row against a bundle: ``(n, d), (n, k, d) -> (n, k)``."""

    @abstractmethod
    def weighted_rows_sum(self, coeff: Array, b: Array) -> Array:
        """Coefficient-weighted bundle sum: ``(n, k), (n, k, d) -> (n, d)``."""

    # ------------------------------------------------------------------
    # activations and elementwise math
    # ------------------------------------------------------------------
    @abstractmethod
    def sigmoid(self, x: Array) -> Array:
        """Numerically stable logistic sigmoid."""

    @abstractmethod
    def sigmoid_pair(self, x: Array) -> Tuple[Array, Array]:
        """``(sigmoid(x), sigmoid(-x))``, sharing their work."""

    @abstractmethod
    def log_sigmoid(self, x: Array) -> Array:
        """``log(sigmoid(x))`` without intermediate underflow."""

    @abstractmethod
    def softmax(self, x: Array, axis: int = -1) -> Array:
        """Softmax along ``axis`` with max-subtraction."""

    @abstractmethod
    def relu(self, x: Array) -> Array:
        """Rectified linear unit."""

    @abstractmethod
    def tanh(self, x: Array) -> Array:
        """Hyperbolic tangent."""

    @abstractmethod
    def exp(self, x: Array) -> Array:
        """Elementwise exponential."""

    @abstractmethod
    def log(self, x: Array) -> Array:
        """Elementwise natural logarithm."""

    @abstractmethod
    def sqrt(self, x: Array) -> Array:
        """Elementwise square root."""

    def clip(self, x: Array, lower: Optional[float], upper: Optional[float]) -> Array:
        """Elementwise clamp to ``[lower, upper]`` (either bound optional).

        Both bounds ``None`` is a pass-through: ``np.clip`` rejects the
        double-``None`` call, so the seam guards it here.
        """
        if lower is None and upper is None:
            return self.asarray(x)
        return self._clip(x, lower, upper)

    @abstractmethod
    def _clip(self, x: Array, lower: Optional[float], upper: Optional[float]) -> Array:
        """Backend clamp with at least one bound set (see :meth:`clip`)."""

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    @abstractmethod
    def sum(self, x: Array, axis: Optional[int] = None) -> Array:
        """Sum over all elements (``axis=None``) or one axis."""

    @abstractmethod
    def mean(self, x: Array, axis: Optional[int] = None) -> Array:
        """Mean over all elements (``axis=None``) or one axis."""

    def scalar(self, x: Array) -> float:
        """A 0-d native value as a Python float."""
        return float(x)

    # ------------------------------------------------------------------
    # norm-based row operations (shared by normalisation and DP clipping)
    # ------------------------------------------------------------------
    @abstractmethod
    def normalize_rows_(
        self, x: Array, floor: float, rows: Optional[Sequence[Any]] = None
    ) -> Any:
        """In-place ``x[i] /= max(||x[i]||_2, floor)`` for every row.

        With ``rows`` (a sequence of row-index arrays, in any order and with
        repeats) only the rows in their union are rescaled.  The return
        value is then an index array of the
        rescaled rows a later pass can still move — those whose recomputed
        norm is above ``floor`` — to hand back as one of the next call's
        ``rows``.  Every other row is a fixed point: its norm is at most
        ``floor``, so it is divided by ``floor``, which for ``floor = 1.0``
        leaves it bit-for-bit unchanged.  Without ``rows`` every row is
        rescaled and nothing is returned.
        """

    def add_rows_project_(self, x: Array, idx: Any, rows: Array, carry: Any) -> Any:
        """``x[idx] += rows``, then project ``idx`` and ``carry`` onto the unit ball.

        ``idx`` holds no repeats.  Each row in ``idx`` or ``carry`` is
        divided by ``max(||x[i]||_2, 1)``; the return value is the next
        carry, as :meth:`normalize_rows_` with ``rows=(idx, carry)`` returns
        it.  This default is exactly that pair of calls, the reference the
        numpy override is pinned to: the override skips what the pair does
        needlessly here, deduping an ``idx`` that has no repeats and writing
        back rows the projection leaves unchanged.
        """
        self.index_add_(x, idx, rows, unique=True)
        return self.normalize_rows_(x, 1.0, (idx, carry))

    @abstractmethod
    def clip_rows(self, x: Array, max_norm: float) -> Array:
        """Per-row L2 clipping ``x[i] / max(1, ||x[i]||_2 / max_norm)``."""

    @abstractmethod
    def clip_global(self, x: Array, max_norm: float) -> Array:
        """Whole-tensor L2 clipping to norm at most ``max_norm``."""

    # ------------------------------------------------------------------
    # randomness (always drawn from the caller's numpy Generator)
    # ------------------------------------------------------------------
    @abstractmethod
    def gaussian(
        self,
        rng: np.random.Generator,
        mean: float,
        std: float,
        shape: Tuple[int, ...],
    ) -> Array:
        """Seeded Gaussian draw from the caller's stream."""

    @abstractmethod
    def uniform(
        self,
        rng: np.random.Generator,
        low: float,
        high: float,
        shape: Tuple[int, ...],
    ) -> Array:
        """Seeded uniform draw from the caller's stream."""
