"""The array-ops protocol every compute backend implements.

:class:`Backend` is the seam between the models' *algorithms* (sampling
schedules, privacy accounting, update rules — all backend-independent) and
their *tensor math* (matmuls, activations, scatter-adds — executed by numpy
or torch).  The contract that keeps the reproduction honest:

* **Parameters are backend-native.**  ``parameter``/``asarray`` move data
  into the backend's array type; ``to_numpy`` moves it back at the public
  surface (``model.embeddings``).  For :class:`~repro.backend.numpy_backend.
  NumpyBackend` both directions are identities, so the default path is
  bit-for-bit the historical code.
* **Randomness stays on numpy Generator streams.**  ``gaussian``/``uniform``
  draw from the caller's seeded ``numpy.random.Generator`` and convert the
  result, so a fixed seed produces the *same* noise and initialisation on
  every backend.  Backends therefore differ only in floating-point
  arithmetic (kernel order, fused ops), which is what bounds the
  cross-backend drift to a small rtol instead of "different experiment".
* **Indices are plain integer arrays.**  ``gather``/``index_add_`` accept
  numpy index arrays (what the samplers and walk engine produce) and handle
  any device placement internally.

Only the operations the seven models actually use are part of the protocol —
this is an array-ops seam, not an autograd framework.

**Precision modes.**  Every backend runs in one of two precisions:

* ``"exact"`` (the default) — float64, randomness on numpy streams, results
  held to the numpy reference at tight rtol (numpy itself: bit-for-bit,
  pinned by the golden digests).
* ``"fast"`` — float32 device-resident parameters and, where a backend
  provides one, a fused :meth:`Backend.skipgram_step` hot path with
  device-side negative draws.  Fast mode answers to the *statistical*
  parity suite (final task metrics within tolerance), never to byte or
  tight-rtol comparisons, and canonicalises to a distinct ``spec`` so its
  results can never alias an exact run in the experiment cache.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

#: A backend-native array.  ``numpy.ndarray`` for NumpyBackend, a
#: ``torch.Tensor`` for TorchBackend; typed as ``Any`` because the whole
#: point of the seam is that model code never names the concrete type.
Array = Any

#: The precision modes a backend spec may name.
PRECISIONS = ("exact", "fast")


class Backend(ABC):
    """Abstract array-ops backend (see the module docstring for the contract)."""

    #: Registry name of the backend family (``"numpy"``, ``"torch"``).
    name: str = "abstract"

    @property
    @abstractmethod
    def device(self) -> str:
        """Device the backend computes on (``"cpu"``, ``"cuda"``, ...)."""

    @property
    def precision(self) -> str:
        """Precision mode, one of :data:`PRECISIONS` (``"exact"`` default)."""
        return "exact"

    @property
    def spec(self) -> str:
        """Canonical ``name[:device][:precision]`` identity string.

        This is what the experiment cache hashes into each cell key, so two
        backends whose results may differ must never share a spec.  The CPU
        numpy backend is simply ``"numpy"``; accelerator backends append
        their device (``"torch:cpu"``, ``"torch:cuda"``).  The default
        ``"exact"`` precision is canonicalised away (specs predating the
        precision seam keep their cache keys); ``"fast"`` is appended
        (``"torch:cuda:fast"``) so fast cells never alias exact ones.
        """
        base = self.name if self.name == "numpy" else f"{self.name}:{self.device}"
        return base if self.precision == "exact" else f"{base}:{self.precision}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(spec={self.spec!r})"

    # ------------------------------------------------------------------
    # conversion and allocation
    # ------------------------------------------------------------------
    @abstractmethod
    def asarray(self, x: Any) -> Array:
        """Coerce ``x`` to a native float array on the backend's device."""

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

    def segment_sum(self, slots: Any, rows: Array, n: int) -> Array:
        """``(n, d)`` array whose row ``s`` sums the ``rows`` with ``slots == s``.

        Each output row adds its contributions from ``0.0`` in the order
        they occur in ``rows`` — exactly ``zeros((n, d))`` followed by
        :meth:`index_add_`, which is this default.  ``slots`` is a numpy
        integer array with values in ``[0, n)``, in any order.
        """
        out = self.zeros((int(n), rows.shape[1]))
        self.index_add_(out, slots, rows)
        return out

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

        Both bounds ``None`` is a pass-through: ``np.clip`` and
        ``torch.clamp`` each reject the double-``None`` call, so the seam
        guards it once here instead of in every backend.
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

        With ``rows`` (a sequence of row-index arrays, numpy or native, in
        any order and with repeats) only the rows in their union are
        rescaled.  The return value is then a native index array of the
        rescaled rows a later pass can still move — those whose recomputed
        norm is above ``floor`` — to hand back as one of the next call's
        ``rows``.  Every other row is a fixed point: its norm is at most
        ``floor``, so it is divided by ``floor``, which for ``floor = 1.0``
        leaves it bit-for-bit unchanged.  A backend for which a full pass
        is cheaper than an index set may rescale every row anyway and
        return an empty carry.  Without ``rows`` every row is rescaled and
        nothing is returned.
        """

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
        """Seeded Gaussian draw, identical across backends for one stream."""

    @abstractmethod
    def uniform(
        self,
        rng: np.random.Generator,
        low: float,
        high: float,
        shape: Tuple[int, ...],
    ) -> Array:
        """Seeded uniform draw, identical across backends for one stream."""

    def sample_negatives(
        self,
        rng: np.random.Generator,
        shape: Union[int, Tuple[int, ...]],
        num_nodes: int,
    ) -> Any:
        """Uniform negative-node draws for the skip-gram hot path.

        Exact backends consume the caller's numpy stream (cross-backend
        identical draws, like :meth:`gaussian`); a ``"fast"`` backend may
        instead derive a device-side generator from the stream and return a
        native integer array, trading draw-for-draw parity for zero host
        transfer.  Either return type is a valid index argument to
        :meth:`gather` / :meth:`index_add_` / :meth:`skipgram_step`.
        """
        return rng.integers(0, int(num_nodes), size=shape)

    # ------------------------------------------------------------------
    # fused hot path (skip-gram negative sampling, Algorithm 2)
    # ------------------------------------------------------------------
    def skipgram_step(
        self,
        w_in: Array,
        w_out: Array,
        positive: np.ndarray,
        negatives: Any,
        learning_rate: float,
    ) -> Array:
        """One fused skip-gram gather–dot–sigmoid update; returns the loss.

        Applies the Eq.-2 negative-sampling ascent step in place:
        ``positive`` is the batch's ``(B, 2)`` edge array and ``negatives``
        a ``(B, k)`` array of negative node ids, each row paired with the
        corresponding positive source node (Algorithm 2 lines 3-8).  All
        per-pair gradients are computed from the pre-update snapshot and
        scatter-added with the full learning rate, exactly like the unfused
        model path.  The returned batch loss (negative mean objective) is a
        **native 0-d array** — scalarise once per epoch via :meth:`scalar`
        rather than per batch, so accelerator pipelines are never stalled.

        This default composes the protocol's own ops, which makes it the
        numpy reference implementation: backends with a genuinely fused
        kernel (``TorchBackend`` in fast mode) override it and answer to
        this reference in the conformance suite.
        """
        positive = np.asarray(positive, dtype=np.int64)
        src, dst = positive[:, 0], positive[:, 1]
        neg = np.asarray(negatives, dtype=np.int64)
        v_i = self.gather(w_in, src)  # (B, d)
        v_j = self.gather(w_out, dst)  # (B, d)
        neg_v = self.gather(w_out, neg)  # (B, k, d)
        pos_scores = self.rowwise_dot(v_i, v_j)
        neg_scores = self.batched_rowwise_dot(v_i, neg_v)
        loss = -(
            self.sum(self.log_sigmoid(pos_scores))
            + self.sum(self.log_sigmoid(-neg_scores))
        ) / max(1, positive.shape[0])
        pos_coeff = 1.0 - self.sigmoid(pos_scores)  # (B,)   d log sigma(x)/dx
        neg_coeff = -self.sigmoid(neg_scores)  # (B, k)  d log sigma(-x)/dx
        lr = float(learning_rate)
        grad_in = pos_coeff[:, None] * v_j + self.weighted_rows_sum(neg_coeff, neg_v)
        self.index_add_(w_in, src, lr * grad_in)
        self.index_add_(w_out, dst, lr * (pos_coeff[:, None] * v_i))
        neg_rows = (neg_coeff[..., None] * v_i[:, None, :]).reshape(-1, v_i.shape[1])
        self.index_add_(w_out, neg.reshape(-1), lr * neg_rows)
        return loss
