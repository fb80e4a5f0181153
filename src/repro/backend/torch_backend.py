"""Optional PyTorch compute backend (CPU or CUDA).

Importing this module requires ``torch``; :mod:`repro.backend` gates the
import, so ``import repro`` works on torch-less machines and only an explicit
``backend="torch"`` request can fail.

Numerical contract (see :mod:`repro.backend.base`), per precision mode:

* ``"exact"`` (default): all randomness is drawn from the caller's seeded
  numpy ``Generator`` and transferred, so a fixed seed yields the same
  initialisation and noise as the numpy backend; tensors are ``float64``,
  leaving kernel-order float differences as the only cross-backend drift
  (well inside the parity suite's rtol of 1e-5).
* ``"fast"``: ``float32`` parameters resident on the device, index tensors
  staged through pinned host memory on CUDA (``pin_memory()`` +
  ``.to(non_blocking=True)``, the DGL transfer-hiding idiom), negatives
  drawn device-side from a ``torch.Generator`` seeded off the caller's
  numpy stream, and the skip-gram hot loop fused into one
  :meth:`TorchBackend.skipgram_step` call.  Fast mode answers to the
  statistical-parity suite (final metrics within tolerance), not to the
  exact reference, and canonicalises to ``torch:<device>:fast`` so its
  cache entries never alias an exact run.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np
import torch

from repro.backend.base import PRECISIONS, Backend


class TorchBackend(Backend):
    """Array ops on ``torch`` tensors, ``device=`` and precision aware.

    Parameters
    ----------
    device:
        Anything ``torch.device`` accepts (``"cpu"``, ``"cuda"``,
        ``"cuda:1"``); defaults to ``"cpu"``.  Requesting a CUDA device on a
        machine without one fails here, at construction, with a one-line
        message — not mid-training.
    dtype:
        Tensor dtype override.  Defaults follow the precision mode:
        ``float64`` for ``"exact"`` (results track the numpy reference
        closely), ``float32`` for ``"fast"``.
    precision:
        ``"exact"`` (default) or ``"fast"`` — see the module docstring.
    """

    name = "torch"

    def __init__(
        self,
        device: Optional[str] = None,
        dtype: Any = None,
        precision: Optional[str] = None,
    ) -> None:
        try:
            self._device = torch.device(device if device is not None else "cpu")
        except (RuntimeError, ValueError) as exc:
            raise ValueError(f"invalid torch device {device!r}: {exc}") from exc
        if self._device.type == "cuda" and not torch.cuda.is_available():
            raise ValueError(
                f"device {device!r} requested but CUDA is not available to torch"
            )
        self._precision = precision if precision is not None else "exact"
        if self._precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {precision!r} (expected one of {PRECISIONS})"
            )
        if dtype is not None:
            self._dtype = dtype
        else:
            self._dtype = torch.float32 if self._precision == "fast" else torch.float64
        # Matching numpy dtype for host-side staging: converting on the host
        # *once*, at the target width, halves the copy + transfer bytes of
        # the float64-detour-then-narrow pattern for float32 backends.
        self._np_dtype = np.float32 if self._dtype == torch.float32 else np.float64
        self._pin = self._device.type == "cuda"

    @property
    def device(self) -> str:
        return str(self._device)

    @property
    def precision(self) -> str:
        return self._precision

    # ------------------------------------------------------------------
    # conversion and allocation
    # ------------------------------------------------------------------
    def _transfer(self, host: "torch.Tensor") -> "torch.Tensor":
        """Move a host tensor to the device, staging through pinned memory
        on CUDA so the copy can overlap with compute."""
        if self._pin:
            return host.pin_memory().to(self._device, non_blocking=True)
        return host.to(self._device)

    def asarray(self, x: Any) -> "torch.Tensor":
        if isinstance(x, torch.Tensor):
            if x.device == self._device and x.dtype == self._dtype:
                return x
            return x.to(device=self._device, dtype=self._dtype)
        host = torch.as_tensor(np.asarray(x, dtype=self._np_dtype), dtype=self._dtype)
        if host.device == self._device:
            return host
        return self._transfer(host)

    def parameter(self, x: Any) -> "torch.Tensor":
        # Clone so parameters never alias the numpy buffer they were
        # initialised from (in-place updates must stay backend-local).
        return self.asarray(x).clone()

    def to_numpy(self, x: Any) -> np.ndarray:
        if isinstance(x, torch.Tensor):
            return x.detach().cpu().numpy()
        return np.asarray(x)

    def zeros(self, shape: Tuple[int, ...]) -> "torch.Tensor":
        return torch.zeros(tuple(shape), dtype=self._dtype, device=self._device)

    def zeros_like(self, x: "torch.Tensor") -> "torch.Tensor":
        return torch.zeros_like(x)

    def full_like(self, x: "torch.Tensor", value: float) -> "torch.Tensor":
        return torch.full_like(x, float(value))

    def copy(self, x: "torch.Tensor") -> "torch.Tensor":
        return self._native(x).clone()

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def _index(self, idx: Any) -> "torch.Tensor":
        if isinstance(idx, torch.Tensor):
            if idx.device == self._device and idx.dtype == torch.int64:
                return idx
            return idx.to(device=self._device, dtype=torch.int64)
        host = torch.as_tensor(np.ascontiguousarray(idx, dtype=np.int64))
        if host.device == self._device:
            return host
        return self._transfer(host)

    def gather(self, x: "torch.Tensor", idx: Any) -> "torch.Tensor":
        return x[self._index(idx)]

    def index_add_(
        self, target: "torch.Tensor", idx: Any, rows: "torch.Tensor", unique: bool = False
    ) -> None:
        # ``index_add_`` is one kernel with or without repeats; ``unique``
        # needs no separate path here.
        target.index_add_(0, self._index(idx), self.asarray(rows))

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def matmul(self, a: "torch.Tensor", b: "torch.Tensor") -> "torch.Tensor":
        return torch.matmul(a, b)

    def transpose(self, x: "torch.Tensor") -> "torch.Tensor":
        return x.transpose(0, 1)

    def rowwise_dot(self, a: "torch.Tensor", b: "torch.Tensor") -> "torch.Tensor":
        return torch.einsum("ij,ij->i", a, b)

    def batched_rowwise_dot(self, a: "torch.Tensor", b: "torch.Tensor") -> "torch.Tensor":
        return torch.einsum("ij,ikj->ik", a, b)

    def weighted_rows_sum(self, coeff: "torch.Tensor", b: "torch.Tensor") -> "torch.Tensor":
        return torch.einsum("ik,ikj->ij", coeff, b)

    # ------------------------------------------------------------------
    # activations and elementwise math
    # ------------------------------------------------------------------
    def _native(self, x: Any) -> "torch.Tensor":
        """``asarray`` that skips the redundant ``.to()`` round-trip when the
        input is already a tensor of the backend's dtype and device — the
        common case inside a training loop, where every activation input is
        the output of a previous backend op."""
        if (
            isinstance(x, torch.Tensor)
            and x.device == self._device
            and x.dtype == self._dtype
        ):
            return x
        return self.asarray(x)

    def sigmoid(self, x: "torch.Tensor") -> "torch.Tensor":
        return torch.sigmoid(self._native(x))

    def log_sigmoid(self, x: "torch.Tensor") -> "torch.Tensor":
        return torch.nn.functional.logsigmoid(self._native(x))

    def softmax(self, x: "torch.Tensor", axis: int = -1) -> "torch.Tensor":
        return torch.softmax(self._native(x), dim=axis)

    def relu(self, x: "torch.Tensor") -> "torch.Tensor":
        return torch.relu(self._native(x))

    def tanh(self, x: "torch.Tensor") -> "torch.Tensor":
        return torch.tanh(self._native(x))

    def exp(self, x: "torch.Tensor") -> "torch.Tensor":
        return torch.exp(x)

    def log(self, x: "torch.Tensor") -> "torch.Tensor":
        return torch.log(x)

    def sqrt(self, x: "torch.Tensor") -> "torch.Tensor":
        return torch.sqrt(x)

    def _clip(
        self, x: "torch.Tensor", lower: Optional[float], upper: Optional[float]
    ) -> "torch.Tensor":
        return torch.clamp(self._native(x), min=lower, max=upper)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, x: "torch.Tensor", axis: Optional[int] = None) -> "torch.Tensor":
        return torch.sum(x) if axis is None else torch.sum(x, dim=axis)

    def mean(self, x: "torch.Tensor", axis: Optional[int] = None) -> "torch.Tensor":
        return torch.mean(x) if axis is None else torch.mean(x, dim=axis)

    # ------------------------------------------------------------------
    # norm-based row operations
    # ------------------------------------------------------------------
    def normalize_rows_(
        self, x: "torch.Tensor", floor: float, rows: Optional[Sequence[Any]] = None
    ) -> Optional["torch.Tensor"]:
        # Off the CPU a full pass is one sync-free kernel, while a touched-row
        # set has a data-dependent size the host would wait for every batch.
        if rows is None or self._device.type != "cpu":
            norms = torch.linalg.vector_norm(x, dim=1, keepdim=True)
            x.div_(torch.clamp(norms, min=floor))
            if rows is None:
                return None
            return torch.empty(0, dtype=torch.int64, device=self._device)
        idx = torch.unique(torch.cat([self._index(r).reshape(-1) for r in rows]))
        whole = idx.shape[0] == x.shape[0]
        block = x if whole else x[idx]
        norms = torch.linalg.vector_norm(block, dim=1, keepdim=True)
        block.div_(torch.clamp(norms, min=floor))
        if not whole:
            x[idx] = block
        return idx[torch.linalg.vector_norm(block, dim=1) > floor]

    def clip_rows(self, x: "torch.Tensor", max_norm: float) -> "torch.Tensor":
        norms = torch.linalg.vector_norm(x, dim=1)
        scales = torch.clamp(norms / max_norm, min=1.0)
        return x / scales[:, None]

    def clip_global(self, x: "torch.Tensor", max_norm: float) -> "torch.Tensor":
        # Stays on-device: a host-side float(norm) here would force a full
        # pipeline sync per DP update step.
        scale = torch.clamp(torch.linalg.vector_norm(x) / max_norm, min=1.0)
        return x / scale

    # ------------------------------------------------------------------
    # randomness (numpy Generator streams, transferred to the device)
    # ------------------------------------------------------------------
    def gaussian(
        self,
        rng: np.random.Generator,
        mean: float,
        std: float,
        shape: Tuple[int, ...],
    ) -> "torch.Tensor":
        return self.asarray(rng.normal(mean, std, size=tuple(shape)))

    def uniform(
        self,
        rng: np.random.Generator,
        low: float,
        high: float,
        shape: Tuple[int, ...],
    ) -> "torch.Tensor":
        return self.asarray(rng.uniform(low, high, size=tuple(shape)))

    def sample_negatives(
        self,
        rng: np.random.Generator,
        shape: Union[int, Tuple[int, ...]],
        num_nodes: int,
    ) -> Any:
        if self._precision != "fast":
            return super().sample_negatives(rng, shape, num_nodes)
        # Fast mode draws on the device.  The generator is re-seeded per
        # call from the caller's numpy stream, so the draws stay a pure
        # function of the cell seed (deterministic, and independent of any
        # other model sharing this cached backend instance) while only one
        # 64-bit integer ever crosses the host boundary.
        seed = int(rng.integers(0, np.iinfo(np.int64).max))
        generator = torch.Generator(device=self._device)
        generator.manual_seed(seed)
        size = (shape,) if isinstance(shape, int) else tuple(shape)
        return torch.randint(
            0, int(num_nodes), size, generator=generator, device=self._device
        )

    # ------------------------------------------------------------------
    # fused hot path
    # ------------------------------------------------------------------
    def skipgram_step(
        self,
        w_in: "torch.Tensor",
        w_out: "torch.Tensor",
        positive: np.ndarray,
        negatives: Any,
        learning_rate: float,
    ) -> "torch.Tensor":
        """Fused gather–dot–sigmoid update (see :meth:`Backend.skipgram_step`).

        The batch's index tensors cross the host boundary exactly once
        (pinned + non-blocking on CUDA); negatives may already be a native
        tensor from :meth:`sample_negatives`, in which case nothing is
        transferred; and the loss is returned as a 0-d tensor, never
        scalarised here.
        """
        pos = self._index(positive)  # (B, 2), one transfer
        neg = self._index(negatives)  # (B, k), no-op for device draws
        src, dst = pos[:, 0], pos[:, 1]
        v_i = w_in[src]  # (B, d)
        v_j = w_out[dst]  # (B, d)
        neg_v = w_out[neg]  # (B, k, d)
        pos_scores = torch.einsum("ij,ij->i", v_i, v_j)
        neg_scores = torch.einsum("ij,ikj->ik", v_i, neg_v)
        logsig = torch.nn.functional.logsigmoid
        loss = -(logsig(pos_scores).sum() + logsig(-neg_scores).sum()) / max(
            1, pos.shape[0]
        )
        pos_coeff = 1.0 - torch.sigmoid(pos_scores)  # (B,)
        neg_coeff = -torch.sigmoid(neg_scores)  # (B, k)
        lr = float(learning_rate)
        grad_in = pos_coeff[:, None] * v_j + torch.einsum(
            "ik,ikj->ij", neg_coeff, neg_v
        )
        w_in.index_add_(0, src, lr * grad_in)
        w_out.index_add_(0, dst, lr * (pos_coeff[:, None] * v_i))
        neg_rows = (neg_coeff[..., None] * v_i[:, None, :]).reshape(-1, v_i.shape[1])
        w_out.index_add_(0, neg.reshape(-1), lr * neg_rows)
        return loss.detach()
