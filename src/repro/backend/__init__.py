"""The compute backend: the array-ops protocol and its numpy implementation.

The models route their tensor math through a :class:`Backend` instead of
calling numpy directly; every model binds the one process-wide
:data:`NUMPY_BACKEND`, as its ``backend_`` attribute.  The seam keeps the
hot kernels (scatter-add, row projection, Gaussian draws) in one place,
where the rewrite-parity tests pin them byte-equal to the code they
replaced and the benchmark harness times them by method name.
"""

from __future__ import annotations

from repro.backend.base import Array, Backend
from repro.backend.numpy_backend import NumpyBackend

#: The process-wide numpy backend (stateless, so one instance serves all).
NUMPY_BACKEND = NumpyBackend()


__all__ = [
    "Array",
    "Backend",
    "NUMPY_BACKEND",
    "NumpyBackend",
]
