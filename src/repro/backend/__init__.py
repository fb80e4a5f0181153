"""The models' shared array kernels: :class:`NumpyBackend` and its instance.

Every model binds the one process-wide :data:`NUMPY_BACKEND` as its
``backend_`` attribute and calls its six kernels (scatter-add, segment sum,
row projection, fused add-and-project, Gaussian draws, ``to_numpy``)
through it; all other tensor math in the models is plain numpy.  The
rewrite-parity tests pin the kernels byte-equal to the code they replaced,
and the benchmark harness times them by method name.
"""

from __future__ import annotations

from repro.backend.numpy_backend import NumpyBackend

#: The process-wide instance (stateless, so one serves all).
NUMPY_BACKEND = NumpyBackend()


__all__ = [
    "NUMPY_BACKEND",
    "NumpyBackend",
]
