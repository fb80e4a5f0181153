"""Pluggable compute backends: resolution, availability, canonical specs.

The models never import numpy-vs-torch directly; they ask this module for a
:class:`Backend` and route their tensor math through it.  Selection
precedence, everywhere a backend can be named:

1. an explicit request (CLI ``--backend``, a config ``backend`` field, a
   ``Backend`` instance passed through the API),
2. the ``REPRO_BACKEND`` environment variable (``"torch"``, ``"torch:cuda"``
   or ``"torch:cuda:fast"`` forms accepted),
3. the numpy default.

A spec string is ``name[:device][:precision]``: the optional trailing token
``exact`` / ``fast`` names the precision mode (``"torch:cuda:0:fast"`` is a
fast backend on device ``cuda:0``), and everything between the family name
and it is the device.  ``exact`` is the default and is canonicalised away,
so precision-less specs keep the exact cache keys they had before the
precision seam existed.

``torch`` is import-gated: ``import repro`` never touches it, and only an
explicit request for the torch backend can raise — with a one-line
:class:`BackendError`, not a traceback from deep inside a model.

Backend identity matters beyond dispatch: the experiment cache hashes
:func:`canonical_backend_spec` into every cell key so a torch run can never
be served a numpy row (or vice versa), and a ``fast`` run can never be
served an ``exact`` row.  That function is pure string work — it must stay
total on machines where the named backend is not installed.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple, Union

from repro.backend.base import PRECISIONS, Array, Backend
from repro.backend.numpy_backend import NumpyBackend

#: Environment variable consulted when no explicit backend is named.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The process-wide numpy backend (stateless, so one instance serves all).
NUMPY_BACKEND = NumpyBackend()


class BackendError(ValueError):
    """Unknown backend name, unavailable backend, or unsupported device."""


def _make_numpy(device: Optional[str], precision: Optional[str]) -> Backend:
    if device not in (None, "cpu"):
        raise BackendError(
            f"backend 'numpy' does not support device {device!r} (only 'cpu')"
        )
    if precision not in (None, "exact"):
        raise BackendError(
            f"backend 'numpy' does not support precision {precision!r} (it is "
            "the exact reference; use backend 'torch' for the fast path)"
        )
    return NUMPY_BACKEND


def _make_torch(device: Optional[str], precision: Optional[str]) -> Backend:
    try:
        import torch  # noqa: F401
    except ImportError:
        raise BackendError(
            "backend 'torch' is not available: torch is not installed in "
            "this environment (pip install torch)"
        ) from None
    from repro.backend.torch_backend import TorchBackend

    try:
        return TorchBackend(device, precision=precision)
    except ValueError as exc:
        raise BackendError(f"backend 'torch': {exc}") from exc


#: Backend family name -> factory taking the (optional) device and precision.
_FACTORIES: Dict[str, Callable[[Optional[str], Optional[str]], Backend]] = {
    "numpy": _make_numpy,
    "torch": _make_torch,
}

#: Instance cache so repeated resolution of one spec reuses the backend.
_INSTANCES: Dict[Tuple[str, Optional[str], Optional[str]], Backend] = {}


def register_backend(
    name: str, factory: Callable[[Optional[str], Optional[str]], Backend]
) -> None:
    """Register a third-party backend factory under ``name``.

    The factory receives the requested device string and precision mode
    (each possibly ``None``) and must return a :class:`Backend`; raising
    :class:`BackendError` is the correct way to report unavailability or an
    unsupported precision.
    """
    key = name.lower()
    if key in _FACTORIES:
        raise ValueError(f"backend {name!r} is already registered")
    _FACTORIES[key] = factory


def list_backends() -> Tuple[str, ...]:
    """Registered backend family names, sorted."""
    return tuple(sorted(_FACTORIES))


def backend_available(name: str) -> bool:
    """Whether ``name`` can actually be constructed in this environment."""
    reason = backend_unavailable_reason(name)
    return reason is None


def backend_unavailable_reason(name: str) -> Optional[str]:
    """Why ``name`` cannot be used here (``None`` when it can)."""
    key = name.lower()
    if key not in _FACTORIES:
        return f"unknown backend {name!r}; registered: {', '.join(list_backends())}"
    if key == "torch":
        try:
            import torch  # noqa: F401
        except ImportError:
            return "torch is not installed in this environment"
    return None


def _split_spec(spec: str) -> Tuple[str, Optional[str], Optional[str]]:
    """Split a spec string into ``(name, device, precision)``.

    The precision token is peeled off the *end* (devices may themselves
    contain colons): ``"torch:cuda:0:fast"`` -> ``("torch", "cuda:0",
    "fast")``, ``"torch:cuda:1"`` -> ``("torch", "cuda:1", None)``,
    ``"numpy"`` -> ``("numpy", None, None)``.
    """
    name, sep, rest = spec.partition(":")
    device = rest if sep else None
    precision = None
    if device is not None:
        head, _, tail = device.rpartition(":")
        if tail in PRECISIONS:
            precision = tail
            device = head or None
        elif device in PRECISIONS:
            precision = device
            device = None
    return name.lower(), device, precision


def default_backend_spec() -> str:
    """The ambient backend spec: ``$REPRO_BACKEND`` if set, else ``"numpy"``."""
    return os.environ.get(BACKEND_ENV_VAR, "").strip() or "numpy"


def get_backend(spec: Union[str, Backend, None] = None) -> Backend:
    """Resolve a backend request to a live :class:`Backend` instance.

    ``spec`` is a :class:`Backend` instance (passed through), a
    ``name[:device][:precision]`` string (``"numpy"``, ``"torch:cuda"``,
    ``"torch:cuda:0:fast"``), or ``None`` to fall back to
    ``$REPRO_BACKEND`` and then numpy.

    Raises
    ------
    BackendError
        Unknown name, backend not installed, unsupported device or
        precision — always with a one-line, actionable message.
    """
    if isinstance(spec, Backend):
        return spec
    name, device, precision = _split_spec(spec or default_backend_spec())
    factory = _FACTORIES.get(name)
    if factory is None:
        raise BackendError(
            f"unknown backend {name!r}; registered: {', '.join(list_backends())}"
        )
    cache_key = (name, device, precision)
    instance = _INSTANCES.get(cache_key)
    if instance is None:
        instance = factory(device, precision)
        _INSTANCES[cache_key] = instance
    return instance


def canonical_backend_spec(spec: Union[str, Backend, None] = None) -> str:
    """The canonical identity string a backend request resolves to.

    Pure string normalisation — never imports or constructs the backend —
    so cache-key computation stays total even for backends that are not
    installed in this process (mirroring how unknown model names are
    tolerated by :func:`repro.api.registry.canonical_name`).  ``"numpy"``
    stays bare; other families get an explicit device suffix with ``cpu``
    as the default (``"torch"`` -> ``"torch:cpu"``).  The default
    ``"exact"`` precision is canonicalised away (pre-precision cache keys
    are preserved); ``"fast"`` becomes a trailing token
    (``"torch:cuda:fast"``) so fast and exact cells never share a key.
    """
    if isinstance(spec, Backend):
        return spec.spec
    name, device, precision = _split_spec(spec or default_backend_spec())
    if name == "numpy":
        base = "numpy"
    else:
        base = f"{name}:{device if device else 'cpu'}"
    if precision in (None, "exact"):
        return base
    return f"{base}:{precision}"


__all__ = [
    "Array",
    "Backend",
    "BackendError",
    "BACKEND_ENV_VAR",
    "NUMPY_BACKEND",
    "NumpyBackend",
    "PRECISIONS",
    "backend_available",
    "backend_unavailable_reason",
    "canonical_backend_spec",
    "default_backend_spec",
    "get_backend",
    "list_backends",
    "register_backend",
]
