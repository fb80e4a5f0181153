"""Declarative experiment specifications.

An :class:`ExperimentSpec` names a full (dataset x model x epsilon x repeat)
grid — the unit every figure/table sweep in the paper is built from — without
constructing anything.  ``spec.cells()`` expands the grid into independent,
serialisable :class:`ExperimentCell` units with per-cell derived seeds, which
is what makes the multiprocess runner
(:func:`repro.experiments.runners.run_spec`) trivially correct: the cells
carry everything a worker needs, and the seeds are derived *before* the fan
out, so serial and parallel execution produce identical results.

Everything here is plain data (strings, numbers, tuples), so specs round-trip
through ``to_dict``/``from_dict`` (and therefore JSON) losslessly.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

#: Evaluation protocols a spec can request.
TASKS = ("link_prediction", "node_clustering", "none")

#: Stride between per-repeat seeds (prime, matches the historical runners).
SEED_STRIDE = 7919


def _freeze_value(value: Any) -> Any:
    """Normalise one override value to hashable, canonical plain data.

    numpy scalars are coerced to their Python equivalents and sequences to
    tuples so the frozen form — and therefore the cell's content-address —
    is identical whether the override came from Python literals, numpy
    results, or a JSON round-trip.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    return value


def _freeze_overrides(overrides: Union[Mapping[str, Any], Iterable, None]) -> Tuple[Tuple[str, Any], ...]:
    """Normalise an overrides mapping to a hashable, serialisable tuple.

    Entries are sorted by field name: override order never affects model
    construction (they are applied as keyword arguments), so the frozen form
    is made order-independent to keep equality and cache keys stable.
    """
    if overrides is None:
        return ()
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:
        items = tuple(overrides)
    frozen = []
    for key, value in items:
        frozen.append((str(key), _freeze_value(value)))
    return tuple(sorted(frozen))


def _check_no_walk_cache(value: Any) -> None:
    """Refuse any ``walk_cache`` but the ``None``/``False`` that meant "off"."""
    if value is not None and value is not False:
        raise ValueError(
            f"walk_cache={value!r}: the walk-corpus cache was deleted; "
            "drop the argument"
        )


def _drop_legacy_placement(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Copy ``data`` without the retired ``device``/``precision``/``walk_cache``.

    Older ``to_dict`` output carries them as ``null`` (``walk_cache`` also
    as ``false``) and still loads.  A device or precision value is refused,
    because the backend spec string is now the only place one can be
    named; any other ``walk_cache`` value is refused because the walk-corpus
    cache no longer exists.
    """
    kwargs = dict(data)
    for key in ("device", "precision"):
        if kwargs.pop(key, None) is not None:
            raise ValueError(
                f"{key!r} is no longer a separate field; name it in the "
                "backend spec string, backend='name[:device][:precision]' "
                "(e.g. 'torch:cuda:fast')"
            )
    _check_no_walk_cache(kwargs.pop("walk_cache", None))
    return kwargs


@dataclass(frozen=True)
class ModelSpec:
    """One model column of an experiment grid.

    Attributes
    ----------
    name:
        Registry name (see :func:`repro.api.make_model`).
    label:
        Display label used in result dicts / rendered tables; defaults to
        ``name``.
    overrides:
        Config-field overrides applied on top of the model's defaults, stored
        as a tuple of ``(field, value)`` pairs so the spec stays hashable and
        picklable.
    """

    name: str
    label: Optional[str] = None
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name))
        if self.label is not None:
            object.__setattr__(self, "label", str(self.label))
        object.__setattr__(self, "overrides", _freeze_overrides(self.overrides))

    @property
    def display(self) -> str:
        """Label shown in results (falls back to the registry name)."""
        return self.label if self.label is not None else self.name

    @classmethod
    def of(cls, spec: Union[str, Mapping[str, Any], "ModelSpec"]) -> "ModelSpec":
        """Coerce a name / dict / ModelSpec into a :class:`ModelSpec`."""
        if isinstance(spec, ModelSpec):
            return spec
        if isinstance(spec, str):
            return cls(name=spec)
        if isinstance(spec, Mapping):
            return cls(
                name=spec["name"],
                label=spec.get("label"),
                overrides=_freeze_overrides(spec.get("overrides")),
            )
        raise TypeError(f"cannot build a ModelSpec from {type(spec)!r}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-able)."""
        return {
            "name": self.name,
            "label": self.label,
            "overrides": {k: v for k, v in self.overrides},
        }


@dataclass(frozen=True)
class ExperimentCell:
    """One independent (dataset, model, epsilon, repeat) unit of work.

    Cells are fully self-contained: a worker process can run one with no
    shared state beyond the code.  ``seed`` is the cell's derived seed; it
    controls the evaluation split, the model initialisation and the sampling
    streams, exactly as the serial runners always did.
    """

    task: str
    dataset: str
    model: ModelSpec
    epsilon: Optional[float]
    repeat: int
    seed: int
    dataset_scale: float = 1.0
    dataset_seed: Optional[int] = None
    test_fraction: float = 0.1
    backend: Optional[str] = None
    on_disk: bool = False
    graph_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        # Coerce every field to canonical plain-Python scalars so that two
        # cells describing the same work — one built from numpy values or a
        # JSON round-trip, one from literals — are equal and hash to the
        # same content-address.
        object.__setattr__(self, "task", str(self.task))
        object.__setattr__(self, "dataset", str(self.dataset))
        object.__setattr__(self, "model", ModelSpec.of(self.model))
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "repeat", int(self.repeat))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "dataset_scale", float(self.dataset_scale))
        if self.dataset_seed is not None:
            object.__setattr__(self, "dataset_seed", int(self.dataset_seed))
        object.__setattr__(self, "test_fraction", float(self.test_fraction))
        if self.backend is not None:
            object.__setattr__(self, "backend", str(self.backend))
        object.__setattr__(self, "on_disk", bool(self.on_disk))
        if self.graph_path is not None:
            object.__setattr__(self, "graph_path", str(self.graph_path))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-able)."""
        data = {f: getattr(self, f) for f in (
            "task", "dataset", "epsilon", "repeat", "seed",
            "dataset_scale", "dataset_seed", "test_fraction",
            "backend", "on_disk", "graph_path",
        )}
        data["model"] = self.model.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentCell":
        """Inverse of :meth:`to_dict`."""
        kwargs = _drop_legacy_placement(data)
        kwargs["model"] = ModelSpec.of(kwargs["model"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative (dataset x model x epsilon x repeat) experiment grid.

    Attributes
    ----------
    task:
        ``"link_prediction"`` (train on the split's train graph, report AUC)
        or ``"node_clustering"`` (train on the full graph, report MI/NMI).
    datasets:
        Dataset registry names (see :func:`repro.graph.datasets.load_dataset`).
    models:
        Model columns; strings are promoted to :class:`ModelSpec`.
    epsilons:
        Privacy budgets swept per model.  Use ``(None,)`` for non-private
        models — ``None`` cells construct the model without an epsilon.
    repeats:
        Independent repetitions per cell position (seeds derived per repeat).
    base_seed:
        Root seed; repeat ``r`` runs with ``base_seed + SEED_STRIDE * r``.
    dataset_scale / dataset_seed:
        Forwarded to ``load_dataset``; ``dataset_seed`` defaults to
        ``base_seed`` (the historical runners' convention).
    test_fraction:
        Held-out edge fraction for link prediction.
    backend:
        Backend spec every cell of the grid trains on,
        ``name[:device][:precision]`` (``"torch:cuda:fast"``; ``None`` defers
        to each model's config and then the ambient default — see
        :mod:`repro.backend`).  Carried per cell so a worker process, or a
        remote runner reading the cell from a cache manifest, reproduces the
        same placement and arithmetic.
    on_disk:
        Load every dataset as a memory-mapped on-disk graph
        (``load_dataset(..., on_disk=True)``) instead of in RAM.  The arrays
        are bit-identical either way, and cache keys are unaffected.
    graph_path:
        Path to a pre-built on-disk graph directory used *instead of* the
        dataset registry (the ``datasets`` entry then only labels the runs).
        The graph's content fingerprint is hashed into every cell key, so
        two different graphs submitted under one name never alias.
    walk_cache:
        Retired.  The walk-corpus cache it switched was deleted; ``None`` and
        ``False`` (which meant "off") are still accepted and stored nowhere,
        so callers that passed them keep working.  Any other value raises.
    """

    task: str
    datasets: Tuple[str, ...]
    models: Tuple[ModelSpec, ...]
    epsilons: Tuple[Optional[float], ...] = (None,)
    repeats: int = 1
    base_seed: int = 2025
    dataset_scale: float = 1.0
    dataset_seed: Optional[int] = field(default=None)
    test_fraction: float = 0.1
    backend: Optional[str] = None
    on_disk: bool = False
    graph_path: Optional[str] = None
    walk_cache: InitVar[Optional[bool]] = None

    def __post_init__(self, walk_cache: Optional[bool]) -> None:
        _check_no_walk_cache(walk_cache)
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(
            self, "models", tuple(ModelSpec.of(m) for m in self.models)
        )
        object.__setattr__(
            self,
            "epsilons",
            tuple(None if e is None else float(e) for e in self.epsilons),
        )
        if not self.datasets:
            raise ValueError("datasets must not be empty")
        if not self.models:
            raise ValueError("models must not be empty")
        if not self.epsilons:
            raise ValueError("epsilons must not be empty (use (None,) for non-private)")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must lie in (0, 1)")
        if self.dataset_scale <= 0:
            raise ValueError("dataset_scale must be positive")
        if self.dataset_seed is None:
            object.__setattr__(self, "dataset_seed", self.base_seed)
        if self.backend is not None:
            object.__setattr__(self, "backend", str(self.backend))
        object.__setattr__(self, "on_disk", bool(self.on_disk))
        if self.graph_path is not None:
            object.__setattr__(self, "graph_path", str(self.graph_path))
            if len(self.datasets) > 1:
                raise ValueError(
                    "graph_path pins one graph; use a single dataset label"
                )

    # ------------------------------------------------------------------
    def seed_for_repeat(self, repeat: int) -> int:
        """The derived seed shared by every cell of repetition ``repeat``."""
        return self.base_seed + SEED_STRIDE * repeat

    def cells(self) -> Tuple[ExperimentCell, ...]:
        """Expand the grid into independent cells (dataset-major order)."""
        out = []
        for dataset in self.datasets:
            for model in self.models:
                for epsilon in self.epsilons:
                    for repeat in range(self.repeats):
                        out.append(
                            ExperimentCell(
                                task=self.task,
                                dataset=dataset,
                                model=model,
                                epsilon=epsilon,
                                repeat=repeat,
                                seed=self.seed_for_repeat(repeat),
                                dataset_scale=self.dataset_scale,
                                dataset_seed=self.dataset_seed,
                                test_fraction=self.test_fraction,
                                backend=self.backend,
                                on_disk=self.on_disk,
                                graph_path=self.graph_path,
                            )
                        )
        return tuple(out)

    def with_(self, **changes: Any) -> "ExperimentSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-able)."""
        return {
            "task": self.task,
            "datasets": list(self.datasets),
            "models": [m.to_dict() for m in self.models],
            "epsilons": list(self.epsilons),
            "repeats": self.repeats,
            "base_seed": self.base_seed,
            "dataset_scale": self.dataset_scale,
            "dataset_seed": self.dataset_seed,
            "test_fraction": self.test_fraction,
            "backend": self.backend,
            "on_disk": self.on_disk,
            "graph_path": self.graph_path,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`."""
        kwargs = _drop_legacy_placement(data)
        kwargs["datasets"] = tuple(kwargs["datasets"])
        kwargs["models"] = tuple(ModelSpec.of(m) for m in kwargs["models"])
        kwargs["epsilons"] = tuple(kwargs["epsilons"])
        return cls(**kwargs)
