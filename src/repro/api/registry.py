"""String-keyed model registry: ``register_model`` + ``make_model``.

The registry gives every estimator a stable, serialisable name so sweeps,
specs and the CLI can say ``"advsgm"`` instead of importing
``repro.core.advsgm.AdvSGM`` and hand-assembling an ``AdvSGMConfig``.  Model
modules self-register with the :func:`register_model` decorator; each entry's
config dataclass is resolved by introspecting the ``config`` parameter of the
model's ``__init__`` (the same registry-plus-factory idiom as DGL's model
zoo), so adding a model is one decorator line, not another factory function.
"""

from __future__ import annotations

import dataclasses
import inspect
import typing
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple, Type

from repro.utils.rng import RngLike

#: Canonical name -> entry.  Aliases live in a separate map so listings stay
#: one line per model.
_REGISTRY: Dict[str, "ModelEntry"] = {}
_ALIASES: Dict[str, str] = {}
_REGISTRATION_DONE = False


@dataclass(frozen=True)
class ModelEntry:
    """One registered estimator.

    Attributes
    ----------
    name:
        Canonical registry key (lower-case).
    cls:
        The estimator class (satisfies :class:`repro.api.GraphEmbedder`).
    config_cls:
        The model's config dataclass, resolved from the ``__init__``
        signature.
    private:
        Whether the model consumes a differential-privacy budget (i.e. its
        config has a meaningful ``epsilon``).
    paper:
        Where the model appears in the AdvSGM paper (section / figure).
    description:
        One-line summary for listings.
    aliases:
        Accepted alternate spellings (case-insensitive).
    """

    name: str
    cls: type
    config_cls: type
    private: bool
    paper: str = ""
    description: str = ""
    aliases: Tuple[str, ...] = ()


def _resolve_config_class(cls: type) -> Type[Any]:
    """Resolve the config dataclass from ``cls.__init__``'s annotations."""
    hints = typing.get_type_hints(cls.__init__)
    annotation = hints.get("config")
    if annotation is None:
        raise TypeError(
            f"{cls.__name__}.__init__ has no annotated 'config' parameter"
        )
    # Unwrap Optional[X] / Union[X, None].
    if typing.get_origin(annotation) is typing.Union:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if len(args) != 1:
            raise TypeError(
                f"{cls.__name__}: ambiguous config annotation {annotation!r}"
            )
        annotation = args[0]
    if not dataclasses.is_dataclass(annotation):
        raise TypeError(
            f"{cls.__name__}: config annotation {annotation!r} is not a dataclass"
        )
    return annotation


def register_model(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    private: bool = False,
    paper: str = "",
    description: str = "",
):
    """Class decorator adding an estimator to the registry under ``name``."""

    def decorator(cls: type) -> type:
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"model {name!r} is already registered")
        entry = ModelEntry(
            name=key,
            cls=cls,
            config_cls=_resolve_config_class(cls),
            private=private,
            paper=paper,
            description=description
            or ((inspect.getdoc(cls) or "").splitlines() or [""])[0],
            aliases=tuple(a.lower() for a in aliases),
        )
        _REGISTRY[key] = entry
        for alias in entry.aliases:
            if alias in _ALIASES or alias in _REGISTRY:
                raise ValueError(f"alias {alias!r} is already registered")
            _ALIASES[alias] = key
        return cls

    return decorator


def _ensure_registered() -> None:
    """Import every model module once so their decorators have run."""
    global _REGISTRATION_DONE
    if _REGISTRATION_DONE:
        return
    # Imported for their registration side effects only.
    import repro.core.advsgm  # noqa: F401
    import repro.embedding.skipgram  # noqa: F401
    import repro.embedding.adversarial  # noqa: F401
    import repro.embedding.deepwalk  # noqa: F401
    import repro.embedding.node2vec  # noqa: F401
    import repro.baselines  # noqa: F401

    _REGISTRATION_DONE = True


def list_models() -> Tuple[str, ...]:
    """Canonical names of all registered models, sorted."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def get_entry(name: str) -> ModelEntry:
    """Look up a registry entry by canonical name or alias (case-insensitive)."""
    _ensure_registered()
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown model {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]


def canonical_name(name: str) -> str:
    """Resolve a model name or alias to its canonical registry key.

    Unknown names are lower-cased and returned unchanged instead of raising:
    the experiment cache uses this to canonicalise cell hashes, and a key
    computation must stay total even for models that are not registered in
    this process (e.g. when inspecting a cache written by a newer version).
    """
    _ensure_registered()
    key = name.lower()
    return _ALIASES.get(key, key)


def check_overrides(name: str, overrides: Iterable[str]) -> ModelEntry:
    """Resolve ``name`` and check that every override names a config field.

    Raises ``KeyError`` for an unknown model and ``TypeError`` for unknown
    fields, each with a one-line message.  :func:`make_model` runs this
    before it builds a config, so a typo fails with the list of valid
    fields instead of a bare dataclass ``TypeError``.
    """
    entry = get_entry(name)
    field_names = {f.name for f in dataclasses.fields(entry.config_cls)}
    unknown = set(overrides) - field_names
    if unknown:
        hint = ""
        if unknown & {"backend", "device", "precision"}:
            hint = " (numpy on the CPU is the only compute backend)"
        raise TypeError(
            f"unknown config field(s) {sorted(unknown)} for model "
            f"{entry.name!r}{hint}; valid fields: {sorted(field_names)}"
        )
    return entry


def make_model(
    name: str,
    *,
    epsilon: Optional[float] = None,
    graph=None,
    rng: RngLike = None,
    **overrides: Any,
):
    """Construct a registered estimator by name.

    Parameters
    ----------
    name:
        Registry name or alias (e.g. ``"advsgm"``, ``"dp-sgm"``).
    epsilon:
        Target privacy budget.  Only accepted for private models (where it is
        shorthand for ``overrides["epsilon"]``); passing it for a non-private
        model raises, instead of silently training without the guarantee.
    graph:
        Optional training graph.  When omitted the estimator is returned
        unbound — pass the graph to ``fit(graph)`` instead.
    rng:
        Seed or generator forwarded to the model.
    **overrides:
        Config dataclass fields to override (validated against the model's
        config class so typos fail fast).

    Returns
    -------
    A :class:`repro.api.GraphEmbedder` estimator (untrained).
    """
    entry = check_overrides(name, overrides)
    if epsilon is not None:
        if not entry.private:
            raise ValueError(
                f"model {entry.name!r} is not differentially private; "
                "epsilon is not a valid parameter for it"
            )
        overrides = {**overrides, "epsilon": float(epsilon)}
    config = entry.config_cls(**overrides)
    return entry.cls(graph, config, rng=rng)
