"""Content-addressing of experiment cells.

A cached result is stored under ``cell_key(cell)``: the sha256 of the cell's
canonical JSON form, prefixed with the cache schema version.  The canonical
form (:func:`canonical_cell_dict`) fixes every source of key instability:

* dict ordering (keys are sorted at serialisation time);
* numpy scalars vs Python scalars (coerced via :func:`repro.utils.to_plain`);
* model aliases (``"AdvSGM"``/``"advsgm"`` resolve to one registry key);
* int-vs-float epsilon (coerced to ``float``) and ``-0.0`` aliasing;
* compute-backend identity: the *resolved* backend spec (cell field, model
  override, ``$REPRO_BACKEND``, then the numpy default — see
  :func:`cell_backend_spec`) is hashed into every key, so a torch run can
  never be served a cached numpy row or vice versa;
* placement: only the fields that name the work (:data:`IDENTITY_FIELDS`)
  are hashed, so ``on_disk`` — where bit-identical arrays live — never
  moves a key.

The schema version is hashed *into* the key, so entries written under an
older layout can never shadow a current key; the store additionally verifies
the version recorded in each entry's manifest and treats mismatches as
misses (see :class:`repro.cache.store.ResultStore`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping, Union

from repro.api.registry import canonical_name
from repro.api.spec import ExperimentCell
from repro.backend import canonical_backend_spec
from repro.utils.serialization import canonical_json, to_plain

#: Version of the on-disk entry layout *and* of the hashed canonical form.
#: Bump it whenever either changes; old entries then become invisible
#: (different keys) and are ignored even if probed directly (manifest check).
#: v2: cells carry ``backend``/``device`` and the resolved backend spec is
#: part of the hashed form (numpy/torch results can no longer alias).
CACHE_SCHEMA_VERSION = 2

#: The cell fields that name the work: the only ones hashed.  Placement
#: fields (``on_disk``, and the retired walk-corpus cache knob that older
#: ``to_dict`` output still carries) are left out.  ``graph_path`` is resolved to the graph's
#: content fingerprint; ``graph_fingerprint`` is listed so a manifest's
#: recorded (already canonical) cell re-hashes to its own key.
IDENTITY_FIELDS = (
    "task", "dataset", "model", "epsilon", "repeat", "seed",
    "dataset_scale", "dataset_seed", "test_fraction", "backend",
    "graph_path", "graph_fingerprint",
)


def cell_backend_spec(cell: Union[ExperimentCell, Mapping[str, Any]]) -> str:
    """The canonical backend spec one cell's computation resolves to.

    Precedence mirrors execution (:func:`repro.experiments.runners.
    compute_cell`): the cell-level ``backend`` wins over a ``backend`` entry
    in the model overrides, which wins over the ambient
    ``$REPRO_BACKEND``/numpy default.  Pure string normalisation —
    stays total for backends not installed in this process, exactly like
    :func:`~repro.api.registry.canonical_name` for unknown models.
    """
    data = cell.to_dict() if isinstance(cell, ExperimentCell) else dict(cell)
    model = data.get("model") or {}
    overrides = dict(model.get("overrides") or {}) if isinstance(model, Mapping) else {}
    return canonical_backend_spec(data.get("backend") or overrides.get("backend"))


def canonical_cell_dict(cell: Union[ExperimentCell, Mapping[str, Any]]) -> Dict[str, Any]:
    """The canonical plain-data form of ``cell`` used for hashing.

    Accepts an :class:`ExperimentCell` or an equivalent mapping (e.g. the
    ``cell`` recorded in a manifest) and returns plain data that hashes
    identically for every representation of the same work unit.  Only the
    :data:`IDENTITY_FIELDS` present in the input are kept.
    """
    data = cell.to_dict() if isinstance(cell, ExperimentCell) else dict(cell)
    plain = to_plain({k: data[k] for k in IDENTITY_FIELDS if k in data})
    model = plain.get("model")
    if isinstance(model, dict) and "name" in model:
        model["name"] = canonical_name(str(model["name"]))
    if plain.get("epsilon") is not None:
        plain["epsilon"] = float(plain["epsilon"])
    # Replace the raw (possibly None) backend field with the spec the
    # computation actually resolves to, so "unset under
    # $REPRO_BACKEND=torch", "backend='torch'" and a backend named via model
    # overrides all hash identically — and differently from any numpy run.
    # The default "exact" precision canonicalises away inside the spec
    # (``torch:cpu``, not ``torch:cpu:exact``), so every pre-precision cache
    # key is preserved; ``fast`` cells get a distinct trailing token and can
    # never be served an exact row or vice versa.
    plain["backend"] = cell_backend_spec(data)
    if isinstance(model, dict):
        overrides = model.get("overrides")
        if isinstance(overrides, dict):
            overrides.pop("backend", None)
    # A ``graph_path`` is replaced by the referenced graph's content
    # fingerprint, so two different on-disk graphs submitted under the same
    # dataset name can never alias — and moving a graph directory never
    # invalidates its cache entries.
    graph_path = plain.pop("graph_path", None)
    if graph_path is not None:
        from repro.graph.storage import storage_fingerprint

        plain["graph_fingerprint"] = storage_fingerprint(graph_path)
    return plain


def cell_key(cell: Union[ExperimentCell, Mapping[str, Any]]) -> str:
    """The content-address (sha256 hex digest) of one experiment cell."""
    payload = canonical_json(
        {"schema": CACHE_SCHEMA_VERSION, "cell": canonical_cell_dict(cell)}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

