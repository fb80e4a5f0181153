"""Content-addressing of experiment cells.

A cached result is stored under ``cell_key(cell)``: the sha256 of the cell's
canonical JSON form, prefixed with the cache schema version.  The canonical
form (:func:`canonical_cell_dict`) fixes every source of key instability:

* dict ordering (keys are sorted at serialisation time);
* numpy scalars vs Python scalars (coerced via :func:`repro.utils.to_plain`);
* model aliases (``"AdvSGM"``/``"advsgm"`` resolve to one registry key);
* int-vs-float epsilon (coerced to ``float``) and ``-0.0`` aliasing;
* the compute backend: every key hashes the constant ``"backend": "numpy"``,
  the one backend there is, so keys written while others existed still
  match;
* retired placement knobs: only the fields that name the work
  (:data:`IDENTITY_FIELDS`) are hashed, so the graph-placement and
  walk-cache values older manifests still record never move a key.

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
from repro.utils.serialization import canonical_json, to_plain

#: Version of the on-disk entry layout *and* of the hashed canonical form.
#: Bump it whenever either changes; old entries then become invisible
#: (different keys) and are ignored even if probed directly (manifest check).
#: v2: the compute backend (now always ``"numpy"``) is part of the hashed
#: form.
CACHE_SCHEMA_VERSION = 2

#: The cell fields that name the work: the only ones hashed.  The retired
#: placement fields older ``to_dict`` output still carries are left out.
#: ``graph_fingerprint`` stays: a manifest written for a cell on a
#: since-deleted on-disk graph recorded the graph's content fingerprint
#: there, and must re-hash to its own key, never to a registry cell's.
IDENTITY_FIELDS = (
    "task", "dataset", "model", "epsilon", "repeat", "seed",
    "dataset_scale", "dataset_seed", "test_fraction", "backend",
    "graph_fingerprint",
)


def canonical_cell_dict(cell: Union[ExperimentCell, Mapping[str, Any]]) -> Dict[str, Any]:
    """The canonical plain-data form of ``cell`` used for hashing.

    Accepts an :class:`ExperimentCell` or an equivalent mapping (e.g. the
    ``cell`` recorded in a manifest) and returns plain data that hashes
    identically for every representation of the same work unit.  Only the
    :data:`IDENTITY_FIELDS` present in the input are kept.  A mapping whose
    ``backend`` is neither ``"numpy"`` nor ``None``, or whose ``graph_path``
    is not ``None``, raises ``ValueError``.
    """
    data = cell.to_dict() if isinstance(cell, ExperimentCell) else dict(cell)
    plain = to_plain({k: data[k] for k in IDENTITY_FIELDS if k in data})
    model = plain.get("model")
    if isinstance(model, dict) and "name" in model:
        model["name"] = canonical_name(str(model["name"]))
    if plain.get("epsilon") is not None:
        plain["epsilon"] = float(plain["epsilon"])
    # The one compute backend, hashed as every key has hashed it since v2.
    # A mapping that names another one (an entry computed on a deleted
    # backend) must not alias a numpy key.
    if plain.get("backend") not in (None, "numpy"):
        raise ValueError(
            f"backend={plain['backend']!r}: numpy is the only compute backend"
        )
    plain["backend"] = "numpy"
    # A cell naming an on-disk graph directory cannot be keyed: the graph's
    # content is no longer read from disk, and its path alone would alias.
    if data.get("graph_path") is not None:
        raise ValueError(
            f"graph_path={data['graph_path']!r}: the on-disk graph path was deleted"
        )
    return plain


def cell_key(cell: Union[ExperimentCell, Mapping[str, Any]]) -> str:
    """The content-address (sha256 hex digest) of one experiment cell."""
    payload = canonical_json(
        {"schema": CACHE_SCHEMA_VERSION, "cell": canonical_cell_dict(cell)}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

