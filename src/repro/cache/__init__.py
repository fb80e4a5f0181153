"""Content-addressed experiment result cache.

``repro.cache`` makes re-running partial sweeps free: every
:class:`~repro.api.ExperimentCell` has a canonical content-address
(:func:`cell_key` — sha256 of its canonical dict plus a schema version), and
:class:`ResultStore` persists each cell's result row (plus optional
embeddings and a provenance manifest) under that key on the filesystem.

Because per-cell seeds are derived before any fan-out, a cache hit is
*bit-for-bit identical* to recomputing the cell, and an interrupted
``run_spec`` resumes exactly where it died — both properties are pinned by
``tests/test_cache.py`` and the golden-parity suite.

The key and manifest formats are versioned (:data:`CACHE_SCHEMA_VERSION`)
and stable, so a sweep resumes from a store written in an earlier session.
"""

from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    canonical_cell_dict,
    cell_key,
)
from repro.cache.manifest import CacheManifest
from repro.cache.store import (
    CacheLike,
    CacheStats,
    ResultStore,
    default_cache_dir,
    resolve_store,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheLike",
    "CacheManifest",
    "CacheStats",
    "ResultStore",
    "canonical_cell_dict",
    "cell_key",
    "default_cache_dir",
    "resolve_store",
]
