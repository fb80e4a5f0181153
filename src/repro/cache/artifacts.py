"""Content-addressed store of derived walk-corpus artifacts.

A walk corpus is a pure function of (graph content, walk parameters, seed
derivation), so its passes can be computed once and replayed bit-for-bit
everywhere the same function is evaluated — across the cells of one sweep,
across sweeps, and across the embedding service's workers.  The
:class:`WalkCorpusStore` persists each corpus *pass* (one ``(starts,
walk_length)`` int64 matrix) under a content-address derived from the graph's
fingerprint and the pass's full RNG derivation:

* ``mode="stream"`` passes (the legacy shared-stream discipline) are keyed on
  the walk generator's *initial* bit-generator state plus the pass index —
  the pass sequence is a deterministic function of that state, and each
  artifact's manifest records the *post-pass* state so a replay leaves the
  generator exactly where recomputation would have;
* ``mode="derived"`` passes (the ``walk_workers >= 2`` pooled discipline)
  are keyed on their derived per-pass seed, of which they are pure
  functions.

Artifacts follow the :class:`~repro.graph.storage.MmapStorage` write
discipline: the ``.npy`` lands first via temp-file + ``os.replace``, the JSON
manifest last, so a reader never sees a manifest describing bytes that are
not fully on disk.  Replay reopens the ``.npy`` with ``mmap_mode="r"`` —
zero-copy, and a process pool can ship a path instead of buffers.  Reads are
defensive exactly like :class:`~repro.cache.store.ResultStore`: a missing,
corrupt, truncated or stale-schema artifact is a miss (recompute + rewrite),
never an error.

Keys hash the graph's *content fingerprint*, never its name or path, so two
different graphs submitted under one dataset label can never alias — and
``walk_cache`` itself is a placement knob that is canonicalised away from
experiment ``cell_key``\\ s (see :func:`repro.cache.keys.canonical_cell_dict`).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.cache.store import CacheStats, default_cache_dir
from repro.utils.serialization import canonical_json, to_plain

#: Version of the artifact layout *and* of the hashed key payload.  Hashed
#: into every key and recorded in every manifest, so entries written under an
#: older layout can never shadow (or be served for) a current key.
ARTIFACT_SCHEMA_VERSION = 1

#: Environment variable consulted when no explicit ``walk_cache`` value is
#: configured: unset/empty/``0``/``false``/``off`` leave the cache disabled,
#: ``1``/``true``/``on`` enable it under the default directory, and any other
#: value is taken as the artifact directory itself.
WALK_CACHE_ENV = "REPRO_WALK_CACHE"


def default_artifact_dir() -> Path:
    """The default artifact root: ``<default cache dir>/artifacts``.

    Keeping artifacts under the experiment-cache root means ``cache report``
    and ``cache clear --artifacts`` find them with the same ``--cache-dir``
    argument that locates the result entries.
    """
    return default_cache_dir() / "artifacts"


class WalkCorpusStore:
    """Filesystem store of content-addressed walk-corpus passes.

    Layout (under the artifact root)::

        corpus/<key[:2]>/<key>.npy    # one pass matrix, C-contiguous int64
        corpus/<key[:2]>/<key>.json   # schema version, shape, key payload,
                                      # post-pass RNG state (stream mode)

    Only the parent process reads and writes the store: pool workers walk
    the missed passes and the parent persists them.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = (
            Path(root).expanduser() if root is not None else default_artifact_dir()
        )
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def corpus_key(payload: Dict[str, Any]) -> str:
        """The content-address of one pass: sha256 of the canonical payload.

        The payload must contain every input the pass is a function of —
        graph fingerprint, walk parameters (including the *resolved*
        second-order sampling mode, whose table and rejection variants
        consume the RNG differently), the RNG derivation (initial state +
        pass index, or derived seed).
        """
        body = canonical_json(
            {"schema": ARTIFACT_SCHEMA_VERSION, "pass": payload}
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def _array_path(self, key: str) -> Path:
        return self.root / "corpus" / key[:2] / f"{key}.npy"

    def _manifest_path(self, key: str) -> Path:
        return self.root / "corpus" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[Tuple[np.ndarray, Dict[str, Any]]]:
        """Replay one pass: ``(read-only mmap matrix, manifest)`` or ``None``.

        Defensive on every failure mode — missing files are plain misses;
        unreadable JSON, schema mismatches, shape/dtype disagreements and
        truncated ``.npy`` payloads additionally count as ``stale``.  The
        array is opened with ``mmap_mode="r"``, so a hit reads no walk data
        until the consumer touches it.
        """
        manifest_path = self._manifest_path(key)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            self.stats.count("misses")
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.stats.count("stale")
            self.stats.count("misses")
            return None
        if (
            not isinstance(manifest, dict)
            or manifest.get("schema_version") != ARTIFACT_SCHEMA_VERSION
            or manifest.get("key") != key
        ):
            self.stats.count("stale")
            self.stats.count("misses")
            return None
        try:
            matrix = np.load(self._array_path(key), mmap_mode="r")
        except (OSError, ValueError, EOFError):
            self.stats.count("stale")
            self.stats.count("misses")
            return None
        if (
            list(matrix.shape) != list(manifest.get("shape") or [])
            or str(matrix.dtype) != manifest.get("dtype")
        ):
            self.stats.count("stale")
            self.stats.count("misses")
            return None
        self.stats.count("hits")
        return matrix, manifest

    def __contains__(self, key: str) -> bool:
        return self._manifest_path(key).is_file()

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def save(
        self,
        key: str,
        matrix: np.ndarray,
        payload: Dict[str, Any],
        post_state: Optional[Dict[str, Any]] = None,
    ) -> np.ndarray:
        """Persist one pass under ``key``; returns ``matrix`` unchanged.

        Both files are written atomically (pid-suffixed temp + ``os.replace``)
        with the manifest landing last, so concurrent writers of the same key
        — which, keys being content addresses, are writing the same bytes —
        interleave harmlessly and a killed writer leaves at most an invisible
        orphan.  ``post_state`` is the walk generator's bit-generator state
        *after* the pass (stream mode only): a replay restores it so later
        misses recompute from exactly the right stream position.
        """
        matrix = np.ascontiguousarray(matrix, dtype=np.int64)
        array_path = self._array_path(key)
        array_path.parent.mkdir(parents=True, exist_ok=True)
        tmp_arr = array_path.with_name(f"{array_path.name}.{os.getpid()}.tmp")
        with open(tmp_arr, "wb") as handle:
            np.save(handle, matrix)
        os.replace(tmp_arr, array_path)
        manifest = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "key": key,
            "shape": list(matrix.shape),
            "dtype": str(matrix.dtype),
            "nbytes": int(matrix.nbytes),
            "pass": to_plain(payload),
        }
        if post_state is not None:
            manifest["post_state"] = to_plain(post_state)
        manifest_path = self._manifest_path(key)
        tmp = manifest_path.with_name(f"{manifest_path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, manifest_path)
        self.stats.count("writes")
        return matrix

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _manifest_files(self):
        corpus = self.root / "corpus"
        if not corpus.is_dir():
            return iter(())
        return corpus.glob("*/*.json")

    def report(self) -> Dict[str, Any]:
        """Machine-readable summary: corpus count, bytes on disk, counters.

        Folded into :meth:`repro.cache.store.ResultStore.report`, so the
        ``cache report`` CLI and the service's ``GET /cache`` expose one
        artifacts section in the same shape.
        """
        count = 0
        total_bytes = 0
        for manifest_path in self._manifest_files():
            array_path = manifest_path.with_suffix(".npy")
            try:
                total_bytes += array_path.stat().st_size
            except OSError:
                continue
            count += 1
        return {
            "root": str(self.root),
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "count": count,
            "bytes": total_bytes,
            "stats": self.stats.as_dict(),
        }

    def clear(self) -> int:
        """Delete every artifact (and orphaned temp files); returns the count."""
        removed = 0
        for manifest_path in list(self._manifest_files()):
            manifest_path.unlink(missing_ok=True)
            removed += 1
        corpus = self.root / "corpus"
        if corpus.is_dir():
            for leftover in list(corpus.glob("*/*.npy")) + list(corpus.glob("*/*.tmp")):
                leftover.unlink(missing_ok=True)
        return removed


#: What the ``walk_cache`` knobs accept, bottom to top of the stack.
WalkCacheLike = Union[WalkCorpusStore, str, Path, bool, None]


def resolve_walk_cache(walk_cache: WalkCacheLike) -> Optional[WalkCorpusStore]:
    """Coerce a ``walk_cache`` knob into a store (or ``None``).

    ``False`` disables the cache unconditionally; ``True`` selects the
    default artifact directory; a path selects that directory; a store
    passes through (preserving its hit/miss counters).  ``None`` — the
    default everywhere — defers to :data:`WALK_CACHE_ENV`, so a fleet can be
    switched on ambiently without touching configs; with the variable unset
    the cache stays off and no store object is ever constructed.
    """
    if walk_cache is None:
        env = os.environ.get(WALK_CACHE_ENV, "").strip()
        if not env or env.lower() in ("0", "false", "off", "no"):
            return None
        if env.lower() in ("1", "true", "on", "yes"):
            return WalkCorpusStore()
        return WalkCorpusStore(env)
    if walk_cache is False:
        return None
    if walk_cache is True:
        return WalkCorpusStore()
    if isinstance(walk_cache, WalkCorpusStore):
        return walk_cache
    return WalkCorpusStore(walk_cache)
