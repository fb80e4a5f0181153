"""Filesystem backend of the content-addressed experiment cache.

Layout (under the cache root, default ``~/.cache/repro``)::

    entries/<key[:2]>/<key>.json   # {"manifest": {...}, "row": {...}}
    entries/<key[:2]>/<key>.npz    # optional embeddings ("embeddings" array)

Entries are written atomically (temp file + ``os.replace``), so a sweep
killed mid-write never leaves a corrupt entry — at worst the interrupted
cell is missing and gets recomputed on resume.  Reads are defensive: a
missing file is a miss, an unreadable/corrupt file is a miss, and an entry
whose manifest records a different :data:`CACHE_SCHEMA_VERSION` is a miss —
never an exception, because a stale cache must not break a sweep.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

import numpy as np

from repro.api.spec import ExperimentCell
from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    canonical_cell_dict,
    cell_key,
)
from repro.cache.manifest import CacheManifest, package_version
from repro.utils.serialization import to_plain


def default_cache_dir() -> Path:
    """The default cache root: ``$REPRO_CACHE_DIR``, else XDG, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Counters of one store's lifetime: how the sweep used the cache.

    ``hits``/``misses`` count reads, ``writes`` counts persisted results, and
    ``stale`` counts entries that existed on disk but were ignored (schema
    mismatch or unreadable content).

    The counters are guarded by a lock: a caller may share one store
    between threads, and an unguarded ``+= 1`` is a read-modify-write that
    loses increments under contention.  Separate processes, such as two
    ``run_spec`` sessions resuming from one store directory, each count in
    their own instance; what they share is the directory, whose atomic
    writes keep every entry whole.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    stale: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, counter: str, n: int = 1) -> None:
        """Atomically add ``n`` to one of the counters."""
        if counter not in ("hits", "misses", "writes", "stale"):
            raise ValueError(f"unknown cache counter {counter!r}")
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def as_dict(self) -> Dict[str, int]:
        """Plain-data form for logs and JSON reports."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "stale": self.stale,
            }

    # Locks don't pickle; a store crossing a process boundary starts its
    # copy of the counters with a fresh lock (the values still travel).
    def __getstate__(self) -> Dict[str, int]:
        return self.as_dict()

    def __setstate__(self, state: Dict[str, int]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._lock = threading.Lock()


class ResultStore:
    """Content-addressed store of per-cell experiment results.

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_dir`.  Created
        lazily on first write, so constructing a store never touches disk.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # paths and keys
    # ------------------------------------------------------------------
    def key(self, cell: ExperimentCell) -> str:
        """The content-address of ``cell`` (see :func:`repro.cache.cell_key`)."""
        return cell_key(cell)

    def _entry_path(self, key: str) -> Path:
        return self.root / "entries" / key[:2] / f"{key}.json"

    def _embeddings_path(self, key: str) -> Path:
        return self.root / "entries" / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def _load_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """Load and validate one entry; ``None`` on miss/corruption/stale."""
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.stats.count("stale")
            return None
        manifest = entry.get("manifest") if isinstance(entry, dict) else None
        if (
            not isinstance(manifest, dict)
            or manifest.get("schema_version") != CACHE_SCHEMA_VERSION
            or not isinstance(entry.get("row"), dict)
        ):
            self.stats.count("stale")
            return None
        return entry

    def get(
        self, cell: ExperimentCell, require_embeddings: bool = False
    ) -> Optional[Dict[str, Any]]:
        """The cached result row for ``cell``, or ``None`` on a miss.

        Rows round-trip through JSON exactly (Python serialises doubles with
        shortest-round-trip repr), so a hit is bit-for-bit identical to the
        row that was computed and stored.  ``require_embeddings=True``
        additionally treats an entry without stored embeddings as a miss, so
        a caller that needs them recomputes instead of silently going
        without.
        """
        entry = self._load_entry(self.key(cell))
        if entry is None:
            self.stats.count("misses")
            return None
        if require_embeddings and not entry["manifest"].get("has_embeddings"):
            self.stats.count("misses")
            return None
        self.stats.count("hits")
        return dict(entry["row"])

    def load_embeddings(self, cell: ExperimentCell) -> Optional[np.ndarray]:
        """The embeddings stored with ``cell``'s entry, or ``None``.

        An entry that does not advertise embeddings, or whose ``.npz`` is
        unreadable, is a miss, never an exception.
        """
        key = self.key(cell)
        entry = self._load_entry(key)
        if entry is None or not entry["manifest"].get("has_embeddings"):
            return None
        try:
            with np.load(self._embeddings_path(key)) as payload:
                return np.ascontiguousarray(payload["embeddings"])
        except (OSError, KeyError, ValueError):
            self.stats.count("stale")
            return None

    def report(self) -> Dict[str, Any]:
        """Machine-readable report of the store: root, entries and stats.

        ``python -m repro cache report --json`` writes exactly this dict.
        """
        manifests = list(self.entries())
        return {
            "root": str(self.root),
            "schema_version": CACHE_SCHEMA_VERSION,
            "count": len(manifests),
            "entries": manifests,
            "stats": self.stats.as_dict(),
        }

    def manifest(self, cell: ExperimentCell) -> Optional[CacheManifest]:
        """The provenance manifest of ``cell``'s entry, or ``None``.

        A manifest missing required fields (hand-edited, or written by an
        external producer) is treated like any other unreadable entry.
        """
        entry = self._load_entry(self.key(cell))
        if entry is None:
            return None
        try:
            return CacheManifest.from_dict(entry["manifest"])
        except (TypeError, ValueError):
            self.stats.count("stale")
            return None

    def __contains__(self, cell: ExperimentCell) -> bool:
        return self._load_entry(self.key(cell)) is not None

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def put(
        self,
        cell: ExperimentCell,
        row: Dict[str, Any],
        embeddings: Optional[np.ndarray] = None,
        wall_time: float = 0.0,
    ) -> str:
        """Persist ``row`` (and optionally ``embeddings``) for ``cell``.

        Returns the entry's key.  Both files are written atomically; the
        embeddings file lands before the JSON entry so a reader never sees
        an entry that advertises embeddings it cannot load.
        """
        key = self.key(cell)
        entry_path = self._entry_path(key)
        entry_path.parent.mkdir(parents=True, exist_ok=True)
        emb_path = self._embeddings_path(key)
        if embeddings is not None:
            tmp_emb = emb_path.with_name(f"{emb_path.name}.{os.getpid()}.tmp")
            with open(tmp_emb, "wb") as handle:
                np.savez_compressed(handle, embeddings=np.asarray(embeddings))
            os.replace(tmp_emb, emb_path)
        else:
            # An overwrite without embeddings must not leave a stale .npz
            # behind a manifest that says has_embeddings=False.
            emb_path.unlink(missing_ok=True)
        manifest = CacheManifest(
            key=key,
            schema_version=CACHE_SCHEMA_VERSION,
            cell=canonical_cell_dict(cell),
            package_version=package_version(),
            wall_time_s=float(wall_time),
            has_embeddings=embeddings is not None,
        )
        payload = json.dumps(
            {"manifest": manifest.to_dict(), "row": to_plain(row)},
            indent=2,
            sort_keys=True,
        )
        tmp = entry_path.with_name(f"{entry_path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, entry_path)
        self.stats.count("writes")
        return key

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _entry_files(self) -> Iterator[Path]:
        entries = self.root / "entries"
        if not entries.is_dir():
            return iter(())
        return entries.glob("*/*.json")

    def __len__(self) -> int:
        """Number of *live* entries (same visibility rule as :meth:`entries`)."""
        return sum(1 for _ in self.entries())

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Iterate the manifests of every live entry.

        Unreadable entries and entries written under a different schema
        version are skipped, matching what :meth:`get` would return for
        them — the report never advertises entries a sweep cannot use.
        """
        for path in sorted(self._entry_files()):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                manifest = entry["manifest"]
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                continue
            if (
                isinstance(manifest, dict)
                and manifest.get("schema_version") == CACHE_SCHEMA_VERSION
            ):
                yield manifest

    def clear(self) -> int:
        """Delete every entry and stored embeddings; returns the entry count.

        Also sweeps orphaned ``.npz``/temp files (e.g. from a crash between
        the embeddings write and the entry write), so a cleared cache leaves
        no artefacts behind.
        """
        removed = 0
        for path in list(self._entry_files()):
            path.unlink()
            removed += 1
        entries = self.root / "entries"
        if entries.is_dir():
            for leftover in list(entries.glob("*/*.npz")) + list(entries.glob("*/*.tmp")):
                leftover.unlink(missing_ok=True)
        return removed


#: What ``run_cell``/``run_spec`` accept for their ``cache`` argument.
CacheLike = Union[ResultStore, str, Path, bool, None]


def resolve_store(cache: CacheLike) -> Optional[ResultStore]:
    """Coerce a ``cache=`` argument into a store (or ``None``).

    ``None``/``False`` disable caching, ``True`` selects the default cache
    directory, a path selects that directory, and a :class:`ResultStore`
    passes through (preserving its stats across calls).
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultStore()
    if isinstance(cache, ResultStore):
        return cache
    return ResultStore(cache)
