"""Per-entry provenance manifests for the experiment cache.

Every cache entry carries a :class:`CacheManifest` next to its result row:
what cell produced it (the canonical cell dict, so an entry is auditable
without the code that created it), under which schema and package version,
when, and how long the computation took.  The ROADMAP's distributed runners
will schedule against this format, so it is plain JSON data with a stable
field set from day one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, Mapping, Optional


@dataclass(frozen=True)
class CacheManifest:
    """Provenance of one cached experiment result.

    Attributes
    ----------
    key:
        The entry's content-address (:func:`repro.cache.keys.cell_key`).
    schema_version:
        Cache layout version the entry was written under; entries whose
        version differs from the running code's are ignored on read.
    cell:
        Canonical plain-data form of the cell that produced the result.
    package_version:
        ``repro.__version__`` at write time (informational only — it is not
        part of the key, so results survive library upgrades that do not
        bump the schema).
    wall_time_s:
        Wall-clock seconds the cell took to compute (0.0 if unknown).
    created_at:
        ISO-8601 UTC timestamp of the write.
    has_embeddings:
        Whether an embeddings array is stored alongside the row.
    backend:
        The compute backend the result was computed under: always
        ``"numpy"``, the only one.  Kept so the manifest layout is unchanged.
    """

    key: str
    schema_version: int
    cell: Dict[str, Any]
    package_version: str
    wall_time_s: float = 0.0
    created_at: str = field(default="")
    has_embeddings: bool = False
    backend: str = "numpy"

    def __post_init__(self) -> None:
        if not self.created_at:
            object.__setattr__(
                self,
                "created_at",
                datetime.now(timezone.utc).isoformat(timespec="seconds"),
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-able)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CacheManifest":
        """Inverse of :meth:`to_dict`; unknown fields are ignored.

        Tolerating extra fields lets newer writers add provenance without
        breaking older readers — mismatched ``schema_version`` is the only
        compatibility gate.
        """
        names = {f for f in cls.__dataclass_fields__}  # noqa: C416
        kwargs = {k: v for k, v in dict(data).items() if k in names}
        return cls(**kwargs)


def package_version() -> str:
    """The installed ``repro`` version (lazy import to avoid cycles)."""
    import repro

    return getattr(repro, "__version__", "unknown")
