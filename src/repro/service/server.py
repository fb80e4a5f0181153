"""HTTP surface of the embedding service.

A :class:`ServiceServer` is a stdlib ``ThreadingHTTPServer`` wrapping one
shared :class:`~repro.cache.ResultStore` and one
:class:`~repro.service.scheduler.CellScheduler`:

====================================  =====================================
``POST /specs``                       submit an ``ExperimentSpec.to_dict()``
``GET  /specs``                       progress of every submitted spec
``GET  /specs/<id>``                  per-spec progress (unique prefix ok)
``POST /lease``                       lease the next pending cell
``POST /renew``                       heartbeat a long lease
``POST /report``                      deliver a cell's row (+ embeddings)
``GET  /embeddings/<cell_key>``       stored embeddings as ``.npy`` bytes,
                                      ``ETag: "<cell_key>"``; answers
                                      ``If-None-Match`` with ``304``
``GET  /cache``                       machine-readable store report
``GET  /health``                      liveness + version
====================================  =====================================

The embeddings read path is the reason this is a service at all: the entry
key *is* the content hash of the work that produced it, so the key doubles
as a perfect validator.  A client that caches ``(cell_key, bytes)`` simply
revalidates with ``If-None-Match`` and gets a free ``304`` — embeddings
never change under their key, so revalidation always succeeds until the
entry is evicted.

Transport is JSON everywhere except the embeddings payloads, which travel
as raw ``.npy`` bytes (reads) or base64-encoded ``.npy`` (worker reports) —
exact dtype/shape round-trips with no JSON float mangling.
"""

from __future__ import annotations

import base64
import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

import repro
from repro.api.registry import check_overrides
from repro.api.spec import ExperimentSpec
from repro.cache import ResultStore, resolve_store
from repro.service.scheduler import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    CellScheduler,
    SchedulerError,
)

#: Maximum accepted request body (a report with a large embeddings matrix).
MAX_BODY_BYTES = 512 * 1024 * 1024


def embeddings_to_npy(array: np.ndarray) -> bytes:
    """Serialise an embeddings matrix to ``.npy`` bytes (exact round-trip)."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def npy_to_embeddings(data: bytes) -> np.ndarray:
    """Inverse of :func:`embeddings_to_npy`."""
    return np.load(io.BytesIO(data), allow_pickle=False)


def encode_embeddings(array: Optional[np.ndarray]) -> Optional[str]:
    """Base64 ``.npy`` form used inside JSON report bodies."""
    if array is None:
        return None
    return base64.b64encode(embeddings_to_npy(array)).decode("ascii")


def decode_embeddings(payload: Optional[str]) -> Optional[np.ndarray]:
    """Inverse of :func:`encode_embeddings`."""
    if payload is None:
        return None
    return npy_to_embeddings(base64.b64decode(payload.encode("ascii")))


class _BadRequest(ValueError):
    """A malformed request body or parameter (HTTP 400)."""


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ServiceServer`."""

    protocol_version = "HTTP/1.1"
    server: "ServiceServer"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _read_json(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise _BadRequest("invalid Content-Length header")
        if length < 0 or length > MAX_BODY_BYTES:
            raise _BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _BadRequest("empty request body (expected JSON)")
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"malformed JSON body: {exc}")
        if not isinstance(data, dict):
            raise _BadRequest("JSON body must be an object")
        return data

    def _send(self, status: int, body: bytes, content_type: str,
              extra_headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _send_json(self, payload: Dict[str, Any], status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        try:
            handler = self._route(method, parts)
            if handler is None:
                self._send_error_json(404, f"no such endpoint: {method} {path}")
                return
            handler()
        except _BadRequest as exc:
            self._send_error_json(400, str(exc))
        except SchedulerError as exc:
            self._send_error_json(404, str(exc.args[0]))
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to answer
        except Exception as exc:  # noqa: BLE001 — a request must never kill the thread
            self._send_error_json(500, f"internal error: {exc!r}")

    def _route(self, method: str, parts: list):
        if method == "GET":
            if parts == ["health"]:
                return self._get_health
            if parts == ["cache"]:
                return self._get_cache
            if parts == ["specs"]:
                return self._get_specs
            if len(parts) == 2 and parts[0] == "specs":
                return lambda: self._get_spec(parts[1])
            if len(parts) == 2 and parts[0] == "embeddings":
                return lambda: self._get_embeddings(parts[1])
            return None
        if method == "POST":
            if parts == ["specs"]:
                return self._post_specs
            if parts == ["lease"]:
                return self._post_lease
            if parts == ["renew"]:
                return self._post_renew
            if parts == ["report"]:
                return self._post_report
            return None
        return None

    # ------------------------------------------------------------------
    # GET endpoints
    # ------------------------------------------------------------------
    def _get_health(self) -> None:
        self._send_json({"status": "ok", "version": repro.__version__})

    def _get_cache(self) -> None:
        # One machine-readable format shared with `repro cache report --json`.
        self._send_json(self.server.store.report())

    def _get_specs(self) -> None:
        self._send_json({"specs": self.server.scheduler.specs()})

    def _get_spec(self, spec_id: str) -> None:
        self._send_json(self.server.scheduler.progress(spec_id))

    def _get_embeddings(self, cell_key: str) -> None:
        etag = f'"{cell_key}"'
        if self._if_none_match_hits(cell_key):
            # Content-addressed keys are perfect validators: if the client
            # holds bytes under this key, they are current by construction.
            self._send(304, b"", "application/octet-stream", {"ETag": etag})
            return
        embeddings = self.server.store.load_embeddings_by_key(cell_key)
        if embeddings is None:
            raise SchedulerError(f"no stored embeddings for cell {cell_key!r}")
        body = embeddings_to_npy(embeddings)
        self._send(
            200,
            body,
            "application/octet-stream",
            {"ETag": etag, "Cache-Control": "max-age=31536000, immutable"},
        )

    def _if_none_match_hits(self, cell_key: str) -> bool:
        header = self.headers.get("If-None-Match")
        if not header:
            return False
        candidates = {tag.strip() for tag in header.split(",")}
        accepted = {cell_key, f'"{cell_key}"', f'W/"{cell_key}"', "*"}
        return bool(candidates & accepted)

    # ------------------------------------------------------------------
    # POST endpoints
    # ------------------------------------------------------------------
    def _post_specs(self) -> None:
        data = self._read_json()
        spec_dict = data.get("spec", data)  # accept bare spec dicts too
        try:
            spec = ExperimentSpec.from_dict(spec_dict)
        except (KeyError, TypeError, ValueError) as exc:
            raise _BadRequest(f"invalid experiment spec: {exc}")
        # Refuse a spec whose models could never be built: otherwise every
        # lease would load the dataset, fail in make_model and burn retries.
        for model in spec.models:
            try:
                check_overrides(model.name, dict(model.overrides))
            except (KeyError, TypeError) as exc:
                raise _BadRequest(f"invalid experiment spec: {exc.args[0]}")
        self._send_json(self.server.scheduler.submit(spec))

    def _post_lease(self) -> None:
        data = self._read_json()
        lease = self.server.scheduler.lease(
            worker=str(data.get("worker", "")),
            lease_seconds=data.get("lease_seconds"),
        )
        outstanding = self.server.scheduler.outstanding()
        if lease is None:
            self._send_json({"lease": None, "outstanding": outstanding})
        else:
            self._send_json({"lease": lease, "outstanding": outstanding})

    def _post_renew(self) -> None:
        data = self._read_json()
        lease_id = data.get("lease_id")
        if not lease_id:
            raise _BadRequest("renew needs a lease_id")
        self._send_json(self.server.scheduler.renew(str(lease_id)))

    def _post_report(self) -> None:
        data = self._read_json()
        cell_key = data.get("cell_key")
        if not cell_key:
            raise _BadRequest("report needs a cell_key")
        try:
            embeddings = decode_embeddings(data.get("embeddings"))
        except (ValueError, OSError) as exc:
            raise _BadRequest(f"undecodable embeddings payload: {exc}")
        row = data.get("row")
        if row is not None and not isinstance(row, dict):
            raise _BadRequest("row must be a JSON object")
        outcome = self.server.scheduler.report(
            str(cell_key),
            row=row,
            embeddings=embeddings,
            wall_time=float(data.get("wall_time") or 0.0),
            lease_id=data.get("lease_id"),
            error=data.get("error"),
        )
        self._send_json(outcome)


class ServiceServer(ThreadingHTTPServer):
    """The embedding service: scheduler + store behind a threaded HTTP server.

    Parameters
    ----------
    store:
        Shared result store (a :class:`~repro.cache.ResultStore`, a
        directory path, or ``True`` for the default cache directory).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (the tests run
        loopback + ephemeral, so suites never collide).
    lease_seconds / max_attempts / store_embeddings:
        Forwarded to :class:`CellScheduler`.
    quiet:
        Suppress per-request access logging (default; the CLI turns it on).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        store: Union[ResultStore, str, None] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        store_embeddings: bool = True,
        quiet: bool = True,
    ) -> None:
        resolved = resolve_store(True if store is None else store)
        assert resolved is not None  # resolve_store(True) never returns None
        self.store = resolved
        self.scheduler = CellScheduler(
            self.store,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
            store_embeddings=store_embeddings,
        )
        self.quiet = quiet
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _Handler)

    # ------------------------------------------------------------------
    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        """Serve in a background thread (in-process use and tests)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self.server_close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
