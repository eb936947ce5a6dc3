"""Wire protocol for :mod:`repro.serve`: HTTP/1.1 framing and JSON schemas.

Two halves, both dependency-free:

* **HTTP framing** — :func:`read_request` / :class:`Response` implement the
  minimal HTTP/1.1 subset the server needs over ``asyncio`` streams: request
  line, headers, ``Content-Length`` bodies, keep-alive.  No chunked encoding,
  no TLS — run behind a real proxy if you need those; the point is that the
  core package never grows a web-framework dependency.
* **JSON schemas** — ``parse_*_request`` validate request payloads into typed
  values, with errors that name the offending field (the
  :class:`~repro.api.serialization` helpers do the spec/config halves).  All
  validation failures raise :class:`ApiError`, which the server renders as a
  JSON error body with the right status code.

Response bodies are rendered with :func:`canonical_json` (sorted keys, no
whitespace), which is what makes the cache memo observable at the HTTP layer:
a cache hit and the original miss produce **byte-identical** bodies, because
both are the canonical rendering of the same deterministic payload.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.config import CANONICAL_JSON, RunConfig
from repro.api.serialization import run_config_from_json_dict, spec_from_json_dict

#: Hard request limits — a public-facing simulation service must bound what a
#: client can make it buffer.
MAX_HEADER_LINES = 100
MAX_BODY_BYTES = 8 * 1024 * 1024

JSON_CONTENT_TYPE = "application/json; charset=utf-8"


def canonical_json(payload: Any) -> bytes:
    """The canonical rendering: sorted keys, compact separators, UTF-8.

    Deterministic for a given payload, so equal payloads always produce
    byte-identical HTTP bodies — the property the cache-memo end-to-end test
    asserts.
    """
    return CANONICAL_JSON.encode(payload).encode("utf-8")


class ApiError(Exception):
    """A client-visible failure: HTTP status plus a JSON-rendered message."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = str(message)
        self.extra = extra

    def to_payload(self) -> Dict[str, Any]:
        payload = {"error": self.message, "status": self.status}
        payload.update(self.extra)
        return payload


# ---------------------------------------------------------------------------
# HTTP framing
# ---------------------------------------------------------------------------


@dataclass
class HttpRequest:
    """One parsed request: method, path, lower-cased headers, raw body."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes = b""

    def json(self) -> Any:
        """The body parsed as JSON (empty body reads as ``{}``)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}") from None

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Read one HTTP/1.1 request off the stream.

    Returns ``None`` on a clean EOF before the request line (the client hung
    up between keep-alive requests).  Malformed or oversized input raises
    :class:`ApiError` (400/413/431), which the caller turns into an error
    response before closing the connection.
    """
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise ApiError(431, "request line too long") from None
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise ApiError(400, f"malformed request line {line!r}") from None

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        try:
            raw = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise ApiError(431, "header line too long") from None
        if raw in (b"\r\n", b"\n", b""):
            break
        text = raw.decode("latin-1").rstrip("\r\n")
        name, sep, value = text.partition(":")
        if not sep:
            raise ApiError(400, f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ApiError(431, f"more than {MAX_HEADER_LINES} header lines")

    body = b""
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ApiError(400, f"invalid Content-Length {length_text!r}") from None
    if length < 0:
        raise ApiError(400, f"invalid Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise ApiError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None  # client died mid-body; nothing to answer

    # strip any query string / fragment — the API routes on the bare path
    path = target.split("?", 1)[0].split("#", 1)[0]
    return HttpRequest(method=method.upper(), path=path, headers=headers, body=body)


@dataclass
class Response:
    """A response-to-be: status, JSON payload (or raw body), extra headers.

    A response may instead carry a ``stream`` — an iterator of byte chunks
    written incrementally with no ``Content-Length`` and ``Connection:
    close`` framing (close-delimited HTTP/1.1, the chunked-encoding-free way
    to stream).  Streaming responses never buffer the full body server-side;
    the job-results NDJSON endpoint uses this so million-cell results flow
    row by row.
    """

    status: int = 200
    payload: Any = None
    headers: Dict[str, str] = field(default_factory=dict)
    body: Optional[bytes] = None
    #: Byte-chunk iterator for close-delimited streaming (see class docs).
    stream: Optional[Any] = None

    def encode_stream_head(self) -> bytes:
        """The header block for a streaming response (no body bytes)."""
        reason = HTTPStatus(self.status).phrase if self.status in HTTPStatus._value2member_map_ else ""
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        base = {
            "Content-Type": JSON_CONTENT_TYPE,
            "Connection": "close",
        }
        base.update(self.headers)
        lines.extend(f"{name}: {value}" for name, value in base.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    def encode(self, keep_alive: bool = True) -> bytes:
        if self.stream is not None:
            raise ValueError("streaming responses are written by the server loop")
        body = self.body if self.body is not None else canonical_json(self.payload)
        reason = HTTPStatus(self.status).phrase if self.status in HTTPStatus._value2member_map_ else ""
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        base = {
            "Content-Type": JSON_CONTENT_TYPE,
            "Content-Length": str(len(body)),
            "Connection": "keep-alive" if keep_alive else "close",
        }
        base.update(self.headers)
        lines.extend(f"{name}: {value}" for name, value in base.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + body

    @staticmethod
    def from_error(exc: ApiError) -> "Response":
        headers = {}
        retry_after = exc.extra.get("retry_after")
        if retry_after is not None:
            headers["Retry-After"] = str(retry_after)
        return Response(status=exc.status, payload=exc.to_payload(), headers=headers)


# ---------------------------------------------------------------------------
# Request schemas
# ---------------------------------------------------------------------------


def parse_spec_ref(data: Mapping[str, Any]) -> Tuple[str, Any, str]:
    """The ``spec`` / ``strategy`` pair shared by every compute endpoint.

    ``spec`` is a registered spec name (or a ``{"name": ...}`` object from
    :func:`repro.api.serialization.spec_to_json_dict`); resolution and
    fingerprint checking are delegated to
    :func:`repro.api.serialization.spec_from_json_dict`.  Returns
    ``(registered name, resolved spec, strategy)`` — the registered name, not
    ``spec.name``, is what campaign cells and worker tasks key on (a catalog
    spec's display name may differ from its registry name).
    """
    raw = data.get("spec")
    if raw is None:
        raise ApiError(400, "field 'spec' is required (a registered spec name)")
    if isinstance(raw, str):
        raw = {"name": raw}
    if not isinstance(raw, Mapping):
        raise ApiError(400, f"field 'spec' must be a name or an object, got {raw!r}")
    try:
        spec = spec_from_json_dict(raw)
    except ValueError as exc:
        raise ApiError(400, str(exc)) from None
    strategy = data.get("strategy", "auto")
    if not isinstance(strategy, str) or not strategy:
        raise ApiError(400, f"field 'strategy' must be a nonempty string, got {strategy!r}")
    return str(raw["name"]), spec, strategy


def parse_config(data: Mapping[str, Any], default: RunConfig) -> RunConfig:
    """The optional ``config`` object, merged over the server default."""
    raw = data.get("config")
    if raw is None:
        return default
    if not isinstance(raw, Mapping):
        raise ApiError(400, f"field 'config' must be a JSON object, got {type(raw).__name__}")
    try:
        return run_config_from_json_dict(raw, default=default)
    except ValueError as exc:
        raise ApiError(400, str(exc)) from None


def parse_input(data: Mapping[str, Any], dimension: int, field_name: str = "input") -> Tuple[int, ...]:
    raw = data.get(field_name)
    if raw is None:
        raise ApiError(400, f"field {field_name!r} is required (a list of {dimension} counts)")
    if not isinstance(raw, (list, tuple)):
        raise ApiError(400, f"field {field_name!r} must be a list of integers, got {raw!r}")
    values: List[int] = []
    for position, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ApiError(
                400,
                f"field {field_name!r}[{position}] must be a nonnegative integer, got {value!r}",
            )
        values.append(int(value))
    if len(values) != dimension:
        raise ApiError(
            400,
            f"field {field_name!r} has {len(values)} coordinates but the spec takes {dimension}",
        )
    return tuple(values)
