"""Minimal HTTP/1.1 over asyncio streams.

Exactly the subset the temporal server needs, hand-rolled on stdlib
``asyncio`` streams (the repo takes no framework dependencies):

* request parsing -- request line, headers, ``Content-Length`` bodies,
  with hard caps on header and body size so a misbehaving client
  cannot balloon memory;
* response serialization with correct ``Content-Length`` framing;
* ``keep-alive`` connection reuse (``Connection: close`` honoured both
  ways).

Chunked transfer encoding is deliberately not implemented: the server
answers such requests with 501 rather than guessing at framing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.relation.element import Element
from repro.server import protocol

#: Request-line + headers may not exceed this many bytes.
MAX_HEADER_BYTES = 32 * 1024
#: Default cap on request bodies (bulk batches are large but bounded).
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpProtocolError(Exception):
    """A malformed or unsupported request; carries the status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]  # keys lower-cased
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Any:
        """The body parsed as JSON (400 on damage, ``None`` when empty)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise HttpProtocolError(400, f"malformed JSON body: {error}") from None


@dataclass
class Response:
    """One HTTP response about to be serialized."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
        rows: Optional[Sequence[Element]] = None,
    ) -> "Response":
        """A canonical JSON response: sorted keys, compact separators --
        byte-stable for a given payload, which the differential suite
        relies on.  With *rows*, *payload* is the envelope those elements
        join as ``"rows"`` (:func:`protocol.element_rows_body`)."""
        if rows is None:
            body = protocol.canonical_json(payload)
        else:
            body = protocol.element_rows_body(payload, rows)
        return cls(status=status, body=body, headers=dict(headers or {}))

    @classmethod
    def error(
        cls, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> "Response":
        return cls.json({"error": message, "status": status}, status=status, headers=headers)

    def serialize(self, keep_alive: bool) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + self.body


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_header_bytes: int = MAX_HEADER_BYTES,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Optional[Request]:
    """Read one request; ``None`` when the client closed the connection.

    Raises :class:`HttpProtocolError` on malformed or oversized input
    (the caller answers with the carried status and closes).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise HttpProtocolError(400, "connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise HttpProtocolError(431, "request head too large") from None
    if len(head) > max_header_bytes:
        raise HttpProtocolError(431, "request head too large")

    try:
        text = head.decode("ascii")
    except UnicodeDecodeError:
        raise HttpProtocolError(400, "non-ASCII bytes in request head") from None
    request_line, _, header_block = text.partition("\r\n")
    method, path, query = _parse_request_line(request_line)
    headers = _parse_headers(header_block)

    if "transfer-encoding" in headers:
        raise HttpProtocolError(501, "transfer-encoding is not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpProtocolError(400, f"bad Content-Length: {length_text!r}") from None
    if length < 0:
        raise HttpProtocolError(400, "negative Content-Length")
    if length > max_body_bytes:
        raise HttpProtocolError(413, f"body of {length} bytes exceeds the {max_body_bytes} cap")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpProtocolError(400, "connection closed mid-body") from None
    return Request(method=method, path=path, query=query, headers=headers, body=body)


def _parse_request_line(line: str) -> Tuple[str, str, Dict[str, str]]:
    parts = line.split(" ")
    if len(parts) != 3:
        raise HttpProtocolError(400, f"malformed request line: {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpProtocolError(400, f"unsupported protocol version: {version!r}")
    split = urlsplit(target)
    path = unquote(split.path)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return method.upper(), path, query


def _parse_headers(block: str) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in block.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


async def write_response(
    writer: asyncio.StreamWriter, response: Response, keep_alive: bool
) -> None:
    writer.write(response.serialize(keep_alive))
    await writer.drain()
