"""Trace-context propagation inside the protocols' own envelopes.

A traced client and its server must share one trace id.  Rather than
invent a side channel (which would break byte-compatibility with the
blocking transports and foreign peers), the context rides in the slot
each protocol already reserves for exactly this kind of metadata:

* **GIOP** — a ``ServiceContext`` entry (context id ``0x464C4943``,
  ``"FLIC"``) prepended to the Request header's service-context list.
  GIOP receivers are required to skip unknown service contexts, and the
  generated dispatch code walks the list dynamically, so uninstrumented
  peers ignore the entry.
* **ONC RPC** — an opaque credential (auth flavor ``0x464C4943``)
  replacing the null credential in the call header.  RFC 1831 receivers
  parse the credential's length field regardless of flavor; the
  generated dispatch skips credential and verifier dynamically.

Both carry the same 24-byte body: the 16-byte trace id followed by the
8-byte span id of the client span that made the request.  24 is a
multiple of 8, so injection shifts the message body by a multiple of the
largest wire alignment — statically computed padding in generated
unmarshal code (which is relative to the running offset) stays valid.

When tracing is disabled nothing is injected and the wire bytes are
byte-identical to an uninstrumented build.  Injection is skipped for
messages that are not GIOP Requests / ONC calls or that already carry a
non-null credential; extraction returns ``None`` when no context is
present.  Replies are never touched.

Both directions find their way through the header with the request walk
of :mod:`repro.envelopes` (which knows the marker and where a context
sits): a context is read out of, and woven into, only an envelope the
walk accepts, under the bounds every other reader enforces.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro import envelopes
from repro.envelopes import TRACE_BODY_SIZE as _BODY_SIZE, TRACE_CONTEXT_ID
from repro.errors import RuntimeFlickError


@dataclass(frozen=True)
class WireTraceContext:
    """A trace context as carried on the wire (hex-string ids).

    Shaped like a span (``trace_id``/``span_id``) so it can be passed
    directly as a span's parent.
    """

    trace_id: str
    span_id: str


def _pack_body(trace_id, span_id):
    body = bytes.fromhex(trace_id) + bytes.fromhex(span_id)
    if len(body) != _BODY_SIZE:
        raise ValueError(
            "trace context must be 16+8 bytes of hex, got %d" % len(body)
        )
    return body


def _context_in(body):
    return WireTraceContext(bytes(body[:16]).hex(), bytes(body[16:24]).hex())


def _walk(data):
    """``(protocol, byte order, offset of the context *data* carries or
    -1, metadata entries it carries)`` for a request the walk accepts,
    else None."""
    try:
        protocol, direction, endian = envelopes.sniff(data)
        if direction == "request":
            *_, trace_at, entries = envelopes.reader(
                protocol, direction, endian)(data)
            return protocol, endian, trace_at, entries
    except RuntimeFlickError:
        pass
    return None


def inject(payload, span_context):
    """Return *payload* with *span_context* woven into its header.

    *span_context* is anything with ``trace_id``/``span_id`` hex-string
    attributes (a live span, a :class:`WireTraceContext`).  Messages
    that cannot carry a context are returned unchanged.
    """
    data = bytes(payload)
    body = _pack_body(span_context.trace_id, span_context.span_id)
    walked = _walk(data)
    if walked is None:
        return data
    protocol, endian, _trace_at, entries = walked
    entry = struct.pack(endian + "II", TRACE_CONTEXT_ID, _BODY_SIZE) + body
    if protocol == "giop":
        out = bytearray(data)
        out[12:16] = struct.pack(endian + "I", entries + 1)
        out[16:16] = entry
        out[8:12] = struct.pack(endian + "I", len(out) - 12)
        return bytes(out)
    if entries:
        return data  # a real credential is already there; leave it
    return data[:24] + entry + data[32:]


def extract(payload) -> Optional[WireTraceContext]:
    """The trace context carried by *payload*, or None."""
    data = bytes(payload)
    walked = _walk(data)
    if walked is None:
        return None
    _protocol, _endian, trace_at, _entries = walked
    if trace_at < 0:
        return None
    return _context_in(data[trace_at:trace_at + _BODY_SIZE])
