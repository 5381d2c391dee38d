"""Ingress request envelopes: parse, validate, locate the body.

The gateway must find three things in every ingress request *without*
decoding the body: the correlation id to echo into the reply, the demux
key selecting the operation plan, and the byte offset where the
marshaled arguments begin (the fused copy plans splice bodies wire to
wire, so the envelope is the only part the gateway interprets itself).

The parse is the ingress protocol's request walk from
:mod:`repro.envelopes` — the text the generated ``dispatch`` prelude
consists of, with the interface identity compared against the spec
instead of a literal — so it raises the preludes' own
:class:`~repro.errors.DispatchError` / :class:`~repro.errors
.WireFormatError` codes, and the ingress stub module's
``encode_error_reply`` answers hostile frames exactly as a
same-protocol server would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from repro import envelopes

__all__ = ["IngressSpec", "RequestEnvelope", "parse_request"]


@dataclass(frozen=True)
class IngressSpec:
    """What the ingress parser needs to know about its protocol."""

    protocol: str  # "oncrpc" or "giop"
    program: int = 0
    version: int = 0
    object_key: bytes = b""
    little_endian: bool = False


class RequestEnvelope(NamedTuple):
    """One validated ingress request, body untouched."""

    ctx: int  # correlation id (ONC xid / GIOP request id)
    op_key: Union[int, bytes]  # demux key into the bridge plan
    body_offset: int
    expects_reply: bool


def parse_request(data, spec):
    """Validate the envelope of *data* against *spec*.

    Returns a :class:`RequestEnvelope`; raises ``DispatchError`` or
    ``WireFormatError`` with the generated preludes' error codes for
    anything the ingress protocol's own server would refuse.
    """
    if spec.protocol == "oncrpc":
        found = envelopes.reader("oncrpc", "request", ">")(
            data, (spec.program, spec.version))
    else:
        found = envelopes.reader(
            "giop", "request", "<" if spec.little_endian else ">")(
            data, (spec.object_key,))
    return RequestEnvelope(*found[:4])
