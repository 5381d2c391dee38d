"""Header probes: correlation ids and operation keys in raw messages.

The concurrent runtime multiplexes many in-flight requests over one
connection.  Rather than invent a new envelope (which would break
interoperability with the blocking transports and with foreign ONC/GIOP
peers), correlation rides in the id field the protocols already carry:
the ONC RPC **XID** and the GIOP **request_id**.  Servers echo the id into
the reply — the generated dispatch functions already do this — so a
multiplexing client only needs to (a) stamp a connection-unique id into
each outgoing request, and (b) route each incoming reply by its id.

Generated stubs patch their own ids and verify them on replies
(``_check_reply``), so the client transport *rewrites* the id on the way
out and restores the original on the way back; stubs remain byte-level
oblivious to multiplexing, and blocking peers interoperate unchanged.

This module knows just enough of each protocol's header layout to find
the id field and (for stats) the operation key; bodies are never touched.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import RemoteCallError, TransportError

ONC_CALL = 0
ONC_REPLY = 1
GIOP_REQUEST = 0
GIOP_REPLY = 1
GIOP_MESSAGE_ERROR = 6

#: The reply-status sentinel generated GIOP stubs use for CORBA system
#: exceptions (see repro.backend.iiop.SYSTEM_EXCEPTION_STATUS).
_GIOP_SYSTEM_EXCEPTION = 0x7FFFFFFF

_ONC_ACCEPT_ERRORS = {
    1: "PROG_UNAVAIL",
    2: "PROG_MISMATCH",
    3: "PROC_UNAVAIL",
    4: "GARBAGE_ARGS",
    5: "SYSTEM_ERR",
}


@dataclass(frozen=True)
class MessageInfo:
    """Where a message's correlation id lives, and what the message is.

    Attributes:
        protocol: ``"oncrpc"`` or ``"giop"``.
        kind: ``"call"`` or ``"reply"``.
        correlation_id: the id currently stored in the header.
        id_offset: byte offset of the 4-byte id field.
        id_format: the struct format for the id (endianness-aware).
        op_key: the demux key for calls (ONC procedure number or GIOP
            operation name bytes); ``None`` for replies.
        expects_reply: for GIOP requests, the ``response_expected`` flag;
            ONC calls always expect one at this layer (oneway ONC
            operations simply never read it).
    """

    protocol: str
    kind: str
    correlation_id: int
    id_offset: int
    id_format: str
    op_key: Optional[Union[int, bytes]] = None
    expects_reply: bool = True


def probe(payload):
    """Classify *payload* and locate its correlation id.

    Raises :class:`TransportError` for messages that are neither ONC RPC
    nor GIOP — such traffic cannot be multiplexed (there is no id field
    to correlate on) and callers should fall back to a serial transport.
    """
    data = bytes(payload) if not isinstance(payload, (bytes, bytearray)) \
        else payload
    try:
        if len(data) >= 12 and bytes(data[0:4]) == b"GIOP":
            return _probe_giop(data)
        if len(data) >= 8:
            return _probe_onc(data)
    except struct.error as error:
        # A header cut short between two of the length checks below.
        raise TransportError("truncated message header: %s" % error)
    raise TransportError(
        "message too short to correlate (%d bytes)" % len(data)
    )


def _probe_onc(data):
    xid, message_type = struct.unpack_from(">II", data, 0)
    if message_type == ONC_CALL:
        if len(data) < 24:
            raise TransportError("truncated ONC RPC call header")
        procedure = struct.unpack_from(">I", data, 20)[0]
        return MessageInfo("oncrpc", "call", xid, 0, ">I", procedure)
    if message_type == ONC_REPLY:
        return MessageInfo("oncrpc", "reply", xid, 0, ">I")
    raise TransportError(
        "not an ONC RPC message (type %d)" % message_type
    )


def _skip_giop_service_contexts(data, endian):
    """Offset just past the service-context list starting at byte 12."""
    count = struct.unpack_from(endian + "I", data, 12)[0]
    offset = 16
    for _ in range(count):
        if offset + 8 > len(data):
            raise TransportError("truncated GIOP service context")
        length = struct.unpack_from(endian + "I", data, offset + 4)[0]
        offset += 8 + length
        offset += -offset % 4
    return offset


def _probe_giop(data):
    endian = "<" if data[6] else ">"
    message_type = data[7]
    if message_type == GIOP_REQUEST:
        offset = _skip_giop_service_contexts(data, endian)
        if offset + 5 > len(data):
            raise TransportError("truncated GIOP Request header")
        request_id = struct.unpack_from(endian + "I", data, offset)[0]
        expects_reply = bool(data[offset + 4])
        # Skip the response_expected octet and the object key to reach
        # the operation name (the stub modules' demux key, sans NUL).
        position = offset + 5
        position += -position % 4
        key_length = struct.unpack_from(endian + "I", data, position)[0]
        position += 4 + key_length
        position += -position % 4
        op_length = struct.unpack_from(endian + "I", data, position)[0]
        op_key = bytes(data[position + 4:position + 3 + op_length])
        return MessageInfo("giop", "call", request_id, offset, endian + "I",
                           op_key, expects_reply)
    if message_type == GIOP_REPLY:
        offset = _skip_giop_service_contexts(data, endian)
        if offset + 4 > len(data):
            raise TransportError("truncated GIOP Reply header")
        request_id = struct.unpack_from(endian + "I", data, offset)[0]
        return MessageInfo("giop", "reply", request_id, offset, endian + "I")
    raise TransportError("unsupported GIOP message type %d" % message_type)


def reply_correlation_id(payload):
    """The correlation id of a reply message (fast path for readers)."""
    return probe(payload).correlation_id


def reply_error(payload):
    """The protocol-level error a reply carries, or None.

    Lets the retry loop in :class:`~repro.runtime.aio.client
    .ConnectionPool` classify replies *before* handing them to the
    generated stub: a protocol error reply (ONC MSG_DENIED or a non-zero
    accept_stat; a GIOP MessageError or system exception) means the
    request never reached the servant's normal path, so idempotent calls
    may retry it.  User exceptions are NOT errors at this layer — they
    are successful replies the stub must decode.  Replies too garbled to
    classify also return None; the stub's hardened decode rejects them
    with the richer :class:`~repro.errors.WireFormatError`.
    """
    data = bytes(payload) if not isinstance(payload, (bytes, bytearray)) \
        else payload
    try:
        if len(data) >= 12 and bytes(data[0:4]) == b"GIOP":
            return _giop_reply_error(data)
        if len(data) >= 12:
            return _onc_reply_error(data)
    except struct.error:
        return None
    return None


def _onc_reply_error(data):
    message_type, reply_stat = struct.unpack_from(">II", data, 4)
    if message_type != ONC_REPLY:
        return None
    if reply_stat == 1:  # MSG_DENIED
        (reject_stat,) = struct.unpack_from(">I", data, 12)
        if reject_stat == 0 and len(data) >= 24:
            low, high = struct.unpack_from(">II", data, 16)
            return RemoteCallError(
                "server denied the call: RPC version mismatch"
                " (supports %d through %d)" % (low, high),
                protocol="oncrpc", code="RPC_MISMATCH",
            )
        return RemoteCallError(
            "server denied the call: authentication error",
            protocol="oncrpc", code="AUTH_ERROR",
        )
    if reply_stat != 0:
        return None  # not a well-formed reply; let the stub reject it
    flavor, length = struct.unpack_from(">II", data, 12)
    if length > 400:
        return None
    offset = 20 + length + (-length % 4)
    (accept_stat,) = struct.unpack_from(">I", data, offset)
    code = _ONC_ACCEPT_ERRORS.get(accept_stat)
    if code is None:
        return None
    return RemoteCallError(
        "server answered %s" % code, protocol="oncrpc", code=code,
    )


def _giop_reply_error(data):
    if data[7] == GIOP_MESSAGE_ERROR:
        return RemoteCallError(
            "server answered with GIOP MessageError",
            protocol="giop", code="GIOP::MessageError",
        )
    if data[7] != GIOP_REPLY:
        return None
    endian = "<" if data[6] else ">"
    try:
        offset = _skip_giop_service_contexts(data, endian)
    except TransportError:
        return None
    if offset + 8 > len(data):
        return None
    (status,) = struct.unpack_from(endian + "I", data, offset + 4)
    if status != _GIOP_SYSTEM_EXCEPTION:
        return None  # success or a user exception: the stub decodes it
    body = offset + 8
    try:
        (id_length,) = struct.unpack_from(endian + "I", data, body)
        if id_length > 256 or body + 4 + id_length > len(data):
            raise struct.error("bad exception id")
        repo_id = bytes(
            data[body + 4:body + 4 + id_length]
        ).rstrip(b"\x00").decode("latin-1")
        tail = body + 4 + id_length + (-(body + 4 + id_length) % 4)
        minor, completed = struct.unpack_from(endian + "II", data, tail)
    except struct.error:
        repo_id, minor, completed = "IDL:omg.org/CORBA/UNKNOWN:1.0", 0, 2
    return RemoteCallError(
        "server raised %s (minor %d, completed %d)"
        % (repo_id, minor, completed),
        protocol="giop", code=repo_id, minor=minor, completed=completed,
    )


def rewrite_id(payload, info, new_id):
    """Return *payload* with the correlation id replaced by *new_id*."""
    data = bytearray(payload)
    struct.pack_into(info.id_format, data, info.id_offset, new_id)
    return bytes(data)
