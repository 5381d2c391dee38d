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

Where the id and (for stats) the operation key sit in a header is not
known here: every read goes through the walks :mod:`repro.envelopes`
derives from its one description of each protocol; bodies are never
touched.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Optional, Union

from repro import envelopes
from repro.errors import DispatchError, RemoteCallError, TransportError


class MessageInfo(NamedTuple):
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
    protocol, direction, endian = envelopes.sniff(data)
    try:
        found = envelopes.locator(protocol, direction, endian)(data)
    except DispatchError as error:
        raise TransportError(str(error))
    if direction == "request":
        correlation_id, offset, op_key, expects_reply = found
        return MessageInfo(protocol, "call", correlation_id, offset,
                           endian + "I", op_key, expects_reply)
    return MessageInfo(protocol, "reply", found[0], found[1], endian + "I")


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
        protocol, direction, endian = envelopes.sniff(data)
        if direction == "reply":
            envelopes.reader(protocol, direction, endian)(data)
    except RemoteCallError as error:
        return error
    except TransportError:
        pass
    return None


def rewrite_id(payload, info, new_id):
    """Return *payload* with the correlation id replaced by *new_id*."""
    data = bytearray(payload)
    struct.pack_into(info.id_format, data, info.id_offset, new_id)
    return bytes(data)
