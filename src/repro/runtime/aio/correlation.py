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
touched.  A message costs its sender or receiver one such walk:
:func:`locate` on the way out, :func:`route` — id and classification
in the same pass — on the way back.
"""

from __future__ import annotations

import struct

from repro import envelopes
from repro.errors import DispatchError, TransportError


#: byte order -> ``stamp(buffer, offset, id)``, the id field's writer.
_STAMP = {endian: struct.Struct(endian + "I").pack_into for endian in "<>"}


def _located(payload):
    """``((protocol, direction, byte order), what the locator found)``;
    *payload* is any bytes-like and is not copied."""
    kind = envelopes.sniff(payload)
    try:
        return kind, envelopes.locator(*kind)(payload)
    except DispatchError as error:
        raise TransportError(str(error))


def locate(payload):
    """``(id, id offset, stamp)`` of an ONC RPC or GIOP message:
    ``stamp(buffer, offset, new_id)`` writes the field in place.

    Raises :class:`TransportError` for messages that are neither ONC RPC
    nor GIOP — such traffic cannot be multiplexed (there is no id field
    to correlate on) and callers should fall back to a serial transport.
    """
    kind, found = _located(payload)
    return found[0], found[1], _STAMP[kind[2]]


def route(record):
    """One pass over a reply: ``(id, id offset, the protocol-level error
    it carries or None, stamp)``.

    A protocol error reply (ONC MSG_DENIED or a non-zero accept_stat; a
    GIOP MessageError or system exception) means the request never
    reached the servant's normal path, so the caller is told before the
    generated stub sees the bytes and idempotent calls may retry it.
    User exceptions are NOT errors at this layer — they are successful
    replies the stub must decode.  A reply that is sound up to its id
    and garbled after it is routed unclassified; the stub's hardened
    decode rejects it with the richer
    :class:`~repro.errors.WireFormatError`.  Raises
    :class:`TransportError` when no id can be found.
    """
    protocol, direction, endian = envelopes.sniff(record)
    if direction == "reply":
        try:
            return envelopes.router(protocol, endian)(record) \
                + (_STAMP[endian],)
        except TransportError:
            pass
    wire_id, offset, stamp = locate(record)
    return wire_id, offset, None, stamp
