"""Cross-protocol error mapping: GIOP system exceptions <-> ONC RPC
accept/deny statuses.

A gateway relays requests between protocols, so a protocol-level error
answered by the *upstream* server must be re-expressed in the *ingress*
protocol — an ONC client that called through an IIOP upstream must see
``PROC_UNAVAIL``, not a CORBA repository id it cannot parse.

The mapping is total over everything the generated stubs can emit, and
its core is a **bijection** so that errors survive a double bridge
(onc -> giop -> onc) unchanged:

======================================  ==============================
GIOP system exception                   ONC RPC status
======================================  ==============================
``CORBA/MARSHAL``                       accepted ``GARBAGE_ARGS``
``CORBA/BAD_OPERATION``                 accepted ``PROC_UNAVAIL``
``CORBA/OBJECT_NOT_EXIST``              accepted ``PROG_UNAVAIL``
``CORBA/INV_OBJREF``                    accepted ``PROG_MISMATCH``
``CORBA/UNKNOWN``                       accepted ``SYSTEM_ERR``
``CORBA/NO_PERMISSION``                 denied ``AUTH_ERROR``
``CORBA/COMM_FAILURE``                  denied ``RPC_MISMATCH``
======================================  ==============================

Two GIOP conditions have no ONC counterpart and map **one way** (their
round trip lands on the canonical partner, not on themselves):

* ``CORBA/TRANSIENT`` (overload, retry later) -> ``SYSTEM_ERR``;
* ``GIOP::MessageError`` (unparseable message) -> ``GARBAGE_ARGS``;
* any unlisted repository id -> ``SYSTEM_ERR``.

Local gateway failures on the upstream leg (connect refused, deadline,
open circuit breaker) are mapped by :func:`translate_local`: they become
``TRANSIENT`` / ``COMM_FAILURE`` on a GIOP ingress and ``SYSTEM_ERR`` on
an ONC ingress, since RFC 1831 has no transient-failure status.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.envelopes import ACCEPT_STAT_NAMES, SYSTEM_EXCEPTION_STATUS
from repro.errors import (
    CircuitOpenError,
    DeadlineError,
    OverloadError,
    RemoteCallError,
)

__all__ = [
    "GIOP_TO_ONC",
    "ONC_TO_GIOP",
    "GiopErrorReply",
    "OncErrorReply",
    "encode_error",
    "translate_local",
    "translate_remote",
]

_ACCEPT_NUMBERS = {name: stat for stat, name in ACCEPT_STAT_NAMES.items()}

#: reject_stat AUTH_ERROR carries an auth_stat; AUTH_FAILED is the
#: catch-all RFC 1831 provides for "rejected for unspecified reasons".
_AUTH_FAILED = 7

_MARSHAL = "IDL:omg.org/CORBA/MARSHAL:1.0"
_BAD_OPERATION = "IDL:omg.org/CORBA/BAD_OPERATION:1.0"
_OBJECT_NOT_EXIST = "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0"
_INV_OBJREF = "IDL:omg.org/CORBA/INV_OBJREF:1.0"
_UNKNOWN = "IDL:omg.org/CORBA/UNKNOWN:1.0"
_NO_PERMISSION = "IDL:omg.org/CORBA/NO_PERMISSION:1.0"
_COMM_FAILURE = "IDL:omg.org/CORBA/COMM_FAILURE:1.0"
_TRANSIENT = "IDL:omg.org/CORBA/TRANSIENT:1.0"
_MESSAGE_ERROR = "GIOP::MessageError"

#: The bijective core, GIOP side keyed by repository id.  Values are
#: ("accept" | "deny", status name).
_CANONICAL = (
    (_MARSHAL, ("accept", "GARBAGE_ARGS")),
    (_BAD_OPERATION, ("accept", "PROC_UNAVAIL")),
    (_OBJECT_NOT_EXIST, ("accept", "PROG_UNAVAIL")),
    (_INV_OBJREF, ("accept", "PROG_MISMATCH")),
    (_UNKNOWN, ("accept", "SYSTEM_ERR")),
    (_NO_PERMISSION, ("deny", "AUTH_ERROR")),
    (_COMM_FAILURE, ("deny", "RPC_MISMATCH")),
)

#: GIOP repository id -> (kind, ONC status).  Total over stub output:
#: the canonical pairs plus the documented one-way entries.
GIOP_TO_ONC = dict(_CANONICAL)
GIOP_TO_ONC[_TRANSIENT] = ("accept", "SYSTEM_ERR")
GIOP_TO_ONC[_MESSAGE_ERROR] = ("accept", "GARBAGE_ARGS")

#: ONC status name -> GIOP repository id (the inverse of the canonical
#: table; total because generated ONC stubs emit no other statuses).
ONC_TO_GIOP = {onc[1]: giop for giop, onc in _CANONICAL}


@dataclass(frozen=True)
class GiopErrorReply:
    """A system-exception Reply to synthesize on a GIOP ingress leg."""

    exception_id: str
    minor: int = 0
    completed: int = 1  # COMPLETED_NO


@dataclass(frozen=True)
class OncErrorReply:
    """An error reply to synthesize on an ONC RPC ingress leg."""

    kind: str  # "accept" or "deny"
    status: str


def _to_onc(repo_id, minor=0):
    kind, status = GIOP_TO_ONC.get(repo_id, ("accept", "SYSTEM_ERR"))
    return OncErrorReply(kind, status)


def _to_giop(code, completed=1):
    repo_id = ONC_TO_GIOP.get(code, _UNKNOWN)
    return GiopErrorReply(repo_id, completed=completed)


def translate_remote(error, ingress_protocol):
    """Re-express an upstream protocol error for the ingress protocol.

    *error* is the :class:`~repro.errors.RemoteCallError` the upstream
    reply was classified as (``error.protocol`` names the egress
    protocol).  Same-protocol relays pass the status through unchanged.
    """
    if ingress_protocol == "oncrpc":
        if error.protocol == "oncrpc":
            kind = "deny" if error.code in ("RPC_MISMATCH",
                                            "AUTH_ERROR") else "accept"
            return OncErrorReply(kind, error.code)
        return _to_onc(error.code, getattr(error, "minor", 0) or 0)
    if error.protocol == "giop":
        return GiopErrorReply(
            error.code,
            minor=getattr(error, "minor", 0) or 0,
            completed=getattr(error, "completed", None) or 1,
        )
    return _to_giop(error.code)


def translate_local(error, ingress_protocol):
    """Map a *local* upstream-leg failure onto the ingress protocol.

    Covers failures that never produced an upstream reply: an open
    circuit breaker, an expired deadline, shed load, or a transport
    error (connect refused, connection lost mid-call).
    """
    if ingress_protocol == "oncrpc":
        return OncErrorReply("accept", "SYSTEM_ERR")
    if isinstance(error, (OverloadError, CircuitOpenError)):
        return GiopErrorReply(_TRANSIENT, completed=1)
    if isinstance(error, DeadlineError):
        return GiopErrorReply(_TRANSIENT, completed=2)  # COMPLETED_MAYBE
    return GiopErrorReply(_COMM_FAILURE, completed=2)


def encode_error(buffer, ctx, mapped, *, versions=(2, 2),
                 little_endian=False):
    """Write the wire bytes for *mapped* into *buffer*.

    *ctx* is the ingress correlation id (ONC xid / GIOP request id).
    *versions* fills the low/high fields of ``PROG_MISMATCH`` and
    ``RPC_MISMATCH`` replies (the ingress program version, or the RPC
    protocol version, respectively).
    """
    if isinstance(mapped, OncErrorReply):
        _encode_onc(buffer, ctx, mapped, versions)
    else:
        _encode_giop(buffer, ctx, mapped, little_endian)


def _encode_onc(buffer, xid, mapped, versions):
    if mapped.kind == "deny":
        if mapped.status == "RPC_MISMATCH":
            offset = buffer.reserve(24)
            struct.pack_into(">IIIIII", buffer.data, offset,
                             xid, 1, 1, 0, 2, 2)
        else:  # AUTH_ERROR
            offset = buffer.reserve(20)
            struct.pack_into(">IIIII", buffer.data, offset,
                             xid, 1, 1, 1, _AUTH_FAILED)
        return
    stat = _ACCEPT_NUMBERS[mapped.status]
    if mapped.status == "PROG_MISMATCH":
        offset = buffer.reserve(32)
        struct.pack_into(">IIIIIIII", buffer.data, offset,
                         xid, 1, 0, 0, 0, 2, versions[0], versions[1])
        return
    offset = buffer.reserve(24)
    struct.pack_into(">IIIIII", buffer.data, offset,
                     xid, 1, 0, 0, 0, stat)


def _encode_giop(buffer, request_id, mapped, little_endian):
    endian = "<" if little_endian else ">"
    header = b"GIOP" + bytes((1, 0, 1 if little_endian else 0, 1)) \
        + b"\0\0\0\0"
    offset = buffer.reserve(24)
    buffer.data[offset:offset + 12] = header
    struct.pack_into(endian + "III", buffer.data, offset + 12,
                     0, request_id, SYSTEM_EXCEPTION_STATUS)
    exc_id = mapped.exception_id.encode("latin-1") + b"\0"
    length = len(exc_id)
    padding = -length % 4
    tail = buffer.reserve(4 + length + padding + 8)
    struct.pack_into(endian + "I", buffer.data, tail, length)
    buffer.data[tail + 4:tail + 4 + length] = exc_id
    if padding:
        buffer.data[tail + 4 + length:tail + 4 + length + padding] = \
            b"\0" * padding
    struct.pack_into(endian + "II", buffer.data,
                     tail + 4 + length + padding,
                     mapped.minor, mapped.completed)
    struct.pack_into(endian + "I", buffer.data, offset + 8,
                     buffer.length - 12)
