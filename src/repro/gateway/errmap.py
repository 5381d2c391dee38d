"""Cross-protocol error mapping: GIOP system exceptions <-> ONC RPC
accept/deny statuses.

A gateway relays requests between protocols, so a protocol-level error
answered by the *upstream* server must be re-expressed in the *ingress*
protocol — an ONC client that called through an IIOP upstream must see
``PROC_UNAVAIL``, not a CORBA repository id it cannot parse.

The mapping is total — a status neither table names is relayed as
``SYSTEM_ERR`` / ``UNKNOWN`` — and its core is a **bijection** so that errors survive a double bridge
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

Both functions return ``(code, minor, completed)``; the bytes are
written by :func:`repro.envelopes.write_error`, beside the walks that
read them back.
"""

from __future__ import annotations

from repro.errors import CircuitOpenError, DeadlineError, OverloadError

__all__ = ["GIOP_TO_ONC", "ONC_TO_GIOP", "translate_local",
           "translate_remote"]

_CORBA = "IDL:omg.org/CORBA/%s:1.0"
_UNKNOWN = _CORBA % "UNKNOWN"

#: The bijective core: GIOP repository id, ONC RPC status.
_CANONICAL = tuple((_CORBA % giop, onc) for giop, onc in (
    ("MARSHAL", "GARBAGE_ARGS"),
    ("BAD_OPERATION", "PROC_UNAVAIL"),
    ("OBJECT_NOT_EXIST", "PROG_UNAVAIL"),
    ("INV_OBJREF", "PROG_MISMATCH"),
    ("UNKNOWN", "SYSTEM_ERR"),
    ("NO_PERMISSION", "AUTH_ERROR"),
    ("COMM_FAILURE", "RPC_MISMATCH"),
))

#: GIOP repository id -> ONC status: the canonical pairs plus the
#: documented one-way entries (any other id is ``SYSTEM_ERR``).
GIOP_TO_ONC = dict(_CANONICAL)
GIOP_TO_ONC[_CORBA % "TRANSIENT"] = "SYSTEM_ERR"
GIOP_TO_ONC["GIOP::MessageError"] = "GARBAGE_ARGS"

#: ONC status -> GIOP repository id (the inverse of the canonical
#: table; any other status is ``UNKNOWN``).
ONC_TO_GIOP = {onc: giop for giop, onc in _CANONICAL}


def translate_remote(error, ingress_protocol):
    """Re-express an upstream protocol error for the ingress protocol.

    *error* is the :class:`~repro.errors.RemoteCallError` the upstream
    reply was classified as (``error.protocol`` names the egress
    protocol).  Returns the ``(code, minor, completed)`` that
    :func:`repro.envelopes.write_error` writes on the ingress leg;
    same-protocol relays pass the status through unchanged.
    """
    if ingress_protocol == "oncrpc":
        if error.protocol == "oncrpc":
            return error.code, 0, 1
        return GIOP_TO_ONC.get(error.code, "SYSTEM_ERR"), 0, 1
    if error.protocol == "giop":
        return error.code, error.minor or 0, (
            1 if error.completed is None else error.completed)
    return ONC_TO_GIOP.get(error.code, _UNKNOWN), 0, 1


def translate_local(error, ingress_protocol):
    """Map a *local* upstream-leg failure onto the ingress protocol.

    Covers failures that never produced an upstream reply: an open
    circuit breaker, an expired deadline, shed load, or a transport
    error (connect refused, connection lost mid-call).  Returns what
    :func:`translate_remote` does.
    """
    if ingress_protocol == "oncrpc":
        return "SYSTEM_ERR", 0, 1
    if isinstance(error, (OverloadError, CircuitOpenError)):
        return _CORBA % "TRANSIENT", 0, 1
    if isinstance(error, DeadlineError):
        return _CORBA % "TRANSIENT", 0, 2  # COMPLETED_MAYBE
    return _CORBA % "COMM_FAILURE", 0, 2
