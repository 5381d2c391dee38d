"""Exception hierarchy for the Flick reproduction.

Every error raised by the compiler pipeline derives from :class:`FlickError`
so that callers (the CLI, tests, embedding applications) can catch one type.
The hierarchy mirrors the compiler's phases: lexing/parsing errors come from
front ends, semantic errors from AOI validation and presentation generation,
and code-generation errors from back ends.  Runtime errors (bad wire data,
transport failures) derive from :class:`RuntimeFlickError` because they occur
in generated-stub execution rather than at compile time.
"""

from __future__ import annotations


class FlickError(Exception):
    """Base class for every error raised by this package."""


class IdlSyntaxError(FlickError):
    """A front end could not tokenize or parse its IDL input.

    Attributes:
        location: a :class:`repro.idl.source.SourceLocation` or ``None``.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = "%s: %s" % (location, message)
        super().__init__(message)


class IdlSemanticError(FlickError):
    """The IDL parsed but violates a language rule (e.g. duplicate names,
    undefined types, non-constant array bounds)."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = "%s: %s" % (location, message)
        super().__init__(message)


class AoiValidationError(FlickError):
    """An AOI structure is internally inconsistent."""


class PresentationError(FlickError):
    """A presentation generator cannot map an AOI construct onto its target
    (e.g. the rpcgen presentation cannot express CORBA exceptions)."""


class BackEndError(FlickError):
    """A back end cannot produce code for a presentation (e.g. MIG-style
    back ends cannot express arrays of non-atomic types)."""


class RuntimeFlickError(FlickError):
    """Base class for errors occurring while generated stubs execute."""


class FlickUserException(RuntimeFlickError):
    """Base class for generated IDL user exceptions.

    Generated exception classes (one per IDL ``exception``) derive from
    this; client stubs raise them when the reply carries the matching
    exception arm, and server dispatch catches them from work functions
    and marshals the corresponding reply.
    """

    _fields = ()


class MarshalError(RuntimeFlickError):
    """A value cannot be encoded (out of range, wrong type, over bound)."""


class UnmarshalError(RuntimeFlickError):
    """Received bytes do not decode as a valid message."""


class TransportError(RuntimeFlickError):
    """A transport failed to move a message."""


class StaleConnectionError(TransportError):
    """A pooled connection turned out to be dead at send time.

    Raised by :class:`repro.runtime.aio.client.AioConnection` when a
    *new* request finds closed a connection that had previously
    completed calls — the classic pooled-connection hazard: the peer
    closed (or was killed) while the connection sat idle, and it only
    surfaces on the next send.  The request was not delivered, so
    :class:`~repro.runtime.aio.client.ConnectionPool` discards the
    connection and retries idempotent calls immediately on a fresh one,
    without consuming a backoff slot or the caller's deadline budget.
    """


class WireFormatError(UnmarshalError, TransportError):
    """Bytes on the wire violate the protocol's framing or encoding rules.

    This is both an :class:`UnmarshalError` (the bytes do not decode) and
    a :class:`TransportError` (the stream may have lost sync), so every
    existing catch site on either branch handles it.  Unlike plain
    transport failures it is **never retried** by the client runtime: the
    same bytes would fail the same way.

    Attributes:
        offset: byte offset of the violation within the message, if known.
        field: name of the offending field or limit ("record_size",
            "string_length", ...), if known.
        limit: the enforced limit that was exceeded, if any.
        actual: the offending value found on the wire, if known.
    """

    def __init__(self, message, offset=None, field=None, limit=None,
                 actual=None):
        details = []
        if field is not None:
            details.append("field=%s" % field)
        if offset is not None:
            details.append("offset=%d" % offset)
        if actual is not None:
            details.append("actual=%r" % (actual,))
        if limit is not None:
            details.append("limit=%r" % (limit,))
        if details:
            message = "%s (%s)" % (message, ", ".join(details))
        super().__init__(message)
        self.offset = offset
        self.field = field
        self.limit = limit
        self.actual = actual


class DeadlineError(TransportError):
    """A call's deadline expired before the reply arrived.

    Raised by deadline-aware transports (:mod:`repro.runtime.aio`).  It is
    a :class:`TransportError` so existing callers that handle transport
    failures also handle deadline expiry.  By default it is not retried;
    :class:`repro.runtime.aio.options.CallOptions` can opt idempotent
    calls into per-attempt deadline retry (``retry_deadlines=True``)."""


class RemoteCallError(TransportError):
    """The peer answered with a protocol-level error reply.

    ONC RPC ``MSG_DENIED`` / non-``SUCCESS`` ``accept_stat`` replies and
    GIOP system-exception replies decode to this.  It is a
    :class:`TransportError` so callers treating "the call did not
    succeed" uniformly keep working, but the connection itself is healthy
    — the server demonstrably parsed our frame and answered.

    Attributes:
        protocol: "oncrpc" or "giop".
        code: the protocol's error name ("GARBAGE_ARGS",
            "IDL:omg.org/CORBA/MARSHAL:1.0", ...).
        minor: GIOP system-exception minor code (0 for ONC).
        completed: GIOP completion status (None for ONC).
    """

    def __init__(self, message, protocol=None, code=None, minor=0,
                 completed=None):
        super().__init__(message)
        self.protocol = protocol
        self.code = code
        self.minor = minor
        self.completed = completed


class OverloadError(RuntimeFlickError):
    """The server shed this request because its dispatch queue is full.

    Mapped onto the wire as ONC RPC ``SYSTEM_ERR`` / GIOP
    ``CORBA::TRANSIENT`` so well-behaved clients back off and retry."""


class CircuitOpenError(TransportError):
    """A client-side circuit breaker refused the call without dialing.

    Raised by :class:`repro.runtime.aio.breaker.CircuitBreaker` via
    :class:`~repro.runtime.aio.client.ConnectionPool` while the breaker
    is open (the recent failure rate tripped it)."""


class DispatchError(RuntimeFlickError):
    """A server received a request it cannot route to an operation.

    Attributes:
        code: a machine-readable reason used by the generated
            ``encode_error_reply`` to pick the protocol's error reply:
            ``"not_call"``, ``"rpc_mismatch"``, ``"prog_unavail"``,
            ``"prog_mismatch"``, ``"proc_unavail"`` (ONC RPC), or
            ``"bad_magic"``, ``"not_request"``, ``"byte_order"``,
            ``"bad_operation"`` (GIOP); ``None`` when unclassified.
    """

    def __init__(self, message, code=None):
        super().__init__(message)
        self.code = code
