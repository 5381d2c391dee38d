"""The request core: how one request is served, with no I/O in it.

Every server — the blocking :class:`~repro.runtime.socket_transport
.TcpServer` and :class:`~repro.runtime.socket_transport.UdpServer`, the
asyncio :class:`~repro.runtime.aio.server.AioTcpServer`, the protocol
gateway, and the in-process :meth:`StubServer.serve_bytes
<repro.runtime.server.StubServer.serve_bytes>` — is an I/O driver of one
:class:`RequestCore`: it reads a record, hands it over, writes the
buffer if told to and closes if told to.  What happens in between is
decided here and nowhere else:

* the generated ``dispatch`` runs; a :class:`~repro.errors
  .RuntimeFlickError` out of it is a malformed or unsupported request —
  record framing delivered a whole record, so the stream is still in
  sync: answer in-protocol and **keep** the connection.  Any other
  exception is the servant itself crashing: answer with a system error
  and **close** — the connection's state is suspect.  ``SystemExit``
  is such a crash too (a servant calling ``sys.exit()`` must neither
  end the thread that serves it nor go unanswered); ``KeyboardInterrupt``
  and a coroutine's ``CancelledError`` are not the servant's and
  propagate;
* the error reply comes from the stub module's ``encode_error_reply``;
  when it cannot build one (no encoder, a oneway, an unparseable header,
  or the encoder itself failing) nothing is sent and the connection
  closes;
* with a :class:`~repro.runtime.aio.stats.ServerStats` attached,
  ``malformed`` / ``servant_errors`` count the two failure classes and
  ``record()`` takes one latency observation per request under its
  operation's name;
* under an active tracer a request is the span tree ``server.request``
  (``op``, and ``error`` = the exception class when dispatch failed)
  → ``demux`` → ``dispatch``; drivers hang their ``write`` span under
  the same root.  Parents are explicit, never the ambient context, so
  the steps may run on different threads.

A driver that serves and writes on one thread (the blocking servers and
:meth:`StubServer.serve_bytes`) makes one call per record,
:meth:`RequestCore.handle`; with stats and tracer both off that is the
only frame between the driver and ``dispatch`` — no ticket, no header
probe, no clock, no span object.  The gateway answers a record without
``dispatch``, in two callbacks (the ingress read forwards it, the
upstream read answers it): it settles whatever either half raised with
:meth:`RequestCore.settle`, the rule a dispatch error gets, and an
answered record with :meth:`RequestCore.answered`.
"""

from __future__ import annotations

import time

from repro import envelopes
from repro.errors import RuntimeFlickError, TransportError
from repro.obs import propagation, trace

#: What a servant may raise that the core answers as a failed request.
#: ``SystemExit`` is in: a servant calling ``sys.exit()`` has crashed.
SETTLED = (Exception, SystemExit)


class _Ticket:
    """What one observed request carries from begin() to end()."""

    __slots__ = ("op_key", "started", "span")

    def __init__(self, op_key, started, span):
        self.op_key = op_key
        self.started = started
        self.span = span  # the server.request root, or None untraced


class RequestCore:
    """One servant behind one generated ``dispatch``; see the module doc.

    A driver that writes on the thread it serves on calls
    ``has_reply, keep_open, error = handle(record, buffer, write)`` per
    record and closes if told to.  One that serves elsewhere (the aio
    server's workers) calls ``ticket = begin(record)``, then
    ``has_reply, keep_open, error = serve(record, buffer, ticket)`` (the
    gateway: :meth:`answered` or :meth:`settle`), writes
    ``buffer.view()`` if told to, closes if told to, and ``end(ticket)``.
    """

    __slots__ = ("dispatch", "impl", "stats", "op_names", "error_encoder")

    def __init__(self, dispatch, impl, *, stats=None, op_names=None,
                 error_encoder=None):
        self.dispatch = dispatch
        self.impl = impl
        self.stats = stats
        self.op_names = {} if op_names is None else op_names
        self.error_encoder = error_encoder

    def op_key(self, record):
        """The display name of *record*'s operation ("?" if opaque).

        The demux key is found by the request walk of the envelope the
        stub module speaks, which :func:`~repro.runtime.server
        .operation_names` hands over with the names; a plain mapping
        leaves the frame to say what it is (ONC RPC and GIOP can).
        """
        envelope = getattr(self.op_names, "envelope", None)
        try:
            if envelope is None:
                protocol, _direction, endian = envelopes.sniff(record)
            else:
                protocol, endian = envelope
            key = envelopes.locator(protocol, "request", endian)(record)[2]
        except RuntimeFlickError:
            return "?"
        return self.op_names.get(key, key)

    def handle(self, record, buffer, write=None):
        """Serve *record* start to finish on the calling thread.

        Dispatches and settles as :meth:`serve` does, calls
        ``write(buffer.view())`` when there is a reply (with *write*
        None the reply is left in *buffer*), and returns what
        :meth:`serve` returns — ``keep_open`` False as well when *write*
        raised :class:`OSError` or :class:`TransportError`.  Observed
        requests go through :meth:`begin`, :meth:`serve` and :meth:`end`
        with the ``write`` span between; an unobserved one costs this
        frame and ``dispatch``.
        """
        ticket = None
        if self.stats is None and trace.active() is None:
            buffer.reset()
            try:
                served = (self.dispatch(record, self.impl, buffer),
                          True, None)
            except SETTLED as error:
                served = self.settle(record, buffer, error, None)
        else:
            ticket = self.begin(record)
            served = self.serve(record, buffer, ticket)
        if served[0] and write is not None:
            try:
                if ticket is None or ticket.span is None:
                    write(buffer.view())
                else:
                    with trace.span("write", parent=ticket.span):
                        write(buffer.view())
            except (OSError, TransportError):
                served = True, False, served[2]
        if ticket is not None:
            self.end(ticket)
        return served

    def begin(self, record):
        """Start observing one request; None when nothing observes."""
        tracer = trace.active()
        if tracer is None and self.stats is None:
            return None
        started = time.perf_counter()
        if tracer is None:
            return _Ticket(self.op_key(record), started, None)
        # Join the client's trace if the request carries a context.
        root = tracer.span("server.request",
                           parent=propagation.extract(record))
        with tracer.span("demux", parent=root):
            op_key = self.op_key(record)
        root.set(op=str(op_key))
        return _Ticket(op_key, started, root)

    def serve(self, record, buffer, ticket=None):
        """Dispatch *record* and settle what came of it.

        Returns ``(has_reply, keep_open, error)``: whether *buffer* now
        holds a reply to write, whether the connection may go on
        serving, and the exception dispatch raised (None if none) for
        the driver that has no connection to close.  Thread-safe: the
        aio server calls it on its worker threads.
        """
        buffer.reset()
        try:
            if ticket is None or ticket.span is None:
                has_reply = self.dispatch(record, self.impl, buffer)
            else:
                with trace.span("dispatch", parent=ticket.span):
                    has_reply = self.dispatch(record, self.impl, buffer)
        except SETTLED as error:
            return self.settle(record, buffer, error, ticket)
        return self.answered(ticket, has_reply)

    def answered(self, ticket, has_reply=True):
        """What :meth:`serve` returns for an answered request (for the
        gateway, one whose upstream reply is translated into the
        buffer): observed, with the connection kept."""
        if ticket is not None:
            self._observe(ticket, False)
        return has_reply, True, None

    def settle(self, record, buffer, error, ticket=None):
        """What :meth:`serve` returns when dispatch raised *error*: the
        error reply in *buffer*, and the connection kept only for a
        :class:`~repro.errors.RuntimeFlickError` that got one."""
        crashed = not isinstance(error, RuntimeFlickError)
        if self.stats is not None:
            (self.stats.servant_errors if crashed
             else self.stats.malformed).inc()
        if ticket is not None and ticket.span is not None:
            ticket.span.set(error=type(error).__name__)
            if crashed:
                ticket.span.set(error_detail=str(error))
        has_reply = self.error_reply(record, error, buffer)
        if ticket is not None:
            self._observe(ticket, True)
        return has_reply, has_reply and not crashed, error

    def _observe(self, ticket, failed):
        if self.stats is not None:
            self.stats.record(
                ticket.op_key, time.perf_counter() - ticket.started,
                error=failed)

    def error_reply(self, record, error, buffer):
        """Encode the protocol error reply for *error* into *buffer*.

        False when there is nothing to send: no encoder, a request that
        cannot be answered (the encoder says so), or a failing encoder.
        """
        buffer.reset()
        if self.error_encoder is None:
            return False
        try:
            return bool(self.error_encoder(record, error, buffer))
        except Exception:  # a buggy encoder must not take the server down
            return False

    def end(self, ticket):
        """Close the request's root span, once its reply is written."""
        if ticket is not None and ticket.span is not None:
            ticket.span.end()
