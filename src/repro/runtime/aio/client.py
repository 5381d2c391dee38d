"""The concurrent client runtime: multiplexed connections with pooling.

Three layers, outermost first:

* :class:`AioClientTransport` — a synchronous
  :class:`~repro.runtime.transport.Transport` (so every generated client
  proxy works unchanged) that drives a shared background event loop.
  Many threads may call through one transport simultaneously; their
  requests multiplex over the pool's connections.
* :class:`ConnectionPool` — asyncio-native: owns up to *size* multiplexed
  connections, routes each call to the least-loaded one, reconnects lazily,
  and applies :class:`~repro.runtime.aio.options.CallOptions` (deadlines,
  retry with exponential backoff for idempotent work).
* :class:`AioConnection` — one framed TCP connection carrying many
  in-flight requests.  Correlation rides in the protocol's own id field
  (ONC XID / GIOP request_id): every request goes out through
  :meth:`AioConnection.submit` under a connection-unique id, and its
  pending entry is a callback the reply (or the failure) is handed to in
  the connection's own read callback.  :meth:`AioConnection.acall`
  stamps that id into the caller's request and restores the caller's
  original id on the reply, so generated stubs — which verify ids
  themselves — never observe the remapping, and the wire stays
  byte-compatible with blocking peers.

The pool is also the protocol gateway's upstream leg, which takes no
coroutine on its way: :meth:`ConnectionPool.acquire` hands over a
connection that can take a request (at once, unless one must be dialed
first), the gateway writes its egress header with that connection's
:meth:`~AioConnection.next_id` and hands the request to
:meth:`ConnectionPool.submit` (two-way) or :meth:`ConnectionPool.send`
(oneway).

Cancellation: cancelling a task blocked in :meth:`AioConnection.acall`
(or a deadline expiring) unregisters the pending entry; a late reply for
an unknown id is counted and dropped, and the connection stays usable.
"""

from __future__ import annotations

import asyncio
import threading

from repro.errors import (
    CircuitOpenError,
    DeadlineError,
    RemoteCallError,
    StaleConnectionError,
    TransportError,
    WireFormatError,
)
from repro.obs import propagation, trace
from repro.obs.trace import NOOP
from repro.runtime.framing import HEADER_SIZE, MAX_RECORD_SIZE, \
    encode_record, open_record
from repro.runtime.transport import Transport
from repro.runtime.aio.correlation import locate, route
from repro.runtime.aio.framed import FramedConnection
from repro.runtime.aio.options import CallOptions


class AioConnection(FramedConnection):
    """One framed TCP connection multiplexing many in-flight calls.

    Requests issued during one event-loop iteration leave in one socket
    write and every reply one socket read completes is routed in one
    callback.  While the peer is not reading (the transport's write
    buffer is over its high-water mark) new sends wait; replies are
    still read, or a server waiting for us to read would never catch up
    with our requests.

    An :meth:`acall` costs one header walk and one payload copy per
    direction: the request is framed and stamped in one buffer, the
    reply is routed and classified in one pass (:func:`~repro.runtime
    .aio.correlation.route`) and copied once more to get the caller's id
    back.  Wire ids come from this connection's counter, never from the
    caller: two proxies sharing a pool both count from 1, and a late
    reply to an expired call must not reach the next call that carries
    its id.
    """

    def __init__(self, max_record_size=MAX_RECORD_SIZE, stats=None):
        super().__init__(max_record_size, stats)
        self._pending = {}  # wire id -> on_reply(reply, offset, error, stamp)
        self._next_id = 0
        self.closed = False
        self._close_reason = None
        self._completed = 0  # calls answered over this connection
        self._writable = asyncio.Event()  # set on resume_writing
        self.orphan_replies = 0

    @classmethod
    async def open(cls, host, port, *, connect_timeout=10.0,
                   max_record_size=MAX_RECORD_SIZE, stats=None):
        loop = asyncio.get_running_loop()
        try:
            _transport, connection = await asyncio.wait_for(
                loop.create_connection(
                    lambda: cls(max_record_size, stats), host, port),
                connect_timeout,
            )
        except asyncio.TimeoutError:
            raise TransportError(
                "timed out connecting to %s:%s" % (host, port)
            ) from None
        except OSError as error:
            raise TransportError(
                "cannot connect to %s:%s: %s" % (host, port, error)
            ) from error
        return connection

    # ------------------------------------------------------------------

    @property
    def in_flight(self):
        return len(self._pending)

    def next_id(self):
        """A wire id no pending request of this connection carries.

        The counter wraps at 2^32, the width of both XID and GIOP
        request_id; the id is taken by the :meth:`submit` that follows.
        """
        while True:
            self._next_id = (self._next_id + 1) & 0xFFFFFFFF
            if self._next_id not in self._pending:
                return self._next_id

    # -- FramedConnection hooks ------------------------------------------

    def records_received(self, records):
        for record in records:
            try:
                wire_id, offset, error, stamp = route(record)
            except TransportError:
                self._count_orphan()
                continue
            on_reply = self._pending.pop(wire_id, None)
            if on_reply is None:
                # Deadline expired or the call was cancelled; drop the
                # late reply (counted so tests and diagnostics can see
                # it).
                self._count_orphan()
                continue
            self._completed += 1
            on_reply(record, offset, error, stamp)

    def framing_lost(self, error):
        # The reply stream itself is garbage; surface the structured
        # error to pending callers (it is never retried).
        self._fail_pending(
            str(error), error if isinstance(error, WireFormatError) else None
        )

    def eof_received(self):
        self._fail_pending("connection closed by peer")

    def connection_lost(self, exc):
        super().connection_lost(exc)
        self._fail_pending("connection lost: %s" % exc if exc is not None
                           else "connection closed by peer")

    def writable_changed(self):
        if self.write_paused:
            self._writable.clear()
        else:
            self._writable.set()  # wakes every sender in _hold_send

    def _count_orphan(self):
        self.orphan_replies += 1
        if self.stats is not None:
            self.stats.orphan_replies.inc()

    def _fail_pending(self, reason, wire_error=None):
        if self.closed:
            return
        self.closed = True
        self._close_reason = reason
        self._writable.set()  # held senders wake up to the closed state
        pending, self._pending = self._pending, {}
        for on_reply in pending.values():
            on_reply(None, 0, wire_error if wire_error is not None
                     else TransportError(reason), None)
        self.close()

    # ------------------------------------------------------------------

    async def _hold_send(self):
        """Hold the caller while write-paused; raise once closed."""
        while self.write_paused and not self.closed:
            await self._writable.wait()
        if not self.closed:
            return
        if self._completed:
            # The peer went away while this connection sat pooled and
            # nothing of this request was sent: the pool may redial.
            raise StaleConnectionError(
                "pooled connection to %s is dead: %s"
                % (self._peer_name(), self._close_reason)
            )
        raise TransportError(self._close_reason or "connection is closed")

    def submit(self, wire_id, record, on_reply):
        """Queue *record* — one framed request carrying *wire_id* (from
        :meth:`next_id`) — and hand what comes back to *on_reply*.

        ``on_reply(reply, offset, error, stamp)`` runs once, in this
        connection's read callback: with the reply record, the offset of
        its id and the id field's writer when the reply was routed, and
        with the :class:`RemoteCallError` it was classified as (a
        protocol error reply) or the :class:`TransportError` that ended
        the connection in *error* otherwise.  On a connection that is
        already closed it runs at once, with that error.
        """
        if self.closed:
            return on_reply(None, 0, TransportError(
                self._close_reason or "connection is closed"), None)
        self._pending[wire_id] = on_reply
        self.send_framed(record)

    async def acall(self, payload, deadline=None):
        """Send a two-way request; await and return its reply bytes, or
        raise the :class:`RemoteCallError` an error reply carries.

        :meth:`submit` plus a future: the reply gets the caller's own id
        back before the future is resolved."""
        if self.closed or self.write_paused:
            await self._hold_send()
        tracer = trace.active()
        if tracer is not None:
            parent = trace.current_span()
            if parent is not None:
                payload = propagation.inject(payload, parent)
        original_id, offset, stamp = locate(payload)
        wire_id = self.next_id()
        record = open_record(payload)
        stamp(record, HEADER_SIZE + offset, wire_id)
        future = self._loop.create_future()

        def settle(reply, reply_offset, error, reply_stamp):
            if future.done():
                return
            if error is not None:
                future.set_exception(error)
                return
            reply = bytearray(reply)
            reply_stamp(reply, reply_offset, original_id)
            future.set_result(bytes(reply))

        try:
            with NOOP if tracer is None else tracer.span(
                    "send", bytes=len(record) - HEADER_SIZE):
                self.submit(wire_id, record, settle)
            with NOOP if tracer is None else tracer.span("await.reply"):
                if deadline is None:
                    return await future
                try:
                    return await asyncio.wait_for(future, deadline)
                except asyncio.TimeoutError:
                    if self.stats is not None:
                        self.stats.deadline_expiries.inc()
                    raise DeadlineError(
                        "call exceeded its %.3fs deadline" % deadline
                    ) from None
        finally:
            self._pending.pop(wire_id, None)

    def _peer_name(self):
        peer = self.transport.get_extra_info("peername")
        return "%s:%s" % peer[:2] if peer else "peer"

    async def aclose(self):
        self._fail_pending("connection closed")
        # Let the transport run its close callback before a caller tears
        # the loop down.
        await asyncio.sleep(0)


class ConnectionPool:
    """A pool of multiplexed connections with deadlines and retries.

    Connections are created lazily up to *pool_size*; each call goes to
    the least-loaded live connection.  Failed connections are discarded
    and re-established on demand.  ``connector`` is injectable for
    tests.
    """

    def __init__(self, host, port, *, pool_size=4, connect_timeout=10.0,
                 options=None, connector=None,
                 max_record_size=MAX_RECORD_SIZE, stats=None,
                 breaker=None):
        self.host = host
        self.port = port
        self.size = max(1, pool_size)
        self.connect_timeout = connect_timeout
        self.options = options or CallOptions()
        self._connector = connector or self._default_connector
        self._max_record_size = max_record_size
        self._connections = []
        self._connect_lock = asyncio.Lock()
        self._waiters = set()  # acquire's dials
        self._closed = False
        self.stats = stats
        self.breaker = breaker
        if stats is not None:
            stats.pools.add(self)  # its occupancy gauges read us when scraped
            if breaker is not None:
                breaker.bind_stats(stats)

    async def _default_connector(self):
        return await AioConnection.open(
            self.host, self.port, connect_timeout=self.connect_timeout,
            max_record_size=self._max_record_size, stats=self.stats,
        )

    def _live(self):
        """The least-loaded live connection — or None when dialing could
        do better: none is live, or the pool is not full and none is
        idle.  Synchronous and allocation-free; a call in the steady
        state pays this and no coroutine."""
        if self._closed:
            raise TransportError("connection pool is closed")
        best, live = None, 0
        for connection in self._connections:
            if not connection.closed:
                live += 1
                if best is None or connection.in_flight < best.in_flight:
                    best = connection
        if live >= self.size or best is not None and not best.in_flight:
            return best
        return None

    async def _dial(self, parent=None):
        """Wait for the dial in progress, or dial (span ``pool.acquire``,
        under *parent* or the current span)."""
        with trace.span("pool.acquire", parent=parent):
            async with self._connect_lock:
                connection = self._live()  # one may have been dialed since
                if connection is None:
                    self._connections = [
                        live for live in self._connections if not live.closed
                    ]
                    connection = await self._connector()
                    self._connections.append(connection)
                return connection

    # -- the gateway's upstream leg ---------------------------------------

    def acquire(self, callback, parent=None):
        """Call ``callback(connection, None)`` with a connection that can
        take a request: at once when one can, else once one is dialed
        (with the options' connect retries; the dial's span goes under
        *parent*) or stops being write-paused.  ``callback(None, error)``
        gets the :class:`TransportError` that ended the wait instead;
        closing the pool ends every wait."""
        try:
            connection = self._live()
        except TransportError as error:  # the pool is closed
            return callback(None, error)
        if connection is not None and not connection.write_paused:
            return callback(connection, None)
        waiter = asyncio.get_running_loop().create_task(
            self._ready(self.options, parent))
        self._waiters.add(waiter)

        def done(waiter):
            self._waiters.discard(waiter)
            error = TransportError("connection pool is closed") \
                if waiter.cancelled() else waiter.exception()
            callback(None if error else waiter.result(), error)

        waiter.add_done_callback(done)

    async def _ready(self, options, parent=None):
        """A connection that can take a request now: a live one or a
        dial, retried per *options* like a connect failure in
        :meth:`acall`, then held while its peer is not reading."""
        last_error = None
        for attempt in range(self._attempts(options)):
            if attempt:
                await asyncio.sleep(options.retry.delay(attempt - 1))
            try:
                connection = self._live() or await self._dial(parent)
                await connection._hold_send()
                return connection
            except TransportError as error:
                last_error = error
        raise last_error

    @staticmethod
    def submit(connection, wire_id, payload, on_reply):
        """Send the two-way request *payload*, written with *wire_id*
        (``connection.next_id()``), on *connection*; see
        :meth:`AioConnection.submit` for *on_reply*."""
        connection.submit(wire_id, encode_record(payload), on_reply)

    #: ``send(connection, payload)``: the oneway request *payload*.
    send = staticmethod(FramedConnection.send_record)

    # ------------------------------------------------------------------

    def _attempts(self, options):
        if options.retry is None:
            return 1
        return max(1, options.retry.max_attempts)

    async def acall(self, payload, options=None, parent=None):
        """Two-way call with the pool's (or the given) options applied.

        *parent* optionally names the span this call nests under — the
        sync facade captures it on the caller's thread, where the proxy
        wrapper's ``call`` span lives, and hands it across the loop
        boundary explicitly (contextvars do not follow
        ``run_coroutine_threadsafe``).
        """
        tracer = trace.active()
        with NOOP if tracer is None else tracer.span(
                "transport.call", parent=parent):
            options = options or self.options
            attempts = self._attempts(options)
            stats = self.stats
            breaker = self.breaker
            last_error = None
            for attempt in range(attempts):
                if attempt:
                    if stats is not None:
                        stats.retries.inc()
                    await asyncio.sleep(options.retry.delay(attempt - 1))
                if breaker is not None and not breaker.allow():
                    if stats is not None:
                        stats.breaker_rejections.inc()
                    last_error = CircuitOpenError(
                        "circuit breaker is open; failing fast"
                    )
                    continue  # backoff, then probe again
                wrote_request = False
                try:
                    # A connection that died while pooled fails instantly at
                    # send time (StaleConnectionError: the request was never
                    # delivered).  Idempotent calls get a free immediate
                    # retry on a fresh connection — no backoff sleep, no
                    # attempt consumed, and a full per-attempt deadline —
                    # bounded by the pool size (every pooled connection
                    # could be stale after a server restart).
                    stale_budget = self.size
                    while True:
                        connection = self._live()
                        if connection is None:
                            connection = await self._dial()
                        wrote_request = True  # past here the server may run it
                        try:
                            result = await connection.acall(
                                payload, deadline=options.deadline
                            )
                        except StaleConnectionError:
                            wrote_request = False  # the send never landed
                            if options.idempotent and stale_budget > 0:
                                if stats is not None:
                                    stats.transport_errors.inc()
                                stale_budget -= 1
                                continue
                            raise  # the outer handler counts and classifies
                        break
                    if breaker is not None:
                        breaker.record_success()
                    return result
                except DeadlineError as error:
                    if breaker is not None:
                        breaker.record_failure()
                    # By default an expired deadline spends the whole call's
                    # budget; retry_deadlines opts idempotent calls into
                    # per-attempt deadlines (lossy-network tolerance).
                    if not (options.retry_deadlines and options.idempotent):
                        raise
                    last_error = error
                except WireFormatError:
                    # The peer answered with bytes that violate the
                    # protocol; the same request fails the same way, so
                    # retrying buys nothing — surface it immediately.
                    if breaker is not None:
                        breaker.record_failure()
                    if stats is not None:
                        stats.wire_format_errors.inc()
                    raise
                except RemoteCallError as error:
                    # A protocol-level error *reply* (GARBAGE_ARGS, MARSHAL,
                    # ...), classified by the connection as it routed it:
                    # the request never reached the servant and the peer is
                    # healthy (it parsed and answered), so the breaker sees
                    # success and idempotent calls may retry (the request
                    # bytes may have been damaged in transit) instead of
                    # failing in the stub.
                    if breaker is not None:
                        breaker.record_success()
                    if stats is not None:
                        stats.remote_errors.inc()
                    last_error = error
                    if not options.idempotent:
                        raise
                except TransportError as error:
                    if breaker is not None:
                        breaker.record_failure()
                    last_error = error
                    if stats is not None:
                        stats.transport_errors.inc()
                    # Connect failures are always retryable (nothing was
                    # sent); post-send failures only for idempotent calls.
                    if wrote_request and not options.idempotent:
                        raise
            raise last_error

    async def asend(self, payload, options=None):
        """Oneway send; always retryable (the issue's oneway semantics)."""
        connection = await self._ready(options or self.options)
        parent = trace.current_span()
        if parent is not None:
            payload = propagation.inject(payload, parent)
        with trace.span("send", bytes=len(payload)):
            connection.send_record(payload)

    async def aclose(self):
        self._closed = True
        if self._waiters:
            for waiter in self._waiters:
                waiter.cancel()
            await asyncio.wait(self._waiters)
        connections, self._connections = self._connections, []
        for connection in connections:
            await connection.aclose()

    @property
    def open_connections(self):
        return sum(
            1 for connection in self._connections if not connection.closed
        )

    @property
    def in_flight(self):
        """Requests awaiting replies on the pool's live connections."""
        return sum(
            connection.in_flight for connection in self._connections
            if not connection.closed
        )


class _EventLoopThread:
    """A lazily-created background event loop shared by sync facades."""

    _shared = None
    _shared_lock = threading.Lock()

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="flick-aio-client", daemon=True
        )
        self._thread.start()

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def run(self, coroutine, timeout=None):
        """Run *coroutine* on the loop; block for (and return) its result."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        try:
            return future.result(timeout)
        except asyncio.TimeoutError:
            raise DeadlineError("call timed out") from None

    @classmethod
    def shared(cls):
        with cls._shared_lock:
            if cls._shared is None or not cls._shared._thread.is_alive():
                cls._shared = cls()
            return cls._shared


class AioClientTransport(Transport):
    """A synchronous Transport backed by the concurrent runtime.

    Drop-in for :class:`~repro.runtime.socket_transport.TcpClientTransport`
    — generated proxies work unchanged — but safe to share across threads:
    concurrent calls multiplex over a pool of connections instead of
    serializing.  Per-call deadlines and retry policy come from
    :class:`~repro.runtime.aio.options.CallOptions`; :meth:`options`
    derives a view with different options over the same pool.
    """

    def __init__(self, host, port, *, pool_size=1, options=None,
                 deadline=None, connect_timeout=10.0, loop_thread=None,
                 stats=None, breaker=None,
                 max_record_size=MAX_RECORD_SIZE):
        self._runner = loop_thread or _EventLoopThread.shared()
        options = options or CallOptions()
        if deadline is not None:
            # The common case deserves a direct spelling: a per-call
            # deadline without constructing CallOptions by hand.
            options = options.but(deadline=deadline)
        self._options = options
        self.stats = stats
        self._pool = ConnectionPool(
            host, port, pool_size=pool_size,
            connect_timeout=connect_timeout, options=self._options,
            max_record_size=max_record_size, stats=stats, breaker=breaker,
        )

    # The Transport interface --------------------------------------------

    def call(self, request):
        # Capture the caller-thread span (the proxy wrapper's "call")
        # here; the coroutine runs on the loop thread where the caller's
        # contextvars are invisible.
        return self._runner.run(
            self._pool.acall(bytes(request), self._options,
                             parent=trace.current_span())
        )

    def send(self, request):
        self._runner.run(self._pool.asend(bytes(request), self._options))

    def close(self):
        self._runner.run(self._pool.aclose())

    # Extras -------------------------------------------------------------

    def options(self, **changes):
        """A view over the same pool with changed :class:`CallOptions`.

        Example: ``client = Client(transport.options(deadline=0.2,
        idempotent=True))``.
        """
        return _OptionedTransport(self, self._options.but(**changes))

    @property
    def pool(self):
        """The underlying :class:`ConnectionPool` (async-native access)."""
        return self._pool


class _OptionedTransport(Transport):
    """A shallow view of an :class:`AioClientTransport` with its own
    :class:`CallOptions`; shares the pool and connections."""

    def __init__(self, base, options):
        self._base = base
        self._options = options

    def call(self, request):
        return self._base._runner.run(
            self._base._pool.acall(bytes(request), self._options,
                                   parent=trace.current_span())
        )

    def send(self, request):
        self._base._runner.run(
            self._base._pool.asend(bytes(request), self._options)
        )

    def close(self):
        """Closing a view is a no-op; close the base transport instead."""

    def options(self, **changes):
        return _OptionedTransport(self._base, self._options.but(**changes))
