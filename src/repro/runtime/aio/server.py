"""The asyncio RPC server: concurrent serving of generated stub modules.

:class:`AioTcpServer` serves the *same* generated ``dispatch`` functions
and the *same* record-marked wire traffic as the blocking
:class:`~repro.runtime.socket_transport.TcpServer`, but concurrently:

* many connections multiplex onto one event loop, each one a
  :class:`~repro.runtime.aio.framed.FramedConnection`: one socket read
  admits every record it completed, and the replies finished during one
  loop iteration leave in one socket write;
* many requests per connection run **in flight at once** (pipelining) —
  replies carry the protocol's own correlation id (ONC XID / GIOP
  request_id, echoed by the generated dispatch), so they may legally
  complete out of order and blocking clients still interoperate because a
  serial client only ever has one id outstanding;
* each dispatch runs either on a worker thread (safe for blocking
  servants; see :class:`_Workers` for the hand-off) or inline on the
  loop (fastest for CPU-light servants); an admitted record costs no
  Task either way.  The protocol gateway is an inline server whose
  :meth:`AioTcpServer._inline` forwards the record upstream instead and
  finishes it from the upstream connection's read callback;
* *max_concurrency* caps in-flight requests: records beyond it wait in
  their connection's backlog and that connection is not read, so TCP
  flow control pushes back on aggressive clients; a peer that does not
  read its replies is likewise neither read nor served;
* shutdown is graceful: stop accepting, drain in-flight requests with a
  timeout, then close connections.

The server is usable from asyncio code (``await server.start_async()`` /
``await server.aclose()``) and from synchronous code (``start()`` /
``stop()`` / ``with server:`` run the event loop on a daemon thread),
mirroring the blocking servers' context-manager idiom.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from queue import SimpleQueue

from repro.encoding.buffer import MarshalBuffer
from repro.errors import OverloadError
from repro.obs import trace
from repro.runtime.framing import MAX_RECORD_SIZE
from repro.runtime.request import RequestCore
from repro.runtime.aio.framed import FramedConnection

#: Marshal buffers retained per pool for reuse across requests.
BUFFER_POOL_LIMIT = 32

#: A buffer that grew beyond this is dropped instead of pooled
#: (``reset()`` keeps capacity, so one huge reply would otherwise stay
#: pinned for the life of the pool).
POOLED_BUFFER_MAX = 1 << 20


class BufferPool:
    """A small free list of :class:`MarshalBuffer` objects."""

    __slots__ = ("_free",)

    def __init__(self):
        self._free = []

    def take(self):
        return self._free.pop() if self._free else MarshalBuffer()

    def give(self, buffer):
        if (len(self._free) < BUFFER_POOL_LIMIT
                and len(buffer.data) <= POOLED_BUFFER_MAX):
            buffer.reset()
            self._free.append(buffer)

    @property
    def retained_bytes(self):
        return sum(len(buffer.data) for buffer in self._free)


class _Workers:
    """The loop -> worker direction of ``thread`` mode's hand-off.

    A job is the argument tuple of *work* (``AioTcpServer._work``), put
    on one :class:`~queue.SimpleQueue`; a worker gets it and calls
    *work* with it, and *work* itself hands the result back to the loop
    through the server's completions deque.  Nothing is built per job:
    :meth:`submit` is one C-level ``put`` plus, under one raw lock that
    only a worker between two jobs contends for, the claim of an idle
    worker.  What a thread pool would give is kept:

    * threads start lazily — only when a job is queued and no worker is
      idle — and never more than *limit* (the server's
      ``max_concurrency``), so while fewer than *limit* workers are
      busy a servant that blocks delays no other admitted record;
    * the queue is first-in first-out and :meth:`close` queues its stop
      marks behind every job, so a job queued before shutdown is still
      served;
    * threads are named ``flick-aio_<n>``.

    Workers are daemon threads, like the loop thread and the blocking
    server's connection threads: :meth:`close` wakes every parked one,
    so none outlives the server unless it is inside a servant, and one
    that is cannot keep the process alive.
    """

    __slots__ = ("_work", "_limit", "_jobs", "_lock", "_idle", "_threads")

    def __init__(self, work, limit):
        self._work = work
        self._limit = limit
        self._jobs = SimpleQueue()
        self._lock = threading.Lock()
        self._idle = 0      # workers done with a job and not yet claimed
        self._threads = []

    def submit(self, job):
        """Queue *job*; called on the loop thread only."""
        self._jobs.put(job)
        with self._lock:
            if self._idle:
                self._idle -= 1
                return
        if len(self._threads) < self._limit:
            thread = threading.Thread(
                target=self._run, daemon=True,
                name="flick-aio_%d" % len(self._threads))
            self._threads.append(thread)
            thread.start()

    def _run(self):
        get, work, lock = self._jobs.get, self._work, self._lock
        while True:
            job = get()
            if job is None:
                return
            work(*job)
            with lock:
                self._idle += 1

    def close(self):
        """Stop every worker once the jobs queued so far are served."""
        for _ in self._threads:
            self._jobs.put(None)


class _Connection(FramedConnection):
    """Per-connection serving state.

    A connection is **read** only while it is writable, has no backlog,
    is not held by an injected delay and is not finishing; it is
    **closed** once it is finishing and idle.  :meth:`sync` is the one
    place that applies this rule.
    """

    __slots__ = ("server", "buffers", "backlog", "queued", "active",
                 "finishing", "deliveries", "held")

    def __init__(self, server):
        super().__init__(server.max_record_size, server.stats)
        self.server = server
        self.buffers = BufferPool()
        self.backlog = deque()     # admitted records waiting for a slot
        self.queued = False        # listed in server._waiting
        self.active = 0            # records started and not yet finished
        self.finishing = False     # read no more; close when idle
        self.deliveries = deque()  # chaos path: behind an injected delay
        self.held = False          # ... which is running now

    def connection_made(self, transport):
        super().connection_made(transport)
        self.server._connections.add(self)
        if self.server._closing:
            self.finish()

    def records_received(self, records):
        self.server._admit(self, records)
        self.sync()

    def framing_lost(self, error):
        if self.stats is not None:
            self.stats.malformed.inc()
        self.finish()

    def eof_received(self):
        # Half-close: the peer may still be waiting on in-flight replies
        # after shutting down its write side, so keep the transport open.
        self.finish()
        return True

    def writable_changed(self):
        self.sync()
        if not self.write_paused:
            self.server._resume(self)

    def connection_lost(self, exc):
        super().connection_lost(exc)
        self.server._forget(self)

    def finish(self):
        """Read nothing more; close once the in-flight replies are out."""
        self.finishing = True
        self.sync()

    def sync(self):
        busy = self.active or self.backlog or self.held
        if self.finishing and not busy:
            self.close()
        elif self.finishing or self.write_paused or self.backlog \
                or self.held:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()


class AioTcpServer:
    """An asyncio server around a generated dispatch function.

    Args:
        dispatch: the stub module's ``dispatch(request, impl, buffer)``.
        impl: the servant.
        host, port: bind address; port 0 picks a free port.
        max_concurrency: cap on server-wide in-flight requests; reading
            stops while the cap is reached (backpressure).
        dispatch_mode: ``"thread"`` (default) runs each dispatch on one
            of up to *max_concurrency* worker threads so blocking
            servants still interleave; ``"inline"`` runs dispatch
            directly on the event loop — fastest when servants never
            block.
        stats: an optional :class:`~repro.runtime.aio.stats.ServerStats`.
        op_names: optional mapping from demux keys to display names for
            stats (see :func:`repro.runtime.server.operation_names`).
        drain_timeout: seconds granted to in-flight requests at shutdown.
        max_record_size: per-record framing limit.
        error_encoder: the stub module's ``encode_error_reply(request,
            error, buffer)``.  When present, malformed requests and
            servant crashes are answered with protocol-correct error
            replies instead of dropping the connection; without it the
            historical close-on-error behaviour is kept.
        max_pending: overload bound — when all *max_concurrency* slots
            are busy, at most this many further requests wait for one;
            beyond that requests are shed with a protocol error reply
            (``None`` queues unboundedly via backpressure).
        fault_plan: an optional :class:`repro.faults.FaultPlan` applied
            to inbound requests (chaos testing of this server's clients).
        listen_sock: an already-bound ``socket.socket`` to accept on
            instead of binding *host*/*port* — how supervised workers
            share one address (their own ``SO_REUSEPORT`` socket, or a
            listener inherited from the parent process).
    """

    def __init__(self, dispatch, impl, host="127.0.0.1", port=0, *,
                 max_concurrency=64, dispatch_mode="thread", stats=None,
                 op_names=None, drain_timeout=5.0,
                 max_record_size=MAX_RECORD_SIZE, error_encoder=None,
                 max_pending=None, fault_plan=None, listen_sock=None):
        if dispatch_mode not in ("thread", "inline"):
            raise ValueError(
                "dispatch_mode must be 'thread' or 'inline', not %r"
                % (dispatch_mode,)
            )
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1, not %r"
                             % (max_concurrency,))
        self._core = RequestCore(dispatch, impl, stats=stats,
                                 op_names=op_names,
                                 error_encoder=error_encoder)
        self._host = host
        self._port = port
        self.max_concurrency = max_concurrency
        self.dispatch_mode = dispatch_mode
        self.stats = stats
        self.drain_timeout = drain_timeout
        self.max_record_size = max_record_size
        self.max_pending = max_pending
        self.fault_plan = fault_plan
        self.listen_sock = listen_sock
        self._injector = None
        self.address = None
        # Async state (valid between start_async and aclose).
        self._server = None
        self._loop = None
        self._workers = None       # thread mode, while serving
        self._connections = set()
        self._active = 0           # records started and not yet finished
        self._pending = 0          # records waiting in some backlog
        self._waiting = deque()    # connections whose backlog may start
        self._starting = False     # _start_backlog is on the stack
        self._completions = deque()  # finished jobs, worker -> loop
        self._wake_posted = False
        self._idle = None          # aclose's drain waiter
        self._closing = False
        # Sync-facade state.
        self._thread = None
        self._stop_event = None
        self._start_error = None

    # ------------------------------------------------------------------
    # Async API
    # ------------------------------------------------------------------

    async def start_async(self):
        """Bind and start accepting; returns self."""
        self._loop = asyncio.get_running_loop()
        if self.fault_plan is not None:
            self._injector = self.fault_plan.injector()
        if self.dispatch_mode == "thread":
            self._workers = _Workers(self._work, self.max_concurrency)
        self._closing = False
        if self.listen_sock is not None:
            where = {"sock": self.listen_sock}
        else:
            where = {"host": self._host, "port": self._port}
        self._server = await self._loop.create_server(
            lambda: _Connection(self), **where
        )
        self.address = self._server.sockets[0].getsockname()
        return self

    @property
    def accepting(self):
        """True while the listener is open and not draining."""
        return self._server is not None and not self._closing

    @property
    def in_flight(self):
        """Requests currently being served (draining waits on these)."""
        return self._active

    async def drain_async(self):
        """Stop accepting new connections; keep in-flight work running.

        The first half of :meth:`aclose`, exposed separately so a
        supervised worker can refuse new accepts the moment a rollout
        (or SIGTERM) arrives, finish its in-flight replies, and only
        then tear connections down.
        """
        self._closing = True
        if self._server is not None:
            # A socket accepted during this turn of the loop becomes a
            # transport in the next; asyncio leaks it if the listener is
            # closed in between.
            await asyncio.sleep(0)
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def aclose(self, drain=True):
        """Graceful shutdown: refuse new work, drain in-flight, close."""
        await self.drain_async()
        if drain:
            # Connections read nothing more and close themselves once
            # their replies are out; wait for the last record to finish.
            for connection in list(self._connections):
                connection.finish()
            if self._active:
                self._idle = self._loop.create_future()
                await asyncio.wait([self._idle], timeout=self.drain_timeout)
                self._idle = None
        for connection in list(self._connections):
            connection.close()
        # Closing takes a turn of the loop; a transport whose peer does
        # not read would wait on its buffer forever, so what is still
        # here after that turn is aborted.
        await asyncio.sleep(0)
        for connection in list(self._connections):
            connection.transport.abort()
        if self._workers is not None:
            self._workers.close()
            self._workers = None

    async def __aenter__(self):
        return await self.start_async()

    async def __aexit__(self, exc_type, exc_value, traceback):
        await self.aclose()
        return False

    # ------------------------------------------------------------------
    # Admission: fault injection, overload shedding, the concurrency cap
    # ------------------------------------------------------------------

    def _admit(self, connection, records):
        """Admit every record one socket read completed, in wire order."""
        if self._injector is None:
            for record in records:
                self._admit_one(connection, record)
            return
        for record in records:
            outcome = self._injector.on_message(record)
            if outcome.reset:
                connection.deliveries.append(None)
                break
            connection.deliveries.extend(outcome.deliveries)
        if not connection.held:
            self._deliver(connection)

    def _deliver(self, connection, delayed=None):
        """Chaos path: admit queued deliveries up to the next delay.

        A delayed delivery holds back everything behind it on its
        connection (head-of-line, as on a slow wire): the connection is
        not read and the queue resumes here when the timer fires.
        """
        if delayed is not None:
            connection.held = False
            self._admit_one(connection, delayed)
        deliveries = connection.deliveries
        while deliveries and not connection.transport.is_closing():
            delivery = deliveries.popleft()
            if delivery is None:  # injected connection reset
                deliveries.clear()
                connection.finish()
                return
            if delivery.delay_s:
                connection.held = True
                self._loop.call_later(delivery.delay_s, self._deliver,
                                      connection, delivery.payload)
                break
            self._admit_one(connection, delivery.payload)
        connection.sync()

    def _admit_one(self, connection, record):
        """Start, queue or shed one record."""
        if (self._active < self.max_concurrency and not connection.backlog
                and not connection.write_paused):
            self._start(connection, record)
        elif (self.max_pending is not None
                and self._pending >= self.max_pending):
            if self.stats is not None:
                self.stats.shed.inc()
            buffer = connection.buffers.take()
            if self._core.error_reply(
                    record, OverloadError("server overloaded; try again"),
                    buffer):
                connection.send_record(buffer.view())
            connection.buffers.give(buffer)
        else:
            # Backpressure: the record waits for a slot and, until its
            # backlog is empty again, this connection is not read.
            connection.backlog.append(record)
            self._pending += 1
            self._resume(connection)

    def _resume(self, connection):
        """List *connection* for a slot if its backlog may start now."""
        if (connection.backlog and not connection.queued
                and not connection.write_paused):
            connection.queued = True
            self._waiting.append(connection)
            self._start_backlog()

    def _forget(self, connection):
        self._connections.discard(connection)
        self._pending -= len(connection.backlog)
        connection.backlog.clear()
        connection.deliveries.clear()

    def _start_backlog(self):
        """Give free slots to waiting connections, one record a turn."""
        if self._starting:
            return  # an inline _finish below re-entered; the loop goes on
        self._starting = True
        try:
            waiting = self._waiting
            while waiting and self._active < self.max_concurrency:
                connection = waiting.popleft()
                connection.queued = False
                if connection.write_paused or not connection.backlog:
                    continue  # relisted by _resume once writable again
                self._pending -= 1
                self._start(connection, connection.backlog.popleft())
                if connection.backlog:
                    connection.queued = True
                    waiting.append(connection)
                else:
                    connection.sync()
        finally:
            self._starting = False

    # ------------------------------------------------------------------
    # Serving one admitted record
    # ------------------------------------------------------------------

    def _start(self, connection, record):
        self._active += 1
        connection.active += 1
        ticket = self._core.begin(record)
        buffer = connection.buffers.take()
        if self._workers is not None:
            self._workers.submit((connection, record, buffer, ticket))
        else:
            self._inline(connection, record, buffer, ticket)

    def _inline(self, connection, record, buffer, ticket):
        """Serve one started record on the loop, now."""
        self._finish(connection, buffer,
                     self._core.serve(record, buffer, ticket), ticket)

    def _work(self, connection, record, buffer, ticket):
        """One worker job: serve, then hand the result to the loop.

        Whatever the core does not settle itself (a ``BaseException``
        that is neither ``Exception`` nor ``SystemExit``) is handed over
        too, as a record that has no reply and closes its connection:
        the slot is freed and the worker lives on.

        No lock: ``deque.append`` is atomic, and the flag is read *after*
        the append while :meth:`_drain_completions` clears it *before*
        counting what to pop — so a completion appended under a set flag
        is counted by the drain that flag stands for, and a worker that
        sees it clear posts a wake-up of its own (two workers may both
        do so; a drain that finds nothing is harmless).
        """
        try:
            served = self._core.serve(record, buffer, ticket)
        except BaseException as error:
            served = False, False, error
        self._completions.append((connection, buffer, served, ticket))
        if not self._wake_posted:
            self._wake_posted = True
            try:
                self._loop.call_soon_threadsafe(self._drain_completions)
            except RuntimeError:
                # The loop closed after aclose gave up on this job; a
                # restarted server finishes it with its first drain.
                self._wake_posted = False

    def _drain_completions(self):
        self._wake_posted = False
        completions = self._completions
        # Only what is here now: jobs these finishes start may complete
        # while this runs, and their replies (and everyone else's reads
        # and writes) are due a turn of the loop first.
        for _ in range(len(completions)):
            self._finish(*completions.popleft())

    def _finish(self, connection, buffer, served, ticket):
        """The one end of every admitted record, whatever served it.

        *served* is what the request core's ``serve`` returned.  Sends
        the reply if it says so, closes if it says so, returns the
        buffer, frees the slot and lets the backlog use it.
        """
        has_reply, keep_open, _error = served
        if has_reply:
            if ticket is None:
                connection.send_record(buffer.view())
            else:
                with trace.span("write", parent=ticket.span,
                                bytes=buffer.length + 4):
                    connection.send_record(buffer.view())
        if not keep_open:
            connection.close()
        self._core.end(ticket)
        connection.buffers.give(buffer)
        self._active -= 1
        connection.active -= 1
        if self._waiting:
            self._start_backlog()
        if connection.finishing:
            connection.sync()
        if self._idle is not None and not self._active \
                and not self._idle.done():
            self._idle.set_result(None)

    # ------------------------------------------------------------------
    # Sync facade (event loop on a daemon thread)
    # ------------------------------------------------------------------

    def start(self):
        """Start serving on a background event-loop thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        started = threading.Event()
        self._start_error = None

        def run():
            # asyncio.run, not a bare loop: once serving ends it sees
            # late accepts and closing transports through before the
            # loop is closed under them.
            try:
                asyncio.run(self._run_on_thread(started))
            finally:
                started.set()  # in case startup itself failed

        self._thread = threading.Thread(
            target=run, name="flick-aio-server", daemon=True
        )
        self._thread.start()
        started.wait()
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._thread.join()
            self._thread = None
            raise error
        return self

    async def _run_on_thread(self, started):
        self._stop_event = asyncio.Event()
        try:
            await self.start_async()
        except Exception as error:  # surfaced by start()
            self._start_error = error
            return
        finally:
            started.set()
        await self._stop_event.wait()
        await self.aclose()

    def drain(self, timeout=None):
        """Bounded graceful drain (the SIGTERM path).

        :meth:`stop` already refuses new work and drains in-flight
        requests (``aclose`` grants them *drain_timeout* seconds); this
        alias gives every server the same drain verb.
        """
        self.stop(timeout=timeout)

    def stop(self, timeout=None):
        """Gracefully stop a server started with :meth:`start`."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(
            timeout=timeout if timeout is not None
            else self.drain_timeout + 5.0
        )
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False
