"""Real socket transports: TCP (with record framing) and UDP.

These carry generated messages over the loopback (or any) network for the
examples and integration tests.  TCP framing follows ONC RPC's record
marking convention (RFC 1831 section 10) via the shared codec in
:mod:`repro.runtime.framing`.  UDP sends each message as one datagram.

The two servers are blocking I/O drivers of one
:class:`~repro.runtime.request.RequestCore`: they read a record, apply
the fault plan if there is one, and write or close as the core says —
what a failed request means is not decided here.

Both servers shut down gracefully: ``stop()`` closes the listening socket
(refusing new work), unblocks every worker, and joins all threads with a
timeout, so tests and examples do not leak threads.
"""

from __future__ import annotations

import collections
import socket
import threading
import time

from repro.errors import TransportError, WireFormatError
from repro.encoding.buffer import MarshalBuffer
from repro.obs import propagation, trace
from repro.runtime.framing import (
    MAX_RECORD_SIZE,
    RecordDecoder,
    encode_record,
)
from repro.runtime.request import RequestCore
from repro.runtime.transport import Transport

MAX_UDP_SIZE = 65000


def _inject_current_trace(payload):
    """Weave the caller's span into *payload* when tracing is on."""
    if trace.active() is not None:
        parent = trace.current_span()
        if parent is not None:
            return propagation.inject(payload, parent)
    return payload


class _RecordStream:
    """One blocking connection's records: the pull driver of a
    :class:`~repro.runtime.framing.RecordDecoder`.

    :meth:`read` asks the socket for what the decoder says it wants next
    (a full read between records, so a small record costs one ``recv``;
    inside a large one exactly what it still lacks), and keeps the records
    a read completed beyond the first for the calls that follow.

    The first read that fails — an error, a deadline, a peer that hangs
    up or breaks framing — closes the socket, and every later
    :meth:`read` or :meth:`write` raises a :class:`TransportError` naming
    that first cause: what arrives after it belongs to no call still
    waiting.
    """

    __slots__ = ("_sock", "_decoder", "_ready", "error")

    def __init__(self, sock, max_record_size=MAX_RECORD_SIZE):
        self._sock = sock
        self._decoder = RecordDecoder(max_record_size)
        self._ready = collections.deque()
        self.error = None

    def write(self, payload):
        """Send *payload* (bytes-like) as one record."""
        try:
            self._sock.sendall(encode_record(payload))
        except OSError as error:
            if self.error is None:
                raise
            raise self._fail(error) from error

    def read(self):
        """The next record, blocking until it is complete."""
        ready = self._ready
        if ready:
            return ready.popleft()
        decoder = self._decoder
        while True:
            try:
                chunk = self._sock.recv(decoder.read_hint)
            except OSError as error:
                raise self._fail(TransportError(
                    "connection error while reading %s: %s"
                    % (decoder.waiting_for()[0], error))) from error
            if not chunk:
                what, received, wanted = decoder.waiting_for()
                raise self._fail(TransportError(
                    "connection closed mid-%s: got %d of %d bytes"
                    % (what, received, wanted) if received
                    else "connection closed mid-%s" % what))
            try:
                records = decoder.feed(chunk)
            except WireFormatError as error:
                raise self._fail(error)
            if records:
                if len(records) > 1:
                    ready.extend(records[1:])
                return records[0]

    def _fail(self, error):
        """Close on the first failure and return *error*; afterwards
        return the error that names that first one instead."""
        if self.error is None:
            self.error = error
            self._sock.close()
            return error
        return TransportError(
            "connection closed after an earlier failure: %s" % self.error)


def _check_udp_size(payload):
    if len(payload) > MAX_UDP_SIZE:
        raise TransportError(
            "message of %d bytes exceeds the %d-byte UDP datagram limit;"
            " use a TCP transport for large messages"
            % (len(payload), MAX_UDP_SIZE)
        )
    return payload


def _faulted(injector, record):
    """What *injector*'s fault plan delivers of one inbound *record*:
    payloads in delivery order, each after its injected delay.  An
    injected connection reset raises :class:`ConnectionResetError`."""
    outcome = injector.on_message(record)
    if outcome.reset:
        raise ConnectionResetError("injected by the fault plan")
    for delivery in outcome.deliveries:
        if delivery.delay_s:
            time.sleep(delivery.delay_s)
        yield delivery.payload


def _serve(core, record, buffer, write):
    """Drive one *record* through *core* on the calling thread.

    *write* puts ``buffer.view()`` on the wire.  Returns False when the
    connection must close: the core said so, or the write failed.
    """
    ticket = core.begin(record)
    has_reply, keep_open, _error = core.serve(record, buffer, ticket)
    if has_reply:
        try:
            if ticket is None:
                write(buffer.view())
            else:
                with trace.span("write", parent=ticket.span):
                    write(buffer.view())
        except OSError:
            keep_open = False
    core.end(ticket)
    return keep_open


class TcpClientTransport(Transport):
    """A framed TCP connection to a :class:`TcpServer`.

    *deadline* bounds each blocking receive (and, unless
    *connect_timeout* is given, the connect), in seconds — the same
    vocabulary as :class:`~repro.runtime.aio.client.AioClientTransport`.
    """

    def __init__(self, host, port, *, deadline=10.0,
                 connect_timeout=None):
        if connect_timeout is None:
            connect_timeout = deadline
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._sock.settimeout(deadline)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = _RecordStream(self._sock)

    def call(self, request):
        stream = self._stream
        if trace.active() is None:
            stream.write(request)
            return stream.read()
        self._traced_send(request)
        with trace.span("await.reply"):
            return stream.read()

    def send(self, request):
        if trace.active() is None:
            self._stream.write(request)
        else:
            self._traced_send(request)

    def _traced_send(self, request):
        payload = _inject_current_trace(bytes(request))
        with trace.span("send", bytes=len(payload)):
            self._stream.write(payload)

    def close(self):
        self._sock.close()


class TcpServer:
    """A threaded TCP server around a generated dispatch function.

    Each connection is served on its own thread; requests are dispatched
    in order per connection, matching ONC RPC over TCP semantics.

    *stats* (an optional :class:`~repro.runtime.aio.stats.ServerStats`)
    records one observation per request, the same way the asyncio server
    does; *op_names* maps demux keys to display names for it.

    *error_encoder* (the stub module's ``encode_error_reply``) turns
    malformed requests and servant crashes into protocol error replies;
    without it both drop the connection (the historical behaviour).
    *fault_plan* (a :class:`repro.faults.FaultPlan`) injects faults into
    inbound requests for chaos testing.
    """

    def __init__(self, dispatch, impl, host="127.0.0.1", port=0, *,
                 stats=None, op_names=None, error_encoder=None,
                 fault_plan=None, max_record_size=MAX_RECORD_SIZE):
        self._core = RequestCore(dispatch, impl, stats=stats,
                                 op_names=op_names,
                                 error_encoder=error_encoder)
        self.stats = stats
        self._fault_plan = fault_plan
        self._max_record_size = max_record_size
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address = self._listener.getsockname()
        self._running = False
        self._draining = False
        self._thread = None
        self._lock = threading.Lock()
        self._workers = []
        self._connections = set()
        self._busy = set()  # connections currently serving a request

    def start(self):
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()
        return self

    def _accept_loop(self):
        while self._running:
            try:
                connection, _peer = self._listener.accept()
            except OSError:
                return
            with self._lock:
                if not self._running:
                    connection.close()
                    return
                self._connections.add(connection)
                self._workers = [
                    worker for worker in self._workers if worker.is_alive()
                ]
                worker = threading.Thread(
                    target=self._serve_connection, args=(connection,),
                    daemon=True,
                )
                self._workers.append(worker)
            worker.start()

    def _serve_connection(self, connection):
        core = self._core
        buffer = MarshalBuffer()
        injector = (
            self._fault_plan.injector() if self._fault_plan is not None
            else None
        )
        stream = _RecordStream(connection, self._max_record_size)
        write = stream.write
        try:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                if self._draining:
                    return
                try:
                    request = stream.read()
                except WireFormatError:
                    # Framing lost sync: nothing downstream can be
                    # trusted, so the only safe answer is a close.
                    if self.stats is not None:
                        self.stats.malformed.inc()
                    return
                except TransportError:
                    return
                # From here until the reply is written this connection is
                # in flight: drain() leaves it alone (its reply must be
                # delivered) and the loop exits before the *next* recv.
                with self._lock:
                    self._busy.add(connection)
                try:
                    if injector is None:
                        keep_open = _serve(core, request, buffer, write)
                    else:
                        keep_open = all(
                            _serve(core, record, buffer, write)
                            for record in _faulted(injector, request))
                    if not keep_open:
                        return
                finally:
                    with self._lock:
                        self._busy.discard(connection)
        except OSError:  # an injected connection reset included
            pass
        finally:
            with self._lock:
                self._connections.discard(connection)
                self._busy.discard(connection)
            connection.close()

    def drain(self, timeout=5.0):
        """Graceful bounded drain: refuse new work, deliver in-flight
        replies, then close.

        The SIGTERM path (``flick serve`` wires it up): the listener
        closes immediately (new connects are refused), idle connections
        are shut down, and connections mid-request get up to *timeout*
        seconds to finish — their replies are written before the close.
        Always leaves the server fully stopped.
        """
        deadline = time.monotonic() + timeout
        self._draining = True
        self._running = False
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            idle = [connection for connection in self._connections
                    if connection not in self._busy]
            workers = list(self._workers)
        for connection in idle:
            # Wake the worker blocked in recv() with EOF; its write side
            # stays open in case a request just landed (the reply must
            # still go out).
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(
                timeout=max(0.0, deadline - time.monotonic()))
            self._thread = None
        for worker in workers:
            worker.join(timeout=max(0.05, deadline - time.monotonic()))
        # Anything still alive overran the drain budget: hard stop.
        self.stop(timeout=0.5)

    def stop(self, timeout=2.0):
        """Close the listener, unblock workers, and join all threads."""
        self._running = False
        try:
            # shutdown() before close(): a close alone does not wake a
            # thread blocked in accept() — the in-progress syscall keeps
            # the kernel socket alive, silently accepting connections.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            connections = list(self._connections)
            workers = list(self._workers)
        for connection in connections:
            # Shut down rather than close: wakes a worker blocked in
            # recv() with EOF instead of racing its file descriptor.
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        for worker in workers:
            worker.join(timeout=timeout)
        with self._lock:
            self._workers = []

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False


class UdpClientTransport(Transport):
    """Datagram transport; one message per datagram, like ONC over UDP.

    *deadline* bounds each blocking receive, in seconds.
    """

    def __init__(self, host, port, *, deadline=10.0):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.settimeout(deadline)
        self._address = (host, port)

    def call(self, request):
        self.send(request)
        with trace.span("await.reply"):
            reply, _peer = self._sock.recvfrom(65536)
        return reply

    def send(self, request):
        if trace.active() is None:
            self._sock.sendto(_check_udp_size(request), self._address)
            return
        payload = _check_udp_size(_inject_current_trace(bytes(request)))
        with trace.span("send", bytes=len(payload)):
            self._sock.sendto(payload, self._address)

    def close(self):
        self._sock.close()


class UdpServer:
    """A single-threaded UDP server around a generated dispatch.

    Takes the same optional *stats*/*op_names*/*error_encoder*/
    *fault_plan* as :class:`TcpServer`.  The serve loop never dies on a
    hostile datagram: malformed requests and servant crashes are
    answered with protocol error replies when an *error_encoder* is
    available and silently dropped otherwise (matching UDP loss
    semantics).  A fault plan's connection-reset outcome likewise
    degrades to a drop — UDP has no connection to reset.
    """

    def __init__(self, dispatch, impl, host="127.0.0.1", port=0, *,
                 stats=None, op_names=None, error_encoder=None,
                 fault_plan=None):
        self._core = RequestCore(dispatch, impl, stats=stats,
                                 op_names=op_names,
                                 error_encoder=error_encoder)
        self.stats = stats
        self._fault_plan = fault_plan
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self.address = self._sock.getsockname()
        self._running = False
        self._thread = None

    def start(self):
        self._running = True
        self._sock.settimeout(0.2)
        self._thread = threading.Thread(target=self._serve_loop, daemon=True)
        self._thread.start()
        return self

    def _serve_loop(self):
        core = self._core
        buffer = MarshalBuffer()
        injector = (
            self._fault_plan.injector() if self._fault_plan is not None
            else None
        )
        peer = None  # of the datagram being served; write() reads it

        def write(view):
            # A reply too large for one datagram is dropped rather than
            # sent (the client's recv times out, mirroring UDP loss).
            if len(view) <= MAX_UDP_SIZE:
                self._sock.sendto(view, peer)

        while self._running:
            try:
                request, peer = self._sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            # What the core says about the connection is moot: there is
            # none to keep, close or (when the fault plan says) reset.
            try:
                for record in ((request,) if injector is None
                               else _faulted(injector, request)):
                    _serve(core, record, buffer, write)
            except ConnectionResetError:
                pass

    def drain(self, timeout=5.0):
        """Bounded graceful drain (the SIGTERM path).

        The serve loop is single-threaded and checks ``_running`` per
        datagram, so :meth:`stop` already finishes the in-flight
        datagram — and sends its reply — before the join returns; this
        alias exists so every server exposes the same drain verb.
        """
        self.stop(timeout=timeout)

    def stop(self, timeout=2.0):
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self._sock.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False
