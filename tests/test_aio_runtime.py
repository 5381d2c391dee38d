"""Integration tests for the concurrent runtime (`repro.runtime.aio`).

The contract under test: the aio server and client speak *byte-identical*
wire traffic to the blocking transports (cross-compat both directions),
pipeline many in-flight requests per connection, enforce per-call
deadlines, retry idempotent work, and shut down gracefully.
"""

import asyncio
import random
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.encoding import MarshalBuffer
from repro.errors import DeadlineError, TransportError
from repro.runtime import (
    StubServer,
    TcpClientTransport,
    operation_names,
)
from repro.runtime.aio import (
    AioClientTransport,
    AioConnection,
    CallOptions,
    ClientStats,
    ConnectionPool,
    RetryPolicy,
    ServerStats,
    probe,
)
from repro.runtime.aio.server import POOLED_BUFFER_MAX, BufferPool
from repro.runtime.framing import RecordDecoder, encode_record
from tests.rawsock import recv_record

from tests.conftest import MailImpl, compile_mail


@pytest.fixture(scope="module")
def onc_module():
    return compile_mail("oncrpc-xdr").load_module()


@pytest.fixture(scope="module")
def iiop_module():
    return compile_mail("iiop").load_module()


class SlowImpl(MailImpl):
    """Servant whose avg() blocks, tracking observed concurrency."""

    def __init__(self, module, delay=0.05):
        super().__init__(module)
        self.delay = delay
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0

    def avg(self, xs):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        time.sleep(self.delay)
        with self._lock:
            self.active -= 1
        return super().avg(xs)


def _avg_request(module, xid, values):
    buffer = MarshalBuffer()
    module._m_req_avg(buffer, xid, values)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Concurrency: many clients, pipelining, interleaving
# ----------------------------------------------------------------------

class TestServerConcurrency:
    def test_32_concurrent_clients_interleave(self, onc_module):
        """32 blocking threads against a slow servant finish in a small
        multiple of one call's latency — the server interleaves."""
        impl = SlowImpl(onc_module, delay=0.05)
        server = StubServer(onc_module, impl).aio_server(
            dispatch_mode="thread", max_concurrency=64
        )
        errors = []
        with server:
            transport = AioClientTransport(*server.address, pool_size=4)

            def worker(value):
                try:
                    client = onc_module.Test_MailClient(transport)
                    if client.avg([value, value + 2]) != value + 1.0:
                        errors.append(value)
                except Exception as error:  # pragma: no cover
                    errors.append((value, repr(error)))

            threads = [
                threading.Thread(target=worker, args=(n * 10,))
                for n in range(32)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            elapsed = time.perf_counter() - start
            transport.close()
        assert not errors, errors
        # Serial execution would take 32 * 0.05 = 1.6s.
        assert elapsed < 1.0, elapsed
        assert impl.max_active >= 8, impl.max_active

    def test_pipelining_on_one_connection(self, onc_module):
        """Many requests in flight on a *single* TCP connection run
        concurrently server-side and each reply reaches its caller."""
        impl = SlowImpl(onc_module, delay=0.05)
        server = StubServer(onc_module, impl).aio_server(
            dispatch_mode="thread", max_concurrency=64
        )
        with server:
            async def main():
                connection = await AioConnection.open(*server.address)
                start = time.perf_counter()
                replies = await asyncio.gather(*[
                    connection.acall(_avg_request(onc_module, 1, [n]))
                    for n in range(16)
                ])
                elapsed = time.perf_counter() - start
                await connection.aclose()
                return replies, elapsed

            replies, elapsed = asyncio.run(main())
        values = [onc_module._u_rep_avg(r, 24) for r in replies]
        assert values == [float(n) for n in range(16)]
        assert elapsed < 0.4, elapsed  # serial would be 0.8s
        assert impl.max_active >= 8

    def test_backpressure_cap_still_completes(self, onc_module):
        """A tiny max_concurrency serializes but never deadlocks."""
        impl = SlowImpl(onc_module, delay=0.01)
        server = StubServer(onc_module, impl).aio_server(
            dispatch_mode="thread", max_concurrency=2
        )
        with server:
            async def main():
                connection = await AioConnection.open(*server.address)
                replies = await asyncio.gather(*[
                    connection.acall(_avg_request(onc_module, 1, [n]))
                    for n in range(12)
                ])
                await connection.aclose()
                return replies

            replies = asyncio.run(main())
        assert len(replies) == 12
        assert impl.max_active <= 2


# ----------------------------------------------------------------------
# Deadlines, cancellation, retry
# ----------------------------------------------------------------------

class TestDeadlines:
    def test_deadline_expiry_and_recovery(self, onc_module):
        impl = SlowImpl(onc_module, delay=0.25)
        server = StubServer(onc_module, impl).aio_server(
            dispatch_mode="thread"
        )
        with server:
            transport = AioClientTransport(*server.address)
            client = onc_module.Test_MailClient(
                transport.options(deadline=0.05)
            )
            with pytest.raises(DeadlineError):
                client.avg([1, 2])
            # The connection survives the expired call: the late reply
            # is dropped (orphaned), and new calls still work.
            impl.delay = 0.0
            patient = onc_module.Test_MailClient(transport)
            assert patient.avg([4, 6]) == 5.0
            deadline_hit = time.time() + 2
            connection = transport.pool._connections[0]
            while connection.orphan_replies == 0 and time.time() < deadline_hit:
                time.sleep(0.01)
            assert connection.orphan_replies == 1
            transport.close()

    def test_cancellation_releases_slot(self, onc_module):
        impl = SlowImpl(onc_module, delay=0.3)
        server = StubServer(onc_module, impl).aio_server(
            dispatch_mode="thread"
        )
        with server:
            async def main():
                connection = await AioConnection.open(*server.address)
                task = asyncio.ensure_future(
                    connection.acall(_avg_request(onc_module, 1, [5]))
                )
                await asyncio.sleep(0.05)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert connection.in_flight == 0
                # The connection is still usable afterwards.
                impl.delay = 0.0
                reply = await connection.acall(
                    _avg_request(onc_module, 2, [8])
                )
                await connection.aclose()
                return reply

            reply = asyncio.run(main())
        assert onc_module._u_rep_avg(reply, 24) == 8.0


class TestRetry:
    def test_retry_reconnects_with_backoff(self, onc_module):
        """Connect failures are retried (nothing was sent) and the
        injected connector sees exponential attempts."""
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).aio_server()
        with server:
            attempts = []

            async def main():
                async def flaky_connector():
                    attempts.append(time.perf_counter())
                    if len(attempts) < 3:
                        raise TransportError("synthetic connect failure")
                    return await AioConnection.open(*server.address)

                pool = ConnectionPool(
                    *server.address,
                    connector=flaky_connector,
                    options=CallOptions(
                        retry=RetryPolicy(
                            max_attempts=3, base_delay=0.01
                        )
                    ),
                )
                reply = await pool.acall(_avg_request(onc_module, 1, [9]))
                await pool.aclose()
                return reply

            reply = asyncio.run(main())
        assert onc_module._u_rep_avg(reply, 24) == 9.0
        assert len(attempts) == 3
        # Exponential backoff: the second gap is at least the first.
        gap1 = attempts[1] - attempts[0]
        gap2 = attempts[2] - attempts[1]
        assert gap2 > gap1 * 1.2

    def test_exhausted_retries_raise_last_error(self):
        async def main():
            async def always_down():
                raise TransportError("still down")

            pool = ConnectionPool(
                "127.0.0.1", 1,
                connector=always_down,
                options=CallOptions(
                    retry=RetryPolicy(max_attempts=2, base_delay=0.001)
                ),
            )
            with pytest.raises(TransportError, match="still down"):
                await pool.acall(b"\0" * 40)

        asyncio.run(main())

    def test_post_send_failure_only_retried_if_idempotent(self, onc_module):
        """A connection that dies after the request was written is only
        retried when the call is marked idempotent."""
        request = _avg_request(onc_module, 1, [3])
        accepted = []

        def _hangup_server():
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)

            def run():
                while True:
                    try:
                        connection, _addr = listener.accept()
                    except OSError:
                        return
                    accepted.append(connection)
                    try:
                        connection.recv(4096)  # read the request...
                    except OSError:
                        pass
                    connection.close()       # ...and hang up on it

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            return listener

        listener = _hangup_server()
        host, port = listener.getsockname()
        try:
            async def call_with(idempotent):
                pool = ConnectionPool(
                    host, port,
                    options=CallOptions(
                        idempotent=idempotent,
                        retry=RetryPolicy(max_attempts=3, base_delay=0.001),
                    ),
                )
                try:
                    with pytest.raises(TransportError):
                        await pool.acall(request)
                finally:
                    await pool.aclose()

            asyncio.run(call_with(False))
            non_idempotent_dials = len(accepted)
            asyncio.run(call_with(True))
            idempotent_dials = len(accepted) - non_idempotent_dials
        finally:
            listener.close()
        assert non_idempotent_dials == 1     # fail fast: may have run
        assert idempotent_dials == 3         # safe to retry: all attempts

    def test_deadline_error_is_never_retried(self, onc_module):
        impl = SlowImpl(onc_module, delay=0.3)
        server = StubServer(onc_module, impl).aio_server(
            dispatch_mode="thread"
        )
        with server:
            async def main():
                pool = ConnectionPool(
                    *server.address,
                    options=CallOptions(
                        deadline=0.05,
                        idempotent=True,
                        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
                    ),
                )
                start = time.perf_counter()
                with pytest.raises(DeadlineError):
                    await pool.acall(_avg_request(onc_module, 1, [1]))
                elapsed = time.perf_counter() - start
                await pool.aclose()
                return elapsed

            elapsed = asyncio.run(main())
        # One deadline window, not three: the budget is spent.
        assert elapsed < 0.15, elapsed


# ----------------------------------------------------------------------
# Cross-compatibility with the blocking runtime
# ----------------------------------------------------------------------

class TestCrossCompat:
    def test_blocking_client_against_aio_server(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).aio_server()
        with server:
            transport = TcpClientTransport(*server.address)
            try:
                client = onc_module.Test_MailClient(transport)
                assert client.avg([3, 5]) == 4.0
                rect = onc_module.Test_Rect(
                    onc_module.Test_Point(1, 2),
                    onc_module.Test_Point(3, 4),
                )
                assert client.send("net", rect, (0, 1)) == (8, (0, 1), 2)
                with pytest.raises(onc_module.Test_Bad):
                    client.send("fail", rect, (0, 1))
                data = bytes(range(256)) * 64
                assert client.reverse(data) == data[::-1]
                client.ping(77)
                client.avg([0])  # orders the oneway before it
                assert impl.last_ping == 77
            finally:
                transport.close()

    def test_aio_client_against_blocking_server(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        with server:
            transport = AioClientTransport(*server.address, pool_size=2)
            try:
                client = onc_module.Test_MailClient(transport)
                assert client.avg([3, 5]) == 4.0
                data = bytes(range(256)) * 64
                assert client.reverse(data) == data[::-1]
                client.ping(31)
                client.avg([0])
                assert impl.last_ping == 31
            finally:
                transport.close()

    def test_wire_traffic_byte_identical(self, onc_module):
        """The acceptance-criterion proof, both directions.

        Server side: the same request bytes produce byte-identical reply
        records from the in-process reference (`serve_bytes`), the
        blocking `TcpServer`, and `AioTcpServer`.

        Client side: for the same first stub call, the blocking client
        and the aio client put byte-identical request records on the
        wire (the aio id rewrite is an identity here: both number their
        first call 1).
        """
        request = _avg_request(onc_module, 1, [2, 4, 6])
        reference = StubServer(
            onc_module, MailImpl(onc_module)
        ).serve_bytes(request)

        def roundtrip_raw(address):
            sock = socket.create_connection(address, timeout=5)
            try:
                sock.sendall(encode_record(request))
                return recv_record(sock)
            finally:
                sock.close()

        blocking_server = StubServer(
            onc_module, MailImpl(onc_module)
        ).tcp_server()
        with blocking_server:
            from_blocking = roundtrip_raw(blocking_server.address)
        aio_server = StubServer(
            onc_module, MailImpl(onc_module)
        ).aio_server()
        with aio_server:
            from_aio = roundtrip_raw(aio_server.address)
        assert from_blocking == reference
        assert from_aio == reference

        # Client side: record what each client transport actually sends.
        captured = {}

        def capture_with(key, make_transport):
            stub_server = StubServer(onc_module, MailImpl(onc_module))
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)

            def run():
                connection, _addr = listener.accept()
                decoder = RecordDecoder()
                while True:
                    data = connection.recv(65536)
                    if not data:
                        break
                    for record in decoder.feed(data):
                        captured[key] = record
                        reply = stub_server.serve_bytes(record)
                        connection.sendall(encode_record(reply))
                connection.close()

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            transport = make_transport(listener.getsockname())
            try:
                client = onc_module.Test_MailClient(transport)
                assert client.avg([2, 4, 6]) == 4.0
            finally:
                transport.close()
                listener.close()
            thread.join(timeout=5)

        capture_with(
            "blocking", lambda address: TcpClientTransport(*address)
        )
        capture_with(
            "aio", lambda address: AioClientTransport(*address)
        )
        assert captured["blocking"] == captured["aio"]

    def test_giop_over_aio(self, iiop_module):
        """The GIOP wire format multiplexes too: request_id correlation,
        user exceptions, inout/out parameters."""
        impl = MailImpl(iiop_module)
        server = StubServer(iiop_module, impl).aio_server()
        with server:
            transport = AioClientTransport(*server.address, pool_size=2)
            try:
                client = iiop_module.Test_MailClient(transport)
                assert client.avg([3, 5]) == 4.0
                rect = iiop_module.Test_Rect(
                    iiop_module.Test_Point(1, 2),
                    iiop_module.Test_Point(3, 4),
                )
                assert client.send("net", rect, (0, 1)) == (8, (0, 1), 2)
                with pytest.raises(iiop_module.Test_Bad):
                    client.send("fail", rect, (0, 1))
            finally:
                transport.close()


    @pytest.mark.parametrize("backend", ["oncrpc-xdr", "iiop"])
    def test_half_closed_peer_gets_all_replies(self, backend):
        """A peer that shuts down its write side after its last request
        still receives every in-flight reply before the server closes."""
        module = compile_mail(backend).load_module()
        server = StubServer(module, SlowImpl(module, delay=0.05)) \
            .aio_server(dispatch_mode="thread")
        with server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                sock.sendall(b"".join(
                    encode_record(_avg_request(module, xid, [xid, xid + 2]))
                    for xid in range(1, 9)))
                sock.shutdown(socket.SHUT_WR)
                decoder, replies = RecordDecoder(), []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break  # the server closed once all were out
                    replies.extend(decoder.feed(data))
            finally:
                sock.close()
        answers = {}
        for reply in replies:
            xid = probe(reply).correlation_id
            answers[xid] = module._u_rep_avg(
                reply, module._check_reply(reply, xid))
        assert answers == {xid: xid + 1.0 for xid in range(1, 9)}


# ----------------------------------------------------------------------
# Graceful shutdown, stats, plumbing
# ----------------------------------------------------------------------

class TestGracefulShutdown:
    def test_drain_completes_in_flight_call(self, onc_module):
        impl = SlowImpl(onc_module, delay=0.2)
        server = StubServer(onc_module, impl).aio_server(
            dispatch_mode="thread"
        )
        server.start()
        transport = AioClientTransport(*server.address)
        client = onc_module.Test_MailClient(transport)
        result = {}

        def call():
            result["value"] = client.avg([10, 20])

        thread = threading.Thread(target=call)
        thread.start()
        time.sleep(0.05)  # the call is now in flight
        server.stop()     # graceful: drains before closing
        thread.join(timeout=5)
        transport.close()
        assert result.get("value") == 15.0

    def test_stopped_server_refuses_connections(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).aio_server()
        server.start()
        address = server.address
        server.stop()
        with pytest.raises(TransportError):
            AioClientTransport(*address, connect_timeout=1.0).call(
                _avg_request(onc_module, 1, [1])
            )


    def test_worker_finishing_after_stop_is_harmless(self, onc_module):
        """An executor job that outlives the drain timeout finds the
        loop closed; handing over its completion must not raise."""
        server = StubServer(onc_module, MailImpl(onc_module)).aio_server(
            dispatch_mode="thread"
        )
        server.start()
        server.stop()
        assert server._loop.is_closed()
        server._work(None, _avg_request(onc_module, 1, [1]),
                     MarshalBuffer(), None)
        assert len(server._completions) == 1
        assert not server._wake_posted  # a restarted server still drains


class ExitingImpl(MailImpl):
    """Servant whose reverse() calls sys.exit()."""

    def reverse(self, data):
        sys.exit(3)


class TestServantExit:
    @pytest.mark.parametrize("factory, options", [
        pytest.param("tcp_server", {}, id="blocking"),
        pytest.param("aio_server", {"dispatch_mode": "thread"},
                     id="aio-thread"),
        pytest.param("aio_server", {"dispatch_mode": "inline"},
                     id="aio-inline"),
    ])
    def test_sys_exit_in_a_servant_is_a_servant_crash(
            self, factory, options, onc_module):
        """SystemExit out of a servant is answered like any other crash
        (error reply, then close) and costs the server nothing: no
        thread ended, no slot leaked, no drain waited out."""
        stats = ServerStats()
        stub_server = StubServer(onc_module, ExitingImpl(onc_module))
        server = getattr(stub_server, factory)(stats=stats, **options)
        with server:
            transport = TcpClientTransport(*server.address, deadline=3.0)
            try:
                started = time.perf_counter()
                with pytest.raises(TransportError) as raised:
                    onc_module.Test_MailClient(transport).reverse(b"abc")
                assert time.perf_counter() - started < 1.0
                assert not isinstance(raised.value, DeadlineError)
            finally:
                transport.close()
            fresh = TcpClientTransport(*server.address, deadline=3.0)
            try:
                assert onc_module.Test_MailClient(fresh).avg([3, 5]) == 4.0
            finally:
                fresh.close()
            if factory == "tcp_server":
                # Its connection thread marks itself idle after the
                # write the client has just read.
                deadline = time.monotonic() + 1.0
                while server._busy and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not server._busy
            else:
                assert server.in_flight == 0
            started = time.perf_counter()
        assert time.perf_counter() - started < 1.0  # drain_timeout is 5
        assert stats.servant_errors.value == 1


# ----------------------------------------------------------------------
# The loop <-> worker hand-off of thread mode
# ----------------------------------------------------------------------

def _workers_alive():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("flick-aio_")]


def _wait_for_no_workers(timeout=1.0):
    deadline = time.monotonic() + timeout
    while _workers_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    return _workers_alive()


HUNG_SERVANT = """
import sys, threading, time
sys.path[:0] = %r
from repro.runtime import StubServer, TcpClientTransport
from tests.conftest import MailImpl, compile_mail

module = compile_mail("oncrpc-xdr").load_module()

class Hung(MailImpl):
    def avg(self, xs):
        threading.Event().wait()

server = StubServer(module, Hung(module)).aio_server(
    dispatch_mode="thread", drain_timeout=0.2).start()
transport = TcpClientTransport(*server.address)
threading.Thread(
    target=module.Test_MailClient(transport).avg, args=([1],),
    daemon=True).start()
while server.in_flight != 1:
    time.sleep(0.01)
server.stop()
"""


class TestWorkerHandoff:
    def test_serial_traffic_does_not_start_a_worker_per_call(
            self, onc_module):
        """One call in flight: the worker that served the last call
        serves the next.  (Two, not one: the next request can be
        admitted before the first worker has counted itself idle.)"""
        server = StubServer(onc_module, MailImpl(onc_module)).aio_server(
            dispatch_mode="thread")
        with server:
            transport = TcpClientTransport(*server.address)
            try:
                client = onc_module.Test_MailClient(transport)
                for n in range(1000):
                    assert client.avg([n]) == n
            finally:
                transport.close()
            assert 1 <= len(_workers_alive()) <= 2

    @pytest.mark.parametrize("max_concurrency, at_least, under",
                             [(32, 0.02, 0.25), (4, 0.16, 1.0)])
    def test_blocking_servants_overlap_up_to_max_concurrency(
            self, onc_module, max_concurrency, at_least, under):
        """32 calls into a servant that sleeps 20 ms: all at once on 32
        workers, eight rounds on 4 — and never a fifth worker."""
        server = StubServer(onc_module, SlowImpl(onc_module, delay=0.02)) \
            .aio_server(dispatch_mode="thread",
                        max_concurrency=max_concurrency)
        with server:
            async def main():
                connection = await AioConnection.open(*server.address)
                started = time.perf_counter()
                replies = await asyncio.gather(*[
                    connection.acall(_avg_request(onc_module, 1, [n]))
                    for n in range(32)])
                elapsed = time.perf_counter() - started
                await connection.aclose()
                return replies, elapsed

            replies, elapsed = asyncio.run(main())
            workers = len(_workers_alive())
        assert [onc_module._u_rep_avg(reply, 24) for reply in replies] \
            == [float(n) for n in range(32)]
        assert at_least <= elapsed < under, elapsed
        assert workers == max_concurrency

    def test_thread_mode_loses_no_job_under_preemption(self, onc_module):
        """The submit-direction twin of TestBatchedIO's completion test:
        the loop queues jobs and claims idle workers while workers count
        themselves idle, preempted every 0.01 ms — 20k calls at depth 16
        must each get their own answer and leave nothing queued."""
        calls, depth = 20000, 16
        server = StubServer(onc_module, MailImpl(onc_module)).aio_server(
            dispatch_mode="thread")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                async def main():
                    pool = ConnectionPool(*server.address, pool_size=1)
                    positions = iter(range(calls))
                    answered = []

                    async def caller():
                        for position in positions:
                            reply = await pool.acall(_avg_request(
                                onc_module, 1, [position]))
                            if onc_module._u_rep_avg(reply, 24) == position:
                                answered.append(position)

                    try:
                        await asyncio.wait_for(
                            asyncio.gather(
                                *[caller() for _ in range(depth)]),
                            timeout=120)
                    finally:
                        await pool.aclose()
                    return answered

                assert sorted(asyncio.run(main())) == list(range(calls))
                assert server.in_flight == 0
                assert server._workers._jobs.empty()
                assert len(_workers_alive()) <= server.max_concurrency
        finally:
            sys.setswitchinterval(interval)

    def test_wire_bytes_do_not_depend_on_dispatch_mode(self):
        """Every op of the benchmark's ledger contract, both protocols:
        the request a client sends and the reply it gets are the same
        bytes whether a worker or the loop ran the dispatch."""
        from benchmarks.e2e import contract

        class Recording:
            def __init__(self, transport, seen):
                self.transport, self.seen = transport, seen

            def call(self, request):
                reply = self.transport.call(request)
                self.seen.append((bytes(request), bytes(reply)))
                return reply

        seen = {"thread": [], "inline": []}
        for protocol, (backend, family) in contract.PROTOCOLS.items():
            result = api.compile(contract.schema_text("ledger.idl"),
                                 name="ledger.idl", backend=backend)
            servant = contract.Servant()
            kinds = [contract.make_kind(
                protocol, method, 1024, 7, (result, family),
                (result, family), servant) for method in contract.METHODS]
            for mode, wire in seen.items():
                server = StubServer(result.module, servant).aio_server(
                    dispatch_mode=mode)
                with server:
                    transport = TcpClientTransport(*server.address)
                    try:
                        client = getattr(
                            result.module, contract.PREFIX + "LedgerClient")(
                                Recording(transport, wire))
                        for kind in kinds:
                            outcome = getattr(client, kind.method)(kind.arg)
                            assert kind.verify(outcome, contract.Wire(
                                *wire[-1])), (mode, kind.name)
                    finally:
                        transport.close()
        assert len(seen["thread"]) == 2 * len(contract.METHODS)
        assert seen["thread"] == seen["inline"]

    def test_restart_serves_again_with_fresh_workers(self, onc_module):
        server = StubServer(onc_module, MailImpl(onc_module)).aio_server(
            dispatch_mode="thread")
        runs = []
        for _ in range(2):
            with server:
                transport = TcpClientTransport(*server.address)
                try:
                    assert onc_module.Test_MailClient(transport) \
                        .avg([2, 4]) == 3.0
                finally:
                    transport.close()
                runs.append(_workers_alive())
                assert runs[-1]
            assert not _wait_for_no_workers()
        assert not set(runs[0]) & set(runs[1])

    def test_hung_servant_does_not_keep_the_process_alive(self):
        """stop() gives up on a servant that never returns after
        drain_timeout; the interpreter must then be free to exit."""
        done = subprocess.run(
            [sys.executable, "-c", HUNG_SERVANT % (sys.path,)],
            timeout=5, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# Batched connection I/O: one read -> N records -> one write
# ----------------------------------------------------------------------

class TestBatchedIO:
    def test_one_read_of_16_requests_is_answered_in_one_write(
            self, onc_module):
        stats = ServerStats()
        server = StubServer(onc_module, MailImpl(onc_module)).aio_server(
            dispatch_mode="inline", stats=stats
        )
        with server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                sock.sendall(b"".join(
                    encode_record(_avg_request(onc_module, xid, [xid]))
                    for xid in range(1, 17)))
                replies = [recv_record(sock) for _ in range(16)]
            finally:
                sock.close()
        assert [probe(reply).correlation_id for reply in replies] \
            == list(range(1, 17))
        assert [onc_module._u_rep_avg(reply, 24) for reply in replies] \
            == [float(xid) for xid in range(1, 17)]
        assert stats.socket_reads.value == 1
        assert stats.socket_writes.value == 1

    def test_16_concurrent_calls_leave_in_one_client_write(
            self, onc_module):
        stats = ClientStats()
        server = StubServer(onc_module, MailImpl(onc_module)).aio_server(
            dispatch_mode="inline"
        )
        with server:
            async def main():
                pool = ConnectionPool(*server.address, pool_size=1,
                                      stats=stats)
                try:
                    await pool.acall(_avg_request(onc_module, 1, [0]))
                    before = stats.socket_writes.value
                    replies = await asyncio.gather(*[
                        pool.acall(_avg_request(onc_module, 1, [n]))
                        for n in range(16)
                    ])
                    return replies, stats.socket_writes.value - before
                finally:
                    await pool.aclose()

            replies, writes = asyncio.run(main())
        assert [onc_module._u_rep_avg(reply, 24) for reply in replies] \
            == [float(n) for n in range(16)]
        assert writes == 1

    def test_thread_mode_loses_no_completion_under_preemption(
            self, onc_module):
        """Workers hand completions to the loop through a deque and one
        pending wake-up, with no lock: 20k pipelined calls under a
        0.01 ms switch interval (so threads are preempted between the
        append, the flag test and the post) must all be answered."""
        calls, callers = 20000, 64
        rng = random.Random(13)
        lengths = [rng.randrange(1, 32) for _ in range(calls)]
        stats = ServerStats()
        server = StubServer(onc_module, MailImpl(onc_module)).aio_server(
            dispatch_mode="thread", max_concurrency=8, stats=stats
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                async def main():
                    pool = ConnectionPool(*server.address, pool_size=4)
                    positions = iter(range(calls))
                    wrong = []

                    async def caller():
                        for position in positions:
                            values = list(range(lengths[position]))
                            reply = await pool.acall(
                                _avg_request(onc_module, 1, values))
                            if onc_module._u_rep_avg(reply, 24) \
                                    != sum(values) / len(values):
                                wrong.append(position)

                    try:
                        await asyncio.wait_for(
                            asyncio.gather(
                                *[caller() for _ in range(callers)]),
                            timeout=120)
                    finally:
                        await pool.aclose()
                    return wrong

                assert asyncio.run(main()) == []
                assert server.in_flight == 0
        finally:
            sys.setswitchinterval(interval)
        assert stats.total_calls == calls
        assert stats.total_errors == 0


# ----------------------------------------------------------------------
# What one call costs, as counts; and the id rule
# ----------------------------------------------------------------------

class _CannedPeer:
    """A raw TCP peer that answers every record with *reply* under the
    request's own xid, reading into one buffer and allocating nothing
    per message — so a tracemalloc peak over a call is the client's."""

    def __init__(self, reply):
        self._reply = bytearray(encode_record(reply))
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        peer, _address = self._listener.accept()
        inbox = memoryview(bytearray(1 << 20))
        held = 0
        with peer:
            while True:
                got = peer.recv_into(inbox[held:])
                if not got:
                    return
                held += got
                while held >= 4:
                    size = 4 + (struct.unpack_from(">I", inbox)[0]
                                & 0x7FFFFFFF)
                    if held < size:
                        break
                    self._reply[4:8] = inbox[4:8]  # the ONC xid
                    peer.sendall(self._reply)
                    inbox[:held - size] = inbox[size:held]
                    held -= size

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5)


class TestCallBudget:
    def test_one_walk_per_message_and_no_more_sniffs(
            self, onc_module, iiop_module, monkeypatch):
        """Tracing and stats off: one pool.acall walks the request's
        header once and the reply's once."""
        from repro import envelopes

        counts = {"request": 0, "reply": 0, "sniff": 0}

        def counting(factory, direction_of):
            def counted(*key):
                walk = factory(*key)

                def run(data):
                    counts[direction_of(key)] += 1
                    return walk(data)

                return run

            return counted

        def sniff(data, sniff=envelopes.sniff):
            counts["sniff"] += 1
            return sniff(data)

        monkeypatch.setattr(envelopes, "locator", counting(
            envelopes.locator, lambda key: key[1]))
        monkeypatch.setattr(envelopes, "reader", counting(
            envelopes.reader, lambda key: key[1]))
        monkeypatch.setattr(envelopes, "router", counting(
            envelopes.router, lambda key: "reply"))
        monkeypatch.setattr(envelopes, "sniff", sniff)
        for module in (onc_module, iiop_module):
            server = StubServer(module, MailImpl(module)).aio_server(
                dispatch_mode="inline")
            with server:
                async def main():
                    pool = ConnectionPool(*server.address, pool_size=1)
                    try:
                        await pool.acall(_avg_request(module, 1, [1]))
                        counts.update(request=0, reply=0, sniff=0)
                        return await pool.acall(
                            _avg_request(module, 2, [4, 6]))
                    finally:
                        await pool.aclose()

                reply = asyncio.run(main())
            assert module._u_rep_avg(
                reply, module._check_reply(reply, 2)) == 5.0
            assert counts == {"request": 1, "reply": 1, "sniff": 2}

    def test_a_64k_request_is_copied_once(self, onc_module):
        """The request is framed and stamped in one buffer: the call's
        peak allocation stays under three payloads (the parent's three
        copies plus the transport's own spill did not)."""
        import tracemalloc

        values = list(range(16384))
        request = bytes(_avg_request(onc_module, 1, values))
        assert len(request) > 64 * 1024
        reply = StubServer(onc_module, MailImpl(onc_module)).serve_bytes(
            request)
        peer = _CannedPeer(reply)
        loop = asyncio.new_event_loop()
        pool = ConnectionPool(*peer.address, pool_size=1)
        try:
            loop.run_until_complete(pool.acall(request))  # dial, warm up
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                answered = loop.run_until_complete(pool.acall(request))
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        finally:
            loop.run_until_complete(pool.aclose())
            loop.close()
            peer.close()
        assert onc_module._u_rep_avg(answered, 24) == sum(values) / 16384
        assert peak < 3 * len(request), peak

    def test_late_reply_to_an_expired_call_never_reaches_the_next_one(
            self, onc_module):
        """Two proxies share a pool and both count their request ids
        from 1.  The first call's deadline expires; its reply arrives
        while the second proxy's call — the same caller id — is in
        flight.  Wire ids are the connection's own, so the late reply
        is an orphan and the second call gets its own answer."""
        impl = SlowImpl(onc_module, delay=0.3)
        server = StubServer(onc_module, impl).aio_server(
            dispatch_mode="thread")
        with server:
            transport = AioClientTransport(*server.address, pool_size=1)
            try:
                hasty = onc_module.Test_MailClient(
                    transport.options(deadline=0.05))
                patient = onc_module.Test_MailClient(transport)
                with pytest.raises(DeadlineError):
                    hasty.avg([1, 2])
                # In flight from ~0.05 s to ~0.35 s; the late reply to
                # avg([1, 2]) arrives at ~0.3 s.
                assert patient.avg([4, 6]) == 5.0
                (connection,) = transport.pool._connections
                assert connection.orphan_replies == 1
                assert connection.in_flight == 0
            finally:
                transport.close()


class TestBufferPool:
    def test_oversized_buffers_are_not_retained(self):
        pool = BufferPool()
        small, large = MarshalBuffer(), MarshalBuffer()
        large.reserve(POOLED_BUFFER_MAX + 1)
        pool.give(large)
        assert pool.retained_bytes == 0
        pool.give(small)
        assert pool.take() is small

    def test_large_reply_does_not_raise_retained_bytes(self, onc_module):
        """One multi-megabyte reply must not pin its grown buffer in the
        connection's pool for the rest of the connection's life."""
        data = bytes(range(256)) * (8 * 1024)  # 2 MiB each way
        server = StubServer(onc_module, MailImpl(onc_module)).aio_server()
        with server:
            transport = TcpClientTransport(*server.address)
            try:
                client = onc_module.Test_MailClient(transport)
                assert client.avg([1, 3]) == 2.0
                (connection,) = server._connections
                before = connection.buffers.retained_bytes
                assert client.reverse(data) == data[::-1]
                assert client.avg([2, 4]) == 3.0
                assert connection.buffers.retained_bytes <= before
            finally:
                transport.close()

class TestStats:
    def test_per_operation_counters_and_latency(self, onc_module):
        impl = MailImpl(onc_module)
        stats = ServerStats()
        server = StubServer(onc_module, impl).aio_server(stats=stats)
        with server:
            transport = AioClientTransport(*server.address)
            try:
                client = onc_module.Test_MailClient(transport)
                for n in range(5):
                    client.avg([n])
                client.reverse(b"ab")
                client.ping(1)
                client.avg([0])  # orders the oneway
            finally:
                transport.close()
        snapshot = stats.snapshot()
        assert snapshot["avg"]["calls"] == 6
        assert snapshot["reverse"]["calls"] == 1
        assert snapshot["ping"]["calls"] == 1
        assert stats.total_errors == 0
        assert stats.total_calls == 8
        assert snapshot["avg"]["p50_s"] > 0
        table = stats.format_table()
        assert "avg" in table and "p95" in table

    def test_pool_gauges_read_the_pool_when_scraped(self, onc_module):
        """In flight is 0 once traffic stops, at least 1 while a call
        is parked on a slow servant, and the pool reads 0 connections
        after aclose() — the gauges hold no value of their own."""
        impl = SlowImpl(onc_module, delay=0.0)
        stats = ClientStats()

        def scrape(name):
            return stats.registry.snapshot()[name][()]

        server = StubServer(onc_module, impl).aio_server(
            dispatch_mode="thread")
        with server:
            async def main():
                pool = ConnectionPool(*server.address, pool_size=1,
                                      stats=stats)
                try:
                    await asyncio.gather(*[
                        pool.acall(_avg_request(onc_module, 1, [n]))
                        for n in range(16)
                    ])
                    idle = (scrape("flick_client_in_flight_requests"),
                            scrape("flick_client_pool_connections"))
                    impl.delay = 0.2
                    parked = asyncio.ensure_future(
                        pool.acall(_avg_request(onc_module, 1, [3])))
                    await asyncio.sleep(0.05)
                    busy = scrape("flick_client_in_flight_requests")
                    await parked
                finally:
                    await pool.aclose()
                return idle, busy

            idle, busy = asyncio.run(main())
        assert idle == (0, 1)
        assert busy == 1
        assert scrape("flick_client_in_flight_requests") == 0
        assert scrape("flick_client_pool_connections") == 0
        text = stats.registry.render_prometheus()
        assert "# TYPE flick_client_pool_connections gauge" in text
        assert "flick_client_in_flight_requests 0" in text

    def test_operation_names_resolved_from_module(self, onc_module):
        names = operation_names(onc_module)
        assert "avg" in names.values()
        assert "ping" in names.values()


class TestOptionPlumbing:
    def test_call_options_but_derives(self):
        base = CallOptions(deadline=1.0)
        derived = base.but(idempotent=True)
        assert derived.deadline == 1.0
        assert derived.idempotent is True
        assert base.idempotent is False

    def test_retry_policy_backoff_is_capped(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=10.0, max_delay=0.5
        )
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.5)
        assert policy.delay(5) == pytest.approx(0.5)

    def test_transport_options_view_shares_pool(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).aio_server()
        with server:
            transport = AioClientTransport(*server.address)
            try:
                fast = transport.options(deadline=5.0, idempotent=True)
                client = onc_module.Test_MailClient(fast)
                assert client.avg([2, 6]) == 4.0
                assert transport.pool.open_connections == 1
            finally:
                transport.close()
