"""Transport robustness: record fragmentation, concurrency, big loads."""

import gc
import socket
import struct
import threading
import time
import weakref

import pytest

from repro import obs
from repro.encoding import MarshalBuffer
from repro.errors import TransportError
from repro.obs import propagation
from repro.runtime import StubServer, TcpClientTransport, UdpClientTransport
from repro.runtime.framing import RecordDecoder, encode_record
from repro.runtime.socket_transport import MAX_UDP_SIZE, _RecordStream
from repro.runtime.transport import deadline_timeval

from tests.conftest import MailImpl, compile_mail
from tests.rawsock import recv_record


@pytest.fixture(scope="module")
def onc_module():
    return compile_mail("oncrpc-xdr").module


class TestRecordMarking:
    def test_fragmented_request_accepted(self, onc_module):
        """RFC 1831 record marking: a record may arrive in several
        fragments; only the last carries the high bit."""
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        with server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5)
            try:
                request = MarshalBuffer()
                onc_module._m_req_avg(request, 1, [10, 20, 30])
                payload = request.getvalue()
                # Send as three fragments.
                first, second, third = (
                    payload[:10], payload[10:25], payload[25:],
                )
                sock.sendall(struct.pack(">I", len(first)) + first)
                sock.sendall(struct.pack(">I", len(second)) + second)
                sock.sendall(
                    struct.pack(">I", 0x80000000 | len(third)) + third
                )
                reply = recv_record(sock)
                assert onc_module._u_rep_avg(reply, 24) == 20.0
            finally:
                sock.close()

    def test_trickled_bytes(self, onc_module):
        """Replies are reassembled even when bytes arrive one at a time
        (the reader stages them until the record is whole)."""
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        with server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=5)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                request = MarshalBuffer()
                onc_module._m_req_avg(request, 1, [6])
                payload = request.getvalue()
                framed = struct.pack(
                    ">I", 0x80000000 | len(payload)
                ) + payload
                for index in range(len(framed)):
                    sock.sendall(framed[index:index + 1])
                reply = recv_record(sock)
                assert onc_module._u_rep_avg(reply, 24) == 6.0
            finally:
                sock.close()


def _avg_request(module, xid, values):
    buffer = MarshalBuffer()
    module._m_req_avg(buffer, xid, values)
    return buffer.getvalue()


class TestPipelinedRequests:
    """The blocking server reads whatever one ``recv`` brings; requests
    behind the first wait in its stream, not in the kernel."""

    def test_16_requests_in_one_segment_are_served_in_order(
            self, onc_module):
        server = StubServer(onc_module, MailImpl(onc_module)).tcp_server()
        with server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                sock.sendall(b"".join(
                    encode_record(_avg_request(onc_module, xid, [xid]))
                    for xid in range(1, 17)))
                replies = [recv_record(sock) for _ in range(16)]
            finally:
                sock.close()
        assert [struct.unpack_from(">I", reply)[0] for reply in replies] \
            == list(range(1, 17))
        assert [onc_module._u_rep_avg(reply, 24) for reply in replies] \
            == [float(xid) for xid in range(1, 17)]

    def test_drain_with_an_unserved_request_buffered(self, onc_module):
        """Three requests arrive in one read and the first is still in
        its servant when drain() is called: its reply is delivered, the
        two read but not started are dropped with the connection, and
        every thread is joined."""
        entered, release = threading.Event(), threading.Event()

        class Held(MailImpl):
            def avg(self, xs):
                entered.set()
                assert release.wait(timeout=5)
                return super().avg(xs)

        baseline = threading.active_count()
        server = StubServer(onc_module, Held(onc_module)).tcp_server()
        server.start()
        sock = socket.create_connection(server.address, timeout=5)
        try:
            sock.sendall(b"".join(
                encode_record(_avg_request(onc_module, xid, [xid]))
                for xid in (1, 2, 3)))
            assert entered.wait(timeout=5)
            drainer = threading.Thread(target=server.drain, args=(5.0,))
            drainer.start()
            while not server._draining:
                time.sleep(0.001)
            release.set()
            drainer.join(timeout=10)
            assert not drainer.is_alive()
            assert onc_module._u_rep_avg(recv_record(sock), 24) == 1.0
            with pytest.raises(TransportError, match="mid-record header$"):
                recv_record(sock)
        finally:
            release.set()
            sock.close()
            server.stop()
        assert threading.active_count() <= baseline


class TestConcurrency:
    def test_many_threads_one_server(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        errors = []

        def worker(worker_id):
            transport = TcpClientTransport(*server.address)
            try:
                client = onc_module.Test_MailClient(transport)
                for index in range(25):
                    value = worker_id * 100 + index
                    if client.avg([value]) != float(value):
                        errors.append((worker_id, index))
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append((worker_id, repr(error)))
            finally:
                transport.close()

        with server:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, errors

    def test_interleaved_large_and_small(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        with server:
            big = TcpClientTransport(*server.address)
            small = TcpClientTransport(*server.address)
            try:
                big_client = onc_module.Test_MailClient(big)
                small_client = onc_module.Test_MailClient(small)
                blob = bytes(range(256)) * 512  # 128 KB
                for _ in range(3):
                    assert big_client.reverse(blob) == blob[::-1]
                    assert small_client.avg([1, 3]) == 2.0
            finally:
                big.close()
                small.close()


def _misbehaving_server(reply_bytes, received=None):
    """A one-shot raw server: reads a request (into the *received* list,
    if one is given), answers *reply_bytes*, then hangs up.  Returns
    (listener, thread)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def run():
        connection, _peer = listener.accept()
        try:
            request = connection.recv(65536)
            if received is not None:
                received.append(request)
            if reply_bytes:
                connection.sendall(reply_bytes)
        finally:
            connection.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return listener, thread


class TestShortReads:
    """Truncated peers produce descriptive TransportErrors, not raw
    struct.errors or hangs."""

    def _call_against(self, onc_module, reply_bytes):
        listener, thread = _misbehaving_server(reply_bytes)
        try:
            transport = TcpClientTransport(*listener.getsockname())
            try:
                request = MarshalBuffer()
                onc_module._m_req_avg(request, 1, [1])
                transport.call(request.getvalue())
            finally:
                transport.close()
        finally:
            listener.close()
            thread.join(timeout=5)

    def test_eof_before_reply(self, onc_module):
        with pytest.raises(TransportError, match="mid-record header"):
            self._call_against(onc_module, b"")

    def test_truncated_record_header(self, onc_module):
        with pytest.raises(
            TransportError, match="mid-record header: got 2 of 4"
        ):
            self._call_against(onc_module, b"\x80\x00")

    def test_truncated_record_body(self, onc_module):
        framed = struct.pack(">I", 0x80000000 | 100) + b"x" * 7
        with pytest.raises(
            TransportError, match="mid-record body: got 7 of 100"
        ):
            self._call_against(onc_module, framed)

    def test_oversized_record_header(self, onc_module):
        huge = struct.pack(">I", 0x7FFFFFFF)
        with pytest.raises(TransportError, match="exceeds the"):
            self._call_against(onc_module, huge)


class TestFailedReadPoisonsTheConnection:
    def test_deadline_expiry_does_not_desynchronise_later_calls(
            self, onc_module):
        """One reply arrives after its call's deadline.  The connection
        must not hand that late reply to the next call (which used to
        fail with ``reply xid mismatch``, and so did every call after
        it): the expiry closes it, and later calls say why."""

        class SlowOnce(MailImpl):
            slept = False

            def avg(self, xs):
                if not self.slept:
                    self.slept = True
                    time.sleep(0.4)
                return super().avg(xs)

        server = StubServer(onc_module, SlowOnce(onc_module)).tcp_server()
        with server:
            transport = TcpClientTransport(*server.address, deadline=0.1)
            try:
                client = onc_module.Test_MailClient(transport)
                with pytest.raises(TransportError, match="connection error"
                                   " while reading record header: timed out"):
                    client.avg([1])
                time.sleep(0.5)  # the late reply is on the wire by now
                for _ in range(3):
                    with pytest.raises(
                            TransportError,
                            match="earlier failure.*timed out"):
                        client.avg([2])
                with pytest.raises(TransportError, match="earlier failure"):
                    client.ping(3)
            finally:
                transport.close()
            # A fresh connection to the same server is fine.
            transport = TcpClientTransport(*server.address, deadline=2.0)
            try:
                assert onc_module.Test_MailClient(transport).avg([4]) == 4.0
            finally:
                transport.close()

    def test_the_failure_kept_holds_no_frame(self):
        """What a poisoned connection keeps of its first failure is the
        text: the error itself would hold, through its traceback, the
        frame that read — a server thread's frame holds its request
        core, servant and buffers — in a cycle through the stream, alive
        until the cyclic collector next ran."""

        class Canary:
            pass

        canary = Canary()
        alive = weakref.ref(canary)
        near, far = socket.socketpair()
        stream = _RecordStream(near)

        def reading(canary):
            try:
                stream.read()
            except TransportError as error:
                return str(error)

        far.close()
        gc.disable()
        try:
            assert reading(canary) == "connection closed mid-record header"
            del canary
            assert alive() is None
        finally:
            gc.enable()
        with pytest.raises(TransportError, match="earlier failure:"
                           " connection closed mid-record header$"):
            stream.read()


class TestFailedWritePoisonsTheConnection:
    def test_send_deadline_expiry_closes_the_connection(self):
        """A request the peer never reads stops part-way out when the
        deadline expires.  The next call must not put a fresh record
        behind that partial one (the peer's framing would desync): the
        expiry closes the connection, and later calls say why."""
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)  # completes the handshake; nothing reads
        try:
            transport = TcpClientTransport(
                *listener.getsockname(), deadline=0.2)
            try:
                started = time.monotonic()
                with pytest.raises(TransportError, match="connection error"
                                   " while writing record: timed out$"):
                    transport.call(b"x" * (8 << 20))
                assert time.monotonic() - started < 5.0
                for request in (b"y", b"z" * 100):
                    with pytest.raises(
                            TransportError,
                            match="earlier failure.*writing record: timed"):
                        transport.call(request)
                with pytest.raises(TransportError, match="earlier failure"):
                    transport.send(b"oneway")
            finally:
                transport.close()
        finally:
            listener.close()


class TestDeadlines:
    """The blocking clients' deadline is a socket option on a blocking
    socket, so no call polls; the edges of that encoding."""

    @staticmethod
    def _option(sock, name):
        size = len(deadline_timeval(1.0))
        return sock.getsockopt(socket.SOL_SOCKET, name, size)

    def test_deadline_is_a_socket_option_not_a_python_timeout(
            self, onc_module):
        server = StubServer(onc_module, MailImpl(onc_module)).tcp_server()
        with server:
            transport = TcpClientTransport(*server.address, deadline=2.0)
            try:
                sock = transport._sock
                assert sock.gettimeout() is None
                for name in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
                    assert self._option(sock, name) == deadline_timeval(2.0)
                assert onc_module.Test_MailClient(transport).avg([6]) == 6.0
            finally:
                transport.close()

    def test_no_deadline_waits_for_ever(self, onc_module):
        server = StubServer(onc_module, MailImpl(onc_module)).tcp_server()
        with server:
            transport = TcpClientTransport(*server.address, deadline=None)
            try:
                sock = transport._sock
                assert sock.gettimeout() is None
                assert self._option(sock, socket.SO_RCVTIMEO) \
                    == bytes(len(deadline_timeval(1.0)))
                assert onc_module.Test_MailClient(transport).avg([8]) == 8.0
            finally:
                transport.close()
        assert deadline_timeval(None) is None

    def test_a_tiny_deadline_is_one_microsecond_not_for_ever(self):
        """A zero timeval means "no timeout": a positive deadline that
        rounds to 0 us must round up instead."""
        one_us = struct.pack("@ll", 0, 1)
        assert deadline_timeval(1e-7) == one_us
        assert deadline_timeval(4.9e-7) == one_us
        assert deadline_timeval(1e-6) == one_us
        assert deadline_timeval(2.5) == struct.pack("@ll", 2, 500000)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)  # accepts nothing, answers nothing
        try:
            transport = TcpClientTransport(
                *listener.getsockname(), deadline=1e-7, connect_timeout=5.0)
            try:
                assert self._option(transport._sock, socket.SO_RCVTIMEO) \
                    != bytes(len(one_us))
                with pytest.raises(TransportError, match="timed out$"):
                    transport.call(b"request")
            finally:
                transport.close()
        finally:
            listener.close()

    @pytest.mark.parametrize("deadline", [0, 0.0, -1, float("nan")])
    def test_a_non_positive_deadline_is_refused_before_connecting(
            self, deadline):
        """``settimeout(0)`` made the socket non-blocking, so every
        ``recv`` failed at once; now the constructor refuses it.  Port 9
        has no listener: a ValueError, not a refused connect, shows the
        check comes first."""
        with pytest.raises(ValueError, match="positive number of seconds"):
            TcpClientTransport("127.0.0.1", 9, deadline=deadline)
        with pytest.raises(ValueError, match="positive number of seconds"):
            UdpClientTransport("127.0.0.1", 9, deadline=deadline)

    def test_udp_deadline_expiry_is_a_timeout(self):
        """The UDP client keeps its vocabulary: an expiry is
        ``socket.timeout`` (``TimeoutError``), and the transport goes on
        working."""
        silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        silent.bind(("127.0.0.1", 0))
        try:
            transport = UdpClientTransport(
                *silent.getsockname(), deadline=0.05)
            try:
                assert transport._sock.gettimeout() is None
                for _ in range(2):
                    with pytest.raises(socket.timeout, match="^timed out$"):
                        transport.call(b"anyone?")
            finally:
                transport.close()
        finally:
            silent.close()


class TestTracedClient:
    """With a tracer installed the client transport's spans and the
    injected trace context are what they always were; without one the
    request goes out byte for byte."""

    def _call(self, onc_module):
        """One call against a raw server: the request as marshalled and
        as it arrived."""
        request = _avg_request(onc_module, 9, [1, 2])
        received = []
        listener, thread = _misbehaving_server(
            encode_record(b"reply"), received)
        try:
            transport = TcpClientTransport(*listener.getsockname())
            try:
                assert transport.call(memoryview(request)) == b"reply"
            finally:
                transport.close()
        finally:
            listener.close()
            thread.join(timeout=5)
        (arrived,) = RecordDecoder().feed(b"".join(received))
        return request, arrived

    def test_untraced_request_is_sent_unchanged(self, onc_module):
        request, received = self._call(onc_module)
        assert received == request

    def test_spans_and_injected_context(self, onc_module):
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        try:
            with obs.span("caller") as caller:
                request, received = self._call(onc_module)
        finally:
            obs.shutdown()
        context = propagation.extract(received)
        assert (context.trace_id, context.span_id) \
            == (caller.trace_id, caller.span_id)
        assert len(received) > len(request)
        (send,) = exporter.by_name("send")
        (awaited,) = exporter.by_name("await.reply")
        assert send.attrs == {"bytes": len(received)}
        assert awaited.attrs == {}
        for span in (send, awaited):
            assert (span.trace_id, span.parent_id) \
                == (caller.trace_id, caller.span_id)


class TestUdpLimits:
    def test_oversized_datagram_send_rejected(self):
        transport = UdpClientTransport("127.0.0.1", 9)
        try:
            with pytest.raises(
                TransportError, match="UDP datagram limit"
            ):
                transport.send(b"y" * (MAX_UDP_SIZE + 1))
        finally:
            transport.close()


class TestGracefulShutdown:
    """stop() closes the listener, unblocks workers, and joins every
    thread — servers do not leak threads across start/stop cycles."""

    def test_tcp_stop_joins_all_threads(self, onc_module):
        baseline = threading.active_count()
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        server.start()
        transports = [
            TcpClientTransport(*server.address) for _ in range(4)
        ]
        try:
            for index, transport in enumerate(transports):
                client = onc_module.Test_MailClient(transport)
                assert client.avg([index]) == float(index)
            # Workers are now blocked in recv() on idle connections.
            server.stop(timeout=5.0)
        finally:
            for transport in transports:
                transport.close()
        deadline = time.time() + 2
        while threading.active_count() > baseline and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline

    def test_tcp_stop_refuses_new_connections(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        server.start()
        address = server.address
        server.stop(timeout=5.0)
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1.0)

    def test_udp_stop_joins_thread(self, onc_module):
        baseline = threading.active_count()
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).udp_server()
        server.start()
        server.stop(timeout=5.0)
        assert threading.active_count() <= baseline

    def test_stop_twice_is_safe(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        server.start()
        server.stop()
        server.stop()
