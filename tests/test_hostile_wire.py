"""Hostile peers, cross-protocol traffic, and client decode hardening.

Complements the volume fuzzing in ``test_fuzz_wire.py`` with targeted
scenarios: each protocol's server answering the *other* protocol's
requests, servers under malformed-then-valid pipelines, the client-side
rejection of damaged replies, and hypothesis coverage of the decode
limits (forged counts, forged lengths, declared-size lies).
"""

from __future__ import annotations

import os
import socket
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    DispatchError,
    RemoteCallError,
    RuntimeFlickError,
    TransportError,
    UnmarshalError,
    WireFormatError,
)
from repro.encoding import MarshalBuffer
from repro.runtime import StubServer
from repro.runtime.framing import RecordDecoder, encode_record
from tests.rawsock import recv_record

from tests.conftest import MailImpl, compile_db, compile_mail
from tests.test_fuzz_wire import (
    DbImpl,
    assert_valid_giop_reply,
    assert_valid_onc_reply,
    _capture_requests,
)


@pytest.fixture(scope="module")
def onc_module():
    return compile_db().module


@pytest.fixture(scope="module")
def iiop_module():
    return compile_mail("iiop").module


def _onc_request(onc_module):
    return _capture_requests(onc_module, [("echo", (b"payload",))])[0]


def _giop_request(iiop_module):
    return _capture_requests(iiop_module, [("avg", ([1, 2, 3],))])[0]


def _onc_call_header(xid, prog=0x20000099, vers=2, proc=3, rpcvers=2,
                     mtype=0):
    return struct.pack(">IIIIII", xid, mtype, rpcvers, prog, vers,
                       proc) + struct.pack(">IIII", 0, 0, 0, 0)


class ReplyingTransport:
    """A loopback transport that serves via ``StubServer.serve_bytes``."""

    def __init__(self, server):
        self.server = server

    def call(self, request):
        return self.server.serve_bytes(bytes(request))

    def send(self, request):
        pass

    def close(self):
        pass


class CannedTransport:
    """A transport returning a fixed reply regardless of the request."""

    def __init__(self, reply):
        self.reply = reply

    def call(self, request):
        return self.reply

    def send(self, request):
        pass

    def close(self):
        pass


# ---------------------------------------------------------------------------
# Cross-protocol hostility: each server versus the other's wire format.
# ---------------------------------------------------------------------------

class TestCrossProtocol:
    def test_giop_request_at_onc_server(self, onc_module, iiop_module):
        """A GIOP frame at an ONC server: clean refusal or a valid ONC
        error reply — never an uncaught exception — and the server keeps
        working."""
        server = StubServer(onc_module, DbImpl())
        frame = _giop_request(iiop_module)
        try:
            reply = server.serve_bytes(frame)
        except RuntimeFlickError:
            reply = None
        if reply is not None:
            assert_valid_onc_reply(frame, reply)
        good = _onc_request(onc_module)
        assert_valid_onc_reply(good, server.serve_bytes(good))

    def test_onc_request_at_giop_server(self, onc_module, iiop_module):
        server = StubServer(iiop_module, MailImpl(iiop_module))
        frame = _onc_request(onc_module)
        try:
            reply = server.serve_bytes(frame)
        except RuntimeFlickError:
            reply = None
        if reply is not None:
            assert_valid_giop_reply(frame, reply)
        good = _giop_request(iiop_module)
        assert_valid_giop_reply(good, server.serve_bytes(good))

    @pytest.mark.parametrize("runtime", ["blocking", "aio"])
    def test_cross_protocol_over_tcp(self, runtime, onc_module,
                                     iiop_module):
        """Live sockets: the wrong protocol gets an error or a close,
        never a hang, and the next (correct) connection is served."""
        stub_server = StubServer(iiop_module, MailImpl(iiop_module))
        server = (stub_server.tcp_server() if runtime == "blocking"
                  else stub_server.aio_server())
        wrong = _onc_request(onc_module)
        good = _giop_request(iiop_module)
        with server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                sock.sendall(encode_record(wrong))
                try:
                    reply = recv_record(sock)
                    assert_valid_giop_reply(wrong, reply)
                except TransportError:
                    pass  # clean close is equally acceptable
            finally:
                sock.close()
            sock = socket.create_connection(server.address, timeout=5)
            try:
                sock.sendall(encode_record(good))
                assert_valid_giop_reply(good, recv_record(sock))
            finally:
                sock.close()


# ---------------------------------------------------------------------------
# Server-side containment: malformed versus servant-bug classification.
# ---------------------------------------------------------------------------

class CrashingDbImpl(DbImpl):
    def echo(self, data):
        raise ValueError("servant exploded")


class TestServerContainment:
    def test_malformed_keeps_tcp_connection(self, onc_module):
        """A malformed request is answered in-protocol and the *same*
        connection then serves a valid request (satellite 1)."""
        from repro.runtime.aio import ServerStats

        stats = ServerStats()
        server = StubServer(onc_module, DbImpl()).tcp_server(stats=stats)
        unknown_proc = _onc_call_header(77, proc=999)
        good = _onc_request(onc_module)
        with server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                sock.sendall(encode_record(unknown_proc))
                reply = recv_record(sock)
                assert_valid_onc_reply(unknown_proc, reply)
                # Same socket, still alive:
                sock.sendall(encode_record(good))
                assert_valid_onc_reply(good, recv_record(sock))
            finally:
                sock.close()
        assert stats.malformed.value >= 1
        assert stats.servant_errors.value == 0

    @pytest.mark.parametrize("runtime", ["blocking", "aio"])
    def test_servant_crash_replies_then_closes(self, runtime, onc_module):
        """An implementation bug is answered with SYSTEM_ERR, counted,
        and the connection is closed (its state is suspect) — while the
        server itself keeps accepting."""
        from repro.runtime.aio import ServerStats

        stats = ServerStats()
        stub_server = StubServer(onc_module, CrashingDbImpl())
        server = (stub_server.tcp_server(stats=stats)
                  if runtime == "blocking"
                  else stub_server.aio_server(stats=stats))
        crash = _onc_request(onc_module)  # echo() raises in the servant
        with server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                sock.sendall(encode_record(crash))
                reply = recv_record(sock)
                assert_valid_onc_reply(crash, reply)
                # accept_stat must be SYSTEM_ERR (5).
                assert struct.unpack_from(">I", reply, 20)[0] == 5
                # The server then closes this connection.
                sock.settimeout(5)
                with pytest.raises(TransportError):
                    recv_record(sock)
            finally:
                sock.close()
            # ...but keeps accepting new ones.
            sock = socket.create_connection(server.address, timeout=5)
            sock.close()
        assert stats.servant_errors.value >= 1

    def test_aio_malformed_keeps_connection(self, onc_module):
        from repro.runtime.aio import ServerStats

        stats = ServerStats()
        server = StubServer(onc_module, DbImpl()).aio_server(stats=stats)
        unknown_proc = _onc_call_header(78, proc=1234)
        good = _onc_request(onc_module)
        with server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                sock.sendall(encode_record(unknown_proc))
                assert_valid_onc_reply(unknown_proc, recv_record(sock))
                sock.sendall(encode_record(good))
                assert_valid_onc_reply(good, recv_record(sock))
            finally:
                sock.close()
        assert stats.malformed.value >= 1

    def test_udp_server_survives_hostility(self, onc_module):
        """The single-threaded UDP loop must survive malformed datagrams
        and servant crashes alike."""
        server = StubServer(onc_module, CrashingDbImpl()).udp_server()
        with server:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(5)
            try:
                # Malformed: unknown procedure -> PROC_UNAVAIL datagram.
                bad = _onc_call_header(90, proc=999)
                sock.sendto(bad, server.address)
                reply, _peer = sock.recvfrom(65536)
                assert_valid_onc_reply(bad, reply)
                # Servant crash: echo() raises -> SYSTEM_ERR datagram.
                crash = _onc_request(onc_module)
                sock.sendto(crash, server.address)
                reply, _peer = sock.recvfrom(65536)
                assert_valid_onc_reply(crash, reply)
                assert struct.unpack_from(">I", reply, 20)[0] == 5
                # The loop is still alive for valid work (rev).
                class FixedUdp:
                    def __init__(self, sock, address):
                        self.sock, self.address = sock, address

                    def call(self, request):
                        self.sock.sendto(bytes(request), self.address)
                        data, _peer = self.sock.recvfrom(65536)
                        return data

                    def send(self, request):
                        self.sock.sendto(bytes(request), self.address)

                    def close(self):
                        pass

                client = onc_module.DB_DBVClient(
                    FixedUdp(sock, server.address)
                )
                assert client.rev([1, 2, 3]) == [3, 2, 1]
            finally:
                sock.close()


# ---------------------------------------------------------------------------
# Protocol-correct error replies, decoded by the real clients.
# ---------------------------------------------------------------------------

class TestOncErrorReplies:
    """Forged requests produce RFC 1831 error replies the generated
    client surfaces as typed errors."""

    @pytest.mark.parametrize("forge,code", [
        (dict(proc=999), "PROC_UNAVAIL"),
        (dict(prog=0x1234), "PROG_UNAVAIL"),
        (dict(vers=99), "PROG_MISMATCH"),
    ])
    def test_accepted_error_codes(self, onc_module, forge, code):
        server = StubServer(onc_module, DbImpl())
        reply = server.serve_bytes(_onc_call_header(5, **forge))
        client = onc_module.DB_DBVClient(CannedTransport(reply))
        # The client stamps xid 1 on its first call; rewrite the canned
        # reply's xid to match so only the error decode is under test.
        client = onc_module.DB_DBVClient(
            CannedTransport(struct.pack(">I", 1) + reply[4:])
        )
        with pytest.raises(RemoteCallError) as info:
            client.echo(b"x")
        assert info.value.code == code
        assert info.value.protocol == "oncrpc"

    def test_garbage_args_round_trip(self, onc_module):
        """A request whose args fail to decode is answered GARBAGE_ARGS
        and the client raises a retryable RemoteCallError."""
        server = StubServer(onc_module, DbImpl())
        truncated = _onc_request(onc_module)[:-6]
        reply = server.serve_bytes(truncated)
        assert_valid_onc_reply(truncated, reply)

        class TruncatingTransport(ReplyingTransport):
            def call(self, request):
                return self.server.serve_bytes(bytes(request)[:-6])

        client = onc_module.DB_DBVClient(TruncatingTransport(server))
        with pytest.raises(RemoteCallError) as info:
            client.rev([1, 2, 3])
        assert info.value.code == "GARBAGE_ARGS"

    def test_rpc_mismatch_is_denied(self, onc_module):
        server = StubServer(onc_module, DbImpl())
        reply = server.serve_bytes(_onc_call_header(1, rpcvers=9))
        client = onc_module.DB_DBVClient(CannedTransport(reply))
        with pytest.raises(RemoteCallError) as info:
            client.echo(b"x")
        assert info.value.code == "RPC_MISMATCH"
        # MSG_DENIED still is a TransportError to legacy handlers.
        assert isinstance(info.value, TransportError)


class TestGiopErrorReplies:
    def test_unknown_operation_is_bad_operation(self, iiop_module):
        server = StubServer(iiop_module, MailImpl(iiop_module))
        request = bytearray(_giop_request(iiop_module))
        index = bytes(request).find(b"avg")
        request[index:index + 3] = b"zzz"

        client = iiop_module.Test_MailClient(
            CannedTransport(server.serve_bytes(bytes(request)))
        )
        with pytest.raises(RemoteCallError) as info:
            client.avg([1, 2, 3])
        assert "BAD_OPERATION" in info.value.code
        assert info.value.protocol == "giop"
        assert info.value.completed == 1  # COMPLETED_NO

    def test_marshal_error_reply(self, iiop_module):
        server = StubServer(iiop_module, MailImpl(iiop_module))

        class CorruptingTransport(ReplyingTransport):
            def call(self, request):
                request = bytearray(request)
                # Forge the sequence count of avg's in-args.
                request[-16:-12] = struct.pack(">I", 0x7FFFFFFF)
                return self.server.serve_bytes(bytes(request))

        client = iiop_module.Test_MailClient(CorruptingTransport(server))
        with pytest.raises(RemoteCallError) as info:
            client.avg([1, 2, 3])
        assert "MARSHAL" in info.value.code

    def test_message_error_reply(self, iiop_module):
        """A GIOP MessageError from the peer surfaces as a typed
        RemoteCallError on the client."""
        message_error = b"GIOP\x01\x00\x00\x06" + struct.pack(">I", 0)
        client = iiop_module.Test_MailClient(
            CannedTransport(message_error)
        )
        with pytest.raises(RemoteCallError) as info:
            client.avg([1, 2])
        assert info.value.code == "GIOP::MessageError"

    def test_servant_crash_is_unknown_completed_maybe(self, iiop_module):
        class Crashing(MailImpl):
            def avg(self, xs):
                raise RuntimeError("boom")

        server = StubServer(iiop_module, Crashing(iiop_module))
        client = iiop_module.Test_MailClient(ReplyingTransport(server))
        with pytest.raises(RemoteCallError) as info:
            client.avg([1, 2, 3])
        assert "UNKNOWN" in info.value.code
        assert info.value.completed == 2  # COMPLETED_MAYBE


# ---------------------------------------------------------------------------
# Client-side hardening: damaged replies are typed, never retried.
# ---------------------------------------------------------------------------

class TestClientReplyHardening:
    def test_trailing_garbage_rejected(self, onc_module):
        server = StubServer(onc_module, DbImpl())

        class PaddingTransport(ReplyingTransport):
            def call(self, request):
                return super().call(request) + b"\x00\xff\x00\xff"

        client = onc_module.DB_DBVClient(PaddingTransport(server))
        with pytest.raises(WireFormatError) as info:
            client.rev([1, 2, 3])
        assert "trailing" in str(info.value)
        # Structured context travels with the error.
        assert info.value.offset is not None

    def test_truncated_reply_rejected(self, onc_module):
        server = StubServer(onc_module, DbImpl())

        class TruncatingTransport(ReplyingTransport):
            def call(self, request):
                return super().call(request)[:-5]

        client = onc_module.DB_DBVClient(TruncatingTransport(server))
        with pytest.raises((UnmarshalError, TransportError)):
            client.echo(b"hello world")

    def test_giop_trailing_garbage_rejected(self, iiop_module):
        server = StubServer(iiop_module, MailImpl(iiop_module))

        class PaddingTransport(ReplyingTransport):
            def call(self, request):
                return super().call(request) + b"\x99"

        client = iiop_module.Test_MailClient(PaddingTransport(server))
        with pytest.raises(WireFormatError):
            client.avg([2, 4])

    def test_wire_format_error_is_both_taxonomies(self):
        """WireFormatError satisfies decode-side *and* transport-side
        handlers, so every pre-hardening catch site still fires."""
        error = WireFormatError("bad bytes", offset=12, field="length",
                               limit=400, actual=5000)
        assert isinstance(error, UnmarshalError)
        assert isinstance(error, TransportError)
        text = str(error)
        assert "length" in text and "400" in text and "5000" in text


class TestGarbledPastTheId:
    """A reply that is sound up to its id and garbled after it still
    reaches its caller: the routed walk refuses to classify it, the
    locator's id routes it, and the stub's own check names the damage —
    not an orphan count and a deadline expiry."""

    @pytest.mark.parametrize("protocol", ["onc", "giop"])
    def test_the_stub_refuses_it_within_the_deadline(
            self, protocol, onc_module, iiop_module):
        from repro.runtime.aio import (
            AioClientTransport, AioTcpServer, ClientStats)

        if protocol == "onc":
            module, impl = onc_module, DbImpl()
            # reply_stat is 0 (accepted) or 1 (denied); 7 is neither.
            damage = (">I", 8, 7)
        else:
            module, impl = iiop_module, MailImpl(iiop_module)
            # A system-exception status whose id length runs off the end.
            damage = (">II", 20, 0x7FFFFFFF, 1 << 20)
        garbling = []

        def dispatch(request, servant, buffer):
            has_reply = module.dispatch(request, servant, buffer)
            if garbling:
                buffer.reserve(8)
                struct.pack_into(damage[0], buffer.data, *damage[1:])
            return has_reply

        stats = ClientStats()
        server = AioTcpServer(dispatch, impl,
                              error_encoder=module.encode_error_reply)
        with server:
            transport = AioClientTransport(
                *server.address[:2], deadline=5.0, stats=stats)
            try:
                if protocol == "onc":
                    client = module.DB_DBVClient(transport)
                    call, expected = (lambda: client.echo(b"hi")), b"hi"
                else:
                    client = module.Test_MailClient(transport)
                    call, expected = (lambda: client.avg([2, 4])), 3.0
                assert call() == expected
                (connection,) = transport.pool._connections
                garbling.append(True)
                started = time.monotonic()
                with pytest.raises(WireFormatError):
                    call()
                assert time.monotonic() - started < 2.0
                del garbling[:]
                assert call() == expected
                assert transport.pool._connections == [connection]
                assert not connection.closed
                assert connection.orphan_replies == 0
            finally:
                transport.close()
        assert stats.orphan_replies.value == 0
        assert stats.deadline_expiries.value == 0
        assert stats.wire_format_errors.value == 0  # the stub's, not ours


class TestPoolRetrySemantics:
    """Retry classification in ConnectionPool (unit-level, fake conns)."""

    def _run_pool(self, errors, options=None, breaker=None):
        """Drive one acall against a connector whose connections fail
        with each of *errors* in turn, then succeed.  Returns
        (result_or_exception, calls_made)."""
        import asyncio

        from repro.runtime.aio import CallOptions, ConnectionPool
        from repro.runtime.aio.options import RetryPolicy

        calls = []

        class FakeConnection:
            closed = False
            in_flight = 0

            async def acall(self, payload, deadline=None):
                calls.append(payload)
                if len(calls) <= len(errors):
                    raise errors[len(calls) - 1]
                return b"reply"

            async def aclose(self):
                pass

        connection = FakeConnection()

        async def connector():
            return connection

        options = options or CallOptions(
            idempotent=True,
            retry=RetryPolicy(max_attempts=4, base_delay=0.001),
        )

        async def main():
            pool = ConnectionPool("h", 0, connector=connector,
                                  options=options, breaker=breaker)
            try:
                return await pool.acall(b"request")
            finally:
                await pool.aclose()

        try:
            return asyncio.run(main()), len(calls)
        except Exception as error:
            return error, len(calls)

    def test_wire_format_error_never_retried(self):
        result, calls = self._run_pool(
            [WireFormatError("reply stream is garbage")]
        )
        assert isinstance(result, WireFormatError)
        assert calls == 1

    def test_remote_call_error_retried_when_idempotent(self):
        result, calls = self._run_pool(
            [RemoteCallError("GARBAGE_ARGS", protocol="onc",
                             code="GARBAGE_ARGS")]
        )
        assert result == b"reply"
        assert calls == 2

    def test_remote_call_error_not_retried_otherwise(self):
        from repro.runtime.aio import CallOptions
        from repro.runtime.aio.options import RetryPolicy

        result, calls = self._run_pool(
            [RemoteCallError("GARBAGE_ARGS")],
            options=CallOptions(
                idempotent=False,
                retry=RetryPolicy(max_attempts=4, base_delay=0.001),
            ),
        )
        assert isinstance(result, RemoteCallError)
        assert calls == 1

    def test_transport_error_retried(self):
        result, calls = self._run_pool([TransportError("connection lost")])
        assert result == b"reply"
        assert calls == 2


# ---------------------------------------------------------------------------
# Forged element counts on arrays of variable-size elements.
# ---------------------------------------------------------------------------

LEDGER_IDL = os.path.join(os.path.dirname(__file__), "..", "examples",
                          "idl", "ledger.idl")


class TestForgedAggregateCount:
    """The pre-loop guard of a non-fixed element array is ``count *
    minimum element size`` (140 bytes for a DirEnt on XDR), not one byte
    per element: a forged count the old bound let through is refused
    before a single element is built.  A decoder builds a DirEnt in its
    own frame (``_new`` and a store per field, no ``__init__``), so the
    elements built are counted at their field stores."""

    @pytest.mark.parametrize("backend,validate", [
        ("oncrpc-xdr", assert_valid_onc_reply),
        ("iiop", assert_valid_giop_reply),
    ])
    @pytest.mark.parametrize("renderer", ("py", "closures"))
    def test_forged_dirent_count_builds_nothing(self, backend, validate,
                                                renderer):
        from repro import api

        with open(LEDGER_IDL) as handle:
            module = api.compile(handle.read(), "corba", backend=backend,
                                 renderer=renderer).module
        stored = []
        dirent = module.Ledger_DirEnt

        class CountingDirEnt(dirent):
            __slots__ = ()

            def __setattr__(self, name, value):
                stored.append(self)
                dirent.__setattr__(self, name, value)

        def built():
            return len({id(element) for element in stored})

        module.Ledger_DirEnt = CountingDirEnt
        calls = []

        class Impl:
            def put_dirents(self, a):
                calls.append(len(a))

        stat = module.Ledger_Stat(*([7] * 30 + [b"t" * 16]))
        entries = [module.Ledger_DirEnt("file%d" % i, stat)
                   for i in range(3)]
        del stored[:]
        good = _capture_requests(module, [("put_dirents", (entries,))])[0]
        count_at = len(module._H_req_put_dirents)
        assert good[count_at:count_at + 4] == struct.pack(">I", 3)
        body = len(good) - count_at - 4
        server = StubServer(module, Impl())
        assert server.serve_bytes(good) is not None
        assert calls == [3] and built() == 3
        # One element per remaining byte fits the old bound; a tenth of
        # that still claims more DirEnts than the bytes can hold.
        for forged in (body, body // 10, 4):
            assert forged * 140 > body >= forged
            frame = bytearray(good)
            frame[count_at:count_at + 4] = struct.pack(">I", forged)
            del stored[:]
            with pytest.raises(UnmarshalError) as info:
                module.dispatch(bytes(frame), Impl(), MarshalBuffer())
            assert "truncated" in str(info.value)
            assert built() == 0
            validate(bytes(frame), server.serve_bytes(bytes(frame)))
        assert calls == [3]


# ---------------------------------------------------------------------------
# A peer that pipelines requests and never reads its replies.
# ---------------------------------------------------------------------------

class TestNonReadingPeer:
    """One deaf peer must not starve the asyncio server: a finished
    request frees its slot whether or not the reply has left, and a
    connection whose peer does not read is neither read nor served, so
    what it can pin is bounded by the concurrency cap."""

    REPLY_INTS = 16384  # a 64 KiB reply
    REQUESTS = 400

    def test_deaf_peer_cannot_starve_other_clients(self):
        from repro import api

        with open(LEDGER_IDL) as handle:
            module = api.compile(handle.read(), "corba",
                                 backend="oncrpc-xdr").module
        ints = list(range(self.REPLY_INTS))

        class Impl:
            def ping(self, x):
                return x

            def get_ints(self, n):
                return ints[:n]

        get_ints, ping = _capture_requests(
            module, [("get_ints", (self.REPLY_INTS,)), ("ping", (7,))])
        server = StubServer(module, Impl()).aio_server()
        cap = server.max_concurrency
        server.start()
        try:
            deaf = socket.socket()
            deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            deaf.connect(server.address)
            deaf.sendall(b"".join(
                encode_record(struct.pack(">I", xid) + get_ints[4:])
                for xid in range(1, self.REQUESTS + 1)))
            # Let the server run into the peer's closed window.
            deadline = time.time() + 5
            (connection,) = _wait_for_connections(server, 1, deadline)
            while not connection.write_paused and time.time() < deadline:
                time.sleep(0.01)
            assert connection.write_paused
            good = socket.create_connection(server.address, timeout=1.0)
            try:
                started = time.perf_counter()
                good.sendall(encode_record(ping))
                assert_valid_onc_reply(ping, recv_record(good))
                assert time.perf_counter() - started < 1.0
            finally:
                good.close()
            # The deaf connection holds the replies of the requests in
            # flight when its window closed (plus the write that closed
            # it) — not of all 400; the rest are not even started.
            reply_size = 4 * self.REPLY_INTS + 64
            time.sleep(0.2)
            assert connection.transport.get_write_buffer_size() \
                <= (cap + 4) * reply_size
            assert connection.backlog
            assert server.in_flight == 0
        finally:
            started = time.perf_counter()
            server.stop()
            stopped_in = time.perf_counter() - started
            deaf.close()
        assert stopped_in < 2.0, stopped_in


def _wait_for_connections(server, count, deadline):
    while len(server._connections) < count and time.time() < deadline:
        time.sleep(0.01)
    return list(server._connections)


# ---------------------------------------------------------------------------
# Hypothesis: the decode limits hold for arbitrary forged values.
# ---------------------------------------------------------------------------

uint32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestDecodeLimitProperties:
    @settings(max_examples=80, deadline=None)
    @given(forged=uint32)
    def test_forged_onc_sequence_count(self, forged):
        """Any forged element count is refused or answered in-protocol —
        and decoding never materializes the claimed allocation."""
        onc_module = compile_db().module
        server = StubServer(onc_module, DbImpl())
        request = bytearray(_capture_requests(
            onc_module, [("rev", ([1, 2, 3],))]
        )[0])
        request[40:44] = struct.pack(">I", forged)  # the count word
        frame = bytes(request)
        try:
            reply = server.serve_bytes(frame)
        except RuntimeFlickError:
            return
        if reply is not None:
            assert_valid_onc_reply(frame, reply)

    @settings(max_examples=80, deadline=None)
    @given(forged=uint32)
    def test_forged_giop_string_length(self, forged):
        """Forged operation-name lengths never crash the GIOP server."""
        iiop_module = compile_mail("iiop").module
        server = StubServer(iiop_module, MailImpl(iiop_module))
        request = bytearray(_giop_request(iiop_module))
        index = bytes(request).find(b"avg") - 4  # the CDR string length
        request[index:index + 4] = struct.pack(">I", forged)
        frame = bytes(request)
        try:
            reply = server.serve_bytes(frame)
        except RuntimeFlickError:
            return
        if reply is not None:
            assert_valid_giop_reply(frame, reply)

    @settings(max_examples=60, deadline=None)
    @given(declared=st.integers(min_value=0, max_value=0x7FFFFFFF))
    def test_framing_size_limit(self, declared):
        """Any declared fragment size over the cap raises a structured
        WireFormatError before buffering a byte of it."""
        from repro.runtime.framing import MAX_RECORD_SIZE

        decoder = RecordDecoder()
        header = struct.pack(">I", 0x80000000 | declared)
        if declared > MAX_RECORD_SIZE:
            with pytest.raises(WireFormatError) as info:
                decoder.feed(header)
            assert info.value.field == "record_size"
            assert info.value.limit == MAX_RECORD_SIZE
            assert info.value.actual == declared
        else:
            records = decoder.feed(header + b"\x00" * min(declared, 64))
            assert isinstance(records, list)

    @settings(max_examples=40, deadline=None)
    @given(auth_length=st.integers(min_value=401, max_value=0xFFFFFFFF))
    def test_onc_auth_cap(self, auth_length):
        """Credential/verifier bodies over RFC 1831's 400-byte cap are
        rejected in-protocol (GARBAGE_ARGS), not buffered."""
        onc_module = compile_db().module
        server = StubServer(onc_module, DbImpl())
        frame = (struct.pack(">IIIIII", 3, 0, 2, 0x20000099, 2, 3)
                 + struct.pack(">II", 0, auth_length) + b"\x00" * 8)
        try:
            reply = server.serve_bytes(frame)
        except RuntimeFlickError:
            return
        if reply is not None:
            assert_valid_onc_reply(frame, reply)
