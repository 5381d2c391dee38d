"""End-to-end tests for the protocol gateway (`repro.gateway`).

The contract under test: an *unmodified* client of one protocol calls
an *unmodified* servant of the other through the gateway and observes
byte-identical results to a same-protocol call — in both directions —
while the bridge is statically verified lossless before serving, errors
cross the bridge through a total GIOP<->ONC mapping, and client,
gateway, and upstream spans join into one trace.
"""

import contextlib
import json
import socket
import struct
import threading
import urllib.request

import pytest

from repro import api, obs
from repro.compat import pair_bridge
from repro.encoding import MarshalBuffer
from repro.errors import (
    DeadlineError,
    MarshalError,
    RemoteCallError,
    TransportError,
    UnmarshalError,
    WireFormatError,
)
from repro.gateway import (
    AioGatewayServer,
    bridge_exit_code,
    build_plan,
    check_bridge,
    predict_fused,
    transcode_request,
    translate_reply,
)
from repro.envelopes import write_error
from repro.gateway import errmap
from repro.gateway.envelope import parse_request
from repro.obs import metrics
from repro.runtime import StubServer, TcpClientTransport
from repro.runtime.aio import ServerStats
from repro.runtime.aio.correlation import route

from tests import bridge_plans, copy_refusals
from tests.conftest import MAIL_IDL, MailImpl, compile_mail
from tests.endpoint import registry_endpoint
from tests.envelope_verdicts import reply_error
from tests.rawsock import recv_record


@pytest.fixture(scope="module")
def onc_result():
    return compile_mail("oncrpc-xdr")


@pytest.fixture(scope="module")
def iiop_result():
    return compile_mail("iiop")


@contextlib.contextmanager
def _bridge(ingress_result, egress_result, *, servant_aio=False,
            stats=None, fuse=True, **gateway_kwargs):
    """An upstream servant plus a gateway bridging onto it."""
    egress_module = egress_result.module
    impl = MailImpl(egress_module)
    stub_server = StubServer(egress_module, impl)
    upstream = (stub_server.aio_server() if servant_aio
                else stub_server.tcp_server())
    with upstream:
        plan = build_plan(ingress_result, egress_result, fuse=fuse)
        gateway = AioGatewayServer(
            plan, upstream.address[0], upstream.address[1],
            stats=stats, **gateway_kwargs)
        with gateway:
            yield gateway, impl


@contextlib.contextmanager
def _client(module, address):
    transport = TcpClientTransport(address[0], address[1])
    try:
        yield module.Test_MailClient(transport), transport
    finally:
        transport.close()


@contextlib.contextmanager
def _canned_onc_upstream(stat):
    """A TCP upstream answering every ONC call with *stat*, an
    accept_stat, whatever was asked."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer(connection):
        with connection:
            while True:
                try:
                    request = recv_record(connection)
                except TransportError:
                    return
                reply = struct.pack(">IIIIII", struct.unpack_from(
                    ">I", request)[0], 1, 0, 0, 0, stat)
                connection.sendall(
                    struct.pack(">I", 0x80000000 | len(reply)) + reply)

    def accept():
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=answer, args=(connection,),
                             daemon=True).start()

    threading.Thread(target=accept, daemon=True).start()
    try:
        yield listener.getsockname()
    finally:
        listener.close()


def _rect(module):
    return module.Test_Rect(module.Test_Point(1, 2),
                            module.Test_Point(3, 4))


# ----------------------------------------------------------------------
# The bridge plan: what fuses, what falls back
# ----------------------------------------------------------------------

class TestPlan:
    def test_word_and_byte_channels_fuse_and_union_channels_fall_back(
            self, iiop_result, onc_result):
        plan = build_plan(iiop_result, onc_result)
        # sequence<long>, long[6]-shaped and sequence<octet> channels
        # splice wire to wire; unions and doubles re-encode.
        assert "avg" in plan.fused_request_ops
        assert "tri" in plan.fused_request_ops
        assert "ping" in plan.fused_request_ops
        assert "reverse" in plan.fused_request_ops
        assert "send" not in plan.fused_request_ops  # inout Value
        by_name = {p.name: p for p in plan.ops.values()}
        assert 0 not in by_name["send"].reply_segments  # union arm
        assert by_name["send"].exceptions  # Bad arm is paired

    def test_summary_names_every_operation(self, iiop_result, onc_result):
        plan = build_plan(iiop_result, onc_result)
        summary = plan.summary()
        for op in ("send", "ping", "avg", "reverse", "tri"):
            assert op in summary

    def test_plans_and_profiled_paths_match_the_golden_file(self):
        """Every example pair's plan, segments and prediction, and the
        profiler's channel paths (regenerate: ``python -m
        tests.bridge_plans golden``)."""
        with open(bridge_plans.GOLDEN) as handle:
            assert bridge_plans.document() == json.load(handle)

    def test_fused_refusals_match_the_golden_file(self):
        """Every cut and forged frame of the pinned fused channels sends
        the same egress bytes or refuses with the same message, offset,
        field, limit and actual (regenerate: ``python -m
        tests.copy_refusals golden``)."""
        with open(copy_refusals.GOLDEN) as handle:
            assert copy_refusals.document() == json.load(handle)

    def test_every_fused_channel_predicts_a_whole_copy(self):
        """Across the golden pairs, ``flick bridge`` reports
        ``byte_fraction == 1.0`` for every channel the plan fuses."""
        with open(bridge_plans.GOLDEN) as handle:
            plans = json.load(handle)["plans"]
        fused = [(pair, op, direction, prediction["byte_fraction"])
                 for pair, record in plans.items()
                 for op, entry in record["ops"].items()
                 for direction, prediction in entry["predicted"].items()
                 if prediction["fused"]]
        assert len(fused) > 100
        assert [entry for entry in fused if entry[3] != 1.0] == []

    def test_no_fuse_plan_has_no_segments(self, iiop_result, onc_result):
        plan = build_plan(iiop_result, onc_result, fuse=False)
        assert plan.fused_request_ops == []
        assert all(not p.reply_segments for p in plan.ops.values())

    def test_fused_and_fallback_produce_identical_egress_bytes(
            self, iiop_result, onc_result):
        fused = build_plan(iiop_result, onc_result)
        plain = build_plan(iiop_result, onc_result, fuse=False)
        module = iiop_result.module
        request = MarshalBuffer()
        module._m_req_avg(request, 99, [5, 6, 7, 8])
        data = request.getvalue()
        out = {}
        for label, plan in (("fused", fused), ("plain", plain)):
            env = parse_request(data, plan.ingress_spec)
            op = plan.ops[env.op_key]
            buffer = MarshalBuffer()
            ran_fused = transcode_request(op, data, env, buffer)
            assert ran_fused == (label == "fused")
            out[label] = buffer.getvalue()
        assert out["fused"] == out["plain"]


# ----------------------------------------------------------------------
# End to end, both directions, against unmodified clients and servants
# ----------------------------------------------------------------------

class TestEndToEnd:
    def _exercise(self, client, module):
        assert client.avg([4, 6, 8]) == 6.0
        assert client.reverse(b"abc") == b"cba"
        rect = _rect(module)
        assert client.send("hey", rect, (1, 1.5)) == (8, (1, 1.5), 2)
        client.tri([module.Test_Point(0, 0)] * 3)
        assert client._get_counter() == 42
        with pytest.raises(module.Test_Bad) as info:
            client.send("fail", rect, (0, 1))
        assert info.value.why == "nope"
        assert info.value.code == -3

    @staticmethod
    def _await_ping(impl, value, timeout=5.0):
        import time

        deadline = time.time() + timeout
        while impl.last_ping != value and time.time() < deadline:
            time.sleep(0.01)
        return impl.last_ping

    def test_iiop_client_to_onc_servant(self, iiop_result, onc_result):
        module = iiop_result.module
        with _bridge(iiop_result, onc_result) as (gateway, impl):
            with _client(module, gateway.address) as (client, _):
                self._exercise(client, module)
                client.ping(31)
                # The oneway crossed the bridge to the real servant.
                assert self._await_ping(impl, 31) == 31

    def test_onc_client_to_iiop_servant(self, onc_result, iiop_result):
        module = onc_result.module
        with _bridge(onc_result, iiop_result, servant_aio=True) \
                as (gateway, impl):
            with _client(module, gateway.address) as (client, _):
                self._exercise(client, module)
                client.ping(77)
                assert self._await_ping(impl, 77) == 77

    @pytest.mark.parametrize("ingress,egress", [
        ("iiop", "oncrpc-xdr"), ("oncrpc-xdr", "iiop"),
    ])
    def test_bridged_reply_is_byte_identical_to_same_protocol(
            self, ingress, egress):
        ingress_result = compile_mail(ingress)
        egress_result = compile_mail(egress)
        module = ingress_result.module
        request = MarshalBuffer()
        module._m_req_avg(request, 4242, [10, 20, 30, 40])
        payload = request.getvalue()
        with _bridge(ingress_result, egress_result) as (gateway, _):
            with _client(module, gateway.address) as (_, transport):
                bridged = bytes(transport.call(payload))
        direct_server = StubServer(
            module, MailImpl(module)).tcp_server()
        with direct_server:
            with _client(module, direct_server.address) as (_, transport):
                direct = bytes(transport.call(payload))
        assert bridged == direct

    def test_unknown_operation_is_refused_in_ingress_protocol(
            self, iiop_result, onc_result):
        module = iiop_result.module
        request = MarshalBuffer()
        module._m_req_avg(request, 7, [1])
        data = bytearray(request.getvalue())
        # Corrupt the operation name: same length, unknown name.
        data = bytes(data).replace(b"avg\x00", b"zzz\x00")
        with _bridge(iiop_result, onc_result) as (gateway, _):
            with _client(module, gateway.address) as (_, transport):
                reply = bytes(transport.call(data))
        error = reply_error(reply)
        assert error is not None
        assert error.protocol == "giop"
        assert "BAD_OPERATION" in error.code

    def test_upstream_down_maps_to_local_failure_reply(
            self, iiop_result, onc_result):
        plan = build_plan(iiop_result, onc_result)
        # Point the gateway at a dead upstream port.
        import socket as socketlib

        probe_socket = socketlib.socket()
        probe_socket.bind(("127.0.0.1", 0))
        dead_port = probe_socket.getsockname()[1]
        probe_socket.close()
        module = iiop_result.module
        gateway = AioGatewayServer(plan, "127.0.0.1", dead_port)
        with gateway:
            with _client(module, gateway.address) as (_, transport):
                request = MarshalBuffer()
                module._m_req_avg(request, 5, [1, 2])
                reply = bytes(transport.call(request.getvalue()))
        error = reply_error(reply)
        assert error is not None
        # Local egress-leg failures surface as COMM_FAILURE/TRANSIENT.
        assert ("COMM_FAILURE" in error.code
                or "TRANSIENT" in error.code)


def _dead_port():
    """A local port with nothing listening on it."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _framed(payload):
    return struct.pack(">I", 0x80000000 | len(payload)) + payload


class TestUpstreamLeg:
    """The request half runs in the ingress read, the reply half in the
    upstream read: what that must keep of the old coroutine path."""

    def test_failed_oneway_is_an_upstream_error_not_a_bad_frame(
            self, iiop_result, onc_result):
        """A oneway whose upstream leg fails is counted under the
        gateway's upstream errors, and the caller keeps its
        connection (the next two-way call gets the mapped reply)."""
        plan = build_plan(iiop_result, onc_result)
        stats = ServerStats()
        module = iiop_result.module
        with AioGatewayServer(plan, "127.0.0.1", _dead_port(),
                              stats=stats) as gateway:
            with _client(module, gateway.address) as (client, _):
                client.ping(5)
                with pytest.raises(RemoteCallError) as caught:
                    client.avg([1, 2, 3])
        assert "COMM_FAILURE" in caught.value.code
        assert stats.malformed.value == 0
        samples = metrics.parse_prometheus(stats.registry.render_prometheus())
        errors = samples["flick_gateway_upstream_errors_total"]
        assert errors == {(("bridge", "giop->oncrpc"),
                           ("code", "TransportError")): 2}

    def test_64_in_flight_answered_out_of_order(self, iiop_result,
                                                onc_result):
        """64 requests pipelined on one ingress connection, an upstream
        that answers them in another order: each reply carries its own
        request id and its own value."""
        import time

        class Scrambled(MailImpl):
            def avg(self, xs):
                time.sleep(0.001 * (xs[0] * 37 % 16))
                return super().avg(xs)

        module = iiop_result.module
        egress_module = onc_result.module
        upstream = StubServer(egress_module, Scrambled(egress_module)) \
            .aio_server()
        requests = b""
        for index in range(64):
            buffer = MarshalBuffer()
            module._m_req_avg(buffer, 1000 + index, [index, index + 2])
            requests += _framed(bytes(buffer.getvalue()))
        with upstream, AioGatewayServer(
                build_plan(iiop_result, onc_result),
                *upstream.address[:2]) as gateway:
            with socket.create_connection(gateway.address[:2]) as sock:
                sock.sendall(requests)
                replies = [recv_record(sock) for _ in range(64)]
        answered = {}
        for reply in replies:
            request_id = route(reply)[0]
            answered[request_id] = module._u_rep_avg(
                reply, module._check_reply(reply, request_id))
        assert answered == {1000 + index: index + 1.0
                            for index in range(64)}

    def test_stop_while_upstream_blocks_finishes_every_record(
            self, iiop_result, onc_result):
        """stop() with calls parked in a servant that blocks: the drain
        gives up, every record is finished once when the pool closes,
        and each caller gets a reply or a clean close."""
        entered = threading.Semaphore(0)
        release = threading.Event()

        class Blocking(MailImpl):
            def avg(self, xs):
                entered.release()
                release.wait(10)
                return super().avg(xs)

        module = iiop_result.module
        egress_module = onc_result.module
        upstream = StubServer(egress_module, Blocking(egress_module)) \
            .aio_server()
        callers = []
        with upstream:
            gateway = AioGatewayServer(
                build_plan(iiop_result, onc_result),
                *upstream.address[:2], drain_timeout=0.2).start()
            try:
                for index in range(4):
                    sock = socket.create_connection(gateway.address[:2])
                    callers.append(sock)
                    buffer = MarshalBuffer()
                    module._m_req_avg(buffer, index + 1, [index])
                    sock.sendall(_framed(bytes(buffer.getvalue())))
                for _ in callers:
                    assert entered.acquire(timeout=5)
                assert gateway.in_flight == 4
            finally:
                gateway.stop()
                release.set()
            assert gateway.in_flight == 0
            for sock in callers:
                with sock:
                    sock.settimeout(5)
                    try:
                        reply = recv_record(sock)
                    except TransportError as closed:
                        assert "connection closed mid-record header" \
                            in str(closed)
                    else:
                        assert reply_error(reply) is not None

    def test_upstream_fault_plan_drop_and_delay(self, iiop_result,
                                                onc_result):
        """A dropped egress request is a mapped local failure on a
        connection that stays open; a delayed one is answered no
        sooner than its delay."""
        import time

        from repro.faults import FaultPlan

        module = iiop_result.module
        with _bridge(iiop_result, onc_result,
                     upstream_fault_plan=FaultPlan(drop=1.0)) \
                as (gateway, _):
            with _client(module, gateway.address) as (client, _):
                for _ in range(2):
                    with pytest.raises(RemoteCallError) as caught:
                        client.avg([1, 2])
                    assert "COMM_FAILURE" in caught.value.code
        with _bridge(iiop_result, onc_result,
                     upstream_fault_plan=FaultPlan(delay=1.0,
                                                   delay_s=0.2)) \
                as (gateway, _):
            with _client(module, gateway.address) as (client, _):
                started = time.perf_counter()
                assert client.avg([2, 4]) == 3.0
                assert time.perf_counter() - started >= 0.2

    def test_upstream_fault_plan_delays_a_oneway(self, iiop_result,
                                                 onc_result):
        """A oneway through the gateway goes out after the plan's delay;
        the caller is not held for it."""
        import time

        from repro.faults import FaultPlan

        module = iiop_result.module
        with _bridge(iiop_result, onc_result,
                     upstream_fault_plan=FaultPlan(delay=1.0,
                                                   delay_s=0.3)) \
                as (gateway, impl):
            with _client(module, gateway.address) as (client, _):
                started = time.perf_counter()
                client.ping(7)
                assert impl.last_ping is None
                while impl.last_ping is None \
                        and time.perf_counter() - started < 5:
                    time.sleep(0.01)
                assert impl.last_ping == 7
                assert time.perf_counter() - started >= 0.3

    def test_upstream_fault_plan_reset_of_a_oneway(self, iiop_result,
                                                   onc_result):
        """A oneway the plan resets never reaches the servant; it is an
        upstream error, not a bad frame, and the caller keeps its
        connection (the next call gets the mapped reply)."""
        from repro.faults import FaultPlan

        stats = ServerStats()
        module = iiop_result.module
        with _bridge(iiop_result, onc_result, stats=stats,
                     upstream_fault_plan=FaultPlan(reset=1.0)) \
                as (gateway, impl):
            with _client(module, gateway.address) as (client, _):
                client.ping(5)
                with pytest.raises(RemoteCallError) as caught:
                    client.avg([1, 2, 3])
            assert impl.last_ping is None
        assert "COMM_FAILURE" in caught.value.code
        assert stats.malformed.value == 0
        samples = metrics.parse_prometheus(stats.registry.render_prometheus())
        assert samples["flick_gateway_upstream_errors_total"] == {
            (("bridge", "giop->oncrpc"), ("code", "TransportError")): 2}

    def test_upstream_fault_plan_reorder_ends_every_call(
            self, iiop_result, onc_result):
        """Reordering holds every other egress request: that call is a
        mapped local failure, the next one gets its own reply (the held
        request follows it out, its reply an orphan upstream)."""
        from repro.faults import FaultPlan

        module = iiop_result.module
        with _bridge(iiop_result, onc_result,
                     upstream_fault_plan=FaultPlan(reorder=1.0)) \
                as (gateway, _):
            transport = TcpClientTransport(*gateway.address[:2],
                                           deadline=5)
            client = module.Test_MailClient(transport)
            try:
                for index in range(6):
                    if index % 2:
                        assert client.avg([index, index + 2]) == index + 1
                        continue
                    with pytest.raises(RemoteCallError) as caught:
                        client.avg([index, index + 2])
                    assert "COMM_FAILURE" in caught.value.code
            finally:
                transport.close()
            assert gateway.in_flight == 0

    def test_upstream_fault_plan_corrupt_ends_every_call(
            self, iiop_result, onc_result):
        """A bit flipped anywhere in an egress request, its id
        included: every call ends in a reply or a mapped error reply,
        on a connection that stays open."""
        from repro.faults import FaultPlan

        module = iiop_result.module
        with _bridge(iiop_result, onc_result,
                     upstream_fault_plan=FaultPlan(corrupt=1.0, seed=5)) \
                as (gateway, _):
            transport = TcpClientTransport(*gateway.address[:2],
                                           deadline=5)
            client = module.Test_MailClient(transport)
            answered = 0
            try:
                for index in range(24):
                    try:
                        client.avg([index, index + 2])
                    except RemoteCallError:
                        continue
                    answered += 1
            finally:
                transport.close()
            assert answered
            assert gateway.in_flight == 0


def _plan_codecs(plan):
    """``{(op, OpPlan field or exception class): function}``."""
    held = {}
    for op in plan.ops.values():
        for form in ("u_req", "m_req", "u_rep", "m_rep_ok"):
            if getattr(op, form) is not None:
                held[op.name, form] = getattr(op, form)
        for name, function in op.exceptions.items():
            held[op.name, name] = function
    return held


class TestAPlanBuiltBeforeAnyCall:
    """The e2e ``gateway_bridge`` builds its plan at set-up, before any
    codec has run, so under either renderer name the plan binds deferred
    entries; the first bridged call of each operation must leave it
    holding what that call compiled, so no later call forwards through a
    deferred entry."""

    @pytest.mark.parametrize("renderer", ("py", "closures"))
    def test_first_bridged_calls_leave_compiled_codecs(self, renderer):
        ingress, egress = (
            api.compile(MAIL_IDL, "corba", backend=backend, renderer=renderer)
            for backend in ("iiop", "oncrpc-xdr"))
        module = ingress.module
        with _bridge(ingress, egress) as (gateway, impl):
            before = _plan_codecs(gateway.plan)
            assert before and all(
                function.__module__ == "repro.mir.render_closures"
                for function in before.values())
            with _client(module, gateway.address) as (client, _):
                rect = _rect(module)
                for _ in range(2):
                    assert client.avg([4, 6, 8]) == 6.0
                    assert client.reverse(b"abc") == b"cba"
                    assert client.send("hey", rect, (1, 1.5)) \
                        == (8, (1, 1.5), 2)
                    with pytest.raises(module.Test_Bad):
                        client.send("fail", rect, (0, 1))
                    client.tri([module.Test_Point(0, 0)] * 3)
                    assert client._get_counter() == 42
            after = _plan_codecs(gateway.plan)
        # A deferred entry that has compiled carries ``__wrapped__``: the
        # plan holds none, only compiled codecs and entries never called.
        assert [key for key, function in after.items()
                if hasattr(function, "__wrapped__")] == []
        compiled = {key for key, function in after.items()
                    if function.__module__ != "repro.mir.render_closures"}
        # The fallback (re-encode) paths ran, so they are compiled.
        assert {("send", "u_req"), ("send", "m_req"), ("send", "u_rep"),
                ("send", "m_rep_ok"), ("send", "Test_Bad")} <= compiled


# ----------------------------------------------------------------------
# Static check cross-validated against runtime behavior
# ----------------------------------------------------------------------

NARROW_V1 = """
module Test {
  interface Mail {
    string<2048> fetch(in long slot);
  };
};
"""

NARROW_V2 = """
module Test {
  interface Mail {
    string<64> fetch(in long slot);
  };
};
"""


class TestBridgeCheck:
    def test_same_schema_pair_is_lossless(self, iiop_result, onc_result):
        diff = check_bridge(pair_bridge(iiop_result, onc_result))
        assert diff.verdict.name == "WIRE_IDENTICAL"
        assert bridge_exit_code(diff) == 0

    def test_breaking_pair_names_the_channel_and_exits_2(self):
        # BREAKING direction: the upstream may legally answer a fetch
        # reply longer than the narrow ingress schema can re-encode.
        from repro import api

        v1 = api.compile(NARROW_V2, "corba", backend="iiop")
        v2 = api.compile(NARROW_V1, "corba", backend="oncrpc-xdr")
        diff = check_bridge(pair_bridge(v1, v2))
        assert diff.verdict.name == "BREAKING"
        assert bridge_exit_code(diff) == 2
        (operation,) = [op for op in diff.operations
                        if op.operation == "fetch"]
        breaking = [c for c in operation.channels
                    if c.verdict.name == "BREAKING"]
        assert breaking, "the offending channel must be named"
        assert any("reply" in c.channel for c in breaking)

    def test_prediction_covers_exactly_the_served_operations(self):
        """An op that is oneway on one side only is not bridged, so
        flick bridge predicts no path for it."""
        from repro import api

        ingress = api.compile(
            "interface S { oneway void note(in long x);"
            " long get(in long x); };", "corba", backend="iiop")
        egress = api.compile(
            "interface S { void note(in long x); long get(in long x); };",
            "corba", backend="oncrpc-xdr")
        plan = build_plan(ingress, egress)
        predictions = predict_fused(plan)
        assert sorted(predictions) == sorted(
            op.name for op in plan.ops.values()) == ["get"]
        assert predictions["get"]["request"].fused
        assert bridge_exit_code(check_bridge(plan.pairing)) == 2

    def test_static_breaking_verdict_has_a_runtime_witness(self):
        """The value the static walk flags really fails at runtime."""
        from repro import api

        # Narrow ingress (string<64>) bridging onto a wide upstream
        # (string<2048>): the upstream can answer replies the ingress
        # schema cannot carry, so the pair is statically BREAKING and
        # the witness value must be refused at runtime too.
        narrow_ingress = api.compile(NARROW_V2, "corba", backend="iiop")
        wide_egress = api.compile(NARROW_V1, "corba",
                                  backend="oncrpc-xdr")
        diff = check_bridge(pair_bridge(narrow_ingress, wide_egress))
        assert diff.verdict.name == "BREAKING"

        class BigImpl:
            def fetch(self, slot):
                return "x" * 500  # legal upstream, over the ingress bound

        plan = build_plan(narrow_ingress, wide_egress)
        upstream = StubServer(wide_egress.module,
                              BigImpl()).tcp_server()
        module = narrow_ingress.module
        with upstream:
            gateway = AioGatewayServer(
                plan, upstream.address[0], upstream.address[1])
            with gateway:
                with _client(module, gateway.address) as (_, transport):
                    request = MarshalBuffer()
                    module._m_req_fetch(request, 3, 1)
                    reply = bytes(transport.call(request.getvalue()))
        error = reply_error(reply)
        assert error is not None, "oversized reply must not cross"


# ----------------------------------------------------------------------
# Error mapping: total, bijective core, encodable, decodable
# ----------------------------------------------------------------------

class TestErrorMapping:
    def test_canonical_core_round_trips(self):
        for repo_id, status in errmap._CANONICAL:
            assert errmap.GIOP_TO_ONC[repo_id] == status
            assert errmap.ONC_TO_GIOP[status] == repo_id

    def test_mapping_is_total_over_stub_emitted_codes(self):
        # Every accept/deny status the generated ONC stubs can answer.
        for status in ("PROG_UNAVAIL", "PROG_MISMATCH", "PROC_UNAVAIL",
                       "GARBAGE_ARGS", "SYSTEM_ERR", "RPC_MISMATCH",
                       "AUTH_ERROR"):
            error = RemoteCallError("x", protocol="oncrpc", code=status)
            code, _minor, _completed = errmap.translate_remote(
                error, "giop")
            assert code.startswith("IDL:omg.org/CORBA/")
        # Every repository id the generated IIOP stubs can answer.
        for repo_id in list(errmap.GIOP_TO_ONC) + ["IDL:vendor/X:1.0"]:
            error = RemoteCallError("x", protocol="giop", code=repo_id)
            code, _minor, _completed = errmap.translate_remote(
                error, "oncrpc")
            assert code in set(errmap.GIOP_TO_ONC.values())

    @pytest.mark.parametrize("repo_id", [r for r, _ in errmap._CANONICAL])
    def test_wire_round_trip_property(self, repo_id):
        """encode(ONC) -> classify -> encode(GIOP) -> classify -> same."""
        giop_error = RemoteCallError("x", protocol="giop", code=repo_id)
        onc_reply = errmap.translate_remote(giop_error, "oncrpc")
        buffer = MarshalBuffer()
        write_error(buffer, "oncrpc", 11, *onc_reply, versions=(2, 2))
        classified = reply_error(buffer.getvalue())
        assert classified is not None
        assert classified.protocol == "oncrpc"
        back = errmap.translate_remote(classified, "giop")
        wire = MarshalBuffer()
        write_error(wire, "giop", 11, *back)
        final = reply_error(wire.getvalue())
        assert final is not None
        assert final.code == repo_id

    def test_a_giop_relay_keeps_minor_and_completion(self):
        """COMPLETED_YES (0) stays 0: a caller told NO would retry a
        call that ran."""
        repo_id = "IDL:omg.org/CORBA/NO_MEMORY:1.0"
        for completed in (0, 1, 2):
            error = RemoteCallError("x", protocol="giop", code=repo_id,
                                    minor=3, completed=completed)
            assert errmap.translate_remote(error, "giop") == (
                repo_id, 3, completed)

    def test_an_unnamed_onc_status_is_relayed_as_system_err(
            self, onc_result):
        """An upstream answering accept_stat 9 gets each caller a
        SYSTEM_ERR reply on a connection that stays open."""
        with _canned_onc_upstream(stat=9) as address:
            plan = build_plan(onc_result, onc_result)
            stats = ServerStats()
            with AioGatewayServer(plan, *address, stats=stats) as gateway:
                with _client(onc_result.module,
                             gateway.address) as (client, _):
                    for _ in range(2):
                        with pytest.raises(RemoteCallError) as caught:
                            client.avg([1, 2])
                        assert caught.value.code == "SYSTEM_ERR"
            assert (stats.malformed.value, stats.servant_errors.value) == (
                0, 0)

    def test_local_failures_map_per_ingress_protocol(self):
        assert errmap.translate_local(
            DeadlineError("t"), "oncrpc")[0] == "SYSTEM_ERR"
        transient = errmap.translate_local(DeadlineError("t"), "giop")
        assert "TRANSIENT" in transient[0]
        assert transient[2] == 2  # COMPLETED_MAYBE
        comm = errmap.translate_local(TransportError("t"), "giop")
        assert "COMM_FAILURE" in comm[0]


# ----------------------------------------------------------------------
# Observability: joined traces and per-bridge metrics
# ----------------------------------------------------------------------

@pytest.fixture
def _tracing_off_after():
    yield
    obs.shutdown()


class TestObservability:
    def test_client_gateway_and_upstream_share_one_trace(
            self, iiop_result, onc_result, _tracing_off_after):
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        module = obs.instrument_stub_module(iiop_result.module)
        with _bridge(iiop_result, onc_result, servant_aio=True) \
                as (gateway, _):
            with _client(module, gateway.address) as (client, _):
                assert client.avg([3, 9]) == 6.0
        obs.shutdown()
        spans = exporter.spans
        (call,) = exporter.by_name("call")
        gateway_spans = [s for s in spans
                         if s.attrs.get("bridge") is not None]
        assert gateway_spans, "the gateway's dispatch span must tag the bridge"
        server_requests = exporter.by_name("server.request")
        # Gateway ingress + upstream server both opened one.
        assert len(server_requests) >= 2
        assert {s.trace_id for s in spans} == {call.trace_id}

    def test_upstream_round_trip_spans_nest_under_dispatch(
            self, iiop_result, onc_result, _tracing_off_after):
        """``dispatch`` > ``transport.call`` > ``pool.acquire`` (the
        first call dials), ``send``, ``await.reply``; the upstream's
        ``server.request`` hangs off ``transport.call``."""
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        module = iiop_result.module
        with _bridge(iiop_result, onc_result, servant_aio=True) \
                as (gateway, _):
            with _client(module, gateway.address) as (client, _):
                assert client.avg([3, 9]) == 6.0
        obs.shutdown()

        def children(parent):
            return {s.name: s for s in exporter.spans
                    if s.parent_id == parent.span_id}

        (root,) = [s for s in exporter.by_name("server.request")
                   if s.attrs.get("bridge") is not None]
        call = children(children(root)["dispatch"])["transport.call"]
        legs = children(call)
        assert set(legs) == {"pool.acquire", "send", "await.reply",
                             "server.request"}
        assert legs["send"].attrs["bytes"] > 0

    def test_metrics_count_fused_and_reencode_paths_per_bridge(
            self, iiop_result, onc_result):
        stats = ServerStats()
        module = iiop_result.module
        with _bridge(iiop_result, onc_result, stats=stats) \
                as (gateway, _):
            with _client(module, gateway.address) as (client, _):
                client.avg([1, 2, 3])
                client.send("hey", _rect(module), (1, 1.5))
            with registry_endpoint(stats.registry) as endpoint:
                url = "http://%s:%d/metrics" % endpoint.address[:2]
                with urllib.request.urlopen(url) as response:
                    text = response.read().decode()
        assert 'flick_profile_transcode_total' in text
        assert 'bridge="giop->oncrpc"' in text
        assert 'path="fused"' in text
        assert 'path="re-encode"' in text


# ----------------------------------------------------------------------
# The CLI verbs
# ----------------------------------------------------------------------

class TestCli:
    def test_bridge_identity_pair_exits_0(self, tmp_path, capsys):
        from repro.tools.cli import main

        source = tmp_path / "mail.idl"
        source.write_text(NARROW_V1)
        assert main(["bridge", str(source)]) == 0
        assert "WIRE_IDENTICAL" in capsys.readouterr().out

    def test_bridge_breaking_pair_exits_2(self, tmp_path, capsys):
        from repro.tools.cli import main

        narrow = tmp_path / "narrow.idl"
        wide = tmp_path / "wide.idl"
        narrow.write_text(NARROW_V2)
        wide.write_text(NARROW_V1)
        assert main(["bridge", str(narrow), str(wide)]) == 2
        assert "BREAKING" in capsys.readouterr().out

    def test_bridge_json_report(self, tmp_path, capsys):
        import json

        from repro.tools.cli import main

        source = tmp_path / "mail.idl"
        source.write_text(NARROW_V1)
        assert main(["bridge", str(source), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["tool"] == "flick-bridge"

    def test_bridge_text_report_is_titled_flick_bridge(self, tmp_path,
                                                       capsys):
        from repro.tools.cli import main

        source = tmp_path / "mail.idl"
        source.write_text(NARROW_V1)
        assert main(["bridge", str(source)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "flick bridge: %s -> %s" % (source, source)

    def test_bridge_prints_the_blocker_of_each_fallback(self, tmp_path,
                                                        capsys):
        """``flick bridge`` names what keeps each re-encoded channel
        from a copy, in text and in every JSON prediction."""
        from repro.tools.cli import main

        source = tmp_path / "shapes.idl"
        source.write_text(bridge_plans.SHAPES_IDL)
        main(["bridge", str(source)])
        text = capsys.readouterr().out
        assert "    request falls back at request.u: union" in text
        assert "    reply falls back at reply[case 0]._return: union" in text
        assert text.count("falls back at") == 2
        main(["bridge", str(source), "--json"])
        fused = json.loads(capsys.readouterr().out)["fused"]
        assert fused["pick"]["request"]["blocker"] == "request.u: union"
        assert fused["words"]["request"]["blocker"] is None

    def test_bridge_walks_each_message_pair_once(self, tmp_path, capsys,
                                                 monkeypatch):
        """``flick bridge`` verdict, plan and prediction read one walk:
        each operation's request and reply are paired exactly once."""
        from repro.compat import pairwalk
        from repro.tools.cli import main

        walked = []
        walk = pairwalk.pair_message

        def spy(sender, receiver, *args, **kwargs):
            walked.append(kwargs["path"])
            return walk(sender, receiver, *args, **kwargs)

        monkeypatch.setattr(pairwalk, "pair_message", spy)
        source = tmp_path / "shapes.idl"
        source.write_text(bridge_plans.SHAPES_IDL)
        main(["bridge", str(source)])
        capsys.readouterr()
        # paint, words and pick reply; mixed returns void, but replies.
        assert sorted(walked) == ["reply"] * 4 + ["request"] * 4


    def test_gateway_same_protocol_endpoints_rejected(self, tmp_path,
                                                      capsys):
        from repro.tools.cli import main

        source = tmp_path / "mail.idl"
        source.write_text(NARROW_V1)
        assert main([
            "gateway", str(source),
            "--listen", "iiop:127.0.0.1:0",
            "--upstream", "iiop:127.0.0.1:1",
        ]) == 1
        assert "two protocols" in capsys.readouterr().err

    def test_gateway_check_refuses_breaking_bridge(self, tmp_path,
                                                   capsys):
        from repro.tools.cli import main

        narrow = tmp_path / "narrow.idl"
        wide = tmp_path / "wide.idl"
        narrow.write_text(NARROW_V2)
        wide.write_text(NARROW_V1)
        assert main([
            "gateway", str(narrow),
            "--listen", "oncrpc:127.0.0.1:0",
            "--upstream", "iiop:127.0.0.1:1",
            "--upstream-idl", str(wide), "--check",
        ]) == 2
        assert "refusing" in capsys.readouterr().err


class TestBlockers:
    def test_only_unions_and_named_against_inline_block_a_golden_pair(
            self):
        """Across the golden bridge pairs, a predicted channel carries a
        blocker exactly when the plan holds no segments for it, and only
        ``shapes.idl``'s ``pick`` (both ways) and ``shapes_long.idl``'s
        ``paint`` request fall back."""
        with open(bridge_plans.GOLDEN) as handle:
            plans = json.load(handle)["plans"]
        blocked = set()
        for pair, record in plans.items():
            for op, entry in record["ops"].items():
                for direction, prediction in entry["predicted"].items():
                    assert bool(prediction["blocker"]) \
                        != prediction["fused"], (pair, op, direction)
                    if prediction["blocker"]:
                        blocked.add((pair.split(" -> ")[1].split(":")[0],
                                     op, direction,
                                     prediction["blocker"]))
        assert blocked == {
            ("shapes.idl", "pick", "request", "request.u: union"),
            ("shapes.idl", "pick", "reply", "reply[case 0]._return: union"),
            ("shapes_long.idl", "pick", "request", "request.u: union"),
            ("shapes_long.idl", "pick", "reply",
             "reply[case 0]._return: union"),
            ("shapes_long.idl", "paint", "request",
             "request.c: named type against an inline one"),
        }

    def test_a_reference_plan_blocks_every_channel(self, iiop_result,
                                                   onc_result):
        """``build_plan(fuse=False)`` holds no segments: a channel the
        fused plan copies says fusion was turned off, the others keep
        the walk's blocker."""
        def blockers(**kwargs):
            predictions = predict_fused(
                build_plan(iiop_result, onc_result, **kwargs))
            return {(op, direction): prediction.blocker
                    for op, directions in predictions.items()
                    for direction, prediction in directions.items()}

        fused, reference = blockers(), blockers(fuse=False)
        assert reference == {key: blocker or "fusion turned off"
                             for key, blocker in fused.items()}
        assert None in fused.values()

    def test_xdr_strings_are_sized_at_one_byte_a_char(self):
        """Under an XDR ingress a ``string<256>`` is at most 4 + 256
        bytes, while a char array presented element-wise still takes a
        4-byte word a char."""
        from repro import api

        idl = ("typedef char Chars[8];"
               " interface T { string<256> s(in string<64> a,"
               " in Chars c); };")
        ingress = api.compile(idl, "corba", backend="oncrpc-xdr")
        egress = api.compile(idl, "corba", backend="iiop")
        prediction = predict_fused(build_plan(ingress, egress))["s"]
        assert prediction["reply"].total_bytes == 260
        assert prediction["request"].total_bytes == 68 + 8 * 4
        assert prediction["request"].fusible_bytes == 68

    def test_a_struct_sizes_its_string_and_its_char_array_apart(self):
        """One argument holding both a string and an element-wise char
        array: the string still costs a byte a char, the array a word."""
        from repro import api

        idl = ("struct M { string<64> s; char c[8]; };"
               " interface T { void f(in M m); };")
        ingress = api.compile(idl, "corba", backend="oncrpc-xdr")
        egress = api.compile(idl, "corba", backend="iiop")
        request = predict_fused(build_plan(ingress, egress))["f"]["request"]
        assert request.total_bytes == 68 + 8 * 4

    @pytest.mark.parametrize("idl, blocker", [
        ("interface T { void f(in sequence<long> a, in double d); };",
         "request.d: atom is not one 4-byte word on both sides"),
        ("struct N { long v; sequence<N, 4> next; };"
         " interface T { void f(in N n); };", "request.n: recursive type"),
        ("interface T { void f(in string<8> s, in octet o); };",
         "request.o: atom is not one 4-byte word on both sides"),
        ("typedef octet Tag[4];"
         " interface T { void f(in string<8> s, in Tag t); };",
         "request.t: octets after a byte run"),
    ])
    def test_each_rule_names_its_node(self, idl, blocker):
        from repro import api

        ingress = api.compile(idl, "corba", backend="iiop")
        egress = api.compile(idl, "corba", backend="oncrpc-xdr")
        prediction = predict_fused(
            build_plan(ingress, egress))["f"]["request"]
        assert not prediction.fused
        assert prediction.blocker == blocker
