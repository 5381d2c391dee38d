"""Tests for the runtime transports: sockets, simulated links, IPC."""

import pytest

from repro.errors import TransportError
from repro.runtime import (
    ETHERNET_10,
    ETHERNET_100,
    FLUKE_IPC,
    FlukeIpcTransport,
    LinkModel,
    LoopbackTransport,
    MACH_IPC,
    MachIpcTransport,
    SimulatedNetworkTransport,
    StubServer,
    TcpClientTransport,
    UdpClientTransport,
)

from tests.conftest import MailImpl, compile_mail, make_client


@pytest.fixture(scope="module")
def onc_module():
    return compile_mail("oncrpc-xdr").module


@pytest.fixture(scope="module")
def mach_module():
    return compile_mail("mach3").module


@pytest.fixture(scope="module")
def fluke_module():
    return compile_mail("fluke").module


class TestLoopback:
    def test_counters(self, onc_module):
        client, _impl = make_client(onc_module)
        transport = client._transport
        client.avg([1, 2])
        assert transport.requests_handled == 1
        assert transport.bytes_carried > 0


class TestTcp:
    def test_request_reply_over_tcp(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        with server:
            host, port = server.address
            transport = TcpClientTransport(host, port)
            try:
                client = onc_module.Test_MailClient(transport)
                assert client.avg([3, 5]) == 4.0
                rect = onc_module.Test_Rect(
                    onc_module.Test_Point(1, 2), onc_module.Test_Point(3, 4)
                )
                assert client.send("net", rect, (0, 1)) == (8, (0, 1), 2)
            finally:
                transport.close()

    def test_oneway_over_tcp(self, onc_module):
        import time

        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        with server:
            host, port = server.address
            transport = TcpClientTransport(host, port)
            try:
                client = onc_module.Test_MailClient(transport)
                client.ping(77)
                # A follow-up two-way call orders the oneway before it.
                client.avg([0])
                assert impl.last_ping == 77
            finally:
                transport.close()

    def test_two_clients_one_server(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        with server:
            host, port = server.address
            first = TcpClientTransport(host, port)
            second = TcpClientTransport(host, port)
            try:
                client_a = onc_module.Test_MailClient(first)
                client_b = onc_module.Test_MailClient(second)
                assert client_a.avg([2]) == 2.0
                assert client_b.avg([4]) == 4.0
            finally:
                first.close()
                second.close()

    def test_large_message_over_tcp(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).tcp_server()
        with server:
            host, port = server.address
            transport = TcpClientTransport(host, port)
            try:
                client = onc_module.Test_MailClient(transport)
                data = bytes(range(256)) * 1024  # 256 KB
                assert client.reverse(data) == data[::-1]
            finally:
                transport.close()


class TestUdp:
    def test_request_reply_over_udp(self, onc_module):
        impl = MailImpl(onc_module)
        server = StubServer(onc_module, impl).udp_server()
        with server:
            host, port = server.address
            transport = UdpClientTransport(host, port)
            try:
                client = onc_module.Test_MailClient(transport)
                assert client.avg([10, 20]) == 15.0
            finally:
                transport.close()

    def test_oversized_datagram_rejected(self, onc_module):
        transport = UdpClientTransport("127.0.0.1", 9)
        try:
            with pytest.raises(TransportError):
                transport.send(b"x" * 70000)
        finally:
            transport.close()


class TestSimulatedLinks:
    def test_transfer_time_formula(self):
        link = LinkModel("t", 10e6, 8e6, 1e-3)
        assert link.transfer_time(0) == pytest.approx(1e-3)
        assert link.transfer_time(1000) == pytest.approx(1e-3 + 8000 / 8e6)

    def test_presets_match_paper(self):
        assert ETHERNET_10.effective_bandwidth_bps == 7.5e6
        assert ETHERNET_100.effective_bandwidth_bps == 70e6

    def test_clock_accumulates_both_directions(self, onc_module):
        impl = MailImpl(onc_module)
        transport = SimulatedNetworkTransport(
            onc_module.dispatch, impl, ETHERNET_10
        )
        client = onc_module.Test_MailClient(transport)
        client.avg([1])
        first = transport.simulated_seconds
        assert first > 2 * ETHERNET_10.per_message_overhead_s * 0.99
        client.avg([1])
        assert transport.simulated_seconds == pytest.approx(2 * first)

    def test_reset_clock(self, onc_module):
        impl = MailImpl(onc_module)
        transport = SimulatedNetworkTransport(
            onc_module.dispatch, impl, ETHERNET_100
        )
        client = onc_module.Test_MailClient(transport)
        client.avg([1])
        transport.reset_clock()
        assert transport.simulated_seconds == 0.0

    def test_bigger_messages_cost_more_wire_time(self, onc_module):
        impl = MailImpl(onc_module)
        transport = SimulatedNetworkTransport(
            onc_module.dispatch, impl, ETHERNET_100
        )
        client = onc_module.Test_MailClient(transport)
        client.avg([1])
        small = transport.simulated_seconds
        transport.reset_clock()
        client.avg(list(range(10000)))
        assert transport.simulated_seconds > small


class TestMachIpc:
    def test_roundtrip(self, mach_module):
        impl = MailImpl(mach_module)
        transport = MachIpcTransport(mach_module.dispatch, impl)
        client = mach_module.Test_MailClient(transport)
        assert client.avg([6, 8]) == 7.0
        assert transport.simulated_seconds >= 2 * MACH_IPC.per_message_s

    def test_per_byte_cost_below_vm_threshold(self):
        size = MACH_IPC.vm_copy_threshold
        assert MACH_IPC.transfer_time(size) == pytest.approx(
            MACH_IPC.per_message_s
            + size / MACH_IPC.copy_bandwidth_bytes_per_s
        )

    def test_vm_copy_above_threshold(self):
        size = MACH_IPC.vm_copy_threshold * 8
        pages = -(-size // MACH_IPC.page_size)
        assert MACH_IPC.transfer_time(size) == pytest.approx(
            MACH_IPC.per_message_s + pages * MACH_IPC.per_page_s
        )


class TestFlukeIpc:
    def test_roundtrip_through_register_window(self, fluke_module):
        impl = MailImpl(fluke_module)
        transport = FlukeIpcTransport(fluke_module.dispatch, impl)
        client = fluke_module.Test_MailClient(transport)
        rect = fluke_module.Test_Rect(
            fluke_module.Test_Point(1, 2), fluke_module.Test_Point(3, 4)
        )
        assert client.send("regs", rect, (0, 5)) == (9, (0, 5), 2)

    def test_small_messages_ride_registers(self):
        # Anything within the register window costs only the trap.
        window = FLUKE_IPC.register_bytes
        assert FLUKE_IPC.transfer_time(window) == FLUKE_IPC.per_message_s
        assert FLUKE_IPC.transfer_time(window + 35) > FLUKE_IPC.per_message_s
