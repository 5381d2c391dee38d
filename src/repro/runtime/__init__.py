"""Runtime support for generated stubs: transports and server loops.

Generated client proxies talk to a *transport* exposing ``call(request)``
(request/reply) and ``send(request)`` (oneway); servers pair a generated
``dispatch`` function with an implementation object.  Transports range from
an in-process loopback, through real TCP/UDP sockets, to the virtual-clock
link models used to reproduce the paper's end-to-end experiments.
"""

from repro.runtime.transport import LoopbackTransport, Transport
from repro.runtime.simnet import (
    ETHERNET_10,
    ETHERNET_100,
    MYRINET_640,
    LinkModel,
    SimulatedNetworkTransport,
)
from repro.runtime.machipc import MACH_IPC, MachIpcTransport
from repro.runtime.flukeipc import FLUKE_IPC, FlukeIpcTransport
from repro.runtime.socket_transport import (
    TcpClientTransport,
    TcpServer,
    UdpClientTransport,
    UdpServer,
)
from repro.runtime.framing import RecordDecoder, encode_record
from repro.runtime.server import StubServer, operation_names
from repro.runtime.aio import (
    AioClientTransport,
    AioTcpServer,
    CallOptions,
    ConnectionPool,
    RetryPolicy,
    ServerStats,
)

__all__ = [
    "AioClientTransport",
    "AioTcpServer",
    "CallOptions",
    "ConnectionPool",
    "RecordDecoder",
    "RetryPolicy",
    "ServerStats",
    "encode_record",
    "operation_names",
    "ETHERNET_10",
    "ETHERNET_100",
    "FLUKE_IPC",
    "FlukeIpcTransport",
    "LinkModel",
    "LoopbackTransport",
    "MACH_IPC",
    "MachIpcTransport",
    "MYRINET_640",
    "SimulatedNetworkTransport",
    "StubServer",
    "TcpClientTransport",
    "TcpServer",
    "Transport",
    "UdpClientTransport",
    "UdpServer",
]
