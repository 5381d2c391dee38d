"""The concurrent RPC runtime: asyncio serving, multiplexing, pooling.

This package serves the same generated stub modules and the same wire
formats as the blocking transports in :mod:`repro.runtime` — the same
bytes travel the wire, correlation rides in the protocols' own id fields
(ONC XID, GIOP request_id), and blocking and concurrent peers
interoperate freely.  See ``docs/INTERNALS.md`` section 6 for the design.

Quick tour::

    from repro.runtime.aio import AioTcpServer, AioClientTransport

    server = AioTcpServer(module.dispatch, impl).start()   # or: async with
    transport = AioClientTransport(*server.address, pool_size=4)
    client = module.Test_MailClient(transport)             # unchanged stubs
    client.avg([1, 2, 3])

    fast = module.Test_MailClient(
        transport.options(deadline=0.25, idempotent=True)
    )
"""

from repro.runtime.aio.breaker import CircuitBreaker
from repro.runtime.aio.client import (
    AioClientTransport,
    AioConnection,
    ConnectionPool,
)
from repro.runtime.aio.options import CallOptions, RetryPolicy
from repro.runtime.aio.server import AioTcpServer
from repro.runtime.aio.stats import ClientStats, ServerStats

__all__ = [
    "AioClientTransport",
    "AioConnection",
    "AioTcpServer",
    "CallOptions",
    "CircuitBreaker",
    "ClientStats",
    "ConnectionPool",
    "RetryPolicy",
    "ServerStats",
]
