"""Runtime metrics: per-operation server stats, client-runtime stats.

Both are thin facades over :class:`repro.obs.metrics.MetricsRegistry`:
the server side records through ``record`` and the counters, and
everything reads the registry back (Prometheus scraping with ``flick
serve --metrics-port``, ``flick top``, the ``--stats`` shutdown table).

``ServerStats`` is recorded by *both* server runtimes now — the asyncio
:class:`~repro.runtime.aio.server.AioTcpServer` and the blocking
:class:`~repro.runtime.socket_transport.TcpServer`/
:class:`~repro.runtime.socket_transport.UdpServer` — one observation per
dispatched request.  ``ClientStats`` counts the client runtime's
failure-path events (retries, deadline expiries, orphan replies) and
tracks pool occupancy.

``flick serve --stats`` prints ``flick top``'s table of this registry
(:func:`repro.obs.metrics.top_table`) on shutdown.
"""

from __future__ import annotations

import weakref

from repro.obs.metrics import MetricsRegistry

__all__ = ["ClientStats", "ServerStats"]


def _label(op_key):
    """A printable label for a demux key (int, bytes, or name)."""
    if isinstance(op_key, (bytes, bytearray, memoryview)):
        return bytes(op_key).decode("latin-1")
    return str(op_key)


class ServerStats:
    """Thread-safe per-operation metrics for a server.

    Keys are demux keys (ONC procedure numbers, GIOP operation names) or,
    when the server was built through :meth:`StubServer.aio_server` /
    :meth:`StubServer.tcp_server`, the human-readable operation names
    resolved from the stub module.  The backing registry is exposed as
    :attr:`registry` for Prometheus exposition.
    """

    def __init__(self, registry=None):
        self.registry = registry or MetricsRegistry()
        self._requests = self.registry.counter(
            "flick_server_requests_total", "Requests dispatched", ("op",)
        )
        self._errors = self.registry.counter(
            "flick_server_errors_total", "Requests that failed", ("op",)
        )
        self._latency = self.registry.histogram(
            "flick_server_latency_seconds",
            "Request service time (read to reply written)", ("op",),
        )
        # Wire-hardening counters (unlabelled: these fire before or
        # outside per-operation accounting).
        self.malformed = self.registry.counter(
            "flick_server_malformed_frames_total",
            "Frames rejected as malformed, answered with protocol errors",
        )
        self.shed = self.registry.counter(
            "flick_server_shed_total",
            "Requests shed by overload protection",
        )
        self.servant_errors = self.registry.counter(
            "flick_server_servant_errors_total",
            "Dispatches that raised an unexpected implementation error",
        )
        # Batching of the asyncio server's connection I/O: requests per
        # read and replies per write follow from these and
        # flick_server_requests_total.
        self.socket_reads = self.registry.counter(
            "flick_server_socket_reads_total",
            "Socket reads that delivered bytes (asyncio server)",
        )
        self.socket_writes = self.registry.counter(
            "flick_server_socket_writes_total",
            "Socket writes issued, each carrying one or more replies"
            " (asyncio server)",
        )

    def record(self, op_key, seconds, error=False):
        op = _label(op_key)
        self._requests.labels(op).inc()
        if error:
            self._errors.labels(op).inc()
        self._latency.labels(op).observe(seconds)


class ClientStats:
    """Client-runtime counters: the failure paths and pool occupancy.

    Handed to :class:`~repro.runtime.aio.client.ConnectionPool` /
    :class:`~repro.runtime.aio.client.AioClientTransport`; recording is
    skipped entirely when no stats object is attached.  Occupancy is
    not recorded at all: the two pool gauges read the pools bound to
    these stats (:attr:`pools`) at scrape time.
    """

    def __init__(self, registry=None):
        self.registry = registry or MetricsRegistry()
        self.pools = weakref.WeakSet()  # each ConnectionPool adds itself
        self.retries = self.registry.counter(
            "flick_client_retries_total",
            "Call attempts beyond the first",
        )
        self.deadline_expiries = self.registry.counter(
            "flick_client_deadline_expiries_total",
            "Calls that exceeded their deadline",
        )
        self.orphan_replies = self.registry.counter(
            "flick_client_orphan_replies_total",
            "Replies whose caller had already given up",
        )
        self.transport_errors = self.registry.counter(
            "flick_client_transport_errors_total",
            "Connection-level failures observed by calls",
        )
        # Gauges with no stored value: each is read when it is scraped,
        # so it cannot be stale.
        self.registry.gauge_callback(
            "flick_client_pool_connections", "Open connections in the pool",
            lambda: sum(pool.open_connections for pool in list(self.pools)),
        )
        self.registry.gauge_callback(
            "flick_client_in_flight_requests",
            "Requests awaiting replies across the pool",
            lambda: sum(pool.in_flight for pool in list(self.pools)),
        )
        self.wire_format_errors = self.registry.counter(
            "flick_client_wire_format_errors_total",
            "Replies rejected as malformed (never retried)",
        )
        self.remote_errors = self.registry.counter(
            "flick_client_remote_errors_total",
            "Protocol-level error replies received from servers",
        )
        self.breaker_state = self.registry.gauge(
            "flick_client_breaker_state",
            "Circuit breaker state (0=closed, 1=half-open, 2=open)",
        )
        self.breaker_opens = self.registry.counter(
            "flick_client_breaker_opens_total",
            "Times the circuit breaker tripped open",
        )
        self.breaker_rejections = self.registry.counter(
            "flick_client_breaker_rejections_total",
            "Calls refused instantly by an open breaker",
        )
        self.socket_reads = self.registry.counter(
            "flick_client_socket_reads_total",
            "Socket reads that delivered bytes",
        )
        self.socket_writes = self.registry.counter(
            "flick_client_socket_writes_total",
            "Socket writes issued, each carrying one or more requests",
        )
