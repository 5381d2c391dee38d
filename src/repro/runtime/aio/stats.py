"""Runtime metrics: per-operation server stats, client-runtime stats.

Both are thin, stable facades over :class:`repro.obs.metrics
.MetricsRegistry` — the generalized registry grew out of the original
``ServerStats`` here, and this module keeps the ergonomic server-side
API (``record``/``snapshot``/``format_table``) while exposing the
registry itself for Prometheus scraping (``flick serve
--metrics-port``).

``ServerStats`` is recorded by *both* server runtimes now — the asyncio
:class:`~repro.runtime.aio.server.AioTcpServer` and the blocking
:class:`~repro.runtime.socket_transport.TcpServer`/
:class:`~repro.runtime.socket_transport.UdpServer` — one observation per
dispatched request.  ``ClientStats`` counts the client runtime's
failure-path events (retries, deadline expiries, orphan replies) and
tracks pool occupancy.

``flick serve --stats`` prints :meth:`ServerStats.format_table` on
shutdown.
"""

from __future__ import annotations

import weakref

from repro.obs.metrics import (  # re-exported for backward compatibility
    BUCKET_BOUNDS,
    LatencyHistogram,
    MetricsRegistry,
)

__all__ = ["BUCKET_BOUNDS", "ClientStats", "LatencyHistogram",
           "ServerStats"]


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

    def snapshot(self):
        """A plain-dict view: op -> calls/errors/mean/p50/p95/p99/max."""
        errors = {
            key[0]: child.value for key, child in self._errors.collect()
        }
        result = {}
        for key, histogram in self._latency.collect():
            op = key[0]
            result[op] = {
                "calls": histogram.total,
                "errors": errors.get(op, 0),
                "mean_s": histogram.mean,
                "p50_s": histogram.percentile(50),
                "p95_s": histogram.percentile(95),
                "p99_s": histogram.percentile(99),
                "max_s": histogram.max,
            }
        return result

    @property
    def total_calls(self):
        return sum(
            child.value for _key, child in self._requests.collect()
        )

    @property
    def total_errors(self):
        return sum(child.value for _key, child in self._errors.collect())

    def format_table(self):
        """A printable table of the snapshot."""
        snapshot = self.snapshot()
        header = ("operation", "calls", "errors", "mean", "p50", "p95",
                  "p99", "max")
        rows = [header]
        for op_key in sorted(snapshot, key=str):
            data = snapshot[op_key]
            rows.append((
                str(op_key),
                str(data["calls"]),
                str(data["errors"]),
                _fmt_seconds(data["mean_s"]),
                _fmt_seconds(data["p50_s"]),
                _fmt_seconds(data["p95_s"]),
                _fmt_seconds(data["p99_s"]),
                _fmt_seconds(data["max_s"]),
            ))
        widths = [
            max(len(row[column]) for row in rows)
            for column in range(len(header))
        ]
        lines = []
        for index, row in enumerate(rows):
            lines.append("  ".join(
                cell.ljust(width) if column == 0 else cell.rjust(width)
                for column, (cell, width) in enumerate(zip(row, widths))
            ))
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)


class _Sampled:
    """A gauge with no stored value: ``read`` is called when it is
    scraped (or its ``value`` asked for), so it cannot be stale."""

    def __init__(self, registry, name, help_text, read):
        self._read = read
        registry.gauge_callback(name, help_text, read)

    @property
    def value(self):
        return self._read()


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
        self.open_connections = _Sampled(
            self.registry, "flick_client_pool_connections",
            "Open connections in the pool",
            lambda: sum(pool.open_connections for pool in list(self.pools)),
        )
        self.in_flight = _Sampled(
            self.registry, "flick_client_in_flight_requests",
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


def _fmt_seconds(seconds):
    if seconds >= 1.0:
        return "%.2fs" % seconds
    if seconds >= 1e-3:
        return "%.2fms" % (seconds * 1e3)
    return "%.0fus" % (seconds * 1e6)
