"""Tests for ``repro.obs``: metrics, tracing, and wire propagation.

Covers the observability subsystem end to end: histogram percentile
interpolation (including the empty and overflow cases), thread safety of
the metric primitives, span nesting and the zero-cost instrumentation
swap, trace-context propagation inside both wire protocols (and its
byte-compatibility with uninstrumented peers), the Prometheus endpoint,
client-side runtime counters, and the acceptance scenario: one traced
IIOP round-trip through the asyncio server whose client and server spans
share a single trace id in the exported JSONL.
"""

import contextlib
import json
import socket
import struct
import threading
import time
import urllib.request

import pytest

from repro import Flick, obs
from repro.encoding import MarshalBuffer
from repro.encoding.buffer import buffer_counters, reset_buffer_counters
from repro.errors import DeadlineError
from repro.obs import http as obs_http
from repro.obs import metrics, propagation, trace
from repro.runtime import (
    LoopbackTransport,
    ServerStats,
    StubServer,
    TcpClientTransport,
    UdpClientTransport,
)
from repro.runtime.aio import AioClientTransport, CallOptions, ClientStats
from repro.runtime.socket_transport import _inject_current_trace

from tests.endpoint import registry_endpoint

CALC_IDL = """
interface Calc {
  long add(in long a, in long b);
};
"""


class CalcImpl:
    def add(self, a, b):
        return a + b


class SlowCalcImpl:
    def add(self, a, b):
        import time

        time.sleep(0.5)
        return a + b


@pytest.fixture(autouse=True)
def _tracing_off_after():
    """Tracing is process-global state; never leak it across tests."""
    yield
    obs.shutdown()


def _compile(backend):
    return Flick(
        frontend="corba", backend=backend
    ).compile(CALC_IDL).load_module()


# ----------------------------------------------------------------------
# Histogram percentiles
# ----------------------------------------------------------------------

class TestLatencyHistogram:
    def test_empty_percentiles_are_zero(self):
        histogram = metrics.LatencyHistogram()
        assert histogram.percentile(50) == 0.0
        assert histogram.percentile(99) == 0.0
        assert histogram.mean == 0.0

    def test_clustered_samples_interpolate_toward_observed_value(self):
        # All samples at 1 ms land in the (0.3 ms, 1 ms] bucket; naive
        # bucket-bound reporting says 1 ms is the *upper* bound while
        # clamped interpolation reports ~1 ms exactly.
        histogram = metrics.LatencyHistogram()
        for _ in range(1000):
            histogram.observe(0.001)
        assert histogram.percentile(50) == pytest.approx(0.001)
        assert histogram.percentile(99) == pytest.approx(0.001)

    def test_interpolates_within_winning_bucket(self):
        # 100 samples in (1 ms, 3 ms]: p50 must land strictly inside
        # the bucket, between the observed min and max.
        histogram = metrics.LatencyHistogram()
        for index in range(100):
            histogram.observe(0.0011 + index * 0.00001)
        p50 = histogram.percentile(50)
        assert 0.0011 <= p50 <= 0.0021
        assert p50 < histogram.percentile(95)

    def test_overflow_bucket_uses_observed_max(self):
        histogram = metrics.LatencyHistogram()
        histogram.observe(25.0)  # beyond the last bound (10 s)
        assert histogram.percentile(50) <= 25.0
        assert histogram.percentile(99) <= 25.0
        assert histogram.percentile(99) >= metrics.BUCKET_BOUNDS[-1]

    def test_percentiles_are_monotone_and_bounded(self):
        histogram = metrics.LatencyHistogram()
        values = [1e-6, 5e-5, 2e-4, 9e-4, 4e-3, 0.02, 0.7, 12.0]
        for value in values:
            histogram.observe(value)
        previous = 0.0
        for q in (10, 25, 50, 75, 90, 99):
            estimate = histogram.percentile(q)
            assert previous <= estimate <= max(values)
            previous = estimate

    def test_concurrent_record_loses_nothing(self):
        stats = ServerStats()
        threads_n, per_thread = 8, 500

        def work():
            for index in range(per_thread):
                stats.record(b"add", 0.001 * (index % 7 + 1),
                             error=index % 100 == 0)

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = stats.snapshot()["add"]
        assert snapshot["calls"] == threads_n * per_thread
        assert snapshot["errors"] == threads_n * (per_thread // 100)
        assert stats.total_calls == threads_n * per_thread


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = metrics.MetricsRegistry()
        requests = registry.counter("requests_total", "calls", ("op",))
        requests.labels("add").inc()
        requests.labels("add").inc(2)
        occupancy = registry.gauge("pool_open")
        occupancy.set(3)
        latency = registry.histogram("latency_seconds", "rtt", ("op",))
        latency.labels("add").observe(0.002)
        snapshot = registry.snapshot()
        assert snapshot["requests_total"][("add",)] == 3
        assert snapshot["pool_open"][()] == 3
        assert snapshot["latency_seconds"][("add",)]["count"] == 1

    def test_family_is_idempotent_but_kind_conflicts_raise(self):
        registry = metrics.MetricsRegistry()
        first = registry.counter("x_total")
        assert registry.counter("x_total") is first
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("op",))

    def test_prometheus_exposition(self):
        registry = metrics.MetricsRegistry()
        registry.counter("errs_total", "oops", ("op",)).labels("f").inc()
        registry.histogram("lat_seconds", "rtt").observe(0.004)
        registry.gauge_callback("buf_allocs", "buffers", lambda: 7)
        text = registry.render_prometheus()
        assert '# TYPE errs_total counter' in text
        assert 'errs_total{op="f"} 1' in text
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert 'lat_seconds_count 1' in text
        assert 'buf_allocs 7' in text

    def test_label_escaping(self):
        registry = metrics.MetricsRegistry()
        registry.counter("c_total", "", ("op",)).labels('we"ird\n').inc()
        text = registry.render_prometheus()
        assert 'op="we\\"ird\\n"' in text

    def test_help_text_escaping(self):
        # Per the text format, HELP escapes backslash and newline (but
        # not double quotes); a hostile help string must stay one line.
        registry = metrics.MetricsRegistry()
        registry.counter("h_total", 'multi\nline with \\ and "quotes"')
        text = registry.render_prometheus()
        (help_line,) = [line for line in text.splitlines()
                        if line.startswith("# HELP h_total")]
        assert help_line \
            == '# HELP h_total multi\\nline with \\\\ and "quotes"'

    def test_parse_round_trips_hostile_labels(self):
        registry = metrics.MetricsRegistry()
        hostile = 'we"ird\\label\nwith everything'
        registry.counter("c_total", "", ("op",)).labels(hostile).inc(3)
        registry.histogram("lat_seconds", "", ("op",)) \
            .labels(hostile).observe(0.004)
        samples = metrics.parse_prometheus(registry.render_prometheus())
        assert samples["c_total"][(("op", hostile),)] == 3
        assert samples["lat_seconds_count"][(("op", hostile),)] == 1

    def test_parse_rejects_torn_lines(self):
        with pytest.raises(ValueError):
            metrics.parse_prometheus('broken{op="unterminated 1\n')
        with pytest.raises(ValueError):
            metrics.parse_prometheus("name_only\n")

    def test_concurrent_scrapes_never_tear_and_stay_monotonic(self):
        """Satellite check: scraping /metrics while labelled counters
        and histograms are hammered from several threads always yields
        a parseable exposition with monotone counter values."""
        import threading
        import urllib.request as _request

        registry = metrics.MetricsRegistry()
        requests = registry.counter("req_total", "calls", ("op",))
        latency = registry.histogram("lat_seconds", "rtt", ("op",))
        stop = threading.Event()

        def hammer(op):
            while not stop.is_set():
                requests.labels(op).inc()
                latency.labels(op).observe(0.001)

        workers = [threading.Thread(target=hammer, args=("op%d" % i,))
                   for i in range(4)]
        for worker in workers:
            worker.start()
        seen = {}
        try:
            with registry_endpoint(registry) as endpoint:
                url = "http://%s:%d/metrics" % endpoint.address[:2]
                for _scrape in range(10):
                    with _request.urlopen(url) as response:
                        text = response.read().decode()
                    # Any torn line raises ValueError here.
                    samples = metrics.parse_prometheus(text)
                    for labels, value in samples["req_total"].items():
                        assert value >= seen.get(labels, 0)
                        seen[labels] = value
                    for labels, count in samples[
                            "lat_seconds_count"].items():
                        assert count == int(count)
        finally:
            stop.set()
            for worker in workers:
                worker.join()
        assert len(seen) == 4


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_disabled_tracing_returns_shared_noop(self):
        assert not trace.enabled()
        assert trace.span("anything") is trace.NOOP
        with trace.span("anything") as span:
            span.set(op="x")
        assert trace.current_span() is None

    def test_nesting_and_parentage(self):
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        with trace.span("outer") as outer:
            assert trace.current_span() is outer
            with trace.span("inner", bytes=12):
                pass
        (inner,) = exporter.by_name("inner")
        (outer_span,) = exporter.by_name("outer")
        assert inner.trace_id == outer_span.trace_id
        assert inner.parent_id == outer_span.span_id
        assert outer_span.parent_id is None
        assert inner.attrs == {"bytes": 12}
        assert inner.duration_s >= 0.0
        assert trace.current_span() is None

    def test_explicit_parent_overrides_context(self):
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        parent = propagation.WireTraceContext("ab" * 16, "cd" * 8)
        with trace.span("child", parent=parent):
            pass
        (child,) = exporter.by_name("child")
        assert child.trace_id == "ab" * 16
        assert child.parent_id == "cd" * 8

    def test_exceptions_are_recorded_and_propagate(self):
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        with pytest.raises(RuntimeError):
            with trace.span("failing"):
                raise RuntimeError("boom")
        (failing,) = exporter.by_name("failing")
        assert "RuntimeError" in failing.error

    def test_shutdown_disables_and_closes(self):
        obs.configure(obs.CollectingExporter())
        assert trace.enabled()
        obs.shutdown()
        assert not trace.enabled()
        assert trace.span("x") is trace.NOOP


# ----------------------------------------------------------------------
# Instrumentation swap: zero cost while disabled
# ----------------------------------------------------------------------

class TestInstrumentationSwap:
    def test_disabled_module_runs_original_functions(self):
        module = obs.instrument_stub_module(_compile("oncrpc-xdr"))
        # No tracer configured: module globals hold the originals.
        assert not hasattr(module._m_req_add, "__wrapped__")
        obs.configure(obs.CollectingExporter())
        assert hasattr(module._m_req_add, "__wrapped__")
        obs.shutdown()
        assert not hasattr(module._m_req_add, "__wrapped__")

    def test_instrument_is_idempotent(self):
        module = _compile("oncrpc-xdr")
        assert obs.instrument_stub_module(module) is module
        before = module._m_req_add
        obs.instrument_stub_module(module)
        assert module._m_req_add is before

    def test_wire_bytes_identical_while_tracing_off(self):
        plain = _compile("oncrpc-xdr")
        instrumented = obs.instrument_stub_module(_compile("oncrpc-xdr"))
        for module in (plain, instrumented):
            buffer = MarshalBuffer()
            module._m_req_add(buffer, 7, 3, 4)
            if module is plain:
                expected = buffer.getvalue()
            else:
                assert buffer.getvalue() == expected

    def test_transport_injects_nothing_while_tracing_off(self):
        module = _compile("oncrpc-xdr")
        buffer = MarshalBuffer()
        module._m_req_add(buffer, 7, 3, 4)
        payload = buffer.getvalue()
        assert _inject_current_trace(payload) == payload

    def test_spans_cover_stub_functions_when_enabled(self):
        module = obs.instrument_stub_module(_compile("oncrpc-xdr"))
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        client = module.CalcClient(
            LoopbackTransport(module.dispatch, CalcImpl())
        )
        assert client.add(3, 4) == 7
        names = {span.name for span in exporter.spans}
        assert {"call", "encode", "decode"} <= names
        (call,) = exporter.by_name("call")
        assert call.attrs["op"] == "add"
        # Every stub span belongs to the one call's trace.
        assert {span.trace_id for span in exporter.spans} \
            == {call.trace_id}


# ----------------------------------------------------------------------
# Wire propagation
# ----------------------------------------------------------------------

def _request_bytes(module, call_id=5):
    buffer = MarshalBuffer()
    module._m_req_add(buffer, call_id, 3, 4)
    return buffer.getvalue()


CONTEXT = propagation.WireTraceContext("0123456789abcdef" * 2, "f0" * 8)


class TestPropagation:
    @pytest.mark.parametrize("backend", ["oncrpc-xdr", "iiop"])
    def test_inject_extract_round_trip(self, backend):
        request = _request_bytes(_compile(backend))
        injected = propagation.inject(request, CONTEXT)
        assert injected != request
        assert propagation.extract(injected) == CONTEXT
        assert propagation.extract(request) is None

    @pytest.mark.parametrize("backend", ["oncrpc-xdr", "iiop"])
    def test_uninstrumented_peer_ignores_the_context(self, backend):
        """An injected request dispatches to a byte-identical reply."""
        module = _compile(backend)
        request = _request_bytes(module)
        plain_reply = MarshalBuffer()
        assert module.dispatch(request, CalcImpl(), plain_reply)
        traced_reply = MarshalBuffer()
        assert module.dispatch(
            propagation.inject(request, CONTEXT), CalcImpl(), traced_reply
        )
        assert traced_reply.getvalue() == plain_reply.getvalue()

    def test_replies_are_never_injected(self):
        module = _compile("iiop")
        reply = MarshalBuffer()
        module.dispatch(_request_bytes(module), CalcImpl(), reply)
        reply_bytes = reply.getvalue()
        assert propagation.inject(reply_bytes, CONTEXT) == reply_bytes
        assert propagation.extract(reply_bytes) is None

    def test_existing_credential_is_left_alone(self):
        request = bytearray(_request_bytes(_compile("oncrpc-xdr")))
        # Give the call a one-word AUTH_SYS-style credential.
        import struct

        flavor_cred = struct.pack(">II4x", 1, 4)
        request = bytes(request[:24]) + flavor_cred + bytes(request[32:])
        assert propagation.inject(request, CONTEXT) == request

    def test_garbage_is_returned_unchanged(self):
        for payload in (b"", b"shrt", b"x" * 64):
            assert propagation.inject(payload, CONTEXT) == payload
            assert propagation.extract(payload) is None


# ----------------------------------------------------------------------
# End-to-end traces
# ----------------------------------------------------------------------

def _spans_by_trace(spans):
    traces = {}
    for span in spans:
        traces.setdefault(span["trace_id"], []).append(span)
    return traces


def _split_by_server_request(spans):
    """Partition one trace's spans into (client side, server side)."""
    by_id = {span["span_id"]: span for span in spans}
    (server_root,) = [s for s in spans if s["name"] == "server.request"]

    def under_server(span):
        while span is not None:
            if span is server_root:
                return True
            span = by_id.get(span["parent_id"])
        return False

    server_side = [s for s in spans if under_server(s)]
    client_side = [s for s in spans if not under_server(s)]
    return client_side, server_side


class TestEndToEndTrace:
    def test_traced_iiop_round_trip_through_aio_server(self, tmp_path):
        """The acceptance scenario: client and server halves of one
        traced IIOP call through the asyncio server share a trace id,
        with the expected child spans on each side, in the JSONL."""
        path = tmp_path / "trace.jsonl"
        module = obs.instrument_stub_module(_compile("iiop"))
        obs.configure(obs.JsonlExporter(str(path)))
        server = StubServer(module, CalcImpl()).aio_server()
        with server:
            transport = AioClientTransport(*server.address)
            try:
                client = module.CalcClient(transport)
                assert client.add(19, 23) == 42
            finally:
                transport.close()
        obs.shutdown()

        spans = [json.loads(line)
                 for line in path.read_text().splitlines()]
        traces = _spans_by_trace(spans)
        (trace_spans,) = [
            group for group in traces.values()
            if any(span["name"] == "call" for span in group)
        ]
        client_side, server_side = _split_by_server_request(trace_spans)

        client_names = {span["name"] for span in client_side}
        assert {"call", "encode", "send", "await.reply",
                "decode"} <= client_names
        server_names = {span["name"] for span in server_side}
        assert {"server.request", "demux", "decode", "dispatch",
                "encode"} <= server_names

        # The server root's parent is a *client* span: one trace.
        (server_root,) = [s for s in server_side
                          if s["name"] == "server.request"]
        assert server_root["parent_id"] in {
            span["span_id"] for span in client_side
        }
        (call,) = [s for s in client_side if s["name"] == "call"]
        (dispatch,) = [s for s in server_side
                       if s["name"] == "dispatch"]
        assert dispatch["trace_id"] == call["trace_id"]

    def test_traced_onc_round_trip_through_blocking_server(self):
        module = obs.instrument_stub_module(_compile("oncrpc-xdr"))
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        server = StubServer(module, CalcImpl()).tcp_server()
        with server:
            transport = TcpClientTransport(*server.address)
            try:
                client = module.CalcClient(transport)
                assert client.add(1, 2) == 3
            finally:
                transport.close()
        obs.shutdown()
        (call,) = exporter.by_name("call")
        (server_root,) = exporter.by_name("server.request")
        assert server_root.trace_id == call.trace_id
        (dispatch,) = exporter.by_name("dispatch")
        assert dispatch.trace_id == call.trace_id

    def test_untraced_round_trip_against_instrumented_server(self):
        """Tracing off: an instrumented server serves plain clients and
        the trace machinery stays entirely out of the path."""
        module = obs.instrument_stub_module(_compile("oncrpc-xdr"))
        server = StubServer(module, CalcImpl()).tcp_server()
        with server:
            transport = TcpClientTransport(*server.address)
            try:
                client = module.CalcClient(transport)
                assert client.add(20, 22) == 42
            finally:
                transport.close()


# ----------------------------------------------------------------------
# The server span tree: one shape, whichever driver served the request
# ----------------------------------------------------------------------

class _InProcessTransport:
    """``StubServer.serve_bytes`` as a client transport."""

    def __init__(self, stub_server):
        self._stub_server = stub_server

    def call(self, request):
        return self._stub_server.serve_bytes(
            _inject_current_trace(bytes(request)))

    def close(self):
        pass


@contextlib.contextmanager
def _served(driver, module):
    """A raw client transport onto *module* behind one server driver."""
    stub_server = StubServer(module, CalcImpl())
    if driver == "in-process":
        yield _InProcessTransport(stub_server)
        return
    if driver == "tcp":
        server = stub_server.tcp_server()
    elif driver == "udp":
        server = stub_server.udp_server()
    else:
        server = stub_server.aio_server(dispatch_mode=driver[4:])
    with server:
        transport = (UdpClientTransport if driver == "udp"
                     else TcpClientTransport)(*server.address[:2])
        try:
            yield transport
        finally:
            transport.close()


@pytest.mark.parametrize(
    "driver", ["in-process", "tcp", "udp", "aio-inline", "aio-thread"])
class TestServerSpanTree:
    def test_every_driver_emits_the_same_tree(self, driver):
        """``server.request`` (op; error = the exception class when
        dispatch failed) -> ``demux``, ``dispatch`` and, where there is
        a wire, ``write`` — joined to the caller's trace."""
        module = _compile("oncrpc-xdr")
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        sent = []

        class Tap:
            def call(self, request):
                sent.append(bytes(request))
                return transport.call(request)

        with _served(driver, module) as transport:
            with obs.span("call") as call:
                assert module.CalcClient(Tap()).add(19, 23) == 42
            unknown = bytearray(sent[0])
            struct.pack_into(">I", unknown, 20, 99)  # no such procedure
            with obs.span("call") as failed_call:
                reply = transport.call(bytes(unknown))
            # MSG_ACCEPTED, null verifier, PROC_UNAVAIL.
            assert struct.unpack_from(">IIIIII", reply) == (
                struct.unpack_from(">I", unknown)[0], 1, 0, 0, 0, 3)
        obs.shutdown()

        def children(parent):
            return sorted(span.name for span in exporter.spans
                          if span.parent_id == parent.span_id)

        server_side = ["demux", "dispatch"]
        if driver != "in-process":
            server_side.append("write")
            assert children(call) == \
                ["await.reply", "send", "server.request"]
        served, refused = sorted(exporter.by_name("server.request"),
                                 key=lambda span: "error" in span.attrs)
        assert served.attrs == {"op": "add"}
        assert (served.trace_id, served.parent_id) == \
            (call.trace_id, call.span_id)
        assert children(served) == server_side
        assert refused.attrs == {"op": "99", "error": "DispatchError"}
        assert (refused.trace_id, refused.parent_id) == \
            (failed_call.trace_id, failed_call.span_id)
        assert children(refused) == server_side


# ----------------------------------------------------------------------
# Client runtime metrics
# ----------------------------------------------------------------------

class TestClientStats:
    def test_counters_and_gauges_registered(self):
        stats = ClientStats()
        stats.retries.inc()
        stats.deadline_expiries.inc(2)
        # The occupancy gauges hold nothing: they sum, when read, over
        # the pools bound to these stats.
        class Pool:
            def __init__(self, open_connections, in_flight):
                self.open_connections = open_connections
                self.in_flight = in_flight

        pools = [Pool(2, 1), Pool(1, 0)]
        stats.pools.update(pools)
        snapshot = stats.registry.snapshot()
        assert snapshot["flick_client_retries_total"][()] == 1
        assert snapshot["flick_client_deadline_expiries_total"][()] == 2
        assert snapshot["flick_client_pool_connections"][()] == 3
        assert snapshot["flick_client_in_flight_requests"][()] == 1

    def test_deadline_expiry_is_counted(self):
        module = _compile("oncrpc-xdr")
        stats = ClientStats()
        server = StubServer(module, SlowCalcImpl()).aio_server()
        with server:
            transport = AioClientTransport(
                *server.address, stats=stats,
                options=CallOptions(deadline=0.05, retry=None),
            )
            try:
                client = module.CalcClient(transport)
                with pytest.raises(DeadlineError):
                    client.add(1, 2)
            finally:
                transport.close()
        assert stats.deadline_expiries.value == 1
        assert stats.in_flight.value == 0

    def test_pool_occupancy_gauges(self):
        module = _compile("oncrpc-xdr")
        stats = ClientStats()
        server = StubServer(module, CalcImpl()).aio_server()
        with server:
            transport = AioClientTransport(*server.address, stats=stats)
            try:
                client = module.CalcClient(transport)
                assert client.add(4, 5) == 9
                assert stats.open_connections.value == 1
                assert stats.in_flight.value == 0
                assert stats.retries.value == 0
            finally:
                transport.close()


# ----------------------------------------------------------------------
# Prometheus endpoint + buffer counters + compiler timing
# ----------------------------------------------------------------------

class TestMetricsEndpoint:
    def test_serves_registry_and_404s_everything_else(self):
        registry = metrics.MetricsRegistry()
        registry.counter("up_total", "liveness").inc()
        with registry_endpoint(registry) as endpoint:
            host, port = endpoint.address[:2]
            base = "http://%s:%d" % (host, port)
            with urllib.request.urlopen(base + "/metrics") as response:
                body = response.read().decode("utf-8")
                assert response.status == 200
                assert "0.0.4" in response.headers["Content-Type"]
            assert "up_total 1" in body
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/other")
            assert excinfo.value.code == 404

    # Raw sockets from here on: what a client that is not a scraper
    # gets from the one HTTP server.

    @staticmethod
    def _raw(endpoint, payload, timeout=5.0):
        """Send *payload*, return everything up to the server's close."""
        with socket.create_connection(
                endpoint.address[:2], timeout=timeout) as sock:
            sock.sendall(payload)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def test_silent_client_is_timed_out(self, monkeypatch):
        """A client that never finishes its head used to hold a task
        and an fd for ever, and stop() then destroyed the pending
        task."""
        monkeypatch.setattr(obs_http, "HEAD_TIMEOUT", 0.2)
        with obs_http.MetricsHttpServer({}) as endpoint:
            started = time.monotonic()
            assert self._raw(endpoint, b"GET /metrics HTTP/1.0\r\n") \
                == b""
            assert time.monotonic() - started < 3.0

    def test_stop_cancels_a_client_inside_its_head_timeout(self, caplog):
        endpoint = obs_http.MetricsHttpServer({}).start()
        sock = socket.create_connection(endpoint.address[:2], timeout=5.0)
        try:
            sock.sendall(b"GET /met")
            time.sleep(0.1)  # the handler is now waiting for the rest
            with caplog.at_level("ERROR", logger="asyncio"):
                endpoint.stop()
            assert sock.recv(1) == b""
        finally:
            sock.close()
        assert "Task was destroyed" not in caplog.text

    def test_raising_route_answers_500_with_one_line(self, caplog):
        def broken():
            raise RuntimeError("worker 3\nwent away")

        routes = {"/broken": broken,
                  "/fine": lambda: (200, obs_http.PLAIN, "fine\n")}
        with obs_http.MetricsHttpServer(routes) as endpoint:
            with caplog.at_level("ERROR"):
                reply = self._raw(
                    endpoint, b"GET /broken HTTP/1.0\r\n\r\n")
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.0 500 Internal Server Error")
            assert body == b"RuntimeError: worker 3 went away\n"
            assert "route /broken failed" in caplog.text
            assert "client_connected_cb" not in caplog.text
            # ... and the endpoint keeps serving.
            assert self._raw(
                endpoint, b"GET /fine?x=1 HTTP/1.0\r\n\r\n"
            ).endswith(b"\r\n\r\nfine\n")

    def test_over_long_head_is_dropped_unanswered(self):
        with obs_http.MetricsHttpServer({}) as endpoint:
            junk = b"GET /metrics HTTP/1.0\r\nX-Pad: " \
                + b"a" * (2 * obs_http.MAX_REQUEST_BYTES)
            try:
                assert self._raw(endpoint, junk) == b""
            except ConnectionError:
                pass  # reset while still sending: dropped all the same

    def test_only_get_is_served(self):
        routes = {"/metrics": lambda: (200, obs_http.PLAIN, "x 1\n")}
        with obs_http.MetricsHttpServer(routes) as endpoint:
            reply = self._raw(
                endpoint, b"POST /metrics HTTP/1.0\r\n\r\n")
            assert reply.startswith(b"HTTP/1.0 404 Not Found")
            assert reply.endswith(b"GET only\n")
            assert self._raw(endpoint, b"\r\n\r\n") \
                .startswith(b"HTTP/1.0 404")


class TestBufferCounters:
    def test_allocation_and_growth_are_counted(self):
        reset_buffer_counters()
        buffer = MarshalBuffer(capacity=16)
        buffer.reserve(1 << 16)
        counters = buffer_counters()
        assert counters["allocations"] == 1
        assert counters["grows"] == 1
        assert counters["grown_bytes"] >= (1 << 16) - 16
        reset_buffer_counters()
        assert buffer_counters()["allocations"] == 0


class TestCompilerTiming:
    def test_compile_records_phase_timings(self):
        result = Flick(frontend="corba", backend="iiop").compile(CALC_IDL)
        timings = result.timings
        for phase in ("parse_s", "aoi_s", "present_s", "emit_s",
                      "total_s"):
            assert timings[phase] >= 0.0
        assert timings["total_s"] >= timings["emit_s"]

    def test_emit_summary_shape(self):
        result = Flick(frontend="corba", backend="iiop").compile(CALC_IDL)
        summary = result.emit_summary()
        assert summary["operations"] == 1
        assert summary["stub_bytes"] > 0
        assert summary["stub_lines"] > 0
        assert summary["request_chunks"] >= 1

    def test_compile_phases_are_traced(self):
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        Flick(frontend="corba", backend="iiop").compile(CALC_IDL)
        names = {span.name for span in exporter.spans}
        assert {"compile.parse", "compile.aoi", "compile.present",
                "compile.emit"} <= names


# ----------------------------------------------------------------------
# The metric catalogue: names, types and label names are an interface
# ----------------------------------------------------------------------

CATALOGUE = "tests/golden/metric_families.json"

CATALOGUE_IDL = """
interface Calc {
  double avg(in sequence<long> xs);
  oneway void ping(in long x);
};
"""

CATALOGUE_IMPL = """
class CalcImpl:
    def avg(self, xs):
        return sum(xs) / len(xs)

    def ping(self, x):
        pass
"""


def _catalogue(registry, text):
    """Sorted ``[family, type, label names]`` of *registry*, checked
    against the ``# TYPE`` lines of the exposition *text* it rendered."""
    import re

    rows = [[family.name, family.kind, list(family.labelnames)]
            for family in registry.families()]
    rows += [[name, "gauge", []] for name in registry._callbacks]
    assert sorted((name, kind) for name, kind, _labels in rows) \
        == sorted(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))
    return sorted(rows)


def _one_call_per_op(address, backend):
    module = Flick(frontend="corba", backend=backend) \
        .compile(CATALOGUE_IDL).load_module()
    transport = TcpClientTransport(*address[:2])
    try:
        client = module.CalcClient(transport)
        client.ping(1)
        assert client.avg([1, 2, 3]) == 2.0  # also: the oneway landed
    finally:
        transport.close()


def _build_catalogue(directory):
    """``{"serve" | "gateway" | "supervisor": catalogue}``: a blocking
    ``serve``, an asyncio gateway in front of it (stats and the profiler
    on, one call per op through both), and the supervisor's own."""
    from repro.runtime.service import ServiceConfig, build
    from repro.runtime.supervisor import Supervisor

    (directory / "calc.idl").write_text(CATALOGUE_IDL)
    (directory / "catalogue_impl.py").write_text(CATALOGUE_IMPL)
    base = ServiceConfig(
        idl_path=str(directory / "calc.idl"), lang="corba", stats=True,
        profile_sample=1, drain_timeout=2.0, sys_paths=[str(directory)])
    serve = base.but(
        kind="serve", impl="catalogue_impl:CalcImpl",
        backend="oncrpc-xdr", profile_path=str(directory / "serve.json"))
    found = {}
    with build(serve) as upstream:
        host, port = upstream.server.address[:2]
        _one_call_per_op((host, port), "oncrpc-xdr")
        found["serve"] = _catalogue(
            upstream.stats.registry, upstream.metrics_text())
        gateway = base.but(
            kind="gateway", backend="iiop", upstream_backend="oncrpc-xdr",
            upstream_host=host, upstream_port=port,
            profile_path=str(directory / "gateway.json"))
        with build(gateway) as bridge:
            _one_call_per_op(bridge.server.address, "iiop")
            found["gateway"] = _catalogue(
                bridge.stats.registry, bridge.metrics_text())
    fleet = Supervisor(serve.but(stats=False), 1, report=lambda line: None)
    found["supervisor"] = _catalogue(
        fleet.registry, fleet.registry.render_prometheus())
    return found


def _catalogue_lines(catalogue):
    return ["%s: %s %s {%s}" % (service, name, kind, ",".join(labels))
            for service, rows in sorted(catalogue.items())
            for name, kind, labels in rows]


def test_metric_catalogue_is_pinned(tmp_path, monkeypatch):
    """Every family ``/metrics`` can show, compared with the golden
    file.  A family added, dropped, retyped or relabelled is an
    interface change: update the golden file and say so."""
    import difflib

    monkeypatch.syspath_prepend(str(tmp_path))  # undone at teardown
    found = _build_catalogue(tmp_path)
    with open(CATALOGUE) as handle:
        golden = json.load(handle)
    diff = "\n".join(difflib.unified_diff(
        _catalogue_lines(golden), _catalogue_lines(found),
        CATALOGUE, "this tree", lineterm=""))
    assert found == golden, diff
    names = {row[0] for rows in found.values() for row in rows}
    assert not [name for name in names if name.startswith("flick_tier_")]
    assert all(name.startswith("flick_supervisor_")
               for name, _kind, _labels in found["supervisor"])
