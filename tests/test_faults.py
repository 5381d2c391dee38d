"""Fault injection, circuit breaking, shedding — and the recovery story.

Covers the `repro.faults` package (plan values, seeded injector,
transport wrappers), the client circuit breaker, server overload
shedding, and the headline acceptance scenario: a seeded drop + truncate
+ corrupt plan applied to an asyncio ONC server, with every idempotent
call completing through retry and the circuit breaker, and the whole
episode visible through one ``/metrics`` endpoint.
"""

import asyncio
import json
import socket
import struct
import threading
import time
import urllib.request

import pytest

from repro import documents
from repro.errors import (
    CircuitOpenError,
    FlickError,
    RemoteCallError,
    TransportError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultyAioTransport,
    FaultyTransport,
)
from repro.obs import MetricsRegistry
from repro.runtime.aio import (
    AioClientTransport,
    CallOptions,
    CircuitBreaker,
    ClientStats,
    ConnectionPool,
    RetryPolicy,
    ServerStats,
)
from repro.runtime.framing import RecordDecoder, encode_record
from repro.runtime.server import StubServer

from tests.conftest import compile_db
from tests.endpoint import registry_endpoint
from tests.test_fuzz_wire import DbImpl, _capture_requests


# ----------------------------------------------------------------------
# FaultPlan: validation and (de)serialization
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_defaults_are_a_no_fault_plan(self):
        plan = FaultPlan()
        injector = plan.injector()
        outcome = injector.on_message(b"hello")
        assert not outcome.reset
        assert [d.payload for d in outcome.deliveries] == [b"hello"]
        assert outcome.deliveries[0].delay_s == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"drop": -0.1}, {"drop": 1.5}, {"corrupt": 2.0},
        {"reset": -1.0},
    ])
    def test_probability_out_of_range_rejected(self, kwargs):
        with pytest.raises(FlickError, match="not in \\[0, 1\\]"):
            FaultPlan(**kwargs)

    def test_shape_parameters_validated(self):
        with pytest.raises(FlickError, match="corrupt_bits"):
            FaultPlan(corrupt_bits=0)
        with pytest.raises(FlickError, match="delay_s"):
            FaultPlan(delay_s=-0.5)

    def test_dict_roundtrip(self):
        plan = FaultPlan(seed=3, drop=0.1, corrupt=0.05, corrupt_bits=4)
        assert _read(documents.write(plan)) == plan

    def test_unknown_keys_are_refused(self):
        with pytest.raises(FlickError, match="jitter"):
            _read({"seed": 1, "jitter": 0.5})

    @pytest.mark.parametrize("document, message", [
        ({"seed": [1]}, "seed must be an integer, not \\[1\\]"),
        ({"drop": "0.5"}, "drop must be a number, not '0.5'"),
        ({"drop": True}, "drop must be a number, not True"),
        ({"delay_s": None}, "delay_s must be a number, not None"),
        ({"drop": 1.5}, r"fault probability drop=1.5 is not in \[0, 1\]"),
    ])
    def test_a_wrong_shape_is_refused_naming_the_field(
            self, document, message):
        """The parent's reader loaded the first and the third, and the
        second and fourth ended in a TypeError from the range check."""
        with pytest.raises(FlickError, match="^fault plan: " + message):
            _read(document)

    def test_file_roundtrip(self, tmp_path):
        plan = FaultPlan(seed=11, drop=0.2, delay=0.1, delay_s=0.05)
        path = tmp_path / "plan.json"
        documents.save(plan, path)
        assert documents.load(FaultPlan, path, "fault plan") == plan
        # The on-disk form is plain JSON anyone can hand-write.
        assert json.loads(path.read_text())["drop"] == 0.2

    def test_load_rejects_bad_json_and_non_objects(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FlickError, match="fault plan: .* not JSON"):
            documents.load(FaultPlan, bad, "fault plan")
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        with pytest.raises(FlickError, match="must be an object"):
            documents.load(FaultPlan, listy, "fault plan")


def _read(document):
    return documents.read(FaultPlan, document, "fault plan")


# ----------------------------------------------------------------------
# FaultInjector: per-fault behavior and determinism
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(seed=42, drop=0.3, truncate=0.3, corrupt=0.2)
        messages = [bytes([n]) * 32 for n in range(64)]

        def run():
            injector = plan.injector()
            trace = []
            for message in messages:
                outcome = injector.on_message(message)
                trace.append(
                    (outcome.reset,
                     tuple(d.payload for d in outcome.deliveries))
                )
            trace.append(tuple(d.payload for d in injector.drain()))
            return trace, dict(injector.counts)

        assert run() == run()

    def test_drop_and_reset(self):
        dropped = FaultPlan(drop=1.0).injector().on_message(b"x" * 8)
        assert dropped.deliveries == () and not dropped.reset
        reset = FaultPlan(reset=1.0).injector().on_message(b"x" * 8)
        assert reset.reset

    def test_duplicate_delivers_twice(self):
        injector = FaultPlan(duplicate=1.0).injector()
        outcome = injector.on_message(b"twice")
        assert [d.payload for d in outcome.deliveries] == [b"twice"] * 2
        assert injector.counts["duplicate"] == 1

    def test_delay_carries_the_plan_delay(self):
        injector = FaultPlan(delay=1.0, delay_s=0.25).injector()
        outcome = injector.on_message(b"late")
        assert outcome.deliveries[0].delay_s == 0.25

    def test_truncate_keeps_at_least_one_byte(self):
        injector = FaultPlan(seed=5, truncate=1.0).injector()
        for _ in range(50):
            (delivery,) = injector.on_message(b"payload!").deliveries
            assert 1 <= len(delivery.payload) < 8

    def test_corrupt_flips_exactly_the_requested_bits(self):
        injector = FaultPlan(seed=5, corrupt=1.0, corrupt_bits=1).injector()
        original = b"\x00" * 16
        (delivery,) = injector.on_message(original).deliveries
        flipped = sum(
            bin(a ^ b).count("1")
            for a, b in zip(original, delivery.payload)
        )
        assert flipped == 1

    def test_reorder_swaps_adjacent_messages(self):
        injector = FaultPlan(reorder=1.0).injector()
        first = injector.on_message(b"a")
        assert first.deliveries == ()  # held
        second = injector.on_message(b"b")
        assert [d.payload for d in second.deliveries] == [b"b", b"a"]

    def test_drain_releases_a_trailing_held_message(self):
        injector = FaultPlan(reorder=1.0).injector()
        assert injector.on_message(b"tail").deliveries == ()
        assert [d.payload for d in injector.drain()] == [b"tail"]
        assert injector.drain() == ()


# ----------------------------------------------------------------------
# FaultyTransport wrappers
# ----------------------------------------------------------------------

class _EchoInner:
    """A fake inner transport recording every request it sees."""

    def __init__(self):
        self.calls = []
        self.closed = False

    def call(self, request):
        self.calls.append(bytes(request))
        return b"reply:" + bytes(request)

    def send(self, request):
        self.calls.append(bytes(request))

    def close(self):
        self.closed = True

    async def aclose(self):
        self.closed = True


class _EchoUpstream(_EchoInner):
    """A fake gateway upstream leg (what FaultyAioTransport wraps),
    answering each two-way request at once."""

    def acquire(self, callback, parent=None):
        callback(None, None)

    def submit(self, connection, wire_id, payload, on_reply):
        on_reply(self.call(payload), 0, None, None)

    def send(self, connection, payload):
        self.calls.append(bytes(payload))


def _onc_call(xid):
    """An ONC RPC call header (no credentials, no body) with *xid*."""
    return struct.pack(">10I", xid, 0, 2, 0x20000001, 1, 1, 0, 0, 0, 0)


class TestFaultyTransports:
    def test_blocking_drop_and_reset_raise_transport_errors(self):
        inner = _EchoInner()
        dropper = FaultyTransport(inner, FaultPlan(drop=1.0))
        with pytest.raises(TransportError, match="dropped"):
            dropper.call(b"req")
        resetter = FaultyTransport(inner, FaultPlan(reset=1.0))
        with pytest.raises(TransportError, match="reset"):
            resetter.call(b"req")
        assert inner.calls == []  # nothing reached the inner transport

    def test_blocking_duplicate_and_delay(self):
        inner = _EchoInner()
        sleeps = []
        transport = FaultyTransport(
            inner, FaultPlan(duplicate=1.0, delay=1.0, delay_s=0.2),
            sleep=sleeps.append,
        )
        assert transport.call(b"req") == b"reply:req"
        assert inner.calls == [b"req", b"req"]
        assert sleeps == [0.2, 0.2]
        transport.close()
        assert inner.closed

    def test_reply_perturbation_is_opt_in(self):
        inner = _EchoInner()
        quiet = FaultyTransport(inner, FaultPlan(seed=1, truncate=1.0))
        # truncate=1.0 hits the *request*; the reply comes back intact.
        reply = quiet.call(b"0123456789")
        assert reply.startswith(b"reply:")
        noisy = FaultyTransport(
            _EchoInner(), FaultPlan(seed=1, truncate=1.0),
            faults_on_replies=True,
        )
        assert len(noisy.call(b"0123456789")) < len(reply)

    def test_aio_wrapper_mirrors_blocking_semantics(self):
        inner = _EchoUpstream()
        request = _onc_call(2)

        def answer(reply, _offset, error, _stamp):
            if error is not None:
                raise error
            return reply

        async def main():
            dropper = FaultyAioTransport(inner, FaultPlan(drop=1.0))
            with pytest.raises(TransportError, match="dropped"):
                dropper.submit(None, 1, request, answer)
            doubler = FaultyAioTransport(inner, FaultPlan(duplicate=1.0))
            replies = []
            doubler.submit(None, 2, request, lambda *reply: replies.append(
                answer(*reply)))
            for _ in range(10):  # each copy goes out on a turn of its own
                await asyncio.sleep(0)
            assert replies == [b"reply:" + request]
            await doubler.aclose()

        asyncio.run(main())
        assert inner.calls == [request, request]
        assert inner.closed

    def test_aio_wrapper_routes_every_delivery_to_the_submitted_id(self):
        """A copy whose id was corrupted goes out under the submitted
        wire id again; one whose header no longer parses fails its
        call; a message held for reordering follows the next one out as
        a oneway, its own call already failed as dropped."""
        inner = _EchoUpstream()
        outcomes = []

        def collect(reply, _offset, error, _stamp):
            outcomes.append(error if error is not None else reply)

        async def settle():
            for _ in range(10):
                await asyncio.sleep(0)

        async def main():
            corrupted = bytearray(_onc_call(7))
            corrupted[0] ^= 0x80  # the xid's top bit
            FaultyAioTransport(inner, FaultPlan()).submit(
                None, 7, bytes(corrupted), collect)
            FaultyAioTransport(inner, FaultPlan()).submit(
                None, 8, b"not a header", collect)
            await settle()
            assert outcomes[0] == b"reply:" + _onc_call(7)
            assert isinstance(outcomes[1], TransportError)
            del outcomes[:], inner.calls[:]
            swapper = FaultyAioTransport(inner, FaultPlan(reorder=1.0))
            swapper.submit(None, 1, _onc_call(1), collect)
            swapper.submit(None, 2, _onc_call(2), collect)
            await settle()

        asyncio.run(main())
        assert isinstance(outcomes[0], TransportError)
        assert "dropped" in str(outcomes[0])
        assert outcomes[1:] == [b"reply:" + _onc_call(2)]
        assert inner.calls == [_onc_call(2), _onc_call(1)]


# ----------------------------------------------------------------------
# CircuitBreaker unit behavior (fake clock: no sleeping)
# ----------------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=_Clock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 1 and breaker.rejections == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=_Clock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_then_close(self):
        clock = _Clock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=5.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 5.0
        assert breaker.state == "half-open"
        assert breaker.allow()       # the single probe slot
        assert not breaker.allow()   # concurrent calls still rejected
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens_and_restarts_cooldown(self):
        clock = _Clock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=5.0, clock=clock
        )
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 2
        clock.now = 9.0
        assert not breaker.allow()   # cooldown restarted at t=5
        clock.now = 10.0
        assert breaker.allow()

    def test_bind_stats_mirrors_state_and_opens(self):
        stats = ClientStats()
        clock = _Clock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=1.0, clock=clock
        ).bind_stats(stats)
        assert stats.breaker_state.value == 0
        breaker.record_failure()
        assert stats.breaker_state.value == 2
        assert stats.breaker_opens.value == 1
        clock.now = 1.0
        assert breaker.state == "half-open"
        assert stats.breaker_state.value == 1
        breaker.record_success()
        assert stats.breaker_state.value == 0


# ----------------------------------------------------------------------
# Breaker wired into the pool
# ----------------------------------------------------------------------

class TestPoolBreakerIntegration:
    def test_open_breaker_fails_fast_without_dialing(self):
        dials = []

        async def main():
            async def connector():
                dials.append(1)
                raise TransportError("down")

            breaker = CircuitBreaker(failure_threshold=1)
            breaker.record_failure()  # pre-opened
            pool = ConnectionPool(
                "127.0.0.1", 1, connector=connector, breaker=breaker,
                options=CallOptions(
                    retry=RetryPolicy(max_attempts=1)
                ),
            )
            with pytest.raises(CircuitOpenError):
                await pool.acall(b"\0" * 40)
            await pool.aclose()

        asyncio.run(main())
        assert dials == []

    def test_persistent_failures_trip_the_breaker_mid_retry(self):
        dials = []

        async def main():
            async def connector():
                dials.append(1)
                raise TransportError("down")

            stats = ClientStats()
            breaker = CircuitBreaker(
                failure_threshold=2, recovery_time=60.0
            )
            pool = ConnectionPool(
                "127.0.0.1", 1, connector=connector, breaker=breaker,
                stats=stats,
                options=CallOptions(
                    retry=RetryPolicy(max_attempts=6, base_delay=0.001)
                ),
            )
            with pytest.raises(TransportError):
                await pool.acall(b"\0" * 40)
            await pool.aclose()
            return stats, breaker

        stats, breaker = asyncio.run(main())
        # Two real dials tripped the breaker; the remaining attempts
        # were rejected without touching the network.
        assert len(dials) == 2
        assert breaker.opens == 1
        assert stats.breaker_rejections.value == 4
        assert stats.breaker_state.value == 2  # bound via the pool


# ----------------------------------------------------------------------
# Server-side overload shedding
# ----------------------------------------------------------------------

class TestOverloadShedding:
    def test_excess_load_is_shed_with_error_replies(self):
        db_module = compile_db().load_module()

        class Sticky(DbImpl):
            def __init__(self):
                self.release = threading.Event()

            def echo(self, data):
                self.release.wait(5.0)
                return bytes(data)

        impl = Sticky()
        stats = ServerStats()
        server = StubServer(db_module, impl).aio_server(
            dispatch_mode="thread", max_concurrency=1, max_pending=1,
            stats=stats,
        )
        client_class = next(
            getattr(db_module, name) for name in dir(db_module)
            if name.endswith("Client")
        )
        with server:
            transport = AioClientTransport(*server.address, pool_size=4)
            client = client_class(transport.options(deadline=10.0))
            results = []

            def worker():
                try:
                    results.append(("ok", client.echo(b"payload")))
                except RemoteCallError as error:
                    results.append(("shed", error.code))

            threads = [
                threading.Thread(target=worker) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            # One call is running, one is queued; the overflow is shed
            # immediately with error replies.  (A shed-bound record can
            # also end up queued behind the admitted waiter on a shared
            # pooled connection, so "at least 5 of 8" is the invariant,
            # not an exact count.)
            deadline = time.time() + 5
            while stats.shed.value < 5 and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # let any last arrivals settle
            impl.release.set()
            for thread in threads:
                thread.join(timeout=15)
            transport.close()
        shed = int(stats.shed.value)
        assert shed >= 5, results
        outcomes = sorted(kind for kind, _ in results)
        assert outcomes == ["ok"] * (8 - shed) + ["shed"] * shed, results
        # Shed replies are protocol errors, not servant bugs.
        assert all(
            code == "SYSTEM_ERR" for kind, code in results
            if kind == "shed"
        )
        assert stats.servant_errors.value == 0


# ----------------------------------------------------------------------
# Server-side fault plans keep wire order on a connection
# ----------------------------------------------------------------------

class TestServerAdmissionFaults:
    """The asyncio server admits a read's records as one batch; with a
    fault plan each record still meets the injector in wire order and a
    delayed one holds back its successors (head-of-line, like a slow
    wire)."""

    def _pipeline(self, plan, count):
        """Send *count* echo requests in one write; return the xids of
        the replies in arrival order (until the server closes or goes
        quiet) and the seconds until the last one arrived."""
        db_module = compile_db().load_module()
        request = _capture_requests(db_module, [("echo", (b"x",))])[0]
        server = StubServer(db_module, DbImpl()).aio_server(
            dispatch_mode="inline", fault_plan=plan)
        xids, decoder = [], RecordDecoder()
        with server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                started = last = time.perf_counter()
                sock.sendall(b"".join(
                    encode_record(struct.pack(">I", xid) + request[4:])
                    for xid in range(1, count + 1)))
                sock.settimeout(0.3)
                while True:
                    try:
                        data = sock.recv(65536)
                    except TimeoutError:
                        break
                    if not data:
                        break
                    for reply in decoder.feed(data):
                        xids.append(struct.unpack_from(">I", reply)[0])
                    last = time.perf_counter()
            finally:
                sock.close()
        return xids, last - started

    def test_delay_is_head_of_line(self):
        xids, elapsed = self._pipeline(
            FaultPlan(delay=1.0, delay_s=0.05), 4)
        assert xids == [1, 2, 3, 4]
        assert elapsed >= 4 * 0.05 * 0.9  # one after the other

    def test_duplicate_and_reorder_keep_injector_order(self):
        xids, _ = self._pipeline(FaultPlan(duplicate=1.0), 2)
        assert xids == [1, 1, 2, 2]
        xids, _ = self._pipeline(FaultPlan(reorder=1.0), 4)
        assert xids == [2, 1, 4, 3]

    def test_reset_closes_after_the_records_before_it(self):
        # Seed 0 lets two records through and resets on the third.
        plan = FaultPlan(seed=0, reset=0.5)
        injector = plan.injector()
        fates = [injector.on_message(b"x").reset for _ in "123"]
        assert fates == [False, False, True]
        xids, elapsed = self._pipeline(plan, 4)
        assert xids == [1, 2]
        assert elapsed < 0.3  # closed by the server, not timed out


# ----------------------------------------------------------------------
# The acceptance scenario: hostile wire, full recovery, one /metrics
# ----------------------------------------------------------------------

class TestFaultRecoveryEndToEnd:
    def test_seeded_fault_plan_all_idempotent_calls_complete(self):
        """Drop + truncate + corrupt on the server's inbound records;
        every idempotent call still completes via retry and the circuit
        breaker, and the whole episode is visible through /metrics."""
        db_module = compile_db().load_module()
        plan = FaultPlan(seed=6, drop=0.05, truncate=0.02, corrupt=0.02)

        registry = MetricsRegistry()
        server_stats = ServerStats(registry)
        client_stats = ClientStats(registry)
        breaker = CircuitBreaker(failure_threshold=8, recovery_time=0.1)
        server = StubServer(db_module, DbImpl()).aio_server(
            dispatch_mode="thread", stats=server_stats,
            fault_plan=plan, max_pending=128,
        )
        client_class = next(
            getattr(db_module, name) for name in dir(db_module)
            if name.endswith("Client")
        )
        failures = []
        with server, registry_endpoint(registry) as metrics:
            transport = AioClientTransport(
                *server.address, pool_size=4,
                stats=client_stats, breaker=breaker,
            )
            client = client_class(transport.options(
                deadline=0.5, idempotent=True, retry_deadlines=True,
                retry=RetryPolicy(max_attempts=8, base_delay=0.02),
            ))

            def worker(n):
                payload = bytes([n]) * (n + 1)
                try:
                    if client.echo(payload) != payload:
                        failures.append((n, "wrong echo"))
                except Exception as error:
                    failures.append((n, repr(error)))

            threads = [
                threading.Thread(target=worker, args=(n,))
                for n in range(48)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "hung calls"
            url = "http://%s:%d/metrics" % metrics.address[:2]
            body = urllib.request.urlopen(url, timeout=5).read().decode()
            transport.close()

        assert failures == [], failures

        # The seed guarantees faults actually fired: seed 6 truncates
        # its second message no matter what.  (Later fault indices vary
        # run to run — the RNG words a truncation consumes depend on the
        # message length, and arrival order is thread-dependent — so
        # only loose bounds are stable.)
        counts = server._injector.counts
        assert counts["messages"] >= 48
        assert counts["truncate"] >= 1
        # The damaged call recovered by retrying.
        assert client_stats.retries.value >= 1

        # ... and all of it is scrapeable from the one registry.
        assert "flick_server_malformed_frames_total" in body
        assert "flick_server_shed_total" in body
        assert "flick_client_breaker_state" in body
        assert "flick_client_retries_total" in body
