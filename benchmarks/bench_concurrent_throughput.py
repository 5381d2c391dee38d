"""Blocking versus concurrent runtime: aggregate RPC throughput.

Not a paper figure: this benchmark motivates `repro.runtime.aio`
(ROADMAP: with Flick-optimized stubs, the *serving layer* — a blocking,
thread-per-connection loop — is the bottleneck, not marshaling).

Scenario (the headline grid): N logical clients share a fixed budget of
8 TCP connections — the `ConnectionPool` topology every multi-tenant
deployment uses, because a connection (plus, on the blocking server, a
thread) per end user does not scale — and call an operation whose
servant performs a 5 ms simulated backend wait.  Both servers receive
byte-identical wire traffic from the identical pooled client; only the
server architecture differs:

* the blocking thread-per-connection server runs at most one request per
  connection at a time, so its in-flight work is capped by the
  *connection budget* (8), regardless of how many clients are queued;
* the aio server pipelines — correlation rides in the protocol's own
  XID field — so its in-flight work is capped by the *request load* (N).

Below the connection budget the two are equivalent; at 64 clients the
aio server must sustain >= 3x the blocking server's aggregate
throughput (the acceptance criterion since PR 1; measured 4.3x here
with the framed connection, 3.5x with the streams path before it).

A second, no-assertion table reports the echo (zero-latency) workload,
where per-call CPU overhead dominates.  With one call in flight per
connection (1 and 8 clients over 8 connections) there is nothing to
batch and the blocking runtime is ahead or at parity; once calls queue
behind each other on a connection (64 clients) the aio server reads and
answers them a batch at a time and is ahead (measured 2.2x).  The table
keeps the comparison honest in both directions.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import threading
import time

import pytest

from benchmarks.harness import compiled, fmt, print_table, save_json
from repro import api
from repro.encoding import MarshalBuffer
from repro.runtime import StubServer
from repro.runtime.aio import ConnectionPool
from repro.runtime.service import ServiceConfig
from repro.runtime.supervisor import Supervisor
from repro.workloads import make_int_array

CLIENT_COUNTS = (1, 8, 64)

#: Shared transport budget: TCP connections (= blocking server threads).
POOL_SIZE = 8

#: Simulated backend wait per call, seconds (a database lookup, say).
BACKEND_WAIT = 0.005

#: Measurement window per grid cell, seconds.
WINDOW = 2.0
ECHO_WINDOW = 0.6


class SlowServant:
    """Servant whose operations wait on a simulated 5 ms backend."""

    def ints(self, values):
        time.sleep(BACKEND_WAIT)

    def rects(self, values):
        time.sleep(BACKEND_WAIT)

    def dirents(self, values):
        time.sleep(BACKEND_WAIT)


class EchoServant:
    """Servant that returns immediately (pure runtime overhead)."""

    def ints(self, values):
        pass


def _request_bytes(module):
    buffer = MarshalBuffer()
    module._m_req_ints(buffer, 1, make_int_array(32))
    return buffer.getvalue()


def _drive_pooled(address, clients, request, window):
    """Aggregate calls/s of *clients* workers over a shared pool."""
    total = [0]

    async def main():
        pool = ConnectionPool(*address, pool_size=POOL_SIZE)
        stop_at = time.perf_counter() + window

        async def worker():
            count = 0
            while time.perf_counter() < stop_at:
                await pool.acall(request)
                count += 1
            return count

        counts = await asyncio.gather(
            *[worker() for _ in range(clients)]
        )
        await pool.aclose()
        total[0] = sum(counts)

    asyncio.run(main())
    return total[0] / window


def _measure_grid(servant_class, window, dispatch_mode):
    _result, module = compiled("flick-xdr")
    request = _request_bytes(module)
    rates = {}
    for clients in CLIENT_COUNTS:
        blocking_server = StubServer(module, servant_class()).tcp_server()
        with blocking_server:
            rates[("blocking", clients)] = _drive_pooled(
                blocking_server.address, clients, request, window
            )
        aio_server = StubServer(module, servant_class()).aio_server(
            dispatch_mode=dispatch_mode, max_concurrency=128
        )
        with aio_server:
            rates[("aio", clients)] = _drive_pooled(
                aio_server.address, clients, request, window
            )
    return rates


def _rows(rates):
    rows = []
    for clients in CLIENT_COUNTS:
        blocking = rates[("blocking", clients)]
        aio = rates[("aio", clients)]
        rows.append([
            str(clients), fmt(blocking), fmt(aio), fmt(aio / blocking),
        ])
    return rows


class TestConcurrentThroughput:
    def test_pooled_slow_backend(self, benchmark):
        """The headline grid: 5 ms backend, shared 8-connection budget."""
        rates = benchmark.pedantic(
            lambda: _measure_grid(SlowServant, WINDOW, "thread"),
            rounds=1, iterations=1,
        )
        print_table(
            "Concurrent throughput, 5ms backend, %d pooled connections "
            "(calls/s)" % POOL_SIZE,
            ("clients", "blocking", "aio", "aio/blocking"),
            _rows(rates),
            save_as="concurrent_throughput_pooled",
        )
        save_json("concurrent", {
            "pool_size": POOL_SIZE,
            "backend_wait_s": BACKEND_WAIT,
            "window_s": WINDOW,
            "calls_per_s": {
                "%s_%d" % key: rate for key, rate in rates.items()
            },
        })
        # Below the connection budget, the architectures are equivalent:
        # both are latency-bound with `clients` requests in flight.
        assert rates[("aio", 1)] > 0.5 * rates[("blocking", 1)]
        # At 64 clients the blocking server is capped at POOL_SIZE
        # requests in flight while the aio server pipelines all 64:
        # the acceptance criterion is >= 3x aggregate throughput.
        ratio = rates[("aio", 64)] / rates[("blocking", 64)]
        assert ratio >= 3.0, "aio/blocking at 64 clients: %.2f" % ratio

    def test_echo_overhead(self, benchmark):
        """Honesty table: zero-wait echo, where per-call CPU overhead
        dominates; pipelining pays only as far as it lets the server
        batch connection I/O.  No ratio assertion."""
        rates = benchmark.pedantic(
            lambda: _measure_grid(EchoServant, ECHO_WINDOW, "inline"),
            rounds=1, iterations=1,
        )
        print_table(
            "Echo throughput (no backend wait), %d pooled connections "
            "(calls/s)" % POOL_SIZE,
            ("clients", "blocking", "aio", "aio/blocking"),
            _rows(rates),
            save_as="concurrent_throughput_echo",
        )
        for clients in CLIENT_COUNTS:
            assert rates[("aio", clients)] > 0
            assert rates[("blocking", clients)] > 0


# ----------------------------------------------------------------------
# Multi-process serving (`flick serve --workers N`)
# ----------------------------------------------------------------------

WORKER_COUNTS = (1, 2, 4)
MULTIPROC_WINDOW = 1.5

#: Client driver threads, each with its own event loop and pool — one
#: asyncio loop cannot saturate several server processes by itself.
DRIVER_THREADS = 4
CLIENTS_PER_DRIVER = 8

MULTIPROC_IDL = """
interface Bench {
    double churn(in sequence<long> xs);
};
"""

#: CPU-bound servant: per-call work the GIL serializes in one process.
MULTIPROC_SERVANT = """\
class BenchServant:
    def churn(self, xs):
        total = 0
        for value in xs:
            total += value * value
        return float(total)
"""


def _churn_request(module):
    buffer = MarshalBuffer()
    module._m_req_churn(buffer, 1, make_int_array(2048))
    return buffer.getvalue()


def _drive_threaded(address, request, window):
    """Aggregate calls/s from several independent client loops."""
    totals = []
    lock = threading.Lock()

    def driver():
        async def main():
            pool = ConnectionPool(*address, pool_size=4)
            stop_at = time.perf_counter() + window

            async def worker():
                count = 0
                while time.perf_counter() < stop_at:
                    await pool.acall(request)
                    count += 1
                return count

            counts = await asyncio.gather(
                *[worker() for _ in range(CLIENTS_PER_DRIVER)]
            )
            await pool.aclose()
            return sum(counts)

        result = asyncio.run(main())
        with lock:
            totals.append(result)

    threads = [
        threading.Thread(target=driver) for _ in range(DRIVER_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(totals) / window


def _measure_workers(tmp_dir):
    idl_path = os.path.join(tmp_dir, "bench.idl")
    with open(idl_path, "w") as handle:
        handle.write(MULTIPROC_IDL)
    with open(os.path.join(tmp_dir, "bench_servant.py"), "w") as handle:
        handle.write(MULTIPROC_SERVANT)
    module = api.compile(MULTIPROC_IDL, "corba", backend="oncrpc-xdr").module
    request = _churn_request(module)
    template = ServiceConfig(
        kind="serve", idl_path=idl_path, lang="corba",
        backend="oncrpc-xdr", impl="bench_servant:BenchServant",
        dispatch_mode="inline", sys_paths=[tmp_dir])
    rates = {}
    for workers in WORKER_COUNTS:
        supervisor = Supervisor(
            template, workers, report=lambda line: None)
        with supervisor:
            rates[workers] = _drive_threaded(
                (supervisor.host, supervisor.port), request,
                MULTIPROC_WINDOW)
    return rates


class TestMultiprocThroughput:
    def test_workers_column(self, benchmark):
        """Same CPU-bound workload, one supervised fleet per row: the
        workers column shows what `--workers N` buys once a single
        process's GIL is the ceiling.  No ratio assertion — CI boxes
        have wildly different core counts; the JSON records the curve."""
        with tempfile.TemporaryDirectory() as tmp_dir:
            rates = benchmark.pedantic(
                lambda: _measure_workers(tmp_dir),
                rounds=1, iterations=1,
            )
        rows = [
            [str(workers), fmt(rates[workers]),
             fmt(rates[workers] / rates[WORKER_COUNTS[0]])]
            for workers in WORKER_COUNTS
        ]
        print_table(
            "Supervised multi-process throughput, CPU-bound servant "
            "(calls/s)",
            ("workers", "calls/s", "vs 1 worker"),
            rows,
            save_as="concurrent_throughput_multiproc",
        )
        save_json("multiproc", {
            "cpu_count": os.cpu_count(),
            "window_s": MULTIPROC_WINDOW,
            "driver_threads": DRIVER_THREADS,
            "clients_per_driver": CLIENTS_PER_DRIVER,
            "calls_per_s": {
                "workers_%d" % workers: rate
                for workers, rate in rates.items()
            },
        })
        for workers in WORKER_COUNTS:
            assert rates[workers] > 0
