"""What the multiplexing aio client adds to a call, and what a read costs.

    PYTHONPATH=src python scripts/aio_client_floor.py [--rounds 15]
    PYTHONPATH=src python scripts/aio_client_floor.py --check

Everything is timed in alternation on one pinned CPU, like the
benchmark's ``rpc_pipelined`` (``ping`` and ``put_ints`` of 1 KiB on the
e2e ledger schema, ONC/XDR and IIOP, one connection each), and the
lowest round of each is printed, in microseconds:

* ``recv``: one message of 100 bytes / 64 KiB over a socketpair, read
  with ``recv(262144)`` (what an ``asyncio.Protocol`` costs per read:
  CPython allocates the size asked for before a byte arrives),
  ``recv(65536)`` (the blocking transport's cap since PR 17) and
  ``recv_into`` a reused buffer plus one copy out (what an
  ``asyncio.BufferedProtocol`` over a buffer the runtime owns costs).
  Only the read is timed.  The first figure depends on the allocator's
  heap-trim state, so it differs between a fresh process and a
  long-running one — which is the point of not paying it;
* ``floor`` / ``acall``: pre-encoded requests of the workload's mix
  against an ``inline`` ``AioTcpServer``, 1 and 16 in flight.  ``floor``
  is a bare ``FramedConnection`` that pairs replies with futures in
  arrival order — one future, one queued write and one routed read per
  call, nothing looked at; ``acall`` is ``ConnectionPool.acall``.
  ``acall - floor`` is what correlation, the id rewrite, the pool and
  the retry loop add to a call.

``--check`` times nothing: it counts, for one two-way call per protocol
with tracing and stats off, the envelope walks (``envelopes.locator`` /
``reader`` / ``router`` results called) and the ``envelopes.sniff``
calls, and exits non-zero unless walks == 2 and sniffs <= 2 per call.
Counts do not depend on the host.
"""

import argparse
import asyncio
import os
import pathlib
import socket
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import contract  # noqa: E402
from repro import api, envelopes  # noqa: E402
from repro.encoding import MarshalBuffer  # noqa: E402
from repro.runtime import StubServer  # noqa: E402
from repro.runtime.aio import ConnectionPool  # noqa: E402
from repro.runtime.aio.framed import FramedConnection  # noqa: E402
from repro.runtime.framing import MAX_RECORD_SIZE  # noqa: E402

CALLS = 4000
DEPTH = 16
MIX = (("ping", 0), ("put_ints", 1024))  # rpc_pipelined's
RECV = (("recv(262144)", 262144), ("recv(65536)", 65536),
        ("recv_into + copy", None))
SIZES = (100, 64 * 1024)


def recv_cost(size, ask):
    """Microseconds per read of one *size*-byte message (CALLS reads)."""
    near, far = socket.socketpair()
    for sock in (near, far):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 20)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
    message, buffer = bytes(size), memoryview(bytearray(262144))

    def call():
        spent = 0.0
        for _ in range(CALLS):
            near.sendall(message)
            left = size
            started = perf_counter()
            while left:
                if ask is None:
                    got = far.recv_into(buffer)
                    bytes(buffer[:got])
                else:
                    got = len(far.recv(ask))
                left -= got
            spent += perf_counter() - started
        return spent

    return call, [near.close, far.close]


class Floor(FramedConnection):
    """Replies resolve futures in the order the requests left."""

    def __init__(self):
        super().__init__(MAX_RECORD_SIZE)
        self.waiting = []

    def records_received(self, records):
        for record, future in zip(records, self.waiting):
            future.set_result(record)
        del self.waiting[:len(records)]

    def framing_lost(self, error):
        raise error

    async def acall(self, payload):
        future = self._loop.create_future()
        self.waiting.append(future)
        self.send_record(payload)
        return await future


class Served:
    """The workload's requests, pre-encoded, and an inline server per
    protocol with a pool and a floor connection to each."""

    def __init__(self, loop, floor=True):
        self.loop, self.servers, self.closers = loop, [], []
        self.requests = []  # (request bytes, pool.acall, floor.acall)
        for protocol, (backend, family) in contract.PROTOCOLS.items():
            result = api.compile(contract.schema_text("ledger.idl"),
                                 name="ledger.idl", backend=backend)
            module, servant = result.module, contract.Servant()
            servant.put_ints = lambda a: None  # nobody pops what it keeps
            server = StubServer(module, servant).aio_server(
                dispatch_mode="inline").start()
            self.servers.append(server)
            pool = ConnectionPool(*server.address[:2], pool_size=1)
            self.closers.append(pool.aclose)
            bare = None
            if floor:
                _transport, bare = loop.run_until_complete(
                    loop.create_connection(Floor, *server.address[:2]))
            for method, size in MIX:
                kind = contract.make_kind(
                    protocol, method, size, 1, (result, family),
                    (result, family), servant)
                buffer = MarshalBuffer()
                getattr(module, "_m_req_" + method)(buffer, 1, kind.arg)
                self.requests.append((bytes(buffer.getvalue()), pool.acall,
                                      bare and bare.acall))

    def run(self, which, depth, calls=CALLS):
        requests = self.requests

        async def caller(positions):
            for position in positions:
                request = requests[position % len(requests)]
                await request[which](request[0])

        async def callers():
            positions = iter(range(calls))
            await asyncio.gather(*[caller(positions) for _ in range(depth)])

        return lambda: self.loop.run_until_complete(callers())

    def close(self):
        async def close():
            for closer in self.closers:
                await closer()

        self.loop.run_until_complete(close())
        for server in self.servers:
            server.stop()


def timed(call):
    started = perf_counter()
    spent = call()
    return (perf_counter() - started if spent is None else spent) \
        / CALLS * 1e6


def check(loop):
    """Walks and sniffs per two-way call, counted; 0 when within budget."""
    counts = {"walks": 0, "sniffs": 0}

    def counting(factory):
        def counted(*key):
            walk = factory(*key)

            def run(*args):
                counts["walks"] += 1
                return walk(*args)

            return run

        return counted

    def sniff(data, sniff=envelopes.sniff):
        counts["sniffs"] += 1
        return sniff(data)

    for name in ("locator", "reader", "router"):
        if hasattr(envelopes, name):  # no router before PR 23
            setattr(envelopes, name, counting(getattr(envelopes, name)))
    envelopes.sniff = sniff
    served = Served(loop, floor=False)
    calls = len(served.requests)
    served.run(1, 1, calls)()  # dial and warm up, uncounted
    counts.update(walks=0, sniffs=0)
    served.run(1, 1, calls)()
    served.close()
    walks, sniffs = counts["walks"] / calls, counts["sniffs"] / calls
    print("per two-way call: %g envelope walks, %g sniffs" % (walks, sniffs))
    return 0 if walks == 2 and sniffs <= 2 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--check", action="store_true",
                        help="count walks and sniffs per call; time nothing")
    options = parser.parse_args()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    loop = asyncio.new_event_loop()
    if options.check:
        status = check(loop)
        loop.close()
        return status
    closers, subjects = [], {}
    for size in SIZES:
        for name, ask in RECV:
            subjects[name, size], closing = recv_cost(size, ask)
            closers += closing
    served = Served(loop)
    closers.append(served.close)
    for depth in (1, DEPTH):
        subjects["floor", depth] = served.run(2, depth)
        subjects["acall", depth] = served.run(1, depth)
    best = dict.fromkeys(subjects, float("inf"))
    for call in subjects.values():
        call()
    for _ in range(options.rounds):
        for key, call in subjects.items():
            best[key] = min(best[key], timed(call))
    for close in closers:
        close()
    loop.close()
    print("%-24s%12s%12s" % ("us per read", *("%d B" % size
                                              for size in SIZES)))
    for name, _ask in RECV:
        print("%-24s%12.2f%12.2f"
              % (name, *(best[name, size] for size in SIZES)))
    print("%-24s%12s%12s" % ("us per call", "depth 1", "depth %d" % DEPTH))
    for name in ("floor", "acall"):
        print("%-24s%12.2f%12.2f" % (name, best[name, 1], best[name, DEPTH]))
    print("%-24s%12.2f%12.2f" % (
        "acall - floor", *(best["acall", depth] - best["floor", depth]
                           for depth in (1, DEPTH))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
