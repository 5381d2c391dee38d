"""What the aio server's ``thread`` mode pays to leave the event loop.

    PYTHONPATH=src python scripts/aio_handoff_floor.py [--rounds 15]

Everything is timed in alternation on one pinned CPU, like the
benchmark's ``rpc_pipelined`` (``ping`` and ``put_ints`` of 1 KiB on the
e2e ledger schema, ONC/XDR and IIOP, one connection each), and the
lowest round of each is printed, in microseconds per call:

* ``queue``: an event loop and one worker thread handing an empty job
  back and forth with the standard library alone — ``SimpleQueue.put``
  out, ``call_soon_threadsafe`` back — with 1 and with 16 jobs in
  flight.  The floor: two thread switches, one self-pipe wake-up and
  the GIL, and nothing of this repository;
* ``executor``: the same job through ``ThreadPoolExecutor.submit``
  (a ``Future``, a work item, a semaphore and two module locks per
  job), which is what the server paid per record before PR 22;
* ``inline`` / ``thread``: the real ``AioTcpServer`` in each dispatch
  mode under 16 coroutine callers.  The servants do no work, so
  ``thread - inline`` is the price of the hand-off itself.
"""

import argparse
import asyncio
import os
import pathlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from queue import SimpleQueue
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import contract  # noqa: E402
from repro import api  # noqa: E402
from repro.encoding import MarshalBuffer  # noqa: E402
from repro.runtime import StubServer  # noqa: E402
from repro.runtime.aio import ConnectionPool  # noqa: E402

CALLS = 4000
DEPTH = 16
MIX = (("ping", 0), ("put_ints", 1024))  # rpc_pipelined's


def pingpong(loop, submit, depth):
    """CALLS empty jobs through *submit*, *depth* at a time."""

    def call():
        finished = loop.create_future()
        left = [CALLS - depth, CALLS]  # to submit, to come back

        def back():
            left[1] -= 1
            if left[0]:
                left[0] -= 1
                submit(job)
            elif not left[1]:
                finished.set_result(None)

        def job():
            loop.call_soon_threadsafe(back)

        for _ in range(depth):
            submit(job)
        loop.run_until_complete(finished)

    return call


def queue_worker(closers):
    jobs = SimpleQueue()

    def run():
        while True:
            job = jobs.get()
            if job is None:
                return
            job()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    closers += [lambda: jobs.put(None), thread.join]
    return jobs.put


class Served:
    """rpc_pipelined's callers against servers in one dispatch mode."""

    def __init__(self, loop, compiled, mode):
        self.loop = loop
        self.servers, self.pools, self.calls = [], [], []
        for protocol, (result, family) in compiled.items():
            module, servant = result.module, contract.Servant()
            servant.put_ints = lambda a: None  # nobody pops what it keeps
            server = StubServer(module, servant).aio_server(
                dispatch_mode=mode).start()
            pool = ConnectionPool(*server.address[:2], pool_size=1)
            self.servers.append(server)
            self.pools.append(pool)
            for method, size in MIX:
                kind = contract.make_kind(
                    protocol, method, size, 1, (result, family),
                    (result, family), servant)
                self.calls.append((
                    getattr(module, "_m_req_" + method),
                    getattr(module, "_u_rep_" + method),
                    module._check_reply, pool.acall, kind.arg))

    async def _run(self):
        calls = self.calls
        positions = iter(range(CALLS))

        async def caller():
            buffer = MarshalBuffer()
            for position in positions:
                encode, decode, check, acall, arg = \
                    calls[position % len(calls)]
                buffer.reset()
                encode(buffer, position + 1, arg)
                reply = await acall(buffer.getvalue())
                decode(reply, check(reply, position + 1))

        await asyncio.gather(*[caller() for _ in range(DEPTH)])

    def call(self):
        self.loop.run_until_complete(self._run())

    def close(self):
        async def close_pools():
            for pool in self.pools:
                await pool.aclose()

        self.loop.run_until_complete(close_pools())
        for server in self.servers:
            server.stop()


def timed(call):
    started = perf_counter()
    call()
    return (perf_counter() - started) / CALLS * 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    rounds = parser.parse_args().rounds
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    loop = asyncio.new_event_loop()
    closers, subjects = [], {}
    executor = ThreadPoolExecutor(max_workers=64)  # the server's default
    closers.append(executor.shutdown)
    put = queue_worker(closers)
    for depth in (1, DEPTH):
        subjects["queue", depth] = pingpong(loop, put, depth)
        subjects["executor", depth] = pingpong(loop, executor.submit, depth)
    compiled = {}
    for protocol, (backend, family) in contract.PROTOCOLS.items():
        compiled[protocol] = api.compile(
            contract.schema_text("ledger.idl"), name="ledger.idl",
            backend=backend), family
    for mode in ("inline", "thread"):
        served = Served(loop, compiled, mode)
        closers.append(served.close)
        subjects[mode, DEPTH] = served.call
    best = dict.fromkeys(subjects, float("inf"))
    for call in subjects.values():
        call()
    for _ in range(rounds):
        for key, call in subjects.items():
            best[key] = min(best[key], timed(call))
    for close in closers:
        close()
    loop.close()
    print("%-24s%12s%12s" % ("us per call", "depth 1", "depth %d" % DEPTH))
    for name in ("queue", "executor"):
        print("%-24s%12.2f%12.2f"
              % ("pingpong " + name, best[name, 1], best[name, DEPTH]))
    for name in ("inline", "thread"):
        print("%-24s%12s%12.2f" % ("server " + name, "", best[name, DEPTH]))
    print("%-24s%12s%12.2f" % ("thread - inline", "",
                               best["thread", DEPTH] - best["inline", DEPTH]))


if __name__ == "__main__":
    main()
