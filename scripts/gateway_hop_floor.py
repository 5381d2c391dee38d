"""What one bridged call costs the gateway, beside what it carries.

    PYTHONPATH=src python scripts/gateway_hop_floor.py [--rounds 7]
    PYTHONPATH=src python scripts/gateway_hop_floor.py --check

The subject is the benchmark's ``gateway_bridge``: an IIOP caller, an
``AioGatewayServer`` serving ``build_plan(iiop, onc)`` of the e2e ledger
schema over one upstream connection, and a blocking ONC/XDR servant
that does no work.  Everything is timed in alternation on one pinned
CPU, and the lowest round of each column is printed, in microseconds
per call, for each of the workload's kinds (``ping``, ``put_ints`` and
``get_ints`` of 64 KiB, ``put_dirents`` of 16 KiB):

* ``bridged``: the IIOP request through the gateway;
* ``direct``: the egress request the gateway forwards for it (the same
  bytes) sent straight to the ONC servant;
* ``inline``: the same IIOP request answered by an ``inline``
  ``AioTcpServer`` of the IIOP stubs — one asyncio hop and nothing of
  the gateway;
* ``hop``: ``bridged - direct``, what the gateway adds to the call;
* ``loop cpu`` / ``inline cpu``: CPU time of the gateway's (and of the
  inline server's) event-loop thread per call, read from its own
  thread clock while ``bridged`` (``inline``) ran;
* ``transcode`` / ``translate``: ``transcode_request`` and
  ``translate_reply`` on the kind's bytes, in-process (every kind's
  channels are fused, each run by the one function its copy plan was
  printed as: a single slice of the ingress body for the ints, a loop
  over the entries, with each name's count rewritten, for the dirents).

``--check`` times nothing.  With tracing and stats off it counts, per
steady-state bridged two-way call, the ``asyncio`` Tasks created on the
gateway's loop, the coroutines entered on its thread, the envelope
walks it makes on the egress leg (``envelopes.locator`` / ``reader`` /
``router`` results called for the egress protocol), the transcodes,
request and reply, that took the decode/re-encode fallback instead of
a fused copy plan, and the copy plans compiled (``plan.compile_copy``)
on the loop thread.  Over the whole run, warm-up included, it also
counts the compiles of each fused channel.  It exits non-zero unless
Tasks, coroutines, fallback transcodes and steady-state compiles are
all 0 and no channel compiled twice.  Counts do not depend on the
host.
"""

import argparse
import asyncio
import collections
import inspect
import os
import pathlib
import sys
import threading
import time
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import contract  # noqa: E402
from repro import api, envelopes  # noqa: E402
from repro.encoding import MarshalBuffer  # noqa: E402
from repro.gateway import AioGatewayServer, build_plan, plan, proxy, \
    transcode_request, translate_reply  # noqa: E402
from repro.gateway.envelope import parse_request  # noqa: E402
from repro.runtime import StubServer, TcpClientTransport  # noqa: E402

KIB = 1024
MIX = (("ping", 0), ("put_ints", 64 * KIB), ("get_ints", 64 * KIB),
       ("put_dirents", 16 * KIB))  # gateway_bridge's
CALLS = 200
CHECK_CALLS = 40
COLUMNS = ("bridged", "direct", "inline", "hop", "loop cpu",
           "inline cpu", "transcode", "translate")


class Bridge:
    """The workload's servers, a client to each, and per kind the
    ingress request, the egress request it becomes and that one's
    reply."""

    def __init__(self):
        text = contract.schema_text("ledger.idl")
        near = api.compile(text, name="ledger.idl", backend="iiop")
        far = api.compile(text, name="ledger.idl", backend="oncrpc-xdr")
        self.plan = build_plan(near, far)
        self.closers = []
        servants = [contract.Servant(), contract.Servant()]  # far, near
        for servant in servants:  # nobody pops what a put_* keeps
            servant.put_ints = servant.put_dirents = lambda a: None
        self.upstream = self._start(StubServer(
            far.module, servants[0]).tcp_server())
        self.gateway = self._start(AioGatewayServer(
            self.plan, *self.upstream.address[:2], pool_size=1))
        self.inline = self._start(StubServer(
            near.module, servants[1]).aio_server(dispatch_mode="inline"))
        self.clients = {name: self._client(server) for name, server in (
            ("bridged", self.gateway), ("direct", self.upstream),
            ("inline", self.inline))}
        self.kinds = []  # (method, ingress, envelope, op, egress, reply)
        for method, size in MIX:
            kind = contract.make_kind(
                "iiop", method, size, 1, (near, "cdr"), (far, "xdr"),
                servants[0])
            contract.make_kind(  # what get_* hands back on the inline leg
                "iiop", method, size, 1, (near, "cdr"), (near, "cdr"),
                servants[1])
            buffer = MarshalBuffer()
            getattr(near.module, "_m_req_" + method)(buffer, 7, kind.arg)
            ingress = bytes(buffer.getvalue())
            envelope = parse_request(ingress, self.plan.ingress_spec)
            op = self.plan.ops[envelope.op_key]
            egress = MarshalBuffer()
            transcode_request(op, ingress, envelope, egress)
            egress = bytes(egress.getvalue())
            reply = bytes(self.clients["direct"].call(egress))
            self.kinds.append((method, ingress, envelope, op, egress, reply))

    def _start(self, server):
        server.start()
        self.closers.append(server.stop)
        return server

    def _client(self, server):
        client = TcpClientTransport(*server.address[:2])
        self.closers.insert(0, client.close)
        return client

    def subjects(self, calls):
        """``(method, column) -> timed call`` for every timed column."""
        loop_clock = thread_clock(self.gateway)
        inline_clock = thread_clock(self.inline)
        subjects = {}
        for method, ingress, envelope, op, egress, reply in self.kinds:
            sent = {"bridged": ingress, "direct": egress, "inline": ingress}
            for name, request in sent.items():
                subjects[method, name] = repeat(
                    self.clients[name].call, request, calls)
            subjects[method, "transcode"] = repeat(
                lambda data, op=op, envelope=envelope: transcode_request(
                    op, data, envelope, MarshalBuffer()), ingress, calls)
            subjects[method, "translate"] = repeat(
                lambda data, op=op, ctx=envelope.ctx: translate_reply(
                    op, data, ctx, MarshalBuffer()), reply, calls)
            subjects[method, "loop cpu"] = repeat(
                self.clients["bridged"].call, ingress, calls, loop_clock)
            subjects[method, "inline cpu"] = repeat(
                self.clients["inline"].call, ingress, calls, inline_clock)
        return subjects

    def close(self):
        for close in self.closers:
            close()


def thread_clock(server):
    """The CPU clock of *server*'s event-loop thread."""
    return time.pthread_getcpuclockid(server._thread.ident)


def repeat(call, argument, calls, clock=None):
    """``call(argument)`` *calls* times: microseconds per call, of wall
    time or of *clock*'s."""
    read = perf_counter if clock is None else (
        lambda: time.clock_gettime(clock))

    def run():
        started = read()
        for _ in range(calls):
            call(argument)
        return (read() - started) / calls * 1e6

    return run


def timed(rounds, calls):
    bridge = Bridge()
    try:
        subjects = bridge.subjects(calls)
        best = dict.fromkeys(subjects, float("inf"))
        for run in subjects.values():
            run()
        for _ in range(rounds):
            for key, run in subjects.items():
                best[key] = min(best[key], run())
    finally:
        bridge.close()
    print("%-12s" % "us per call"
          + "".join("%11s" % column for column in COLUMNS))
    for method, _size in MIX:
        best[method, "hop"] = best[method, "bridged"] \
            - best[method, "direct"]
        print("%-12s" % method + "".join(
            "%11.1f" % best[method, column] for column in COLUMNS))
    return 0


class Counter:
    """Tasks, coroutine entries, egress walks, fallback transcodes and
    copy-plan compiles on one loop thread, and every channel's compiles
    wherever they ran."""

    def __init__(self, egress_protocol):
        self.egress = egress_protocol
        self.thread = None  # the loop thread, once installed
        self._frames = {}  # id -> frame: a coroutine counted once
        self.channels = collections.Counter()  # name -> compiles
        self.reset()

    def reset(self):
        self.tasks = self.coroutines = self.walks = self.fallbacks = 0
        self.compiles = 0
        self._frames.clear()

    def profile(self, frame, event, _arg):
        if event == "call" and frame.f_code.co_flags & inspect.CO_COROUTINE \
                and self._frames.get(id(frame)) is not frame:
            self._frames[id(frame)] = frame
            self.coroutines += 1

    def task_factory(self, loop, coro, **kwargs):
        self.tasks += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    def install(self, loop):
        """Count on *loop*'s thread from its next turn on."""
        installed = threading.Event()

        def on_loop():
            self.thread = threading.current_thread()
            loop.set_task_factory(self.task_factory)
            sys.setprofile(self.profile)
            installed.set()

        loop.call_soon_threadsafe(on_loop)
        installed.wait(5)

    def uninstall(self, loop):
        done = threading.Event()

        def on_loop():
            sys.setprofile(None)
            loop.set_task_factory(None)
            done.set()

        loop.call_soon_threadsafe(on_loop)
        done.wait(5)

    def walking(self, factory):
        """*factory* (``envelopes.locator`` ...) whose walks count when
        they read the egress protocol on the loop thread."""

        def counted(protocol, *key):
            walk = factory(protocol, *key)
            if protocol != self.egress:
                return walk

            def run(*args):
                if threading.current_thread() is self.thread:
                    self.walks += 1
                return walk(*args)

            return run

        return counted

    def compiling(self, compile_copy):
        """*compile_copy*, whose compiles count by channel, and as
        steady-state compiles on the loop thread."""

        def counted(segments, name):
            self.channels[name] += 1
            if threading.current_thread() is self.thread:
                self.compiles += 1
            return compile_copy(segments, name)

        return counted

    def transcoding(self, step):
        """*step* (``transcode_request`` or ``translate_reply``), whose
        calls count when they fall back on the loop thread."""

        def counted(*args):
            fused = step(*args)
            if not fused and threading.current_thread() is self.thread:
                self.fallbacks += 1
            return fused

        return counted


def check():
    """Tasks, coroutines, egress walks and fallback transcodes per
    bridged call; 0 when no Task, no coroutine and no fallback ran."""
    counter = Counter("oncrpc")
    for name in ("locator", "reader", "router"):
        if hasattr(envelopes, name):
            setattr(envelopes, name, counter.walking(getattr(envelopes,
                                                             name)))
    for name in ("transcode_request", "translate_reply"):
        setattr(proxy, name, counter.transcoding(getattr(proxy, name)))
    plan.compile_copy = counter.compiling(plan.compile_copy)
    bridge = Bridge()
    try:
        client = bridge.clients["bridged"]
        requests = [kind[1] for kind in bridge.kinds]
        for request in requests * 2:  # dial and warm up, uncounted
            client.call(request)
        loop = bridge.gateway._loop
        counter.install(loop)
        counter.reset()
        for position in range(CHECK_CALLS):
            client.call(requests[position % len(requests)])
        counter.uninstall(loop)
    finally:
        bridge.close()
    tasks, coroutines, walks, fallbacks, compiles = (
        count / CHECK_CALLS for count in (
            counter.tasks, counter.coroutines, counter.walks,
            counter.fallbacks, counter.compiles))
    print("per bridged two-way call: %g Tasks, %g coroutines, "
          "%g egress envelope walks, %g fallback transcodes, "
          "%g copy-plan compiles"
          % (tasks, coroutines, walks, fallbacks, compiles))
    most = max(counter.channels.values(), default=0)
    print("over the run: %d fused channels compiled, at most %d times each "
          "(%s)" % (len(counter.channels), most,
                    ", ".join(sorted(counter.channels))))
    return 0 if tasks == coroutines == fallbacks == compiles == 0 \
        and most <= 1 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--calls", type=int, default=CALLS,
                        help="calls per kind and column in one round")
    parser.add_argument("--check", action="store_true",
                        help="count Tasks, coroutines, egress walks, "
                        "fallback transcodes and copy-plan compiles per "
                        "call; time nothing")
    options = parser.parse_args()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if options.check:
        return check()
    return timed(options.rounds, options.calls)


if __name__ == "__main__":
    sys.exit(main())
