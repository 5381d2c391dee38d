"""Where a small blocking call's time goes: the floor under ``rpc_small``.

    PYTHONPATH=src python scripts/rpc_small_floor.py [--rounds 15]
    PYTHONPATH=src python scripts/rpc_small_floor.py --check

Three things are timed in alternation on one pinned CPU, like the
benchmark's ``rpc_small`` (``ping`` and ``put_ints`` of 64 bytes on the
e2e ledger schema, ONC/XDR and IIOP), and the lowest round of each is
printed, in microseconds per call:

* ``pingpong``: a standard-library client and echo thread over loopback
  TCP exchanging messages of the call's sizes — a 4-byte length, then the
  body — read with one ``recv`` per message (``/1``) or, as the blocking
  transport did before PR 17, one for the length and one for the body
  (``/2``).  What the kernel, the two thread hand-offs and the GIL cost;
* ``in-process``: the generated client stub calling
  ``StubServer.serve_bytes`` directly — stub encode, ``RequestCore``,
  dispatch, servant, reply encode, client decode; no socket, no framing;
* ``tcp``: the real call, ``TcpClientTransport`` to ``TcpServer``.

``tcp - pingpong/1 - in-process`` is what ``repro.runtime``'s blocking
transport itself still adds to a call.

The last three columns are the per-call costs the blocking call no
longer pays, each put back on its own into the real call; the
share printed is that call's time minus the one it is compared with:

* ``timeout``: a Python-level timeout on the client socket
  (``settimeout(deadline)``), with which CPython ``poll()``s before
  every ``send`` and ``recv`` — against ``tcp``;
* ``lock``: the server lock taken twice per request, around the core
  call, to keep a set of busy connections — against the same core call
  one Python frame deeper without the lock (the frame the hook costs);
* ``frames``: ``begin`` → ``serve`` → ``end`` as three core calls per
  unobserved request, where ``handle`` is one — against ``tcp``.

``--check`` times nothing: for one blocking ``ping`` per protocol with
tracing and stats off, it exits non-zero unless the client socket has no
Python-level timeout and its ``SO_RCVTIMEO`` is the deadline, the server
takes its lock 0 times per request, and exactly one ``RequestCore``
method runs per request (counted with a profile hook on the server's
threads).  Counts do not depend on the host.
"""

import argparse
import inspect
import os
import pathlib
import socket
import struct
import sys
import threading
import time
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import contract  # noqa: E402
from repro import api  # noqa: E402
from repro.runtime import StubServer, TcpClientTransport, Transport  # noqa: E402
from repro.runtime.request import RequestCore  # noqa: E402

CALLS = 4000
CHECKED_CALLS = 50
DEADLINE = 2.0
TIMEVAL = "@ll"  # struct timeval on Linux


class PingPong:
    """Length-prefixed echo of *request_size* -> *reply_size* bytes."""

    def __init__(self, request_size, reply_size, recvs):
        self._request = struct.pack(">I", request_size) + bytes(request_size)
        self._reply = struct.pack(">I", reply_size) + bytes(reply_size)
        self._read = self._read_twice if recvs == 2 else self._read_once
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        thread = threading.Thread(
            target=self._serve, args=(listener,), daemon=True)
        thread.start()
        self._sock = socket.create_connection(listener.getsockname())
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @staticmethod
    def _read_once(sock):
        return sock.recv(65536)

    @staticmethod
    def _read_twice(sock):
        (size,) = struct.unpack(">I", sock.recv(4) or bytes(4))
        return sock.recv(size)

    def _serve(self, listener):
        connection, _peer = listener.accept()
        listener.close()
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with connection:
            while self._read(connection):
                connection.sendall(self._reply)

    def call(self):
        self._sock.sendall(self._request)
        self._read(self._sock)

    def close(self):
        self._sock.close()


class InProcess(Transport):
    def __init__(self, stub_server):
        self._serve = stub_server.serve_bytes

    def call(self, request):
        return self._serve(request)

    def send(self, request):
        self._serve(request)


class Sizing(InProcess):
    """Also notes each call's request and reply sizes."""

    def __init__(self, stub_server):
        super().__init__(stub_server)
        self.sizes = []

    def call(self, request):
        reply = super().call(request)
        self.sizes.append((len(request), len(reply)))
        return reply


class Deeper:
    """Stands in for a server's request core: ``handle`` one Python
    frame deeper, nothing else."""

    def __init__(self, core):
        self.core = core

    def handle(self, record, buffer, write=None):
        return self.core.handle(record, buffer, write)


class Locked(Deeper):
    """The lock pair a server once took per request to keep ``_busy``."""

    def __init__(self, core):
        super().__init__(core)
        self.lock, self.busy = threading.Lock(), set()

    def handle(self, record, buffer, write=None):
        with self.lock:
            self.busy.add(write)
        try:
            return self.core.handle(record, buffer, write)
        finally:
            with self.lock:
                self.busy.discard(write)


class ThreeFrames(Deeper):
    """``begin``, ``serve`` and ``end`` as three core calls, the write
    between (the unobserved path before ``handle``)."""

    def handle(self, record, buffer, write=None):
        core = self.core
        ticket = core.begin(record)
        served = core.serve(record, buffer, ticket)
        if served[0]:
            write(buffer.view())
        core.end(ticket)
        return served


class CountingLock:
    """A server's lock that counts its acquisitions."""

    def __init__(self, lock):
        self._lock, self.taken = lock, 0

    def acquire(self, *args, **kwargs):
        self.taken += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()


def compiled(protocol):
    backend, _family = contract.PROTOCOLS[protocol]
    module = api.compile(contract.schema_text("ledger.idl"),
                         name="ledger.idl", backend=backend).module
    return module, getattr(module, contract.PREFIX + "LedgerClient")


def check():
    """The three per-call costs, counted; 0 when none is paid."""
    core_code = {function.__code__
                 for function in vars(RequestCore).values()
                 if inspect.isfunction(function)}
    status = 0
    print("%-10s%16s%14s%16s  %s" % ("ping", "gettimeout()", "SO_RCVTIMEO",
                                     "locks/request", "core calls/request"))
    for protocol in ("onc", "iiop"):
        module, client_class = compiled(protocol)
        server = StubServer(module, contract.Servant()).tcp_server()
        server._lock = lock = CountingLock(server._lock)
        entries = []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code in core_code:
                entries.append(frame.f_code.co_name)

        threading.setprofile(profile)  # for the threads started below
        try:
            server.start()
            transport = TcpClientTransport(*server.address, deadline=DEADLINE)
            ping = client_class(transport).ping
            ping(7)  # the connection's worker has started and served once
        finally:
            threading.setprofile(None)
        try:
            sock = transport._sock
            seconds, micros = struct.unpack(TIMEVAL, sock.getsockopt(
                socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                struct.calcsize(TIMEVAL)))
            time.sleep(0.1)  # the worker finishes the request it answered
            taken, entered = lock.taken, len(entries)
            for _ in range(CHECKED_CALLS):
                ping(7)
            time.sleep(0.1)
            locks = (lock.taken - taken) / CHECKED_CALLS
            calls = entries[entered:]
        finally:
            transport.close()
            server.stop()
        timeout, rcvtimeo = sock.gettimeout(), seconds + micros / 1e6
        names = sorted(set(calls))
        print("%-10s%16s%14g%16g  %g (%s)" % (
            protocol, timeout, rcvtimeo, locks, len(calls) / CHECKED_CALLS,
            ", ".join(names)))
        if timeout is not None or rcvtimeo != DEADLINE or locks \
                or len(calls) != CHECKED_CALLS or names != ["handle"]:
            status = 1
    if status:
        print("FAIL: a blocking call polls, locks, or enters the request"
              " core more than once (want None, %g, 0 and 1 (handle))"
              % DEADLINE)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--check", action="store_true",
                        help="count the per-call costs; time nothing")
    options = parser.parse_args()
    if options.check:
        return check()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ints = list(range(16))  # 64 bytes, rpc_small's put_ints
    subjects, closers = {}, []
    for protocol in ("onc", "iiop"):
        module, client_class = compiled(protocol)
        stub_server = StubServer(module, contract.Servant())
        transports = {}
        for name, hook in (("tcp", None), ("+frame", Deeper),
                           ("+lock", Locked), ("+frames", ThreeFrames)):
            server = stub_server.tcp_server()
            if hook is not None:
                server._core = hook(server._core)
            server.start()
            closers.append(server.stop)
            for via in (name, "+timeout") if hook is None else (name,):
                transports[via] = TcpClientTransport(*server.address)
                closers.insert(0, transports[via].close)
        transports["+timeout"]._sock.settimeout(DEADLINE)
        sizing = Sizing(stub_server)
        client_class(sizing).ping(7)
        client_class(sizing).put_ints(ints)
        transports["in-process"] = InProcess(stub_server)
        for (op, args), (request_size, reply_size) in zip(
                (("ping", (7,)), ("put_ints", (ints,))), sizing.sizes):
            for recvs in (1, 2):
                pingpong = PingPong(request_size, reply_size, recvs)
                closers.append(pingpong.close)
                subjects[protocol, op, "pingpong/%d" % recvs] = pingpong.call
            for name, via in transports.items():
                method = getattr(client_class(via), op)
                subjects[protocol, op, name] = \
                    lambda method=method, args=args: method(*args)
    best = dict.fromkeys(subjects, float("inf"))
    for call in subjects.values():
        for _ in range(500):
            call()
    for _ in range(options.rounds):
        for key, call in subjects.items():
            started = perf_counter()
            for _ in range(CALLS):
                call()
            best[key] = min(best[key],
                            (perf_counter() - started) / CALLS * 1e6)
    for close in closers:
        close()
    columns = ("pingpong/2", "pingpong/1", "in-process", "tcp")
    shares = (("timeout", "+timeout", "tcp"), ("lock", "+lock", "+frame"),
              ("frames", "+frames", "tcp"))
    print("%-16s" % "us per call" + "".join("%12s" % c for c in columns)
          + "%12s" % "transport"
          + "".join("%9s" % name for name, _with, _without in shares))
    for protocol in ("onc", "iiop"):
        for op in ("ping", "put_ints"):
            row = [best[protocol, op, column] for column in columns]
            print("%-16s" % ("%s %s" % (protocol, op))
                  + "".join("%12.2f" % value for value in row)
                  + "%12.2f" % (row[3] - row[1] - row[2])
                  + "".join("%9.2f" % (best[protocol, op, with_]
                                       - best[protocol, op, without])
                            for _name, with_, without in shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
