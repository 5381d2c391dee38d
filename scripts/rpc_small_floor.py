"""Where a small blocking call's time goes: the floor under ``rpc_small``.

    PYTHONPATH=src python scripts/rpc_small_floor.py [--rounds 15]

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
"""

import argparse
import os
import pathlib
import socket
import struct
import sys
import threading
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import contract  # noqa: E402
from repro import api  # noqa: E402
from repro.runtime import StubServer, TcpClientTransport, Transport  # noqa: E402

CALLS = 4000


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


def timed(call):
    started = perf_counter()
    for _ in range(CALLS):
        call()
    return (perf_counter() - started) / CALLS * 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    rounds = parser.parse_args().rounds
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ints = list(range(16))  # 64 bytes, rpc_small's put_ints
    subjects, closers = {}, []
    for protocol in ("onc", "iiop"):
        backend, _family = contract.PROTOCOLS[protocol]
        module = api.compile(contract.schema_text("ledger.idl"),
                             name="ledger.idl", backend=backend).module
        stub_server = StubServer(module, contract.Servant())
        server = stub_server.tcp_server().start()
        transport = TcpClientTransport(*server.address)
        closers += [transport.close, server.stop]
        client_class = getattr(module, contract.PREFIX + "LedgerClient")
        sizing = Sizing(stub_server)
        client_class(sizing).ping(7)
        client_class(sizing).put_ints(ints)
        for (op, args), (request_size, reply_size) in zip(
                (("ping", (7,)), ("put_ints", (ints,))), sizing.sizes):
            for recvs in (1, 2):
                pingpong = PingPong(request_size, reply_size, recvs)
                closers.append(pingpong.close)
                subjects[protocol, op, "pingpong/%d" % recvs] = pingpong.call
            for name, via in (("in-process", InProcess(stub_server)),
                              ("tcp", transport)):
                method = getattr(client_class(via), op)
                subjects[protocol, op, name] = \
                    lambda method=method, args=args: method(*args)
    best = dict.fromkeys(subjects, float("inf"))
    for call in subjects.values():
        for _ in range(500):
            call()
    for _ in range(rounds):
        for key, call in subjects.items():
            best[key] = min(best[key], timed(call))
    for close in closers:
        close()
    columns = ("pingpong/2", "pingpong/1", "in-process", "tcp")
    print("%-16s" % "us per call" + "".join("%12s" % c for c in columns)
          + "%12s" % "transport")
    for protocol in ("onc", "iiop"):
        for op in ("ping", "put_ints"):
            row = [best[protocol, op, column] for column in columns]
            print("%-16s" % ("%s %s" % (protocol, op))
                  + "".join("%12.2f" % value for value in row)
                  + "%12.2f" % (row[3] - row[1] - row[2]))


if __name__ == "__main__":
    main()
