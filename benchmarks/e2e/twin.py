"""Hand-written twins of the workloads: the benchmark's yardstick.

The hosts this benchmark runs on are small shared virtual machines
whose speed shifts by 20-50 % for seconds to minutes at a time (a
pure-Python spin loop shows it; loopback system calls swing further than
arithmetic does).  Whole runs land in different states, so no statistic
over one run's own samples repeats.  Instead every workload interleaves
its ops with a *twin*: a fixed piece of standard-library code, written
by hand and importing nothing from ``repro``, that does the same kind of
work (the same payload sizes over a loopback TCP connection to a thread,
or compiling and running Python source) a few milliseconds at a time.
The twin's mean op time, measured in the same tenths of a second as the
workload's ops, says how fast the host was just then; dividing it by a
frozen reference gives the segment's *host factor*, and every timing
metric is reported with that factor divided out.

The twin never changes with the code under test, so a change in a
normalised metric is a change in the code, on a quiet host or a noisy
one.  The raw numbers and the factors are kept in the result detail.
"""

import itertools
import pathlib
import socket
import struct
import threading
from time import perf_counter_ns

_PUT, _GET = 1, 2


def _recv_exact(sock, size):
    parts = []
    while size:
        chunk = sock.recv(size)
        if not chunk:
            raise EOFError
        parts.append(chunk)
        size -= len(chunk)
    return b"".join(parts)


def _recv_record(sock):
    (size,) = struct.unpack(">I", _recv_exact(sock, 4))
    return _recv_exact(sock, size)


def _send_record(sock, body):
    sock.sendall(struct.pack(">I", len(body)) + body)


def _ints(words):
    return [(index * 2654435761) & 0x7FFFFFFF for index in range(words)]


class SocketTwin:
    """Length-prefixed request/reply over loopback TCP to one thread.

    *shapes* is a list of ``(direction, words)``: a ``"put"`` packs
    *words* integers, the far thread unpacks them into a list and
    acknowledges; a ``"get"`` asks for *words* integers, the far thread
    packs them and the caller unpacks.  ``run(count)`` cycles through
    the shapes.
    """

    def __init__(self, shapes):
        self._stored = {}
        ops = []
        for direction, words in shapes:
            if direction == "get":
                self._stored[words] = _ints(words)
                ops.append((self._get, words))
            else:
                ops.append((self._put, _ints(words)))
        self._ops = itertools.cycle(ops)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        self._sock = socket.create_connection(
            self._listener.getsockname())
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _serve(self):
        connection, _peer = self._listener.accept()
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                body = _recv_record(connection)
                values = list(struct.unpack(">%di" % (len(body) // 4),
                                            body))
                if values[0] == _GET:
                    reply = self._stored[values[1]]
                    _send_record(connection, struct.pack(
                        ">%di" % len(reply), *reply))
                else:
                    _send_record(connection, body[:4])
        except (EOFError, OSError):
            pass
        finally:
            connection.close()

    def _put(self, values):
        _send_record(self._sock, struct.pack(
            ">%di" % (len(values) + 1), _PUT, *values))
        _recv_record(self._sock)

    def _get(self, words):
        _send_record(self._sock, struct.pack(">2i", _GET, words))
        body = _recv_record(self._sock)
        return list(struct.unpack(">%di" % (len(body) // 4), body))

    def run(self, count):
        """Do *count* twin ops; returns the nanoseconds they took."""
        started = perf_counter_ns()
        for _ in range(count):
            op, argument = next(self._ops)
            op(argument)
        return perf_counter_ns() - started

    def close(self):
        self._sock.close()
        self._listener.close()
        self._thread.join(timeout=5.0)


class CompileTwin:
    """Compile and run hand-written Python source, then use it.

    One op compiles and executes this directory's ``reference.py`` (a
    frozen, hand-written file) a few times and encodes a small directory
    listing with it: parsing, object allocation, string and ``struct``
    work — what a compiler written in Python does, and nothing the
    compiler under test provides.
    """

    REPEATS = 4

    def __init__(self):
        self._source = (pathlib.Path(__file__).resolve().parent
                        / "reference.py").read_text()
        self._entries = [("entry-%d" % index, tuple(range(30)), b"t" * 16)
                         for index in range(40)]

    def run(self, count):
        started = perf_counter_ns()
        for _ in range(count * self.REPEATS):
            namespace = {}
            exec(compile(self._source, "<twin>", "exec"), namespace)
            namespace["xdr_dirents_body"](self._entries)
            namespace["cdr_dirents_body"](self._entries)
        return perf_counter_ns() - started

    def close(self):
        pass
