"""What every envelope reader makes of a frame, as plain JSON values.

One frame goes through every reader of its direction — the generated
stubs (``dispatch`` + ``encode_error_reply`` by way of ``StubServer``,
``_check_reply`` and the reply decode by way of the client class) and
the module-level readers (``correlation.locate`` / ``route``,
``gateway.envelope.parse_request``, ``propagation.extract``,
``RequestCore.op_key``) — and comes back as a dict of verdicts.

``tests/test_envelopes.py`` pins the corpus against
``tests/golden/envelope_verdicts.json`` with it; regenerate that file
after an intended change with::

    PYTHONPATH=src python -m tests.envelope_verdicts golden

Given a protocol and a count it writes the verdicts of the corpus plus
seeded random and mutated frames as JSON lines.  The ``onc`` and
``giop`` subjects use public names only, so that mode also runs on a
checkout from before ``repro.envelopes`` existed — the
derived-versus-hand-written table in EXPERIMENTS.md is the difference
between two such runs::

    PYTHONPATH=src python -m tests.envelope_verdicts onc 50000 > new.jsonl
"""

from __future__ import annotations

import json
import os
import random
import sys

from repro import envelopes
from repro.errors import (
    DispatchError, OverloadError, RemoteCallError, TransportError,
    WireFormatError)
from repro.envelopes import write_error
from repro.gateway.envelope import IngressSpec, parse_request
from repro.encoding import MarshalBuffer
from repro.obs import propagation
from repro.runtime import StubServer, operation_names
from repro.runtime.aio.correlation import locate, route
from repro.runtime.request import RequestCore

from tests.conftest import MailImpl, compile_db, compile_mail
from tests.test_fuzz_wire import (
    DbImpl, FUZZ_SEED, _capture_requests, _load_corpus, mutate)

CONTEXT = propagation.WireTraceContext("0123456789abcdef" * 2, "f0" * 8)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "envelope_verdicts.json")


#: Every refusal the stubs' ``encode_error_reply`` words differently.
REFUSALS = [DispatchError("refused", code=code) for code in (
    "rpc_mismatch", "prog_mismatch", "prog_unavail", "proc_unavail",
    "bad_operation", "object_not_exist", "no_permission")] + [
    WireFormatError("bad frame"), OverloadError("shed"),
    RuntimeError("servant crashed")]


class _Counting:
    """A servant proxy that counts the calls reaching the servant."""

    def __init__(self, impl):
        self._impl = impl
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._impl, name)

        def counted(*args):
            self.calls += 1
            return method(*args)

        return counted


class Subject:
    """One protocol's stub module, servant and gateway ingress spec."""

    def __init__(self, protocol):
        self.protocol = protocol
        if protocol == "onc":
            self.module = compile_db().module
            impl = DbImpl()
            self.spec = IngressSpec("oncrpc", program=0x20000099, version=2)
            self.calls = [("echo", (b"hello world",)),
                          ("rev", ([1, 2, 3, 4, 5],)),
                          ("lookup", ("a name",)), ("count", ())]
        else:
            # giop, and the two protocols no frame announces itself as:
            # nothing can sniff them, the gateway does not bridge them.
            self.module = compile_mail(
                "iiop" if protocol == "giop" else protocol).module
            impl = MailImpl(self.module)
            self.spec = IngressSpec("giop", object_key=b"Test::Mail") \
                if protocol == "giop" else None
            self.calls = [("avg", ([1, 2, 3],)), ("reverse", (b"abcdef",)),
                          ("ping", (7,)), ("_get_counter", ())]
        self.impl = _Counting(impl)
        self.server = StubServer(self.module, self.impl)
        self.core = RequestCore(self.module.dispatch, self.impl,
                                op_names=operation_names(self.module))
        self.client_class = next(
            getattr(self.module, name) for name in dir(self.module)
            if name.endswith("Client"))

    def seeds(self):
        """Well-formed requests, plain and carrying a trace context."""
        plain = _capture_requests(self.module, self.calls)
        return plain + [propagation.inject(frame, CONTEXT)
                        for frame in plain]

    def reply_seeds(self):
        """Well-formed replies: one success per two-way seed, every
        reply ``encode_error_reply`` can word, and every error the
        gateway's table can put on this protocol's wire."""
        requests = self.seeds()[:len(self.calls)]
        replies = [reply for reply in map(self.server.serve_bytes, requests)
                   if reply is not None]
        for request, error in [(requests[0], error) for error in REFUSALS] \
                + [(requests[0][:12], REFUSALS[-1])]:  # header unusable
            buffer = MarshalBuffer()
            if self.module.encode_error_reply(request, error, buffer):
                replies.append(buffer.getvalue())
        if self.protocol == "onc":
            mapped = [("oncrpc", code) for code in (
                "RPC_MISMATCH", "AUTH_ERROR", "PROG_UNAVAIL",
                "PROG_MISMATCH", "PROC_UNAVAIL", "GARBAGE_ARGS",
                "SYSTEM_ERR")]
        else:
            mapped = [("giop", "IDL:omg.org/CORBA/%s:1.0" % name, 3, 2)
                      for name in ("MARSHAL", "TRANSIENT", "COMM_FAILURE")]
        for protocol, *arguments in mapped:
            buffer = MarshalBuffer()
            write_error(buffer, protocol, 1, *arguments, versions=(2, 5))
            replies.append(buffer.getvalue())
        return replies

    def corpus(self):
        return list(self.named_corpus().values())

    def named_corpus(self):
        return dict(_load_corpus(self.protocol + "_"))


def _plain(value):
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).decode("latin-1")
    return value


def _refusal(error):
    return ["refuse", type(error).__name__, getattr(error, "code", None)]


def request_verdicts(subject, frame):
    """Every request reader's verdict on *frame*."""
    verdicts = {}
    before = subject.impl.calls
    try:
        reply = subject.server.serve_bytes(frame)
        verdicts["serve"] = ["silent"] if reply is None \
            else ["reply", reply.hex()]
    except Exception as error:
        verdicts["serve"] = _refusal(error)
    verdicts["servant_ran"] = subject.impl.calls - before
    verdicts["op_key"] = str(subject.core.op_key(frame))
    if subject.spec is None:
        return verdicts
    try:
        kind, found = probe(frame)
        op_key, expects_reply = found[2:] if kind[1] == "request" \
            else (None, True)
        verdicts["probe"] = ["ok", kind[0], _KINDS[kind[1]], found[0],
                             found[1], _plain(op_key), expects_reply]
    except Exception as error:
        verdicts["probe"] = ["refuse", type(error).__name__]
    try:
        envelope = parse_request(frame, subject.spec)
        verdicts["parse_request"] = [
            "ok", envelope.ctx, _plain(envelope.op_key),
            envelope.body_offset, envelope.expects_reply]
    except Exception as error:
        verdicts["parse_request"] = _refusal(error)
    try:
        context = propagation.extract(frame)
        verdicts["extract"] = None if context is None \
            else [context.trace_id, context.span_id]
    except Exception as error:
        verdicts["extract"] = ["raise", type(error).__name__]
    return verdicts


_KINDS = {"request": "call", "reply": "reply"}


def probe(frame):
    """``((protocol, direction, byte order), what the locator found)``
    for a frame ``correlation.locate`` finds an id in; refuses what it
    refuses, as it does."""
    locate(frame)
    kind = envelopes.sniff(frame)
    return kind, envelopes.locator(*kind)(frame)


def reply_error(frame):
    """The protocol-level error a reply carries (the third item of
    ``correlation.route``), or None, also for a frame with no id."""
    try:
        return route(frame)[2]
    except TransportError:
        return None


def _remote(error):
    return [error.code, error.minor, error.completed, str(error)]


class _Canned:
    def __init__(self, reply):
        self.reply = reply

    def call(self, request):
        return self.reply


def reply_verdicts(subject, frame):
    """Every reply reader's verdict on *frame*."""
    verdicts = {}
    try:
        kind, found = probe(frame)
        verdicts["probe"] = ["ok", kind[0], _KINDS[kind[1]], found[0],
                             found[1]]
        expected = found[0]
    except Exception as error:
        verdicts["probe"] = ["refuse", type(error).__name__]
        expected = 1
    # The generated client: _check_reply, then the reply decode of the
    # first two-way operation (the client's first call has id 1, so the
    # frame's own id is written over it first).
    client = subject.client_class(_Canned(frame))
    client._id = (expected - 1) & 0xFFFFFFFF
    operation, args = subject.calls[0]
    try:
        getattr(client, operation)(*args)
        verdicts["client"] = ["ok"]
    except RemoteCallError as error:
        verdicts["client"] = ["remote"] + _remote(error)
    except Exception as error:
        verdicts["client"] = _refusal(error)
    try:
        error = reply_error(frame)
        verdicts["reply_error"] = None if error is None else _remote(error)
    except Exception as error:
        verdicts["reply_error"] = ["raise", type(error).__name__]
    return verdicts


def bulk_frames(subject, count, seed=FUZZ_SEED):
    """(direction, frame) pairs: the corpus, then *count* seeded frames
    per direction, half random and half mutations of the seeds."""
    rng = random.Random(seed + 18)
    requests, replies = subject.seeds(), subject.reply_seeds()
    for frame in subject.corpus() + requests:
        yield "request", frame
    for frame in replies:
        yield "reply", frame
    for direction, seeds in (("request", requests), ("reply", replies)):
        for _ in range(count // 2):
            yield direction, rng.randbytes(rng.randrange(0, 160))
        for _ in range(count - count // 2):
            yield direction, mutate(rng, seeds)


def corpus_verdicts():
    """What ``tests/golden/envelope_verdicts.json`` pins: every reader's
    verdict on every corpus frame of the four protocols."""
    return {
        name: request_verdicts(subject, frame)
        for subject in map(Subject, ("onc", "giop", "mach3", "fluke"))
        for name, frame in subject.named_corpus().items()}


def main(argv):
    if argv[1] == "golden":
        with open(GOLDEN, "w") as handle:
            json.dump(corpus_verdicts(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    subject = Subject(argv[1])
    for direction, frame in bulk_frames(subject, int(argv[2])):
        verdicts = (request_verdicts if direction == "request"
                    else reply_verdicts)(subject, frame)
        print(json.dumps({"frame": frame.hex(), "direction": direction,
                          "verdicts": verdicts}, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv)
