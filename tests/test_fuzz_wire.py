"""Fuzz harness: hostile byte streams against the hardened servers.

The invariant under test, everywhere: a server presented with arbitrary
bytes either answers with a *protocol-valid* reply (usually an error
reply — ONC RPC MSG_ACCEPTED/MSG_DENIED, GIOP Reply/MessageError) or
refuses the frame cleanly — ``RuntimeFlickError`` from the in-process
server, a clean close from the socket servers.  No uncaught exceptions,
no hangs, and the server keeps serving well-formed requests afterwards.
Mach 3 and Fluke have no error reply on the wire, so there every
hostile frame ends in the clean refusal or in a well-formed reply.

Volume: by default the random and mutation fuzzers push >= 100k frames
through the four protocol dispatches combined (fast: the whole module
runs in a few seconds).  Tune with::

    FLICK_FUZZ_FRAMES=2000 FLICK_FUZZ_SEED=7 pytest tests/test_fuzz_wire.py

Frames that fail are printed as hex so they can be added to the
regression corpus in ``tests/corpus/`` (see its README).
"""

from __future__ import annotations

import contextlib
import os
import socket
import struct

import pytest

from repro.encoding import MarshalBuffer
from repro.errors import RuntimeFlickError, TransportError
from repro.gateway import AioGatewayServer, build_plan
from repro.gateway.envelope import parse_request
from repro.runtime import ServerStats, StubServer, operation_names
from repro.runtime.framing import encode_record
from repro.runtime.request import RequestCore
from tests.rawsock import recv_record

from tests.conftest import MailImpl, compile_db, compile_mail, top_rows

FUZZ_SEED = int(os.environ.get("FLICK_FUZZ_SEED", "20260806"))

#: Frames per fuzzer run; 2 runs (random, mutation) per protocol meet
#: the >= 50k acceptance floor for onc + giop and again for mach3 + fluke
#: at the default.
FUZZ_FRAMES = int(os.environ.get("FLICK_FUZZ_FRAMES", "13000"))

#: Random plus mutated frames per protocol that every live driver is
#: compared against the request core on (each costs a socket round trip
#: per driver, so this does not scale with FLICK_FUZZ_FRAMES).
DIFF_FRAMES = int(os.environ.get("FLICK_DIFF_FRAMES", "2000"))

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


class DbImpl:
    """Reference servant for the DB test program."""

    def lookup(self, name):
        return (0, None)

    def store(self, e):
        return 1

    def echo(self, data):
        return bytes(data)

    def rev(self, xs):
        return list(xs)[::-1]

    def count(self):
        return 7


@pytest.fixture(scope="module")
def onc_module():
    return compile_db().module


@pytest.fixture(scope="module")
def iiop_module():
    return compile_mail("iiop").module


def _make_server(protocol, onc_module, iiop_module):
    if protocol == "onc":
        return StubServer(onc_module, DbImpl())
    if protocol == "giop":
        return StubServer(iiop_module, MailImpl(iiop_module))
    # mach3, fluke: the Mail interface again.  Neither can word a
    # servant crash on the wire, so the exception itself would come out
    # of serve_bytes: MailImpl's avg([]) must not crash here.
    module = compile_mail(protocol).module
    impl = MailImpl(module)
    impl.avg = len
    return StubServer(module, impl)


def _capture_requests(module, calls):
    """The raw request bytes each of *calls* puts on the wire."""

    class Capture:
        last = None

        def call(self, request):
            self.last = bytes(request)
            raise TransportError("captured")

        def send(self, request):
            self.last = bytes(request)

        def close(self):
            pass

    transport = Capture()
    client_class = next(
        getattr(module, name) for name in dir(module)
        if name.endswith("Client")
    )
    client = client_class(transport)
    requests = []
    for operation, args in calls:
        try:
            getattr(client, operation)(*args)
        except TransportError:
            pass
        requests.append(transport.last)
    return requests


def _seed_requests(protocol, onc_module, iiop_module):
    """Well-formed requests; the last is a two-way call without
    arguments, whose handler decodes nothing — only the header walk
    stands between a lying length field and the servant."""
    if protocol == "onc":
        return _capture_requests(onc_module, [
            ("echo", (b"hello world",)),
            ("rev", ([1, 2, 3, 4, 5],)),
            ("lookup", ("a name",)),
            ("count", ()),
        ])
    if protocol != "giop":
        iiop_module = compile_mail(protocol).module
    return _capture_requests(iiop_module, [
        ("avg", ([1, 2, 3],)),
        ("reverse", (b"abcdef",)),
        ("ping", (7,)),
        ("_get_counter", ()),
    ])


# ---------------------------------------------------------------------------
# Reply validation: "protocol-valid" made precise.
# ---------------------------------------------------------------------------

def assert_valid_onc_reply(frame, reply):
    """*reply* must be a well-formed RFC 1831 reply message."""
    assert len(reply) >= 12, "reply shorter than an ONC reply header"
    xid, mtype, reply_stat = struct.unpack_from(">III", reply, 0)
    assert mtype == 1, "reply must carry msg_type REPLY"
    assert reply_stat in (0, 1), "reply_stat must be ACCEPTED or DENIED"
    if len(frame) >= 4:
        assert xid == struct.unpack_from(">I", frame, 0)[0], \
            "reply must echo the request XID"
    if reply_stat == 0:
        # MSG_ACCEPTED: opaque verifier, then an accept_stat.
        flavor, length = struct.unpack_from(">II", reply, 12)
        assert length <= 400
        offset = 20 + length + (-length % 4)
        (accept_stat,) = struct.unpack_from(">I", reply, offset)
        assert accept_stat in (0, 1, 2, 3, 4, 5)
        if accept_stat == 2:  # PROG_MISMATCH carries low/high versions
            low, high = struct.unpack_from(">II", reply, offset + 4)
            assert low <= high
    else:
        # MSG_DENIED: RPC_MISMATCH (with low/high) or AUTH_ERROR.
        (reject_stat,) = struct.unpack_from(">I", reply, 12)
        assert reject_stat in (0, 1)
        if reject_stat == 0:
            low, high = struct.unpack_from(">II", reply, 16)
            assert low <= high


def assert_valid_giop_reply(frame, reply):
    """*reply* must be a well-formed GIOP Reply or MessageError."""
    assert len(reply) >= 12, "reply shorter than a GIOP header"
    assert reply[:4] == b"GIOP"
    assert reply[4] == 1  # GIOP 1.x
    message_type = reply[7]
    assert message_type in (1, 6), "server answers Reply or MessageError"
    order = "<" if reply[6] else ">"
    (size,) = struct.unpack_from(order + "I", reply, 8)
    assert size == len(reply) - 12, "declared size must match the body"


def assert_valid_mach3_reply(frame, reply):
    """*reply* must be a well-formed Mach message answering *frame*."""
    assert len(reply) >= 20, "reply shorter than a mach_msg_header_t"
    size, reply_id = struct.unpack_from("<I8xI", reply, 4)
    assert size == len(reply), "msgh_size must match the message"
    assert reply_id == struct.unpack_from("<I", frame, 16)[0] + 100, \
        "reply msgh_id must be the request's + 100"


def assert_valid_fluke_reply(frame, reply):
    """Fluke replies carry no header: the kernel pairs them."""


VALIDATORS = {"onc": assert_valid_onc_reply, "giop": assert_valid_giop_reply,
              "mach3": assert_valid_mach3_reply,
              "fluke": assert_valid_fluke_reply}


def drive(server, validator, frames):
    """Feed *frames*; enforce the reply-or-clean-refusal invariant.

    Returns (replied, refused) counts.  Any other exception is a finding:
    the offending frame is printed as hex for the corpus.
    """
    replied = refused = 0
    for frame in frames:
        try:
            reply = server.serve_bytes(frame)
        except RuntimeFlickError as error:
            # The clean-close path — taken because the frame cannot be
            # answered, never because the error encoder itself broke
            # (the request core contains that, so look here).
            try:
                assert not server.error_encoder(
                    frame, error, MarshalBuffer())
            except Exception as broken:
                pytest.fail(
                    "error encoder %s: %s on frame %s"
                    % (type(broken).__name__, broken, bytes(frame).hex())
                )
            refused += 1
            continue
        except Exception as error:
            pytest.fail(
                "uncaught %s: %s on frame %s"
                % (type(error).__name__, error, bytes(frame).hex())
            )
        if reply is not None:
            validator(frame, reply)
            replied += 1
        else:
            refused += 1  # oneway or deliberately unanswered
    return replied, refused


def mutate(rng, seeds):
    """One mutation of a random seed frame (truncate/flip/splice/...)."""
    frame = bytearray(rng.choice(seeds))
    choice = rng.randrange(6)
    if choice == 0 and len(frame) > 1:  # truncate
        del frame[rng.randrange(1, len(frame)):]
    elif choice == 1:  # flip a random bit
        index = rng.randrange(len(frame))
        frame[index] ^= 1 << rng.randrange(8)
    elif choice == 2:  # overwrite a word with an extreme value
        index = rng.randrange(max(1, len(frame) - 3))
        frame[index:index + 4] = struct.pack(
            ">I", rng.choice((0, 1, 0x7FFFFFFF, 0xFFFFFFFF))
        )
    elif choice == 3:  # extend with random tail bytes
        frame.extend(rng.randbytes(rng.randrange(1, 32)))
    elif choice == 4:  # splice two seeds together
        other = rng.choice(seeds)
        cut = rng.randrange(1, len(frame))
        frame = frame[:cut] + other[rng.randrange(len(other)):]
    else:  # duplicate a slice in place
        start = rng.randrange(len(frame))
        end = min(len(frame), start + rng.randrange(1, 16))
        frame[start:start] = frame[start:end]
    return bytes(frame)


@pytest.mark.parametrize("protocol", ["onc", "giop", "mach3", "fluke"])
class TestFuzzInProcess:
    def test_random_frames(self, protocol, onc_module, iiop_module):
        """Pure random bytes: reply-or-refuse, nothing else."""
        import random

        rng = random.Random(FUZZ_SEED)
        server = _make_server(protocol, onc_module, iiop_module)
        frames = [
            rng.randbytes(rng.randrange(0, 160))
            for _ in range(FUZZ_FRAMES)
        ]
        replied, refused = drive(server, VALIDATORS[protocol], frames)
        assert replied + refused == FUZZ_FRAMES

    def test_mutated_frames(self, protocol, onc_module, iiop_module):
        """Mutations of real requests — much deeper dispatch coverage."""
        import random

        rng = random.Random(FUZZ_SEED + 1)
        server = _make_server(protocol, onc_module, iiop_module)
        seeds = _seed_requests(protocol, onc_module, iiop_module)
        frames = [mutate(rng, seeds) for _ in range(FUZZ_FRAMES)]
        replied, refused = drive(server, VALIDATORS[protocol], frames)
        assert replied + refused == FUZZ_FRAMES
        # Mutated well-formed requests must overwhelmingly be answered
        # in-protocol (a single flipped bit rarely breaks the header).
        # Not so on Mach 3, whose header states the frame's length and
        # which, like Fluke, has only the refusal for a bad frame.
        if protocol in ("onc", "giop"):
            assert replied > FUZZ_FRAMES // 4
        assert replied > 0

    def test_server_survives_and_serves(self, protocol, onc_module,
                                        iiop_module):
        """After a fuzz barrage the same server still works."""
        import random

        rng = random.Random(FUZZ_SEED + 2)
        server = _make_server(protocol, onc_module, iiop_module)
        seeds = _seed_requests(protocol, onc_module, iiop_module)
        drive(server, VALIDATORS[protocol],
              [mutate(rng, seeds) for _ in range(2000)])
        reply = server.serve_bytes(seeds[0])
        assert reply is not None
        VALIDATORS[protocol](seeds[0], reply)


def _load_corpus(prefix):
    frames = []
    for name in sorted(os.listdir(CORPUS_DIR)):
        if name.startswith(prefix) and name.endswith(".hex"):
            with open(os.path.join(CORPUS_DIR, name)) as handle:
                frames.append((name, bytes.fromhex(handle.read().strip())))
    assert frames, "corpus is missing for %r" % prefix
    return frames


class TestCorpusReplay:
    """Every committed hostile frame stays fixed (see corpus/README.md)."""

    @pytest.mark.parametrize("protocol", ["onc", "giop", "mach3", "fluke"])
    def test_replay(self, protocol, onc_module, iiop_module):
        server = _make_server(protocol, onc_module, iiop_module)
        seeds = _seed_requests(protocol, onc_module, iiop_module)
        for name, frame in _load_corpus(protocol + "_"):
            try:
                reply = server.serve_bytes(frame)
            except RuntimeFlickError:
                reply = None  # clean refusal
            except Exception as error:
                pytest.fail("corpus %s: uncaught %s: %s"
                            % (name, type(error).__name__, error))
            if reply is not None:
                VALIDATORS[protocol](frame, reply)
            # The frame must not poison the server for later requests.
            good = server.serve_bytes(seeds[0])
            assert good is not None, "server dead after corpus %s" % name


# ---------------------------------------------------------------------------
# Live sockets: reply or *clean close*, and the server survives.
# ---------------------------------------------------------------------------

def _exchange(address, frame, timeout=5.0):
    """Send one framed record; returns ("reply", bytes) or ("close", None)."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        sock.sendall(encode_record(frame))
        try:
            return "reply", recv_record(sock)
        except TransportError:
            return "close", None  # clean EOF — never a hang
    finally:
        sock.close()


@pytest.mark.parametrize("runtime", ["blocking", "aio"])
@pytest.mark.parametrize("protocol", ["onc", "giop"])
class TestFuzzLiveTcp:
    def test_hostile_frames_over_tcp(self, protocol, runtime, onc_module,
                                     iiop_module):
        """A modest barrage over real sockets: each hostile frame gets a
        protocol-valid reply or a clean close, and a well-formed request
        afterwards is still served."""
        import random

        rng = random.Random(FUZZ_SEED + 3)
        stub_server = _make_server(protocol, onc_module, iiop_module)
        # Two-way seeds only: a mutated oneway that still decodes is
        # correctly served with *no* reply, which this socket-level
        # prober cannot tell apart from a hang.
        seeds = _seed_requests(protocol, onc_module, iiop_module)[:2]
        hostile = [mutate(rng, seeds) for _ in range(60)]
        hostile += [rng.randbytes(rng.randrange(1, 80)) for _ in range(20)]
        server = (stub_server.tcp_server() if runtime == "blocking"
                  else stub_server.aio_server())
        with server:
            for frame in hostile:
                kind, reply = _exchange(server.address, frame)
                if kind == "reply":
                    VALIDATORS[protocol](frame, reply)
            kind, reply = _exchange(server.address, seeds[0])
            assert kind == "reply", "server no longer answers valid requests"
            VALIDATORS[protocol](seeds[0], reply)


# ---------------------------------------------------------------------------
# Every live driver against the request core, frame by frame.
# ---------------------------------------------------------------------------

class _TcpProbe:
    """One reused raw connection; redials after the server closes it."""

    def __init__(self, address):
        self._address = address[:2]
        self._sock = None

    def send(self, frame):
        if self._sock is None:
            self._sock = socket.create_connection(self._address, timeout=5.0)
        self._sock.sendall(encode_record(frame))

    def reply(self):
        return recv_record(self._sock)

    def closed(self):
        """True when the next thing on the wire is a clean EOF."""
        try:
            extra = recv_record(self._sock)
        except TransportError:
            self.close()
            return True
        pytest.fail("expected a close, got a record: %s" % extra.hex())

    def close(self):
        if self._sock is not None:
            self._sock.close()
            self._sock = None


class _UdpProbe:
    """Datagrams have no connection to close: never ``closed()``."""

    def __init__(self, address):
        self._address = address[:2]
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.settimeout(5.0)

    def send(self, frame):
        self._sock.sendto(frame, self._address)

    def reply(self):
        return self._sock.recvfrom(65536)[0]

    def close(self):
        self._sock.close()


_LIVE_DRIVERS = {
    "tcp": lambda server, **kw: server.tcp_server(**kw),
    "udp": lambda server, **kw: server.udp_server(**kw),
    "aio-inline": lambda server, **kw: server.aio_server(
        dispatch_mode="inline", **kw),
    "aio-thread": lambda server, **kw: server.aio_server(
        dispatch_mode="thread", **kw),
}


def _crash_on_zero(xs):
    """A servant bug for the DB program: ``rev`` of a list holding 0."""
    return [1 // x for x in xs]


def _counts(stats):
    """What the request core counts, minus latency: the two failure
    classes, and the failed requests per operation."""
    return (
        stats.malformed.value, stats.servant_errors.value,
        {op: row["errors"] for op, row in top_rows(stats).items()
         if row["errors"]},
    )


@pytest.mark.parametrize("driver", sorted(_LIVE_DRIVERS))
@pytest.mark.parametrize("protocol", ["onc", "giop"])
class TestDriversMatchCore:
    def test_live_driver_answers_what_the_core_answers(
            self, protocol, driver, onc_module, iiop_module):
        """Corpus, random and mutated frames: the bytes a live driver
        sends back — or its close, or its silence — are what
        :class:`RequestCore` settles on in-process for the same frame,
        and both end at the same failure counts."""
        import random

        rng = random.Random(FUZZ_SEED + 5)
        stub_server = _make_server(protocol, onc_module, iiop_module)
        if protocol == "onc":  # MailImpl has a crash of its own: avg([])
            stub_server.impl.rev = _crash_on_zero
        seeds = _seed_requests(protocol, onc_module, iiop_module)
        frames = [frame for _name, frame in _load_corpus(protocol + "_")]
        # One certain servant crash; the mutations may or may not hit one.
        frames += _capture_requests(stub_server.module, [
            ("rev", ([0],)) if protocol == "onc" else ("avg", ([],))])
        frames += [rng.randbytes(rng.randrange(0, 160))
                   for _ in range(DIFF_FRAMES // 2)]
        frames += [mutate(rng, seeds) for _ in range(DIFF_FRAMES // 2)]

        module = stub_server.module
        core_stats = ServerStats()
        core = RequestCore(
            module.dispatch, stub_server.impl, stats=core_stats,
            op_names=operation_names(module),
            error_encoder=module.encode_error_reply)
        buffer = MarshalBuffer()

        def settle(frame):
            ticket = core.begin(frame)
            has_reply, keep_open, _error = core.serve(frame, buffer, ticket)
            core.end(ticket)
            return (buffer.getvalue() if has_reply else None), keep_open

        # A well-formed two-way call: its reply arriving next proves the
        # frame before it was met with silence on an open connection.
        sentinel = seeds[0]
        sentinel_reply, _ = settle(sentinel)
        expected = [settle(frame) for frame in frames]
        # The mix holds every class of outcome: answered (True, True),
        # unanswerable (False, False), servant crash (True, False) and —
        # GIOP only, the DB program has no oneway — silence (False, True).
        classes = {(reply is not None, keep) for reply, keep in expected}
        assert classes == {(True, True), (False, False), (True, False)} \
            | ({(False, True)} if protocol == "giop" else set())

        live_stats = ServerStats()
        with _LIVE_DRIVERS[driver](stub_server, stats=live_stats) as server:
            probe = (_UdpProbe if driver == "udp" else _TcpProbe)(
                server.address)
            try:
                for frame, (reply, keep_open) in zip(frames, expected):
                    where = "on frame %s" % frame.hex()
                    probe.send(frame)
                    if reply is not None:
                        assert probe.reply() == reply, where
                    if driver != "udp" and not keep_open:
                        assert probe.closed(), where
                    elif reply is None:
                        probe.send(sentinel)
                        assert probe.reply() == sentinel_reply, where
                probe.send(sentinel)
                assert probe.reply() == sentinel_reply
            finally:
                probe.close()
        assert _counts(live_stats) == _counts(core_stats)


# ---------------------------------------------------------------------------
# The protocol gateway: hostile ingress, never a malformed egress frame.
# ---------------------------------------------------------------------------

_GATEWAY_BACKENDS = {"onc": "oncrpc-xdr", "giop": "iiop"}


class _ValidatingUpstreamTransport:
    """Wraps the gateway's upstream leg; every forwarded payload must be
    a well-formed egress-protocol request with a decodable body."""

    def __init__(self, inner, validate):
        self._inner = inner
        self._validate = validate
        self.forwarded = 0
        self.acquire = inner.acquire

    def submit(self, connection, wire_id, payload, on_reply):
        self._validate(payload)
        self.forwarded += 1
        self._inner.submit(connection, wire_id, payload, on_reply)

    def send(self, connection, payload):
        self._validate(payload)
        self.forwarded += 1
        self._inner.send(connection, payload)

    async def aclose(self):
        await self._inner.aclose()


@contextlib.contextmanager
def _gateway_pair(ingress_protocol):
    """A live gateway plus the findings list of malformed egress frames."""
    egress_protocol = "onc" if ingress_protocol == "giop" else "giop"
    ingress_result = compile_mail(_GATEWAY_BACKENDS[ingress_protocol])
    egress_result = compile_mail(_GATEWAY_BACKENDS[egress_protocol])
    egress_module = egress_result.module
    upstream = StubServer(egress_module,
                          MailImpl(egress_module)).tcp_server()
    malformed = []
    with upstream:
        plan = build_plan(ingress_result, egress_result)
        # The egress side's own ingress spec doubles as a validator
        # spec for the frames the gateway emits.
        egress_spec = build_plan(egress_result,
                                 ingress_result).ingress_spec
        names = operation_names(egress_module)

        def validate(payload):
            try:
                envelope = parse_request(bytes(payload), egress_spec)
                decoder = getattr(
                    egress_module,
                    "_u_req_%s" % names.get(envelope.op_key), None)
                if decoder is not None:
                    decoder(bytes(payload), envelope.body_offset)
            except Exception as error:
                malformed.append(
                    (type(error).__name__, str(error),
                     bytes(payload).hex()))

        gateway = AioGatewayServer(
            plan, upstream.address[0], upstream.address[1])
        gateway._upstream = _ValidatingUpstreamTransport(
            gateway._upstream, validate)
        with gateway:
            yield gateway, malformed


def _gateway_seeds(ingress_protocol):
    """Two-way ingress requests (oneways can't be probed over sockets)."""
    module = compile_mail(_GATEWAY_BACKENDS[ingress_protocol]).module
    return _capture_requests(module, [
        ("avg", ([1, 2, 3],)),
        ("reverse", (b"abcdef",)),
    ])


@pytest.mark.parametrize("ingress", ["onc", "giop"])
class TestFuzzGateway:
    def test_hostile_ingress_never_produces_malformed_egress(
            self, ingress):
        """Every hostile ingress frame is answered with a
        protocol-valid ingress reply or a clean close, and whatever the
        gateway does forward upstream is a well-formed egress request."""
        import random

        rng = random.Random(FUZZ_SEED + 4)
        seeds = _gateway_seeds(ingress)
        hostile = [mutate(rng, seeds) for _ in range(120)]
        hostile += [rng.randbytes(rng.randrange(1, 80)) for _ in range(30)]
        with _gateway_pair(ingress) as (gateway, malformed):
            for frame in hostile:
                kind, reply = _exchange(gateway.address, frame)
                if kind == "reply":
                    VALIDATORS[ingress](frame, reply)
            # The barrage must not poison the bridge.
            kind, reply = _exchange(gateway.address, seeds[0])
            assert kind == "reply", "gateway no longer bridges requests"
            VALIDATORS[ingress](seeds[0], reply)
            forwarded = gateway._upstream.forwarded
        assert forwarded > 0, "the validator never saw an egress frame"
        assert not malformed, (
            "gateway emitted malformed egress frames: %r" % malformed[:3])

    def test_gateway_corpus_replay(self, ingress):
        """Committed hostile gateway frames stay fixed (corpus/README)."""
        frames = _load_corpus("gateway_%s_" % ingress)
        seeds = _gateway_seeds(ingress)
        with _gateway_pair(ingress) as (gateway, malformed):
            for name, frame in frames:
                kind, reply = _exchange(gateway.address, frame)
                if kind == "reply":
                    VALIDATORS[ingress](frame, reply)
                # The frame must not poison the bridge for later calls.
                kind, reply = _exchange(gateway.address, seeds[0])
                assert kind == "reply", \
                    "gateway dead after corpus %s" % name
        assert not malformed, (
            "corpus frame produced malformed egress: %r" % malformed[:3])
