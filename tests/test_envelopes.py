"""One described envelope per protocol: every header walk is derived.

``repro.envelopes`` states each protocol's request and reply envelope
once; the generated stubs inline the printed walk and the module-level
readers (``locate``, ``route``, ``parse_request``, ``extract``,
``RequestCore.op_key``) are the same text exec'd.  These tests pin that
derivation, the three defects the hand-written copies had drifted into,
and — through ``tests/golden/envelope_verdicts.json`` — what every
reader makes of every corpus frame.
"""

from __future__ import annotations

import json
import os
import re
import struct
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro import api, envelopes, errors, obs
from repro.encoding import MarshalBuffer
from repro.errors import (
    DispatchError, RemoteCallError, TransportError, WireFormatError)
from repro.gateway import errmap
from repro.gateway.envelope import IngressSpec, parse_request
from repro.obs import propagation
from repro.runtime import (
    ServerStats, StubServer, TcpClientTransport, operation_names)
from repro.runtime.aio.correlation import locate, route
from repro.runtime.request import RequestCore

from tests import envelope_verdicts, header_templates
from tests.envelope_verdicts import reply_error
from tests.conftest import (
    ALL_BACKENDS, MAIL_IDL, MailImpl, compile_db, compile_mail, top_rows)
from tests.test_fuzz_wire import (
    FUZZ_FRAMES, _LIVE_DRIVERS, _TcpProbe, _UdpProbe, _capture_requests,
    _exchange, _gateway_pair, _load_corpus)

CONTEXT = envelope_verdicts.CONTEXT


def _avg_request(module):
    return _capture_requests(module, [("avg", ([1, 2, 3],))])[0]


def _function_source(module, name):
    """The text of module-level function *name*, dedented body only."""
    lines = module.__source__.split("\n")
    start = lines.index(next(
        line for line in lines if line.startswith("def %s(" % name))) + 1
    end = next((index for index in range(start, len(lines))
                if lines[index] and not lines[index].startswith(" ")),
               len(lines))
    return textwrap.dedent("\n".join(lines[start:end]) + "\n")


def _pasted(lines, text, depth=0):
    """Is the rendered walk *lines* in *text* as consecutive statements,
    *depth* levels below the text's own margin?"""
    return textwrap.indent("\n".join(lines), "    " * depth) + "\n" in text


# ---------------------------------------------------------------------------
# The derivation itself
# ---------------------------------------------------------------------------

class TestDerivedFromOneDescription:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_stubs_inline_the_rendered_walks(self, backend):
        """dispatch, _check_reply and encode_error_reply hold the walk
        as inlined statements — what render() prints, nothing called."""
        result = compile_mail(backend)
        module = result.module
        generator = result.stubs.backend_instance
        protocol, endian = module._ENVELOPE
        prelude = envelopes.render(
            protocol, "request", endian, wants=("strict",),
            ident=envelopes.literal(
                generator.interface_identity(result.presc)))
        dispatch = _function_source(module, "dispatch")
        assert _pasted(prelude, dispatch, depth=1)  # inside dispatch's try
        # Nothing of repro is called before the handler is chosen.
        chosen = dispatch.index("_h = ")
        assert "repro" not in dispatch[:chosen]
        assert _pasted(
            envelopes.render(protocol, "reply", endian,
                             ident=("%s != _ctx",), upto="body"),
            _function_source(module, "_check_reply"))
        if protocol in ("oncrpc", "giop"):
            assert _pasted(
                envelopes.render(protocol, "request", endian,
                                 wants=("two",), upto="id"),
                _function_source(module, "encode_error_reply"), depth=1)
        if protocol == "giop":
            assert module._u_system_exception \
                is envelopes.system_exception(endian)
            source = module._u_system_exception.source.split("\n")
            assert source[0] == "def _u_system_exception(d, o):"
            assert _pasted(
                envelopes.render(protocol, "system_exception", endian,
                                 remote="return %s"),
                textwrap.dedent("\n".join(source[1:]) + "\n"))

    @pytest.mark.parametrize("protocol,endian", [
        ("oncrpc", ">"), ("giop", ">"), ("giop", "<"), ("mach3", "<"),
        ("fluke", "<")])
    def test_readers_are_the_same_walk_executed(self, protocol, endian):
        """The module-level readers' source is render() of the same
        description: the whole walk with the identity compared against
        an argument, and its prefix up to the key / the id."""
        compared = ("ident and %s != ident[0]", "ident and %s != ident[1]")
        whole = envelopes.reader(protocol, "request", endian).source
        assert _pasted(
            envelopes.render(protocol, "request", endian, ident=compared,
                             wants=("strict", "two", "at", "trace")),
            whole, depth=2)
        assert _pasted(
            envelopes.render(protocol, "request", endian,
                             wants=("two", "at"), upto="key"),
            envelopes.locator(protocol, "request", endian).source, depth=2)
        assert _pasted(
            envelopes.render(protocol, "reply", endian),
            envelopes.reader(protocol, "reply", endian).source, depth=2)

    def test_one_bound_moves_every_reader_together(self, monkeypatch):
        """Lower MAX_SERVICE_CONTEXTS in the description and dispatch,
        locate, parse_request and extract all refuse the frame they all
        accepted — there is no second place to lower it in."""
        spec = IngressSpec("giop", object_key=b"Test::Mail")

        def verdicts():
            # A freshly printed stub module and freshly exec'd readers.
            envelopes.reader.cache_clear()
            envelopes.locator.cache_clear()
            module = api.compile(MAIL_IDL, "corba", backend="iiop").module
            frame = _avg_request(module)
            for _ in range(3):  # three service contexts
                frame = propagation.inject(frame, CONTEXT)
            refused = {}
            for name, read in (
                    ("dispatch", lambda: module.dispatch(
                        frame, MailImpl(module), MarshalBuffer())),
                    ("locate", lambda: locate(frame)),
                    ("parse_request", lambda: parse_request(frame, spec))):
                try:
                    read()
                    refused[name] = None
                except WireFormatError as error:
                    refused[name] = (error.field, error.limit, error.actual)
            refused["extract"] = propagation.extract(frame)
            return refused

        try:
            assert verdicts() == {
                "dispatch": None, "locate": None, "parse_request": None,
                "extract": CONTEXT}
            monkeypatch.setattr(envelopes, "MAX_SERVICE_CONTEXTS", 2)
            too_many = ("service_contexts", 2, 3)
            assert verdicts() == {
                "dispatch": too_many, "locate": too_many,
                "parse_request": too_many, "extract": None}
        finally:
            monkeypatch.undo()
            envelopes.reader.cache_clear()
            envelopes.locator.cache_clear()

    def test_little_endian_giop_is_the_same_walk(self):
        """Byte order is an argument of the rendering, not a second
        description: the readers follow a little-endian stub module."""
        module = api.compile(
            MAIL_IDL, "corba", backend="iiop", little_endian=True).module
        assert module._ENVELOPE == ("giop", "<")
        frame = propagation.inject(_avg_request(module), CONTEXT)
        (_protocol, _direction, endian), found = \
            envelope_verdicts.probe(frame)
        assert (found[2], endian) == (b"avg", "<")
        assert propagation.extract(frame) == CONTEXT
        envelope = parse_request(frame, IngressSpec(
            "giop", object_key=b"Test::Mail", little_endian=True))
        assert envelope.op_key == b"avg"
        with pytest.raises(DispatchError) as refusal:
            parse_request(frame, IngressSpec(
                "giop", object_key=b"Test::Mail"))
        assert refusal.value.code == "byte_order"


class TestWovenContexts:
    def test_inject_writes_the_bytes_of_the_hand_packed_splice(self):
        """``propagation.inject`` writes through the request walk's
        weaver (``envelopes.header(..., upto="weave")``) what it used to
        pack itself: ``tests/golden/trace_contexts.json`` holds frames
        and what the hand-packed splice made of them (GIOP in both byte
        orders, a GIOP 1.1 header, a foreign and a repeated context, ONC
        with and without a credential, a reply), and ``extract`` reads
        the context back out of every frame it went into."""
        with open(os.path.join(os.path.dirname(__file__), "golden",
                               "trace_contexts.json")) as handle:
            cases = json.load(handle)
        for name, case in cases.items():
            frame = bytes.fromhex(case["in"])
            woven = propagation.inject(frame, CONTEXT)
            assert woven.hex() == case["out"], name
            if woven != frame:
                assert propagation.extract(woven) == CONTEXT, name


# ---------------------------------------------------------------------------
# Defect 1: locate and extract carry the service-context bound
# ---------------------------------------------------------------------------

class TestForgedContextCount:
    def _forged(self, iiop_module):
        """A 1 MiB frame announcing as many empty service contexts as
        fit in it: an unbounded walk visits all 131 000 of them."""
        frame = bytearray(_avg_request(iiop_module)[:16])
        frame += bytes((1 << 20) - len(frame))
        struct.pack_into(">I", frame, 8, len(frame) - 12)
        struct.pack_into(">I", frame, 12, (len(frame) - 16) // 8)
        return bytes(frame)

    def test_every_reader_refuses_at_the_bound(self):
        module = compile_mail("iiop").module
        frame = self._forged(module)
        count = (len(frame) - 16) // 8
        spec = IngressSpec("giop", object_key=b"Test::Mail")
        for read in (locate, lambda d: parse_request(d, spec),
                     lambda d: module.dispatch(d, None, MarshalBuffer()),
                     envelopes.reader("giop", "request", ">")):
            with pytest.raises(WireFormatError) as refusal:
                read(frame)
            assert (refusal.value.field, refusal.value.limit,
                    refusal.value.actual) == (
                "service_contexts", envelopes.MAX_SERVICE_CONTEXTS, count)
        assert propagation.extract(frame) is None

    def test_request_core_begin_with_stats_and_with_a_tracer(self):
        """With stats or tracing on, begin() reads the header before
        dispatch refuses it: through the bounded walk, which does not
        reach the context an unbounded one would find (the corpus
        frame's 65th context is a well-formed trace context)."""
        module = compile_mail("iiop").module
        (corpus,) = [frame for name, frame in _load_corpus("giop_")
                     if name == "giop_forged_context_count.hex"]
        for frame in (self._forged(module), corpus):
            stats = ServerStats()
            core = RequestCore(
                module.dispatch, MailImpl(module), stats=stats,
                op_names=operation_names(module),
                error_encoder=module.encode_error_reply)
            ticket = core.begin(frame)
            assert ticket.op_key == "?"
            has_reply, keep_open, error = core.serve(
                frame, MarshalBuffer(), ticket)
            assert isinstance(error, WireFormatError)
            assert error.field == "service_contexts"
            assert stats.malformed.value == 1
            exporter = obs.CollectingExporter()
            obs.configure(exporter)
            try:
                ticket = core.begin(frame)
                core.end(ticket)
            finally:
                obs.shutdown()
            (root,) = exporter.by_name("server.request")
            assert root.attrs["op"] == "?"
            assert root.parent_id is None  # no context was trusted
            assert root.trace_id != CONTEXT.trace_id


# ---------------------------------------------------------------------------
# Defect 2: a length that overruns the frame, on a call with no arguments
# ---------------------------------------------------------------------------

_OVERRUNS = {"onc": "onc_verf_overrun_noargs.hex",
             "giop": "giop_principal_overrun_noargs.hex"}


def _overrun_frame(protocol):
    (frame,) = [frame for name, frame in _load_corpus(protocol + "_")
                if name == _OVERRUNS[protocol]]
    return frame


class _Refusing:
    """A servant that must never be reached."""

    def __getattr__(self, name):
        raise AssertionError("servant reached: %s" % name)


@pytest.mark.parametrize("protocol", ["onc", "giop"])
class TestOverrunOnNoArgumentCall:
    """The handler of a call without arguments decodes nothing, so only
    the header walk can notice that the verifier / principal length
    points past the end of the frame."""

    def test_stub_server_refuses(self, protocol):
        server = StubServer(
            envelope_verdicts.Subject(protocol).module, _Refusing())
        frame = _overrun_frame(protocol)
        reply = server.serve_bytes(frame)
        error = reply_error(reply)
        assert error.code == ("GARBAGE_ARGS" if protocol == "onc"
                              else "IDL:omg.org/CORBA/MARSHAL:1.0")
        with pytest.raises(WireFormatError) as refusal:
            server.module.dispatch(frame, server.impl, MarshalBuffer())
        assert "overruns the frame" in str(refusal.value)

    @pytest.mark.parametrize("driver", sorted(_LIVE_DRIVERS))
    def test_live_drivers_refuse(self, protocol, driver):
        subject = envelope_verdicts.Subject(protocol)
        stub_server = StubServer(subject.module, _Refusing())
        frame = _overrun_frame(protocol)
        expected = subject.server.serve_bytes(frame)
        assert subject.impl.calls == 0
        stats = ServerStats()
        with _LIVE_DRIVERS[driver](stub_server, stats=stats) as server:
            wire = (_UdpProbe if driver == "udp" else _TcpProbe)(
                server.address)
            try:
                wire.send(frame)
                assert wire.reply() == expected
            finally:
                wire.close()
        assert (stats.malformed.value, stats.servant_errors.value) == (1, 0)

    def test_gateway_refuses_the_same_bytes(self, protocol):
        """The gateway always refused these (its parser had the check);
        it still does, with nothing forwarded upstream."""
        backend = "oncrpc-xdr" if protocol == "onc" else "iiop"
        (frame,) = _capture_requests(
            compile_mail(backend).module, [("_get_counter", ())])
        frame = bytearray(frame)
        if protocol == "onc":
            frame[36:40] = struct.pack(">I", 400)
        else:
            frame[-4:] = struct.pack(">I", 1000)
        with _gateway_pair(protocol) as (gateway, malformed):
            kind, reply = _exchange(gateway.address, bytes(frame))
            assert kind == "reply"
            assert reply_error(reply) is not None
            assert gateway._upstream.forwarded == 0
        assert not malformed


# ---------------------------------------------------------------------------
# Defect 3: stats and spans name Mach 3 and Fluke operations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestOperationNamesOnEveryBackEnd:
    def test_stats_and_request_span_name_the_operation(self, backend):
        module = compile_mail(backend).module
        names = operation_names(module)
        assert names.envelope == module._ENVELOPE
        stats = ServerStats()
        exporter = obs.CollectingExporter()
        server = StubServer(module, MailImpl(module)).tcp_server(stats=stats)
        with server:
            transport = TcpClientTransport(*server.address[:2])
            try:
                client = module.Test_MailClient(transport)
                assert client.avg([1, 2, 3]) == 2.0
                obs.configure(exporter)
                try:
                    assert client.reverse(b"abc") == b"cba"
                finally:
                    obs.shutdown()
            finally:
                transport.close()
        assert sorted(top_rows(stats)) == ["avg", "reverse"]
        assert [span.attrs["op"]
                for span in exporter.by_name("server.request")] == ["reverse"]

    def test_an_unreadable_header_is_still_a_question_mark(self, backend):
        module = compile_mail(backend).module
        core = RequestCore(module.dispatch, None,
                           op_names=operation_names(module))
        assert core.op_key(b"") == "?"
        assert core.op_key(b"\x01\x02") == "?"


# ---------------------------------------------------------------------------
# One vocabulary for error replies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["onc", "giop"])
def test_reply_error_and_the_stub_word_an_error_reply_alike(protocol):
    """Every reply encode_error_reply (and the gateway's table) can put
    on the wire decodes to the same RemoteCallError — code, message,
    minor, completed — whether correlation.route classifies it or
    the generated client raises it."""
    subject = envelope_verdicts.Subject(protocol)
    seen = set()
    for reply in subject.reply_seeds():
        verdicts = envelope_verdicts.reply_verdicts(subject, reply)
        if verdicts["client"][0] != "remote":
            assert verdicts["reply_error"] is None  # a success
            continue
        assert verdicts["reply_error"] == verdicts["client"][1:]
        seen.add(verdicts["reply_error"][0])
    if protocol == "onc":
        assert seen == set(envelopes.ACCEPT_STAT_NAMES.values()) - {
            "SUCCESS"} | {
            "RPC_MISMATCH", "AUTH_ERROR"}
    else:
        assert seen >= {"GIOP::MessageError"} | {
            "IDL:omg.org/CORBA/%s:1.0" % name for name in (
                "MARSHAL", "BAD_OPERATION", "OBJECT_NOT_EXIST", "TRANSIENT",
                "COMM_FAILURE")}


# ---------------------------------------------------------------------------
# The one-walk router says what the two walks said
# ---------------------------------------------------------------------------

def _giop_reply(endian, contexts=0, status=0, message_type=1):
    """A GIOP Reply to request 7 with *contexts* empty service contexts."""
    body = struct.pack(endian + "I", contexts)
    body += struct.pack(endian + "II", 0x1234, 0) * contexts
    body += struct.pack(endian + "II", 7, status)
    return b"GIOP" + bytes((1, 0, endian == "<", message_type)) \
        + struct.pack(endian + "I", len(body)) + body


def _constructed_replies():
    """Replies the corpus (requests, mostly) has no file for."""
    frames = []
    for protocol in ("onc", "giop"):
        frames += envelope_verdicts.Subject(protocol).reply_seeds()
    onc = struct.Struct(">IIIIII")
    frames += [onc.pack(7, 1, 0, 0, 0, stat) for stat in range(8)]
    frames += [
        onc.pack(7, 1, 1, 0, 2, 2),                    # RPC_MISMATCH 2..2
        onc.pack(7, 1, 1, 1, 1, 0)[:20],               # AUTH_ERROR
        onc.pack(7, 1, 2, 0, 0, 0),                    # bad reply_stat
        struct.pack(">IIIII", 7, 1, 0, 0, 5000) + bytes(5004),  # verifier
        struct.pack(">IIIII", 7, 1, 0, 0, 8) + bytes(8) + bytes(4),
        struct.pack(">IIIIIIII", 7, 1, 0, 0, 0, 2, 3, 9),  # PROG_MISMATCH
    ]
    for endian in "<>":
        frames += [_giop_reply(endian), _giop_reply(endian, contexts=3),
                   _giop_reply(endian, contexts=64),
                   _giop_reply(endian, contexts=65),
                   _giop_reply(endian, message_type=6),
                   _giop_reply(endian, status=3)]
        for minor, completed in ((0, 0), (7, 2)):
            buffer = MarshalBuffer()
            envelopes.write_error(
                buffer, "giop", 7, "IDL:omg.org/CORBA/TRANSIENT:1.0",
                minor, completed, e=endian)
            frames.append(buffer.getvalue())
    return [bytes(frame) for frame in frames]


def _same_error(one, other):
    if one is None or other is None:
        return one is other
    return (type(one), one.protocol, one.code, getattr(one, "minor", None),
            getattr(one, "completed", None), str(one)) == (
        type(other), other.protocol, other.code,
        getattr(other, "minor", None), getattr(other, "completed", None),
        str(other))


def _two_walks(frame):
    """What the parent's client made of a reply in two walks:
    ``(id, offset)`` from the locator or None, and the error the whole
    raising walk carries or None."""
    protocol, direction, endian = envelopes.sniff(frame)
    assert direction == "reply"
    try:
        located = envelopes.locator(protocol, "reply", endian)(frame)
    except TransportError:
        located = None
    try:
        envelopes.reader(protocol, "reply", endian)(frame)
        carried = None
    except RemoteCallError as error:
        carried = error
    except TransportError:
        carried = None
    return located, carried


class TestRoutedReplyWalk:
    """``envelopes.router`` / ``correlation.route`` yield, in one pass,
    the id and offset ``locate`` finds and the error the reply
    carries — on every reply, whole or cut anywhere."""

    def frames(self):
        frames = []
        for _name, frame in _load_corpus(""):
            try:
                if envelopes.sniff(frame)[1] == "reply":
                    frames.append(frame)
            except TransportError:
                pass
        assert frames  # the corpus holds at least the GIOP MessageError
        return frames + _constructed_replies()

    def test_one_walk_equals_two(self):
        refused_after_id = classified = 0
        for whole in self.frames():
            for cut in range(8, len(whole) + 1):
                frame = whole[:cut]
                try:
                    protocol, direction, endian = envelopes.sniff(frame)
                except TransportError:
                    continue
                if direction != "reply":
                    continue  # cut inside a GIOP header: reads as type 0
                located, carried = _two_walks(frame)
                try:
                    wire_id, offset, error = envelopes.router(
                        protocol, endian)(frame)
                except TransportError:
                    # Garbled: no classification either way, and the id
                    # (if the locator has one) still routes the reply.
                    assert carried is None, frame.hex()
                    assert reply_error(frame) is None
                    if located is None:
                        with pytest.raises(TransportError):
                            route(frame)
                    else:
                        refused_after_id += 1
                        assert route(frame)[:3] == located + (None,)
                        assert locate(frame)[:2] == located
                    continue
                assert _same_error(error, carried), frame.hex()
                assert _same_error(reply_error(frame), carried)
                assert route(frame)[:2] == (wire_id, offset)
                assert _same_error(route(frame)[2], carried)
                if located is not None:
                    assert (wire_id, offset) == located, frame.hex()
                    assert locate(frame)[:2] == located
                else:
                    # Only an id-less error answer gets here.
                    assert wire_id is None and error.code \
                        == "GIOP::MessageError"
                classified += error is not None
        assert refused_after_id > 50 and classified > 50

    def test_the_id_is_stamped_where_it_was_read(self):
        for endian in "<>":
            frame = _giop_reply(endian, contexts=2)
            wire_id, offset, error, stamp = route(frame)
            assert (wire_id, error) == (7, None)
            restored = bytearray(frame)
            stamp(restored, offset, 0xDEADBEEF)
            assert route(bytes(restored))[:2] == (0xDEADBEEF, offset)
            assert restored[:offset] + restored[offset + 4:] \
                == frame[:offset] + frame[offset + 4:]

    def test_a_view_is_walked_in_place(self):
        """No reader copies a memoryview to look at its header."""
        for frame in _constructed_replies()[:6]:
            view = memoryview(bytearray(frame))
            assert route(view)[:2] == route(frame)[:2]
            assert _same_error(reply_error(view), reply_error(frame))
            assert envelope_verdicts.probe(view) \
                == envelope_verdicts.probe(frame)


def test_reply_error_reads_versions_and_leaves_garble_to_the_stub():
    buffer = MarshalBuffer()
    envelopes.write_error(buffer, "oncrpc", 9, "PROG_MISMATCH",
                          versions=(2, 5))
    error = reply_error(buffer.getvalue())
    assert isinstance(error, RemoteCallError)
    assert "server speaks 2..5" in str(error)
    # Cut inside the version pair, or inside a system exception's id:
    # not classifiable, so the stub's decode gets to refuse it.
    assert reply_error(buffer.getvalue()[:-2]) is None
    buffer = MarshalBuffer()
    envelopes.write_error(buffer, "giop", 9, "IDL:omg.org/CORBA/MARSHAL:1.0")
    assert reply_error(buffer.getvalue()).code.endswith("MARSHAL:1.0")
    assert reply_error(buffer.getvalue()[:40]) is None


# ---------------------------------------------------------------------------
# The corpus, pinned reader by reader
# ---------------------------------------------------------------------------

def test_corpus_verdicts_match_the_golden_table():
    """Accept or refuse, exception class and code, op key, correlation
    id and its offset, body offset, expects_reply, the reply bytes and
    whether the servant ran — for every reader on every corpus frame.
    Regenerate with ``python -m tests.envelope_verdicts golden``."""
    with open(envelope_verdicts.GOLDEN) as handle:
        golden = json.load(handle)
    verdicts = json.loads(json.dumps(envelope_verdicts.corpus_verdicts()))
    assert sorted(verdicts) == sorted(golden)
    for name in sorted(golden):
        assert verdicts[name] == golden[name], name
    for protocol in ("mach3", "fluke"):
        assert sum(name.startswith(protocol) for name in golden) >= 3


def test_refusals_are_flick_errors_on_every_reader():
    """No reader leaks a raw struct.error or IndexError, cut anywhere."""
    for protocol in ("onc", "giop", "mach3", "fluke"):
        subject = envelope_verdicts.Subject(protocol)
        for seed in subject.seeds():
            for cut in range(len(seed)):
                verdicts = envelope_verdicts.request_verdicts(
                    subject, seed[:cut])
                for reader, verdict in verdicts.items():
                    if isinstance(verdict, list) and verdict[0] in (
                            "refuse", "raise"):
                        assert issubclass(
                            getattr(errors, verdict[1], type(None)),
                            errors.RuntimeFlickError), (reader, verdict, cut)


# ---------------------------------------------------------------------------
# Error replies: one writer beside the walks that read them
# ---------------------------------------------------------------------------

#: The bytes every error reply had before ``envelopes.write_error``
#: wrote them all: what the stubs' ``encode_error_reply`` and the
#: gateway's table (then ``errmap.encode_error``) put on the wire.
ERROR_REPLIES = os.path.join(os.path.dirname(__file__), "golden",
                             "error_replies.json")

#: The id the pinned gateway replies answer, and their PROG_MISMATCH
#: version range.
_CTX, _VERSIONS = 0x01020304, (2, 5)

_LOCAL_FAILURES = {cls.__name__: cls for cls in (
    errors.OverloadError, errors.CircuitOpenError, errors.DeadlineError,
    errors.TransportError)}


def _pinned_error_replies():
    with open(ERROR_REPLIES) as handle:
        return json.load(handle)


def _stub_error_replies():
    """``{"<protocol><byte order> <refusal>": hex, or False for no
    reply}`` from compiled ONC stubs and GIOP stubs in both byte orders:
    every refusal of ``envelope_verdicts.REFUSALS`` on a two-way
    request, a crash on a header cut to 12 and to 2 bytes, and every
    refusal of a oneway GIOP request."""
    mail_calls = [("avg", ([1, 2, 3],)), ("ping", (7,))]
    modules = {
        "oncrpc": (compile_db().module,
                   [("echo", (b"hello world",))]),
        "giop>": (compile_mail("iiop").module, mail_calls),
        "giop<": (api.compile(
            MAIL_IDL, "corba", backend="iiop", little_endian=True).module,
                  mail_calls),
    }
    refusals = [(getattr(error, "code", None) or type(error).__name__,
                 error) for error in envelope_verdicts.REFUSALS]
    crash = refusals[-1][1]
    replies = {}
    for label, (module, calls) in modules.items():
        requests = _capture_requests(module, calls)
        cases = [(name, requests[0], error) for name, error in refusals]
        cases += [("header-12", requests[0][:12], crash),
                  ("header-2", requests[0][:2], crash)]
        if len(requests) > 1:  # ping, a oneway operation
            cases += [("oneway " + name, requests[1], error)
                      for name, error in refusals]
        for name, request, error in cases:
            buffer = MarshalBuffer()
            replies["%s %s" % (label, name)] = module.encode_error_reply(
                request, error, buffer) and buffer.getvalue().hex()
    return replies


def _write(protocol, code, minor=0, completed=1, ctx=_CTX, e=">"):
    buffer = MarshalBuffer()
    envelopes.write_error(buffer, protocol, ctx, code, minor, completed,
                          versions=_VERSIONS, e=e)
    return buffer.getvalue()


class TestErrorRepliesKeepTheirBytes:
    """``tests/golden/error_replies.json`` was written by the two
    writers this one replaced; every reply comes back byte for byte."""

    def test_what_the_stubs_write(self):
        assert _stub_error_replies() == _pinned_error_replies()["stub"]

    def test_what_the_gateway_table_writes(self):
        pinned = _pinned_error_replies()["errmap"]
        for key, hex_bytes in pinned.items():
            label, rest = key.split(" ", 1)
            if label == "oncrpc":
                wire = _write("oncrpc", rest.split()[1])  # "<kind> <code>"
            else:
                code, minor, completed = rest.rsplit(" ", 2)
                wire = _write("giop", code, int(minor), int(completed),
                              e=label[-1])
            assert wire.hex() == hex_bytes, key
        # The pins cover every status and id of today's tables.
        assert {key.split()[-1] for key in pinned
                if key.startswith("oncrpc")} == set(
            errmap.GIOP_TO_ONC.values())
        for e in "<>":
            assert {key.split(" ", 1)[1].rsplit(" ", 2)[0] for key in pinned
                    if key.startswith("giop" + e)} == set(errmap.GIOP_TO_ONC)

    def test_what_local_failures_map_to(self):
        pinned = _pinned_error_replies()["translate_local"]
        assert len(pinned) == 3 * len(_LOCAL_FAILURES)
        for key, hex_bytes in pinned.items():
            label, name = key.split()
            protocol = label.rstrip("<>")
            mapped = errmap.translate_local(_LOCAL_FAILURES[name]("x"),
                                            protocol)
            wire = _write(protocol, *mapped, e=label[len(protocol):] or ">")
            assert wire.hex() == hex_bytes, key


#: Every status an ONC error reply can carry (accept_stat names but
#: SUCCESS, and the two denials).
_ONC_ERROR_CODES = sorted(
    set(envelopes.ACCEPT_STAT_NAMES.values()) - {"SUCCESS"}
    | {"RPC_MISMATCH", "AUTH_ERROR"})

_WORDS = st.integers(0, 0xFFFFFFFF)


@settings(max_examples=max(50, FUZZ_FRAMES // 100), deadline=None)
@given(st.one_of(
    st.tuples(st.just("oncrpc"), st.sampled_from(_ONC_ERROR_CODES),
              st.just(0), st.just(None), st.just(">"), _WORDS),
    st.tuples(st.just("giop"),
              st.text(st.characters(min_codepoint=1, max_codepoint=255),
                      max_size=80),
              _WORDS, _WORDS, st.sampled_from("<>"),
              st.one_of(st.none(), _WORDS))),
    st.tuples(_WORDS, _WORDS))
def test_every_written_error_reply_reads_back(case, versions):
    """What write_error writes, the reply walk classifies as the code,
    minor and completion it was given (a GIOP reply with no id to
    answer is a MessageError), for the id it answers."""
    protocol, code, minor, completed, e, ctx = case
    buffer = MarshalBuffer()
    envelopes.write_error(buffer, protocol, ctx, code, minor,
                          1 if completed is None else completed,
                          versions=versions, e=e)
    frame = buffer.getvalue()
    error = reply_error(frame)
    if ctx is None:
        code, minor, completed = "GIOP::MessageError", 0, None
    else:
        assert locate(frame)[0] == ctx
    assert (error.protocol, error.code, error.minor, error.completed) == (
        protocol, code, minor, completed)
    if code == "PROG_MISMATCH":
        assert "server speaks %d..%d" % versions in str(error)


def test_every_remote_error_translates_and_writes_on_both_ingresses():
    """The error mapping is total: every RemoteCallError the reply
    walks make of the corpus and of constructed replies — ONC statuses
    RFC 1831 does not name among them — goes out on either ingress
    protocol, an unnamed ONC status as SYSTEM_ERR."""
    frames = _constructed_replies() + [
        frame for protocol in ("onc", "giop")
        for frame in envelope_verdicts.Subject(protocol).corpus()]
    remote = []
    for frame in frames:
        try:
            error = reply_error(frame)
        except errors.RuntimeFlickError:
            continue
        if error is not None:
            remote.append(error)
    assert {"accept_stat 6", "accept_stat 7"} <= {e.code for e in remote}
    for error in remote:
        for ingress in ("oncrpc", "giop"):
            mapped = errmap.translate_remote(error, ingress)
            written = reply_error(_write(ingress, *mapped))
            assert written.protocol == ingress
            if error.code.startswith("accept_stat "):
                assert written.code == (
                    "SYSTEM_ERR" if ingress == "oncrpc"
                    else "IDL:omg.org/CORBA/UNKNOWN:1.0")


# ----------------------------------------------------------------------
# The writer: the walks write what they read
# ----------------------------------------------------------------------

def test_header_templates_match_the_golden_table():
    """Every per-operation header and every error reply keeps the bytes
    the hand-packed templates and error writer it replaced put on the
    wire (``tests/golden/header_templates.json``)."""
    with open(header_templates.GOLDEN) as handle:
        assert header_templates.table() == json.load(handle)


#: (protocol, byte order) of every back end's envelope.
_SPEAKERS = [("oncrpc", ">"), ("giop", ">"), ("giop", "<"),
             ("mach3", "<"), ("fluke", "<")]


def _header_fields(protocol, data):
    """What a back end passes :func:`envelopes.header` for a request."""
    if protocol == "giop":
        return dict(ident=(data.draw(st.binary(max_size=12)),),
                    key=data.draw(st.binary(max_size=12)),
                    two=data.draw(st.booleans()))
    return dict(ident=(data.draw(_WORDS), data.draw(_WORDS))
                if protocol == "oncrpc" else (), key=data.draw(_WORDS))


def _framed(spec, ctx, body):
    buffer = MarshalBuffer()
    offset = spec.write(buffer, ctx)
    at = buffer.reserve(len(body))
    buffer.data[at:at + len(body)] = body
    spec.finish(buffer, offset)
    return buffer.getvalue()


def _patched_at(spec):
    return spec.patches[0][0] if spec.patches else None


@pytest.mark.parametrize("protocol, e", _SPEAKERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_written_request_header_reads_back(protocol, e, data):
    """The reader and the locator accept what the writer wrote, body
    appended, and return the written context, key, identity, two-way
    flag, context offset and body offset."""
    fields = _header_fields(protocol, data)
    ctx = data.draw(_WORDS)
    spec = envelopes.header(protocol, "request", e, **fields)
    frame = _framed(spec, ctx, data.draw(st.binary(max_size=16)))
    want_ctx = {"mach3": fields["key"], "fluke": None}.get(protocol, ctx)
    two = fields.get("two", True)
    assert envelopes.reader(protocol, "request", e)(
        frame, ident=fields["ident"] or None) == (
        want_ctx, fields["key"], len(spec.template), two,
        _patched_at(spec), -1, 0)
    assert envelopes.locator(protocol, "request", e)(frame) == (
        want_ctx, _patched_at(spec), fields["key"], two)


@pytest.mark.parametrize("protocol, e", _SPEAKERS)
@settings(max_examples=30, deadline=None)
@given(ctx=_WORDS, body=st.binary(max_size=16))
def test_a_written_reply_header_reads_back(protocol, e, ctx, body):
    """A reply header (as the back ends write it, up to the reply
    union) followed by a NO_EXCEPTION body is read back as a success
    answering *ctx*, its body where the template ends."""
    # key: the request's demux key, which only Mach 3 writes (+ 100).
    spec = envelopes.header(protocol, "reply", e, upto="body", key=7)
    frame = _framed(spec, ctx, struct.pack(e + "I", 0) + body)
    answers = None if spec.patches == () else ctx
    assert envelopes.reader(protocol, "reply", e)(frame) == \
        len(spec.template)
    assert envelopes.locator(protocol, "reply", e)(frame) == (
        answers, _patched_at(spec))
    assert envelopes.router(protocol, e)(frame) == (
        answers, _patched_at(spec), None)


def _is_steps(steps):
    for step in steps:
        if step[0] == "is":
            yield step
        elif step[0] in ("if", "loop", "want"):
            yield from _is_steps(step[2:])


_IS_CASES = [
    pytest.param(protocol, direction, e, step,
                 id="%s%s-%s-%s" % (protocol, e, direction, step[1]))
    for protocol, e in _SPEAKERS for direction in ("request", "reply")
    for step in _is_steps(envelopes.WALKS[protocol, direction](e))]


@pytest.mark.parametrize("protocol, direction, e, step", _IS_CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_written_header_with_an_is_word_changed_is_refused(
        protocol, direction, e, step, data):
    """Each ``is`` step refuses the written header with its word
    changed, with the step's own error class and code.  The word is
    changed by 2: 1 and 6 are answers the reply walks read before the
    step is reached (ONC RPC's MSG_DENIED, GIOP's MessageError)."""
    fields = _header_fields(protocol, data) if direction == "request" \
        else {"upto": "body"}
    _, target, value, error = step
    if not target.startswith("d["):
        fields[target[1:]] = value + 2
    frame = bytearray(_framed(envelopes.header(
        protocol, direction, e, **fields), data.draw(_WORDS),
        struct.pack(e + "I", 0)))
    if target.startswith("d["):
        frame[int(target[2:-1])] = value + 2
    with pytest.raises(errors.FlickError) as refused:
        envelopes.reader(protocol, direction, e)(bytes(frame))
    assert type(refused.value).__name__ == error.split("(")[0]
    code = re.search(r"code='(\w+)'", error)
    if code:
        assert refused.value.code == code.group(1)


def test_every_is_step_is_exercised():
    """The cases above cover the words the walks require: ONC RPC's
    message type, RPC version and reply_stat, GIOP's message type and
    byte order."""
    assert sorted({case.values[3][1] for case in _IS_CASES}) == [
        "_mt", "_rs", "_rv", "d[6]", "d[7]"]
