"""One described envelope per protocol: every header walk is derived.

``repro.envelopes`` states each protocol's request and reply envelope
once; the generated stubs inline the printed walk and the module-level
readers (``probe``, ``reply_error``, ``parse_request``, ``extract``,
``RequestCore.op_key``) are the same text exec'd.  These tests pin that
derivation, the three defects the hand-written copies had drifted into,
and — through ``tests/golden/envelope_verdicts.json`` — what every
reader makes of every corpus frame.
"""

from __future__ import annotations

import json
import struct
import textwrap

import pytest

from repro import Flick, envelopes, errors, obs
from repro.encoding import MarshalBuffer
from repro.errors import (
    DispatchError, RemoteCallError, TransportError, WireFormatError)
from repro.gateway import errmap
from repro.gateway.envelope import IngressSpec, parse_request
from repro.obs import propagation
from repro.runtime import (
    ServerStats, StubServer, TcpClientTransport, operation_names)
from repro.runtime.aio.correlation import probe, reply_error, route
from repro.runtime.request import RequestCore

from tests import envelope_verdicts
from tests.conftest import ALL_BACKENDS, MAIL_IDL, MailImpl, compile_mail
from tests.test_fuzz_wire import (
    _LIVE_DRIVERS, _TcpProbe, _UdpProbe, _capture_requests, _exchange,
    _gateway_pair, _load_corpus)

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
        module = result.load_module()
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
            assert _pasted(
                envelopes.render(protocol, "system_exception", endian,
                                 remote="return %s"),
                _function_source(module, "_u_system_exception"))

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
        probe, parse_request and extract all refuse the frame they all
        accepted — there is no second place to lower it in."""
        spec = IngressSpec("giop", object_key=b"Test::Mail")

        def verdicts():
            # A freshly printed stub module and freshly exec'd readers.
            envelopes.reader.cache_clear()
            envelopes.locator.cache_clear()
            module = Flick(frontend="corba", backend="iiop").compile(
                MAIL_IDL).load_module()
            frame = _avg_request(module)
            for _ in range(3):  # three service contexts
                frame = propagation.inject(frame, CONTEXT)
            refused = {}
            for name, read in (
                    ("dispatch", lambda: module.dispatch(
                        frame, MailImpl(module), MarshalBuffer())),
                    ("probe", lambda: probe(frame)),
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
                "dispatch": None, "probe": None, "parse_request": None,
                "extract": CONTEXT}
            monkeypatch.setattr(envelopes, "MAX_SERVICE_CONTEXTS", 2)
            too_many = ("service_contexts", 2, 3)
            assert verdicts() == {
                "dispatch": too_many, "probe": too_many,
                "parse_request": too_many, "extract": None}
        finally:
            monkeypatch.undo()
            envelopes.reader.cache_clear()
            envelopes.locator.cache_clear()

    def test_little_endian_giop_is_the_same_walk(self):
        """Byte order is an argument of the rendering, not a second
        description: the readers follow a little-endian stub module."""
        module = Flick(frontend="corba", backend="iiop",
                       little_endian=True).compile(MAIL_IDL).load_module()
        assert module._ENVELOPE == ("giop", "<")
        frame = propagation.inject(_avg_request(module), CONTEXT)
        info = probe(frame)
        assert (info.op_key, info.id_format) == (b"avg", "<I")
        assert propagation.extract(frame) == CONTEXT
        envelope = parse_request(frame, IngressSpec(
            "giop", object_key=b"Test::Mail", little_endian=True))
        assert envelope.op_key == b"avg"
        with pytest.raises(DispatchError) as refusal:
            parse_request(frame, IngressSpec(
                "giop", object_key=b"Test::Mail"))
        assert refusal.value.code == "byte_order"


# ---------------------------------------------------------------------------
# Defect 1: probe and extract carry the service-context bound
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
        module = compile_mail("iiop").load_module()
        frame = self._forged(module)
        count = (len(frame) - 16) // 8
        spec = IngressSpec("giop", object_key=b"Test::Mail")
        for read in (probe, lambda d: parse_request(d, spec),
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
        module = compile_mail("iiop").load_module()
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
            compile_mail(backend).load_module(), [("_get_counter", ())])
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
        module = compile_mail(backend).load_module()
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
        assert sorted(stats.snapshot()) == ["avg", "reverse"]
        assert [span.attrs["op"]
                for span in exporter.by_name("server.request")] == ["reverse"]

    def test_an_unreadable_header_is_still_a_question_mark(self, backend):
        module = compile_mail(backend).load_module()
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
    minor, completed — whether correlation.reply_error classifies it or
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
        assert seen == set(errmap._ACCEPT_NUMBERS) - {"SUCCESS"} | {
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
            errmap.encode_error(buffer, 7, errmap.GiopErrorReply(
                "IDL:omg.org/CORBA/TRANSIENT:1.0", minor, completed),
                little_endian=endian == "<")
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
    the id and offset ``probe`` finds and the error ``reply_error``
    classifies — on every reply, whole or cut anywhere."""

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
                        info = probe(frame)
                        assert (info.correlation_id, info.id_offset) \
                            == located
                    continue
                assert _same_error(error, carried), frame.hex()
                assert _same_error(reply_error(frame), carried)
                assert route(frame)[:2] == (wire_id, offset)
                assert _same_error(route(frame)[2], carried)
                if located is not None:
                    assert (wire_id, offset) == located, frame.hex()
                    info = probe(frame)
                    assert (info.correlation_id, info.id_offset) == located
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
            assert probe(view) == probe(frame)


def test_reply_error_reads_versions_and_leaves_garble_to_the_stub():
    buffer = MarshalBuffer()
    errmap.encode_error(buffer, 9, errmap.OncErrorReply(
        "accept", "PROG_MISMATCH"), versions=(2, 5))
    error = reply_error(buffer.getvalue())
    assert isinstance(error, RemoteCallError)
    assert "server speaks 2..5" in str(error)
    # Cut inside the version pair, or inside a system exception's id:
    # not classifiable, so the stub's decode gets to refuse it.
    assert reply_error(buffer.getvalue()[:-2]) is None
    buffer = MarshalBuffer()
    errmap.encode_error(buffer, 9, errmap.GiopErrorReply(
        "IDL:omg.org/CORBA/MARSHAL:1.0"))
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
