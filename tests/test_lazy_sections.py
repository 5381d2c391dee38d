"""A process compiles the half it runs.

A generated module carries a section table (``stubs.sections``) and
``repro.core.loader`` compiles the ``client``, ``server`` and ``errors``
sections at the first attribute access that asks for one.  Pinned here:
the rule that makes that safe (no code names a global another deferred
section binds — ``LOAD_GLOBAL`` never consults module ``__getattr__``),
that a section compiles once however many threads ask, that a server
and a client each load their own half only, that a lazy module answers
byte for byte as the same text exec'd whole, and that everything that
reads a stub module by dict still finds what it looked for.
"""

import dis
import glob
import os
import socket
import struct
import sys
import threading
import traceback
import types

import pytest

from repro import api, obs
from repro.backend.base import Section
from repro.backend.pywriter import PyWriter
from repro.compilers import make_baseline
from repro.core import loader
from repro.core.loader import on_bound, pending_sections
from repro.encoding import MarshalBuffer
from repro.errors import FlickError, RemoteCallError, TransportError
from repro.mir import render_py
from repro.mir.render_closures import install_closures
from repro.runtime import LoopbackTransport, StubServer, TcpClientTransport
from repro.runtime.server import operation_names

from tests.conftest import ALL_BACKENDS, MAIL_IDL, MIG_IDL, MailImpl
from tests.test_demand_driven import _code_objects
from tests.rawsock import recv_record

ROLES = ("client", "server", "errors")
UNLOADED = tuple(sorted(ROLES))  # what pending_sections says of a fresh module
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The example schemas and the benchmark's.
SCHEMAS = sorted(
    glob.glob(os.path.join(ROOT, "examples", "idl", "*"))
    + glob.glob(os.path.join(ROOT, "benchmarks", "e2e", "schemas", "*.*")))
EXAMPLE_MAIL = open(
    os.path.join(ROOT, "examples", "idl", "mail.idl")).read()


def _globals_named(code):
    """Every name *code*, or a function or class body nested in it,
    looks up as a global."""
    return {
        instruction.argval
        for nested in _code_objects(code)
        for instruction in dis.get_instructions(nested)
        if instruction.opname in ("LOAD_GLOBAL", "LOAD_NAME")
    }


def _section_code(stubs, section):
    lines = stubs.py_source.split("\n")
    return compile(loader.excerpt(lines, (section,)), "<section>", "exec")


class TestReferenceClosure:
    @pytest.mark.parametrize("renderer", ("py", "closures"))
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize(
        "path", SCHEMAS, ids=lambda path: os.path.relpath(path, ROOT))
    def test_no_code_names_a_global_of_another_deferred_section(
            self, path, backend, renderer):
        results = api.compile_all(open(path).read(), name=path,
                                  backend=backend, renderer=renderer)
        assert results
        for result in results.values():
            stubs = result.stubs
            table = {section.name: section for section in stubs.sections}
            assert tuple(table) == ("shared", "codecs") + ROLES
            code = {name: [_section_code(stubs, section)]
                    for name, section in table.items()}
            if renderer == "closures":
                # What runs in place of the codec section: each
                # function's own text, compiled alone.
                code["codecs"] = []
                for fn in stubs.mir.functions:
                    w = PyWriter()
                    render_py.render_function(w, fn)
                    code["codecs"].append(
                        compile(w.getvalue(), "<codec>", "exec"))
            for name in ROLES:
                # The table's names are what the section's text binds.
                (section_code,) = code[name]
                stored = {
                    instruction.argval
                    for instruction in dis.get_instructions(section_code)
                    if instruction.opname == "STORE_NAME"}
                assert set(table[name].names) == stored, name
                assert len(set(table[name].names)) \
                    == len(table[name].names)
            for name, codes in code.items():
                named = set().union(*map(_globals_named, codes))
                for other in ROLES:
                    if other != name:
                        crossing = named & set(table[other].names)
                        assert not crossing, (
                            "%s section names %s, bound only by the "
                            "deferred %s section"
                            % (name, sorted(crossing), other))

    def test_the_rule_catches_the_offender_it_was_written_for(self):
        """``_u_system_exception`` is raised from every IIOP ``_u_rep_*``
        codec: were it the client section's (it is printed between
        ``_check_reply`` and the proxy), a server decoding a reply —
        the gateway does — would die of a NameError."""
        stubs = api.compile(MAIL_IDL, "corba", backend="iiop").stubs
        table = {section.name: section for section in stubs.sections}
        codecs = _globals_named(_section_code(stubs, table["codecs"]))
        assert "_u_system_exception" in codecs
        assert "_u_system_exception" not in table["client"].names
        shared = _section_code(stubs, table["shared"])
        assert "_u_system_exception" in {
            code.co_name for code in _code_objects(shared)}
        # ...and it is where it always was in the text.
        lines = stubs.py_source.split("\n")
        at = lines.index("def _u_system_exception(d, o):")
        assert lines.index("def _check_reply(d, _ctx):") < at \
            < lines.index("class Test_MailClient(object):")

    def test_a_system_exception_reply_decodes_with_no_client_loaded(self):
        result = api.compile(MAIL_IDL, "corba", backend="iiop")
        module = result.module
        # A Request for an object this servant is not: answered with a
        # system-exception Reply.
        reply = StubServer(module, MailImpl(module)).serve_bytes(
            b"GIOP\x01\x00\x00\x00" + struct.pack(">IIIB", 32, 0, 7, 1)
            + b"\0\0\0" + struct.pack(">I", 4) + b"nope"
            + struct.pack(">I", 4) + b"avg\0" + struct.pack(">I", 0))
        assert "client" in pending_sections(module)
        decode = vars(module)["_u_rep_avg"]
        with pytest.raises(RemoteCallError, match="CORBA/[A-Z_]+:1.0"):
            decode(reply, 20)
        assert "client" in pending_sections(module)


class TestSectionsLoadOnce:
    def test_sixteen_threads_first_touching_every_section(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(
            loader, "compile",
            lambda source, *rest: compiled.append(source)
            or compile(source, *rest), raising=False)
        result = api.compile(MAIL_IDL, "corba", backend="iiop")
        module = result.module
        assert len(compiled) == 1
        assert pending_sections(module) == UNLOADED
        names = ("dispatch", "Test_MailClient", "encode_error_reply")
        barrier = threading.Barrier(16)
        seen, errors = [], []

        def touch(index):
            try:
                barrier.wait(timeout=30)
                order = names[index % 3:] + names[:index % 3]
                seen.append({name: getattr(module, name)
                             for name in order})
            except Exception as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=touch, args=(index,))
                       for index in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(seen) == 16
        # Load + one compile per section, whoever asked.
        assert len(compiled) == 4
        for objects in seen:
            for name in names:
                assert objects[name] is vars(module)[name]
        assert pending_sections(module) == ()
        assert "__getattr__" not in vars(module)

    def test_a_section_that_fails_to_load_stays_pending(self):
        source = "A = 1\ndef f():\n    return 1 / 0\nB = f()\n"
        module = loader.load_stub_module(source, "demo", (
            Section("shared", ((0, 1),)),
            Section("server", ((1, 5),), ("f", "B"))))
        for _ in range(2):
            with pytest.raises(ZeroDivisionError) as caught:
                module.B
        shown = "".join(traceback.format_exception(caught.value))
        assert "line 3, in f" in shown and "return 1 / 0" in shown
        assert pending_sections(module) == ("server",)


class _Counting:
    """Mail servant (examples/idl/mail.idl)."""

    def __init__(self):
        self.sent = []

    def send(self, msg, urgency):
        self.sent.append((msg, urgency))

    def check(self, user):
        return len(user)

    def fetch(self, slot):
        return "mail %d" % slot


class TestARoleLoadsItsOwnHalf:
    @pytest.mark.parametrize("backend", ("iiop", "oncrpc-xdr"))
    def test_server_and_client_over_tcp(self, backend):
        serving = api.compile(EXAMPLE_MAIL, "corba", backend=backend).module
        calling = api.compile(EXAMPLE_MAIL, "corba", backend=backend).module
        assert serving is not calling
        with StubServer(serving, _Counting()).tcp_server() as server:
            transport = TcpClientTransport(*server.address[:2])
            try:
                client = calling.MailClient(transport)
                for index in range(99):
                    assert client.check("u" * (index % 60)) == index % 60
            finally:
                transport.close()
            # The hundredth call loses its last three bytes on the way.
            (request,) = _requests(calling, [("check", ("flickers",))])
            with socket.create_connection(server.address[:2]) as raw:
                raw.settimeout(10)
                raw.sendall(struct.pack(">I", 0x80000000 | len(request) - 3)
                            + request[:-3])
                reply = recv_record(raw)
            with pytest.raises(RemoteCallError):
                _answer(calling, "check", reply)
        assert pending_sections(serving) == ("client",)
        assert pending_sections(calling) == ("errors", "server")


def _requests(module, calls):
    """The request bytes each ``(op, args)`` of *calls* puts on the wire."""

    class Capture:
        def call(self, request):
            sent.append(bytes(request))
            raise TransportError("captured")

        def send(self, request):
            sent.append(bytes(request))

    sent = []
    client = module.MailClient(Capture())
    for op, args in calls:
        try:
            getattr(client, op)(*args)
        except TransportError:
            pass
    return sent


def _answer(module, op, reply):
    """What the proxy makes of *reply* to its first call of *op*."""

    class Canned:
        def call(self, request):
            return reply

    return getattr(module.MailClient(Canned()), op)("flick")


class TestLazyEqualsEager:
    CALLS = (("send", ("hello", 3)), ("send", ("x" * 1024, -1)),
             ("check", ("flick",)), ("check", ("",)),
             ("fetch", (7,)), ("fetch", (-2,)))

    @pytest.mark.parametrize("renderer", ("py", "closures"))
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_replies_byte_identical_to_the_text_execd_whole(
            self, backend, renderer):
        result = api.compile(EXAMPLE_MAIL, "corba", backend=backend,
                             renderer=renderer)
        lazy = result.module
        assert pending_sections(lazy) == UNLOADED
        eager = types.ModuleType("eager")
        exec(compile(result.stubs.py_source, "<eager>", "exec"),
             eager.__dict__)
        # (The loaded module also carries what stubs.load() adds.)
        assert set(dir(eager)) - {"__builtins__"} <= set(dir(lazy))
        requests = _requests(eager, self.CALLS)
        assert requests == _requests(lazy, self.CALLS)
        assert len(requests) == len(self.CALLS)
        malformed = [request[:-3] for request in requests] + [b"", b"GIOP"]
        lazy_server = StubServer(lazy, _Counting())
        eager_server = StubServer(eager, _Counting())
        answers = []
        for request in requests + malformed:
            both = []
            for server in (lazy_server, eager_server):
                try:
                    both.append(server.serve_bytes(request))
                except FlickError as error:
                    both.append((type(error), str(error)))
            assert both[0] == both[1]
            answers.append(both[0])
        assert lazy_server.impl.sent == eager_server.impl.sent \
            == [("hello", 3), ("x" * 1024, -1)]
        assert any(isinstance(answer, bytes) for answer in answers)
        assert pending_sections(lazy) == ()


class TestReadersOfTheModuleDict:
    def test_dir_hasattr_getattr_default_and_operation_names(self):
        module = api.compile(MAIL_IDL, "corba", backend="oncrpc-xdr").module
        listed = dir(module)
        for name in ("dispatch", "Test_MailClient", "Test_MailServant",
                     "_HANDLERS", "_check_reply", "encode_error_reply",
                     "_m_req_avg", "Test_Point"):
            assert name in listed
        assert pending_sections(module) == UNLOADED  # dir() loaded nothing
        assert not hasattr(module, "no_such_name")
        assert getattr(module, "no_such_name", 5) == 5
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            module.nope
        assert pending_sections(module) == UNLOADED
        assert hasattr(module, "encode_error_reply")
        assert pending_sections(module) == ("client", "server")
        names = operation_names(module)
        assert sorted(names.values()) == sorted(
            ["send", "ping", "avg", "reverse", "tri", "_get_counter"])
        assert pending_sections(module) == ("client",)
        assert getattr(module, "Test_MailClient", None) is not None
        assert pending_sections(module) == ()
        assert sorted(dir(module)) == sorted(vars(module))

    def test_install_closures_over_a_loaded_py_module(self):
        """What the benchmark's traced replica does to its result."""
        result = api.compile(MAIL_IDL, "corba", backend="iiop")
        module = result.module
        install_closures(module, result.mir)
        assert pending_sections(module) == UNLOADED
        impl = MailImpl(module)
        client = module.Test_MailClient(
            LoopbackTransport(module.dispatch, impl))
        assert client.avg([1, 2, 3, 6]) == 3.0
        assert module.__renderer__ == "closures"

    @pytest.mark.parametrize("renderer", ("py", "closures"))
    def test_traceback_through_lazily_compiled_code(self, renderer):
        result = api.compile(EXAMPLE_MAIL, "corba", renderer=renderer)
        module = result.module
        lines = result.stubs.py_source.split("\n")

        class Crashing(_Counting):
            def check(self, user):
                raise KeyError(user)

        (request,) = _requests(module, [("check", ("boom",))])
        with pytest.raises(KeyError) as caught:
            module.dispatch(request, Crashing(), MarshalBuffer())
        frames = [frame for frame in traceback.extract_tb(
            caught.value.__traceback__) if frame.filename == module.__file__]
        assert [frame.name for frame in frames] == ["dispatch", "_h_check"]
        for frame in frames:
            assert frame.line == lines[frame.lineno - 1].strip()
        assert frames[0].line == "return _h(d, o, impl, b, _ctx)"
        assert frames[1].line == "_res = impl.check(_a0)"
        # The proxy's frame likewise.
        client = module.MailClient(
            LoopbackTransport(module.dispatch, Crashing()))
        with pytest.raises(KeyError) as caught:
            client.check("boom")
        frame = next(frame for frame in traceback.extract_tb(
            caught.value.__traceback__) if frame.name == "check"
            and frame.filename == module.__file__)
        assert frame.line == "_rd = self._transport.call(_b.view())"
        assert lines[frame.lineno - 1].strip() == frame.line

    def test_on_bound_sees_every_name_once_and_loads_nothing(self):
        module = api.compile(MAIL_IDL, "corba", backend="fluke").module
        batches = []
        on_bound(module, batches.append)
        assert len(batches) == 1 and "_m_req_avg" in batches[0]
        assert "dispatch" not in batches[0]
        assert pending_sections(module) == UNLOADED
        module.dispatch
        assert len(batches) == 2
        assert batches[1]["dispatch"] is module.dispatch
        assert "Test_MailServant" in batches[1]
        module.Test_MailClient, module.encode_error_reply
        assert len(batches) == 4
        names = [name for batch in batches for name in batch]
        assert len(names) == len(set(names))
        assert set(names) - {"__getattr__", "__dir__", loader._ATTR} \
            == set(vars(module))
        # An ordinary module — this one now, a baseline compiler's, a
        # hand-written one — is one batch.
        again = []
        on_bound(module, again.append)
        assert again == [dict(vars(module))]

    def test_tracing_wraps_the_proxy_when_its_section_loads(self):
        result = api.compile(MAIL_IDL, "corba", backend="oncrpc-xdr")
        module = result.module
        recorder = obs.CollectingExporter()
        obs.configure(recorder)
        try:
            obs.instrument_stub_module(module)
            # Wrapped when loaded, not loaded to be wrapped.
            assert pending_sections(module) == UNLOADED
            client = module.Test_MailClient(LoopbackTransport(
                module.dispatch, MailImpl(module)))
            assert client.avg([2, 4]) == 3.0
            calls = recorder.by_name("call")
            assert [span.attrs["op"] for span in calls] == ["avg"]
            assert {span.name for span in recorder.spans} \
                >= {"call", "encode", "decode"}
        finally:
            obs.shutdown()
        # Off again: the class carries its own methods.
        assert not hasattr(module.Test_MailClient.avg, "__wrapped__")
        assert client.avg([2, 4]) == 3.0
        assert len(recorder.by_name("call")) == 1


class TestBaselinesLoadWhole:
    @pytest.mark.parametrize("name", ("rpcgen", "powerrpc", "orbeline",
                                      "ilu", "mig"))
    def test_no_section_table(self, name):
        if name == "mig":
            presc = api.compile(MIG_IDL, "mig").presc
        else:
            presc = api.compile(EXAMPLE_MAIL, "corba").presc
        stubs = make_baseline(name).generate(presc)
        assert stubs.sections == ()
        module = stubs.load()
        assert pending_sections(module) == ()
        assert "dispatch" in vars(module)
