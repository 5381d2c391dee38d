"""Compile artifacts are derived when first read, and never twice.

Pins the three mechanisms that keep ``api.compile`` + load from paying
for what nobody reads: the C artifact (and the PRES_C declarations it is
printed from) is built on first read of ``c_source``/``c_header``, and
the Python codecs on first read of ``py_source``/``mir``; a module loads
the scaffold — the text without its codec functions — lowers each
operation at the first call of one of its codecs and compiles each codec
function at its own first call, under either renderer name (and each
role's section at its first use — ``tests/test_lazy_sections.py`` — the
server's without its handlers, which compile at their first dispatch);
MINT recursion answers are remembered per registry.  Each laziness claim
sits next to the equality it must not disturb.
"""

import gc
import itertools
import linecache
import sys
import threading
import time
import traceback
import types

import pytest
from hypothesis import given, settings

from repro import api
from repro.aoi import (
    AoiInterface,
    AoiOperation,
    AoiParameter,
    AoiRoot,
    Direction,
    validate,
)
from repro import obs
from repro.core import loader
from repro.core.codecs import codec_form, of as slots_of
from repro.core.options import OptFlags
from repro.encoding import MarshalBuffer
from repro.errors import BackEndError, MarshalError, TransportError
from repro.mint.analysis import _recurses, is_recursive
from repro.mint.types import (
    MintInteger,
    MintRegistry,
    MintSlot,
    MintStruct,
    MintTypeRef,
)
from repro.backend.pywriter import PyWriter
from repro.mir import build, render_closures, render_py
from repro.mir import render_c
from repro.obs import profile
from repro.pgen import make_presentation
from repro.runtime import LoopbackTransport
from repro.runtime.server import operation_names
from repro.tools.cli import main

from tests.conftest import DB_IDL, MAIL_IDL, MailImpl, base_of
from tests.test_codec_slots import innermost
from tests.test_mir_renderers import CASES, _compile_pair
from tests.test_property_fuzz_types import _uniquify, type_value_pairs

BACKENDS = ("iiop", "oncrpc-xdr", "mach3", "fluke")


@pytest.fixture
def no_c_printer(monkeypatch):
    """Any attempt to print C fails the way an unprintable schema does."""
    def refuse(backend, presc, flags):
        raise BackEndError("the C printer cannot marshal presentation"
                           " node PresSynthetic (at msg)")
    monkeypatch.setattr(render_c, "render_c", refuse)


class TestCIsPrintedOnlyWhenRead:
    @pytest.mark.parametrize("renderer", ("py", "closures"))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compile_load_call_never_print_c(self, no_c_printer, backend,
                                             renderer):
        module = api.compile(MAIL_IDL, "corba", backend=backend,
                             renderer=renderer).module
        impl = MailImpl(module)
        client = module.Test_MailClient(
            LoopbackTransport(module.dispatch, impl))
        assert client.avg([1, 2, 3, 6]) == 3.0
        client.ping(7)
        assert impl.last_ping == 7

    def test_unprintable_schema_fails_on_first_read(self, no_c_printer):
        stubs = api.compile(MAIL_IDL, "corba").stubs
        with pytest.raises(BackEndError, match="PresSynthetic"):
            stubs.c_source
        with pytest.raises(BackEndError, match="PresSynthetic"):
            stubs.c_header

    def test_cli_reports_it_through_the_normal_error_exit(
            self, no_c_printer, tmp_path, capsys):
        source = tmp_path / "mail.idl"
        source.write_text(MAIL_IDL)
        out = str(tmp_path / "out")
        assert main(["compile", str(source), "-o", out,
                     "--emit", "py"]) == 0
        assert main(["compile", str(source), "-o", out,
                     "--emit", "c"]) == 1
        assert "flick: error: the C printer cannot" in \
            capsys.readouterr().err

    def test_printer_refusals_are_backend_errors(self):
        with pytest.raises(BackEndError, match="case label"):
            render_c._c_label(2.5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_memoised_and_equal_to_the_renderer(self, backend):
        result = api.compile(MAIL_IDL, "corba", backend=backend)
        stubs = result.stubs
        assert stubs.c_source is stubs.c_source
        assert stubs.c_header is stubs.c_header
        source, header = render_c.render_c(stubs.backend_instance,
                                           result.presc, stubs.flags)
        assert stubs.c_source == source
        assert stubs.c_header == header
        with pytest.raises(AttributeError):
            stubs.c_source = "/* read-only */"

    def test_printed_once(self, monkeypatch):
        calls = []
        real = render_c.render_c
        monkeypatch.setattr(
            render_c, "render_c",
            lambda *args: calls.append(1) or real(*args))
        stubs = api.compile(DB_IDL, "oncrpc").stubs
        assert not calls
        assert stubs.c_header and stubs.c_source and stubs.c_source
        assert calls == [1]

    def test_c_declarations_are_built_when_c_is_read(self):
        """``pgen`` builds PRES_C's CAST declarations — the prototype of
        each stub and the interface's typedefs — when C is first read:
        only the C printer reads them."""
        result = api.compile(MAIL_IDL, "corba")
        module = result.module
        client = module.Test_MailClient(
            LoopbackTransport(module.dispatch, MailImpl(module)))
        assert client.avg([1, 2]) == 1.5
        presc = result.presc
        assert "c_decls" not in vars(presc)
        assert not any("c_decl" in vars(stub) for stub in presc.stubs)
        assert result.stubs.c_source
        assert presc.c_decls is vars(presc)["c_decls"]
        assert all(stub.c_decl is vars(stub)["c_decl"]
                   for stub in presc.stubs)
        assert [stub.c_decl for stub in presc.stubs] == [
            decl for decl in presc.c_decls
            if type(decl).__name__ == "FuncDecl"]


@pytest.fixture
def codec_compiles(monkeypatch):
    """Names of the functions — codecs and handlers — compiled after
    module load, in order: a spy on the one per-function source
    compile."""
    names = []

    def spy(source, filename, mode):
        code = compile(source, filename, mode)
        names.extend(const.co_name for const in code.co_consts
                     if isinstance(const, types.CodeType))
        return code

    monkeypatch.setattr(render_closures, "compile", spy, raising=False)
    return names


@pytest.fixture
def lowerings(monkeypatch):
    """Names of the operations lowered to marshal IR, in order, one per
    lowering: a spy on the one per-operation lowering."""
    names = []
    real = build.build_operation

    def spy(backend, presc, stub, *rest):
        names.append(stub.operation_name)
        return real(backend, presc, stub, *rest)

    monkeypatch.setattr(build, "build_operation", spy)
    return names


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


class TestClosureModulesLoadTheScaffoldOnly:
    """Under either renderer name: both load a module the same way."""

    @pytest.mark.parametrize("schema,backend", CASES)
    def test_same_text_same_name_no_codec_compiled(self, schema, backend,
                                                   monkeypatch,
                                                   codec_compiles,
                                                   lowerings):
        compiled = []

        def spy(source, filename, mode):
            code = compile(source, filename, mode)
            compiled.append(code)
            return code

        monkeypatch.setattr(loader, "compile", spy, raising=False)
        py, clo, drive = _compile_pair(schema, backend)
        assert lowerings == []  # a compile lowers nothing
        assert py.stubs.scaffold == clo.stubs.scaffold
        assert clo.stubs.module_name == py.stubs.module_name
        codec_names = {fn.name for fn in clo.mir.functions}
        assert codec_names
        eager = {}
        exec(py.stubs.py_source, eager)
        assert py.stubs.py_source == clo.stubs.py_source
        for result in (py, clo):
            del compiled[:], lowerings[:]
            module = result.module
            assert module.__source__ == result.stubs.scaffold
            assert [code.co_filename for code in compiled] \
                == [module.__file__]
            names = {code.co_name for code in _code_objects(compiled[0])}
            assert not codec_names & names
            # Nor either role: the client and server sections compile
            # at first use (drive() below).  The shared section imports
            # the preamble (``_chk_end`` is bound, not compiled) and
            # builds its records and exceptions with the class factory.
            assert "_chk_end" in vars(module) and "_chk_end" not in names
            assert "__init__" not in names
            assert "dispatch" not in names and "_check_reply" not in names
            # Every codec entry is a deferred entry, and loading lowered
            # and compiled none of them.
            entries = {name for name in vars(module) if codec_form(name)[0]}
            assert entries == {fn.name for fn in result.mir.functions
                               if not fn.kind.endswith("_helper")}
            for name in entries:
                assert vars(module)[name].__module__ == \
                    "repro.mir.render_closures", name
            assert codec_compiles == [] and lowerings == []
            assert {slot.op for slot in slots_of(result.module).entries()} \
                == set(result.stubs.metadata["operations"])
            drive(module)
            names = {code.co_name for loaded in compiled
                     if loaded.co_filename == module.__file__
                     for code in _code_objects(loaded)}
            assert "dispatch" in names and "_check_reply" in names
            assert not codec_names & names
            assert codec_compiles
            # Each operation the drive reached lowered once, and bound
            # the header consts the text binds.
            assert lowerings and len(lowerings) == len(set(lowerings))
            for fn in result.mir.functions:
                for const in fn.consts:
                    if fn.operation in lowerings:
                        assert vars(module)[const] == eager[const]
                    else:
                        assert const not in vars(module)
            del codec_compiles[:]

    @pytest.mark.parametrize("renderer", ("py", "closures"))
    def test_load_compiles_no_codec_and_a_first_call_exactly_one(
            self, renderer, monkeypatch, codec_compiles, lowerings):
        """Folds three pins that said ``py`` compiles its codec section at
        load (``test_py_renderer_compiles_the_text_a_section_at_a_time``
        and the first-call pins).  Under either name: the load compiles
        the shared section and no codec, the server section loads without
        its handlers, a first call of a codec or handler compiles its own
        function and nothing else, and nothing compiles after that.  The
        pieces handed to ``compile()`` under the module's file are the
        scaffold — every line in exactly one of them, at its own line
        number — and the others each codec function's text as the
        whole-program printer prints it."""
        pieces = []
        spy = render_closures.compile
        monkeypatch.setattr(
            loader, "compile",
            lambda source, *rest: pieces.append((source, rest[0]))
            or compile(source, *rest), raising=False)
        monkeypatch.setattr(
            render_closures, "compile",
            lambda source, *rest: pieces.append((source, rest[0]))
            or spy(source, *rest))
        result = api.compile(DB_IDL, "oncrpc", renderer=renderer)
        module = result.module
        assert len(pieces) == 1 and codec_compiles == []
        assert "def _m_req_rev(" not in pieces[0][0]
        assert "def dispatch(" not in pieces[0][0]
        assert lowerings == []
        first = MarshalBuffer()
        module._m_req_rev(first, 9, [3, 1, 2])
        assert codec_compiles == ["_m_req_rev"] and lowerings == ["rev"]
        # It handed over: the module binds what the call compiled, under
        # the function's own file name.
        compiled = vars(module)["_m_req_rev"]
        assert compiled.__module__ == module.__name__
        assert compiled.__code__.co_filename.startswith(
            "<%s._m_req_rev_" % module.__name__)
        again = MarshalBuffer()
        module._m_req_rev(again, 9, [3, 1, 2])
        assert again.getvalue() == first.getvalue()
        assert codec_compiles == ["_m_req_rev"]
        module.DB_DBVClient, module.dispatch, module.encode_error_reply
        assert len(pieces) == 5 and codec_compiles == ["_m_req_rev"]
        (server,) = [section for section in result.stubs.sections
                     if section.name == "server"]
        deferred = [fn.name for fn in result.mir.functions] + [
            name for name, _first, _text in server.functions]
        assert len(server.functions) \
            == len(result.stubs.metadata["operations"])
        del lowerings[:]  # reading mir lowered the whole program
        for name in deferred:
            try:  # no arguments: fails in the function's own prologue
                vars(module)[name]()
            except TypeError:
                pass
        assert sorted(codec_compiles) == sorted(deferred)
        assert sorted(lowerings) == sorted(
            set(result.stubs.metadata["operations"]) - {"rev"})
        assert len(pieces) == 4 + len(codec_compiles)
        own = [text.split("\n") for text, filename in pieces
               if filename == module.__file__]
        for number, line in enumerate(result.stubs.scaffold.split("\n")):
            found = [piece[number] for piece in own
                     if number < len(piece) and piece[number]]
            assert found == ([line] if line else []), number
        printed = []
        for fn in result.mir.functions:
            w = PyWriter()
            render_py.render_function(w, fn)
            printed.append(w.getvalue())
        assert sorted(text for text, filename in pieces
                      if filename != module.__file__) == sorted(printed)

    def test_traceback_lines_match_the_unblanked_source(self):
        result = api.compile(MAIL_IDL, "corba", renderer="closures")
        module = result.module
        code = module.dispatch.__code__
        shown = result.stubs.scaffold.split("\n")[code.co_firstlineno - 1]
        assert shown == "def dispatch(d, impl, b):"

    def test_traceback_through_a_codec_shows_its_generated_line(self):
        """The innermost frame is the function's own line, under a file
        name of its own, ``<module.function_N>``: the text its first
        call rendered and compiled, which is what the module text
        prints for it.  That text goes when the module goes."""
        result = api.compile(open("examples/idl/mail.idl").read(), "corba")
        module = result.module
        with pytest.raises(MarshalError) as caught:
            module._m_req_send(MarshalBuffer(), 1, "x" * 2000, 1)
        frame = traceback.extract_tb(caught.value.__traceback__)[-1]
        assert frame.name == "_m_req_send"
        assert frame.filename.startswith(
            "<%s._m_req_send_" % module.__name__)
        raised = "raise MarshalError('string exceeds bound 1024')"
        assert linecache.getline(frame.filename, frame.lineno).strip() \
            == raised
        text = "".join(linecache.getlines(frame.filename))
        assert text.startswith("def _m_req_send(")
        assert "\n%s\n" % text.rstrip("\n") in result.stubs.py_source
        assert raised in "".join(
            traceback.format_exception(caught.value))
        linecache.checkcache()  # must not evict a live module's text
        assert frame.filename in linecache.cache
        filename = frame.filename
        del caught, frame, module, result
        gc.collect()
        assert filename not in linecache.cache


def _frames(table, xs=(3, 1, 2)):
    """Request and reply bytes of DB ``rev`` from a codec table."""
    request, reply = MarshalBuffer(), MarshalBuffer()
    table["_m_req_rev"](request, 9, list(xs))
    table["_m_rep_ok_rev"](reply, 9, list(xs)[::-1])
    return request.getvalue(), reply.getvalue()


class TestCodecsCompileAtFirstCall:
    """When a codec function's text is compiled: at its first call,
    under either renderer name (until the names stopped selecting a load
    path, this was the one decision they differed in)."""

    def test_first_call_compiles_that_function_and_nothing_else(
            self, codec_compiles):
        result = api.compile(DB_IDL, "oncrpc", renderer="closures")
        module, slots = result.module, slots_of(result.module)
        assert codec_compiles == []
        deferred = module._m_req_rev
        assert base_of(slots, "_m_req_rev") is deferred
        first = MarshalBuffer()
        module._m_req_rev(first, 9, [3, 1, 2])
        assert codec_compiles == ["_m_req_rev"]
        # It handed over: the slot's base is the compiled function, and
        # what the module binds is that function itself.
        compiled = base_of(slots, "_m_req_rev")
        assert compiled is module._m_req_rev is deferred.__wrapped__
        assert not hasattr(compiled, "__wrapped__")
        assert compiled.__globals__ is vars(module)
        assert compiled.__code__.co_filename.startswith(
            "<%s._m_req_rev_" % module.__name__)
        second = MarshalBuffer()
        module._m_req_rev(second, 9, [3, 1, 2])
        deferred(second, 9, [3, 1, 2])  # a caller that kept it: forwards
        assert codec_compiles == ["_m_req_rev"]
        assert second.getvalue() == first.getvalue() * 2
        assert first.getvalue() == _frames(
            vars(api.compile(DB_IDL, "oncrpc").module))[0]

    def test_a_helper_compiles_when_first_reached_and_once(
            self, codec_compiles, lowerings):
        """A helper is bound, as a deferred entry, by the lowering of the
        first operation that reaches it, and compiles at its first
        call."""
        module = api.compile(DB_IDL, "oncrpc", renderer="closures").module
        chain = module.entry("a", 1, module.entry("b", 2, None))
        module._m_req_rev(MarshalBuffer(), 9, [1])
        assert codec_compiles == ["_m_req_rev"]  # reaches no helper
        assert "_m_entry" not in vars(module)  # nor does its lowering
        try:  # no arguments: lowers ``store``, fails in the prologue
            module._u_req_store()
        except TypeError:
            pass
        assert lowerings == ["rev", "store"]
        deferred = module._m_entry
        assert deferred.__module__ == "repro.mir.render_closures"
        b = MarshalBuffer()
        module._m_req_store(b, 9, chain)
        assert codec_compiles == [
            "_m_req_rev", "_u_req_store", "_m_req_store", "_m_entry"]
        assert module._m_entry is deferred.__wrapped__
        again = MarshalBuffer()
        module._m_req_store(again, 9, chain)
        assert again.getvalue() == b.getvalue()
        assert len(codec_compiles) == 4
        assert lowerings == ["rev", "store"]

    def test_reinstalling_over_a_loaded_module_keeps_its_layers(
            self, codec_compiles):
        """What the benchmark's ``compile_replica`` does: the new
        deferred entries go through ``set_base``, under live layers."""
        result = api.compile(DB_IDL, "oncrpc", renderer="closures")
        module, slots = result.module, slots_of(result.module)
        try:
            obs.configure(obs.CollectingExporter())
            obs.instrument_stub_module(module)
            want = _frames(vars(module))
            heard = []
            slots.subscribe(lambda op, names: heard.extend(names))
            render_closures.install_closures(module, result.mir)
            assert sorted(heard) == sorted(
                slot.name for slot in slots.entries())
            del codec_compiles[:]
            assert _frames(vars(module)) == want
            assert codec_compiles == ["_m_req_rev", "_m_rep_ok_rev"]
            layered = module._m_req_rev
            assert layered is not base_of(slots, "_m_req_rev")
            assert innermost(layered) is base_of(slots, "_m_req_rev")
        finally:
            obs.shutdown()

    def test_installing_over_a_py_module_compiles_only_what_is_called(
            self, codec_compiles):
        """A deferred entry compiles nothing until called, and then
        only itself — also over a loaded module whose codecs have run
        (the ``py`` module this pin was written for compiled them at
        load)."""
        result = api.compile(DB_IDL, "oncrpc")
        module, slots = result.module, slots_of(result.module)
        want = _frames(vars(module))
        before = {slot.name: slot.base for slot in slots.entries()}
        del codec_compiles[:]
        render_closures.install_closures(module, result.mir)
        assert codec_compiles == []
        deferred = {slot.name: slot.base for slot in slots.entries()}
        assert not set(deferred.values()) & set(before.values())
        assert _frames(vars(module)) == want
        assert codec_compiles == ["_m_req_rev", "_m_rep_ok_rev"]
        for name, entry in deferred.items():
            if name in codec_compiles:  # handed over, and is new text
                assert base_of(slots, name) is entry.__wrapped__
                assert base_of(slots, name) is not before[name]
            else:  # still waiting for its first call
                assert base_of(slots, name) is entry
                assert not hasattr(entry, "__wrapped__")
        assert _frames(vars(module)) == want
        assert len(codec_compiles) == 2

    @pytest.mark.parametrize("layered", (True, False),
                             ids=("layers", "no-slots"))
    @pytest.mark.parametrize("renderer", ("py", "closures"))
    def test_first_calls_racing_on_threads_compile_once(
            self, codec_compiles, lowerings, monkeypatch, renderer,
            layered):
        """Eight threads make the first call of every entry of one fresh
        module at once, under a 0.01 ms switch interval, with the trace
        and profile layers on — or with no codec slots built, so the
        hand-over binds the module's globals itself.  Each compile is
        held open long enough for every other thread to arrive while it
        runs."""
        threads = 8
        want = _frames(vars(api.compile(DB_IDL, "oncrpc").module))
        del codec_compiles[:], lowerings[:]
        spy = render_closures.compile
        monkeypatch.setattr(
            render_closures, "compile",
            lambda *args: time.sleep(0.005) or spy(*args))
        result = api.compile(DB_IDL, "oncrpc", renderer=renderer)
        module = result.module
        deferred = {name: entry for name, entry in vars(module).items()
                    if codec_form(name)[1] == "rev"}
        barrier = threading.Barrier(threads)
        got, errors = [], []

        def first_call():
            try:
                barrier.wait(timeout=30)
                request, reply = _frames(vars(module))
                at = len(request) - 16  # count word + three ints
                got.append((request, reply,
                            module._u_req_rev(request, at),
                            module._u_rep_rev(
                                reply, module._check_reply(reply, 9))))
            except Exception as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            if layered:
                obs.configure(obs.CollectingExporter())
                obs.instrument_stub_module(module)
                profile.configure(sample=1)
                profile.instrument_stub_module(module)
            workers = [threading.Thread(target=first_call)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
            assert errors == []
            values = (([3, 1, 2],), len(want[0])), [2, 1, 3]
            assert got == [want + values] * threads
            # One compile and one compiled function per entry; every
            # deferred entry handed over to it, under the same layers.
            assert sorted(codec_compiles) == sorted(deferred)
            assert lowerings == ["rev"]  # its first callers raced
            for name, entry in deferred.items():
                bound = vars(module)[name]
                if layered:  # profile over trace over the base
                    assert base_of(slots_of(result.module), name) \
                        is entry.__wrapped__
                    bound = bound.__wrapped__.__wrapped__
                assert bound is entry.__wrapped__, name
        finally:
            sys.setswitchinterval(interval)
            profile.shutdown()
            obs.shutdown()


def _requests(module, calls):
    """The request bytes each ``(op, args)`` of *calls* puts on the wire
    from *module*'s Mail proxy."""

    class Capture:
        def call(self, request):
            sent.append(bytes(request))
            raise TransportError("captured")

        def send(self, request):
            sent.append(bytes(request))

    sent = []
    client = module.Test_MailClient(Capture())
    for op, args in calls:
        try:
            getattr(client, op)(*args)
        except TransportError:
            pass
    return sent


class TestHandlersCompileAtFirstDispatch:
    """The ``server`` section loads without its ``_h_*`` handlers: each is
    a deferred entry of the table the codecs are deferred in, and its
    first call hands over in the module's globals and in ``_HANDLERS``."""

    NAMES = ["_get_counter", "avg", "ping", "reverse", "send", "tri"]

    @pytest.mark.parametrize("renderer", ("py", "closures"))
    def test_first_dispatch_hands_over_its_handler_only(
            self, renderer, codec_compiles):
        result = api.compile(MAIL_IDL, "corba", backend="oncrpc-xdr",
                             renderer=renderer)
        module = result.module
        names = operation_names(module)  # loads the section, no handler
        assert sorted(names.values()) == self.NAMES
        assert codec_compiles == []
        handlers = vars(module)["_HANDLERS"]
        entries = dict(handlers)
        for entry in entries.values():
            assert entry.__module__ == "repro.mir.render_closures"
            assert vars(module)[entry.__name__] is entry
        avg = {name: key for key, name in names.items()}["avg"]
        client = module.Test_MailClient(
            LoopbackTransport(module.dispatch, MailImpl(module)))
        assert client.avg([1, 2, 3, 6]) == 3.0
        assert [name for name in codec_compiles
                if name.startswith("_h_")] == ["_h_avg"]
        compiled = handlers[avg]
        assert compiled is module._h_avg is entries[avg].__wrapped__
        assert compiled is not entries[avg]
        assert compiled.__code__.co_filename == module.__file__
        for key, entry in entries.items():
            if key != avg:
                assert handlers[key] is entry
                assert vars(module)[entry.__name__] is entry
                assert not hasattr(entry, "__wrapped__")
        assert client.avg([2, 4]) == 3.0
        assert [name for name in codec_compiles
                if name.startswith("_h_")] == ["_h_avg"]
        assert operation_names(module) == names

    def test_the_if_chain_hands_over_through_the_global(self,
                                                        codec_compiles):
        result = api.compile(MAIL_IDL, "corba", backend="iiop",
                             flags=OptFlags(hash_demux=False))
        module = result.module
        assert "_HANDLERS" not in dir(module)
        deferred = module._h_avg  # loads the section
        assert deferred.__module__ == "repro.mir.render_closures"
        client = module.Test_MailClient(
            LoopbackTransport(module.dispatch, MailImpl(module)))
        assert client.avg([1, 2, 3, 6]) == 3.0
        assert module._h_avg is deferred.__wrapped__
        assert module._h_ping.__module__ == "repro.mir.render_closures"
        assert [name for name in codec_compiles
                if name.startswith("_h_")] == ["_h_avg"]

    def test_first_dispatches_racing_on_threads_compile_once(
            self, codec_compiles, lowerings, monkeypatch):
        """Eight threads make the first dispatch of ``avg`` on one fresh
        module at once — the server section's load, the handler's and
        the codecs' first calls — each compile held open long enough for
        the others to arrive."""
        threads = 8
        module = api.compile(MAIL_IDL, "corba", backend="iiop").module
        (request,) = _requests(module, [("avg", ([1, 2, 3, 6],))])
        want = MarshalBuffer()
        api.compile(MAIL_IDL, "corba", backend="iiop").module.dispatch(
            request, MailImpl(module), want)
        del codec_compiles[:], lowerings[:]
        spy = render_closures.compile
        monkeypatch.setattr(
            render_closures, "compile",
            lambda *args: time.sleep(0.005) or spy(*args))
        barrier = threading.Barrier(threads)
        got, errors = [], []

        def first_dispatch():
            try:
                barrier.wait(timeout=30)
                reply = MarshalBuffer()
                module.dispatch(request, MailImpl(module), reply)
                got.append(reply.getvalue())
            except Exception as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=first_dispatch)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert got == [want.getvalue()] * threads
        assert sorted(codec_compiles) == [
            "_h_avg", "_m_rep_ok_avg", "_u_req_avg"]
        # ``avg`` was lowered when its request was encoded, above.
        assert lowerings == []
        assert vars(module)["_h_avg"].__module__ == module.__name__


def _presc_for(aoi_type):
    root = AoiRoot("<fuzz>")
    operation = AoiOperation(
        "echo", (AoiParameter("v", aoi_type, Direction.IN),), aoi_type,
        request_code=1)
    interface = AoiInterface("Fuzz", (operation,), code=(0x20009999, 1))
    root.add_interface(interface)
    validate(root)
    return make_presentation("corba-c").generate(root, interface)


def _assert_memo_agrees(presc):
    """Over the named types (PRES names each one MINT defines)."""
    registry = presc.mint_registry
    for name in presc.pres_registry.names():
        ref = MintTypeRef(name)
        want = _recurses(ref, registry, walking=())
        assert is_recursive(ref, registry) is want
        assert is_recursive(ref, registry) is want  # the memo hit
        assert registry.recursive_memo[name] is want


class TestRecursionMemo:
    def test_recursive_and_flat_named_types(self):
        presc = api.compile(DB_IDL, "oncrpc").presc
        _assert_memo_agrees(presc)
        assert is_recursive(MintTypeRef("entry"), presc.mint_registry)

    def test_a_later_define_is_seen(self):
        """Definitions are write-once, so a completed answer cannot go
        stale; ``define`` empties the memo anyway, so that holds by
        construction rather than by that argument."""
        registry = MintRegistry()
        registry.define("leaf", MintStruct((MintSlot("x", MintInteger(
            32, True)),)))
        registry.define("node", MintStruct((
            MintSlot("x", MintTypeRef("leaf")),
            MintSlot("next", MintTypeRef("tail")),
        )))
        assert is_recursive(MintTypeRef("leaf"), registry) is False
        with pytest.raises(KeyError):
            is_recursive(MintTypeRef("node"), registry)
        assert registry.recursive_memo == {"leaf": False}
        registry.define("tail", MintStruct((
            MintSlot("back", MintTypeRef("node")),)))
        assert registry.recursive_memo == {}
        assert is_recursive(MintTypeRef("node"), registry) is True
        assert is_recursive(MintTypeRef("leaf"), registry) is False

    def test_unnamed_types_and_missing_registry_are_not_memoised(self):
        registry = MintRegistry()
        struct = MintStruct((MintSlot("x", MintInteger(32, True)),))
        assert is_recursive(struct, registry) is False
        assert is_recursive(struct) is False
        assert registry.recursive_memo == {}

    @settings(max_examples=40, deadline=None)
    @given(pair=type_value_pairs)
    def test_agrees_with_the_unmemoised_walk(self, pair):
        aoi_type = _uniquify(pair[0], itertools.count())
        _assert_memo_agrees(_presc_for(aoi_type))

