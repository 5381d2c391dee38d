"""Compile artifacts are derived when first read, and never twice.

Pins the three mechanisms that keep ``api.compile`` + load from paying
for what nobody reads: the C artifact is printed on first read of
``c_source``/``c_header``; a ``closures`` module loads its (unchanged)
text without the codec section and compiles each codec function at its
first call (and, since PR 24, each role's section at its first use —
``tests/test_lazy_sections.py``); MINT recursion answers are remembered per registry.  Each laziness
claim sits next to the equality it must not disturb.
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
from repro.backend import cemit
from repro.core import loader
from repro.encoding import MarshalBuffer
from repro.errors import BackEndError, MarshalError
from repro.mint.analysis import _recurses, is_recursive
from repro.mint.types import (
    MintInteger,
    MintRegistry,
    MintSlot,
    MintStruct,
    MintTypeRef,
)
from repro.mir import render_closures
from repro.mir.render_c import render_c
from repro.obs import profile
from repro.pgen import make_presentation
from repro.runtime import LoopbackTransport
from repro.tools.cli import main

from tests.conftest import DB_IDL, MAIL_IDL, MailImpl
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
    monkeypatch.setattr(cemit, "emit_c_stubs", refuse)


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
            cemit._c_label(2.5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_memoised_and_equal_to_the_renderer(self, backend):
        result = api.compile(MAIL_IDL, "corba", backend=backend)
        stubs = result.stubs
        assert stubs.c_source is stubs.c_source
        assert stubs.c_header is stubs.c_header
        source, header = render_c(stubs.backend_instance, result.presc,
                                  stubs.flags)
        assert stubs.c_source == source
        assert stubs.c_header == header
        with pytest.raises(AttributeError):
            stubs.c_source = "/* read-only */"

    def test_printed_once(self, monkeypatch):
        calls = []
        real = cemit.emit_c_stubs
        monkeypatch.setattr(
            cemit, "emit_c_stubs",
            lambda *args: calls.append(1) or real(*args))
        stubs = api.compile(DB_IDL, "oncrpc").stubs
        assert not calls
        assert stubs.c_header and stubs.c_source and stubs.c_source
        assert calls == [1]


@pytest.fixture
def codec_compiles(monkeypatch):
    """Names of the codec functions compiled after module load, in
    order: a spy on the one per-function source compile."""
    names = []

    def spy(source, filename, mode):
        code = compile(source, filename, mode)
        names.extend(const.co_name for const in code.co_consts
                     if isinstance(const, types.CodeType))
        return code

    monkeypatch.setattr(render_closures, "compile", spy, raising=False)
    return names


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


class TestClosureModulesLoadTheScaffoldOnly:
    @pytest.mark.parametrize("schema,backend", CASES)
    def test_same_text_same_name_no_codec_compiled(self, schema, backend,
                                                   monkeypatch,
                                                   codec_compiles):
        compiled = []

        def spy(source, filename, mode):
            code = compile(source, filename, mode)
            compiled.append(code)
            return code

        monkeypatch.setattr(loader, "compile", spy, raising=False)
        py, clo, drive = _compile_pair(schema, backend)
        assert py.stubs.py_source == clo.stubs.py_source
        assert clo.stubs.module_name == py.stubs.module_name + "_clo"
        module = clo.module
        assert module.__source__ == clo.stubs.py_source
        assert [code.co_filename for code in compiled] == [module.__file__]
        names = {code.co_name for code in _code_objects(compiled[0])}
        codec_names = {fn.name for fn in clo.mir.functions}
        assert codec_names and not codec_names & names
        # Since PR 24 the load compiles neither role: the client and
        # server sections compile at first use (drive() below).
        assert "_chk_end" in names
        assert "dispatch" not in names and "_check_reply" not in names
        # Every codec entry and helper is a deferred entry, and loading
        # compiled none of them.
        for name in codec_names:
            assert vars(module)[name].__module__ == \
                "repro.mir.render_closures", name
        assert codec_compiles == []
        assert {slot.op for slot in clo.codecs.entries()} \
            == set(clo.operations())
        # Header consts sit where the rendered text would have put them.
        py_module = py.module
        for fn in clo.mir.functions:
            for const in fn.consts:
                assert vars(module)[const] == vars(py_module)[const]
        drive(module)
        names = {code.co_name for loaded in compiled
                 if loaded.co_filename == module.__file__
                 for code in _code_objects(loaded)}
        assert "dispatch" in names and "_check_reply" in names
        assert not codec_names & names

    def test_py_renderer_compiles_the_text_a_section_at_a_time(
            self, monkeypatch):
        """Was ``..._compiles_the_whole_text``: the load compiles the
        shared and codec sections, each role's section compiles at its
        first use, and the pieces are the text — every line in exactly
        one of them, at its own line number."""
        compiled = []
        monkeypatch.setattr(
            loader, "compile",
            lambda source, *rest: compiled.append(source)
            or compile(source, *rest), raising=False)
        result = api.compile(DB_IDL, "oncrpc")
        module = result.module
        assert len(compiled) == 1
        assert "def _m_req_rev(" in compiled[0]
        assert "def dispatch(" not in compiled[0]
        assert "def _check_reply(" not in compiled[0]
        module.DB_DBVClient, module.dispatch, module.encode_error_reply
        assert len(compiled) == 4
        lines = result.stubs.py_source.split("\n")
        pieces = [text.split("\n") for text in compiled]
        for number, line in enumerate(lines):
            found = [piece[number] for piece in pieces
                     if number < len(piece) and piece[number]]
            assert found == ([line] if line else []), number

    def test_traceback_lines_match_the_unblanked_source(self):
        result = api.compile(MAIL_IDL, "corba", renderer="closures")
        module = result.module
        code = module.dispatch.__code__
        shown = result.stubs.py_source.split("\n")[code.co_firstlineno - 1]
        assert shown == "def dispatch(d, impl, b):"

    def test_traceback_through_a_codec_shows_its_generated_line(self):
        """The innermost frame is the function's own registered text
        (the parent raised from ``render_closures.py ... in step``), and
        that text goes when the module goes."""
        result = api.compile(open("examples/idl/mail.idl").read(), "corba",
                             renderer="closures")
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
    """The one decision the two renderer names differ in: when a codec
    function's text is compiled."""

    def test_first_call_compiles_that_function_and_nothing_else(
            self, codec_compiles):
        result = api.compile(DB_IDL, "oncrpc", renderer="closures")
        module, slots = result.module, result.codecs
        assert codec_compiles == []
        deferred = module._m_req_rev
        assert slots.base("_m_req_rev") is deferred
        first = MarshalBuffer()
        module._m_req_rev(first, 9, [3, 1, 2])
        assert codec_compiles == ["_m_req_rev"]
        # It handed over: the slot's base is the compiled function, and
        # what the module binds is that function itself.
        compiled = slots.base("_m_req_rev")
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
            self, codec_compiles):
        module = api.compile(DB_IDL, "oncrpc", renderer="closures").module
        chain = module.entry("a", 1, module.entry("b", 2, None))
        module._m_req_rev(MarshalBuffer(), 9, [1])
        assert codec_compiles == ["_m_req_rev"]  # reaches no helper
        deferred = module._m_entry
        b = MarshalBuffer()
        module._m_req_store(b, 9, chain)
        assert codec_compiles == ["_m_req_rev", "_m_req_store", "_m_entry"]
        assert module._m_entry is deferred.__wrapped__
        again = MarshalBuffer()
        module._m_req_store(again, 9, chain)
        assert again.getvalue() == b.getvalue()
        assert len(codec_compiles) == 3

    def test_reinstalling_over_a_loaded_module_keeps_its_layers(
            self, codec_compiles):
        """What the benchmark's ``compile_replica`` does: the new
        deferred entries go through ``set_base``, under live layers."""
        result = api.compile(DB_IDL, "oncrpc", renderer="closures")
        module, slots = result.module, result.codecs
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
            assert layered is not slots.base("_m_req_rev")
            assert innermost(layered) is slots.base("_m_req_rev")
        finally:
            obs.shutdown()

    def test_installing_over_a_py_module_compiles_only_what_is_called(
            self, codec_compiles):
        """A deferred entry compiles nothing until called, and then
        only itself — also over a module that loaded under ``py``."""
        result = api.compile(DB_IDL, "oncrpc")
        module, slots = result.module, result.codecs
        before = {slot.name: slot.base for slot in slots.entries()}
        want = _frames(before)
        render_closures.install_closures(module, result.mir)
        assert codec_compiles == []
        deferred = {slot.name: slot.base for slot in slots.entries()}
        assert not set(deferred.values()) & set(before.values())
        assert _frames(vars(module)) == want
        assert codec_compiles == ["_m_req_rev", "_m_rep_ok_rev"]
        for name, entry in deferred.items():
            if name in codec_compiles:  # handed over, and is new text
                assert slots.base(name) is entry.__wrapped__
                assert slots.base(name) is not before[name]
            else:  # still waiting for its first call
                assert slots.base(name) is entry
                assert not hasattr(entry, "__wrapped__")
        assert _frames(vars(module)) == want
        assert len(codec_compiles) == 2

    def test_first_calls_racing_on_threads_compile_once(
            self, codec_compiles, monkeypatch):
        """Eight threads make the first call of every entry of one fresh
        module at once, under a 0.01 ms switch interval, with the trace
        and profile layers on.  Each compile is held open long enough
        for every other thread to arrive while it runs."""
        threads = 8
        spy = render_closures.compile
        monkeypatch.setattr(
            render_closures, "compile",
            lambda *args: time.sleep(0.005) or spy(*args))
        result = api.compile(DB_IDL, "oncrpc", renderer="closures")
        module, slots = result.module, result.codecs
        want = _frames(vars(api.compile(DB_IDL, "oncrpc").module))
        deferred = {slot.name: slot.base for slot in slots.entries("rev")}
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
            for name, entry in deferred.items():
                assert slots.base(name) is entry.__wrapped__, name
                bound = vars(module)[name]  # profile over trace over it
                assert bound.__wrapped__.__wrapped__ is slots.base(name)
        finally:
            sys.setswitchinterval(interval)
            profile.shutdown()
            obs.shutdown()


def _presc_for(aoi_type):
    root = AoiRoot("<fuzz>")
    operation = AoiOperation(
        "echo", (AoiParameter("v", aoi_type, Direction.IN),), aoi_type,
        request_code=1)
    interface = AoiInterface("Fuzz", (operation,), code=(0x20009999, 1))
    root.add_interface(interface)
    validate(root)
    return make_presentation("corba-c").generate(root, interface)


def _assert_memo_agrees(registry):
    for name in registry.names():
        ref = MintTypeRef(name)
        want = _recurses(ref, registry, walking=())
        assert is_recursive(ref, registry) is want
        assert is_recursive(ref, registry) is want  # the memo hit
        assert registry.recursive_memo[name] is want


class TestRecursionMemo:
    def test_recursive_and_flat_named_types(self):
        registry = api.compile(DB_IDL, "oncrpc").presc.mint_registry
        _assert_memo_agrees(registry)
        assert is_recursive(MintTypeRef("entry"), registry)

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
        _assert_memo_agrees(_presc_for(aoi_type).mint_registry)

