"""Compile artifacts are derived when first read, and never twice.

Pins the three mechanisms that keep ``api.compile`` + load from paying
for what nobody reads: the C artifact is printed on first read of
``c_source``/``c_header``; a ``closures`` module compiles only the
scaffold of its (unchanged) text; MINT recursion answers are remembered
per registry.  Each laziness claim sits next to the equality it must not
disturb.
"""

import itertools
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
from repro.backend import cemit
from repro.core import loader
from repro.errors import BackEndError
from repro.mint.analysis import _recurses, is_recursive
from repro.mint.types import (
    MintInteger,
    MintRegistry,
    MintSlot,
    MintStruct,
    MintTypeRef,
)
from repro.mir.render_c import render_c
from repro.pgen import make_presentation
from repro.runtime import LoopbackTransport
from repro.tools.cli import main

from tests.conftest import DB_IDL, MAIL_IDL, MailImpl
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


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


class TestClosureModulesLoadTheScaffoldOnly:
    @pytest.mark.parametrize("schema,backend", CASES)
    def test_same_text_same_name_no_codec_compiled(self, schema, backend,
                                                   monkeypatch):
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
        assert "dispatch" in names and "_check_reply" in names
        # Every codec entry and helper is a closure driver.
        for name in codec_names:
            assert vars(module)[name].__module__ == \
                "repro.mir.render_closures", name
        assert all(entry["renderer"] == "closures"
                   for entry in clo.codecs.describe().values())
        assert set(clo.codecs.describe()) == set(clo.operations())
        # Header consts sit where the rendered text would have put them.
        py_module = py.module
        for fn in clo.mir.functions:
            for const in fn.consts:
                assert vars(module)[const] == vars(py_module)[const]
        drive(module)

    def test_py_renderer_compiles_the_whole_text(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(
            loader, "compile",
            lambda source, *rest: compiled.append(source)
            or compile(source, *rest), raising=False)
        result = api.compile(DB_IDL, "oncrpc")
        result.module
        assert compiled == [result.stubs.py_source]

    def test_traceback_lines_match_the_unblanked_source(self):
        result = api.compile(MAIL_IDL, "corba", renderer="closures")
        module = result.module
        code = module.dispatch.__code__
        shown = result.stubs.py_source.split("\n")[code.co_firstlineno - 1]
        assert shown == "def dispatch(d, impl, b):"


class TestRecompileRendersOneOp:
    def test_py_promotion_compiles_only_the_selected_entries(
            self, monkeypatch):
        from repro.core import handle as handle_module
        from repro.encoding import MarshalBuffer

        texts = []
        monkeypatch.setattr(
            handle_module, "compile",
            lambda source, *rest: texts.append(source)
            or compile(source, *rest), raising=False)
        result = api.compile(DB_IDL, "oncrpc", renderer="closures")
        new = result.recompile("rev", renderer="py", install=False)
        assert sorted(new) == ["_m_rep_ok_rev", "_m_req_rev",
                               "_u_rep_rev", "_u_req_rev"]
        (text,) = texts
        for fn in result.mir.functions:
            wanted = fn.operation in ("rev", "")  # "": shared helpers
            assert ("def %s(" % fn.name in text) is wanted, fn.name
        assert "def _m_entry(" in text
        # The same bytes, and the same values back, as the entries of a
        # whole-program recompile.
        whole = result.recompile(renderer="py", install=False)
        assert len(texts[1]) > len(text)

        def frames(table):
            request, reply = MarshalBuffer(), MarshalBuffer()
            table["_m_req_rev"](request, 9, [3, 1, 2])
            table["_m_rep_ok_rev"](reply, 9, [2, 1, 3])
            return request.getvalue(), reply.getvalue()

        request, reply = frames(new)
        assert (request, reply) == frames(whole)
        body = len(request) - 16  # count word + three ints
        assert new["_u_req_rev"](request, body) == \
            whole["_u_req_rev"](request, body) == (([3, 1, 2],), len(request))
        at = result.module._check_reply(reply, 9)
        assert new["_u_rep_rev"](reply, at) == \
            whole["_u_rep_rev"](reply, at) == [2, 1, 3]


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

