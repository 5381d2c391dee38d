"""Unit tests for core infrastructure: loader, options, writer, server."""

import gc
import linecache
import sys
import traceback

import pytest

from repro import OptFlags
from repro.core.loader import load_stub_module
from repro.backend.base import Section
from repro.backend.pywriter import PyWriter
from repro.runtime import LoopbackTransport, StubServer

from tests.conftest import MailImpl, compile_mail


class TestLoader:
    def test_module_executes(self):
        module = load_stub_module("VALUE = 41 + 1\n", "demo")
        assert module.VALUE == 42

    def test_unique_names_and_readable_tracebacks(self):
        first = load_stub_module("X = 1\n", "demo")
        second = load_stub_module(
            "def boom():\n    raise KeyError('generated line')\n", "demo")
        assert first.__name__ != second.__name__
        assert first.__file__ != second.__file__
        # Stub modules are not immortal: nothing goes into sys.modules.
        assert first.__name__ not in sys.modules
        assert second.__name__ not in sys.modules
        with pytest.raises(KeyError) as caught:
            second.boom()
        shown = "".join(traceback.format_exception(caught.value))
        assert 'File "%s", line 2, in boom' % second.__file__ in shown
        assert "raise KeyError('generated line')" in shown

    def test_source_released_with_the_module(self):
        module = load_stub_module("X = 1\n", "demo")
        filename = module.__file__
        assert linecache.getlines(filename) == ["X = 1\n"]
        linecache.checkcache()  # must not evict a live module's source
        assert filename in linecache.cache
        del module
        gc.collect()
        assert filename not in linecache.cache

    def test_skipped_lines_are_shown_but_not_compiled(self):
        """A deferred section's ``functions`` are left out of its
        compile, for *defer* to bind; the lines after them keep their
        numbers."""
        source = ("A = 1\ndef skipped():\n    return 2\n"
                  "def boom():\n    raise KeyError(A)\n")
        sections = (Section("shared", ((0, 1),)),
                    Section("server", ((1, 6),), ("skipped", "boom"), (
                        ("skipped", 1, "def skipped():\n    return 2"),)))
        deferred = []
        module = load_stub_module(source, "demo", sections,
                                  defer=deferred.extend)
        assert module.__source__ == source
        with pytest.raises(KeyError) as caught:
            module.boom()
        assert [name for name, _first, _text in deferred] == ["skipped"]
        assert "skipped" not in vars(module)
        shown = "".join(traceback.format_exception(caught.value))
        assert "line 5, in boom" in shown and "raise KeyError(A)" in shown

    def test_source_preserved(self):
        module = load_stub_module("X = 1\n", "demo")
        assert module.__source__ == "X = 1\n"

    def test_broken_module_not_registered(self):
        before = set(sys.modules)
        with pytest.raises(ZeroDivisionError):
            load_stub_module("X = 1 / 0\n", "broken")
        assert not any(
            name.startswith("broken") for name in set(sys.modules) - before
        )

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            load_stub_module("def broken(:\n", "bad")

    def test_generated_stubs_load_is_cached(self):
        result = compile_mail("fluke")
        assert result.stubs.load() is result.stubs.load()


class TestOptFlags:
    def test_defaults_all_on(self):
        flags = OptFlags()
        assert flags.inline_marshal and flags.chunk_atoms
        assert flags.memcpy_arrays and flags.batch_buffer_checks
        assert flags.hash_demux and flags.reuse_buffers
        assert flags.iterative_lists
        assert not flags.zero_copy_server

    def test_all_off(self):
        flags = OptFlags.all_off()
        assert not any([
            flags.inline_marshal, flags.chunk_atoms, flags.memcpy_arrays,
            flags.batch_buffer_checks, flags.hash_demux,
            flags.reuse_buffers, flags.iterative_lists,
        ])

    def test_but_returns_modified_copy(self):
        flags = OptFlags()
        modified = flags.but(chunk_atoms=False)
        assert flags.chunk_atoms and not modified.chunk_atoms

    def test_hashable_for_caching(self):
        assert OptFlags() == OptFlags()
        assert hash(OptFlags()) == hash(OptFlags())
        assert OptFlags() != OptFlags(chunk_atoms=False)

    def test_but_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            OptFlags().but(warp_drive=True)


class TestPyWriter:
    def test_indentation(self):
        writer = PyWriter()
        writer.line("def f():")
        writer.indent()
        writer.line("return 1")
        writer.dedent()
        assert writer.getvalue() == "def f():\n    return 1\n"

    def test_block_context_manager(self):
        writer = PyWriter()
        with writer.block("if x:"):
            writer.line("pass")
        assert writer.getvalue() == "if x:\n    pass\n"

    def test_dedent_below_zero_rejected(self):
        writer = PyWriter()
        with pytest.raises(ValueError):
            writer.dedent()

    def test_temps_are_unique(self):
        writer = PyWriter()
        names = {writer.temp() for _ in range(100)}
        assert len(names) == 100

    def test_blank_lines_have_no_trailing_whitespace(self):
        writer = PyWriter()
        writer.indent()
        writer.blank()
        writer.line("x = 1")
        assert writer.getvalue() == "\n    x = 1\n"


class TestStubServer:
    def test_serve_bytes_roundtrip(self):
        module = compile_mail("oncrpc-xdr").module
        server = StubServer(module, MailImpl(module))
        from repro.encoding import MarshalBuffer

        request = MarshalBuffer()
        module._m_req_avg(request, 1, [4, 6])
        reply = server.serve_bytes(request.getvalue())
        assert reply is not None
        assert module._u_rep_avg(reply, 24) == 5.0

    def test_serve_bytes_oneway_returns_none(self):
        module = compile_mail("oncrpc-xdr").module
        impl = MailImpl(module)
        server = StubServer(module, impl)
        from repro.encoding import MarshalBuffer

        request = MarshalBuffer()
        module._m_req_ping(request, 1, 31)
        assert server.serve_bytes(request.getvalue()) is None
        assert impl.last_ping == 31

    def test_loopback_transport_serves_the_servant(self):
        module = compile_mail("oncrpc-xdr").module
        client = module.Test_MailClient(
            LoopbackTransport(module.dispatch, MailImpl(module)))
        assert client.avg([9]) == 9.0
