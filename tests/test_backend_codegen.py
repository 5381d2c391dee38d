"""Tests of generated-code structure: chunks, headers, demux, metadata.

These verify that the optimizations actually change the *shape* of the
emitted code the way the paper describes, not just that behaviour is
preserved.
"""

import re

import pytest

from repro import Flick, OptFlags
from repro.mint.analysis import StorageClass, analyze_storage

from tests.conftest import MAIL_IDL, compile_mail


def source_of(backend, flags=None):
    return compile_mail(backend, flags).stubs.py_source


class TestChunking:
    def test_rect_marshals_as_one_chunk(self):
        flick = Flick(frontend="corba", backend="oncrpc-xdr")
        result = flick.compile(
            "struct P { long x, y; }; struct R { P a; P b; };"
            "interface I { void f(in R r); };"
        )
        source = result.stubs.py_source
        # Four longs in one pack with one format string.
        assert re.search(r"_pack_into\('>iiii'", source)

    def test_chunking_off_packs_per_atom(self):
        flick = Flick(
            frontend="corba", backend="oncrpc-xdr",
            flags=OptFlags(chunk_atoms=False),
        )
        result = flick.compile(
            "struct P { long x, y; }; struct R { P a; P b; };"
            "interface I { void f(in R r); };"
        )
        source = result.stubs.py_source
        assert not re.search(r"_pack_into\('>iiii'", source)
        assert len(re.findall(r"_pack_into\('>i'", source)) >= 4

    def test_chunk_metadata_counts(self):
        result = compile_mail("oncrpc-xdr")
        operations = result.stubs.metadata["operations"]
        # tri(in Triangle): fixed array of 3 points, one batched chunk
        # together with any header patching.
        assert operations["tri"]["request_chunks"] >= 1

    def test_header_and_first_atoms_batch(self):
        flick = Flick(frontend="corba", backend="oncrpc-xdr")
        result = flick.compile("interface I { void f(in long a, in long b); };")
        source = result.stubs.py_source
        # After the 40-byte template, a and b pack together.
        assert re.search(r"_pack_into\('>ii'", source)


class TestBufferChecks:
    def test_one_reserve_for_fixed_region(self):
        flick = Flick(frontend="corba", backend="oncrpc-xdr")
        result = flick.compile(
            "struct P { long x, y; };"
            "interface I { void f(in P p, in P q); };"
        )
        body = _function_body(result.stubs.py_source, "_m_req_f")
        assert body.count(".reserve(") == 2  # header template + one chunk

    def test_per_atom_reserves_when_disabled(self):
        flick = Flick(
            frontend="corba", backend="oncrpc-xdr",
            flags=OptFlags(batch_buffer_checks=False, chunk_atoms=False),
        )
        result = flick.compile(
            "struct P { long x, y; };"
            "interface I { void f(in P p, in P q); };"
        )
        body = _function_body(result.stubs.py_source, "_m_req_f")
        assert body.count(".reserve(") >= 5


class TestMemcpy:
    def test_string_uses_slice_assignment(self):
        source = source_of("oncrpc-xdr")
        assert ".encode('latin-1')" in source
        assert re.search(r"b\.data\[.*\] = _s\d+", source)

    def test_atom_arrays_use_batched_pack(self):
        source = source_of("oncrpc-xdr")
        assert re.search(r"_pack_into\('>%di' % _n\d+", source)

    def test_memcpy_off_loops_bytes(self):
        source = source_of("oncrpc-xdr", OptFlags(memcpy_arrays=False))
        assert re.search(r"for _c\d+ in", source)


class TestInlining:
    def test_inline_by_default(self):
        flick = Flick(frontend="corba", backend="oncrpc-xdr")
        result = flick.compile(
            "struct P { long x, y; }; interface I { void f(in P p); };"
        )
        assert "def _m_P(" not in result.stubs.py_source

    def test_out_of_line_when_disabled(self):
        flick = Flick(
            frontend="corba", backend="oncrpc-xdr",
            flags=OptFlags(inline_marshal=False),
        )
        result = flick.compile(
            "struct P { long x, y; }; interface I { void f(in P p); };"
        )
        source = result.stubs.py_source
        assert "def _m_P(" in source
        assert "def _u_P(" in source

    def test_recursive_types_always_out_of_line(self):
        flick = Flick(frontend="oncrpc")
        result = flick.compile(
            "struct n { int v; n *next; };"
            "program P { version V { int f(n) = 1; } = 1; } = 9;"
        )
        source = result.stubs.py_source
        assert "def _m_n(" in source
        assert "_m_n(b, " in source


class TestDemux:
    def test_hash_demux_builds_dict(self):
        source = source_of("iiop")
        assert "_HANDLERS = {" in source
        assert "_HANDLERS.get(_key)" in source

    def test_linear_demux_chain(self):
        source = source_of("iiop", OptFlags(hash_demux=False))
        assert "_HANDLERS" not in source
        assert "elif _key ==" in source

    def test_metadata_records_style(self):
        assert compile_mail("iiop").stubs.metadata["demux"] == "hash"
        assert (
            compile_mail("iiop", OptFlags(hash_demux=False))
            .stubs.metadata["demux"] == "linear"
        )


class TestHeaders:
    def test_onc_call_header_template(self):
        result = compile_mail("oncrpc-xdr")
        module = result.load_module()
        template = module._H_req_send
        assert len(template) == 40
        import struct

        fields = struct.unpack(">IIIIIIIIII", template)
        assert fields[1] == 0      # CALL
        assert fields[2] == 2      # RPC version

    def test_giop_magic_and_patches(self):
        result = compile_mail("iiop")
        module = result.load_module()
        template = module._H_req_send
        assert template[:4] == b"GIOP"
        assert b"send\x00" in template
        assert b"Test::Mail" in template

    def test_mach_header(self):
        result = compile_mail("mach3")
        module = result.load_module()
        assert len(module._H_req_send) == 20

    def test_fluke_header_is_one_word(self):
        result = compile_mail("fluke")
        module = result.load_module()
        assert len(module._H_req_send) == 4

    def test_giop_message_size_patched(self):
        import struct

        result = compile_mail("iiop")
        module = result.load_module()
        from repro.encoding import MarshalBuffer

        buffer = MarshalBuffer()
        module._m_req_ping(buffer, 3, 9)
        data = buffer.getvalue()
        (size,) = struct.unpack_from(">I", data, 8)
        assert size == len(data) - 12


class TestStorageMetadata:
    def test_request_storage_classes(self):
        # Derived on read from the result's own PRES_C and back end;
        # generate() no longer walks storage for metadata nobody reads.
        result = compile_mail("oncrpc-xdr")
        presc = result.presc
        assert "request_storage" not in \
            result.stubs.metadata["operations"]["send"]
        storage = {
            stub.operation_name: analyze_storage(
                stub.request_pres.mint,
                result.stubs.backend_instance.wire_format,
                presc.mint_registry)
            for stub in presc.stubs
        }
        send = storage["send"]
        assert send.storage_class is StorageClass.UNBOUNDED
        tri = storage["tri"]
        assert tri.storage_class is StorageClass.FIXED
        assert tri.max_size == 24  # 3 points * 8 bytes

    def test_records_listed(self):
        metadata = compile_mail("oncrpc-xdr").stubs.metadata
        assert "Test_Rect" in metadata["records"]
        assert "Test::Bad" in metadata["exceptions"]


class TestGeneratedModuleSurface:
    def test_module_contents(self):
        module = compile_mail("iiop").load_module()
        for name in ("Test_MailClient", "Test_MailServant", "dispatch",
                     "Test_Rect", "Test_Point", "Test_Bad"):
            assert hasattr(module, name), name

    def test_record_equality_and_repr(self):
        module = compile_mail("iiop").load_module()
        a = module.Test_Point(1, 2)
        b = module.Test_Point(1, 2)
        assert a == b
        assert a != module.Test_Point(1, 3)
        assert "Test_Point(x=1, y=2)" == repr(a)

    def test_records_have_slots(self):
        module = compile_mail("iiop").load_module()
        point = module.Test_Point(1, 2)
        with pytest.raises(AttributeError):
            point.z = 3

    def test_source_attached_to_module(self):
        module = compile_mail("iiop").load_module()
        assert "Flick-generated" in module.__source__

    def test_c_artifacts_nonempty(self):
        stubs = compile_mail("iiop").stubs
        assert "flick_check_room" in stubs.c_source
        assert "#ifndef" in stubs.c_header


def _function_body(source, name):
    lines = source.split("\n")
    start = next(
        index for index, line in enumerate(lines)
        if line.startswith("def %s(" % name)
    )
    body = []
    for line in lines[start + 1:]:
        if line and not line.startswith((" ", "\t")):
            break
        body.append(line)
    return "\n".join(body)
