"""The C artifact's shape: the paper's code-generation idioms, printed
from the marshal IR (``repro.mir.render_c``)."""

import re

import pytest

from repro import api

from tests.conftest import compile_mail, compile_db


@pytest.fixture(scope="module")
def c_source():
    return compile_mail("oncrpc-xdr").stubs.c_source


@pytest.fixture(scope="module")
def c_header():
    return compile_mail("oncrpc-xdr").stubs.c_header


def function(source, opening):
    """The text of the C function whose definition starts *opening*."""
    start = source.index(opening + "(")
    return source[start:source.index("\n}\n", start)]


class TestHeaderFile:
    def test_include_guard(self, c_header):
        assert "#ifndef FLICK_TEST_MAIL_H" in c_header
        assert "#endif" in c_header

    def test_type_declarations_present(self, c_header):
        assert "struct Test_Rect {" in c_header
        assert "enum Test_Color {" in c_header
        # A user exception is a C record too: the client decodes into one.
        assert "typedef struct Test_Bad Test_Bad;" in c_header

    def test_stub_prototypes_present(self, c_header):
        assert "Test_Mail_send(" in c_header


class TestStubFile:
    def test_chunk_pointer_constant_offsets(self, c_source):
        # The paper's signature codegen: the Rect's four atoms are stored
        # at constant offsets from one chunk start, which never moves.
        send = function(c_source, "CORBA_long Test_Mail_send")
        assert re.search(
            r"size_t (_o\d+) = flick_reserve\(_buf, 16\);\n"
            r"(\s+flick_put_s32be\(_buf->data \+ \1 \+ (0|4|8|12), "
            r"[^\n]+\n){4}", send), send

    def test_one_room_check_per_chunk(self, c_source):
        send = function(c_source, "CORBA_long Test_Mail_send")
        stores = re.findall(r"flick_put_\w+\(", send)
        checks = re.findall(r"flick_reserve(_padded)?\(", send)
        # Header, string header, Rect, and one chunk per union arm.
        assert len(checks) == 7 and len(stores) > len(checks), send

    def test_memcpy_for_strings(self, c_source):
        assert re.search(
            r"memcpy\(_buf->data \+ _o\d+ \+ 4, _s\d+, _n\d+\);", c_source)

    def test_header_template_constants(self, c_source):
        assert "static const char _H_req_send[40]" in c_source

    def test_dispatch_switch(self, c_source):
        assert "switch (flick_demux_word(_in, 0))" in c_source
        assert "default: return FLICK_NO_SUCH_OPERATION;" in c_source

    def test_operation_names_switch_a_word_at_a_time(self):
        source = api.compile(
            "interface L { void put_ints(in long a);"
            " void put_rects(in long a); void get(in long a); };",
            "corba", backend="iiop").stubs.c_source
        assert "case 0x7075745fu: {" in source  # "put_", then a word more
        assert "switch (flick_demux_word(_in, 1))" in source

    def test_union_arms_switch_on_the_discriminator(self, c_source):
        send = function(c_source, "CORBA_long Test_Mail_send")
        assert re.search(r"__auto_type (_d\d+) = \(\*v\)\._d;\n"
                         r"\s+if \(\1 == 0\) \{", send), send

    def test_no_python_spelling_reaches_c(self, c_source):
        for spelling in (r"\.encode\(", r"\blen\(", " is None", r"map\(ord",
                         r"\b_a0\b", "_pack_into"):
            assert not re.search(spelling, c_source), spelling

    def test_recursive_type_out_of_line(self):
        c_source = compile_db().stubs.c_source
        assert ("FLICK_LOCAL void _m_entry(flick_buf_t *_buf,"
                " const entry *v)\n{") in c_source
        assert "_m_entry(_buf, (const void *)&(" in c_source


class TestCdrVariant:
    def test_strings_carry_their_nul_and_no_padding(self):
        c_source = compile_mail("iiop").stubs.c_source
        assert re.search(r"memcpy\(_buf->data \+ _o\d+ \+ 4, _s\d+, "
                         r"(_n\d+) - 1\);\n\s+\(_buf->data \+ _o\d+ \+ 4\)"
                         r"\[\1 - 1\] = 0;", c_source)

    def test_strings_stay_in_the_receive_buffer(self):
        # CDR strings arrive NUL-terminated: the servant is handed a
        # pointer into the request (section 3.1) ...
        serve = function(compile_mail("iiop").stubs.c_source,
                         "int _flick_serve_send")
        assert "msg = (char *)(_m + _o);  /* left in the receive buffer */" \
            in serve

    def test_xdr_strings_are_terminated_copies(self, c_source):
        # ... XDR strings do not, so they are copied and terminated.
        serve = function(c_source, "int _flick_serve_send")
        assert re.search(r"msg = flick_strndup\(_m \+ _o, _n\d+\);", serve)


class TestServerSkeletons:
    def test_serve_function_defined(self, c_source):
        assert "int _flick_serve_send(flick_buf_t *_in" in c_source

    def test_unmarshal_inlined_into_dispatch_path(self, c_source):
        # One chunk of loads at constant offsets, stored into the local
        # the work function is handed.
        serve = function(c_source, "int _flick_serve_send")
        assert re.search(r"flick_s32 (_t\d+)_0 = flick_get_s32be\(_m \+ _o"
                         r" \+ 0\);\n(.*\n){3}\s+_o \+= 16;", serve), serve
        assert re.search(r"r\.ul\.x = _t\d+_0, r\.ul\.y = _t\d+_1, "
                         r"r\.lr\.x = _t\d+_2, r\.lr\.y = _t\d+_3;", serve)

    def test_work_function_called(self, c_source):
        assert "_ret = Test_Mail_send_server(msg, r, &v, &c);" in c_source

    def test_reply_marshaled_into_out_buffer(self, c_source):
        serve = function(c_source, "int _flick_serve_send")
        assert "flick_buf_t *_buf = _out;" in serve
        assert "_H_rep_ok_send" in serve

    def test_decoded_sequences_take_runtime_storage(self):
        result = api.compile(
            "struct P { long a, b; };"
            "interface I { void f(in sequence<P> ps); };",
            "corba", backend="oncrpc-xdr")
        assert "flick_alloc_seq(ps, _n" in result.stubs.c_source

    def test_oneway_serve_returns_zero(self, c_source):
        serve_ping = function(c_source, "int _flick_serve_ping")
        assert "return 0;" in serve_ping
        assert "_H_rep" not in serve_ping
        assert "_out" not in serve_ping.split("\n", 1)[1]

    def test_recursive_decode_helper_declared(self):
        c_source = compile_db().stubs.c_source
        assert ("FLICK_LOCAL size_t _u_entry(const char *_m, size_t _len,"
                " size_t _o, entry *v);") in c_source
