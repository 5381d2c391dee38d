"""Tests for the unified compile facade.

Covers the API-redesign satellites: ``repro.api`` language
auto-detection, the aligned runtime constructor keywords, the
content-hashed stub module names that let two versions of one interface
load side by side, and the ``flick diff`` / ``flick lint`` exit codes.
"""

import dataclasses
import json

import pytest

from repro import api, frontends
from repro.errors import FlickError
from repro.compat.lint import lint_text
from repro.faults import FaultPlan
from repro.runtime.aio.client import ConnectionPool
from repro.runtime.service import ServiceConfig, compile_handles
from repro.runtime.socket_transport import (
    TcpServer,
    UdpClientTransport,
    UdpServer,
)
from repro.tools.cli import main

CORBA = "interface Mail { void send(in string<64> msg); };\n"
ONC = "program P { version V { int f(int) = 1; } = 1; } = 0x20000042;\n"
MIG = "subsystem s 100;\nroutine f(p : mach_port_t; x : int);\n"


class TestDetectLang:
    def test_suffixes_win(self):
        assert api.detect_lang("anything", name="x.idl") == "corba"
        assert api.detect_lang("anything", name="x.x") == "oncrpc"
        assert api.detect_lang("anything", name="x.defs") == "mig"

    def test_content_heuristics(self):
        assert api.detect_lang(CORBA) == "corba"
        assert api.detect_lang(ONC) == "oncrpc"
        assert api.detect_lang(MIG) == "mig"

    def test_autodetect_equals_explicit(self):
        auto = api.compile(CORBA)
        explicit = api.compile(CORBA, "corba")
        assert auto.stubs.backend_name == explicit.stubs.backend_name
        assert auto.presc.interface_name == explicit.presc.interface_name

    def test_mig_autodetect_compiles(self):
        result = api.compile(MIG)
        assert result.aoi is None
        assert result.presc is not None
        assert result.timings["total_s"] >= 0


TWO = "interface A { void f(); };\ninterface B { void g(); };\n"


@pytest.fixture
def parses():
    """The names the CORBA front end's ``parse`` is called with."""
    corba = frontends.get("corba")
    calls = []

    def counting(text, name):
        calls.append(name)
        return corba.parse(text, name)

    frontends.register(dataclasses.replace(corba, parse=counting))
    yield calls
    frontends.register(corba)


class TestOneParse:
    """The front end runs once per compile, however many interfaces the
    pipeline then presents and emits."""

    def test_compile_all_parses_once(self, parses):
        results = api.compile_all(TWO, "corba", name="two.idl")
        assert sorted(results) == ["A", "B"] and parses == ["two.idl"]
        first, second = (result.timings for result in results.values())
        assert first["parse_s"] == second["parse_s"]
        assert first["aoi_s"] == second["aoi_s"]
        assert first["present_s"] != second["present_s"]

    def test_serve_compile_parses_once(self, parses, tmp_path):
        path = str(tmp_path / "calc.idl")
        with open(path, "w") as handle:
            handle.write(CORBA)
        (result,) = compile_handles(ServiceConfig(
            kind="serve", idl_path=path, impl="calc_impl:CalcImpl"))
        assert result.stubs.interface_name == "Mail" and parses == [path]

    def test_cli_compile_of_every_interface_parses_once(
            self, parses, tmp_path):
        path = str(tmp_path / "two.idl")
        with open(path, "w") as handle:
            handle.write(TWO)
        assert main(["compile", path, "-o", str(tmp_path)]) == 0
        assert parses == [path]


class TestExactlyOneInterface:
    """One refusal, for every front end, names the file and what it
    defines."""

    def test_several(self):
        with pytest.raises(FlickError) as error:
            api.compile(TWO, "corba", name="two.idl")
        assert str(error.value) == (
            "two.idl defines 2 interfaces (A, B); pick one with"
            " interface= (--interface)")

    def test_none(self):
        with pytest.raises(FlickError, match="^s.idl defines no interfaces$"):
            api.compile("struct S { long v; };", "corba", name="s.idl")

    @pytest.mark.parametrize("text, lang, have", [
        (TWO, "corba", "A, B"), (MIG, "mig", "s")])
    def test_an_unknown_name(self, text, lang, have):
        with pytest.raises(FlickError) as error:
            api.compile(text, lang, name="f", interface="Z")
        assert str(error.value) == \
            "f defines no interface 'Z' (have: %s)" % have

    def test_lint_of_an_unknown_name_is_one_error_line(
            self, tmp_path, capsys):
        path = str(tmp_path / "two.idl")
        with open(path, "w") as handle:
            handle.write(TWO)
        assert main(["lint", path, "--interface", "Z"]) == 3
        assert capsys.readouterr().err == (
            "flick: error: %s defines no interface 'Z' (have: A, B)\n"
            % path)

    def test_a_named_one_of_several(self):
        result = api.compile(TWO, "corba", interface="B")
        assert result.interface.name == "B"
        assert result.stubs.interface_name == "B"


class TestRenamedConstructorKwargs:
    def test_connection_pool_both_spellings_conflict(self):
        with pytest.raises(TypeError):
            ConnectionPool("127.0.0.1", 1, size=3, pool_size=4)


def _noop_dispatch(request, impl, buffer):
    return False


class TestServerConstructorAlignment:
    def test_tcp_server_accepts_max_record_size(self):
        server = TcpServer(_noop_dispatch, None, max_record_size=4096)
        assert server._max_record_size == 4096
        server._listener.close()

    def test_udp_server_accepts_fault_plan(self):
        server = UdpServer(_noop_dispatch, None,
                           fault_plan=FaultPlan(drop=1.0))
        assert server._fault_plan is not None
        server._sock.close()

    def test_udp_fault_plan_drops_datagrams(self):
        from tests.conftest import compile_db
        from repro.encoding.buffer import MarshalBuffer

        result = compile_db()
        module = result.stubs.load()
        server = UdpServer(
            module.dispatch, _DbSink(),
            fault_plan=FaultPlan(drop=1.0),
        ).start()
        try:
            client = UdpClientTransport(
                "127.0.0.1", server.address[1], deadline=0.3)
            try:
                buffer = MarshalBuffer()
                module._m_req_echo(buffer, 1, b"ping")
                # drop=1.0 swallows every datagram, so the client's
                # deadline is the only way out.
                with pytest.raises(OSError):
                    client.call(buffer.getvalue())
            finally:
                client.close()
        finally:
            server.stop()


class _DbSink:
    """Servant for conftest's DB_IDL; never reached under drop=1.0."""

    def echo(self, blob):
        return blob

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return lambda *args: None


class TestSideBySideVersions:
    def test_two_versions_load_independently(self):
        old = api.compile("interface T { void f(in string<16> s); };",
                          "corba")
        new = api.compile("interface T { void f(in string<64> s); };",
                          "corba")
        old_mod = old.stubs.load()
        new_mod = new.stubs.load()
        assert old.stubs.module_name != new.stubs.module_name
        assert old_mod is not new_mod
        # Both stay functional after loading the other: the wide value
        # marshals only with the new schema's stubs.
        from repro.encoding.buffer import MarshalBuffer
        wide = "x" * 40
        buffer = MarshalBuffer()
        new_mod._m_req_f(buffer, 1, wide)
        assert buffer.getvalue()
        with pytest.raises(Exception):
            old_mod._m_req_f(MarshalBuffer(), 1, wide)

    def test_a_field_type_alone_renames_the_module(self):
        """The name keys on what the codecs are generated from, the
        types a struct's fields have included, without printing them."""
        shape = "struct S { %s a; }; interface T { void f(in S s); };"
        wide = api.compile(shape % "long", "corba")
        narrow = api.compile(shape % "short", "corba")
        assert wide.stubs.scaffold == narrow.stubs.scaffold
        assert wide.stubs.module_name != narrow.stubs.module_name
        assert wide.stubs.py_source != narrow.stubs.py_source

    def test_identical_sources_share_hash_prefix(self):
        first = api.compile(CORBA, "corba")
        second = api.compile(CORBA, "corba")
        # Content-hashed base name is equal; the loader still keeps the
        # loaded modules distinct.
        assert first.stubs.module_name == second.stubs.module_name
        assert first.stubs.load() is not second.stubs.load()


#: A union switched on a named enum whose arms cover every enumerator.
ONC_ENUM_UNION = """
enum color { RED = 0, GREEN = 1 };
union byc switch (color c) { case RED: int r; case GREEN: float g; };
program P { version V { int f(byc) = 1; } = 1; } = 0x20000046;
"""

#: The CORBA twin; ``%s`` adds enumerators no arm covers.
CORBA_ENUM_UNION = """
module M {
  enum Color { RED, GREEN%s };
  union ByColor switch (Color) { case RED: long r; case GREEN: float g; };
  interface I { void f(in ByColor u); };
};
"""


class TestCliExitCodes:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_diff_identity_exits_zero(self, tmp_path):
        path = self._write(tmp_path, "a.idl", CORBA)
        assert main(["diff", path, path]) == 0

    def test_diff_compatible_exits_one(self, tmp_path):
        old = self._write(tmp_path, "old.idl", CORBA)
        new = self._write(
            tmp_path, "new.idl",
            "interface Mail { void send(in string<128> msg); };\n")
        assert main(["diff", old, new]) == 1

    def test_diff_breaking_exits_two(self, tmp_path):
        old = self._write(tmp_path, "old.idl", CORBA)
        new = self._write(
            tmp_path, "new.idl",
            "interface Mail { void send(in string<8> msg); };\n")
        assert main(["diff", old, new]) == 2

    def test_diff_bad_input_exits_three(self, tmp_path):
        old = self._write(tmp_path, "old.idl", CORBA)
        bad = self._write(tmp_path, "new.idl", "interface {{{ nope")
        assert main(["diff", old, bad]) == 3

    def test_diff_json_schema(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.idl", CORBA)
        new = self._write(
            tmp_path, "new.idl",
            "interface Mail { void send(in string<8> msg); };\n")
        code = main(["diff", old, new, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["verdict"] == "BREAKING"
        assert set(payload["protocols"]) == {"oncrpc-xdr", "iiop"}
        operation = payload["protocols"]["iiop"]["operations"]["send"]
        assert operation["verdict"] == "BREAKING"
        assert "request:old->new" in operation["channels"]

    def test_lint_clean_exits_zero(self, tmp_path):
        path = self._write(tmp_path, "a.idl", CORBA)
        assert main(["lint", path]) == 0

    def test_lint_warning_exits_one(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "a.x",
            "program P { version V { int f(string) = 1; } = 1; }"
            " = 0x20000043;\n")
        assert main(["lint", path]) == 1
        assert "unbounded" in capsys.readouterr().out

    def test_lint_fail_on_error_tolerates_warnings(self, tmp_path):
        path = self._write(
            tmp_path, "a.x",
            "program P { version V { int f(string) = 1; } = 1; }"
            " = 0x20000043;\n")
        assert main(["lint", path, "--fail-on", "error"]) == 0

    def test_lint_bad_input_exits_three(self, tmp_path):
        path = self._write(tmp_path, "a.idl", "interface {{{ nope")
        assert main(["lint", path]) == 3

    def test_lint_enum_union_fully_covered_exits_zero(self, tmp_path,
                                                      capsys):
        path = self._write(tmp_path, "byc.x", ONC_ENUM_UNION)
        assert main(["lint", path]) == 0
        assert "union-discriminator-gap" not in capsys.readouterr().out

    @pytest.mark.parametrize("text, gaps", [
        (ONC_ENUM_UNION, []),
        (CORBA_ENUM_UNION % "", []),
        (CORBA_ENUM_UNION % ", BLUE", ["M_ByColor"]),
        ("module M { union B switch (boolean) {"
         " case TRUE: long t; case FALSE: float f; };"
         " interface I { void f(in B b); }; };", []),
    ], ids=["onc-enum", "corba-enum", "corba-enum-gap", "boolean"])
    def test_union_discriminator_gap_resolves_named_enums(self, text,
                                                          gaps):
        findings, _protocol = lint_text(text, name="u.idl" if "module"
                                        in text else "u.x")
        assert [f.reason.split()[1] for f in findings
                if f.code == "union-discriminator-gap"] == gaps

    def test_lint_json_schema(self, tmp_path, capsys):
        path = self._write(tmp_path, "a.idl", CORBA)
        assert main(["lint", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["file"].endswith("a.idl")

    def test_lint_json_findings(self, tmp_path, capsys):
        """Each finding is one object of four fields, worst first."""
        path = self._write(tmp_path, "gap.x", (
            "typedef int ints<>;\n"
            "union res switch (int status) {\n"
            "case 0: int value;\ncase 1: void;\n};\n"
            "program LINTP { version LINTV {"
            " res put(ints) = 1; } = 1; } = 0x20000124;\n"))
        assert main(["lint", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["worst"] == "error"
        assert payload["protocol"] == "oncrpc-xdr"
        assert payload["findings"] == [
            {"severity": "error", "code": "union-discriminator-gap",
             "path": "put.reply._return",
             "reason": "union res has no default arm and its arms [0, 1]"
                       " do not cover the discriminator: the generated"
                       " decoder raises UnmarshalError on any other label"
                       " a peer sends"},
            {"severity": "warning", "code": "unbounded-on-datagram",
             "path": "put.request",
             "reason": "unbounded request on a UDP-capable program: a"
                       " datagram caps the message at 65000 bytes but the"
                       " schema imposes no bound"},
        ]
