"""Tests for the unified compile facade.

Covers the API-redesign satellites: ``repro.api`` language
auto-detection, the aligned runtime constructor keywords, the
content-hashed stub module names that let two versions of one interface
load side by side, and the ``flick diff`` / ``flick lint`` exit codes.
"""

import json

import pytest

from repro import api
from repro.faults import FaultPlan
from repro.runtime.aio.client import ConnectionPool
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

    def test_identical_sources_share_hash_prefix(self):
        first = api.compile(CORBA, "corba")
        second = api.compile(CORBA, "corba")
        # Content-hashed base name is equal; the loader still keeps the
        # loaded modules distinct.
        assert first.stubs.module_name == second.stubs.module_name
        assert first.stubs.load() is not second.stubs.load()


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

    def test_lint_json_schema(self, tmp_path, capsys):
        path = self._write(tmp_path, "a.idl", CORBA)
        assert main(["lint", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["file"].endswith("a.idl")
