"""Tests for the flick command-line interface."""

import json
import os

import pytest

from repro.obs.metrics import parse_prometheus, top_rows, top_table
from repro.tools.cli import main

from tests import cli_argv

with open(cli_argv.GOLDEN) as _handle:
    GOLDEN = json.load(_handle)

class TestDocumentedLines:
    """Every ``flick`` line of the docs, CI and examples parses to the
    ServiceConfig or namespace pinned before the serving flags came from
    the record's fields; every verb lists the same options."""

    @pytest.mark.parametrize("line", sorted(GOLDEN["lines"]))
    def test_line_parses_as_pinned(self, line):
        assert cli_argv.parsed(line) == GOLDEN["lines"][line]

    def test_every_documented_line_is_pinned(self):
        assert cli_argv.documented_lines() == sorted(GOLDEN["lines"])

    def test_every_verb_lists_the_pinned_options(self):
        assert cli_argv.option_strings() == GOLDEN["help"]

MAIL = "interface Mail { void send(in string msg); };\n"
ONC = "program P { version V { int f(int) = 1; } = 1; } = 9;\n"
MIG = "subsystem s 100;\nroutine f(p : mach_port_t; x : int);\n"


@pytest.fixture
def outdir(tmp_path):
    return str(tmp_path / "out")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCompile:
    def test_corba_default(self, tmp_path, outdir, capsys):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(["compile", source, "-o", outdir]) == 0
        assert os.path.exists(os.path.join(outdir, "mail_iiop.py"))
        assert os.path.exists(os.path.join(outdir, "mail_iiop.c"))
        assert os.path.exists(os.path.join(outdir, "mail_iiop.h"))
        assert "compiled Mail" in capsys.readouterr().out

    def test_frontend_guessed_from_suffix(self, tmp_path, outdir):
        source = write(tmp_path, "db.x", ONC)
        assert main(["compile", source, "-o", outdir]) == 0
        assert os.path.exists(os.path.join(outdir, "p_v_oncrpc_xdr.py"))

    def test_mig_suffix(self, tmp_path, outdir):
        source = write(tmp_path, "arith.defs", MIG)
        assert main(["compile", source, "-o", outdir]) == 0
        assert os.path.exists(os.path.join(outdir, "s_mach3.py"))

    def test_emit_subset(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(["compile", source, "-o", outdir, "--emit", "py"]) == 0
        assert os.path.exists(os.path.join(outdir, "mail_iiop.py"))
        assert not os.path.exists(os.path.join(outdir, "mail_iiop.c"))

    def test_explicit_backend(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--backend", "fluke"]
        ) == 0
        assert os.path.exists(os.path.join(outdir, "mail_fluke.py"))

    def test_generated_module_is_valid_python(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        main(["compile", source, "-o", outdir, "--emit", "py"])
        path = os.path.join(outdir, "mail_iiop.py")
        compile(open(path).read(), path, "exec")

    def test_disable_flag(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--emit", "py",
             "--disable-pass", "hash_demux"]
        ) == 0
        text = open(os.path.join(outdir, "mail_iiop.py")).read()
        assert "_HANDLERS" not in text

    @pytest.mark.parametrize("argv, accepted", [
        (["--disable-pass", "chunk_atoms", "--disable-pass", "bogus"],
         "hash_demux"),
        (["--disable-pass", "bogus"], "dedup_out_of_line"),
    ])
    def test_unknown_optimization_name_is_one_error_line(
            self, tmp_path, outdir, capsys, argv, accepted):
        """An unknown name is one ``flick: error:`` line naming every
        OptFlags field, not a TypeError from ``OptFlags.__init__``."""
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(["compile", source, "-o", outdir] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("flick: error: unknown ") and "'bogus'" in err
        assert accepted in err and err.count("\n") == 1

    def test_timing_flag(self, tmp_path, outdir, capsys):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--emit", "py", "--timing"]
        ) == 0
        out = capsys.readouterr().out
        assert "timing Mail:" in out
        assert "parse" in out and "emit" in out and "total" in out
        assert "emitted:" in out
        assert "marshal chunk" in out

    def test_syntax_error_reported(self, tmp_path, outdir, capsys):
        source = write(tmp_path, "bad.idl", "interface {")
        assert main(["compile", source, "-o", outdir]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_reported(self, outdir, capsys):
        assert main(["compile", "/no/such/file.idl", "-o", outdir]) == 1

    def test_multi_interface_file_compiles_all(self, tmp_path, outdir):
        source = write(
            tmp_path, "two.idl",
            "interface A { void f(); }; interface B { void g(); };",
        )
        assert main(["compile", source, "-o", outdir, "--emit", "py"]) == 0
        assert os.path.exists(os.path.join(outdir, "a_iiop.py"))
        assert os.path.exists(os.path.join(outdir, "b_iiop.py"))

    def test_interface_selection(self, tmp_path, outdir):
        source = write(
            tmp_path, "two.idl",
            "interface A { void f(); }; interface B { void g(); };",
        )
        assert main(
            ["compile", source, "-o", outdir, "--emit", "py",
             "--interface", "B"]
        ) == 0
        assert not os.path.exists(os.path.join(outdir, "a_iiop.py"))
        assert os.path.exists(os.path.join(outdir, "b_iiop.py"))


class TestBaselineAndInspect:
    def test_baseline_generation(self, tmp_path, outdir):
        source = write(tmp_path, "db.x", ONC)
        assert main(
            ["compile", source, "-o", outdir, "--baseline", "rpcgen",
             "--emit", "py"]
        ) == 0
        text = open(os.path.join(outdir, "p_v_rpcgen.py")).read()
        assert "_rt.put_" in text

    def test_baseline_ilu(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--baseline", "ilu",
             "--emit", "py"]
        ) == 0

    def test_inspect_output(self, tmp_path, capsys):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(["inspect", source]) == 0
        out = capsys.readouterr().out
        assert "interface Mail" in out
        assert "demux:   hash" in out
        assert "send" in out

    def test_inspect_onc(self, tmp_path, capsys):
        source = write(tmp_path, "db.x", ONC)
        assert main(["inspect", source]) == 0
        out = capsys.readouterr().out
        assert "interface P::V" in out
        assert "key=1" in out

    def test_little_endian_flag(self, tmp_path, outdir):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--little-endian",
             "--emit", "py"]
        ) == 0
        text = open(os.path.join(outdir, "mail_iiop.py")).read()
        assert "'<I'" in text  # little-endian CDR packs

    def test_little_endian_wrong_backend_rejected(self, tmp_path, outdir,
                                                  capsys):
        source = write(tmp_path, "mail.idl", MAIL)
        assert main(
            ["compile", source, "-o", outdir, "--little-endian",
             "--backend", "fluke"]
        ) == 1
        assert "little-endian" in capsys.readouterr().err

    def test_inspect_mig(self, tmp_path, capsys):
        source = write(tmp_path, "arith.defs", MIG)
        assert main(["inspect", source]) == 0
        out = capsys.readouterr().out
        assert "interface s" in out


EXPOSITION = """\
# TYPE flick_server_requests_total counter
flick_server_requests_total{op="list"} 10
flick_server_requests_total{op="put"} 2
flick_server_errors_total{op="list"} 1
flick_profile_sample_rate 4
flick_profile_message_bytes_sum{direction="request",op="list"} 100
flick_profile_message_bytes_sum{direction="reply",op="list"} 156
flick_profile_transcode_total{direction="request",op="list",path="fused"} 3
flick_profile_transcode_total{direction="request",op="list",path="re-encode"} 1
flick_server_latency_seconds_bucket{le="0.001",op="list"} 4
flick_server_latency_seconds_bucket{le="0.003",op="list"} 10
flick_server_latency_seconds_bucket{le="+Inf",op="list"} 10
"""


class TestTop:
    """``flick top``'s rows from a canned scrape, no server."""

    def test_one_row(self):
        rows = top_rows(parse_prometheus(EXPOSITION))
        row = rows["list"]
        assert (row["requests"], row["errors"]) == (10, 1)
        assert row["bytes"] == (100 + 156) * 4  # 1/4 sampling
        assert (row["fused"], row["transcoded"]) == (3, 4)
        # rank 5 of 10 is the first of the six in (1 ms, 3 ms].
        assert row["latency"].percentile(50) == pytest.approx(0.001 + 0.002 / 6)
        assert rows["put"]["latency"].percentile(99) == 0.0
        line = top_table(rows).splitlines()[2]
        assert line.split() == ["list", "10.0", "1", "1.33", "3.00",
                                "1.0KiB", "75%"]


class TestList:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "corba" in out
        assert "oncrpc-xdr" in out
        assert "ilu" in out


SERVE_IDL = """
interface Calc {
  double avg(in sequence<long> xs);
  oneway void ping(in long x);
};
"""

SERVE_IMPL = """
class CalcImpl:
    def __init__(self):
        self.last_ping = None

    def avg(self, xs):
        return sum(xs) / len(xs)

    def ping(self, x):
        self.last_ping = x
"""


def _free_port():
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _serve_and_call(tmp_path, monkeypatch, extra_args):
    """Run `flick serve` on a thread, make one stub call against it,
    then stop it the way SIGTERM does: through its own signal driver,
    captured here.  ``--duration`` is only a liveness ceiling."""
    import signal
    import socket
    import threading
    import time

    from repro import api
    from repro.runtime import TcpClientTransport, signals

    drivers = []

    class Captured(signals.SignalDriver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            drivers.append(self)

    monkeypatch.setattr(signals, "SignalDriver", Captured)
    source = write(tmp_path, "calc.idl", SERVE_IDL)
    write(tmp_path, "calc_impl.py", SERVE_IMPL)
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(tmp_path))
    port = _free_port()
    rc = {}

    def run():
        rc["value"] = main(
            ["serve", source, "--impl", "calc_impl:CalcImpl",
             "--backend", "oncrpc-xdr", "--port", str(port),
             "--duration", "120"] + extra_args
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    # Poll until the server is accepting.
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            break
        except OSError:
            time.sleep(0.05)
    module = api.compile(SERVE_IDL, "corba", backend="oncrpc-xdr").module
    transport = TcpClientTransport("127.0.0.1", port)
    try:
        client = module.CalcClient(transport)
        assert client.avg([4, 6, 8]) == 6.0
    finally:
        transport.close()
    (driver,) = drivers
    driver._handle_shutdown(signal.SIGTERM, None)
    thread.join(timeout=150)
    assert not thread.is_alive()
    assert driver.last_signal == signal.SIGTERM
    return rc["value"]


class TestServe:
    def test_serve_blocking(self, tmp_path, monkeypatch, capsys):
        assert _serve_and_call(tmp_path, monkeypatch, []) == 0
        out = capsys.readouterr().out
        assert "serving Calc" in out
        assert "thread-per-connection" in out

    def test_serve_aio_with_stats(self, tmp_path, monkeypatch, capsys):
        assert _serve_and_call(
            tmp_path, monkeypatch, ["--aio", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "asyncio runtime" in out
        assert "avg" in out          # the stats table names the op
        assert "p99" in out

    def test_serve_blocking_with_stats(self, tmp_path, monkeypatch,
                                       capsys):
        assert _serve_and_call(tmp_path, monkeypatch, ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "thread-per-connection" in out
        assert "avg" in out          # the stats table names the op
        assert "p99" in out

    def test_serve_with_trace(self, tmp_path, monkeypatch, capsys):
        import json

        trace_path = tmp_path / "spans.jsonl"
        assert _serve_and_call(
            tmp_path, monkeypatch, ["--trace", str(trace_path)]
        ) == 0
        assert "tracing spans to" in capsys.readouterr().out
        spans = [json.loads(line)
                 for line in trace_path.read_text().splitlines()]
        names = {span["name"] for span in spans}
        assert "server.request" in names
        assert "dispatch" in names
        (request_span,) = [s for s in spans
                           if s["name"] == "server.request"]
        assert request_span["attrs"]["op"].endswith("avg")

    def test_serve_with_metrics_port(self, tmp_path, monkeypatch,
                                     capsys):
        assert _serve_and_call(
            tmp_path, monkeypatch, ["--metrics-port", "0"]
        ) == 0
        out = capsys.readouterr().out
        # --metrics-port implies --stats and announces the endpoint.
        assert "metrics on http://" in out
        assert "p99" in out

    def test_serve_with_profile_writes_a_snapshot(self, tmp_path,
                                                  monkeypatch, capsys):
        import json

        snap_path = tmp_path / "prof.json"
        assert _serve_and_call(
            tmp_path, monkeypatch,
            ["--profile", str(snap_path), "--profile-sample", "1"],
        ) == 0
        out = capsys.readouterr().out
        assert "profiling payload shapes" in out
        assert "profile snapshot saved" in out
        document = json.loads(snap_path.read_text())
        assert document["kind"] == "flick-profile"
        ops = {entry["op"] for entry in document["ops"]}
        assert "avg" in ops
        # flick profile reads what flick serve wrote.
        assert main(["profile", str(snap_path)]) == 0
        assert "avg" in capsys.readouterr().out

    def test_bad_impl_spec_rejected(self, tmp_path, capsys):
        source = write(tmp_path, "calc.idl", SERVE_IDL)
        assert main(["serve", source, "--impl", "no-colon"]) == 1
        assert "module:Class" in capsys.readouterr().err

    def test_missing_impl_module_rejected(self, tmp_path, monkeypatch,
                                          capsys):
        source = write(tmp_path, "calc.idl", SERVE_IDL)
        monkeypatch.chdir(tmp_path)
        assert main(
            ["serve", source, "--impl", "nonexistent_module:Impl"]
        ) == 1
        assert "cannot import servant module" in capsys.readouterr().err

    def test_mig_rejected(self, tmp_path, capsys):
        source = write(tmp_path, "arith.defs", MIG)
        assert main(["serve", source, "--impl", "m:C"]) == 1
        assert "kernel IPC" in capsys.readouterr().err

    def test_unservable_backend_rejected(self, tmp_path, capsys):
        source = write(tmp_path, "calc.idl", SERVE_IDL)
        assert main(
            ["serve", source, "--impl", "m:C", "--backend", "fluke"]
        ) == 1
        assert "serve supports" in capsys.readouterr().err

    def test_multiple_interfaces_need_choice(self, tmp_path, capsys):
        source = write(
            tmp_path, "two.idl",
            "interface A { void f(); };\ninterface B { void g(); };\n",
        )
        assert main(["serve", source, "--impl", "m:C"]) == 1
        assert "--interface" in capsys.readouterr().err
