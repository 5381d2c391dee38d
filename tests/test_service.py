"""One service assembly: config record -> ``build`` -> three drivers.

``flick serve``, ``flick gateway`` and every supervised worker reach
their server through :func:`repro.runtime.service.build` from one
:class:`~repro.runtime.service.ServiceConfig`.  These tests hold the
record (JSON contract, ``validate``), the CLI's conversion of flags
into it, and the claim itself: the same record assembled in the
foreground (blocking, asyncio) and under a one-worker supervisor
answers the same calls with the same bytes, exports the same metric
families and serves the same four HTTP routes.
"""

import dataclasses
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api, documents, obs
from repro.encoding import MarshalBuffer
from repro.errors import FlickError
from repro.obs.http import MetricsHttpServer, routes_of
from repro.runtime.framing import encode_record
from repro.runtime.service import ServiceConfig, build
from repro.runtime.supervisor import Supervisor
from repro.tools.cli import build_parser, main, service_config

from tests.rawsock import recv_record

CALC_IDL = """
interface Calc {
  double avg(in sequence<long> xs);
  oneway void ping(in long x);
};
"""

CALC_IMPL = """
class CalcImpl:
    def avg(self, xs):
        return sum(xs) / len(xs)

    def ping(self, x):
        pass
"""

#: The flags `flick serve` and `flick gateway` must declare once.
SHARED_FLAGS = (
    "--stats", "--metrics-port", "--profile", "--profile-sample",
    "--trace", "--fault-plan", "--max-concurrency", "--max-pending",
    "--duration", "--workers",
)

#: Fields no flag sets: a supervisor fills these per worker ...
SUPERVISOR_FILLED = {"slot", "generation", "listen_fd", "control_fd"}
#: ... and these come from the verb, the cwd, or have no flag at all.
NOT_FLAGS = {"kind", "sys_paths", "drain_timeout"}


@pytest.fixture
def calc(tmp_path, monkeypatch):
    """The calc schema + servant on disk; returns the base config."""
    (tmp_path / "calc.idl").write_text(CALC_IDL)
    (tmp_path / "calc_impl.py").write_text(CALC_IMPL)
    monkeypatch.syspath_prepend(str(tmp_path))
    return ServiceConfig(
        kind="serve", idl_path=str(tmp_path / "calc.idl"), lang="corba",
        impl="calc_impl:CalcImpl", drain_timeout=2.0,
        sys_paths=[str(tmp_path)])


def _read(document):
    return documents.read(ServiceConfig, document, "service config")


def _gateway_config(calc):
    return calc.but(
        kind="gateway", impl=None, backend="iiop",
        upstream_backend="oncrpc-xdr", upstream_host="127.0.0.1",
        upstream_port=1)


def _get(address, path):
    url = "http://%s:%d%s" % (address[0], address[1], path)
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


# ----------------------------------------------------------------------
# The record
# ----------------------------------------------------------------------

class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.kind == "serve"
        assert (config.host, config.port) == ("127.0.0.1", 0)
        assert config.aio is False and config.stats is False
        assert config.max_concurrency == 64
        assert config.dispatch_mode == "thread"
        assert config.max_pending is None
        assert config.metrics_port is None and config.trace_path is None
        assert config.slot is None and config.control_fd is None

    def test_json_round_trip_carries_every_field(self, tmp_path):
        config = ServiceConfig(
            kind="gateway", idl_path="a.idl", backend="iiop", aio=True,
            stats=True, trace_path="t.jsonl", profile_path="p.json",
            fault_plan="f.json", upstream_fault_plan="u.json",
            metrics_port=9464, sys_paths=["/x"],
            upstream_host="h", upstream_port=7,
            upstream_backend="oncrpc-xdr", slot=3, generation=2,
            listen_fd=5, control_fd=6)
        document = documents.write(config)
        assert set(document) == {
            f.name for f in dataclasses.fields(ServiceConfig)}
        assert _read(document) == config
        path = tmp_path / "worker-3.json"
        documents.save(config, path)
        assert documents.load(ServiceConfig, path, "service config") \
            == config

    def test_unknown_field_is_refused(self):
        document = dict(documents.write(ServiceConfig()), profile_dir="/tmp")
        with pytest.raises(FlickError, match="profile_dir"):
            _read(document)

    def test_a_worker_config_written_before_tiering_went_is_refused(self):
        document = dict(documents.write(ServiceConfig()), tiering="off")
        with pytest.raises(FlickError, match="tiering"):
            _read(document)

    @pytest.mark.parametrize("document, message", [
        ({"port": "x"}, "port must be an integer, not 'x'"),
        ({"aio": "no"}, "aio must be a boolean, not 'no'"),
        ({"sys_paths": "abc"}, "sys_paths must be a list, not 'abc'"),
        ({"max_pending": [1]}, "max_pending must be an integer, not"),
        ([1], "the document must be an object, not"),
    ])
    def test_a_wrong_shape_is_refused_naming_the_field(
            self, document, message):
        """The parent's reader loaded the first four (``"no"`` is
        truthy, so it served aio; each character of ``"abc"`` went onto
        sys.path) and raised TypeError on the last."""
        with pytest.raises(FlickError, match="^service config: " + message):
            _read(document)


class TestValidate:
    def test_serve_needs_a_servant(self, calc):
        with pytest.raises(FlickError, match="--impl"):
            calc.but(impl=None).validate()

    def test_max_pending_needs_the_asyncio_runtime(self, calc):
        with pytest.raises(FlickError, match="--max-pending"):
            calc.but(max_pending=4).validate()
        calc.but(max_pending=4, aio=True).validate()
        calc.but(max_pending=4).validate(workers=2)  # workers are aio
        _gateway_config(calc).but(max_pending=4).validate()

    @pytest.mark.parametrize("field, flag", [
        ("trace_path", "--trace"), ("fault_plan", "--fault-plan"),
        ("upstream_fault_plan", "--upstream-fault-plan"),
        ("stats", "--stats"),
    ])
    def test_per_process_flags_are_refused_for_a_fleet(
            self, calc, field, flag):
        config = calc.but(**{field: "x"})
        config.validate()
        with pytest.raises(FlickError, match="%s is per-process" % flag):
            config.validate(workers=2)

    def test_fleet_honours_aio_and_checks_its_size(self, calc):
        calc.but(aio=True).validate(workers=2)
        with pytest.raises(FlickError, match="--workers"):
            calc.validate(workers=0)

    def test_gateway_needs_two_protocols_or_two_schemas(self, calc):
        same = _gateway_config(calc).but(upstream_backend="iiop")
        with pytest.raises(FlickError, match="two protocols"):
            same.validate()
        same.but(upstream_idl_path="other.idl").validate()

    def test_refused_invocation_configures_nothing(
            self, calc, tmp_path, capsys):
        """The refusal comes before the tracer and the profiler: on
        the parent this returned 1 with both left installed."""
        trace_path = tmp_path / "spans.jsonl"
        profile_path = tmp_path / "prof.json"
        assert main([
            "serve", calc.idl_path, "--impl", calc.impl,
            "--max-pending", "4", "--trace", str(trace_path),
            "--profile", str(profile_path)]) == 1
        assert "--max-pending" in capsys.readouterr().err
        assert obs.trace._tracer is None
        assert obs.profile.active() is None
        assert not trace_path.exists() and not profile_path.exists()

    def test_a_mistyped_fault_plan_is_one_error_line(
            self, calc, tmp_path, capsys):
        """The parent ended in a TypeError traceback from the plan's
        range check."""
        plan = tmp_path / "bad.json"
        plan.write_text('{"drop": "0.5"}')
        assert main(["serve", calc.idl_path, "--impl", calc.impl,
                     "--fault-plan", str(plan)]) == 1
        assert capsys.readouterr().err == (
            "flick: error: fault plan: drop must be a number, not '0.5'\n")

    @pytest.mark.parametrize("flag", ["--stats", "--trace"])
    def test_fleet_refusal_names_the_flag(self, calc, flag, capsys):
        argv = ["serve", calc.idl_path, "--impl", calc.impl,
                "--workers", "2", flag]
        if flag == "--trace":
            argv.append("spans.jsonl")
        assert main(argv) == 1
        assert "%s is per-process" % flag in capsys.readouterr().err


class TestRanges:
    """A port outside 0-65535 and a zero concurrency cap are refused by
    the record, so argv and a worker's JSON get the same one line.  The
    parent ended each port case in an ``OverflowError: bind(): port
    must be 0-65535`` traceback and served ``--max-concurrency 0``
    without ever answering."""

    @pytest.mark.parametrize("argv, message", [
        (["--port", "99999"], "--port must be in 0-65535, not 99999"),
        (["--port", "-5"], "--port must be in 0-65535, not -5"),
        (["--metrics-port", "70000"],
         "--metrics-port must be in 0-65535, not 70000"),
        (["--workers", "1", "--port", "70000"],
         "--port must be in 0-65535, not 70000"),
        (["--aio", "--max-concurrency", "0"],
         "--max-concurrency must be at least 1, not 0"),
    ])
    def test_serve_refuses_with_one_line(self, calc, argv, message, capsys):
        assert main(["serve", calc.idl_path, "--impl", calc.impl,
                     "--duration", "1"] + argv) == 1
        assert capsys.readouterr().err == \
            "flick: error: serve: %s\n" % message

    @pytest.mark.parametrize("endpoints, message", [
        (["--listen", "iiop:127.0.0.1:99999", "--upstream", "onc:h:1"],
         "--listen port must be in 0-65535, not 99999"),
        (["--listen", "iiop:127.0.0.1:0", "--upstream", "onc:h:65536"],
         "--upstream port must be in 0-65535, not 65536"),
    ])
    def test_gateway_refuses_with_one_line(self, calc, endpoints, message,
                                           capsys):
        assert main(["gateway", calc.idl_path, "--duration", "1"]
                    + endpoints) == 1
        assert capsys.readouterr().err == \
            "flick: error: gateway: %s\n" % message

    @pytest.mark.parametrize("document, message", [
        ({"port": 70000}, "--port must be in 0-65535, not 70000"),
        ({"metrics_port": -1}, "--metrics-port must be in 0-65535, not -1"),
        ({"kind": "gateway", "upstream_port": 65536},
         "--upstream port must be in 0-65535, not 65536"),
        ({"max_concurrency": 0},
         "--max-concurrency must be at least 1, not 0"),
    ])
    def test_a_worker_config_is_refused_the_same_way(self, document,
                                                     message):
        with pytest.raises(FlickError) as refusal:
            _read(document)
        assert str(refusal.value) == "service config: " + message

    def test_the_aio_server_refuses_a_zero_cap_itself(self):
        from repro.runtime.aio import AioTcpServer

        with pytest.raises(ValueError, match="max_concurrency"):
            AioTcpServer(lambda *args: None, None, max_concurrency=0)


# ----------------------------------------------------------------------
# Flags -> record
# ----------------------------------------------------------------------

def _verb_parser(verb):
    (subparsers,) = [
        action for action in build_parser()._actions
        if hasattr(action, "choices") and action.choices
        and verb in action.choices]
    return subparsers.choices[verb]


def _flag_actions(verb):
    return {flag: action for action in _verb_parser(verb)._actions
            for flag in action.option_strings if flag.startswith("--")}


class TestSharedFlags:
    def test_both_verbs_declare_them_identically(self):
        serve, gateway = _flag_actions("serve"), _flag_actions("gateway")
        for flag in SHARED_FLAGS:
            assert serve[flag].default == gateway[flag].default, flag
            assert serve[flag].help == gateway[flag].help, flag
            assert serve[flag].type == gateway[flag].type, flag

    @pytest.mark.parametrize("verb, required", [
        ("serve", ["x.idl", "--impl", "m:C"]),
        ("gateway", ["x.idl", "--listen", "iiop:127.0.0.1:0",
                     "--upstream", "onc:127.0.0.1:1"]),
    ])
    def test_every_field_is_reachable_from_exactly_one_flag(
            self, verb, required):
        """Set each flag alone to a non-default value and see which
        fields of the record move: every field moves for exactly one
        flag, or is supervisor-filled, or has no flag by design."""
        parser = build_parser()
        base = service_config(parser.parse_args([verb] + required))
        samples = {
            int: "7", float: "7.5", None: "other",
        }
        moved_by = {}
        for flag, action in _flag_actions(verb).items():
            if flag == "--help" or flag in required:
                continue
            if action.nargs == 0:
                argv = [flag]
            elif action.choices:
                argv = [flag, [choice for choice in action.choices
                               if choice != action.default][0]]
            else:
                argv = [flag, samples[action.type]]
            config = service_config(
                parser.parse_args([verb] + required + argv))
            for name in documents.write(base):
                if getattr(config, name) != getattr(base, name):
                    moved_by.setdefault(name, []).append(flag)
        # The required endpoint flags, set to other values.
        other = {"serve": ["y.idl", "--impl", "n:D"],
                 "gateway": ["y.idl", "--listen", "onc:0.0.0.0:9",
                             "--upstream", "iiop:10.0.0.7:111"]}[verb]
        config = service_config(parser.parse_args([verb] + other))
        for name in documents.write(base):
            if getattr(config, name) != getattr(base, name):
                moved_by.setdefault(name, []).append("required")
        assert all(len(flags) == 1 for flags in moved_by.values()), \
            moved_by
        unreachable = set(documents.write(base)) - set(moved_by) \
            - SUPERVISOR_FILLED - NOT_FLAGS
        # A verb leaves the other verb's fields alone.
        other_kind = {
            "serve": {"upstream_host", "upstream_port",
                      "upstream_backend", "upstream_idl_path",
                      "pool_size", "upstream_fault_plan"},
            "gateway": {"pgen", "impl", "aio", "dispatch_mode"},
        }[verb]
        assert unreachable == other_kind


# ----------------------------------------------------------------------
# One assembly, three drivers
# ----------------------------------------------------------------------

def _exchange(address, records):
    """Send raw *records* on one connection; the reply to each."""
    replies = []
    with socket.create_connection(address, timeout=5.0) as sock:
        for record in records:
            sock.sendall(encode_record(record))
            replies.append(recv_record(sock))
    return replies


def _address(running):
    """Where a Service or a Supervisor listens."""
    if isinstance(running, Supervisor):
        return running.host, running.port
    return running.server.address[:2]


def _families(text):
    return set(re.findall(r"^# TYPE (\S+)", text, re.M))


class TestOneAssembly:
    @pytest.mark.parametrize("backend", ["oncrpc-xdr", "iiop"])
    def test_three_drivers_answer_alike(self, calc, backend):
        config = calc.but(backend=backend, metrics_port=0)
        module = api.compile(CALC_IDL, "corba", backend=backend).module
        good, other = MarshalBuffer(), MarshalBuffer()
        module._m_req_avg(good, 7, [4, 6, 8])
        module._m_req_avg(other, 8, [1, 2])
        # The sequence count survives, its elements do not.
        malformed = other.getvalue()[:-4]
        records = [good.getvalue(), malformed, good.getvalue()]

        ways = {
            "blocking": lambda: build(config),
            "aio": lambda: build(config.but(aio=True)),
            "fleet": lambda: Supervisor(
                config, 1, report=lambda line: None),
        }
        seen = {}
        for name, assemble in ways.items():
            with assemble() as running:
                assert running.ready() and running.healthy()
                replies = _exchange(_address(running), records)
                with MetricsHttpServer(routes_of(running)) as endpoint:
                    routes = {path: _get(endpoint.address, path)[0]
                              for path in ("/metrics", "/profile",
                                           "/healthz", "/readyz",
                                           "/nope")}
                families = {family for family
                            in _families(running.metrics_text())
                            if not family.startswith("flick_supervisor")}
            seen[name] = (replies, routes, families)
        replies, routes, families = seen["blocking"]
        assert replies[0] == replies[2] != replies[1]
        assert routes == {"/metrics": 200, "/profile": 404,
                          "/healthz": 200, "/readyz": 200, "/nope": 404}
        assert "flick_server_malformed_frames_total" in families
        for name in ("aio", "fleet"):
            assert seen[name] == seen["blocking"], name

    def test_service_stops_ready_when_draining(self, calc):
        with build(calc) as service:
            assert service.ready()
            service.draining = True
            assert not service.ready() and service.healthy()

    def test_failed_build_leaves_no_layer_behind(self, calc, tmp_path):
        config = calc.but(
            impl="calc_impl:Missing",
            trace_path=str(tmp_path / "spans.jsonl"),
            profile_path=str(tmp_path / "prof.json"))
        with pytest.raises(FlickError, match="Missing"):
            build(config)
        assert obs.trace._tracer is None
        assert obs.profile.active() is None
        assert not (tmp_path / "spans.jsonl").exists()


# ----------------------------------------------------------------------
# The foreground runner
# ----------------------------------------------------------------------

def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestForegroundRunner:
    @pytest.mark.parametrize("extra", [[], ["--aio"]])
    def test_single_process_answers_the_probes(
            self, calc, monkeypatch, tmp_path, extra):
        """/healthz and /readyz used to exist only under --workers."""
        monkeypatch.chdir(tmp_path)
        metrics_port = _free_port()
        rc = {}

        def run():
            rc["value"] = main(
                ["serve", calc.idl_path, "--impl", calc.impl,
                 "--metrics-port", str(metrics_port),
                 "--duration", "3"] + extra)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        address = ("127.0.0.1", metrics_port)
        deadline = time.monotonic() + 10
        status = None
        while time.monotonic() < deadline and status != 200:
            try:
                status, _body = _get(address, "/readyz")
            except OSError:
                time.sleep(0.05)
        assert status == 200
        assert _get(address, "/healthz") == (200, "ok\n")
        status, text = _get(address, "/metrics")
        assert status == 200 and "flick_server_shed_total" in text
        assert _get(address, "/profile")[0] == 404
        thread.join(timeout=15)
        assert not thread.is_alive() and rc["value"] == 0

    def test_one_parent_compile_for_a_fleet(
            self, calc, monkeypatch, tmp_path):
        """A fleet start is N + 1 compiles: one here, one per worker
        (in the workers' own processes).  It was N + 2 for serve and
        2N + 3 for a checked gateway."""
        monkeypatch.chdir(tmp_path)
        compiled = []
        compile_one = api.compile

        def counting(*args, **kwargs):
            result = compile_one(*args, **kwargs)
            compiled.append(result.stubs.backend_name)
            return result

        monkeypatch.setattr(api, "compile", counting)
        assert main(["serve", calc.idl_path, "--impl", calc.impl,
                     "--workers", "2", "--duration", "0.2"]) == 0
        assert len(compiled) == 1
        del compiled[:]
        assert main(["gateway", calc.idl_path, "--check",
                     "--listen", "iiop:127.0.0.1:0",
                     "--upstream", "onc:127.0.0.1:1",
                     "--workers", "2", "--duration", "0.2"]) == 0
        assert sorted(compiled) == ["iiop", "oncrpc-xdr"]
