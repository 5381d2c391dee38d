"""Supervised serving: restart supervision, rollout, aggregation.

These tests drive :class:`repro.runtime.supervisor.Supervisor` with
real worker subprocesses over one shared listen address, plus the two
client-side robustness pieces that make a supervised fleet usable:
graceful ``SIGTERM`` drain and pooled-connection failover.
"""

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import Flick
from repro.encoding import MarshalBuffer
from repro.errors import StaleConnectionError, TransportError
from repro.obs.metrics import parse_prometheus
from repro.obs.profile import ProfileSnapshot
from repro.runtime import StubServer, TcpClientTransport
from repro.runtime.aio import (
    AioClientTransport,
    AioConnection,
    CallOptions,
    ConnectionPool,
    RetryPolicy,
)
from repro.runtime.service import ServiceConfig
from repro.runtime.supervisor import (
    ControlClient,
    Supervisor,
    merge_prometheus,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO_ROOT, "examples")
SRC = os.path.join(REPO_ROOT, "src")

CALC_IDL = """
interface Calc {
    double avg(in sequence<long> xs);
    long pid();
};
"""

CALC_SERVANT = """\
import os


class CalcImpl:
    def avg(self, xs):
        return sum(xs) / len(xs)

    def pid(self):
        return os.getpid()
"""

SLOW_SERVANT = """\
import os
import time


class SlowCalc:
    def avg(self, xs):
        time.sleep(0.6)
        return sum(xs) / len(xs)

    def pid(self):
        return os.getpid()
"""

#: ONC RPC reply header size (xid + MSG_ACCEPTED + verf + SUCCESS).
_ONC_REPLY_BODY = 24

#: Retry posture for calls that must survive worker churn.
ROBUST = CallOptions(
    deadline=10.0, idempotent=True, retry_deadlines=True,
    retry=RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=2.0),
)


@pytest.fixture(scope="module")
def calc_module():
    flick = Flick(frontend="corba", backend="oncrpc-xdr")
    return flick.compile(CALC_IDL).load_module()


def _avg_request(module, xid, values):
    buffer = MarshalBuffer()
    module._m_req_avg(buffer, xid, values)
    return buffer.getvalue()


def _pid_request(module, xid):
    buffer = MarshalBuffer()
    module._m_req_pid(buffer, xid)
    return buffer.getvalue()


def _calc_template(tmp_path, **overrides):
    """Write the calc schema + servant; return the fleet template."""
    idl_path = tmp_path / "calc.idl"
    idl_path.write_text(CALC_IDL)
    (tmp_path / "calc_servant.py").write_text(CALC_SERVANT)
    settings = dict(
        kind="serve", idl_path=str(idl_path), lang="corba",
        backend="oncrpc-xdr", impl="calc_servant:CalcImpl",
        host="127.0.0.1", port=0, drain_timeout=2.0,
        sys_paths=[str(tmp_path)])
    settings.update(overrides)
    return ServiceConfig(**settings)


def _supervisor(template, workers, **kwargs):
    kwargs.setdefault("restart_backoff", 0.05)
    kwargs.setdefault("backoff_cap", 1.0)
    kwargs.setdefault("stable_after", 60.0)
    kwargs.setdefault("report", lambda line: None)
    return Supervisor(template, workers, **kwargs)


def _call_avg(module, address, values, options=None):
    async def main():
        pool = ConnectionPool(
            *address, pool_size=1, options=options or ROBUST)
        try:
            reply = await pool.acall(_avg_request(module, 1, values))
            return module._u_rep_avg(reply, _ONC_REPLY_BODY)
        finally:
            await pool.aclose()

    return asyncio.run(main())


def _call_pids(module, address, count):
    """Worker pids observed over *count* fresh connections."""
    async def main():
        pids = set()
        for n in range(count):
            pool = ConnectionPool(*address, pool_size=1, options=ROBUST)
            try:
                reply = await pool.acall(_pid_request(module, n + 1))
                pids.add(module._u_rep_pid(reply, _ONC_REPLY_BODY))
            finally:
                await pool.aclose()
        return pids

    return asyncio.run(main())


def _wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# Metrics merging (pure function)
# ----------------------------------------------------------------------

class TestMergePrometheus:
    def test_counters_sum_across_workers(self):
        a = ('# HELP flick_server_requests_total Requests.\n'
             '# TYPE flick_server_requests_total counter\n'
             'flick_server_requests_total{op="avg"} 3\n')
        b = 'flick_server_requests_total{op="avg"} 4\n'
        merged = merge_prometheus([a, b])
        series = parse_prometheus(merged)
        assert series["flick_server_requests_total"][
            (("op", "avg"),)] == 7
        assert merged.count("# HELP flick_server_requests_total") == 1
        assert merged.count("# TYPE flick_server_requests_total") == 1

    def test_histogram_buckets_stay_cumulative(self):
        text = ('flick_server_latency_seconds_bucket{le="0.1"} %d\n'
                'flick_server_latency_seconds_bucket{le="+Inf"} %d\n'
                'flick_server_latency_seconds_count %d\n'
                'flick_server_latency_seconds_sum %g\n')
        merged = merge_prometheus([text % (2, 5, 5, 0.5),
                                   text % (1, 3, 3, 0.25)])
        series = parse_prometheus(merged)
        buckets = series["flick_server_latency_seconds_bucket"]
        assert buckets[(("le", "0.1"),)] == 3
        assert buckets[(("le", "+Inf"),)] == 8
        assert series["flick_server_latency_seconds_count"][()] == 8
        assert series["flick_server_latency_seconds_sum"][()] == 0.75

    def test_sample_rate_takes_max_not_sum(self):
        merged = merge_prometheus([
            "flick_profile_sample_rate 64\n",
            "flick_profile_sample_rate 64\n",
        ])
        series = parse_prometheus(merged)
        assert series["flick_profile_sample_rate"][()] == 64

    def test_integral_values_render_without_fraction(self):
        merged = merge_prometheus(["x_total 1\n", "x_total 2\n"])
        assert "x_total 3" in merged.splitlines()


# ----------------------------------------------------------------------
# The control channel, with a fake worker on the other end
# ----------------------------------------------------------------------

GOOD_METRICS = ('# TYPE flick_server_requests_total counter\n'
                'flick_server_requests_total{op="avg"} 3\n')


def _fake_worker(answer):
    """A ControlClient whose worker end replies ``answer(message)``
    (bytes: sent raw, anything else: sent as JSON with the seq)."""
    parent_sock, child_sock = socket.socketpair()

    def serve():
        with child_sock, child_sock.makefile("rb") as lines:
            for line in lines:
                message = json.loads(line)
                reply = answer(message)
                if not isinstance(reply, bytes):
                    reply = json.dumps(
                        dict(reply, seq=message["seq"])).encode()
                try:
                    child_sock.sendall(reply + b"\n")
                except OSError:
                    return

    threading.Thread(target=serve, daemon=True).start()
    return ControlClient(parent_sock)


def _well_behaved(message):
    return {
        "status": {"ok": True, "accepting": True, "draining": False},
        "metrics": {"ok": True, "text": GOOD_METRICS},
        "profile": {"ok": True, "snapshot": None},
    }[message["cmd"]]


class _Running:
    """A worker process that is, as far as poll() can tell, alive."""

    pid = 0

    def poll(self):
        return None


def _supervisor_over(tmp_path, controls):
    """An unstarted supervisor whose slots are the given channels."""
    from repro.runtime.supervisor.supervisor import _WorkerHandle

    sup = _supervisor(_calc_template(tmp_path), len(controls))
    for slot, control in enumerate(controls):
        handle = _WorkerHandle(slot)
        handle.process, handle.control = _Running(), control
        sup._handles.append(handle)
    return sup


class TestControlChannel:
    @pytest.mark.parametrize("reply", [b"[]", b"5", b"null", b"{oops"])
    def test_reply_that_is_no_object_is_a_transport_error(self, reply):
        """``[]`` and ``5`` used to leak AttributeError out of
        request(); like unparseable JSON they now end the channel."""
        control = _fake_worker(lambda message: reply)
        with pytest.raises(TransportError, match="malformed"):
            control.status(timeout=2.0)
        assert control.closed

    @pytest.mark.parametrize("command, reply", [
        ("metrics_text", {"ok": True, "text": 5}),
        ("metrics_text", {"ok": False, "error": "unknown command"}),
        ("profile_json", {"ok": True, "snapshot": [1, 2]}),
    ])
    def test_mistyped_field_is_a_transport_error(self, command, reply):
        control = _fake_worker(lambda message: reply)
        with pytest.raises(TransportError, match="malformed"):
            getattr(control, command)(timeout=2.0)
        assert not control.closed  # the worker still speaks the protocol
        control.close()

    @pytest.mark.parametrize("bad", [
        lambda message: b"[]",
        lambda message: b"5",
        lambda message: {"ok": True, "text": 5, "snapshot": 5},
        lambda message: {"ok": True, "text": 'x{le="', "snapshot":
                         {"kind": "not-a-profile"}},
    ])
    def test_one_bad_worker_does_not_take_the_fleet_views_down(
            self, tmp_path, bad):
        """merge_prometheus raised on ``{"text": 5}``, so one worker
        took /metrics, /readyz and status() down for all of them."""
        controls = [_fake_worker(bad), _fake_worker(_well_behaved)]
        sup = _supervisor_over(tmp_path, controls)
        try:
            merged = parse_prometheus(sup.metrics_text())
            assert merged["flick_server_requests_total"][
                (("op", "avg"),)] == 3
            assert sup.profile_json() is None
            rows = sup.status()
            assert rows[1]["alive"] and rows[1]["accepting"]
            assert sup.ready() in (True, False)  # answers, never raises
        finally:
            for control in controls:
                control.close()

    def test_two_threads_never_share_a_seq(self):
        """``_seq += 1`` ran outside the lock the two callers (monitor
        thread, HTTP endpoint) share: a duplicated seq made one of them
        wait for a reply that had already been consumed."""
        control = _fake_worker(lambda message: {"echo": message["seq"]})
        seen, errors = [], []

        def hammer():
            try:
                for _ in range(300):
                    seen.append(control.request("status", timeout=2.0)
                                ["echo"])
            except TransportError as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            control.close()
        assert not errors and not any(t.is_alive() for t in threads)
        assert sorted(seen) == list(range(1, 1201))


class TestWorkerControlLoop:
    def test_non_object_commands_are_ignored_not_fatal(self):
        """``[]`` on the channel used to raise out of the loop and
        leave the worker serving headless."""
        from types import SimpleNamespace

        from repro.runtime.supervisor.worker import _control_loop

        service = SimpleNamespace(
            config=SimpleNamespace(slot=0, generation=0),
            server=SimpleNamespace(accepting=True, in_flight=0),
            engines=(), draining=False,
            metrics_text=lambda: GOOD_METRICS)

        async def main():
            parent_sock, child_sock = socket.socketpair()
            reader, writer = await asyncio.open_connection(
                sock=child_sock)
            stop = asyncio.Event()
            loop_task = asyncio.ensure_future(
                _control_loop(reader, writer, service, stop))
            control = ControlClient(parent_sock)
            parent_sock.sendall(b'[]\n5\n"drain"\n{oops\n')
            text = await asyncio.get_running_loop().run_in_executor(
                None, control.metrics_text)
            assert not stop.is_set() and not loop_task.done()
            control.close()
            await asyncio.wait_for(loop_task, 5.0)
            writer.close()
            return text, stop.is_set()

        assert asyncio.run(main()) == (GOOD_METRICS, True)


# ----------------------------------------------------------------------
# The fleet: accept sharding, restart supervision
# ----------------------------------------------------------------------

class TestFleet:
    def test_two_workers_share_the_port_and_metrics(
            self, tmp_path, calc_module):
        template = _calc_template(tmp_path)
        with _supervisor(template, 2) as sup:
            address = (sup.host, sup.port)
            assert sup.ready()
            for n in range(6):
                assert _call_avg(calc_module, address,
                                 [n, n + 4]) == n + 2.0
            merged = parse_prometheus(sup.metrics_text())
            assert merged["flick_server_requests_total"][
                (("op", "avg"),)] == 6
            # Six one-call connections, whichever workers took them:
            # each reply is one socket write and each request at least
            # one read (the peer's close is not a read).
            assert merged["flick_server_socket_writes_total"][()] == 6
            assert merged["flick_server_socket_reads_total"][()] >= 6
            assert merged["flick_supervisor_workers"][()] == 2
            rows = sup.status()
            assert [row["slot"] for row in rows] == [0, 1]
            assert all(row["accepting"] for row in rows)
            assert len({row["pid"] for row in rows}) == 2
        assert not sup.healthy()

    def test_inherited_listener_fallback(self, tmp_path, calc_module):
        """Without SO_REUSEPORT sharding, every worker accepts from
        the single parent-bound listener it inherited."""
        template = _calc_template(tmp_path)
        with _supervisor(template, 2,
                         force_inherited_listener=True) as sup:
            address = (sup.host, sup.port)
            assert sup.ready()
            pids = _call_pids(calc_module, address, 8)
            worker_pids = {row["pid"] for row in sup.status()}
            assert pids <= worker_pids
            assert _call_avg(calc_module, address, [8, 10]) == 9.0

    def test_sigkill_restart_with_backoff(self, tmp_path, calc_module):
        template = _calc_template(tmp_path)
        with _supervisor(template, 1) as sup:
            address = (sup.host, sup.port)
            first_pid = sup.status()[0]["pid"]
            os.kill(first_pid, signal.SIGKILL)
            assert _wait_until(
                lambda: sup.ready()
                and sup.status()[0]["pid"] != first_pid)
            assert _call_avg(calc_module, address, [1, 3]) == 2.0
            assert len(sup.restart_log) == 1
            _when, slot, code, delay = sup.restart_log[0]
            assert (slot, code) == (0, -signal.SIGKILL)
            assert delay == sup.restart_backoff
            merged = parse_prometheus(sup.metrics_text())
            assert merged["flick_supervisor_restarts_total"][
                (("slot", "0"),)] == 1

    def test_backoff_doubles_per_consecutive_failure(
            self, tmp_path, calc_module):
        template = _calc_template(tmp_path)
        with _supervisor(template, 1) as sup:
            for expected_failures in (1, 2, 3):
                pid = sup.status()[0]["pid"]
                os.kill(pid, signal.SIGKILL)
                assert _wait_until(
                    lambda: sup.ready()
                    and sup.status()[0]["pid"] != pid)
            delays = [entry[3] for entry in sup.restart_log]
            base = sup.restart_backoff
            assert delays == [base, base * 2, base * 4]
            assert _call_avg(calc_module, (sup.host, sup.port),
                             [5, 7]) == 6.0


class TestChaos:
    def test_seeded_sigkill_storm_loses_no_idempotent_call(
            self, tmp_path, calc_module):
        """SIGKILL random workers under concurrent client load: every
        idempotent call completes (client failover + supervisor
        restart), restart counters match the kill count, and each
        slot's restart delays follow the deterministic backoff."""
        template = _calc_template(tmp_path)
        clients, calls_each, kill_count = 64, 6, 3
        with _supervisor(template, 3) as sup:
            address = (sup.host, sup.port)
            kills = []
            rng = random.Random(0xF11C)

            def killer():
                for _ in range(kill_count):
                    time.sleep(rng.uniform(0.05, 0.2))
                    rows = [row for row in sup.status()
                            if row["alive"] and row["pid"] not in kills]
                    if not rows:
                        continue
                    victim = rng.choice(sorted(
                        rows, key=lambda row: row["slot"]))["pid"]
                    try:
                        os.kill(victim, signal.SIGKILL)
                    except ProcessLookupError:
                        continue
                    kills.append(victim)

            async def one_client(n):
                pool = ConnectionPool(*address, pool_size=1,
                                      options=ROBUST)
                try:
                    got = []
                    for i in range(calls_each):
                        reply = await pool.acall(
                            _avg_request(calc_module, i + 1,
                                         [n, n + 2 * i]))
                        got.append(calc_module._u_rep_avg(
                            reply, _ONC_REPLY_BODY))
                        await asyncio.sleep(0.01)
                    return n, got
                finally:
                    await pool.aclose()

            async def load():
                return await asyncio.gather(
                    *[one_client(n) for n in range(clients)])

            killer_thread = threading.Thread(target=killer)
            killer_thread.start()
            results = asyncio.run(load())
            killer_thread.join()

            for n, got in results:
                assert got == [n + float(i) for i in range(calls_each)]
            assert _wait_until(
                lambda: len(sup.restart_log) >= len(kills)
                and sup.ready())
            assert len(sup.restart_log) == len(kills) == kill_count
            merged = parse_prometheus(sup.metrics_text())
            restarts = merged["flick_supervisor_restarts_total"]
            assert sum(restarts.values()) == len(kills)
            by_slot = {}
            for _when, slot, code, delay in sup.restart_log:
                assert code == -signal.SIGKILL
                by_slot.setdefault(slot, []).append(delay)
            for delays in by_slot.values():
                expected = [min(sup.restart_backoff * (2 ** i),
                                sup.backoff_cap)
                            for i in range(len(delays))]
                assert delays == expected


# ----------------------------------------------------------------------
# Schema rollout
# ----------------------------------------------------------------------

def _mail_template(tmp_path):
    """The examples Mail schema served by examples/mail_servant.py."""
    v1_text = open(os.path.join(EXAMPLES, "idl", "mail.idl")).read()
    idl_path = tmp_path / "mail.idl"
    idl_path.write_text(v1_text)
    template = ServiceConfig(
        kind="serve", idl_path=str(idl_path), lang="corba",
        impl="mail_servant:MailServant", host="127.0.0.1", port=0,
        drain_timeout=2.0, sys_paths=[EXAMPLES])
    return str(idl_path), template


MAIL_BREAKING = """\
interface Mail {
    void send(in string<1024> msg, in long urgency);
    long check(in long user);
    string<1024> fetch(in long slot);
};
"""


class TestRollout:
    def test_compatible_rollout_under_load(self, tmp_path):
        idl_path, template = _mail_template(tmp_path)
        v1 = Flick(frontend="corba").compile(
            open(idl_path).read()).load_module()
        with _supervisor(template, 2) as sup:
            transport = AioClientTransport(
                sup.host, sup.port, pool_size=2, options=ROBUST)
            client = v1.MailClient(transport)
            client.send("hello", 1)
            errors, stop = [], threading.Event()

            def pound():
                # Replacement workers start with fresh servant state,
                # so the count may drop back to 0 across the roll; the
                # invariant is that every call gets a valid reply.
                while not stop.is_set():
                    try:
                        assert client.check("bob") >= 0
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)
                        return
                    time.sleep(0.005)

            loader = threading.Thread(target=pound)
            loader.start()
            try:
                old_pids = {row["pid"] for row in sup.status()}
                v2_text = open(os.path.join(
                    EXAMPLES, "idl", "mail_v2.idl")).read()
                open(idl_path, "w").write(v2_text)
                result = sup.rollout()
            finally:
                stop.set()
                loader.join()
            assert not errors, errors
            assert result["outcome"] == "rolled"
            assert result["verdict"] == "DECODE_COMPATIBLE"
            assert sup.generation == 1
            rows = sup.status()
            assert all(row["generation"] == 1 for row in rows)
            assert not ({row["pid"] for row in rows} & old_pids)
            # The v1 client keeps working against the new generation...
            assert client.check("bob") >= 0
            transport.close()
            # ...and a v2 client can reach the appended operation.
            v2 = Flick(frontend="corba").compile(v2_text).load_module()
            t2 = TcpClientTransport(sup.host, sup.port)
            client2 = v2.MailClient(t2)
            client2.expunge(0)
            assert client2.check("bob") == 0
            t2.close()
            merged = parse_prometheus(sup.metrics_text())
            assert merged["flick_supervisor_rollouts_total"][
                (("outcome", "rolled"),)] == 1
            assert merged["flick_supervisor_generation"][()] == 1

    def test_breaking_and_garbage_schemas_refused(self, tmp_path):
        idl_path, template = _mail_template(tmp_path)
        v1 = Flick(frontend="corba").compile(
            open(idl_path).read()).load_module()
        with _supervisor(template, 1) as sup:
            pid = sup.status()[0]["pid"]
            open(idl_path, "w").write(MAIL_BREAKING)
            result = sup.rollout()
            assert result["outcome"] == "refused"
            assert result["verdict"] == "BREAKING"
            assert "check" in result["report"]
            open(idl_path, "w").write("interface Mail {")
            result = sup.rollout()
            assert result["outcome"] == "refused"
            assert result["verdict"] == "ERROR"
            assert "does not compile" in result["report"]
            # The running generation never flinched.
            assert sup.generation == 0
            assert sup.status()[0]["pid"] == pid
            transport = TcpClientTransport(sup.host, sup.port)
            assert v1.MailClient(transport).check("bob") == 0
            transport.close()
            merged = parse_prometheus(sup.metrics_text())
            assert merged["flick_supervisor_rollouts_total"][
                (("outcome", "refused"),)] == 2


# ----------------------------------------------------------------------
# Profile aggregation
# ----------------------------------------------------------------------

class TestProfileAggregation:
    def test_live_and_shutdown_profile_merge(
            self, tmp_path, calc_module):
        profile_path = str(tmp_path / "merged.json")
        template = _calc_template(
            tmp_path, profile_sample=1, profile_path=profile_path)
        calls = 5
        with _supervisor(template, 2) as sup:
            address = (sup.host, sup.port)
            for n in range(calls):
                _call_avg(calc_module, address, [n, n + 2])
            live = sup.profile_json()
            assert live is not None
            snapshot = ProfileSnapshot.from_json(live)
            assert snapshot.ops[("avg", "request")].calls == calls
        merged = sup.stop()  # idempotent second stop
        del merged
        saved = ProfileSnapshot.load(profile_path)
        assert saved.ops[("avg", "request")].calls == calls
        assert saved.ops[("avg", "reply")].calls == calls


# ----------------------------------------------------------------------
# Graceful SIGTERM drain (single-process flick serve)
# ----------------------------------------------------------------------

class TestSigtermDrain:
    @pytest.mark.parametrize("aio", [False, True])
    def test_sigterm_mid_call_still_delivers_the_reply(
            self, tmp_path, calc_module, aio):
        (tmp_path / "calc.idl").write_text(CALC_IDL)
        (tmp_path / "slow_servant.py").write_text(SLOW_SERVANT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, str(tmp_path)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        argv = [sys.executable, "-m", "repro.tools.cli", "serve",
                str(tmp_path / "calc.idl"), "--impl",
                "slow_servant:SlowCalc", "--backend", "oncrpc-xdr",
                "--port", "0"]
        if aio:
            argv.append("--aio")
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        try:
            line = proc.stdout.readline()
            assert "serving Calc" in line, line
            port = int(line.rsplit(":", 1)[1])
            results = []

            def call():
                transport = TcpClientTransport("127.0.0.1", port)
                try:
                    results.append(
                        calc_module.CalcClient(transport).avg([2, 4]))
                finally:
                    transport.close()

            caller = threading.Thread(target=call)
            caller.start()
            time.sleep(0.25)  # the slow call is now in flight
            proc.send_signal(signal.SIGTERM)
            caller.join(timeout=10)
            assert results == [3.0]
            assert proc.wait(timeout=10) == 0
            assert "draining" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# Client failover across a server restart
# ----------------------------------------------------------------------

class _StaleConnectionStub:
    """A pooled connection that died while idle: the next send fails
    instantly with :class:`StaleConnectionError`."""

    def __init__(self):
        self.closed = False
        self.in_flight = 0

    async def acall(self, payload, deadline=None):
        self.closed = True
        raise StaleConnectionError("pooled connection was dead")

    async def aclose(self):
        self.closed = True


class TestPoolFailover:
    def test_stale_connection_retry_is_free_for_idempotent(
            self, calc_module):
        """A dead pooled connection costs an idempotent call nothing:
        no retry attempt, no backoff sleep — just a fresh dial."""
        impl_module = calc_module

        class Impl:
            def avg(self, xs):
                return sum(xs) / len(xs)

            def pid(self):
                return os.getpid()

        server = StubServer(impl_module, Impl()).aio_server()
        with server:
            async def main():
                dialed = {"count": 0}

                async def connector():
                    dialed["count"] += 1
                    if dialed["count"] <= 2:
                        return _StaleConnectionStub()
                    return await AioConnection.open(*server.address)

                # retry=None: a single attempt must still succeed.
                pool = ConnectionPool(
                    *server.address, pool_size=4, connector=connector,
                    options=CallOptions(deadline=5.0, idempotent=True,
                                        retry=None))
                try:
                    reply = await pool.acall(
                        _avg_request(impl_module, 1, [4, 8]))
                    return impl_module._u_rep_avg(
                        reply, _ONC_REPLY_BODY), dialed["count"]
                finally:
                    await pool.aclose()

            value, dial_count = asyncio.run(main())
        assert value == 6.0
        assert dial_count == 3  # two stale pickups, then the live dial

    def test_stale_connection_not_retried_when_not_idempotent(self):
        async def main():
            async def connector():
                return _StaleConnectionStub()

            pool = ConnectionPool(
                "127.0.0.1", 1, pool_size=1, connector=connector,
                options=CallOptions(idempotent=False, retry=None))
            try:
                with pytest.raises(StaleConnectionError):
                    await pool.acall(b"\x00" * 40)
            finally:
                await pool.aclose()

        asyncio.run(main())

    def test_idempotent_call_survives_server_restart(self, calc_module):
        """The end-to-end satellite: a pooled client rides through the
        server process being replaced on the same port."""
        class Impl:
            def avg(self, xs):
                return sum(xs) / len(xs)

            def pid(self):
                return os.getpid()

        def listen_on(port=0):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))
            sock.listen(64)
            return sock

        first_sock = listen_on()
        port = first_sock.getsockname()[1]
        first = StubServer(calc_module, Impl()).aio_server(
            listen_sock=first_sock)
        first.start()
        transport = AioClientTransport(
            "127.0.0.1", port, pool_size=1, options=ROBUST)
        client = calc_module.CalcClient(transport)
        try:
            assert client.avg([1, 5]) == 3.0
            first.stop()
            second = StubServer(calc_module, Impl()).aio_server(
                listen_sock=listen_on(port))
            second.start()
            try:
                assert client.avg([2, 8]) == 5.0
            finally:
                second.stop()
        finally:
            transport.close()

    def test_non_idempotent_call_fails_cleanly_after_restart(
            self, calc_module):
        """Without the idempotent marker there is no silent replay:
        once the request may have executed, the error surfaces."""
        class Impl:
            def avg(self, xs):
                return sum(xs) / len(xs)

            def pid(self):
                return os.getpid()

        server = StubServer(calc_module, Impl()).aio_server()
        with server:
            address = server.address

            async def main():
                loop = asyncio.get_running_loop()
                pool = ConnectionPool(
                    *address, pool_size=1,
                    options=CallOptions(deadline=5.0, idempotent=False,
                                        retry=None))
                try:
                    await pool.acall(_avg_request(calc_module, 1, [2]))
                    # The server (on its own loop thread) goes away;
                    # nothing is listening on the port any more.
                    await loop.run_in_executor(None, server.stop)
                    with pytest.raises(TransportError):
                        await pool.acall(
                            _avg_request(calc_module, 2, [4]))
                finally:
                    await pool.aclose()

            asyncio.run(main())
