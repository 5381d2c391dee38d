"""CI smoke for supervised serving: `flick serve --workers 4`.

Boots a 4-worker fleet on the shipped Mail example, exercises the
aggregated endpoints, performs one compatible SIGHUP schema rollout
(mail.idl -> mail_v2.idl, DECODE_COMPATIBLE) and one refused BREAKING
rollout, and fails if any worker restarted or the parent exits
non-zero.  Run from the repository root::

    python scripts/multiproc_smoke.py
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
EXAMPLES = os.path.join(REPO, "examples")
WORKERS = 4

sys.path.insert(0, SRC)

from repro import api  # noqa: E402
from repro.obs.metrics import parse_prometheus  # noqa: E402
from repro.runtime import TcpClientTransport  # noqa: E402


def fail(message):
    print("FAIL: %s" % message, file=sys.stderr)
    sys.exit(1)


def wait_for(lines, pattern, timeout=60.0):
    """First captured group of *pattern* across collected output lines."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for line in list(lines):
            match = re.search(pattern, line)
            if match:
                return match.group(1)
        time.sleep(0.05)
    fail("timed out waiting for %r in:\n%s" % (pattern, "".join(lines)))


def scrape(port, path, timeout=5.0):
    url = "http://127.0.0.1:%d%s" % (port, path)
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def wait_metric(port, predicate, what, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, text = scrape(port, "/metrics")
        series = parse_prometheus(text)
        if predicate(series):
            return series
        time.sleep(0.2)
    fail("timed out waiting for %s" % what)


def main():
    workdir = tempfile.mkdtemp(prefix="flick-multiproc-smoke-")
    live_idl = os.path.join(workdir, "live.idl")
    v1_text = open(os.path.join(EXAMPLES, "idl", "mail.idl")).read()
    v2_text = open(os.path.join(EXAMPLES, "idl", "mail_v2.idl")).read()
    with open(live_idl, "w") as handle:
        handle.write(v1_text)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, EXAMPLES]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli", "serve", live_idl,
         "--impl", "mail_servant:MailServant", "--workers",
         str(WORKERS), "--port", "0", "--metrics-port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    lines = []

    def pump():
        for line in proc.stdout:
            sys.stdout.write(line)
            lines.append(line)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()

    try:
        serve_port = int(wait_for(
            lines, r"supervising \d+ worker\(s\).* on 127\.0\.0\.1:(\d+)"))
        http_port = int(wait_for(
            lines, r"fleet endpoints on http://127\.0\.0\.1:(\d+)"))

        deadline = time.monotonic() + 60
        while scrape(http_port, "/readyz")[0] != 200:
            if time.monotonic() > deadline:
                fail("/readyz never reached 200")
            time.sleep(0.2)
        if scrape(http_port, "/healthz")[0] != 200:
            fail("/healthz not 200 on a running fleet")

        v1 = api.compile(v1_text, "corba").module
        transport = TcpClientTransport("127.0.0.1", serve_port)
        client = v1.MailClient(transport)
        calls = 10
        for n in range(calls):
            client.send("message %d" % n, n)
        transport.close()

        series = wait_metric(
            http_port,
            lambda s: sum(s.get("flick_server_requests_total",
                                {}).values()) >= calls,
            "aggregated request count >= %d" % calls)
        if series["flick_supervisor_workers"][()] != WORKERS:
            fail("flick_supervisor_workers != %d" % WORKERS)
        up = series["flick_supervisor_worker_up"]
        if len(up) != WORKERS or any(v != 1 for v in up.values()):
            fail("not every worker_up gauge is 1: %r" % up)
        print("== aggregated /metrics ok (%d requests, %d workers up)"
              % (calls, WORKERS))

        # Compatible rollout: v1 -> v2 is DECODE_COMPATIBLE.
        with open(live_idl, "w") as handle:
            handle.write(v2_text)
        proc.send_signal(signal.SIGHUP)
        series = wait_metric(
            http_port,
            lambda s: s.get("flick_supervisor_rollouts_total", {}).get(
                (("outcome", "rolled"),)) == 1,
            "rollout outcome=rolled")
        if series["flick_supervisor_generation"][()] != 1:
            fail("generation gauge did not advance to 1")
        deadline = time.monotonic() + 60
        while scrape(http_port, "/readyz")[0] != 200:
            if time.monotonic() > deadline:
                fail("/readyz never recovered after the rollout")
            time.sleep(0.2)
        v2 = api.compile(v2_text, "corba").module
        transport = TcpClientTransport("127.0.0.1", serve_port)
        client2 = v2.MailClient(transport)
        client2.send("post-rollout", 1)
        client2.expunge(0)  # the operation v2 added
        transport.close()
        print("== compatible SIGHUP rollout ok (generation 1, "
              "v2 operation served)")

        # Breaking rollout: a changed parameter type must be refused.
        with open(live_idl, "w") as handle:
            handle.write(v2_text.replace("in string<64> user",
                                         "in long user"))
        proc.send_signal(signal.SIGHUP)
        series = wait_metric(
            http_port,
            lambda s: s.get("flick_supervisor_rollouts_total", {}).get(
                (("outcome", "refused"),)) == 1,
            "rollout outcome=refused")
        if series["flick_supervisor_generation"][()] != 1:
            fail("generation changed on a refused rollout")
        if scrape(http_port, "/readyz")[0] != 200:
            fail("/readyz not 200 after a refused rollout")
        print("== BREAKING SIGHUP rollout refused ok (generation 1 "
              "keeps serving)")

        restarts = series.get("flick_supervisor_restarts_total", {})
        if sum(restarts.values()) != 0:
            fail("a worker exited unexpectedly during the smoke: %r"
                 % restarts)

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        if code != 0:
            fail("supervisor exited with code %d" % code)
        print("PASS: multiproc smoke (fleet of %d, 1 rolled, 1 refused,"
              " 0 restarts, exit 0)" % WORKERS)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
