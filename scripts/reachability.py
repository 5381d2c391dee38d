"""Which functions under src/repro run, and who calls them.

    PYTHONPATH=src python scripts/reachability.py [--check]

Records every (caller, callee) edge into src/repro with ``sys.setprofile``
/ ``threading.setprofile`` while tier-1, the benches (timing off), the
examples, the scripts, ``python -m benchmarks.e2e --smoke`` and the CLI
lines CI runs execute, subprocesses included (a temporary
``sitecustomize`` on ``PYTHONPATH`` arms the recorder in every Python
process, and runs a driver's own profile hook after it instead of giving
way to it).  Then prints, per file, the functions that never ran, those
whose only direct callers are under tests/ and those whose callers are
under benchmarks/ (and tests/) only.  "Never ran" is not "dead": a
caller on a path no driver takes keeps a function alive.

``--check`` exits 1 when a function that never ran or has only test
callers is not in :data:`KEEP`, the list of what stays and why, or when
an entry of :data:`KEEP` names no such function any more.  Run it
on a copy of the tree or restore ``BENCH_calls.json`` after: one driver
is ``scripts/call_counts.py``, which rewrites that file.
"""

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
TESTS, BENCHES = (os.path.join(ROOT, top) + os.sep
                  for top in ("tests", "benchmarks"))

#: Armed in every process; a profile hook that raises, or that hits the
#: recursion limit as it is called, is dropped silently, hence re-arm.
#: A driver's own ``sys.setprofile``/``threading.setprofile`` hook is
#: chained after the recorder's, and setting None re-arms it alone.
HOOK = '''import atexit, json, os, sys, threading
EDGES = set()
_set, _tset, _local = sys.setprofile, threading.setprofile, threading.local()
def _hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(%(src)r):
        back = frame.f_back
        EDGES.add((back.f_code.co_filename if back else "",
                   frame.f_code.co_filename, frame.f_code.co_firstlineno))
    theirs = getattr(_local, "theirs", None)
    if theirs is not None:
        theirs(frame, event, arg)
def _setprofile(func):
    _local.theirs = None if func is _hook else func
    _set(_hook)
sys.setprofile = _setprofile
sys.getprofile = lambda: getattr(_local, "theirs", None)
threading.setprofile = lambda func: _tset(func or _hook)
def arm():
    _setprofile(None)
    _tset(_hook)
def _dump():
    with open(os.path.join(%(out)r, "edges.%%d" %% os.getpid()), "w") as f:
        json.dump(sorted(EDGES), f)
arm()
atexit.register(_dump)
'''
PLUGIN = ("import sitecustomize\n"
          "def pytest_runtest_setup(item):\n    sitecustomize.arm()\n")
#: The CLI lines ci.yml runs besides the lint / identity-diff loops.
CLI_LINES = """diff examples/idl/mail.idl examples/idl/mail_v2.idl
diff examples/idl/mail.idl examples/pyschema_mail.py
compile examples/pyschema_mail.py -o {out}/stubs
bridge examples/idl/sensor.idl
bridge examples/idl/sensor_v2.idl examples/idl/sensor.idl
gateway examples/idl/sensor_v2.idl --upstream-idl examples/idl/sensor.idl \
--listen iiop:127.0.0.1:0 --upstream onc:127.0.0.1:9999 --check
ir examples/idl/ledger.idl --op put_rects
ir examples/idl/mail.idl --op send --disable-pass inline_marshal
serve examples/idl/mail.idl --impl mail_servant:MailServant \
--metrics-port 0 --duration 3"""

_SAFETY = "safety code: a hostile or failing peer reaches it"
_HOOK = "abstract hook a subclass overrides"
_FAKE = "test fake: stands in for a peer or a transport"
_ORACLE = "the interpretive oracle the generated codecs are checked against"
_ACCESSOR = "accessor a test asserts an invariant through; no other " \
    "attribute shows that state"
_AIO_CLIENT = "AioClientTransport and its options() view, the blocking " \
    "facade over ConnectionPool, kept after review"
_TRANSPORT = "UDP/Fluke transport kept for callers outside this repository"
_PROTOCOL = "protocol method (repr, str, context manager, null object)"
#: ``"path qualname"`` -> why it stays although no driver but tests (or
#: none) calls it.  ``--check`` fails on any other such function and on
#: an entry that names no such function.
KEEP = {
    "aoi/interfaces.py AoiRoot.__repr__": _PROTOCOL,
    "backend/base.py OptimizingBackEnd.demux_key": _HOOK,
    "compilers/ilu_style.py _make_client_class.method": "the ILU "
    "comparator's oneway call; a schema with a oneway reaches it",
    "compilers/ilu_style.py _make_servant_class.method": _HOOK,
    "compilers/per_datum.py PerDatumBackEnd.routine": _HOOK,
    "compilers/per_datum.py PerDatumBackEnd.open_message": _HOOK,
    "corba/ast.py AstScopedName.__str__": _PROTOCOL,
    "encoding/base.py WireFormat.__repr__": _PROTOCOL,
    "encoding/buffer.py MarshalBuffer.__len__": _PROTOCOL,
    "faults/transport.py FaultyTransport.__init__": _FAKE,
    "faults/transport.py FaultyTransport.call": _FAKE,
    "faults/transport.py FaultyTransport.send": _FAKE,
    "faults/transport.py FaultyTransport.close": _FAKE,
    "frontends/__init__.py FrontEnd.compile_frontend": "the front end "
    "alone (parse, then lower), the public way to an AoiRoot; api.compile "
    "runs the two phases apart to time each",
    "gateway/plan.py BridgePlan.fused_request_ops": "flick gateway's "
    "listening banner; no driver serves a gateway from the CLI",
    "idl/source.py SourceFile.__repr__": _PROTOCOL,
    "obs/trace.py _NoopSpan.set": _PROTOCOL,
    "obs/trace.py CollectingExporter.__init__": _FAKE,
    "obs/trace.py CollectingExporter.by_name": _FAKE,
    "pgen/base.py PresentationGenerator.c_stub_decl": _HOOK,
    "pres/interp.py InterpretiveCodec.encode": _ORACLE,
    "pres/interp.py InterpretiveCodec.decode": _ORACLE,
    "runtime/aio/client.py AioConnection._peer_name": _SAFETY,
    "runtime/aio/client.py AioClientTransport.__init__": _AIO_CLIENT,
    "runtime/aio/client.py AioClientTransport.close": _AIO_CLIENT,
    "runtime/aio/client.py AioClientTransport.options": _AIO_CLIENT,
    "runtime/aio/client.py AioClientTransport.pool": _AIO_CLIENT,
    "runtime/aio/client.py _OptionedTransport.send": _AIO_CLIENT,
    "runtime/aio/client.py _OptionedTransport.close": _AIO_CLIENT,
    "runtime/aio/client.py _OptionedTransport.options": _AIO_CLIENT,
    "runtime/aio/framed.py FramedConnection.records_received": _HOOK,
    "runtime/aio/framed.py FramedConnection.framing_lost": _HOOK,
    "runtime/aio/framed.py FramedConnection.writable_changed": _HOOK,
    "runtime/aio/server.py AioTcpServer.__aenter__": _PROTOCOL,
    "runtime/aio/server.py AioTcpServer.__aexit__": _PROTOCOL,
    "runtime/aio/server.py BufferPool.retained_bytes": _ACCESSOR,
    "runtime/flukeipc.py FlukeIpcTransport.__init__": _TRANSPORT,
    "runtime/framing.py RecordDecoder.pending_bytes": _ACCESSOR,
    "runtime/framing.py RecordDecoder.at_record_boundary": _ACCESSOR,
    "runtime/server.py StubServer.udp_server": _TRANSPORT,
    "runtime/service.py Service.__enter__": _PROTOCOL,
    "runtime/service.py Service.__exit__": _PROTOCOL,
    "runtime/socket_transport.py UdpClientTransport.__init__": _TRANSPORT,
    "runtime/socket_transport.py UdpClientTransport.close": _TRANSPORT,
    "runtime/socket_transport.py UdpServer.drain": _TRANSPORT,
    "runtime/socket_transport.py UdpServer.__enter__": _PROTOCOL,
    "runtime/socket_transport.py UdpServer.__exit__": _PROTOCOL,
    "runtime/transport.py Transport.call": _HOOK,
    "runtime/transport.py Transport.send": _HOOK,
    "runtime/transport.py Transport.close": _HOOK,
}


def drivers(out):
    py, cli = sys.executable, [sys.executable, "-m", "repro.tools.cli"]
    runs = [[py, "-m", "pytest", "-x", "-q", "-p", "reachability_plugin"],
            # A driver only: a timing assert that fails under the
            # recorder's overhead loses none of the edges recorded.
            [py, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
             "-p", "no:cacheprovider", "--ignore=benchmarks/e2e",
             "-p", "reachability_plugin"]]
    runs += [[py, path] for path in sorted(glob.glob("examples/*.py"))]
    for path in sorted(glob.glob("scripts/*.py")):
        if path == "scripts/reachability.py":
            continue
        with open(path) as handle:
            text = handle.read()
        runs.append([py, path] + (["--rounds", "1"] if "--rounds" in text
                                  else []))
        if "--check" in text:
            runs.append([py, path, "--check"])
    # A driver only: under the recorder a workload's measured pass
    # overruns its time budget and the ops after the cut count as
    # failed; CI runs the same smoke without the recorder, and that
    # run's verdict is the smoke's.
    runs += [[py, "-m", "benchmarks.e2e", "--smoke"],
             [py, "tests/gateway_smoke.py"]]
    for path in sorted(glob.glob("examples/idl/*")):
        runs += [cli + ["lint", path], cli + ["diff", path, path]]
    runs += [cli + line.format(out=out).split()
             for line in CLI_LINES.splitlines()]
    return runs


def functions(node, prefix=""):
    """``(qualified name, first line, last line)`` of every def."""
    for child in ast.iter_child_nodes(node):
        scope = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            yield prefix + child.name, first, child.end_lineno
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            scope = prefix + child.name + "."
        yield from functions(child, scope)


def record(out):
    """Run every driver under the recorder; ``{(file, line): callers}``."""
    with open(os.path.join(out, "sitecustomize.py"), "w") as handle:
        handle.write(HOOK % {"src": SRC + os.sep, "out": out})
    with open(os.path.join(out, "reachability_plugin.py"), "w") as handle:
        handle.write(PLUGIN)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [out, os.path.join(ROOT, "src"), os.path.join(ROOT, "examples")]))
    for argv in drivers(out):
        done = subprocess.run(argv, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        print("ran (exit %d): %s" % (done.returncode, " ".join(argv[1:])),
              file=sys.stderr)
        if done.returncode:
            for line in done.stdout.splitlines()[-15:]:
                print("    " + line, file=sys.stderr)
    callers = {}
    for path in glob.glob(os.path.join(out, "edges.*")):
        with open(path) as handle:
            for caller, callee, line in json.load(handle):
                callers.setdefault((callee, line), set()).add(caller)
    return callers


def kind_of(seen):
    """None when a driver besides tests and benches calls the function."""
    if not seen:
        return "never ran"
    if all(caller.startswith(TESTS) for caller in seen):
        return "tests only"
    if all(caller.startswith((TESTS, BENCHES)) for caller in seen):
        return "bench only"
    return None


def main(argv):
    if argv not in ([], ["--check"]):
        sys.exit("usage: reachability.py [--check]")
    check = bool(argv)
    os.chdir(ROOT)  # the drivers name their files from the root
    with tempfile.TemporaryDirectory(prefix="flick-reachability-") as out:
        callers = record(out)
    totals = {kind: [0, 0] for kind in ("never ran", "tests only",
                                        "bench only")}
    unexplained, listed = [], set()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        found = {kind: [] for kind in totals}
        with open(path) as handle:
            tree = ast.parse(handle.read())
        relative = os.path.relpath(path, SRC)
        for name, first, last in functions(tree):
            kind = kind_of(callers.get((path, first)))
            if kind:
                found[kind].append("%s:%d" % (name, first))
                totals[kind][0] += 1
                totals[kind][1] += last - first + 1
                key = "%s %s" % (relative, name)
                if kind != "bench only":
                    listed.add(key)
                    if key not in KEEP:
                        unexplained.append("%s (%s)" % (key, kind))
        for kind, names in found.items():
            if names:
                print("%s  %s: %s" % (os.path.relpath(path, ROOT), kind,
                                      ", ".join(names)))
    for kind, (count, lines) in totals.items():
        print("%s: %d functions, %d lines" % (kind, count, lines))
    stale = sorted(set(KEEP) - listed)
    if unexplained:
        print("not in reachability.KEEP (delete, drive from a test, or "
              "keep with a reason):\n  " + "\n  ".join(unexplained))
    if stale:
        print("in reachability.KEEP but neither never ran nor tests only "
              "(drop the entry):\n  " + "\n  ".join(stale))
    return 1 if check and (unexplained or stale) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
