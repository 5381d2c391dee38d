"""The "one X" pins: each deleted copy stays deleted.

Every refactor that folded several copies of a decision into one module
left a grep behind that fails when a second copy comes back.  They are
regex checks over the source tree, one test per pin so the failing one
is named; ``TestPinsBite`` re-introduces each pattern into a copy of the
tree and requires the pin to fail, so a pin cannot rot into a pattern
that matches nothing.
"""

from __future__ import annotations

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THIS = "tests/test_architecture.py"
SEARCHED = ("src", "scripts", "examples", "tests", "benchmarks", "docs",
            ".github", "README.md")


class Tree:
    """``{repo-relative path: text}`` with grep over it."""

    def __init__(self, files):
        self.files = files

    @classmethod
    def load(cls):
        files = {}
        for top in SEARCHED:
            top = os.path.join(ROOT, top)
            walk = os.walk(top) if os.path.isdir(top) \
                else [(ROOT, [], [os.path.basename(top)])]
            for directory, subdirs, names in walk:
                subdirs[:] = [d for d in subdirs if d != "__pycache__"]
                for name in names:
                    path = os.path.join(directory, name)
                    try:
                        with open(path, encoding="utf-8") as handle:
                            text = handle.read()
                    except UnicodeDecodeError:
                        continue
                    files[os.path.relpath(path, ROOT)] = text
        return cls(files)

    def with_(self, path, text):
        """A copy with *text* appended to (or creating) *path*."""
        files = dict(self.files)
        files[path] = files.get(path, "") + "\n" + text + "\n"
        return Tree(files)

    def grep(self, pattern, *under, python_only=True, flags=0):
        """``["path:line: text"]`` for lines matching *pattern* in files
        at or below any of *under*."""
        regex = re.compile(pattern, flags)
        hits = []
        for path in sorted(self.files):
            if python_only and not path.endswith(".py"):
                continue
            if not any(path == top or path.startswith(top.rstrip("/") + "/")
                       for top in under):
                continue
            for number, line in enumerate(
                    self.files[path].splitlines(), 1):
                if regex.search(line):
                    hits.append("%s:%d: %s" % (path, number, line.strip()))
        return hits

    def files_of(self, hits):
        return sorted({hit.split(":", 1)[0] for hit in hits})


def _no(hits):
    assert not hits, "\n".join(hits)


def _not_a_definition(hits):
    return [hit for hit in hits
            if not re.match(r"[^:]+:\d+: (async )?(def|class) ", hit)]


# ----------------------------------------------------------------------
# The pins (each takes the tree, so the self-test can hand it a bad one)
# ----------------------------------------------------------------------

def one_writer_of_codec_entries(tree):
    """repro/core/codecs.py is the only module that stores codec
    entries into a loaded stub module (out-of-line ``_m_<T>``/``_u_<T>``
    helper installs are not codec entries and do not match), and no
    patcher's private marker attribute survives."""
    _no(tree.grep(
        r"__dict__\[|setattr\((self\.)?module|\bG\[[a-z_]+\] =",
        "src/repro/obs", "src/repro/runtime", "src/repro/gateway",
        "src/repro/core/handle.py"))
    _no(tree.grep(
        r"__flick_hotness__|_flick_obs_instrumented"
        r"|_flick_profile_instrumented", "src", python_only=False))


def one_request_core_under_every_server(tree):
    """What a failed dispatch means (RuntimeFlickError keeps the
    connection, anything else is a servant crash), the servant_errors
    count (aio/stats.py only defines it) and the call of the stub
    module's error encoder are written in repro/runtime/request.py and
    in no server beside it."""
    runtime, request = "src/repro/runtime", "src/repro/runtime/request.py"
    for what, pattern, defined_in in (
            ("classification", r"RuntimeFlickError", ()),
            ("servant_errors", r"servant_errors",
             ("src/repro/runtime/aio/stats.py",)),
            ("error encoder call", r"(error_encoder|encoder)\(", ())):
        hits = [hit for hit in tree.grep(pattern, runtime)
                if "def " not in hit.split(": ", 1)[1]
                and not hit.startswith(defined_in)]
        assert tree.files_of(hits) == [request], \
            "%s in:\n%s" % (what, "\n".join(hits))


def the_streams_path_is_gone(tree):
    """From runtime/aio, not parked."""
    _no(tree.grep(
        r"StreamReader|StreamWriter|start_server"
        r"|asyncio\.open_connection|\.drain\(",
        "src/repro/runtime/aio", python_only=False))


def one_record_marking_parser(tree):
    """The RFC 1831 record mark is written and parsed in
    repro/runtime/framing.py only: nothing else names its last-fragment
    bit, the two stream drivers (blocking and asyncio) unpack nothing
    themselves (``">I"`` is everywhere in the XDR and envelope code, so
    the pin is that these two files use no struct at all), and the
    blocking transport's old pull parser has not come back under its
    names."""
    _no([hit for hit in tree.grep(r"LAST_FRAGMENT", "src/repro")
         if not hit.startswith("src/repro/runtime/framing.py:")])
    _no(tree.grep(r'struct|">I"',
                  "src/repro/runtime/socket_transport.py",
                  "src/repro/runtime/aio/framed.py"))
    _no(tree.grep(r"def _recv_(exact|record)", "src"))


def envelope_bytes_are_read_in_one_module(tree):
    """repro/envelopes.py holds the one description of each protocol's
    header and is the only place that reads one: the four readers
    outside the stubs unpack nothing themselves, the bounds and tables
    of the description are defined once, the back ends share one
    emit_dispatch_prelude, and the hand-written walkers have not come
    back under their names."""
    _no(tree.grep(r"unpack",
                  "src/repro/runtime/aio/correlation.py",
                  "src/repro/gateway/envelope.py",
                  "src/repro/obs/propagation.py",
                  "src/repro/runtime/request.py"))
    for name in ("MAX_AUTH_BYTES", "MAX_SERVICE_CONTEXTS",
                 "SYSTEM_EXCEPTION_STATUS", "ACCEPT_STAT_NAMES"):
        defined = tree.grep(r"^_?%s = " % name, "src")
        assert tree.files_of(defined) == ["src/repro/envelopes.py"], \
            "%s defined in:\n%s" % (name, "\n".join(defined))
    _no([hit for hit in tree.grep(
        r"[0-9]: ?.PROG_UNAVAIL|PROG_UNAVAIL.: ?[0-9]", "src")
        if not hit.startswith("src/repro/envelopes.py:")])
    defined = tree.grep(r"def emit_dispatch_prelude", "src")
    assert tree.files_of(defined) == ["src/repro/backend/base.py"], defined
    _no(tree.grep(
        r"def (_probe_(onc|giop)|_skip_giop_service_contexts"
        r"|_(onc|giop)_reply_error|_parse_(onc|giop))\(", "src"))


def one_service_assembly(tree):
    """flick serve, flick gateway and the supervised worker reach their
    server through repro/runtime/service.py and nowhere else: each step
    of the assembly (profiler, fault plans, servant) is spelled in that
    one module, there is one HTTP server (repro/obs/http.py), and the
    records and the endpoint the assembly replaced have not come back by
    name."""
    for pattern, home in (
            (r"profile\.configure\(", "src/repro/runtime/service.py"),
            (r"FaultPlan\.load\(", "src/repro/runtime/service.py"),
            (r"load_servant\(", "src/repro/runtime/service.py"),
            (r"start_server\(", "src/repro/obs/http.py")):
        hits = _not_a_definition(tree.grep(pattern, "src/repro"))
        assert tree.files_of(hits) == [home], \
            "%s in:\n%s" % (pattern, "\n".join(hits))
    _no([hit for hit in tree.grep(
        r"ServeOptions|SupervisorHttpServer|WorkerConfig",
        "src", "tests", "benchmarks", "scripts", "docs", "README.md",
        python_only=False) if not hit.startswith(THIS + ":")])


def one_executor_of_marshal_ops(tree):
    """An op class is turned into behaviour in one place,
    repro/mir/render_py.py (dump.py prints, lower.py and passes.py
    build): the step-closure interpreter has not come back under its
    names, nothing under mir/ precompiles a struct.Struct to run an op
    with, and the module that defers the compile of the rendered text is
    reached only from stubs.load()."""
    _no(tree.grep(
        r"_COMPILERS|_compile_expr|_compile_ops"
        r"|def _c_[a-z_]+\(op, G\)|class _Ret", "src/repro"))
    _no(tree.grep(r"struct\.Struct\(", "src/repro/mir"))
    importers = tree.grep(
        r"(import|from) +[a-z_.]*render_closures|import render_closures",
        "src/repro")
    assert tree.files_of(importers) == ["src/repro/backend/base.py"], \
        "render_closures imported by:\n%s" % "\n".join(importers)


def no_tiering(tree):
    """Both renderer names run the same code, so a tier selects nothing:
    the engine, its hotness and shadow layers, the cost model and
    ``recompile()`` are gone and stay gone."""
    _no(tree.grep(
        r"tiering|TierPolicy|HotnessCounter|OpHotness|TierWindow"
        r"|renderer_hint|flick_tier_|\.recompile\(",
        "src", "scripts", "examples", ".github",
        python_only=False, flags=re.IGNORECASE))


def one_handoff_between_the_loop_and_its_workers(tree):
    """The aio server's thread mode moves a record to a worker as a
    tuple on one queue and back as a tuple on one deque
    (runtime/aio/server.py): no executor, and so no Future, work item
    or Condition per record, under runtime/aio."""
    _no(tree.grep(r"concurrent\.futures|ThreadPoolExecutor",
                  "src/repro/runtime/aio"))


def one_header_walk_per_message_on_the_client(tree):
    """The multiplexing client reads a message's header once: the
    request through ``correlation.locate``, the reply through
    ``correlation.route`` (id and classification in one pass), so
    runtime/aio/client.py calls neither ``probe`` nor ``reply_error``
    and correlation.py still unpacks nothing itself; and the aio runtime
    reads sockets into the buffer it owns — no ``data_received`` (which
    costs a ``recv(256 KiB)`` allocation per read) and no ``recv`` of
    its own under runtime/aio."""
    _no(tree.grep(r"\bprobe\(|\breply_error\(",
                  "src/repro/runtime/aio/client.py"))
    _no(tree.grep(r"unpack", "src/repro/runtime/aio/correlation.py"))
    _no(tree.grep(r"def data_received|\.recv\(", "src/repro/runtime/aio"))


def one_place_stub_text_becomes_code(tree):
    """Generated stub text is handed to ``compile()`` in
    repro/core/loader.py (the module, a section at a time) and in
    repro/mir/render_closures.py (one codec function at its first call)
    and nowhere else — the two other ``compile()`` calls of the package
    are of a user's ``.py`` schema and of the envelope readers, not of
    stub text.  The one-off pair the section table replaced has not
    come back under its names."""
    hits = [hit for hit in tree.grep(
        r"(^|[^\w.])compile\(", "src/repro")
        if not hit.startswith(("src/repro/pyschema/to_aoi.py:",
                               "src/repro/envelopes.py:"))]
    assert tree.files_of(_not_a_definition(hits)) == [
        "src/repro/core/loader.py", "src/repro/mir/render_closures.py"], \
        "\n".join(hits)
    _no([hit for hit in tree.grep(
        r"skip_lines|codec_span", *SEARCHED, python_only=False)
        if not hit.startswith(THIS + ":")])


#: pin -> (file, line) pairs, each of which must make it fail.
PINS = {
    one_writer_of_codec_entries: [
        ("src/repro/obs/trace.py", "module.__dict__[name] = wrapper"),
        ("src/repro/gateway/plan.py", "G[name] = function"),
        ("src/repro/obs/profile.py", "_flick_profile_instrumented = 1"),
    ],
    one_request_core_under_every_server: [
        ("src/repro/runtime/socket_transport.py",
         "except RuntimeFlickError:"),
        ("src/repro/runtime/aio/server.py", "stats.servant_errors += 1"),
        ("src/repro/runtime/aio/server.py",
         "reply = self.error_encoder(request)"),
    ],
    the_streams_path_is_gone: [
        ("src/repro/runtime/aio/server.py", "await writer.drain()"),
    ],
    one_record_marking_parser: [
        ("src/repro/runtime/aio/framed.py", "mark & LAST_FRAGMENT"),
        ("src/repro/runtime/socket_transport.py", "import struct"),
        ("src/repro/runtime/transport.py", "def _recv_exact(sock, n):"),
    ],
    envelope_bytes_are_read_in_one_module: [
        ("src/repro/runtime/request.py", "xid, = unpack('>I', data)"),
        ("src/repro/gateway/envelope.py", "MAX_AUTH_BYTES = 400"),
        ("src/repro/backend/iiop.py", "def emit_dispatch_prelude(w):"),
        ("src/repro/obs/propagation.py", "def _parse_giop(frame):"),
    ],
    one_service_assembly: [
        ("src/repro/tools/cli.py", "plan = FaultPlan.load(path)"),
        ("src/repro/runtime/supervisor/worker.py",
         "impl = load_servant(spec, module)"),
        ("docs/INTERNALS.md", "see WorkerConfig"),
    ],
    one_executor_of_marshal_ops: [
        ("src/repro/mir/render_closures.py", "_COMPILERS = {}"),
        ("src/repro/mir/lower.py", "packer = struct.Struct(fmt)"),
        ("src/repro/core/handle.py",
         "from repro.mir.render_closures import compile_function"),
    ],
    one_handoff_between_the_loop_and_its_workers: [
        ("src/repro/runtime/aio/server.py",
         "from concurrent.futures import ThreadPoolExecutor"),
        ("src/repro/runtime/aio/client.py",
         "import concurrent.futures"),
    ],
    one_header_walk_per_message_on_the_client: [
        ("src/repro/runtime/aio/client.py", "error = reply_error(result)"),
        ("src/repro/runtime/aio/client.py", "info = probe(record)"),
        ("src/repro/runtime/aio/correlation.py",
         "xid, = struct.unpack_from('>I', payload)"),
        ("src/repro/runtime/aio/framed.py",
         "def data_received(self, data):"),
        ("src/repro/runtime/aio/server.py", "data = sock.recv(262144)"),
    ],
    one_place_stub_text_becomes_code: [
        ("src/repro/backend/base.py",
         "exec(compile(self.py_source, name, 'exec'), namespace)"),
        ("src/repro/core/handle.py", "code = compile(text, '<stub>', 'exec')"),
        ("src/repro/core/loader.py",
         "def load_stub_module(source, name, skip_lines=None):"),
        ("docs/INTERNALS.md", "its line span as stubs.codec_span"),
    ],
    no_tiering: [
        ("src/repro/runtime/service.py", "tiering: str = 'off'"),
        ("src/repro/obs/profile.py", "class HotnessCounter:"),
        ("scripts/smoke.py", "handle.recompile('rev')"),
        (".github/workflows/ci.yml", "flick_tier_current"),
    ],
}


@pytest.fixture(scope="module")
def tree():
    return Tree.load()


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.__name__)
def test_pin(pin, tree):
    pin(tree)


class TestPinsBite:
    @pytest.mark.parametrize("pin, path, line", [
        pytest.param(pin, path, line,
                     id="%s-%d" % (pin.__name__, index))
        for pin, cases in PINS.items()
        for index, (path, line) in enumerate(cases)])
    def test_reintroducing_the_pattern_fails_the_pin(
            self, pin, path, line, tree):
        with pytest.raises(AssertionError):
            pin(tree.with_(path, line))


def test_the_retired_tiering_interface_is_gone(capsys):
    """No alias was left behind: the flag is an unknown argument, the
    runtime package exports no engine, the layer stack has two names."""
    import repro.runtime
    from repro.core.codecs import LAYER_ORDER
    from repro.tools.cli import main

    assert LAYER_ORDER == ("trace", "profile")
    assert not hasattr(repro.runtime, "TieringEngine")
    assert not hasattr(repro.runtime, "TierPolicy")
    with pytest.raises(SystemExit) as exit_:
        main(["serve", "x.idl", "--impl", "m:C", "--tiering", "auto"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --tiering" in capsys.readouterr().err
