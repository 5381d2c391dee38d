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

    def blocks(self, path, *headers):
        """``[["path:line: text", ...], ...]``: every block of *path*
        reached through *headers* in turn — a line matching the first,
        then inside that line's block one matching the next, and so on.
        A block is its header line and the lines indented deeper."""
        found = [list(enumerate(self.files.get(path, "").splitlines(), 1))]
        for header in headers:
            regex, nested = re.compile(header), []
            for block in found:
                for index, (_number, line) in enumerate(block):
                    if not regex.search(line):
                        continue
                    indent = len(line) - len(line.lstrip())
                    end = index + 1
                    while end < len(block) and (
                            not block[end][1].strip()
                            or len(block[end][1])
                            - len(block[end][1].lstrip()) > indent):
                        end += 1
                    nested.append(block[index:end])
            found = nested
        return [["%s:%d: %s" % (path, number, line.strip())
                 for number, line in block] for block in found]


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
        "src/repro/core/compiler.py"))
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
    outside the stubs and the ILU baseline unpack nothing themselves
    (ILU decodes body atoms through its codec's ``unpack_atom``, so its
    pattern is the unpack call), the bounds and tables
    of the description are defined once, the back ends share one
    emit_dispatch_prelude, and the hand-written walkers have not come
    back under their names."""
    _no(tree.grep(r"unpack",
                  "src/repro/runtime/aio/correlation.py",
                  "src/repro/gateway/envelope.py",
                  "src/repro/obs/propagation.py",
                  "src/repro/runtime/request.py"))
    _no(tree.grep(r"unpack(_from)?\(", "src/repro/compilers/ilu_style.py"))
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
            (r"documents\.load\(FaultPlan", "src/repro/runtime/service.py"),
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
    and nowhere else — the three other ``compile()`` calls of the
    package are of a user's ``.py`` schema, of the envelope readers and
    of the class factory's per-arity ``__init__`` templates, none of it
    stub text.  The one-off pair the section table replaced has not
    come back under its names."""
    hits = [hit for hit in tree.grep(
        r"(^|[^\w.])compile\(", "src/repro")
        if not hit.startswith(("src/repro/pyschema/to_aoi.py:",
                               "src/repro/envelopes.py:",
                               "src/repro/pres/values.py:"))]
    assert tree.files_of(_not_a_definition(hits)) == [
        "src/repro/core/loader.py", "src/repro/mir/render_closures.py"], \
        "\n".join(hits)
    _no([hit for hit in tree.grep(
        r"skip_lines|codec_span", *SEARCHED, python_only=False)
        if not hit.startswith(THIS + ":")])


def one_load_path_under_both_renderer_names(tree):
    """``py`` and ``closures`` load a module the same way — the codec
    section deferred function by function — so nothing under src/
    branches on the name being ``closures``, and the module-name suffix
    and the module marker that told the two load paths apart are
    gone."""
    _no(tree.grep(r"renderer *[!=]= *[\"']closures|_clo\b|__renderer__",
                  "src", python_only=False))


def one_lowering_feeds_every_printer(tree):
    """The C artifact is printed from the marshal IR
    (repro/mir/render_c.py) lowered through the same
    repro/mir/lower.py as the Python stubs: the private re-lowering of
    PRES_C is gone under its names, neither printer reads PRES or MINT,
    the lowering spells no Python (every spelling is a table's), and the
    back end imports the C printer only when C is read."""
    _no(tree.grep(r"cemit|CStubEmitter|emit_c_stubs", "src",
                  python_only=False))
    _no(tree.grep(r"^\s*(from|import) +repro\.(pres|mint)\b",
                  "src/repro/mir/render_c.py", "src/repro/mir/render_py.py"))
    _no(tree.grep(r"encode\('latin-1'\)|map\(ord"
                  r"|\"[^\"\n]*( is None\b|\blen\()[^\"\n]*\"",
                  "src/repro/mir/lower.py"))
    _no(tree.grep(r"^(from|import) +repro\.mir(\.render_c| import.*render_c)",
                  "src/repro/backend/base.py"))


def one_reader_of_outside_documents(tree):
    """Every JSON document read from outside the process (a service
    config, a fault plan, a profile snapshot, a control line) is parsed
    in repro/documents.py and checked against its dataclass there: no
    other module parses JSON, and the four hand-written validators are
    gone under their names."""
    hits = tree.grep(r"json\.loads?\(", "src/repro")
    assert tree.files_of(hits) == ["src/repro/documents.py"], \
        "\n".join(hits)
    _no(tree.grep(r"(?<!\w)(_expect|_counts|_field)\(|\bfrom_dict\(",
                  "src"))


def no_poll_or_lock_per_blocking_call(tree):
    """A blocking call pays for no Python-level socket timeout, no lock
    and one request-core frame: the client transports keep their
    deadline in socket options (a ``settimeout(deadline)`` makes CPython
    ``poll()`` before every send and recv), TcpServer's serve loop keeps
    no ``_busy`` set and takes its lock only outside the loop, and the
    synchronous drivers enter the core once, through ``handle`` — the
    begin/serve/end helper ``socket_transport._serve`` is gone."""
    path = "src/repro/runtime/socket_transport.py"
    _no(tree.grep(r"settimeout\((self\.)?_?deadline", "src/repro/runtime"))
    _no(tree.grep(r"\b_busy\b", path))
    _no(tree.grep(r"(^|[^.\w])_serve\(", path))
    _no(tree.grep(r"\.(begin|end)\(", path, "src/repro/runtime/server.py"))
    for loop in tree.blocks(path, r"def _serve_connection\(", r"^\s*while "):
        _no([line for line in loop if "_lock" in line])


def one_per_datum_walker(tree):
    """The rival code styles print their codecs from one walk,
    repro/compilers/per_datum.py, in one spelling each: ``emit_put`` and
    ``emit_get`` are defined in that file alone, and the two private
    emitters and the base class's writer loop they plugged into have not
    come back."""
    defined = tree.grep(r"def emit_(put|get)\(", "src")
    assert tree.files_of(defined) == [
        "src/repro/compilers/per_datum.py"], "\n".join(defined)
    _no([hit for hit in tree.grep(
        r"_NaiveXdrEmitter|_CdrStreamEmitter|_emit_codec_functions_writer",
        *SEARCHED, python_only=False) if not hit.startswith(THIS + ":")])


def one_description_per_setting(tree):
    """A serving setting is described once, by its ServiceConfig field
    (help, spelling, type, default): cli.py constructs no ServiceConfig
    and spells none of the flags the record's fields describe, and the
    option groups several verbs share are declared once, as parent
    parsers — ``--interface`` among them."""
    import dataclasses

    from repro.runtime.service import ServiceConfig

    cli = "src/repro/tools/cli.py"
    _no(tree.grep(r"ServiceConfig\(", cli))
    spellings = [f.metadata["flag"][0] or "--" + f.name.replace("_", "-")
                 for f in dataclasses.fields(ServiceConfig)
                 if "flag" in f.metadata]
    _no(tree.grep(r"[\"'](%s)[\"']" % "|".join(spellings), cli))
    declared = re.findall(r"add_argument\(\s*[\"']--interface[\"']",
                          tree.files[cli])
    assert len(declared) == 1, declared


def one_writer_per_error_reply(tree):
    """Protocol error replies are written by repro.envelopes.write_error
    alone, and the gateway pairs no operation of its own: errmap packs
    no bytes, neither back end's emit_error_reply prints a pack, nothing
    under the gateway pairs channels (repro/compat/pairwalk.py does),
    and outside the back ends and the marshal IR only ``HeaderSpec``
    copies a header template into a buffer."""
    errmap = "src/repro/gateway/errmap.py"
    _no(tree.grep(r"^\s*(import struct|from struct )|pack_into", errmap))
    for path in ("src/repro/backend/oncxdr.py", "src/repro/backend/iiop.py"):
        for block in tree.blocks(path, r"def emit_error_reply\("):
            _no([line for line in block if "_pack_into" in line])
    _no(_not_a_definition(tree.grep(
        r"\b(fuse_channel|pair_message)\(|\.channels\(\)",
        "src/repro/gateway")))
    _no([hit for hit in tree.grep(
        r"reserve\(len\([\w.]*template\)|\] = \(?[\w.]*template\b", "src")
        if not hit.startswith(("src/repro/backend/", "src/repro/mir/"))])


def envelope_bytes_are_written_in_one_module(tree):
    """Header templates and error replies are written by the walks in
    repro/envelopes.py that read them back: the four back ends import
    no struct and spell no GIOP magic or Mach msgh_bits, and outside
    that module and the comparators under compilers/ nothing builds a
    ``HeaderSpec``, spells the GIOP magic as bytes, names msgh_bits or
    packs a header-shaped run of three or more words.  The back ends
    share one request_header and one reply_header.  The trace context
    propagation weaves into a request is written by the same walk:
    repro/obs/propagation.py imports no struct."""
    defined = tree.grep(r"def (request|reply)_header\(", "src")
    assert tree.files_of(defined) == ["src/repro/backend/base.py"], defined
    _no(tree.grep(r"^\s*(import struct|from struct )|b[\"']GIOP|MSGH_BITS_",
                  *("src/repro/backend/%s.py" % name for name in (
                      "iiop", "oncxdr", "mach3", "flukeipc"))))
    _no([hit for hit in tree.grep(
        r"\bHeaderSpec\(|b[\"']GIOP|MSGH_BITS_|[\"'][<>]?I{3,}[\"']", "src")
        if not hit.startswith(("src/repro/envelopes.py:",
                               "src/repro/compilers/"))])
    _no(tree.grep(r"^\s*(import struct|from struct )|\bstruct\.",
                  "src/repro/obs/propagation.py"))


def no_naive_type_ir(tree):
    """A message's shape is described once, in PRES_C: the planner,
    ``flick bridge`` and the profiler read its channels directly, so no
    second type IR is built, carried on the stubs or planted on a
    loaded module."""
    _no(tree.grep(r"\b(build_naive|NaiveProgram|TypeChannel|_flick_shapes"
                  r"|shapes_factory)\b", "src"))


def one_pairwise_walk(tree):
    """Two PRES_C trees are paired node by node in one module,
    repro/compat/pairwalk.py, which gives the findings, the copy
    segments and the blockers: no ``_MessageDiffer`` or ``_fuse_node``
    comes back, nothing else under compat/ or gateway/ resolves a named
    type or guards a recursion (lint.py walks one tree, for hazards of
    its own), fraction.py reads the walk's items, sizes included,
    instead of walking a schema or sizing its MINT, and
    check_bridge and build_plan read one per-operation pairing instead
    of matching stubs by name."""
    walker = "src/repro/compat/pairwalk.py"
    _no(tree.grep(r"\b(_MessageDiffer|_fuse_node)\b", "src"))
    _no([hit for hit in tree.grep(
        r"pres_registry\b|\bis_recursive\(|\b_walking\b|\b_resolve\(",
        "src/repro/compat", "src/repro/gateway")
        if not hit.startswith((walker + ":", "src/repro/compat/lint.py:"))])
    _no(tree.grep(r"\.channels\(\)|stub_named\(|\bp\.Pres|\bpair_"
                  r"(message|bridge)\(|\banalyze_storage\b",
                  "src/repro/gateway/fraction.py"))
    _no(tree.grep(r"operation_name|presc\.stubs\b|\.oneway\s*!=",
                  "src/repro/gateway/check.py", "src/repro/gateway/plan.py"))


def no_segment_interpreter(tree):
    """The gateway prints each fused channel's copy segments as one
    function (repro/gateway/plan.py's printer) instead of interpreting
    them: no segment class has a ``copy`` method and no
    ``run_segments`` walks a list of them."""
    _no(tree.grep(r"^\s+def copy\(", "src/repro/compat",
                  "src/repro/gateway"))
    _no(tree.grep(r"\brun_segments\b", "src"))


def one_compile_result(tree):
    """Every compile returns a ``CompileResult`` (repro/core/compiler.py)
    itself: no handle module and no subclass layered over the result."""
    _no([path for path in tree.files if path == "src/repro/core/handle.py"])
    _no(tree.grep(r"\bCompiledInterface\b|class \w+\((\w+\.)*CompileResult\)",
                  "src", "scripts", "examples"))


def one_compile_entry(tree):
    """``repro.api.compile``/``compile_all`` are the one way into the
    compiler: no ``Flick`` facade or second interface picker under
    src/, ``.module`` the one way to the stubs, ``--lang`` the one
    spelling of the language and ``but(NAME=False)`` of turning an
    optimization off — and nothing the repository ships still calls
    the deleted spellings."""
    _no(tree.grep(r"\bclass Flick\b|\bdef load_module\b|\bcompile_interface\b"
                  r"|[\"']--frontend[\"']|\bdef disable_pass\b", "src"))
    _no([hit for hit in tree.grep(
        r"\bFlick\(|\.load_module\(|--frontend\b|\.disable_pass\(",
        *SEARCHED, python_only=False) if not hit.startswith(THIS + ":")])


def one_atom_codec_lookup(tree):
    """A wire format declares its atom codecs as data and
    ``WireFormat.atom_codec`` (repro/encoding/base.py) is the one
    lookup: no format defines it again."""
    defined = tree.grep(r"def atom_codec\(", "src")
    assert tree.files_of(defined) == ["src/repro/encoding/base.py"], \
        "\n".join(defined)


def one_c_type_mapping(tree):
    """A presentation spells its C types through its ``c_spelling``
    table; the mapping itself (scalar names, signature types, counted
    array carriers) is written once, in repro/pgen/base.py."""
    defined = tree.grep(
        r"def (c_scalar_type|_base_c_type|_element_name|c_seq_decl)\(",
        "src")
    assert tree.files_of(defined) == ["src/repro/pgen/base.py"], \
        "\n".join(defined)


def one_procedure_number(tree):
    """"The declared code, else the 1-based position" is
    ``procedure_number`` in repro/backend/base.py: no back end counts
    its stubs itself, and the per-protocol copies are gone by name."""
    hits = tree.grep(r"enumerate\([\w.]*stubs, 1\)", "src/repro/backend")
    assert tree.files_of(hits) == ["src/repro/backend/base.py"], \
        "\n".join(hits)
    _no(tree.grep(r"def (operation_number|operation_code)\(", "src"))


def one_event_loop_on_a_thread(tree):
    """An asyncio server runs its loop on a thread through
    repro/loopthread.py, which imports neither the runtime nor obs: no
    server writes its own ``_run_on_thread`` or stop signal again."""
    hits = tree.grep(
        r"def _run_on_thread\(|call_soon_threadsafe\(self\._stop_event", "src")
    assert tree.files_of(hits) == ["src/repro/loopthread.py"], \
        "\n".join(hits)
    _no(tree.grep(r"^\s*(from|import) +repro\.(runtime|obs)\b",
                  "src/repro/loopthread.py"))


def no_renderer_selection(tree):
    """The renderer name selects nothing: ``api.compile`` records it on
    the stubs, no back end takes it, and no table lists renderers."""
    _no(tree.grep(r"\bRENDERERS\b|def generate\([^)]*renderer", "src"))


def no_lowering_at_compile(tree):
    """A compile prints the scaffold and lowers nothing: no back end's
    ``generate`` builds, optimizes or prints marshal IR, nor reads what
    would (the codec text, the IR, the chunk counts), and the codec
    section a load used to leave out is gone with ``defer_codecs`` and
    the loader's ``without=``.  (The per-datum comparators, which load
    whole, print their codecs at compile, as the compilers they stand
    for did.)"""
    lowering = re.compile(
        r"build_(program|operation)\(|PassManager\(|render_program\("
        r"|_emit_codec_functions\(|_print_codecs\("
        r"|(self|stubs)\.(py_source|mir|metadata)\b")
    for path in sorted(tree.files):
        if path.startswith("src/repro/backend/") \
                or path == "src/repro/compilers/mig_style.py":
            for block in tree.blocks(path, r"def generate\("):
                _no([hit for hit in block
                     if lowering.search(hit.split(": ", 1)[1])])
    _no([hit for hit in tree.grep(r"defer_codecs|without=", *SEARCHED,
                                  python_only=False)
         if not hit.startswith(THIS + ":")])


def one_layer_registry(tree):
    """Which stub modules get a codec layer, and whether the layer is
    on, is kept once, in repro/core/codecs.py (``instrument`` /
    ``switch``, weakly and per layer): no other module keeps an
    ``_instrumented`` registry, and the per-layer records that each
    kept one (``_InstrumentedModule``, ``_ProfiledModule``) stay gone."""
    _no([hit for hit in tree.grep(r"\b_instrumented\b", "src")
         if not hit.startswith("src/repro/core/codecs.py:")])
    _no(tree.grep(r"\b(_InstrumentedModule|_ProfiledModule)\b", "src"))


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
        ("src/repro/compilers/ilu_style.py",
         "(request_id,) = struct.unpack_from(endian + 'I', data, offset)"),
    ],
    one_per_datum_walker: [
        ("src/repro/compilers/orbeline_style.py",
         "    def emit_put(self, pres, expr):"),
        ("src/repro/compilers/rpcgen_style.py", "class _NaiveXdrEmitter:"),
        ("src/repro/backend/base.py",
         "    def _emit_codec_functions_writer(self, w, presc, flags,"
         " metadata):"),
    ],
    one_service_assembly: [
        ("src/repro/tools/cli.py",
         "plan = documents.load(FaultPlan, path, 'fault plan')"),
        ("src/repro/runtime/supervisor/worker.py",
         "impl = load_servant(spec, module)"),
        ("docs/INTERNALS.md", "see WorkerConfig"),
    ],
    one_executor_of_marshal_ops: [
        ("src/repro/mir/render_closures.py", "_COMPILERS = {}"),
        ("src/repro/mir/lower.py", "packer = struct.Struct(fmt)"),
        ("src/repro/core/compiler.py",
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
        ("src/repro/core/compiler.py",
         "code = compile(text, '<stub>', 'exec')"),
        ("src/repro/core/loader.py",
         "def load_stub_module(source, name, skip_lines=None):"),
        ("docs/INTERNALS.md", "its line span as stubs.codec_span"),
    ],
    one_load_path_under_both_renderer_names: [
        ("src/repro/backend/base.py",
         "            closures = self.renderer == 'closures'"),
        ("src/repro/backend/base.py", '            module_name += "_clo"'),
        ("src/repro/mir/render_closures.py",
         '    G["__renderer__"] = "closures"'),
    ],
    one_lowering_feeds_every_printer: [
        ("src/repro/backend/cemit.py", "class CStubEmitter:"),
        ("src/repro/mir/render_c.py", "from repro.pres import nodes as p"),
        ("src/repro/mir/render_py.py",
         "from repro.mint.types import MintInteger"),
        ("src/repro/mir/lower.py", "data = \"%s.encode('latin-1')\" % expr"),
        ("src/repro/mir/lower.py", "expr = \"map(ord, %s)\" % expr"),
        ("src/repro/mir/lower.py", "cond = \"%s is None\" % expr"),
        ("src/repro/mir/lower.py", "n = \"len(%s)\" % expr"),
        ("src/repro/backend/base.py",
         "from repro.mir.render_c import render_c"),
    ],
    one_reader_of_outside_documents: [
        ("src/repro/runtime/service.py", "data = json.load(handle)"),
        ("src/repro/runtime/supervisor/control.py",
         "reply = json.loads(line)"),
        ("src/repro/obs/profile.py",
         "sample = _expect(get('sample', 64), int, 'sample')"),
        ("src/repro/obs/profile.py",
         "out.exact = _counts(get('exact', {}), field + '.exact', True)"),
        ("src/repro/faults/plan.py", "return cls.from_dict(data)"),
        ("src/repro/runtime/supervisor/control.py",
         "return self._field('metrics', 'text', str, timeout)"),
    ],
    no_poll_or_lock_per_blocking_call: [
        ("src/repro/runtime/socket_transport.py",
         "        self._sock.settimeout(deadline)"),
        ("src/repro/runtime/socket_transport.py",
         "        self._busy = set()"),
        ("src/repro/runtime/socket_transport.py",
         "    def _serve_connection(self, connection):\n"
         "        while True:\n"
         "            with self._lock:\n"
         "                pass"),
        ("src/repro/runtime/socket_transport.py",
         "def _serve(core, record, buffer, write):"),
        ("src/repro/runtime/server.py",
         "        ticket = core.begin(request)"),
    ],
    one_description_per_setting: [
        ("src/repro/tools/cli.py",
         "    return ServiceConfig(kind='serve', port=args.port)"),
        ("src/repro/tools/cli.py",
         "    flags.add_argument('--max-concurrency', type=int, default=64)"),
        ("src/repro/tools/cli.py",
         "    ir_parser.add_argument(\"--interface\", default=None)"),
    ],
    one_writer_per_error_reply: [
        ("src/repro/gateway/errmap.py", "import struct"),
        ("src/repro/gateway/errmap.py",
         "    _pack_into('>IIIIII', buffer.data, offset, xid, 1, 1, 0, 2, 2)"),
        ("src/repro/backend/oncxdr.py",
         "    def emit_error_reply(self, w, presc):\n"
         "        w.line(\"_pack_into('>II', b.data, _o0, _ctx, 1)\")"),
        ("src/repro/backend/iiop.py",
         "    def emit_error_reply(self, w, presc):\n"
         "        w.line(\"_pack_into('>I', b.data, _o0 + 8, b.length)\")"),
        ("src/repro/gateway/fraction.py",
         "    segments = fuse_channel(src_items, dst_items, sides)"),
        ("src/repro/gateway/proxy.py",
         "    segments = fuse_channel(src, dst, types_in, types_eg)"),
        ("src/repro/gateway/proxy.py",
         "    offset = buffer.reserve(len(header.template))"),
        ("src/repro/compilers/ilu_style.py",
         "        buffer.data[offset:end] = reply_header.template"),
    ],
    one_pairwise_walk: [
        ("src/repro/compat/mintdiff.py", "class _MessageDiffer:"),
        ("src/repro/gateway/plan.py",
         "def _fuse_node(src, dst, sides, segments):"),
        ("src/repro/compat/ifacediff.py",
         "        pres = presc.pres_registry[pres.name]"),
        ("src/repro/gateway/plan.py",
         "    if is_recursive(src.mint, side.presc.mint_registry):"),
        ("src/repro/gateway/fraction.py",
         "    channels_in = ingress.presc.stub_named(op.name).channels()"),
        ("src/repro/gateway/fraction.py",
         "    pair = pair_message(src, dst, presc_in, presc_eg, fmt)"),
        ("src/repro/gateway/fraction.py",
         "    info = analyze_storage(item.pres.mint, fmt, registry)"),
        ("src/repro/gateway/check.py",
         "    egress_stubs = {s.operation_name: s for s in presc.stubs}"),
        ("src/repro/gateway/plan.py",
         "        if other is None or stub.oneway != other.oneway:"),
    ],
    envelope_bytes_are_written_in_one_module: [
        ("src/repro/backend/oncxdr.py",
         "    def request_header(self, presc, stub):\n"
         "        template = struct.pack(\">IIIIIIIIII\", 0, CALL, 2)\n"
         "        return HeaderSpec(template, patches=((0, \">I\", \"_ctx\"),))"),
        ("src/repro/backend/iiop.py",
         "    def _giop_header(self, message_type):\n"
         "        return b\"GIOP\" + bytes((1, 0, 0, message_type))"),
        ("src/repro/backend/mach3.py", "import struct"),
        ("src/repro/backend/mach3.py", "MSGH_BITS_REQUEST = 0x00001513"),
        ("src/repro/backend/flukeipc.py",
         "        return HeaderSpec(b\"\")"),
        ("src/repro/gateway/proxy.py",
         "    message = struct.pack('>IIIII', xid, 1, 1, 1, 7)"),
        ("src/repro/obs/propagation.py", "import struct"),
        ("src/repro/obs/propagation.py",
         "    entry = struct.pack(endian + \"II\", TRACE_CONTEXT_ID,"
         " _BODY_SIZE) + body"),
        ("src/repro/obs/propagation.py", "from struct import pack"),
    ],
    no_naive_type_ir: [
        ("src/repro/mir/build.py",
         "def build_naive(backend, presc, flags=None):"),
        ("src/repro/mir/ops.py", "class NaiveProgram:"),
        ("src/repro/backend/base.py",
         "    shapes_factory: object = field(default=None, repr=False)"),
    ],
    no_segment_interpreter: [
        ("src/repro/compat/pairwalk.py",
         "class CopyFixed(NamedTuple):\n"
         "    def copy(self, data, src, buffer):"),
        ("src/repro/gateway/plan.py",
         "def run_segments(segments, data, src, buffer):"),
        ("src/repro/gateway/proxy.py",
         "        end = run_segments(segments, reply, body + 4, buffer)"),
    ],
    one_compile_result: [
        ("src/repro/core/handle.py", '"""The compiled-interface handle."""'),
        ("src/repro/core/compiler.py",
         "class CompiledInterface(CompileResult):"),
    ],
    one_compile_entry: [
        ("src/repro/core/compiler.py", "class Flick:"),
        ("src/repro/core/compiler.py", "    def load_module(self):"),
        ("src/repro/runtime/server.py",
         "def compile_interface(text, lang, *, name, interface=None):"),
        ("src/repro/tools/cli.py", '    _lang_flag(selection, "--frontend")'),
        ("src/repro/core/options.py", "    def disable_pass(self, name):"),
        ("examples/quickstart.py",
         "result = Flick(frontend='corba').compile(MAIL_IDL)"),
        ("README.md", "    module = result.load_module()"),
        (".github/workflows/ci.yml",
         "python -m repro.tools.cli compile x.idl --frontend corba"),
        ("benchmarks/bench_ablation_chunk.py",
         "flags = OptFlags().disable_pass('chunk_atoms')"),
    ],
    one_atom_codec_lookup: [
        ("src/repro/encoding/xdr.py", "    def atom_codec(self, atom):"),
    ],
    one_c_type_mapping: [
        ("src/repro/pgen/rpcgen.py", "    def c_scalar_type(self, aoi_type):"),
        ("src/repro/pgen/corba_c.py", "    def _base_c_type(self, pres):"),
        ("src/repro/pgen/rpcgen.py",
         "    def c_seq_decl(self, element_pres):"),
    ],
    one_procedure_number: [
        ("src/repro/backend/mach3.py",
         "    for index, other in enumerate(presc.stubs, 1):"),
        ("src/repro/backend/oncxdr.py", "def operation_number(presc, stub):"),
    ],
    one_event_loop_on_a_thread: [
        ("src/repro/obs/http.py",
         "    async def _run_on_thread(self, started):"),
        ("src/repro/runtime/aio/server.py",
         "        self._loop.call_soon_threadsafe(self._stop_event.set)"),
        ("src/repro/loopthread.py", "from repro.obs import trace"),
    ],
    no_renderer_selection: [
        ("src/repro/backend/base.py", 'RENDERERS = ("py", "closures", "c")'),
        ("src/repro/compilers/per_datum.py",
         '    def generate(self, presc, flags=None, renderer="py"):'),
    ],
    no_lowering_at_compile: [
        ("src/repro/backend/base.py",
         "    def generate(self, presc, flags=None):\n"
         "        program = build_program(self, presc, flags)"),
        ("src/repro/compilers/mig_style.py",
         "    def generate(self, presc, flags=None):\n"
         "        stubs = super().generate(presc, self.baseline_flags)\n"
         "        stubs.py_source"),
        ("src/repro/mir/render_closures.py",
         "def defer_codecs(module, program, section):"),
        ("src/repro/backend/base.py",
         "                self.sections, without=('codecs',),"),
    ],
    one_layer_registry: [
        ("src/repro/obs/trace.py", "_instrumented = {}"),
        ("src/repro/obs/profile.py",
         "    for record in _instrumented.values():"),
        ("src/repro/obs/trace.py", "class _InstrumentedModule:"),
        ("src/repro/obs/profile.py", "class _ProfiledModule:"),
    ],
    no_tiering: [
        ("src/repro/runtime/service.py", "tiering: str = 'off'"),
        ("src/repro/obs/profile.py", "class HotnessCounter:"),
        ("scripts/smoke.py", "handle.recompile('rev')"),
        (".github/workflows/ci.yml", "flick_tier_current"),
    ],
}


def record_inits_run_by_decoders(labels=None):
    """``[qualname]`` of every record ``__init__`` (a ``sys.setprofile``
    count) that decoding a request and a reply of every operation of
    every golden schema (``tests.baseline_cells.schemas()``, or those
    of *labels*) ran under every back end.  Records are built by
    calling their classes before the count starts; a decoder builds
    them in its own frame (``_new`` and field stores), so it runs
    none."""
    import sys

    from repro import api, frontends
    from repro.errors import FlickError
    from repro.pres.values import Record
    from repro.runtime import LoopbackTransport
    from tests.baseline_cells import schemas
    from tests.conftest import ALL_BACKENDS
    from tests.test_c_roundtrip import sample

    inits = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__init__" \
                and isinstance(frame.f_locals.get("self"), Record):
            inits.append(frame.f_code.co_qualname)

    for label, (text, file_name) in sorted(schemas().items()):
        if labels is not None and label not in labels:
            continue
        lang = frontends.detect(text, file_name).name
        for backend in ALL_BACKENDS:
            try:
                results = api.compile_all(text, lang, name=file_name,
                                          backend=backend).values()
            except FlickError:
                continue
            for result in results:
                presc, module = result.presc, result.module

                class Servant:
                    def __getattr__(self, name):
                        return lambda *args: answers[name]

                client = getattr(module, "%sClient" % presc.interface_name
                                 .replace("::", "_"))(
                    LoopbackTransport(module.dispatch, Servant()))
                answers = {}
                for stub in presc.stubs:
                    fields = stub.reply_pres.arms[0].pres.fields \
                        if stub.reply_pres else ()
                    results = [sample(field.pres, presc, module)
                               for field in fields]
                    answers[stub.operation_name] = (
                        None if not results else results[0]
                        if len(results) == 1 else tuple(results))
                    args = [sample(parameter.pres, presc, module)
                            for parameter in stub.in_parameters()]
                    call = getattr(client, stub.operation_name)
                    call(*args)  # lowers and compiles the codecs
                    sys.setprofile(count)
                    try:
                        call(*args)
                    finally:
                        sys.setprofile(None)
    return inits


def test_decoders_run_no_record_init():
    assert record_inits_run_by_decoders() == []


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


    def test_a_decoder_that_calls_the_record_class_fails_the_init_pin(
            self, monkeypatch):
        from repro.mir.render_py import PySpelling

        monkeypatch.setattr(PySpelling, "builds_records", False)
        assert "Ledger_Rect.__init__" in record_inits_run_by_decoders(
            ["examples/idl/ledger.idl"])


def test_compile_returns_the_one_result_class():
    """``repro.core.handle`` does not import, and the facade's result is
    a ``CompileResult`` itself, not a subclass."""
    from repro import CompileResult, api
    from tests.conftest import MAIL_IDL

    with pytest.raises(ImportError):
        import repro.core.handle  # noqa: F401
    assert type(api.compile(MAIL_IDL, "corba")) is CompileResult


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
