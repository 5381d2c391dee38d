"""The ``flick`` command-line interface.

Mirrors the compiler-kit usage of the paper: pick a front end, a
presentation generator, and a back end, and get stubs out::

    flick compile mail.idl --frontend corba --backend iiop -o out/
    flick compile db.x --frontend oncrpc --backend oncrpc-xdr --emit c,py
    flick compile arith.defs --frontend mig -o out/
    flick compile mail.idl --baseline rpcgen      # a comparator's stubs
    flick compile db.x --disable-pass chunk_atoms # ablate one MIR pass
    flick inspect mail.idl                        # storage/demux analyses
    flick ir mail.idl --op send                   # dump the marshal IR
    flick diff old.idl new.idl --json             # wire-compatibility diff
    flick lint mail.x                             # schema-evolution lint
    flick bridge mail.idl --ingress iiop --egress onc
    flick gateway mail.idl --listen iiop:0.0.0.0:9090 \
        --upstream onc:10.0.0.7:111 --check
    flick profile prof.json --op send         # payload-shape report
    flick top 127.0.0.1:9464                  # live /metrics view
    flick list

``flick diff`` exits 0 when every operation is WIRE_IDENTICAL, 1 when
the worst verdict is DECODE_COMPATIBLE, 2 on BREAKING, and 3 on a
compile or usage error.  ``flick lint`` exits 0 when no finding reaches
the ``--fail-on`` severity (default: warning), 1 otherwise, and 3 on
error.  ``flick bridge`` uses the diff exit codes for a protocol *pair*
(ingress schema/protocol against egress schema/protocol), and
``flick gateway --check`` refuses to serve a BREAKING bridge with
exit 2.

Output files are written as ``<interface>_<backend>.py``, ``...c``, and
``...h`` under the output directory (default: the current directory).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import documents
from repro.errors import FlickError


def _lang_choices():
    """Registered front-end names (the registry is the only source)."""
    from repro import frontends

    return frontends.names()


def _aoi_lang_choices():
    """Front ends with an AOI (diffable/bridgeable over TCP protocols)."""
    from repro import frontends

    return tuple(
        fe.name for fe in frontends.all_frontends()
        if fe.has_aoi and fe.servable
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flick",
        description="Flick: a flexible, optimizing IDL compiler"
                    " (PLDI 1997 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser(
        "compile", help="compile an IDL file to stubs"
    )
    compile_parser.add_argument("input", help="IDL source file")
    compile_parser.add_argument(
        "--frontend", choices=_lang_choices(), default=None,
        help="IDL front end (default: guessed from the file suffix)",
    )
    compile_parser.add_argument(
        "--pgen", default=None,
        help="presentation style (corba-c, rpcgen, fluke)",
    )
    compile_parser.add_argument(
        "--backend", default=None,
        help="back end (iiop, oncrpc-xdr, mach3, fluke)",
    )
    compile_parser.add_argument(
        "--interface", default=None,
        help="interface to compile (required if the file defines several)",
    )
    compile_parser.add_argument(
        "-o", "--output", default=".", help="output directory"
    )
    compile_parser.add_argument(
        "--emit", default="py,c,h",
        help="comma-separated outputs: py, c, h (default: all)",
    )
    compile_parser.add_argument(
        "--no-opt", action="store_true",
        help="disable all back-end optimizations",
    )
    compile_parser.add_argument(
        "--disable", default="",
        help="comma-separated OptFlags fields to turn off"
             " (e.g. chunk_atoms,memcpy_arrays)",
    )
    compile_parser.add_argument(
        "--disable-pass", action="append", default=[], metavar="NAME",
        dest="disable_pass",
        help="turn off one MIR optimization pass by name (repeatable;"
             " an unknown name lists the available passes)",
    )
    compile_parser.add_argument(
        "--little-endian", action="store_true",
        help="generate little-endian CDR stubs (IIOP back end only)",
    )
    compile_parser.add_argument(
        "--baseline", default=None,
        help="generate stubs with a comparator compiler instead of Flick"
             " (rpcgen, powerrpc, orbeline, ilu, mig)",
    )
    compile_parser.add_argument(
        "--timing", action="store_true",
        help="report per-phase compile times (parse, AOI lowering,"
             " presentation, back-end emit) and generated-stub sizes",
    )

    ir_parser = sub.add_parser(
        "ir",
        help="dump the marshal IR the optimizing back end compiles",
    )
    ir_parser.add_argument("input", help="IDL source file")
    ir_parser.add_argument(
        "--frontend", choices=_lang_choices(), default=None,
        help="IDL front end (default: guessed from the file suffix)",
    )
    ir_parser.add_argument("--pgen", default=None)
    ir_parser.add_argument("--backend", default=None)
    ir_parser.add_argument("--interface", default=None)
    ir_parser.add_argument(
        "--op", default=None, metavar="NAME",
        help="dump only the functions of this operation",
    )
    ir_parser.add_argument(
        "--no-opt", action="store_true",
        help="dump the unoptimized IR (every pass off)",
    )
    ir_parser.add_argument(
        "--disable-pass", action="append", default=[], metavar="NAME",
        dest="disable_pass",
        help="turn off one MIR pass by name (repeatable)",
    )

    inspect_parser = sub.add_parser(
        "inspect",
        help="explain what the compiler would generate for an IDL file",
    )
    inspect_parser.add_argument("input", help="IDL source file")
    inspect_parser.add_argument("--frontend", default=None)
    inspect_parser.add_argument("--pgen", default=None)
    inspect_parser.add_argument("--backend", default=None)
    inspect_parser.add_argument("--interface", default=None)

    serving = _serving_flags()
    serve_parser = sub.add_parser(
        "serve", parents=[serving],
        help="compile an IDL interface and serve it over TCP",
    )
    serve_parser.add_argument("input", help="IDL source file")
    serve_parser.add_argument(
        "--impl", required=True,
        help="servant implementation as module:Class; the class is"
             " instantiated with the stub module (or with no arguments)",
    )
    serve_parser.add_argument("--frontend", default=None)
    serve_parser.add_argument("--pgen", default=None)
    serve_parser.add_argument(
        "--backend", default=None,
        help="wire protocol: iiop or oncrpc-xdr"
             " (default: the front end's default)",
    )
    serve_parser.add_argument("--interface", default=None)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="TCP port (0 picks a free port)")
    serve_parser.add_argument(
        "--aio", action="store_true",
        help="serve with the concurrent asyncio runtime (pipelining,"
             " backpressure, graceful drain) instead of the blocking"
             " thread-per-connection server; --workers fleets always do",
    )
    serve_parser.add_argument(
        "--dispatch-mode", choices=("thread", "inline"), default="thread",
        help="run each dispatch on a worker thread (safe for blocking"
             " servants) or inline on the event loop (fastest)",
    )

    diff_parser = sub.add_parser(
        "diff",
        help="classify the wire compatibility of two IDL versions",
    )
    diff_parser.add_argument("old", help="the currently deployed IDL file")
    diff_parser.add_argument("new", help="the proposed IDL file")
    diff_parser.add_argument(
        "--lang", choices=_lang_choices(), default=None,
        help="IDL language (default: detected per file; the two files"
             " may use different languages, e.g. diff an IDL file"
             " against the pyschema .py replacing it)",
    )
    diff_parser.add_argument(
        "--interface", default=None,
        help="interface to diff (required if a file defines several)",
    )
    diff_parser.add_argument(
        "--protocol", action="append", default=None,
        metavar="BACKEND",
        help="wire protocol to diff under (repeatable; default:"
             " oncrpc-xdr and iiop, or mach3 for MIG)",
    )
    diff_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of text",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="flag schema-evolution hazards in an IDL file",
    )
    lint_parser.add_argument("input", help="IDL source file")
    lint_parser.add_argument(
        "--lang", choices=_lang_choices(), default=None,
        help="IDL language (default: detected)",
    )
    lint_parser.add_argument("--interface", default=None)
    lint_parser.add_argument(
        "--protocol", default=None, metavar="BACKEND",
        help="wire protocol to lint under (default: the language's own)",
    )
    lint_parser.add_argument(
        "--fail-on", choices=("info", "warning", "error"),
        default="warning",
        help="lowest severity that makes the exit code nonzero",
    )
    lint_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of text",
    )

    bridge_parser = sub.add_parser(
        "bridge",
        help="statically verify a cross-protocol bridge is lossless",
    )
    bridge_parser.add_argument(
        "ingress", help="IDL file the gateway serves on the ingress side"
    )
    bridge_parser.add_argument(
        "egress", nargs="?", default=None,
        help="IDL file the upstream server was built against"
             " (default: the ingress file — same schema, two protocols)",
    )
    bridge_parser.add_argument(
        "--ingress", dest="ingress_protocol", default="iiop",
        metavar="PROTO",
        help="ingress wire protocol: iiop or onc/oncrpc-xdr"
             " (default: iiop)",
    )
    bridge_parser.add_argument(
        "--egress", dest="egress_protocol", default="oncrpc-xdr",
        metavar="PROTO",
        help="egress wire protocol (default: oncrpc-xdr)",
    )
    bridge_parser.add_argument(
        "--lang", choices=_aoi_lang_choices(), default=None,
        help="IDL language (default: detected per file)",
    )
    bridge_parser.add_argument("--interface", default=None)
    bridge_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of text",
    )

    gateway_parser = sub.add_parser(
        "gateway", parents=[serving],
        help="serve one protocol, forward to an upstream on another",
    )
    gateway_parser.add_argument("input", help="IDL source file")
    gateway_parser.add_argument(
        "--listen", required=True, metavar="PROTO:HOST:PORT",
        help="ingress endpoint, e.g. iiop:0.0.0.0:9090"
             " (port 0 picks a free port)",
    )
    gateway_parser.add_argument(
        "--upstream", required=True, metavar="PROTO:HOST:PORT",
        help="egress endpoint of the real server, e.g. onc:10.0.0.7:111",
    )
    gateway_parser.add_argument(
        "--upstream-idl", default=None, metavar="FILE",
        help="IDL file the upstream was built against (default: the"
             " ingress file; set during migrations)",
    )
    gateway_parser.add_argument(
        "--lang", choices=_aoi_lang_choices(), default=None,
        help="IDL language (default: detected)",
    )
    gateway_parser.add_argument("--interface", default=None)
    gateway_parser.add_argument(
        "--check", action="store_true",
        help="verify the bridge statically before serving; refuse a"
             " BREAKING bridge with exit 2",
    )
    gateway_parser.add_argument(
        "--no-fuse", action="store_true",
        help="disable the fused byte-copy plans (always decode and"
             " re-encode; for debugging and benchmarking)",
    )
    gateway_parser.add_argument(
        "--pool-size", type=int, default=4,
        help="multiplexed upstream connections (default: 4)",
    )
    gateway_parser.add_argument(
        "--upstream-fault-plan", default=None, metavar="FILE",
        help="inject faults on the egress leg instead",
    )

    profile_parser = sub.add_parser(
        "profile",
        help="report a payload-shape profile snapshot"
             " (from `flick serve --profile`)",
    )
    profile_parser.add_argument(
        "snapshots", nargs="+", metavar="SNAPSHOT",
        help="profile snapshot JSON file(s); several are merged"
             " (profiles from different workers combine losslessly)",
    )
    profile_parser.add_argument(
        "--op", default=None, metavar="NAME",
        help="report only this operation",
    )
    profile_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of text",
    )

    top_parser = sub.add_parser(
        "top",
        help="live per-operation view of a serving endpoint's /metrics",
    )
    top_parser.add_argument(
        "target", metavar="HOST:PORT",
        help="a --metrics-port endpoint, e.g. 127.0.0.1:9464",
    )
    top_parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval (default: 2s)",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="print one snapshot (cumulative totals, no rates) and exit",
    )

    sub.add_parser("list", help="list front ends, presentations, back ends")
    return parser


def _serving_flags():
    """The flags ``flick serve`` and ``flick gateway`` share, once."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--stats", action="store_true",
        help="collect per-operation call counts, errors, and latency"
             " histograms (a gateway: per-bridge counters too); printed"
             " at shutdown",
    )
    flags.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus), /profile, /healthz and"
             " /readyz at http://HOST:PORT (0 picks a free port; implies"
             " --stats); with --workers they answer for the whole fleet",
    )
    flags.add_argument(
        "--profile", default=None, metavar="PATH",
        help="enable the payload-shape profiler (a gateway: fused/"
             "re-encode path ratios, transcoded sizes) and save its"
             " snapshot to PATH at shutdown (inspect with `flick"
             " profile PATH`)",
    )
    flags.add_argument(
        "--profile-sample", type=int, default=64, metavar="N",
        help="profile every N-th codec call or transcoded message"
             " (default: 64; 1 profiles everything)",
    )
    flags.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable tracing and append finished spans to PATH as JSON"
             " lines (one object per span); client, gateway, and"
             " upstream spans share one trace id",
    )
    flags.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="inject faults into inbound requests per a FaultPlan JSON"
             " file (chaos testing: drop/delay/duplicate/reorder/"
             "truncate/corrupt/reset probabilities and a seed)",
    )
    flags.add_argument(
        "--max-concurrency", type=int, default=64,
        help="in-flight request cap for the asyncio runtime",
    )
    flags.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="overload bound for the asyncio runtime: when all"
             " --max-concurrency slots are busy, at most N further"
             " requests wait; beyond that requests are shed with a"
             " protocol error reply (default: queue unboundedly)",
    )
    flags.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds, then exit (default: forever)",
    )
    flags.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="supervised multi-process mode: N worker processes share"
             " the listen address (SO_REUSEPORT accept sharding);"
             " crashed workers restart with backoff, SIGHUP re-reads"
             " the IDL and rolls a compatible schema worker-by-worker,"
             " and --metrics-port serves the fleet's merged endpoints",
    )
    return flags


#: Accepted protocol spellings for ``flick bridge`` / ``flick gateway``.
_PROTOCOL_ALIASES = {
    "iiop": "iiop",
    "giop": "iiop",
    "onc": "oncrpc-xdr",
    "oncrpc": "oncrpc-xdr",
    "oncrpc-xdr": "oncrpc-xdr",
    "xdr": "oncrpc-xdr",
}


def _backend_for_protocol(spelling):
    try:
        return _PROTOCOL_ALIASES[spelling.lower()]
    except KeyError:
        raise FlickError(
            "unknown gateway protocol %r; use one of: %s"
            % (spelling, ", ".join(sorted(_PROTOCOL_ALIASES)))
        )


def _parse_endpoint(spec, flag):
    parts = spec.rsplit(":", 2)
    if len(parts) != 3:
        raise FlickError(
            "%s must look like PROTO:HOST:PORT, got %r" % (flag, spec)
        )
    proto, host, port = parts
    try:
        port = int(port)
    except ValueError:
        raise FlickError("%s port %r is not a number" % (flag, port))
    return _backend_for_protocol(proto), host, port


def _guess_frontend(path, text="", explicit=None):
    """The IDL language for *path*: the explicit flag, then detection."""
    if explicit:
        return explicit
    from repro import api

    try:
        return api.detect_lang(text, name=path)
    except FlickError:
        return "corba"


def _build_flags(args):
    from repro.core import OptFlags

    flags = OptFlags.all_off() if args.no_opt else OptFlags()
    disabled = [
        name for name in getattr(args, "disable", "").split(",") if name
    ]
    if disabled:
        flags = flags.but(**{name: False for name in disabled})
    for name in getattr(args, "disable_pass", ()):
        try:
            flags = flags.disable_pass(name)
        except ValueError as error:
            raise FlickError(str(error))
    return flags


def _apply_baseline(args, all_prescs):
    from repro.compilers import make_baseline

    compiler = make_baseline(args.baseline)
    return [compiler.generate(presc) for presc in all_prescs]


def command_compile(args):
    from repro import api

    with open(args.input) as handle:
        text = handle.read()
    lang = _guess_frontend(args.input, text, args.frontend)
    backend_options = {}
    if getattr(args, "little_endian", False):
        if args.backend not in (None, "iiop"):
            raise FlickError(
                "--little-endian applies only to the iiop back end"
            )
        backend_options["little_endian"] = True
    flags = _build_flags(args)
    if args.interface:
        results = [api.compile(
            text, lang, interface=args.interface, flags=flags,
            name=args.input, presentation=args.pgen, backend=args.backend,
            **backend_options,
        )]
    else:
        by_name = api.compile_all(
            text, lang, flags=flags, name=args.input,
            presentation=args.pgen, backend=args.backend,
            **backend_options,
        )
        if not by_name:
            raise FlickError("the input defines no interfaces")
        results = list(by_name.values())
    timed_results = results
    if args.baseline:
        all_stubs = _apply_baseline(
            args, [result.presc for result in results]
        )
    else:
        all_stubs = [result.stubs for result in results]
    emit = {kind.strip() for kind in args.emit.split(",") if kind.strip()}
    os.makedirs(args.output, exist_ok=True)
    if "c" in emit or "h" in emit:
        # Ship the support header alongside the generated C so it
        # compiles out of the box.
        import shutil

        from repro.backend import runtime_header_path

        shutil.copy(
            runtime_header_path(),
            os.path.join(args.output, "flick-runtime.h"),
        )
    from repro.backend import interface_file_stem

    for stubs in all_stubs:
        base = os.path.join(args.output, interface_file_stem(
            stubs.interface_name, stubs.backend_name))
        written = []
        if "py" in emit:
            _write(base + ".py", stubs.py_source, written)
        if "c" in emit:
            _write(base + ".c", stubs.c_source, written)
        if "h" in emit:
            _write(base + ".h", stubs.c_header, written)
        print(
            "compiled %s (%s presentation, %s back end): %s"
            % (
                stubs.interface_name,
                stubs.presentation_style,
                stubs.backend_name,
                ", ".join(written),
            )
        )
    if getattr(args, "timing", False):
        for result in timed_results:
            _print_timing(result)
    return 0


def _print_timing(result):
    timings = result.timings or {}
    phases = "  ".join(
        "%s %.2fms" % (key[:-2], seconds * 1e3)
        for key, seconds in timings.items()
        if key.endswith("_s") and key != "total_s"
    )
    print("timing %s: %s  (total %.2fms)"
          % (result.stubs.interface_name, phases,
             timings.get("total_s", 0.0) * 1e3))
    summary = result.emit_summary()
    print("  emitted: %d operation(s), %d bytes (%d lines),"
          " %d marshal chunk(s)"
          % (summary["operations"], summary["stub_bytes"],
             summary["stub_lines"], summary["request_chunks"]))


def _write(path, content, written):
    with open(path, "w") as handle:
        handle.write(content)
    written.append(path)


def command_ir(args):
    """Dump the (optimized) marshal IR for one interface."""
    from repro import api
    from repro.mir.dump import dump_program

    with open(args.input) as handle:
        text = handle.read()
    lang = _guess_frontend(args.input, text, args.frontend)
    flags = _build_flags(args)
    result = api.compile(
        text, lang, interface=args.interface, flags=flags,
        name=args.input, presentation=args.pgen, backend=args.backend,
    )
    program = result.stubs.mir
    if program is None:
        raise FlickError(
            "the %s back end produced no marshal IR"
            % result.stubs.backend_name
        )
    if args.op is not None:
        operations = sorted(
            {fn.operation for fn in program.functions if fn.operation}
        )
        if args.op not in operations:
            raise FlickError(
                "no operation %r; have: %s"
                % (args.op, ", ".join(operations))
            )
    print(dump_program(program, op_filter=args.op), end="")
    return 0


def command_inspect(args):
    """Explain the compiler's analyses for each operation."""
    from repro import api
    from repro.mint.analysis import analyze_storage
    from repro.backend import make_backend

    with open(args.input) as handle:
        text = handle.read()
    lang = _guess_frontend(args.input, text, args.frontend)
    if args.interface:
        results = [api.compile(
            text, lang, interface=args.interface, name=args.input,
            presentation=args.pgen, backend=args.backend,
        )]
    else:
        results = list(api.compile_all(
            text, lang, name=args.input, presentation=args.pgen,
            backend=args.backend,
        ).values())
    for result in results:
        presc = result.presc
        stubs = result.stubs
        backend_name = stubs.backend_name
        backend = make_backend(backend_name)
        print("interface %s  (presentation %s, back end %s)"
              % (presc.interface_name, presc.presentation_style,
                 backend_name))
        print("  wire id: %r" % (presc.interface_code,))
        print("  demux:   %s" % stubs.metadata["demux"])
        for stub in presc.stubs:
            info = analyze_storage(
                stub.request_pres.mint, backend.wire_format,
                presc.mint_registry,
            )
            if info.max_size is None:
                size_text = ">= %d bytes (unbounded)" % info.min_size
            elif info.storage_class.value == "fixed":
                size_text = "<= %d bytes (fixed layout)" % info.max_size
            else:
                size_text = "%d..%d bytes (bounded)" % (
                    info.min_size, info.max_size,
                )
            chunks = stubs.metadata["operations"].get(
                stub.operation_name, {}
            ).get("request_chunks", "?")
            oneway = " oneway" if stub.oneway else ""
            print("  %-20s request body %s; %s marshal chunk(s);%s key=%r"
                  % (stub.operation_name, size_text, chunks, oneway,
                     backend.demux_key(presc, stub)))
        if stubs.metadata["records"]:
            print("  records: %s" % ", ".join(stubs.metadata["records"]))
        if stubs.metadata["exceptions"]:
            print("  exceptions: %s"
                  % ", ".join(stubs.metadata["exceptions"]))
    return 0


def _service_config(args):
    """The ServiceConfig a ``flick serve`` / ``flick gateway`` line says."""
    from repro.runtime.service import ServiceConfig

    shared = dict(
        idl_path=args.input, interface=args.interface, stats=args.stats,
        metrics_port=args.metrics_port, profile_path=args.profile,
        profile_sample=args.profile_sample, trace_path=args.trace,
        fault_plan=args.fault_plan, max_concurrency=args.max_concurrency,
        max_pending=args.max_pending,
        sys_paths=[os.getcwd()],  # --impl resolves from the cwd
    )
    if args.command == "serve":
        return ServiceConfig(
            kind="serve", lang=args.frontend, pgen=args.pgen,
            backend=args.backend, impl=args.impl, host=args.host,
            port=args.port, aio=args.aio,
            dispatch_mode=args.dispatch_mode, **shared)
    backend, host, port = _parse_endpoint(args.listen, "--listen")
    upstream_backend, upstream_host, upstream_port = _parse_endpoint(
        args.upstream, "--upstream")
    return ServiceConfig(
        kind="gateway", lang=args.lang, backend=backend, host=host,
        port=port, upstream_backend=upstream_backend,
        upstream_host=upstream_host, upstream_port=upstream_port,
        upstream_idl_path=args.upstream_idl, pool_size=args.pool_size,
        fuse=not args.no_fuse,
        upstream_fault_plan=args.upstream_fault_plan, **shared)


def _bridge_refused(config, handles):
    """``flick gateway --check``: report the verdict; True on BREAKING."""
    from repro.gateway import (
        bridge_exit_code,
        bridge_report_text,
        check_bridge,
    )

    diff = check_bridge(*handles)
    if bridge_exit_code(diff) < 2:
        print("bridge check: %s" % diff.verdict.name, flush=True)
        return False
    upstream_path = config.upstream_idl_path or config.idl_path
    print(bridge_report_text(diff, config.idl_path, upstream_path),
          file=sys.stderr)
    print("flick gateway: refusing to serve a BREAKING bridge (%s -> %s)"
          % (config.idl_path, upstream_path), file=sys.stderr)
    return True


def _banner(config, running, workers, endpoint):
    """What the foreground runner says once *running* has started."""
    gateway = config.kind == "gateway"
    routes = "metrics on http://%s:%d/metrics (and /profile /healthz" \
             " /readyz)"
    if workers is not None:
        what = running.interface_name
        if gateway:
            what = "%s->%s gateway" % (config.backend,
                                       config.upstream_backend)
        yield ("supervising %d worker(s) serving %s (%s back end) on"
               " %s:%d; SIGHUP re-reads %s and rolls a compatible schema"
               % (workers, what, running.backend_name, running.host,
                  running.port, config.idl_path))
        if config.profile_path:
            yield ("profiling payload shapes to %s (merged across workers"
                   " at shutdown)" % config.profile_path)
        routes = "fleet endpoints on http://%s:%d" \
                 " (/metrics /profile /healthz /readyz)"
    else:
        server = running.server
        host, port = server.address[:2]
        if gateway:
            plan = server.plan
            yield ("gateway %s: listening %s on %s:%d, forwarding %s to"
                   " %s:%d (%d/%d requests fused)"
                   % (plan.interface_name, config.backend, host, port,
                      config.upstream_backend, config.upstream_host,
                      config.upstream_port, len(plan.fused_request_ops),
                      len(plan.ops)))
        else:
            stubs = running.handles[0].stubs
            runtime = ("asyncio runtime, %s dispatch"
                       % config.dispatch_mode if config.aio
                       else "blocking thread-per-connection")
            yield ("serving %s (%s back end; %s) on %s:%d"
                   % (stubs.interface_name, stubs.backend_name, runtime,
                      host, port))
        if config.trace_path:
            yield "tracing spans to %s" % config.trace_path
        if config.profile_path:
            yield ("profiling payload shapes to %s (1/%d sampling)"
                   % (config.profile_path, max(1, config.profile_sample)))
        for path in (config.fault_plan, config.upstream_fault_plan):
            if path:
                yield "fault plan active: %s" % path
    if endpoint is not None:
        yield routes % endpoint.address[:2]


def command_service(args):
    """``flick serve`` / ``flick gateway``: run one service in the
    foreground — signals, banner, ``--duration``, drain, stats table —
    as one process or, with ``--workers``, as a supervised fleet."""
    from repro.obs.http import MetricsHttpServer, routes_of
    from repro.runtime import service
    from repro.runtime.signals import SignalDriver

    config = _service_config(args)
    workers = args.workers
    config.validate(workers)
    # The one compile on this side of a fork: the fail-fast check, the
    # --check verdict and what a single process then serves.
    handles = service.compile_handles(config)
    if getattr(args, "check", False) and _bridge_refused(config, handles):
        return 2
    if workers is None:
        running = service.build(config, handles=handles)
        driver = SignalDriver()
    else:
        from repro.runtime.supervisor import Supervisor

        running = Supervisor(config, workers, handles=handles)
        driver = SignalDriver(on_hup=running.request_rollout)
    endpoint = None
    with driver:
        try:
            running.start()
            if config.metrics_port is not None:
                endpoint = MetricsHttpServer(
                    routes_of(running), config.host, config.metrics_port
                ).start()
            for line in _banner(config, running, workers, endpoint):
                print(line, flush=True)
            try:
                driver.wait(args.duration)
            except KeyboardInterrupt:
                pass
            # SIGTERM/SIGINT or --duration: a bounded graceful drain —
            # finish in-flight replies, refuse new work, then exit 0.
            print("shutting down (draining %s)"
                  % ("in-flight requests" if workers is None
                     else "%d worker(s)" % workers), flush=True)
        finally:
            if endpoint is not None:
                endpoint.stop()
            if running.stop() is not None:
                print("%sprofile snapshot saved to %s"
                      % ("" if workers is None else "merged ",
                         config.profile_path), flush=True)
    if workers is None and running.stats is not None:
        print(running.stats.format_table(), flush=True)
    return 0


def command_diff(args):
    """Classify the wire compatibility of two IDL versions."""
    import json

    from repro import api
    from repro.compat import diff_texts
    from repro.compat.report import (
        diff_exit_code,
        diff_report_json,
        diff_report_text,
    )

    with open(args.old) as handle:
        old_text = handle.read()
    with open(args.new) as handle:
        new_text = handle.read()
    from repro import frontends

    # Each side detects independently: a migration can diff an IDL file
    # against the pyschema .py that replaces it.
    old_lang = new_lang = args.lang
    if args.lang is None:
        try:
            old_lang = api.detect_lang(old_text, name=args.old)
        except FlickError:
            old_lang = None
        try:
            new_lang = api.detect_lang(new_text, name=args.new)
        except FlickError:
            new_lang = None
    lang = old_lang if old_lang == new_lang else None
    if args.protocol:
        protocols = tuple(args.protocol)
    else:
        fe = frontends.get(old_lang) if old_lang else None
        if fe is not None and fe.diff_protocols:
            protocols = fe.diff_protocols
        else:
            from repro.compat.ifacediff import DEFAULT_PROTOCOLS

            protocols = DEFAULT_PROTOCOLS
    diffs = diff_texts(
        old_text, new_text, lang, interface=args.interface,
        protocols=protocols, old_name=args.old, new_name=args.new,
    )
    if args.json:
        print(json.dumps(
            diff_report_json(diffs, args.old, args.new, lang=lang),
            indent=2, sort_keys=True,
        ))
    else:
        print(diff_report_text(diffs, args.old, args.new))
    return diff_exit_code(diffs)


def command_lint(args):
    """Flag schema-evolution hazards in one IDL file."""
    import json

    from repro.compat.lint import lint_text
    from repro.compat.report import (
        lint_exit_code,
        lint_report_json,
        lint_report_text,
    )

    with open(args.input) as handle:
        text = handle.read()
    findings, protocol = lint_text(
        text, args.lang, name=args.input, interface=args.interface,
        backend=args.protocol,
    )
    if args.json:
        print(json.dumps(
            lint_report_json(findings, args.input, lang=args.lang,
                             protocol=protocol),
            indent=2, sort_keys=True,
        ))
    else:
        print(lint_report_text(findings, args.input))
    return lint_exit_code(findings, fail_on=args.fail_on)


def _compile_bridge_sides(ingress_path, egress_path, ingress_backend,
                          egress_backend, lang, interface):
    from repro import api

    with open(ingress_path) as handle:
        ingress_text = handle.read()
    if egress_path is None or egress_path == ingress_path:
        egress_path, egress_text = ingress_path, ingress_text
    else:
        with open(egress_path) as handle:
            egress_text = handle.read()
    ingress = api.compile(
        ingress_text, lang, interface=interface, name=ingress_path,
        backend=ingress_backend,
    )
    egress = api.compile(
        egress_text, lang, interface=interface, name=egress_path,
        backend=egress_backend,
    )
    return ingress, egress, egress_path


def command_bridge(args):
    """Statically verify a protocol bridge (pair diff; exit 0/1/2)."""
    import json

    from repro.gateway import (
        bridge_exit_code,
        bridge_report_json,
        bridge_report_text,
        check_bridge,
        predict_fused,
    )

    ingress_backend = _backend_for_protocol(args.ingress_protocol)
    egress_backend = _backend_for_protocol(args.egress_protocol)
    ingress, egress, egress_path = _compile_bridge_sides(
        args.ingress, args.egress, ingress_backend, egress_backend,
        args.lang, args.interface,
    )
    diff = check_bridge(ingress, egress)
    predictions = predict_fused(ingress, egress)
    if args.json:
        document = bridge_report_json(diff, args.ingress, egress_path)
        document["fused"] = {
            op: {direction: prediction.to_json()
                 for direction, prediction in directions.items()}
            for op, directions in predictions.items()
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(bridge_report_text(diff, args.ingress, egress_path))
        print(_fused_prediction_text(predictions))
    return bridge_exit_code(diff)


def _fused_prediction_text(predictions):
    """Render per-op fused-fraction predictions for ``flick bridge``."""
    lines = ["predicted gateway cost (fused copy plans):"]
    total = 0
    fused_channels = 0
    for op in sorted(predictions):
        parts = []
        for direction in ("request", "reply"):
            prediction = predictions[op].get(direction)
            if prediction is None:
                continue
            total += 1
            fused_channels += prediction.fused
            parts.append(
                "%s %s (%.0f%% of bytes coverable)"
                % (direction,
                   "fused" if prediction.fused else "re-encode",
                   100.0 * prediction.byte_fraction)
            )
        lines.append("  %-20s %s" % (op, "; ".join(parts) or "oneway"))
    if total:
        lines.append(
            "  overall: %d/%d channels take the fused path"
            % (fused_channels, total))
    return "\n".join(lines)


def _profile_summary(profile):
    """Derived, report-ready numbers for one OpProfile."""
    from repro.obs.profile import skew

    size = profile.size
    summary = {
        "calls": profile.calls,
        "sampled": profile.sampled,
        "size": {
            "mean": round(size.mean, 1),
            "p50": size.percentile(50),
            "p99": size.percentile(99),
            "max": size.max,
        },
        "channels": {},
        "arms": {},
    }
    for path, hist in sorted(profile.channels.items()):
        summary["channels"][path] = {
            "kind": hist.kind,
            "modes": [list(mode) for mode in hist.modes()],
            "p50": hist.percentile(50),
            "p99": hist.percentile(99),
        }
    for path, counts in sorted(profile.arms.items()):
        top, fraction = skew(counts)
        summary["arms"][path] = {
            "counts": dict(sorted(counts.items())),
            "top": top,
            "skew": round(fraction, 4),
        }
    fused = profile.fused_fraction
    if fused is not None:
        summary["fused_fraction"] = round(fused, 4)
    for kind, hist in sorted(profile.codec.items()):
        summary.setdefault("codec", {})[kind] = {
            "p50_us": round(hist.percentile(50) * 1e6, 1),
            "p99_us": round(hist.percentile(99) * 1e6, 1),
        }
    if profile.exemplars:
        summary["exemplars"] = documents.write(profile.exemplars)
    return summary


def _profile_text(op, profiles):
    lines = ["%s:" % op]
    for profile in profiles:
        summary = _profile_summary(profile)
        size = summary["size"]
        lines.append(
            "  %-8s calls=%d sampled=%d  bytes p50=%d p99=%d max=%d"
            % (profile.direction, profile.calls, profile.sampled,
               size["p50"], size["p99"], size["max"]))
        for path, channel in summary["channels"].items():
            modes = ", ".join("%dx%d" % (value, count)
                              for value, count in channel["modes"])
            lines.append(
                "    %-24s %-5s p50=%-6d p99=%-6d modes: %s"
                % (path, channel["kind"], channel["p50"],
                   channel["p99"], modes))
        for path, arm in summary["arms"].items():
            lines.append(
                "    %-24s arm   top=%s (%.0f%%)  %s"
                % (path, arm["top"], 100.0 * arm["skew"],
                   " ".join("%s:%d" % item
                            for item in sorted(arm["counts"].items()))))
        if "fused_fraction" in summary:
            lines.append("    %-24s %.1f%% of messages fused"
                         % ("gateway", 100.0 * summary["fused_fraction"]))
        for exemplar in profile.exemplars[:3]:
            lines.append(
                "    slow exemplar: %.3f ms, %d bytes, trace=%s"
                % (1e3 * exemplar.duration_s, exemplar.bytes,
                   exemplar.trace_id))
    return "\n".join(lines)


def command_profile(args):
    import json

    from repro.obs.profile import ProfileSnapshot, SNAPSHOT_VERSION

    snapshots = [documents.load(ProfileSnapshot, path, "profile snapshot")
                 for path in args.snapshots]
    snapshot = snapshots[0]
    try:
        for other in snapshots[1:]:
            snapshot.merge(other)
    except ValueError as error:  # another build's latency buckets
        raise FlickError(str(error)) from None
    names = snapshot.op_names()
    if args.op is not None:
        if args.op not in names:
            raise FlickError(
                "operation %r is not in the snapshot (have: %s)"
                % (args.op, ", ".join(names) or "none"))
        names = [args.op]
    if args.json:
        document = {
            "version": SNAPSHOT_VERSION,
            "sample": snapshot.sample,
            "ops": {},
        }
        for op in names:
            profiles = snapshot.for_op(op)
            document["ops"][op] = {
                "directions": {
                    profile.direction: documents.write(profile)
                    for profile in profiles
                },
                "summary": {
                    profile.direction: _profile_summary(profile)
                    for profile in profiles
                },
            }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print("payload-shape profile (1/%d sampling, %d snapshot%s)"
          % (snapshot.sample, len(args.snapshots),
             "" if len(args.snapshots) == 1 else "s"))
    for op in names:
        print(_profile_text(op, snapshot.for_op(op)))
    return 0


def _bucket_percentile(buckets, q):
    """Interpolated percentile from cumulative ``[(le, count)]``."""
    if not buckets:
        return 0.0
    buckets = sorted(buckets)
    total = buckets[-1][1]
    if not total:
        return 0.0
    rank = max(1, total * q / 100.0)
    previous = 0.0
    previous_count = 0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound == float("inf"):
                return previous
            span = cumulative - previous_count
            if not span:
                return bound
            return previous + (bound - previous) * (
                (rank - previous_count) / span)
        previous, previous_count = bound, cumulative
    return previous


def _top_rows(samples):
    """Per-op cumulative stats out of one parsed /metrics scrape."""
    rows = {}

    def row(op):
        return rows.setdefault(op, {
            "requests": 0.0, "errors": 0.0, "bytes": 0.0,
            "buckets": [], "fused": 0.0, "transcoded": 0.0,
        })

    for labels, value in samples.get(
            "flick_server_requests_total", {}).items():
        labeldict = dict(labels)
        row(labeldict.get("op", "?"))["requests"] += value
    for labels, value in samples.get(
            "flick_server_errors_total", {}).items():
        labeldict = dict(labels)
        row(labeldict.get("op", "?"))["errors"] += value
    for labels, value in samples.get(
            "flick_server_latency_seconds_bucket", {}).items():
        labeldict = dict(labels)
        bound = labeldict.get("le", "+Inf")
        bound = float("inf") if bound == "+Inf" else float(bound)
        row(labeldict.get("op", "?"))["buckets"].append((bound, value))
    sample_rate = 1.0
    for _labels, value in samples.get(
            "flick_profile_sample_rate", {}).items():
        sample_rate = value or 1.0
    for labels, value in samples.get(
            "flick_profile_message_bytes_sum", {}).items():
        labeldict = dict(labels)
        # Sampled byte totals scale back up by the sampling rate.
        row(labeldict.get("op", "?"))["bytes"] += value * sample_rate
    for labels, value in samples.get(
            "flick_profile_transcode_total", {}).items():
        labeldict = dict(labels)
        entry = row(labeldict.get("op", "?"))
        entry["transcoded"] += value
        if labeldict.get("path") == "fused":
            entry["fused"] += value
    return rows


def _top_table(rows, previous=None, interval=None):
    header = ("%-20s %10s %8s %9s %9s %10s %7s"
              % ("op", "requests" if previous is None else "req/s",
                 "errors", "p50 ms", "p99 ms",
                 "bytes" if previous is None else "bytes/s", "fused"))
    lines = [header, "-" * len(header)]
    ranked = sorted(rows.items(),
                    key=lambda item: -item[1]["requests"])
    for op, stats in ranked:
        requests = stats["requests"]
        nbytes = stats["bytes"]
        if previous is not None:
            before = previous.get(op, {"requests": 0.0, "bytes": 0.0})
            requests = (requests - before["requests"]) / interval
            nbytes = (nbytes - before["bytes"]) / interval
        fused = ("%.0f%%" % (100.0 * stats["fused"] / stats["transcoded"])
                 if stats["transcoded"] else "-")
        lines.append(
            "%-20s %10.1f %8d %9.2f %9.2f %10s %7s"
            % (op, requests, stats["errors"],
               1e3 * _bucket_percentile(stats["buckets"], 50),
               1e3 * _bucket_percentile(stats["buckets"], 99),
               _human_bytes(nbytes), fused))
    return "\n".join(lines)


def _human_bytes(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0:
            return "%.1f%s" % (n, unit)
        n /= 1024.0
    return "%.1fTiB" % n


def command_top(args):
    import time
    import urllib.error
    import urllib.request

    from repro.obs.metrics import parse_prometheus

    host, _sep, port = args.target.rpartition(":")
    if not host or not port.isdigit():
        raise FlickError(
            "top target must look like HOST:PORT, got %r" % args.target)
    url = "http://%s:%s/metrics" % (host, port)

    def scrape():
        try:
            with urllib.request.urlopen(url, timeout=5.0) as response:
                text = response.read().decode("utf-8")
        except (urllib.error.URLError, TimeoutError) as error:
            raise FlickError("cannot scrape %s: %s" % (url, error)) \
                from None
        try:
            return _top_rows(parse_prometheus(text))
        except ValueError as error:
            raise FlickError("bad exposition from %s: %s" % (url, error)) \
                from None

    if args.once:
        rows = scrape()
        print("flick top %s (cumulative totals)" % args.target)
        print(_top_table(rows))
        return 0
    previous = scrape()
    try:
        while True:
            time.sleep(args.interval)
            rows = scrape()
            sys.stdout.write("\x1b[2J\x1b[H")
            print("flick top %s  every %.1fs  (ctrl-c to quit)"
                  % (args.target, args.interval))
            print(_top_table(rows, previous, args.interval))
            sys.stdout.flush()
            previous = rows
    except KeyboardInterrupt:
        return 0


def command_list(_args):
    from repro import frontends
    from repro.backend import BACKENDS
    from repro.pgen import PRESENTATIONS
    from repro.compilers import BASELINES

    print("front ends:     %s" % ", ".join(frontends.names()))
    for fe in frontends.all_frontends():
        print("  %-10s %s (suffixes: %s%s)"
              % (fe.name, fe.description, ", ".join(fe.suffixes),
                 "" if fe.has_aoi else "; conjoined, no AOI"))
    print("presentations:  %s" % ", ".join(sorted(PRESENTATIONS)))
    print("back ends:      %s" % ", ".join(sorted(BACKENDS)))
    print("baselines:      %s" % ", ".join(sorted(BASELINES)))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compile":
            return command_compile(args)
        if args.command == "ir":
            return command_ir(args)
        if args.command == "inspect":
            return command_inspect(args)
        if args.command in ("serve", "gateway"):
            return command_service(args)
        if args.command == "diff":
            return command_diff(args)
        if args.command == "lint":
            return command_lint(args)
        if args.command == "bridge":
            return command_bridge(args)
        if args.command == "profile":
            return command_profile(args)
        if args.command == "top":
            return command_top(args)
        if args.command == "list":
            return command_list(args)
    except (FlickError, OSError) as error:
        print("flick: error: %s" % error, file=sys.stderr)
        # diff/lint/bridge reserve 1 and 2 for verdicts; 3 = did not run.
        return 3 if args.command in ("diff", "lint", "bridge") else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
