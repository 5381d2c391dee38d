"""The ``flick`` command-line interface.

Mirrors the compiler-kit usage of the paper: pick a front end, a
presentation generator, and a back end, and get stubs out::

    flick compile mail.idl --lang corba --backend iiop -o out/
    flick compile db.x --lang oncrpc --backend oncrpc-xdr --emit c,py
    flick compile arith.defs --lang mig -o out/
    flick compile mail.idl --baseline rpcgen      # a comparator's stubs
    flick compile db.x --disable-pass chunk_atoms # one optimization off
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


def _flags(*parents):
    """A parent parser: options that several verbs declare once."""
    return argparse.ArgumentParser(add_help=False, parents=parents)


def build_parser():
    from repro import frontends
    from repro.runtime.service import ServiceConfig

    parser = argparse.ArgumentParser(
        prog="flick",
        description="Flick: a flexible, optimizing IDL compiler"
                    " (PLDI 1997 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, run, help, *parents):
        verb_parser = sub.add_parser(name, help=help, parents=parents)
        verb_parser.set_defaults(run=run)
        return verb_parser.add_argument

    source = _flags()
    source.add_argument("input", help="IDL source file")
    language = _flags()
    language.add_argument(
        "--interface", default=None,
        help="interface to use (required if the file defines several)",
    )
    language.add_argument(
        "--lang", choices=frontends.names(), default=None,
        help="IDL language (default: detected from the file; diff and"
             " bridge detect each file on its own)",
    )
    selection = _flags(source, language)
    selection.add_argument(
        "--pgen", default=None,
        help="presentation style (corba-c, rpcgen, fluke)",
    )
    selection.add_argument(
        "--backend", default=None,
        help="back end: iiop, oncrpc-xdr, mach3, fluke (serve: iiop or"
             " oncrpc-xdr; default: the front end's default)",
    )
    optimization = _flags()
    optimization.add_argument(
        "--no-opt", action="store_true",
        help="turn every back-end optimization off",
    )
    optimization.add_argument(
        "--disable-pass", action="append", default=[], metavar="NAME",
        help="turn off one optimization (an OptFlags field, e.g."
             " chunk_atoms) by name (repeatable; an unknown name lists"
             " the available ones)",
    )
    as_json = _flags()
    as_json.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of text",
    )

    def serving(name):
        flags = _flags()
        documents.add_flags(flags, ServiceConfig, name)
        flags.add_argument(
            "--duration", type=float, default=None,
            help="serve for this many seconds, then exit (default:"
                 " forever)",
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

    add = verb("compile", command_compile, "compile an IDL file to stubs",
               selection, optimization)
    add("-o", "--output", default=".", help="output directory")
    add("--emit", default="py,c,h",
        help="comma-separated outputs: py, c, h (default: all)")
    add("--little-endian", action="store_true",
        help="generate little-endian CDR stubs (IIOP back end only)")
    add("--baseline", default=None,
        help="generate stubs with a comparator compiler instead of Flick"
             " (rpcgen, powerrpc, orbeline, ilu, mig)")
    add("--timing", action="store_true",
        help="report per-phase compile times (parse, AOI lowering,"
             " presentation, back-end emit) and generated-stub sizes")

    add = verb("ir", command_ir,
               "dump the marshal IR the optimizing back end compiles",
               selection, optimization)
    add("--op", default=None, metavar="NAME",
        help="dump only the functions of this operation")

    verb("inspect", command_inspect,
         "explain what the compiler would generate for an IDL file",
         selection)

    verb("serve", command_service,
         "compile an IDL interface and serve it over TCP",
         selection, serving("serve"))

    add = verb("diff", command_diff,
               "classify the wire compatibility of two IDL versions",
               language, as_json)
    add("old", help="the currently deployed IDL file")
    add("new", help="the proposed IDL file (may be in another language,"
                    " e.g. the pyschema .py replacing an IDL file)")
    add("--protocol", action="append", default=None, metavar="BACKEND",
        help="wire protocol to diff under (repeatable; default:"
             " oncrpc-xdr and iiop, or mach3 for MIG)")

    add = verb("lint", command_lint,
               "flag schema-evolution hazards in an IDL file",
               source, language, as_json)
    add("--protocol", default=None, metavar="BACKEND",
        help="wire protocol to lint under (default: the language's own)")
    add("--fail-on", choices=("info", "warning", "error"),
        default="warning",
        help="lowest severity that makes the exit code nonzero")

    add = verb("bridge", command_bridge,
               "statically verify a cross-protocol bridge is lossless",
               language, as_json)
    add("ingress", help="IDL file the gateway serves on the ingress side")
    add("egress", nargs="?", default=None,
        help="IDL file the upstream server was built against"
             " (default: the ingress file — same schema, two protocols)")
    add("--ingress", dest="ingress_protocol", default="iiop",
        metavar="PROTO",
        help="ingress wire protocol: iiop or onc/oncrpc-xdr"
             " (default: iiop)")
    add("--egress", dest="egress_protocol", default="oncrpc-xdr",
        metavar="PROTO",
        help="egress wire protocol (default: oncrpc-xdr)")

    add = verb("gateway", command_service,
               "serve one protocol, forward to an upstream on another",
               source, language, serving("gateway"))
    add("--listen", required=True, metavar="PROTO:HOST:PORT",
        help="ingress endpoint, e.g. iiop:0.0.0.0:9090"
             " (port 0 picks a free port)")
    add("--upstream", required=True, metavar="PROTO:HOST:PORT",
        help="egress endpoint of the real server, e.g. onc:10.0.0.7:111")
    add("--check", action="store_true",
        help="verify the bridge statically before serving; refuse a"
             " BREAKING bridge with exit 2")

    add = verb("profile", command_profile,
               "report a payload-shape profile snapshot"
               " (from `flick serve --profile`)", as_json)
    add("snapshots", nargs="+", metavar="SNAPSHOT",
        help="profile snapshot JSON file(s); several are merged"
             " (profiles from different workers combine losslessly)")
    add("--op", default=None, metavar="NAME",
        help="report only this operation")

    add = verb("top", command_top,
               "live per-operation view of a serving endpoint's /metrics")
    add("target", metavar="HOST:PORT",
        help="a --metrics-port endpoint, e.g. 127.0.0.1:9464")
    add("--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval (default: 2s)")
    add("--once", action="store_true",
        help="print one snapshot (cumulative totals, no rates) and exit")

    verb("list", command_list,
         "list front ends, presentations, back ends")
    return parser


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


def _compile_input(args, one=False, **options):
    """Read ``args.input``, detect its language unless ``--lang``
    names it, and compile the ``--interface`` it names or, unless
    *one*, every interface of the file."""
    from repro import api

    with open(args.input) as handle:
        text = handle.read()
    lang = args.lang
    if lang is None:
        try:
            lang = api.detect_lang(text, name=args.input)
        except FlickError:
            lang = "corba"
    options.update(name=args.input, presentation=args.pgen,
                   backend=args.backend)
    if args.interface or one:
        return [api.compile(text, lang, interface=args.interface,
                            **options)]
    results = list(api.compile_all(text, lang, **options).values())
    if not results:
        raise FlickError("the input defines no interfaces")
    return results


def _opt_flags(args):
    """The OptFlags ``--no-opt`` and ``--disable-pass`` say; an unknown
    name is refused with the accepted ones."""
    import dataclasses

    from repro.core import OptFlags

    flags = OptFlags.all_off() if args.no_opt else OptFlags()
    accepted = sorted(field.name for field in dataclasses.fields(flags))
    for name in args.disable_pass:
        if name not in accepted:
            raise FlickError("unknown pass %r; use one of: %s"
                             % (name, ", ".join(accepted)))
        flags = flags.but(**{name: False})
    return flags


def command_compile(args):
    from repro.backend import interface_file_stem, runtime_header_path

    options = {}
    if args.little_endian:
        if args.backend not in (None, "iiop"):
            raise FlickError(
                "--little-endian applies only to the iiop back end"
            )
        options["little_endian"] = True
    results = _compile_input(args, flags=_opt_flags(args), **options)
    if args.baseline:
        from repro.compilers import make_baseline

        compiler = make_baseline(args.baseline)
        all_stubs = [compiler.generate(result.presc) for result in results]
    else:
        all_stubs = [result.stubs for result in results]
    emit = {kind.strip() for kind in args.emit.split(",")}
    os.makedirs(args.output, exist_ok=True)
    if emit & {"c", "h"}:
        # Ship the support header alongside the generated C so it
        # compiles out of the box.
        import shutil

        shutil.copy(runtime_header_path(),
                    os.path.join(args.output, "flick-runtime.h"))
    for stubs in all_stubs:
        base = os.path.join(args.output, interface_file_stem(
            stubs.interface_name, stubs.backend_name))
        written = []
        for kind, attribute in (("py", "py_source"), ("c", "c_source"),
                                ("h", "c_header")):
            if kind in emit:
                with open(base + "." + kind, "w") as handle:
                    handle.write(getattr(stubs, attribute))
                written.append(base + "." + kind)
        print("compiled %s (%s presentation, %s back end): %s"
              % (stubs.interface_name, stubs.presentation_style,
                 stubs.backend_name, ", ".join(written)))
    if args.timing:
        for result in results:
            _print_timing(result)
    return 0


def _print_timing(result):
    timings = result.timings
    phases = "  ".join(
        "%s %.2fms" % (key[:-2], seconds * 1e3)
        for key, seconds in timings.items()
        if key.endswith("_s") and key != "total_s"
    )
    print("timing %s: %s  (total %.2fms)"
          % (result.stubs.interface_name, phases,
             timings["total_s"] * 1e3))
    summary = result.emit_summary()
    print("  emitted: %d operation(s), %d bytes (%d lines),"
          " %d marshal chunk(s)"
          % (summary["operations"], summary["stub_bytes"],
             summary["stub_lines"], summary["request_chunks"]))


def command_ir(args):
    """Dump the (optimized) marshal IR for one interface."""
    from repro.mir.dump import dump_program

    (result,) = _compile_input(args, one=True, flags=_opt_flags(args))
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
    from repro.mint.analysis import analyze_storage
    from repro.backend import make_backend

    for result in _compile_input(args):
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


def service_config(args):
    """The ServiceConfig a ``flick serve`` / ``flick gateway`` line says.

    The record's flagged fields are the options (same dest), and the
    namespace is read through the checks a worker's JSON goes through;
    what no single option sets is filled in here: the verb, the input
    file, the cwd (``--impl`` resolves from it) and the two
    ``PROTO:HOST:PORT`` endpoints.
    """
    from repro.runtime.service import ServiceConfig

    values = dict(kind=args.command, idl_path=args.input,
                  sys_paths=[os.getcwd()])
    if args.command == "gateway":
        for prefix, spec, option in (("", args.listen, "--listen"),
                                     ("upstream_", args.upstream,
                                      "--upstream")):
            values.update(zip(
                (prefix + "backend", prefix + "host", prefix + "port"),
                _parse_endpoint(spec, option)))
    return documents.read_flags(ServiceConfig, args, args.command, **values)


def _bridge_refused(config, handles):
    """``flick gateway --check``: report the verdict; True on BREAKING.

    It walks the bridge before anything is built, so a refusal leaves no
    server, tracer or profiler behind (the served plan walks it again).
    """
    from repro.compat import pair_bridge
    from repro.gateway import (
        bridge_exit_code,
        bridge_report_text,
        check_bridge,
    )

    diff = check_bridge(pair_bridge(*handles))
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

    config = service_config(args)
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
        from repro.obs.metrics import parse_prometheus, top_rows, top_table

        print(top_table(top_rows(parse_prometheus(running.metrics_text()))),
              flush=True)
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


def command_bridge(args):
    """Statically verify a protocol bridge (pair diff; exit 0/1/2)."""
    import json

    from repro import api
    from repro.gateway import (
        bridge_exit_code,
        bridge_report_json,
        bridge_report_text,
        build_plan,
        check_bridge,
        predict_fused,
    )

    egress_path = args.egress or args.ingress
    backends = [_backend_for_protocol(protocol) for protocol
                in (args.ingress_protocol, args.egress_protocol)]
    sides = []
    for path, backend in zip((args.ingress, egress_path), backends):
        with open(path) as handle:
            sides.append(api.compile(
                handle.read(), args.lang, interface=args.interface,
                name=path, backend=backend))
    plan = build_plan(*sides)
    diff = check_bridge(plan.pairing)
    predictions = predict_fused(plan)
    if args.json:
        print(json.dumps(
            bridge_report_json(diff, args.ingress, egress_path, predictions),
            indent=2, sort_keys=True))
    else:
        print(bridge_report_text(diff, args.ingress, egress_path,
                                 predictions))
    return bridge_exit_code(diff)


def command_profile(args):
    import json

    from repro.obs.profile import ProfileSnapshot

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
        print(json.dumps(snapshot.report_json(names), indent=2,
                         sort_keys=True))
        return 0
    print("payload-shape profile (1/%d sampling, %d snapshot%s)"
          % (snapshot.sample, len(args.snapshots),
             "" if len(args.snapshots) == 1 else "s"))
    if names:
        print(snapshot.report_text(names))
    return 0


def command_top(args):
    import time
    import urllib.error
    import urllib.request

    from repro.obs.metrics import parse_prometheus, top_rows, top_table

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
            return top_rows(parse_prometheus(text))
        except ValueError as error:
            raise FlickError("bad exposition from %s: %s" % (url, error)) \
                from None

    if args.once:
        rows = scrape()
        print("flick top %s (cumulative totals)" % args.target)
        print(top_table(rows))
        return 0
    previous = scrape()
    try:
        while True:
            time.sleep(args.interval)
            rows = scrape()
            sys.stdout.write("\x1b[2J\x1b[H")
            print("flick top %s  every %.1fs  (ctrl-c to quit)"
                  % (args.target, args.interval))
            print(top_table(rows, previous, args.interval))
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
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (FlickError, OSError) as error:
        print("flick: error: %s" % error, file=sys.stderr)
        # diff/lint/bridge reserve 1 and 2 for verdicts; 3 = did not run.
        return 3 if args.command in ("diff", "lint", "bridge") else 1


if __name__ == "__main__":
    sys.exit(main())
