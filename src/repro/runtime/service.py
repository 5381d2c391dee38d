"""One service assembly: config record -> :func:`build` -> drivers.

Everything a serving process is made of — the compiled interface(s),
the servant, ``ServerStats``, the trace and profile layers, fault
plans, the server — is put together here and nowhere else.  A :class:`ServiceConfig` says *what* to serve;
:func:`build` assembles it into a :class:`Service` holding the
**unstarted** server; how the service is run is a driver's business,
and there are three, as PR 15's I/O drivers sit on ``RequestCore``:

* the foreground runner behind ``flick serve`` / ``flick gateway``
  (:mod:`repro.tools.cli`: signals, banner, ``--duration``, drain);
* a supervised worker (:mod:`repro.runtime.supervisor.worker`: the
  control channel), which loads the same record from the JSON file its
  parent wrote;
* the :class:`~repro.runtime.supervisor.Supervisor`, which takes the
  record as the template of its fleet and fills in the per-worker
  fields (``slot``, ``generation``, the inherited fds).

One process or a fleet is thus a policy applied to an unchanged
service, not a second implementation of it.  :class:`Service` answers
``metrics_text() / profile_json() / healthy() / ready()`` — the same
four questions the supervisor answers for a fleet — so
:func:`repro.obs.http.routes_of` serves either, and a worker's
``metrics`` control reply is the function behind its own ``/metrics``.

Not imported by ``repro.runtime``'s package init: the gateway and the
fault plans are imported here on use.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Literal, Optional

from repro import documents
from repro.documents import flag
from repro.errors import FlickError

#: Back ends whose messages the socket servers can carry.
SERVABLE_BACKENDS = ("iiop", "oncrpc-xdr")


@dataclass
class ServiceConfig:
    """Everything one serving process needs, as one JSON record
    (:mod:`repro.documents` reads and writes it).

    Its fields *are* the ``flick serve`` / ``flick gateway`` flags: a
    field's :func:`~repro.documents.flag` metadata holds the option's
    help (and its spelling, where that is not ``--field-name``), the
    annotation and default its type, choices and default, and the
    parsed command line is read back through the same checks as a
    worker's JSON.  A supervisor saves one record per spawned worker
    (``python -m repro.runtime.supervisor.worker CONFIG.json``
    reproduces any worker standalone: copy the file, run the module).
    A port outside 0-65535 or a ``max_concurrency`` below 1 is refused
    on construction, naming the flag.

    Attributes:
        kind: ``"serve"`` (stub server) or ``"gateway"`` (protocol
            bridge).
        idl_path: the schema file.  For a worker: its generation's
            content-named copy, never the operator's mutable original.
        lang: IDL language, or None to detect.
        pgen, backend, interface: the compile selection.
        impl: ``module:Class`` servant spec (serve kind).
        host, port: the listen address (port 0 picks a free port; a
            supervisor resolves it before the first spawn).
        aio: serve with the asyncio runtime instead of the blocking
            thread-per-connection server.  Gateways and supervised
            workers are always asyncio.
        stats: collect per-operation metrics (``metrics_port`` implies
            it).
        max_concurrency, dispatch_mode, max_pending: asyncio-server
            knobs; see :class:`~repro.runtime.aio.AioTcpServer`.
        drain_timeout: seconds granted to in-flight work at drain.
        trace_path: append finished spans to this JSONL file.
        profile_path: enable the payload-shape profiler and save its
            snapshot here at :meth:`Service.close`.
        profile_sample: profiler sampling rate (1/N).
        fault_plan, upstream_fault_plan: :class:`repro.faults
            .FaultPlan` JSON files for inbound requests / the gateway's
            egress leg.
        metrics_port: where the foreground runner serves ``/metrics
            /profile /healthz /readyz`` (None: nowhere).
        sys_paths: extra ``sys.path`` entries, so ``impl`` resolves in
            a worker as it does in its parent.
        upstream_host, upstream_port, upstream_backend,
        upstream_idl_path, pool_size: the gateway's egress side.
        slot, generation, listen_fd, control_fd: filled by a supervisor
            for each worker — stable worker index, schema generation,
            inherited listener
            (None: bind an own ``SO_REUSEPORT`` socket) and the
            control-channel socketpair end.
    """

    kind: Literal["serve", "gateway"] = "serve"
    idl_path: str = ""
    lang: Optional[str] = None
    pgen: Optional[str] = None
    backend: Optional[str] = None
    interface: Optional[str] = None
    impl: Optional[str] = field(default=None, metadata=flag(
        "servant implementation as module:Class; the class is"
        " instantiated with the stub module (or with no arguments)",
        "serve", required=True))
    host: str = field(default="127.0.0.1", metadata=flag(
        "address to listen on", "serve"))
    port: int = field(default=0, metadata=flag(
        "TCP port (0 picks a free port)", "serve"))
    aio: bool = field(default=False, metadata=flag(
        "serve with the concurrent asyncio runtime (pipelining,"
        " backpressure, graceful drain) instead of the blocking"
        " thread-per-connection server; --workers fleets always do",
        "serve"))
    stats: bool = field(default=False, metadata=flag(
        "collect per-operation call counts, errors, and latency"
        " histograms (a gateway: per-bridge counters too); printed at"
        " shutdown"))
    max_concurrency: int = field(default=64, metadata=flag(
        "in-flight request cap for the asyncio runtime"))
    dispatch_mode: Literal["thread", "inline"] = field(
        default="thread", metadata=flag(
            "run each dispatch on a worker thread (safe for blocking"
            " servants) or inline on the event loop (fastest)", "serve"))
    max_pending: Optional[int] = field(default=None, metadata=flag(
        "overload bound for the asyncio runtime: when all"
        " --max-concurrency slots are busy, at most N further requests"
        " wait; beyond that requests are shed with a protocol error"
        " reply (default: queue unboundedly)", metavar="N"))
    drain_timeout: float = 5.0
    trace_path: Optional[str] = field(default=None, metadata=flag(
        "enable tracing and append finished spans to PATH as JSON lines"
        " (one object per span); client, gateway, and upstream spans"
        " share one trace id", spelling="--trace", metavar="PATH"))
    profile_path: Optional[str] = field(default=None, metadata=flag(
        "enable the payload-shape profiler (a gateway: fused/re-encode"
        " path ratios, transcoded sizes) and save its snapshot to PATH"
        " at shutdown (inspect with `flick profile PATH`)",
        spelling="--profile", metavar="PATH"))
    profile_sample: int = field(default=64, metadata=flag(
        "profile every N-th codec call or transcoded message"
        " (default: 64; 1 profiles everything)", metavar="N"))
    fault_plan: Optional[str] = field(default=None, metadata=flag(
        "inject faults into inbound requests per a FaultPlan JSON file"
        " (chaos testing: drop/delay/duplicate/reorder/truncate/corrupt/"
        "reset probabilities and a seed)", metavar="FILE"))
    upstream_fault_plan: Optional[str] = field(default=None, metadata=flag(
        "inject faults on the egress leg instead", "gateway",
        metavar="FILE"))
    metrics_port: Optional[int] = field(default=None, metadata=flag(
        "serve /metrics (Prometheus), /profile, /healthz and /readyz at"
        " http://HOST:PORT (0 picks a free port; implies --stats); with"
        " --workers they answer for the whole fleet", metavar="PORT"))
    sys_paths: list[str] = field(default_factory=list)
    upstream_host: Optional[str] = None
    upstream_port: Optional[int] = None
    upstream_backend: Optional[str] = None
    upstream_idl_path: Optional[str] = field(default=None, metadata=flag(
        "IDL file the upstream was built against (default: the ingress"
        " file; set during migrations)", "gateway",
        spelling="--upstream-idl", metavar="FILE"))
    pool_size: int = field(default=4, metadata=flag(
        "multiplexed upstream connections (default: 4)", "gateway"))
    slot: Optional[int] = None
    generation: int = 0
    listen_fd: Optional[int] = None
    control_fd: Optional[int] = None

    def __post_init__(self):
        listen = "--port" if self.kind == "serve" else "--listen port"
        for port, option in ((self.port, listen),
                             (self.metrics_port, "--metrics-port"),
                             (self.upstream_port, "--upstream port")):
            if port is not None and not 0 <= port <= 65535:
                raise FlickError("%s must be in 0-65535, not %d"
                                 % (option, port))
        if self.max_concurrency < 1:
            raise FlickError("--max-concurrency must be at least 1, not %d"
                             % self.max_concurrency)

    def validate(self, workers=None):
        """Refuse, naming the flag, what this mode cannot honour.

        *workers* is the fleet size the record is about to be the
        template of (None: one process).  Reads and touches nothing:
        no tracer, profiler, compile or socket exists before it returns.
        """
        gateway = self.kind == "gateway"
        if gateway:
            if self.backend == self.upstream_backend \
                    and self.upstream_idl_path is None:
                raise FlickError(
                    "both endpoints speak %s; a gateway bridges two"
                    " protocols (or two schemas: add --upstream-idl)"
                    % self.backend)
        elif not self.impl:
            raise FlickError("serve needs a servant: --impl module:Class")
        if workers is None:
            if self.max_pending is not None and not (self.aio or gateway):
                raise FlickError(
                    "--max-pending applies to the asyncio runtime;"
                    " add --aio")
            if self.control_fd is not None and not (self.aio or gateway):
                raise FlickError(
                    "a supervised worker serves with the asyncio"
                    " runtime (aio: true)")
            return
        if workers < 1:
            raise FlickError("--workers must be at least 1")
        for value, flag in ((self.trace_path, "--trace"),
                            (self.fault_plan, "--fault-plan"),
                            (self.upstream_fault_plan,
                             "--upstream-fault-plan"),
                            (self.stats, "--stats")):
            if value:
                raise FlickError(
                    "%s is per-process; it is not supported with"
                    " --workers" % flag)

    def but(self, **changes):
        """A copy with *changes* applied (the template-to-slot step)."""
        return replace(self, **changes)


def _compile(path, lang, *, interface, pgen, backend):
    """Compile the one interface a service serves from the file *path*."""
    from repro import api, frontends

    with open(path) as handle:
        text = handle.read()
    lang = lang or api.detect_lang(text, name=path)
    if not frontends.get(lang).servable:
        raise FlickError(
            "serve carries TCP protocols only (%s); %s interfaces"
            " target kernel IPC"
            % (", ".join(SERVABLE_BACKENDS), lang.upper()))
    handle = api.compile(
        text, lang, name=path, interface=interface, presentation=pgen,
        backend=backend)
    if handle.stubs.backend_name not in SERVABLE_BACKENDS:
        raise FlickError(
            "serve supports the %s back ends, not %r"
            % (" and ".join(SERVABLE_BACKENDS), handle.stubs.backend_name))
    return handle


def compile_handles(config):
    """The compiled interface(s) *config* serves.

    ``(handle,)`` for the serve kind, ``(ingress, egress)`` for a
    gateway.  :func:`build` and the supervisor call this themselves; a
    caller that needs the handles first (``flick gateway --check``)
    calls it and passes the result on, so each side compiles once.
    """
    ingress = _compile(
        config.idl_path, config.lang, interface=config.interface,
        pgen=config.pgen, backend=config.backend)
    if config.kind != "gateway":
        return (ingress,)
    return (ingress, _compile(
        config.upstream_idl_path or config.idl_path, config.lang,
        interface=config.interface, pgen=config.pgen,
        backend=config.upstream_backend))


class Service:
    """One assembled serving process; what :func:`build` returns.

    Attributes:
        config: the :class:`ServiceConfig` it was built from.
        handles: :func:`compile_handles`' result.
        server: the unstarted ``TcpServer`` / ``AioTcpServer`` /
            ``AioGatewayServer``.  A synchronous driver uses
            :meth:`start` / :meth:`stop`; an asyncio one drives the
            server itself, sets :attr:`draining` and calls
            :meth:`close`.
        stats: the ``ServerStats``, or None when none were asked for.
        draining: set once the service refuses new work.
    """

    def __init__(self, config, handles, server, stats):
        self.config = config
        self.handles = handles
        self.server = server
        self.stats = stats
        self.draining = False

    # -- the four questions (a Supervisor answers the same for a fleet) --

    def metrics_text(self):
        """This process's Prometheus exposition."""
        if self.stats is None:
            return ""
        return self.stats.registry.render_prometheus()

    def profile_json(self):
        """The live payload-shape snapshot as JSON, or None when off."""
        from repro.obs import profile

        profiler = profile.active()
        return None if profiler is None \
            else documents.write(profiler.snapshot())

    def healthy(self):
        """Liveness: a process that can answer this is alive."""
        return True

    def ready(self):
        """Readiness: accepting and not draining."""
        # A TcpServer listens from construction until it is drained;
        # the asyncio servers only between start and drain, and say so.
        return not self.draining and getattr(self.server, "accepting", True)

    # -- lifecycle for synchronous drivers ------------------------------

    def start(self):
        self.server.start()
        return self

    def stop(self):
        """Bounded graceful drain, then :meth:`close`; returns its result."""
        self.draining = True
        self.server.drain(self.config.drain_timeout)
        return self.close()

    def close(self):
        """Take the obs layers down again.

        Saves the profile snapshot to ``profile_path`` (and returns it;
        None when there was nothing to save) and flushes the tracer.
        """
        from repro import obs

        config = self.config
        snapshot = None
        if config.profile_path:
            # Profile wrappers wrap trace wrappers; unwind in reverse.
            snapshot = obs.profile.shutdown()
            if snapshot is not None:
                documents.save(snapshot, config.profile_path)
        if config.trace_path:
            obs.shutdown()  # flush and close the span file
        return snapshot

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False


def build(config, listen_sock=None, handles=None):
    """Assemble the process *config* describes; start nothing.

    *listen_sock* is an already-bound socket for the asyncio servers to
    accept on (a worker's share of the fleet's address); *handles* what
    :func:`compile_handles` returned, when the caller already has it.
    Everything that can fail — the compile, the servant import, the
    plan files, the bind of the blocking server — happens
    before the trace and profile layers go in, so a failed build leaves
    no tracer, profiler or output file behind.
    """
    from repro import obs
    from repro.runtime.aio import ServerStats
    from repro.runtime.server import StubServer, load_servant

    config.validate()
    for path in reversed(config.sys_paths):  # impl resolves from these
        if path and path not in sys.path:
            sys.path.insert(0, path)
    handles = handles or compile_handles(config)
    module = handles[0].module
    gateway = config.kind == "gateway"
    impl = None if gateway else load_servant(config.impl, module)
    fault_plan = upstream_fault_plan = None
    if config.fault_plan or config.upstream_fault_plan:
        from repro.faults import FaultPlan

        fault_plan, upstream_fault_plan = (
            documents.load(FaultPlan, path, "fault plan") if path else None
            for path in (config.fault_plan, config.upstream_fault_plan))
    stats = None
    if config.stats or config.metrics_port is not None:
        stats = ServerStats()
    registry = stats.registry if stats is not None else None
    shared = dict(stats=stats, fault_plan=fault_plan)
    concurrent = dict(
        shared, max_concurrency=config.max_concurrency,
        max_pending=config.max_pending,
        drain_timeout=config.drain_timeout, listen_sock=listen_sock)
    if gateway:
        from repro.gateway import AioGatewayServer, build_plan

        server = AioGatewayServer(
            build_plan(*handles),
            config.upstream_host, config.upstream_port,
            pool_size=config.pool_size,
            upstream_fault_plan=upstream_fault_plan,
            host=config.host, port=config.port, **concurrent)
    elif config.aio:
        server = StubServer(module, impl).aio_server(
            config.host, config.port,
            dispatch_mode=config.dispatch_mode, **concurrent)
    else:
        server = StubServer(module, impl).tcp_server(
            config.host, config.port, **shared)
    if config.trace_path:
        obs.configure(obs.JsonlExporter(config.trace_path))
        if not gateway:
            obs.instrument_stub_module(module)
    if config.profile_path:
        obs.profile.configure(
            sample=config.profile_sample, registry=registry)
        if not gateway:
            obs.profile.instrument_stub_module(module)
    return Service(config, handles, server, stats)
