"""The six closed-loop workloads.

Every workload has the same life cycle, driven by :mod:`run`:

``prepare(seed)``   compile schemas, build payloads and op kinds
``connect()``       start servers, open client connections
``drive(...)``      execute a fixed, seeded op sequence, timing each op
``disconnect()``    close connections, stop servers, join their threads

Set-up as the metric ``setup_s`` defines it is prepare + connect + the
fully verified warm-up.  ``connect(tracer)`` builds the *traced* variant
of the same plumbing: the benchmark's own timing wrappers around each
layer's public call, on separate server instances, so the measured
sequence never runs instrumented code.

Client, servers and servants share one process; one thread generates
load; at most two client connections are open; all traffic crosses the
host's loopback TCP.
"""

import asyncio
import gc
import itertools
from time import perf_counter, perf_counter_ns, process_time

from repro import api
from repro.backend.pywriter import PyWriter
from repro.encoding import MarshalBuffer
from repro.gateway import AioGatewayServer, build_plan, \
    transcode_request, translate_reply
from repro.gateway.envelope import parse_request
from repro.mir import render_py
from repro.mir.build import build_program
from repro.mir.ops import walk_ops
from repro.mir.passes import PassManager
from repro.mir.render_closures import install_closures
from repro.runtime import ConnectionPool, RecordDecoder, StubServer, \
    TcpClientTransport, TcpServer, Transport, encode_record
from repro.runtime.aio import AioTcpServer

from benchmarks.e2e import contract, reference, values
from benchmarks.e2e.tracing import OP
from benchmarks.e2e.twin import CompileTwin, SocketTwin

KIB = 1024

#: A full check (whole value, wire bytes against the reference) every
#: this many ops; the cheap check runs on every op.
FULL_CHECK_EVERY = 64

#: Equal-count, equal-mix segments of a measured sequence; every timing
#: metric is computed per segment and the run reports the median.
SEGMENTS = 30

#: Each segment runs in this many blocks with a burst of twin ops after
#: each, so the yardstick is read within a few hundredths of a second
#: of the ops it normalises.
BLOCKS = 5

#: Blocks of the traced pass (one host factor for the whole pass, so a
#: few long twin bursts serve better than many cold ones).
TRACED_BLOCKS = 10

#: Twin ops per workload op (by count; they are several times cheaper).
TWIN_SHARE = 0.3


class Measured:
    """What one driven sequence produced."""

    def __init__(self, kinds, sequence):
        self.kinds = kinds
        self.sequence = sequence
        self.wall_ns = []           # per completed op, completion order
        self.done = []              # sequence positions of wall_ns
        #: One ``(end index into wall_ns, wall s, CPU s, twin ns, twin
        #: ops)`` per segment; wall and CPU cover the ops, not the twin.
        self.segments = []
        self.attempted = len(sequence)
        self.failed = 0
        self._open = [0.0, 0.0, 0, 0]

    def add_block(self, wall_s, cpu_s, twin_ns, twin_ops):
        for index, amount in enumerate((wall_s, cpu_s, twin_ns, twin_ops)):
            self._open[index] += amount

    def end_segment(self):
        self.segments.append((len(self.wall_ns), *self._open))
        self._open = [0.0, 0.0, 0, 0]

    def wall_s(self):
        return sum(segment[1] for segment in self.segments)

    def twin_us(self):
        """Mean twin op time over the whole sequence, microseconds."""
        ops = sum(segment[4] for segment in self.segments)
        return sum(segment[3] for segment in self.segments) / 1e3 / ops

    def by_shape(self):
        """Per-op wall samples split by payload shape."""
        shapes = {}
        for position, wall in zip(self.done, self.wall_ns):
            shape = self.kinds[self.sequence[position]].shape
            if shape is not None:
                shapes.setdefault(shape, []).append(wall)
        return shapes


class Workload:
    """Skeleton of a serial closed loop: one caller, one op in flight."""

    name = ""
    #: Ops per second of ``--seconds``, calibrated once on the seed
    #: commit and then frozen so counts, bytes and memory are comparable
    #: across commits.  A faster tree finishes sooner; it is not given
    #: more ops.
    ops_per_second = 0
    #: Fully verified ops that end every set-up.
    warmup_ops = 0
    #: Ops of the traced pass per second of ``--seconds``.
    traced_ops_per_second = 0
    #: The twin's mean op time on the seed host when it was quiet,
    #: microseconds.  Frozen: it only fixes the scale of the normalised
    #: metrics, and changing it would move every one of them.
    twin_reference_us = 1.0

    def __init__(self):
        self.kinds = []
        self.calls = []
        self.wire = contract.Wire()
        self.results = {}
        self.load_ns = {}
        self.twin = None

    # -- life cycle -----------------------------------------------------

    def prepare(self, seed):
        raise NotImplementedError

    def connect(self, tracer=None):
        raise NotImplementedError

    def disconnect(self):
        raise NotImplementedError

    def close(self):
        """Release what ``prepare`` opened (after the last disconnect)."""
        if self.twin is not None:
            self.twin.close()

    def make_twin(self):
        """The hand-written twin of this workload's op kinds: the same
        payload sizes and directions over a loopback connection."""
        shapes = []
        for kind in self.kinds:
            get = kind.method.startswith("get_")
            body = kind.reply_body if get else kind.request_body
            shape = ("get" if get else "put", max(1, len(body) // 4))
            if shape not in shapes:
                shapes.append(shape)
        return SocketTwin(shapes)

    def replica(self, tracer, kind):
        """Traced pass only: time the layers that cannot be seen from
        outside a call by performing the same stage on the same bytes."""

    def _compile(self, key, *args, **kwargs):
        """``api.compile`` + module load, keeping the load time."""
        result = api.compile(*args, **kwargs)
        started = perf_counter_ns()
        result.module
        self.load_ns[key] = perf_counter_ns() - started
        self.results[key] = result
        return result

    # -- op sequence ----------------------------------------------------

    def sequence(self, seed, ops, salt):
        """A seeded sequence of kind indices, about *ops* long.

        Every segment holds the same multiset of kinds (equal counts),
        shuffled within the segment, so segments are comparable and the
        op mix does not depend on the seed.
        """
        rng = values.seeded(seed, "%s/%s" % (self.name, salt))
        kinds = len(self.kinds)
        segments = self.segments(ops)
        rounds = max(1, round(ops / (segments * kinds)))
        sequence = []
        for _ in range(segments):
            segment = list(range(kinds)) * rounds
            rng.shuffle(segment)
            sequence.extend(segment)
        return sequence

    def segments(self, ops):
        """Segment count for a sequence of about *ops* ops: SEGMENTS,
        fewer when the sequence is too short to fill them."""
        return min(SEGMENTS, max(1, int(ops) // len(self.kinds)))

    def warmup_sequence(self, seed):
        rng = values.seeded(seed, self.name + "/warmup")
        kinds = len(self.kinds)
        sequence = [i % kinds for i in range(self.warmup_ops)]
        rng.shuffle(sequence)
        return sequence

    # -- driving --------------------------------------------------------

    def drive(self, sequence, budget_s, full_every=FULL_CHECK_EVERY,
              yardstick=True):
        """Run *sequence*; ops past *budget_s* count as failed.

        With *yardstick*, every block of ops is followed by a burst of
        twin ops, timed apart from the ops (the warm-up goes without).
        """
        measured = Measured(self.kinds, sequence)
        if yardstick and self.twin is None:
            self.twin = self.make_twin()
        segment_ops = len(sequence) // self.segments(len(sequence))
        deadline = perf_counter_ns() + int(budget_s * 1e9)
        for begin in range(0, len(sequence), segment_ops):
            span = min(segment_ops, len(sequence) - begin)
            bounds = [begin + span * block // BLOCKS
                      for block in range(BLOCKS + 1)]
            for start, stop in zip(bounds, bounds[1:]):
                if start == stop:
                    continue
                wall, cpu = perf_counter(), process_time()
                in_time = self.run_block(measured, start, stop, deadline,
                                         full_every)
                wall, cpu = perf_counter() - wall, process_time() - cpu
                twin_ops = max(1, round((stop - start) * TWIN_SHARE)) \
                    if yardstick else 0
                twin_ns = self.twin.run(twin_ops) if twin_ops else 0
                measured.add_block(wall, cpu, twin_ns, twin_ops)
                if not in_time:
                    measured.failed += len(sequence) - stop
                    measured.end_segment()
                    return measured
            measured.end_segment()
            # A full collection between segments, outside the timed
            # blocks: where the collector's own schedule lands (and how
            # much heap earlier segments left behind) then does not
            # decide which segment pays for it.  (Not in the warm-up:
            # set-up is timed whole.)
            if yardstick:
                gc.collect()
        return measured

    def run_block(self, measured, start, stop, deadline, full_every):
        """Ops ``sequence[start:stop]``, one at a time; False once the
        deadline has passed."""
        kinds, calls, wire = self.kinds, self.calls, self.wire
        sequence = measured.sequence
        wall, done = measured.wall_ns, measured.done
        ended = 0
        for position in range(start, stop):
            index = sequence[position]
            kind = kinds[index]
            wire.armed = full = position % full_every == 0
            try:
                started = perf_counter_ns()
                result = calls[index](kind.arg)
                ended = perf_counter_ns()
            except Exception:
                measured.failed += 1
                continue
            wall.append(ended - started)
            done.append(position)
            if not kind.verify(result, wire if full else None):
                measured.failed += 1
        return ended <= deadline

    def drive_reference(self, sequence, budget_s):
        """The untraced pass the traced one is compared against."""
        return self.drive(sequence, budget_s)

    def extra_metrics(self):
        """Per-layer metrics only this workload can compute."""
        return {}

    def drive_traced(self, tracer, sequence):
        """The traced pass: each op under a root span, then replicas,
        with the same bursts of twin ops between blocks."""
        measured = Measured(self.kinds, sequence)
        self.wire_bytes = [0, 0]
        self.wire.armed = True
        block = max(1, len(sequence) // TRACED_BLOCKS)
        for start in range(0, len(sequence), block):
            stop = min(len(sequence), start + block)
            self.run_traced_block(tracer, measured, start, stop)
            twin_ops = max(1, round((stop - start) * TWIN_SHARE))
            measured.add_block(0.0, 0.0, self.twin.run(twin_ops), twin_ops)
        measured.end_segment()
        return measured

    def run_traced_block(self, tracer, measured, start, stop):
        kinds, calls, wire = self.kinds, self.calls, self.wire
        for position in range(start, stop):
            index = measured.sequence[position]
            kind = kinds[index]
            tracer.op_id = position
            span = tracer.begin(OP)
            try:
                result = calls[index](kind.arg)
            except Exception:
                measured.failed += 1
                continue
            finally:
                tracer.end(span)
            if not kind.verify(result, wire):
                measured.failed += 1
            self.wire_bytes[0] += len(wire.request)
            self.wire_bytes[1] += len(wire.reply)
            self.replica(tracer, kind)

    # -- exact counts ---------------------------------------------------

    def compile_counts(self):
        """IR and code size of everything set-up compiled (exact)."""
        return _compile_counts(self.results.values())


def _compile_counts(results):
    counts = {"mir.ops_count": 0, "backend.py_source_bytes": 0,
              "backend.c_source_bytes": 0, "backend.request_chunks": 0}
    for result in results:
        counts["mir.ops_count"] += sum(
            sum(1 for _ in walk_ops(function.ops))
            for function in result.mir.functions)
        counts["backend.py_source_bytes"] += len(result.stubs.py_source)
        counts["backend.c_source_bytes"] += len(result.stubs.c_source)
        counts["backend.request_chunks"] += \
            result.emit_summary()["request_chunks"]
    return counts


def compile_replica(tracer, result):
    """Time the stages inside ``backend.emit`` on the same PRES_C.

    ``CompiledInterface.timings`` stops at the back end's door; the
    marshal-IR stages behind it are public functions, so the benchmark
    runs them again on the result's own PRES_C, back end and flags.
    """
    stubs = result.stubs
    program = tracer.timed("mir.build", build_program,
                           stubs.backend_instance, result.presc,
                           stubs.flags)
    program = tracer.timed("mir.passes", PassManager(stubs.flags).run,
                           program)
    tracer.timed("mir.render_py", render_py.render_program, PyWriter(),
                 program)
    if stubs.renderer == "closures":
        tracer.timed("mir.closures_install", install_closures,
                     result.module, program)


_PHASES = (("parse_s", "frontends.parse"), ("aoi_s", "frontends.aoi"),
           ("present_s", "pgen.present"), ("emit_s", "backend.emit"))


def phase_spans(tracer, result, started_ns):
    """``CompiledInterface.timings`` as spans laid end to end from
    *started_ns* (the durations are the compiler's own; only the start
    offsets are reconstructed)."""
    for key, name in _PHASES:
        duration_ns = int(result.timings[key] * 1e9)
        tracer.add(name, started_ns, duration_ns)
        started_ns += duration_ns


# ----------------------------------------------------------------------
# Blocking request/reply over TCP
# ----------------------------------------------------------------------


class Recording(Transport):
    """Copies the request and reply of a call the driver armed for a
    full check (a kept view would pin the client's marshal buffer)."""

    def __init__(self, inner, wire, call=None):
        self.inner = inner
        self.wire = wire
        self._call = call or inner.call

    def call(self, request):
        reply = self._call(request)
        wire = self.wire
        if wire.armed:
            wire.request = bytes(request)
            wire.reply = reply
        return reply

    def send(self, request):
        self.inner.send(request)

    def close(self):
        self.inner.close()


def _frame_replica(tracer, wire):
    """Record marking of one call's two messages, as both ends do it."""
    request = tracer.timed("runtime.framing.encode", encode_record,
                           wire.request)
    reply = tracer.timed("runtime.framing.encode", encode_record,
                         wire.reply)
    decoder = RecordDecoder()
    tracer.timed("runtime.framing.decode", decoder.feed, request)
    tracer.timed("runtime.framing.decode", decoder.feed, reply)


def _proxy(tracer, method):
    """A generated client method; traced, its self time is the proxy's
    own glue (buffer reset, request id, reply header check)."""
    return method if tracer is None else tracer.wrap(
        "stubs.proxy_self", method)


class BlockingRpc(Workload):
    """One caller, ``StubServer.tcp_server()`` + ``TcpClientTransport``,
    alternating an ONC/XDR and an IIOP server."""

    protocols = ("onc", "iiop")
    #: (method, payload bytes) pairs, each on every protocol.
    mix = ()

    def prepare(self, seed):
        self.servants = {}
        for protocol in self.protocols:
            backend, family = contract.PROTOCOLS[protocol]
            result = self._compile(
                protocol, contract.schema_text("ledger.idl"),
                name="ledger.idl", backend=backend)
            servant = self.servants[protocol] = contract.Servant()
            side = (result, family)
            for method, size in self.mix:
                self.kinds.append(contract.make_kind(
                    protocol, method, size, seed, side, side, servant))

    def connect(self, tracer=None):
        self.servers, self.transports, clients = [], [], {}
        for protocol, result in self.results.items():
            module, servant = result.module, self.servants[protocol]
            if tracer is None:
                server = StubServer(module, servant).tcp_server()
            else:
                tracer.install_codecs(result)
                server = TcpServer(
                    tracer.wrap("stubs.dispatch_self", module.dispatch),
                    tracer.servant(servant, contract.METHODS),
                    error_encoder=module.encode_error_reply)
            self.servers.append(server.start())
            transport = TcpClientTransport(*server.address)
            call = None if tracer is None else tracer.wrap(
                "runtime.socket.overhead", transport.call)
            self.transports.append(transport)
            clients[protocol] = getattr(
                module, contract.PREFIX + "LedgerClient")(
                    Recording(transport, self.wire, call))
        self.calls = [
            _proxy(tracer, getattr(clients[kind.protocol], kind.method))
            for kind in self.kinds]

    def disconnect(self):
        for transport in self.transports:
            transport.close()
        for server in self.servers:
            server.stop()

    def replica(self, tracer, kind):
        _frame_replica(tracer, self.wire)


class RpcSmall(BlockingRpc):
    """Small messages: the call's fixed cost dominates, codecs do not."""

    name = "rpc_small"
    mix = (("ping", 0), ("put_ints", 64))
    ops_per_second = 27000
    warmup_ops = 500
    traced_ops_per_second = 2400
    twin_reference_us = 14.0


class RpcBulkPut(BlockingRpc):
    """The paper's three shapes in the request direction (client
    encode, server decode)."""

    name = "rpc_bulk_put"
    mix = (("put_ints", 64 * KIB), ("put_rects", 16 * KIB),
           ("put_dirents", 16 * KIB))
    ops_per_second = 720
    warmup_ops = 60
    traced_ops_per_second = 150
    twin_reference_us = 385.0


class RpcBulkGet(BlockingRpc):
    """The same shapes in the reply direction (server encode, client
    decode)."""

    name = "rpc_bulk_get"
    mix = (("get_ints", 64 * KIB), ("get_rects", 16 * KIB),
           ("get_dirents", 16 * KIB))
    ops_per_second = 640
    warmup_ops = 60
    traced_ops_per_second = 150
    twin_reference_us = 385.0


# ----------------------------------------------------------------------
# Pipelined calls on the asyncio runtime
# ----------------------------------------------------------------------


class RpcPipelined(BlockingRpc):
    """``StubServer.aio_server()`` per protocol, one single-connection
    ``ConnectionPool`` to each (two connections in all), and 16
    coroutine callers in the benchmark's one thread."""

    name = "rpc_pipelined"
    mix = (("ping", 0), ("put_ints", KIB))
    callers = 16
    ops_per_second = 6500
    warmup_ops = 500
    traced_ops_per_second = 640
    twin_reference_us = 21.5

    def prepare(self, seed):
        super().prepare(seed)
        self.loop = asyncio.new_event_loop()

    def connect(self, tracer=None):
        self.servers, self.pools = [], {}
        self.in_flight = self.callers if tracer is None else 1
        acalls = {}
        for protocol, result in self.results.items():
            module, servant = result.module, self.servants[protocol]
            if tracer is None:
                server = StubServer(module, servant).aio_server()
            else:
                tracer.install_codecs(result)
                server = AioTcpServer(
                    tracer.wrap("stubs.dispatch_self", module.dispatch),
                    tracer.servant(servant, contract.METHODS),
                    error_encoder=module.encode_error_reply)
            self.servers.append(server.start())
            pool = self.pools[protocol] = ConnectionPool(
                *server.address[:2], pool_size=1)
            acalls[protocol] = pool.acall if tracer is None else \
                tracer.wrap_async("runtime.aio.overhead", pool.acall)
        self.calls = [self._caller(kind, acalls[kind.protocol])
                      for kind in self.kinds]
        if tracer is not None:
            self.calls = [tracer.wrap_async("stubs.proxy_self", call)
                          for call in self.calls]

    def _caller(self, kind, acall):
        """What a generated client method does, as a coroutine."""
        module = self.results[kind.protocol].module
        check_reply = module._check_reply
        encode_name = "_m_req_" + kind.method
        decode_name = "_u_rep_" + kind.method
        names = vars(module)

        async def call(arg, buffer, context):
            buffer.reset()
            names[encode_name](buffer, context, arg)
            request = buffer.getvalue()
            reply = await acall(request)
            result = names[decode_name](reply, check_reply(reply, context))
            return result, contract.Wire(request, reply)

        return call

    def disconnect(self):
        async def close():
            for pool in self.pools.values():
                await pool.aclose()

        self.loop.run_until_complete(close())
        for server in self.servers:
            server.stop()

    def close(self):
        super().close()
        self.loop.close()

    def drive_reference(self, sequence, budget_s):
        """One call in flight is what the traced pass runs, so that is
        its reference; the same sequence at full depth gives the gain."""
        # Serial first: the server's thread pool then holds one worker,
        # as it does in the traced pass (sixteen idle workers taking
        # turns are measurably slower than one that stays warm).
        self.in_flight = 1
        serial = self.drive(sequence, budget_s)
        self.in_flight = self.callers
        pipelined = self.drive(sequence, budget_s)
        serial.failed += pipelined.failed
        serial.attempted += pipelined.attempted
        # Each pass's wall is put on the same host speed by its own twin.
        self.gain = ((serial.wall_s() / serial.twin_us())
                     / (pipelined.wall_s() / pipelined.twin_us()))
        return serial

    def extra_metrics(self):
        return {"runtime.aio.pipelined_gain": self.gain}

    def run_block(self, measured, start, stop, deadline, full_every):
        """``in_flight`` coroutine callers share the block's ops."""
        return self.loop.run_until_complete(self._run_block(
            measured, start, stop, deadline, full_every, None))

    def run_traced_block(self, tracer, measured, start, stop):
        self.loop.run_until_complete(self._run_block(
            measured, start, stop, None, 1, tracer))

    async def _run_block(self, measured, start, stop, deadline,
                         full_every, tracer):
        kinds, calls = self.kinds, self.calls
        sequence = measured.sequence
        positions = iter(range(start, stop))
        latest = [0]

        async def caller():
            buffer = MarshalBuffer()
            for position in positions:
                kind = kinds[sequence[position]]
                if tracer is not None:
                    tracer.op_id = position
                    span = tracer.begin(OP)
                started = perf_counter_ns()
                try:
                    result, wire = await calls[sequence[position]](
                        kind.arg, buffer, position + 1)
                    latest[0] = ended = perf_counter_ns()
                except Exception:
                    measured.failed += 1
                    continue
                finally:
                    if tracer is not None:
                        tracer.end(span)
                measured.wall_ns.append(ended - started)
                measured.done.append(position)
                full = position % full_every == 0
                if not kind.verify(result, wire if full else None):
                    measured.failed += 1
                if tracer is not None:
                    self.wire = wire
                    self.wire_bytes[0] += len(wire.request)
                    self.wire_bytes[1] += len(wire.reply)
                    self.replica(tracer, kind)

        await asyncio.gather(*[asyncio.ensure_future(caller())
                               for _ in range(self.in_flight)])
        return deadline is None or latest[0] <= deadline


# ----------------------------------------------------------------------
# IIOP caller -> gateway -> ONC servant
# ----------------------------------------------------------------------


class GatewayBridge(Workload):
    """One IIOP caller -> ``AioGatewayServer(build_plan(iiop, onc))`` ->
    blocking ONC servant."""

    name = "gateway_bridge"
    mix = (("ping", 0), ("put_ints", 64 * KIB), ("get_ints", 64 * KIB),
           ("put_dirents", 16 * KIB))
    ops_per_second = 750
    warmup_ops = 100
    traced_ops_per_second = 120
    twin_reference_us = 450.0

    def prepare(self, seed):
        text = contract.schema_text("ledger.idl")
        near = (self._compile("iiop", text, name="ledger.idl",
                              backend="iiop"), "cdr")
        far = (self._compile("onc", text, name="ledger.idl",
                             backend="oncrpc-xdr"), "xdr")
        self.plan = build_plan(near[0], far[0])
        self.servant = contract.Servant()
        for method, size in self.mix:
            self.kinds.append(contract.make_kind(
                "iiop", method, size, seed, near, far, self.servant))

    def connect(self, tracer=None):
        near, far = self.results["iiop"], self.results["onc"]
        self.upstream = StubServer(
            far.module, self.servant).tcp_server().start()
        self.gateway = AioGatewayServer(
            self.plan, *self.upstream.address[:2], pool_size=1).start()
        self.transport = TcpClientTransport(*self.gateway.address[:2])
        self.direct = None
        call = None
        if tracer is not None:
            tracer.install_codecs(near)
            call = tracer.wrap("gateway.call", self.transport.call)
            self.direct = TcpClientTransport(*self.upstream.address[:2])
        client = getattr(near.module, contract.PREFIX + "LedgerClient")(
            Recording(self.transport, self.wire, call))
        self.calls = [_proxy(tracer, getattr(client, kind.method))
                      for kind in self.kinds]
        self.fused = [0, 0]

    def disconnect(self):
        self.transport.close()
        if self.direct is not None:
            self.direct.close()
        self.gateway.stop()
        self.upstream.stop()

    def extra_metrics(self):
        return {"gateway.fused_share": self.fused[0] / max(1, self.fused[1])}

    def replica(self, tracer, kind):
        """The gateway's three stages and the direct upstream call, on
        the bytes the bridged call just carried."""
        request = self.wire.request
        envelope = tracer.timed("gateway.envelope", parse_request,
                                request, self.plan.ingress_spec)
        op = self.plan.ops[envelope.op_key]
        egress = MarshalBuffer()
        fused = tracer.timed("gateway.transcode_request",
                             transcode_request, op, request, envelope,
                             egress)
        self.fused[0] += bool(fused)
        self.fused[1] += 1
        reply = tracer.timed("gateway.upstream_call", self.direct.call,
                             egress.view())
        if kind.method.startswith("put_"):
            self.servant.received.popleft()
        tracer.timed("gateway.translate_reply", translate_reply, op,
                     reply, envelope.ctx, MarshalBuffer())


# ----------------------------------------------------------------------
# Cold compiles
# ----------------------------------------------------------------------


class Cell:
    """One (schema, back end, renderer) cell of ``compile_cold``."""

    #: schema file -> (text to suffix, record prefix, reference op).
    SCHEMAS = {
        "ledger.idl": ("interface Ledger", "Ledger_", "put_rects"),
        "ledger.x": ("program LEDGER", "", "put_rects"),
        "ledger.py": ("class Ledger", "", "put_rects"),
        "catalog.idl": ("interface Catalog", "Catalog_", "touch"),
    }
    #: back end -> wire family of the reference encoders.
    BACKENDS = {"iiop": "cdr", "oncrpc-xdr": "xdr", "mach3": "native",
                "fluke": "native"}

    shape = None

    def __init__(self, schema, backend, renderer, seed):
        self.schema = schema
        self.backend = backend
        self.renderer = renderer
        self.token, self.prefix, self.method = self.SCHEMAS[schema]
        self.text = contract.schema_text(schema)
        self.name = "%s/%s/%s" % (schema, backend, renderer)
        self.arg = self
        rng = values.seeded(seed, self.name)
        family = self.BACKENDS[backend]
        if self.method == "touch":
            self.plain = ("key-%08x" % rng.randrange(2 ** 32),
                          rng.randrange(1, 2 ** 31))
            self.body = reference.BODIES[family]["string_long"](
                *self.plain)
        else:
            self.plain = values.plain("rects", 8 * 16, rng)
            self.body = reference.BODIES[family]["rects"](self.plain)

    def present(self, module):
        if self.method == "touch":
            return self.plain
        return (values.present("rects", self.plain, module,
                               self.prefix),)

    def verify(self, outcome, wire=None):
        """The first encode ends with the reference body, and the
        module's own ``dispatch`` decodes it back to the value sent."""
        result, request = outcome
        if not request.endswith(self.body):
            return False
        module = result.module
        capture = _Capture()
        module.dispatch(request, capture, MarshalBuffer())
        return capture.got == self.present(module)


class _Capture:
    got = None

    def put_rects(self, a):
        self.got = (a,)

    def touch(self, key, n):
        self.got = (key, n)
        return n


class CompileCold(Workload):
    """Round-robin over every (schema x back end x renderer) cell:
    source -> ``api.compile`` -> loaded module -> first encode."""

    name = "compile_cold"
    ops_per_second = 48
    warmup_ops = 32
    traced_ops_per_second = 12
    twin_reference_us = 2700.0

    def prepare(self, seed):
        self.kinds = [
            Cell(schema, backend, renderer, seed)
            for schema in Cell.SCHEMAS
            for backend in Cell.BACKENDS
            for renderer in ("py", "closures")
        ]
        letters = values.seeded(seed, "suffix")
        self.salt = "".join(letters.choice("abcdefghijklmnopqrstuvwxyz")
                            for _ in range(4))
        self.serial = itertools.count()
        self.last = None

    def connect(self, tracer=None):
        self.tracer = tracer
        self.calls = [self._compile_cell] * len(self.kinds)

    def disconnect(self):
        pass

    def make_twin(self):
        return CompileTwin()

    def _source(self, cell):
        """The cell's schema with a never-repeating identifier suffix,
        so no two compiles see identical text (a content cache cannot
        turn this workload into a lookup)."""
        suffix = "_%s%06d" % (self.salt, next(self.serial))
        return cell.text.replace(cell.token, cell.token + suffix, 1)

    def _compile_cell(self, cell):
        tracer = self.tracer
        started = perf_counter_ns()
        result = api.compile(self._source(cell), name=cell.schema,
                             backend=cell.backend,
                             renderer=cell.renderer)
        if tracer is None:
            module = result.module
        else:
            phase_spans(tracer, result, started)
            module = tracer.timed("core.load", lambda: result.module)
        encode = result.codec_table[cell.method]["_m_req_" + cell.method]
        if tracer is not None:
            encode = tracer.wrap("stubs.req_encode", encode)
        buffer = MarshalBuffer()
        encode(buffer, 1, *cell.present(module))
        request = buffer.getvalue()
        self.wire.request, self.wire.reply = request, b""
        self.last = result
        return result, request

    def replica(self, tracer, kind):
        compile_replica(tracer, self.last)

    def compile_counts(self):
        """One round over the cells, exact (compiler determinism)."""
        results = []
        for cell in self.kinds:
            results.append(api.compile(
                cell.text, name=cell.schema, backend=cell.backend,
                renderer=cell.renderer))
        return _compile_counts(results)


WORKLOADS = {
    workload.name: workload
    for workload in (RpcSmall, RpcBulkPut, RpcBulkGet, RpcPipelined,
                     GatewayBridge, CompileCold)
}
