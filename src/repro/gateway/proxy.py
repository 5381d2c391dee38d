"""The gateway runtime: an asyncio proxy serving a bridge plan.

:class:`AioGatewayServer` is an ``inline`` :class:`~repro.runtime.aio
.server.AioTcpServer`, so the full ingress machinery (record framing,
backpressure, overload shedding, fault injection, and the request
core's error replies via the ingress module's ``encode_error_reply``,
counters and span tree) is inherited unchanged.  Instead of dispatching
to a servant it answers each record in two halves, neither of them a
coroutine:

* the **request half** runs in the ingress read callback: parse the
  envelope, pick the operation's plan, write the egress request with
  the upstream connection's wire id (the fused copy plan or the
  decode/re-encode fallback) and hand it to the upstream leg, a
  multiplexed :class:`~repro.runtime.aio.client.ConnectionPool`
  (optionally behind a :class:`~repro.faults.FaultyAioTransport`).
  Only a record that finds no connection ready waits, for a dial;
* the **reply half** runs in the upstream connection's read callback:
  translate the reply onto the ingress protocol, or map the upstream
  error (:mod:`repro.gateway.errmap`), and finish the record.

Whatever either half raises is settled by the request core's rule for a
dispatch error.  The pure transcode steps, :func:`transcode_request`
and :func:`translate_reply`, are module-level functions so benchmarks
and tests can drive them without sockets.
"""

from __future__ import annotations

import struct
import time

from repro.envelopes import write_error
from repro.obs import profile as _profile
from repro.obs import propagation, trace
from repro.obs.trace import NOOP
from repro.errors import (
    DispatchError,
    FlickUserException,
    RemoteCallError,
    TransportError,
    UnmarshalError,
    WireFormatError,
)
from repro.runtime.aio.client import ConnectionPool
from repro.runtime.aio.server import AioTcpServer, BufferPool
from repro.runtime.request import SETTLED
from repro.runtime.server import operation_names

from repro.gateway import errmap
from repro.gateway.envelope import parse_request

__all__ = ["AioGatewayServer", "transcode_request", "translate_reply"]

_unpack_from = struct.unpack_from

_DECODE_ERRORS = (struct.error, IndexError, ValueError, TypeError,
                  OverflowError, UnicodeError)


def transcode_request(op, data, env, buffer, ctx=None):
    """Write the egress request for ingress request *data* to *buffer*,
    with id *ctx* (the ingress request's own by default).

    Returns True when the fused copy plan ran, False for the
    decode/re-encode fallback.  Raises ``WireFormatError`` (hostile or
    unrepresentable body) like a same-protocol dispatch would.
    """
    ctx = env.ctx if ctx is None else ctx
    copy = op.copies.get("request")
    if copy is not None and env.body_offset % 4 == 0:
        offset = op.egress_request.write(buffer, ctx)
        copy(data, env.body_offset, buffer)
        op.egress_request.finish(buffer, offset)
        return True
    if op.in_arity:
        try:
            args, _end = op.u_req(data, env.body_offset)
        except _DECODE_ERRORS as error:
            raise WireFormatError(
                "malformed %s request: %s" % (op.name, error)
            ) from None
    else:
        args = ()
    try:
        # The generated encoder writes the whole egress message —
        # header, ctx patch, body, and size patch.
        op.m_req(buffer, ctx, *args)
    except _DECODE_ERRORS as error:
        raise WireFormatError(
            "cannot re-encode %s request on the egress protocol: %s"
            % (op.name, error)
        ) from None
    return False


def translate_reply(op, reply, ctx, buffer, wire_id=None):
    """Write the ingress reply, with id *ctx*, for egress reply *reply*
    (which carries *wire_id*, *ctx* by default) to *buffer*.

    Returns True when the fused plan ran.  Protocol-level error replies
    never reach here — the upstream connection classifies them — so
    *reply* is a success or user-exception reply.
    """
    body = op.check_reply(reply, ctx if wire_id is None else wire_id)
    if op.reply_segments and body % 4 == 0 and body + 4 <= len(reply):
        copy = op.copies.get(_unpack_from(">I", reply, body)[0])
        if copy is not None:
            offset = op.ingress_reply.write(buffer, ctx)
            end = copy(reply, body, buffer)
            if end != len(reply):
                raise WireFormatError(
                    "%s reply carries %d trailing bytes"
                    % (op.name, len(reply) - end),
                    offset=end, field="reply", limit=end,
                    actual=len(reply))
            op.ingress_reply.finish(buffer, offset)
            return True
    try:
        result = op.u_rep(reply, body)
    except FlickUserException as exc:
        encoder = op.exceptions.get(type(exc).__name__)
        if encoder is None:
            raise UnmarshalError(
                "user exception %s has no ingress-protocol mapping"
                % type(exc).__name__)
        encoder(buffer, ctx, exc)
        return False
    except _DECODE_ERRORS as error:
        raise WireFormatError(
            "malformed %s reply: %s" % (op.name, error)) from None
    if op.ok_arity == 0:
        op.m_rep_ok(buffer, ctx)
    elif op.ok_arity == 1:
        op.m_rep_ok(buffer, ctx, result)
    else:
        op.m_rep_ok(buffer, ctx, *result)
    return False


class AioGatewayServer(AioTcpServer):
    """Serve a :class:`~repro.gateway.plan.BridgePlan` over TCP.

    Args:
        plan: the bridge plan (see :func:`repro.gateway.plan.build_plan`).
        upstream_host, upstream_port: the egress-protocol server.
        pool_size: upstream connections (multiplexed, least-loaded).
        upstream_fault_plan: optional :class:`repro.faults.FaultPlan`
            injected on the egress leg (the ingress leg reuses the base
            server's ``fault_plan``).
        Remaining keyword arguments go to :class:`AioTcpServer`
        (``host``, ``port``, ``stats``, ``max_pending``,
        ``fault_plan``, ...); the dispatch mode is always ``inline``.
    """

    def __init__(self, plan, upstream_host, upstream_port, *,
                 pool_size=4, upstream_fault_plan=None, **kwargs):
        kwargs["dispatch_mode"] = "inline"
        kwargs.setdefault("error_encoder",
                          plan.ingress_module.encode_error_reply)
        kwargs.setdefault("op_names",
                          operation_names(plan.ingress_module))
        super().__init__(None, None, **kwargs)
        self.plan = plan
        self._upstream = ConnectionPool(upstream_host, upstream_port,
                                        pool_size=pool_size)
        if upstream_fault_plan is not None:
            from repro.faults import FaultyAioTransport

            self._upstream = FaultyAioTransport(
                self._upstream, upstream_fault_plan)
        self._egress_buffers = BufferPool()
        registry = self.stats.registry if self.stats is not None else None
        self.bridge_label = "%s->%s" % (plan.ingress_protocol,
                                        plan.egress_protocol)
        self._metric_transcode = self._metric_errors = None
        if registry is not None:
            self._metric_transcode = registry.counter(
                "flick_profile_transcode_total",
                "Gateway messages by transcode path",
                ("bridge", "op", "direction", "path"),
            )
            self._metric_errors = registry.counter(
                "flick_gateway_upstream_errors_total",
                "Upstream errors relayed or mapped onto the ingress leg",
                ("bridge", "code"),
            )

    def _count(self, op_name, direction, fused, started, nbytes):
        """One transcode: the path counter, and the profile's sample
        when *started* (profiling on)."""
        if started is not None:
            _profile.record_transcode(
                self.bridge_label, op_name, direction, fused, nbytes=nbytes,
                seconds=time.perf_counter() - started)
        if self._metric_transcode is not None:
            self._metric_transcode.labels(
                self.bridge_label, op_name, direction,
                "fused" if fused else "re-encode").inc()

    def _inline(self, connection, record, buffer, ticket):
        """Answer one started record in two halves: ``forward`` (the
        request half) runs in this ingress read callback unless no
        upstream connection is ready, ``reply`` (the reply half) in the
        upstream connection's read callback.  Whatever either raises is
        settled by the request core's rule for a dispatch error."""
        plan, core, upstream = self.plan, self._core, self._upstream
        span = None if ticket is None else ticket.span
        # The upstream round trip, under the request's root span:
        # ``dispatch`` > ``transport.call`` (two-way) > ``send``,
        # ``await.reply``.  Each parent is explicit, and the egress
        # request carries the innermost, as no contextvar reaches a read
        # callback; ``finish`` ends whatever is still open.
        opened = () if span is None \
            else [trace.span("dispatch", parent=span)]
        wire_id = None

        def finish(served):
            while opened:
                opened.pop().end()
            self._finish(connection, buffer, served, ticket)

        def forward(leg, error):
            nonlocal wire_id
            if error is not None:
                return failed(error)
            egress = self._egress_buffers.take()
            try:
                try:
                    wire_id = envelope.ctx if op.oneway else leg.next_id()
                    started = time.perf_counter() if _profile.enabled() \
                        else None
                    fused = transcode_request(op, record, envelope, egress,
                                              wire_id)
                    self._count(op.name, "request", fused, started,
                                egress.length)
                    payload = egress.view()
                    if opened:
                        span.set(bridge=self.bridge_label, fused=fused)
                        payload = propagation.inject(payload, opened[-1])
                except SETTLED as error:
                    return finish(core.settle(record, buffer, error, ticket))
                with NOOP if not opened else trace.span(
                        "send", parent=opened[-1], bytes=len(payload)):
                    if not op.oneway:
                        if opened:
                            opened.append(trace.span("await.reply",
                                                     parent=opened[-1]))
                        return upstream.submit(leg, wire_id, payload, reply)
                    try:
                        upstream.send(leg, payload)
                    except TransportError as error:  # a fault plan's reset
                        return failed(error)
            finally:
                self._egress_buffers.give(egress)
            finish(core.answered(ticket, False))

        def reply(data, _offset, error, _stamp):
            if error is not None:
                return failed(error)
            try:
                started = time.perf_counter() if _profile.enabled() else None
                fused = translate_reply(op, data, envelope.ctx, buffer,
                                        wire_id)
                self._count(op.name, "reply", fused, started, buffer.length)
                if span is not None:
                    span.set(reply_fused=fused)
                served = core.answered(ticket)
            except SETTLED as error:
                served = core.settle(record, buffer, error, ticket)
            finish(served)

        def failed(error):
            """The upstream leg failed or answered with a protocol
            error: relay it through the cross-protocol table."""
            remote = isinstance(error, RemoteCallError)
            code = error.code if remote else type(error).__name__
            if self._metric_errors is not None:
                self._metric_errors.labels(self.bridge_label, code).inc()
            if span is not None and not remote:
                span.set(error=code)
            has_reply = envelope.expects_reply and not op.oneway
            if has_reply:
                translate = errmap.translate_remote if remote \
                    else errmap.translate_local
                buffer.reset()
                write_error(buffer, plan.ingress_protocol, envelope.ctx,
                            *translate(error, plan.ingress_protocol),
                            versions=plan.ingress_versions,
                            e="<" if plan.ingress_spec.little_endian
                            else ">")
            finish(core.answered(ticket, has_reply))

        try:
            envelope = parse_request(record, plan.ingress_spec)
            op = plan.ops.get(envelope.op_key)
            if op is None:
                raise DispatchError(
                    "operation is not bridged",
                    code="bad_operation" if plan.ingress_protocol == "giop"
                    else "proc_unavail")
        except SETTLED as error:
            return finish(core.settle(record, buffer, error, ticket))
        if opened and not op.oneway:
            opened.append(trace.span("transport.call", parent=opened[-1]))
        upstream.acquire(forward, opened[-1] if opened else None)

    async def aclose(self, drain=True):
        await super().aclose(drain=drain)
        try:
            # A record still waiting upstream is finished here, once,
            # with the error that closing its connection hands it.
            await self._upstream.aclose()
        except Exception:
            pass
