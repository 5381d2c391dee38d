"""The gateway runtime: an asyncio proxy serving a bridge plan.

:class:`AioGatewayServer` subclasses the hardened asyncio server and
defines exactly one seam — :attr:`~repro.runtime.aio.server
.AioTcpServer._invoke` — so the full ingress machinery (record framing,
backpressure, overload shedding, fault injection, and the request
core's error replies via the ingress module's ``encode_error_reply``,
counters and span tree) is inherited unchanged.  Instead of dispatching to a servant, the
gateway transcodes each request onto the egress protocol, forwards it
over a multiplexed :class:`~repro.runtime.aio.client.ConnectionPool`
(circuit breaker, deadlines, optional upstream fault injection), and
translates the reply back.

The pure transcode steps, :func:`transcode_request` and
:func:`translate_reply`, are module-level functions so benchmarks and
tests can drive them without sockets.
"""

from __future__ import annotations

import struct
import time

from repro.obs import profile as _profile
from repro.errors import (
    CircuitOpenError,
    DeadlineError,
    DispatchError,
    FlickUserException,
    OverloadError,
    RemoteCallError,
    TransportError,
    UnmarshalError,
    WireFormatError,
)
from repro.runtime.aio.client import ConnectionPool
from repro.runtime.aio.server import AioTcpServer, BufferPool
from repro.runtime.server import operation_names

from repro.gateway import errmap
from repro.gateway.envelope import parse_request
from repro.gateway.plan import run_segments

__all__ = ["AioGatewayServer", "transcode_request", "translate_reply"]

_unpack_from = struct.unpack_from
_pack_into = struct.pack_into

_DECODE_ERRORS = (struct.error, IndexError, ValueError, TypeError,
                  OverflowError, UnicodeError)


def _write_header(buffer, header, ctx):
    template = header.template
    offset = buffer.reserve(len(template))
    buffer.data[offset:offset + len(template)] = template
    for patch_offset, patch_format, _expr in header.patches:
        _pack_into(patch_format, buffer.data, offset + patch_offset, ctx)
    return offset


def _patch_size(buffer, header, offset):
    if header.size_patch is not None:
        size_offset, size_format, delta = header.size_patch
        _pack_into(size_format, buffer.data, offset + size_offset,
                   buffer.length - delta)


def transcode_request(op, data, env, buffer):
    """Write the egress request for ingress request *data* to *buffer*.

    Returns True when the fused copy plan ran, False for the
    decode/re-encode fallback.  Raises ``WireFormatError`` (hostile or
    unrepresentable body) like a same-protocol dispatch would.
    """
    if op.request_segments is not None and env.body_offset % 4 == 0:
        offset = _write_header(buffer, op.egress_request, env.ctx)
        run_segments(op.request_segments, data, env.body_offset, buffer)
        _patch_size(buffer, op.egress_request, offset)
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
        op.m_req(buffer, env.ctx, *args)
    except _DECODE_ERRORS as error:
        raise WireFormatError(
            "cannot re-encode %s request on the egress protocol: %s"
            % (op.name, error)
        ) from None
    return False


def translate_reply(op, reply, ctx, buffer):
    """Write the ingress reply for egress reply *reply* to *buffer*.

    Returns True when the fused plan ran.  Protocol-level error replies
    never reach here — the connection pool classifies and raises them —
    so *reply* is a success or user-exception reply.
    """
    body = op.check_reply(reply, ctx)
    if op.reply_segments and body % 4 == 0 and body + 4 <= len(reply):
        disc = _unpack_from(">I", reply, body)[0]
        segments = op.reply_segments.get(disc)
        if segments is not None:
            offset = _write_header(buffer, op.ingress_reply, ctx)
            word = buffer.reserve(4)
            _pack_into(">I", buffer.data, word, disc)
            end = run_segments(segments, reply, body + 4, buffer)
            if end != len(reply):
                raise WireFormatError(
                    "%s reply carries %d trailing bytes"
                    % (op.name, len(reply) - end),
                    offset=end, field="reply", limit=end,
                    actual=len(reply))
            _patch_size(buffer, op.ingress_reply, offset)
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
        options: upstream :class:`~repro.runtime.aio.options.CallOptions`.
        breaker: optional circuit breaker for the upstream leg.
        upstream_fault_plan: optional :class:`repro.faults.FaultPlan`
            injected on the egress leg (the ingress leg reuses the base
            server's ``fault_plan``).
        client_stats: optional ClientStats for the upstream pool.
        Remaining keyword arguments go to :class:`AioTcpServer`
        (``host``, ``port``, ``stats``, ``max_pending``,
        ``fault_plan``, ...).
    """

    def __init__(self, plan, upstream_host, upstream_port, *,
                 pool_size=4, options=None, breaker=None,
                 upstream_fault_plan=None, client_stats=None, **kwargs):
        kwargs.setdefault("dispatch_mode", "inline")
        kwargs.setdefault("error_encoder",
                          plan.ingress_module.encode_error_reply)
        kwargs.setdefault("op_names",
                          operation_names(plan.ingress_module))
        super().__init__(None, None, **kwargs)
        self.plan = plan
        self._pool = ConnectionPool(
            upstream_host, upstream_port, pool_size=pool_size,
            options=options, breaker=breaker, stats=client_stats,
        )
        self._upstream = self._pool
        if upstream_fault_plan is not None:
            from repro.faults import FaultyAioTransport

            self._upstream = FaultyAioTransport(
                self._pool, upstream_fault_plan)
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

    def _count(self, op_name, direction, fused):
        path = "fused" if fused else "re-encode"
        if self._metric_transcode is not None:
            self._metric_transcode.labels(
                self.bridge_label, op_name, direction, path).inc()

    def _count_error(self, code):
        if self._metric_errors is not None:
            self._metric_errors.labels(self.bridge_label, str(code)).inc()

    def _encode_mapped(self, buffer, ctx, mapped):
        buffer.reset()
        errmap.encode_error(
            buffer, ctx, mapped,
            versions=self.plan.ingress_versions,
            little_endian=self.plan.ingress_spec.little_endian,
        )

    async def _invoke(self, record, buffer, span):
        plan = self.plan
        envelope = parse_request(record, plan.ingress_spec)
        op = plan.ops.get(envelope.op_key)
        if op is None:
            raise DispatchError(
                "operation is not bridged",
                code="bad_operation" if plan.ingress_protocol == "giop"
                else "proc_unavail")
        egress = self._egress_buffers.take()
        try:
            start = time.perf_counter() if _profile.enabled() else None
            fused = transcode_request(op, record, envelope, egress)
            if start is not None:
                _profile.record_transcode(
                    self.bridge_label, op.name, "request", fused,
                    nbytes=egress.length,
                    seconds=time.perf_counter() - start)
            payload = bytes(egress.view())
        finally:
            self._egress_buffers.give(egress)
        self._count(op.name, "request", fused)
        if span is not None:
            span.set(bridge="%s->%s" % (plan.ingress_protocol,
                                        plan.egress_protocol),
                     fused=fused)
        if op.oneway:
            await self._upstream.asend(payload)
            return False
        try:
            reply = await self._upstream.acall(payload)
        except RemoteCallError as error:
            # The upstream answered with a protocol error: relay it
            # through the cross-protocol table.
            self._count_error(error.code)
            if not envelope.expects_reply:
                return False
            self._encode_mapped(
                buffer, envelope.ctx,
                errmap.translate_remote(error, plan.ingress_protocol))
            return True
        except (CircuitOpenError, OverloadError, DeadlineError,
                TransportError) as error:
            # The upstream leg itself failed; no reply to relay.
            self._count_error(type(error).__name__)
            if span is not None:
                span.set(error=type(error).__name__)
            if not envelope.expects_reply:
                return False
            self._encode_mapped(
                buffer, envelope.ctx,
                errmap.translate_local(error, plan.ingress_protocol))
            return True
        start = time.perf_counter() if _profile.enabled() else None
        reply_fused = translate_reply(op, reply, envelope.ctx, buffer)
        if start is not None:
            _profile.record_transcode(
                self.bridge_label, op.name, "reply", reply_fused,
                nbytes=buffer.length,
                seconds=time.perf_counter() - start)
        self._count(op.name, "reply", reply_fused)
        if span is not None:
            span.set(reply_fused=reply_fused)
        return True

    async def aclose(self, drain=True):
        await super().aclose(drain=drain)
        try:
            await self._upstream.aclose()
        except Exception:
            pass
