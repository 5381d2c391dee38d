"""Static bridge verification: prove a protocol pair lossless.

Before a gateway serves a bridge, every operation is walked in both
directions with :func:`repro.compat.mintdiff.diff_message` in
*transcoded* mode: requests as ingress-schema values re-encoded onto
the egress protocol, replies as egress-schema values re-encoded onto
the ingress protocol.  The verdict lattice is the compat subsystem's:

* ``WIRE_IDENTICAL`` — every value a client can send crosses the
  bridge byte-losslessly;
* ``DECODE_COMPATIBLE`` — values cross, but capacity widens somewhere
  (a bool presented as int, an enum losing named members) — safe to
  serve, worth knowing;
* ``BREAKING`` — some encodable value cannot be re-encoded on the
  other side (narrowed integer range, shrunk bound, missing
  operation).  ``flick bridge`` exits 2 and ``flick gateway --check``
  refuses to serve.

The result is an ordinary :class:`~repro.compat.verdict.InterfaceDiff`
whose protocol is the pair label (``iiop->oncrpc-xdr``), so the compat
report renderers and exit-code policy apply unchanged.
"""

from __future__ import annotations

from typing import List

from repro.backend import make_backend
from repro.compat.ifacediff import unknown_op_text
from repro.compat.mintdiff import diff_message
from repro.compat.report import diff_exit_code, diff_report_json, \
    diff_report_text
from repro.compat.verdict import (
    ChannelDiff,
    Finding,
    InterfaceDiff,
    OperationDiff,
    Verdict,
    worst,
)

__all__ = ["bridge_exit_code", "bridge_report_json",
           "bridge_report_text", "check_bridge"]


def check_bridge(ingress_result, egress_result):
    """Diff a protocol bridge; returns an InterfaceDiff for the pair.

    *ingress_result* / *egress_result* are compiled results (see
    :func:`repro.api.compile`) for the schema each side of the gateway
    was built against — usually the same schema, two backends; during a
    migration, two schema versions.
    """
    ingress_backend = make_backend(ingress_result.stubs.backend_name)
    egress_backend = make_backend(egress_result.stubs.backend_name)
    ingress_presc = ingress_result.presc
    egress_presc = egress_result.presc
    label = "%s->%s" % (ingress_backend.name, egress_backend.name)
    egress_stubs = {s.operation_name: s for s in egress_presc.stubs}

    operations: List[OperationDiff] = []
    for stub in ingress_presc.stubs:
        name = stub.operation_name
        other = egress_stubs.get(name)
        if other is None:
            operations.append(OperationDiff(
                operation=name, verdict=Verdict.BREAKING,
                findings=(Finding(
                    Verdict.BREAKING, name,
                    "operation absent upstream: ingress callers are "
                    "answered %s" % unknown_op_text(ingress_backend),
                ),),
            ))
            continue
        findings = []
        channels = []
        if stub.oneway != other.oneway:
            findings.append(Finding(
                Verdict.BREAKING, name,
                "oneway on %s side only: the gateway cannot invent or "
                "swallow a reply"
                % ("the ingress" if stub.oneway else "the egress"),
            ))
        verdict, request_findings = diff_message(
            stub.request_pres, other.request_pres,
            ingress_presc, egress_presc,
            ingress_backend.wire_format,
            receiver_format=egress_backend.wire_format,
            path="request",
            offset=len(ingress_backend.request_header(
                ingress_presc, stub).template),
        )
        channels.append(ChannelDiff(
            channel="request:%s" % label, verdict=verdict,
            findings=tuple(request_findings)))
        if not stub.oneway and not other.oneway:
            verdict, reply_findings = diff_message(
                other.reply_pres, stub.reply_pres,
                egress_presc, ingress_presc,
                egress_backend.wire_format,
                receiver_format=ingress_backend.wire_format,
                path="reply",
                offset=len(egress_backend.reply_header(
                    egress_presc, other).template),
            )
            channels.append(ChannelDiff(
                channel="reply:%s->%s" % (egress_backend.name,
                                          ingress_backend.name),
                verdict=verdict, findings=tuple(reply_findings)))
        operations.append(OperationDiff(
            operation=name,
            verdict=worst([c.verdict for c in channels]
                          + [f.verdict for f in findings]),
            channels=tuple(channels),
            findings=tuple(findings),
        ))
    for name in egress_stubs:
        if not any(op.operation == name for op in operations):
            operations.append(OperationDiff(
                operation=name, verdict=Verdict.DECODE_COMPATIBLE,
                findings=(Finding(
                    Verdict.DECODE_COMPATIBLE, name,
                    "operation exists only upstream: unreachable "
                    "through this bridge",
                ),),
            ))
    operations.sort(key=lambda operation: operation.operation)
    return InterfaceDiff(
        protocol=label,
        old_interface=ingress_presc.interface_name,
        new_interface=egress_presc.interface_name,
        verdict=worst(op.verdict for op in operations),
        operations=tuple(operations),
    )


def bridge_report_text(diff, ingress_name, egress_name, predictions=None):
    """Human-readable bridge report (compat renderer, pair label), and
    the per-channel cost of :func:`~repro.gateway.predict_fused`'s
    *predictions* when given."""
    text = diff_report_text({diff.protocol: diff}, ingress_name,
                            egress_name)
    if predictions is None:
        return text
    lines = [text, "predicted gateway cost (fused copy plans):"]
    channels = [prediction for directions in predictions.values()
                for prediction in directions.values()]
    for op in sorted(predictions):
        parts = ["%s %s (%.0f%% of bytes coverable)"
                 % (direction, "fused" if prediction.fused else "re-encode",
                    100.0 * prediction.byte_fraction)
                 for direction, prediction in sorted(
                     predictions[op].items(), reverse=True)]
        lines.append("  %-20s %s" % (op, "; ".join(parts) or "oneway"))
    if channels:
        lines.append("  overall: %d/%d channels take the fused path"
                     % (sum(p.fused for p in channels), len(channels)))
    return "\n".join(lines)


def bridge_report_json(diff, ingress_name, egress_name, predictions=None):
    document = diff_report_json({diff.protocol: diff}, ingress_name,
                                egress_name)
    document["tool"] = "flick-bridge"
    if predictions is not None:
        document["fused"] = {
            op: {direction: prediction.to_json()
                 for direction, prediction in directions.items()}
            for op, directions in predictions.items()}
    return document


def bridge_exit_code(diff):
    """0 lossless / 1 compatible-with-findings / 2 breaking."""
    return diff_exit_code({diff.protocol: diff})
