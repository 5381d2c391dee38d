"""Static bridge verification: prove a protocol pair lossless.

Before a gateway serves a bridge, every operation is paired by name and
walked in both directions by :func:`repro.compat.pairwalk.pair_bridge`
in *transcoded* mode: requests as ingress-schema values re-encoded onto
the egress protocol, replies as egress-schema values re-encoded onto
the ingress protocol.  The same pairing gives
:func:`~repro.gateway.build_plan` its copy segments, so
:func:`check_bridge` reads a served plan's pairing rather than walk
again.  The verdict lattice is the compat subsystem's:

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

from repro.compat.report import diff_exit_code, diff_report_json, \
    diff_report_text
from repro.compat.verdict import (
    ChannelDiff,
    InterfaceDiff,
    OperationDiff,
    worst,
)

__all__ = ["bridge_exit_code", "bridge_report_json",
           "bridge_report_text", "check_bridge"]


def check_bridge(pairing):
    """Diff a protocol bridge; returns an InterfaceDiff for the pair.

    *pairing* is :func:`~repro.compat.pairwalk.pair_bridge`'s walk of
    the two compiled results (see :func:`repro.api.compile`) each side
    of the gateway was built against — usually the same schema, two
    backends; during a migration, two schema versions.  A
    :class:`~repro.gateway.BridgePlan` holds the one it serves as
    ``plan.pairing``.
    """
    ingress, egress = pairing.ingress.name, pairing.egress.name
    operations = []
    for op in pairing.ops.values():
        channels = tuple(
            ChannelDiff(channel=label, verdict=pair.verdict,
                        findings=pair.findings)
            for label, pair in (
                ("request:%s->%s" % (ingress, egress), op.request),
                ("reply:%s->%s" % (egress, ingress), op.reply))
            if pair is not None)
        operations.append(OperationDiff(
            operation=op.name,
            verdict=worst([c.verdict for c in channels]
                          + [f.verdict for f in op.findings]),
            channels=channels,
            findings=op.findings,
        ))
    operations.sort(key=lambda operation: operation.operation)
    return InterfaceDiff(
        protocol="%s->%s" % (ingress, egress),
        old_interface=pairing.ingress_presc.interface_name,
        new_interface=pairing.egress_presc.interface_name,
        verdict=worst(op.verdict for op in operations),
        operations=tuple(operations),
    )


def bridge_report_text(diff, ingress_name, egress_name, predictions=None):
    """Human-readable bridge report (compat renderer, pair label), and
    the per-channel cost of :func:`~repro.gateway.predict_fused`'s
    *predictions* when given."""
    text = "flick bridge" + diff_report_text(
        {diff.protocol: diff}, ingress_name, egress_name)[len("flick diff"):]
    if predictions is None:
        return text
    lines = [text, "predicted gateway cost (fused copy plans):"]
    channels = [prediction for directions in predictions.values()
                for prediction in directions.values()]
    for op in sorted(predictions):
        directions = sorted(predictions[op].items(), reverse=True)
        parts = ["%s %s (%.0f%% of bytes coverable)"
                 % (direction, "fused" if prediction.fused else "re-encode",
                    100.0 * prediction.byte_fraction)
                 for direction, prediction in directions]
        lines.append("  %-20s %s" % (op, "; ".join(parts) or "oneway"))
        lines.extend("    %s falls back at %s"
                     % (direction, prediction.blocker)
                     for direction, prediction in directions
                     if prediction.blocker)
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
