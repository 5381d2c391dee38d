"""Static fused-fraction prediction for a bridge.

``flick bridge`` verifies losslessness *before* deploying a gateway;
this module predicts gateway *cost* at the same point: per operation
and direction, will the message take the fused copy path, and how much
of its bytes could copy plans cover?

Two numbers per channel, deliberately distinct:

* ``fused`` — whether the :class:`~repro.gateway.plan.BridgePlan`
  that ``flick gateway`` serves holds copy segments for the whole
  channel.  This is exactly the path the proxy will take, so it matches
  the dynamic ``flick_profile_transcode_total`` ratio the payload-shape
  profiler records — the cross-check the tests run.
* ``byte_fraction`` — bytes coverable by per-item copy segments over
  total channel bytes.  Fusion today is all-or-nothing per channel, so
  this is the headroom number: an op at ``fused=False,
  byte_fraction=0.9`` is the case the roadmap's mixed-plan fusion item
  would rescue (copy the long array, re-encode the one string next to
  it).

A prediction exists for exactly the plan's operations.  Only the byte
accounting is computed here, item by item over the naive channels the
plan paired (the modules' ``_flick_shapes``).  Byte estimates come from
:func:`repro.mint.analysis.analyze_storage` on each item's MINT under
the ingress wire format — the bounded maximum when there is one, the
fixed minimum otherwise (unbounded sequences contribute their headers;
their payload scales both numerator and denominator identically when
fusible, so the fraction stays honest).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mint.analysis import analyze_storage

from repro.gateway.plan import _fuse_node

__all__ = ["ChannelPrediction", "predict_fused"]


@dataclass
class ChannelPrediction:
    """Static fusion prediction for one (operation, direction)."""

    op: str
    direction: str
    #: Will the proxy take the fused copy path for this channel?
    fused: bool
    #: Bytes coverable by per-item copy segments / total bytes.
    byte_fraction: float
    fusible_bytes: int
    total_bytes: int

    def to_json(self):
        return {
            "op": self.op,
            "direction": self.direction,
            "fused": self.fused,
            "byte_fraction": round(self.byte_fraction, 4),
            "fusible_bytes": self.fusible_bytes,
            "total_bytes": self.total_bytes,
        }


def _item_bytes(node, layout, registry):
    """Storage bytes of one channel item under *layout*."""
    mint = getattr(getattr(node, "pres", None), "mint", None)
    if mint is None:
        return 0
    info = analyze_storage(mint, layout, registry)
    return info.min_size if info.max_size is None else info.max_size


def _predict_channel(op, direction, fused, src, dst, layout, registry):
    """*src* and *dst* are ``(channel, types)`` of the two sides."""
    (src_channel, types_src), (dst_channel, types_dst) = src, dst
    paired = len(src_channel.items) == len(dst_channel.items)
    fusible = total = 0
    for index, (_name, node) in enumerate(src_channel.items):
        nbytes = _item_bytes(node, layout, registry)
        total += nbytes
        if paired and _fuse_node(node, dst_channel.items[index][1],
                                 types_src, types_dst, []):
            fusible += nbytes
    fraction = fusible / total if total else (1.0 if fused else 0.0)
    return ChannelPrediction(
        op=op, direction=direction, fused=fused, byte_fraction=fraction,
        fusible_bytes=fusible, total_bytes=total)


def predict_fused(plan, ingress_result):
    """Per-op fusion predictions for the bridge *plan* serves.

    *ingress_result* is the compile *plan* was built from on the
    ingress side (its wire format and MINT registry size the items).
    Returns ``{op: {"request": ChannelPrediction, "reply":
    ChannelPrediction}}`` (reply absent for oneway ops).
    """
    layout = ingress_result.stubs.backend_instance.wire_format
    registry = ingress_result.presc.mint_registry
    ingress = plan.ingress_module._flick_shapes()
    egress = plan.egress_module._flick_shapes()
    predictions = {}
    for op in plan.ops.values():
        op_in, op_eg = (ingress.operations[op.name],
                        egress.operations[op.name])
        predictions[op.name] = {"request": _predict_channel(
            op.name, "request", op.request_segments is not None,
            (op_in["request"], ingress.types),
            (op_eg["request"], egress.types), layout, registry)}
        if not op.oneway:
            # The reply crosses egress -> ingress; predict that way.
            predictions[op.name]["reply"] = _predict_channel(
                op.name, "reply", 0 in op.reply_segments,
                (op_eg["reply_arms"][0][1], egress.types),
                (op_in["reply_arms"][0][1], ingress.types),
                layout, registry)
    return predictions
