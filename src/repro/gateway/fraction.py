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
accounting is computed here, item by item over the PRES_C channels the
plan paired (:meth:`repro.pres.presc.PresCStub.channels`, read through
the plan's two sides).  Byte estimates come from
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


def _item_bytes(pres, layout, registry):
    """Storage bytes of one channel item under *layout*."""
    info = analyze_storage(pres.mint, layout, registry)
    return info.min_size if info.max_size is None else info.max_size


def _predict_channel(op, direction, fused, src_items, dst_items, sides,
                     layout, registry):
    paired = len(src_items) == len(dst_items)
    fusible = total = 0
    for index, (_name, pres) in enumerate(src_items):
        nbytes = _item_bytes(pres, layout, registry)
        total += nbytes
        if paired and _fuse_node(pres, dst_items[index][1], sides, []):
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
    ingress, egress = plan.sides
    predictions = {}
    for op in plan.ops.values():
        channels_in = ingress.presc.stub_named(op.name).channels()
        channels_eg = egress.presc.stub_named(op.name).channels()
        predictions[op.name] = {"request": _predict_channel(
            op.name, "request", op.request_segments is not None,
            channels_in["request"], channels_eg["request"], plan.sides,
            layout, registry)}
        if not op.oneway:
            # The reply crosses egress -> ingress; predict that way.
            predictions[op.name]["reply"] = _predict_channel(
                op.name, "reply", 0 in op.reply_segments,
                channels_eg["ok"], channels_in["ok"], plan.sides[::-1],
                layout, registry)
    return predictions
