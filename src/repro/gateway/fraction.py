"""Static fused-fraction prediction for a bridge.

``flick bridge`` verifies losslessness *before* deploying a gateway;
this module predicts gateway *cost* at the same point: per operation
and direction, will the message take the fused copy path, how much of
its bytes could copy plans cover, and what keeps the rest from them?

Three answers per channel:

* ``fused`` — whether the :class:`~repro.gateway.plan.BridgePlan`
  that ``flick gateway`` serves holds copy segments for the whole
  channel.  This is exactly the path the proxy will take, so it matches
  the dynamic ``flick_profile_transcode_total`` ratio the payload-shape
  profiler records — the cross-check the tests run.
* ``byte_fraction`` — bytes coverable by per-item copy segments over
  total channel bytes.  A channel fuses whole or not at all, so every
  fused channel reads 1.0; below that it is the headroom number: an op
  at ``fused=False, byte_fraction=0.9`` carries one item no copy
  segment covers (a union, an optional, a double, a recursive type)
  beside a long array that would copy.  An item that fuses alone may
  still break its channel's alignment rule (a string followed by an
  octet array), so a fraction of 1.0 does not promise ``fused``.
* ``blocker`` — for a channel that falls back, the first node that
  keeps it from a copy and why (``request.u: union``).

Nothing here walks a schema: the plan's pairing
(:func:`repro.compat.pairwalk.pair_bridge`) already holds every
channel's items, each with its own segments or blocker and its size
under the ingress wire format — the bounded maximum when there is one,
the fixed minimum otherwise (unbounded sequences contribute their
headers; their payload scales both numerator and denominator
identically when fusible, so the fraction stays honest).  A prediction
exists for exactly the plan's operations.  The walk sizes a string at
one byte a char and XDR's padding exactly (``string<256>`` is at most
260 bytes), and an element-wise char array at the format's char atom.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

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
    #: Why the channel falls back (None when it is fused).
    blocker: Optional[str] = None

    def to_json(self):
        return dict(asdict(self), byte_fraction=round(self.byte_fraction, 4))


def _predict(op, direction, fused, channel):
    total = sum(item.nbytes for item in channel.items)
    fusible = sum(item.nbytes for item in channel.items
                  if item.segments is not None)
    return ChannelPrediction(
        op=op, direction=direction, fused=fused,
        byte_fraction=fusible / total if total else float(fused),
        fusible_bytes=fusible, total_bytes=total,
        blocker=None if fused else channel.blocker or "fusion turned off")


def predict_fused(plan):
    """Per-op fusion predictions for the bridge *plan* serves.

    Returns ``{op: {"request": ChannelPrediction, "reply":
    ChannelPrediction}}`` (reply absent for oneway ops).
    """
    predictions = {}
    for op in plan.ops.values():
        pair = plan.pairing.ops[op.name]
        predictions[op.name] = {"request": _predict(
            op.name, "request", op.request_segments is not None,
            pair.request.channels["request"])}
        if not op.oneway:
            # The reply crosses egress -> ingress, success arm 0.
            predictions[op.name]["reply"] = _predict(
                op.name, "reply", 0 in op.reply_segments,
                pair.reply.channels[0])
    return predictions
