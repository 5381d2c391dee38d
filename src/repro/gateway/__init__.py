"""Wire-to-wire protocol gateway: serve one AOI interface on one
protocol, forward it on another, transcoding bodies without
round-tripping through presentation where the wire layouts agree.

The pieces (see ``docs/INTERNALS.md`` section 11):

* :mod:`repro.gateway.plan` — binds the two backends' codecs per
  operation and serves the copy segments of the one pairwise walk
  (:mod:`repro.compat.pairwalk`), with decode/re-encode fallbacks;
* :mod:`repro.gateway.check` — static losslessness verification, read
  off the same walk in transcoded mode (``flick bridge``);
* :mod:`repro.gateway.envelope` — hardened ingress envelope parsing;
* :mod:`repro.gateway.errmap` — the total GIOP system exception <->
  ONC RPC status mapping (the bytes are
  :func:`repro.envelopes.write_error`'s);
* :mod:`repro.gateway.fraction` — ``flick bridge``'s fused-path
  prediction and each fallback's blocker, read off the plan;
* :mod:`repro.gateway.proxy` — the asyncio proxy server
  (``flick gateway``).
"""

from repro.gateway.check import (
    bridge_exit_code,
    bridge_report_json,
    bridge_report_text,
    check_bridge,
)
from repro.gateway.fraction import ChannelPrediction, predict_fused
from repro.gateway.plan import BridgePlan, build_plan, protocol_of
from repro.gateway.proxy import (
    AioGatewayServer,
    transcode_request,
    translate_reply,
)

__all__ = [
    "AioGatewayServer",
    "BridgePlan",
    "ChannelPrediction",
    "bridge_exit_code",
    "bridge_report_json",
    "bridge_report_text",
    "build_plan",
    "check_bridge",
    "predict_fused",
    "protocol_of",
    "transcode_request",
    "translate_reply",
]
