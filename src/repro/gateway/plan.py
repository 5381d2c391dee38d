"""Bridge plans: pair two backends' marshal programs per operation.

A bridge serves one AOI interface on an *ingress* protocol and forwards
it to an *egress* protocol.  For every operation this module reads the
one pairing :func:`repro.compat.pairwalk.pair_bridge` walks of the two
sides' PRES_C, and serves each value channel one of two ways:

**Fused copy.**  Where the two wire formats agree on a region, or
differ only in ways a copy can rewrite, the plan compiles the region
into copy segments that splice ingress body bytes straight into the
egress message; no presentation Python value is ever materialized.  XDR
and big-endian CDR agree exactly on 32-bit integers and floats and on
fixed and counted arrays of fixed-size elements (neither format
prefixes a fixed array, both prefix a counted one with a 4-byte
count): :class:`CopyFixed` and :class:`CopyCounted` copy those whole,
so a 64 KiB integer array crosses the gateway as one ``memcpy`` plus a
bound check.  A string or an octet sequence is a :class:`CopyRun`,
which rewrites CDR's NUL-counting count and NUL against XDR's padding;
a counted array of variable-size elements is a :class:`CopyEach`,
which runs its element's segments once per element.  Adjacent
fixed-size segments coalesce.

The alignment rule: XDR pads every byte run to 4 bytes, CDR aligns the
item after one instead, so a run fuses only where what follows it
starts on a 4-byte boundary in both formats (an :class:`Align` or the
run's own padding realigns both sides) or where it ends the message.
A channel fuses whole or not at all: a run followed by an octet or an
octet array, a union, an optional, a double (CDR aligns it to 8) or a
recursive type sends the whole channel to the fallback, and the walk
names that node as the channel's blocker.  Every segment refuses exactly
the frames the ingress decoder refuses.  The segment classes and the
rules that compile them live beside the walk, in
:mod:`repro.compat.pairwalk`; :func:`run_segments` interprets them.

**Decode/re-encode fallback.**  The ingress module's generated
``_u_req_*`` / ``_u_rep_*`` decoders feed the egress module's
``_m_req_*`` / ``_m_rep_*`` encoders, preserving
full hardening on the decode side and exact egress bytes on the encode
side.

Fusion also requires both formats big-endian and the runtime body
offset congruent to 0 mod 4 (a hostile unpadded GIOP principal can
break congruence; the proxy falls back dynamically in that case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backend.oncxdr import interface_program
from repro.compat.pairwalk import (
    Align,
    CopyCounted,
    CopyEach,
    CopyFixed,
    CopyRun,
    pair_bridge,
)
from repro.core import codecs
from repro.mir import ops as m

from repro.gateway.envelope import IngressSpec

__all__ = ["Align", "BridgePlan", "CopyCounted", "CopyEach", "CopyFixed",
           "CopyRun", "OpPlan", "build_plan", "protocol_of", "run_segments"]

#: backend name -> wire protocol family (the names correlation.probe
#: and RemoteCallError use).
_PROTOCOLS = {"iiop": "giop", "oncrpc-xdr": "oncrpc"}


def protocol_of(backend_name):
    """The wire protocol family a backend serves, or None."""
    return _PROTOCOLS.get(backend_name)


def run_segments(segments, data, src, buffer):
    """Apply *segments* to ``data[src:]``; returns the end offset.

    The segments slice a view of *data*, so each copied region is
    copied once, into *buffer*."""
    data = memoryview(data)
    for segment in segments:
        src = segment.copy(data, src, buffer)
    return src


# ----------------------------------------------------------------------
# The per-operation plan
# ----------------------------------------------------------------------


@dataclass
class OpPlan:
    """Everything the proxy needs to bridge one operation."""

    name: str
    oneway: bool
    ingress_key: object
    egress_key: object
    egress_request: object        # egress HeaderSpec for requests
    ingress_reply: object         # ingress HeaderSpec for replies
    in_arity: int
    ok_arity: int
    request_segments: Optional[List] = None
    #: reply discriminator word -> copy segments (0 = success arm,
    #: n = the nth user exception); absent arms fall back.
    reply_segments: Dict[int, List] = field(default_factory=dict)
    u_req: object = None          # ingress request decode
    m_req: object = None          # egress request encode
    check_reply: object = None    # egress reply-header validator
    u_rep: object = None          # egress reply decode
    m_rep_ok: object = None       # ingress success-reply encode
    #: egress exception class name -> ingress _m_rep_x encoder.
    exceptions: Dict[str, object] = field(default_factory=dict)
    #: ingress reply arm (``x<n>``) -> egress exception class name.
    exception_arms: Dict[str, str] = field(default_factory=dict)


#: The OpPlan fields each side's codec entries bind, named by form.
_INGRESS_FORMS = ("u_req", "m_rep_ok")
_EGRESS_FORMS = ("m_req", "u_rep")


@dataclass
class BridgePlan:
    """A compiled bridge: ingress spec plus per-operation plans."""

    ingress_protocol: str
    egress_protocol: str
    ingress_module: object
    egress_module: object
    ingress_spec: IngressSpec
    ingress_versions: tuple
    ops: Dict[object, OpPlan]
    interface_name: str = ""
    #: The :class:`~repro.compat.pairwalk.BridgePairing` the plan was
    #: built from: each operation's walked channels.
    pairing: object = field(default=None, init=False, repr=False)

    @property
    def fused_request_ops(self):
        return sorted(p.name for p in self.ops.values()
                      if p.request_segments is not None)

    def rebind(self, op=None):
        """Refresh early-bound codec references from the live modules.

        The proxy binds each operation's codecs once so serving never
        pays per-request attribute loads — which means a change to the
        module's entries (a base swap, a layer going on or off) would
        otherwise be invisible here.  :func:`build_plan` subscribes
        this to both modules' codec slots; *op* limits the refresh to
        one operation (None refreshes every plan).
        """
        plans = {plan.name: plan for plan in self.ops.values()}
        ingress = codecs.of(self.ingress_module)
        egress = codecs.of(self.egress_module)
        for slots, forms in ((ingress, _INGRESS_FORMS),
                             (egress, _EGRESS_FORMS)):
            live = vars(slots.module)
            for slot in slots.entries(op):
                plan = plans.get(slot.op)
                if plan is None:
                    continue
                if slot.form in forms:
                    setattr(plan, slot.form, live[slot.name])
                elif slots is ingress and slot.arm in plan.exception_arms:
                    plan.exceptions[plan.exception_arms[slot.arm]] = \
                        live[slot.name]

    def summary(self):
        """One line per operation for logs and the CLI."""
        lines = []
        for plan in sorted(self.ops.values(), key=lambda p: p.name):
            req = "fused" if plan.request_segments is not None \
                else "re-encode"
            if plan.oneway:
                rep = "oneway"
            elif plan.reply_segments:
                rep = "fused(%s)" % ",".join(
                    str(d) for d in sorted(plan.reply_segments))
            else:
                rep = "re-encode"
            lines.append("%-20s request=%-9s reply=%s"
                         % (plan.name, req, rep))
        return "\n".join(lines)


def _ingress_spec(backend, presc):
    protocol = protocol_of(backend.name)
    if protocol == "oncrpc":
        program, version = interface_program(presc)
        return IngressSpec(protocol="oncrpc", program=program,
                           version=version)
    return IngressSpec(
        protocol="giop", object_key=backend.object_key(presc),
        little_endian=getattr(backend, "little_endian", False))


def build_plan(ingress_result, egress_result, *, fuse=True):
    """Pair *ingress_result* with *egress_result* into a BridgePlan.

    Both are :class:`repro.api.CompileResult`-likes for the same (or
    compatible) schema, compiled for servable backends.  Modules are
    loaded here, and the plan binds their codec entries as they are:
    deferred until the first message that needs each one.  That first
    call hands over in the module's codec slots, which tell
    :meth:`BridgePlan.rebind`, so the plan then holds the compiled
    function.
    """
    ingress_protocol, egress_protocol = (
        protocol_of(result.stubs.backend_name)
        for result in (ingress_result, egress_result))
    if ingress_protocol is None or egress_protocol is None:
        raise ValueError(
            "gateway backends must be one of %s"
            % sorted(_PROTOCOLS))
    pairing = pair_bridge(ingress_result, egress_result)
    ingress_backend, egress_backend = pairing.ingress, pairing.egress
    ingress_presc = ingress_result.presc
    egress_presc = egress_result.presc
    ingress_module = ingress_result.load_module()
    egress_module = egress_result.load_module()

    ops = {}
    for pair in pairing.ops.values():
        if not pair.bridged:
            continue  # unknown-operation error at runtime (check_bridge
            #           reports these as BREAKING before serving)
        name, stub, other = pair.name, pair.stub, pair.other
        # Reply arms the two sides share, by discriminator: 0 is the
        # success arm, n the nth user exception (the egress class).
        arms = pair.reply.channels if pair.reply else {}
        request_segments = (pair.request.channels["request"].segments
                            if fuse else None)
        reply_segments = {label: channel.segments
                          for label, channel in arms.items()
                          if fuse and channel.segments is not None}
        exception_arms = {
            "x%d" % label: m.mangle(channel.items[0].pres.class_name)
            for label, channel in arms.items() if label}
        ops[ingress_backend.demux_key(ingress_presc, stub)] = OpPlan(
            name=name,
            oneway=stub.oneway,
            ingress_key=ingress_backend.demux_key(ingress_presc, stub),
            egress_key=egress_backend.demux_key(egress_presc, other),
            egress_request=egress_backend.request_header(
                egress_presc, other),
            ingress_reply=None if stub.oneway
            else ingress_backend.reply_header(ingress_presc, stub),
            in_arity=len(stub.in_parameters()),
            ok_arity=0 if stub.oneway
            else len(stub.reply_pres.arms[0].pres.fields),
            request_segments=request_segments,
            reply_segments=reply_segments,
            check_reply=None if stub.oneway
            else getattr(egress_module, "_check_reply"),
            exception_arms=exception_arms,
        )
    _program, version = interface_program(ingress_presc)
    plan = BridgePlan(
        ingress_protocol=ingress_protocol,
        egress_protocol=egress_protocol,
        ingress_module=ingress_module,
        egress_module=egress_module,
        ingress_spec=_ingress_spec(ingress_backend, ingress_presc),
        ingress_versions=(version, version),
        ops=ops,
        interface_name=ingress_presc.interface_name,
    )
    plan.pairing = pairing
    plan.rebind()
    for module in (ingress_module, egress_module):
        codecs.of(module).subscribe(lambda op, _names: plan.rebind(op))
    return plan
