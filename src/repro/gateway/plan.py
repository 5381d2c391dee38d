"""Bridge plans: pair two backends' marshal programs per operation.

A bridge serves one AOI interface on an *ingress* protocol and forwards
it to an *egress* protocol.  For every operation this module pairs the
ingress backend's decode layout with the egress backend's encode layout
(both taken from the naive marshal IR, :func:`repro.mir.build
.build_naive`) and decides, per value channel, between two strategies:

**Fused copy.**  Where the two wire formats lay a region out
byte-identically — XDR and big-endian CDR agree exactly on 32-bit
integers and floats, on fixed arrays of them (neither format prefixes a
header), and on counted arrays of them (both prefix a 4-byte big-endian
count) — the plan compiles the region into copy segments that splice
ingress body bytes straight into the egress message.  No presentation
Python value is ever materialized; a 64 KiB integer array crosses the
gateway as one ``memcpy`` plus a bound check.  Adjacent fixed-size
segments coalesce.  Fusion is all-or-nothing per channel: one
mismatched field (strings differ in NUL termination, chars in width,
doubles in alignment) sends the whole channel to the fallback.

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

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backend import make_backend
from repro.backend.oncxdr import interface_program
from repro.core import codecs
from repro.errors import WireFormatError
from repro.mir import ops as m

from repro.gateway.envelope import IngressSpec

__all__ = ["BridgePlan", "CopyCounted", "CopyFixed", "OpPlan",
           "build_plan", "protocol_of", "run_segments"]

_unpack_from = struct.unpack_from

#: backend name -> wire protocol family (the names correlation.probe
#: and RemoteCallError use).
_PROTOCOLS = {"iiop": "giop", "oncrpc-xdr": "oncrpc"}


def protocol_of(backend_name):
    """The wire protocol family a backend serves, or None."""
    return _PROTOCOLS.get(backend_name)


# ----------------------------------------------------------------------
# Copy segments (the fused plan's instruction set)
# ----------------------------------------------------------------------


class CopyFixed:
    """Copy *nbytes* verbatim from the source body to the buffer."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes):
        self.nbytes = nbytes

    def __repr__(self):
        return "CopyFixed(%d)" % self.nbytes

    def copy(self, data, src, buffer):
        end = src + self.nbytes
        if end > len(data):
            raise WireFormatError(
                "fused region truncated", offset=src, field="body",
                limit=self.nbytes, actual=len(data) - src)
        offset = buffer.reserve(self.nbytes)
        buffer.data[offset:offset + self.nbytes] = data[src:end]
        return end


class CopyCounted:
    """Copy a counted array: 4-byte big-endian count, then
    ``count * elem_size`` element bytes, bound-checked before copying."""

    __slots__ = ("bound", "elem_size")

    def __init__(self, bound, elem_size):
        self.bound = bound
        self.elem_size = elem_size

    def __repr__(self):
        return "CopyCounted(bound=%r, elem=%d)" % (
            self.bound, self.elem_size)

    def copy(self, data, src, buffer):
        if src + 4 > len(data):
            raise WireFormatError(
                "array count truncated", offset=src, field="count",
                limit=4, actual=len(data) - src)
        count = _unpack_from(">I", data, src)[0]
        if self.bound is not None and count > self.bound:
            raise WireFormatError(
                "array count exceeds bound", offset=src, field="count",
                limit=self.bound, actual=count)
        nbytes = 4 + count * self.elem_size
        if src + nbytes > len(data):
            raise WireFormatError(
                "array elements truncated", offset=src, field="elements",
                limit=nbytes, actual=len(data) - src)
        offset = buffer.reserve(nbytes)
        buffer.data[offset:offset + nbytes] = data[src:src + nbytes]
        return src + nbytes


def run_segments(segments, data, src, buffer):
    """Apply *segments* to ``data[src:]``; returns the end offset.

    The segments slice a view of *data*, so each copied region is
    copied once, into *buffer*."""
    data = memoryview(data)
    for segment in segments:
        src = segment.copy(data, src, buffer)
    return src


# ----------------------------------------------------------------------
# Fusibility analysis
# ----------------------------------------------------------------------


def _same_word_codec(a, b):
    """Both codecs lay the value out as the same 4-byte 4-aligned word."""
    return (a is not None and b is not None
            and a.format == b.format
            and a.size == b.size == 4
            and a.alignment == b.alignment == 4)


def _fuse_node(src, dst, types_src, types_dst, segments):
    """Append copy segments covering (src -> dst); False if infusible."""
    if isinstance(src, m.TRef) and isinstance(dst, m.TRef):
        if src.recursive or dst.recursive:
            return False
        return _fuse_node(types_src[src.name], types_dst[dst.name],
                          types_src, types_dst, segments)
    if type(src) is not type(dst):
        return False
    if isinstance(src, m.TVoid):
        return True
    if isinstance(src, m.TAtom):
        if not _same_word_codec(src.codec, dst.codec):
            return False
        segments.append(CopyFixed(4))
        return True
    if isinstance(src, m.TFixedArray):
        # Neither XDR nor CDR prefixes fixed arrays with a header.
        if src.length != dst.length:
            return False
        if _same_word_codec(src.element_codec, dst.element_codec):
            segments.append(CopyFixed(4 * src.length))
            return True
        # Structured elements fuse too when every field does and the
        # element is fixed-size (one stride covers the whole array).
        element_segments = []
        if not _fuse_node(src.element, dst.element, types_src,
                          types_dst, element_segments):
            return False
        if not all(isinstance(s, CopyFixed) for s in element_segments):
            return False
        stride = sum(s.nbytes for s in element_segments)
        if stride:
            segments.append(CopyFixed(stride * src.length))
        return True
    if isinstance(src, m.TCountedArray):
        # Both formats prefix a 4-byte count (big-endian here, by the
        # plan-level endianness precondition).
        if not _same_word_codec(src.element_codec, dst.element_codec):
            return False
        if src.bound is not None and dst.bound is not None:
            bound = min(src.bound, dst.bound)
        else:
            bound = src.bound if src.bound is not None else dst.bound
        segments.append(CopyCounted(bound, 4))
        return True
    if isinstance(src, m.TStruct):
        if len(src.fields) != len(dst.fields):
            return False
        return all(
            _fuse_node(sf.node, df.node, types_src, types_dst, segments)
            for sf, df in zip(src.fields, dst.fields)
        )
    # Strings (NUL termination differs), bytes (padding differs),
    # optionals, unions, exceptions: decode/re-encode.
    return False


def _coalesce(segments):
    out = []
    for segment in segments:
        if (out and isinstance(segment, CopyFixed)
                and isinstance(out[-1], CopyFixed)):
            out[-1] = CopyFixed(out[-1].nbytes + segment.nbytes)
        else:
            out.append(segment)
    return out


def fuse_channel(src_channel, dst_channel, types_src, types_dst):
    """Copy segments bridging two naive channels, or None."""
    if len(src_channel.items) != len(dst_channel.items):
        return None
    segments = []
    for (_sn, src), (_dn, dst) in zip(src_channel.items,
                                      dst_channel.items):
        if not _fuse_node(src, dst, types_src, types_dst, segments):
            return None
    return _coalesce(segments)


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
    ingress_backend = make_backend(ingress_result.stubs.backend_name)
    egress_backend = make_backend(egress_result.stubs.backend_name)
    ingress_protocol = protocol_of(ingress_backend.name)
    egress_protocol = protocol_of(egress_backend.name)
    if ingress_protocol is None or egress_protocol is None:
        raise ValueError(
            "gateway backends must be one of %s"
            % sorted(_PROTOCOLS))
    ingress_presc = ingress_result.presc
    egress_presc = egress_result.presc
    ingress_module = ingress_result.load_module()
    egress_module = egress_result.load_module()
    # Fused copies assume both formats agree on byte order; the
    # little-endian IIOP variant re-encodes everything.
    fuse = (fuse
            and ingress_backend.wire_format.endian == ">"
            and egress_backend.wire_format.endian == ">")
    # The naive IR each module's profiler and ``predict_fused`` read.
    naive_in = ingress_module._flick_shapes()
    naive_eg = egress_module._flick_shapes()
    egress_stubs = {s.operation_name: s for s in egress_presc.stubs}

    ops = {}
    for stub in ingress_presc.stubs:
        other = egress_stubs.get(stub.operation_name)
        if other is None or stub.oneway != other.oneway:
            continue  # unknown-operation error at runtime (check_bridge
            #           reports these as BREAKING before serving)
        name = stub.operation_name
        op_in = naive_in.operations[name]
        op_eg = naive_eg.operations[name]
        request_segments = None
        reply_segments = {}
        if fuse:
            request_segments = fuse_channel(
                op_in["request"], op_eg["request"],
                naive_in.types, naive_eg.types)
            if not stub.oneway:
                arms_in = dict(op_in["reply_arms"])
                for index, (label, channel) in \
                        enumerate(op_eg["reply_arms"]):
                    if label not in arms_in:
                        continue
                    disc = 0 if index == 0 else int(label[1:])
                    segments = fuse_channel(
                        channel, arms_in[label],
                        naive_eg.types, naive_in.types)
                    if segments is not None:
                        reply_segments[disc] = segments
        exception_arms = {}
        if not stub.oneway:
            ingress_by_label = {
                arm.labels[0]: arm
                for arm in stub.reply_pres.arms[1:]
            }
            for arm in other.reply_pres.arms[1:]:
                match = ingress_by_label.get(arm.labels[0])
                if match is None:
                    continue
                exception_arms["x%d" % match.labels[0]] = \
                    m.mangle(arm.pres.class_name)
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
    plan.rebind()
    for module in (ingress_module, egress_module):
        codecs.of(module).subscribe(lambda op, _names: plan.rebind(op))
    return plan
