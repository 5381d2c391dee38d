"""Bridge plans: pair two backends' marshal programs per operation.

A bridge serves one AOI interface on an *ingress* protocol and forwards
it to an *egress* protocol.  For every operation this module pairs the
ingress side's PRES_C with the egress side's, channel by channel
(:meth:`repro.pres.presc.PresCStub.channels`), reads each atom's layout
from the side's wire format, and decides, per value channel, between
two strategies:

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
recursive type sends the whole channel to the fallback.  Every segment
refuses exactly the frames the ingress decoder refuses.

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
from typing import Dict, List, NamedTuple, Optional

from repro.backend import make_backend
from repro.backend.oncxdr import interface_program
from repro.core import codecs
from repro.errors import WireFormatError
from repro.mint.analysis import analyze_storage, is_recursive
from repro.mir import ops as m
from repro.pres import nodes as p

from repro.gateway.envelope import IngressSpec

__all__ = ["Align", "BridgePlan", "CopyCounted", "CopyEach", "CopyFixed",
           "CopyRun", "OpPlan", "build_plan", "protocol_of", "run_segments"]

_unpack_from = struct.unpack_from
_pack_into = struct.pack_into
_ZEROS = bytes(4)

#: backend name -> wire protocol family (the names correlation.probe
#: and RemoteCallError use).
_PROTOCOLS = {"iiop": "giop", "oncrpc-xdr": "oncrpc"}


def protocol_of(backend_name):
    """The wire protocol family a backend serves, or None."""
    return _PROTOCOLS.get(backend_name)


# ----------------------------------------------------------------------
# Copy segments (the fused plan's instruction set)
# ----------------------------------------------------------------------


class CopyFixed(NamedTuple):
    """Copy *nbytes* verbatim from the source body to the buffer.

    *aligned* is False when the region starts with bytes (a fixed octet
    array), which CDR does not align: such a region may not follow a
    byte run."""

    nbytes: int
    aligned: bool = True

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


def _read_count(data, src, limit):
    """The 4-byte big-endian count at *src*, at most *limit* (None: no
    bound)."""
    if src + 4 > len(data):
        raise WireFormatError(
            "array count truncated", offset=src, field="count",
            limit=4, actual=len(data) - src)
    count = _unpack_from(">I", data, src)[0]
    if limit is not None and count > limit:
        raise WireFormatError(
            "array count exceeds bound", offset=src, field="count",
            limit=limit, actual=count)
    return count


class CopyCounted(NamedTuple):
    """Copy a counted array: 4-byte big-endian count, then
    ``count * elem_size`` element bytes, bound-checked before copying."""

    bound: Optional[int]
    elem_size: int

    def __repr__(self):
        return "CopyCounted(bound=%r, elem=%d)" % (
            self.bound, self.elem_size)

    def copy(self, data, src, buffer):
        count = _read_count(data, src, self.bound)
        nbytes = 4 + count * self.elem_size
        if src + nbytes > len(data):
            raise WireFormatError(
                "array elements truncated", offset=src, field="elements",
                limit=nbytes, actual=len(data) - src)
        offset = buffer.reserve(nbytes)
        buffer.data[offset:offset + nbytes] = data[src:src + nbytes]
        return src + nbytes


class CopyRun(NamedTuple):
    """Copy a count-prefixed byte run, a string or an octet sequence,
    rewriting what the two formats disagree on: a CDR string's count
    includes its NUL (*nul* 1), and a side's run ends on a 4-byte
    boundary (*pad* 1) where XDR pads every run and CDR aligns the item
    after one.  Both are ``(source, destination)`` pairs.

    It refuses what the ingress decoder refuses: a truncated count or
    run, a NUL-counting count of 0, a length over *bound*."""

    bound: Optional[int]
    nul: tuple
    pad: tuple

    def __repr__(self):
        return "CopyRun(bound=%r, nul=%d->%d, pad=%d->%d)" % (
            (self.bound,) + self.nul + self.pad)

    def copy(self, data, src, buffer):
        bound, (nul_in, nul_out), (pad_in, pad_out) = self
        count = _read_count(data, src,
                            None if bound is None else bound + nul_in)
        if count < nul_in:
            raise WireFormatError(
                "string length 0 too short", offset=src, field="count")
        start = src + 4
        end = start + count
        if end > len(data):
            raise WireFormatError(
                "byte run truncated", offset=start, field="run",
                limit=count, actual=len(data) - start)
        n = count - nul_in
        out = n + nul_out
        tail = nul_out + (-out % 4 if pad_out else 0)
        offset = buffer.reserve(4 + n + tail)
        buf = buffer.data
        _pack_into(">I", buf, offset, out)
        offset += 4
        buf[offset:offset + n] = data[start:start + n]
        if tail:
            buf[offset + n:offset + n + tail] = _ZEROS[:tail]
        return end + (-count % 4 if pad_in else 0)


class Align(NamedTuple):
    """Realign both sides to 4 bytes after a byte run, for an item CDR
    aligns: skip the source's padding, zero-pad the destination (an XDR
    side is aligned already)."""

    def __repr__(self):
        return "Align()"

    def copy(self, data, src, buffer):
        pad = -buffer.length % 4
        if pad:
            offset = buffer.reserve(pad)
            buffer.data[offset:offset + pad] = _ZEROS[:pad]
        return src + (-src % 4)


class CopyEach(NamedTuple):
    """Copy a counted array of variable-size elements: the count,
    checked against *bound* and, at *min_size* bytes an element, against
    what is left (as the generated decoder checks it), then *segments*
    once per element."""

    bound: Optional[int]
    min_size: int
    segments: list

    def __repr__(self):
        return "CopyEach(bound=%r, min=%d, %r)" % (
            self.bound, self.min_size, self.segments)

    def copy(self, data, src, buffer):
        count = _read_count(data, src, self.bound)
        src += 4
        if src + count * self.min_size > len(data):
            raise WireFormatError(
                "array elements truncated", offset=src, field="elements",
                limit=count * self.min_size, actual=len(data) - src)
        offset = buffer.reserve(4)
        _pack_into(">I", buffer.data, offset, count)
        segments = self.segments
        for _ in range(count):
            for segment in segments:
                src = segment.copy(data, src, buffer)
        return src


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


def _same_word(side_src, side_dst, src, dst):
    """Both atoms are the same 4-byte 4-aligned word on the wire."""
    a = side_src.fmt.atom_codec(src.mint)
    b = side_dst.fmt.atom_codec(dst.mint)
    return (a.format == b.format and a.size == b.size == 4
            and a.alignment == b.alignment == 4)


class Side(NamedTuple):
    """One end of a bridge as the fusion walk reads it."""

    presc: object
    fmt: object                   # the side's wire format


_ATOMS = (p.PresDirect, p.PresEnum)


def _kind(pres):
    return p.PresDirect if isinstance(pres, p.PresEnum) else type(pres)


def _bound(src, dst):
    """The smaller of two bounds, None meaning unbounded."""
    return min((b for b in (src.bound, dst.bound) if b is not None),
               default=None)


def _unaligned(segments):
    """Whether *segments* end after a byte run: CDR leaves its end where
    the run ends and aligns the item that follows."""
    last = segments[-1] if segments else None
    return (isinstance(last, CopyRun) and last.pad != (1, 1)) or (
        isinstance(last, CopyEach) and _unaligned(last.segments))


def _append(segments, segment):
    """Append *segment*, realigning after a byte run; False where the
    alignment rule forbids it: after a run comes an item both formats
    align to 4 bytes (not a fixed octet array)."""
    if _unaligned(segments):
        if isinstance(segment, CopyFixed) and not segment.aligned:
            return False
        segments.append(Align())
    segments.append(segment)
    return True


def _fuse_node(src, dst, sides, segments):
    """Append copy segments covering (src -> dst); False if infusible.

    *sides* is the ``(source, destination)`` :class:`Side` pair.  Two
    named types fuse as their definitions unless either recurses; a
    named type against an inline one never fuses."""
    side_src, side_dst = sides
    if isinstance(src, p.PresRef) and isinstance(dst, p.PresRef):
        if (is_recursive(src.mint, side_src.presc.mint_registry)
                or is_recursive(dst.mint, side_dst.presc.mint_registry)):
            return False
        return _fuse_node(side_src.presc.pres_registry[src.name],
                          side_dst.presc.pres_registry[dst.name],
                          sides, segments)
    if _kind(src) is not _kind(dst):
        return False
    if isinstance(src, p.PresVoid):
        return True
    if isinstance(src, _ATOMS):
        return (_same_word(side_src, side_dst, src, dst)
                and _append(segments, CopyFixed(4)))
    if isinstance(src, (p.PresString, p.PresBytes)):
        text = isinstance(src, p.PresString)
        if not text and (src.fixed_length is not None
                         or dst.fixed_length is not None):
            # A fixed octet array: neither format prefixes it, nor (at
            # a multiple of 4) pads it.
            fixed = src.fixed_length
            return (fixed == dst.fixed_length and fixed % 4 == 0
                    and _append(segments, CopyFixed(fixed, aligned=False)))
        return _append(segments, CopyRun(
            _bound(src, dst),
            tuple(int(text and side.fmt.string_nul_terminated)
                  for side in sides),
            (side_src.fmt.pads_byte_runs(src.mint),
             side_dst.fmt.pads_byte_runs(dst.mint))))
    if isinstance(src, (p.PresFixedArray, p.PresCountedArray)):
        # Neither format prefixes a fixed array with a header; both
        # prefix a counted one with a 4-byte count (big-endian here, by
        # the plan-level endianness precondition).
        counted = isinstance(src, p.PresCountedArray)
        if not counted and src.length != dst.length:
            return False
        element = []
        if not _fuse_node(src.element, dst.element, sides, element):
            return False
        element = _coalesce(element)
        if all(isinstance(s, CopyFixed) for s in element):
            # Fixed-size elements: one stride covers the whole array.
            stride = sum(s.nbytes for s in element)
            if counted:
                return stride > 0 and _append(
                    segments, CopyCounted(_bound(src, dst), stride))
            return not stride or _append(segments, CopyFixed(
                stride * src.length, aligned=element[0].aligned))
        if not counted:
            return False
        if _unaligned(element):  # the next element follows a run
            if not _append(element[-1:], element[0]):
                return False
            element.insert(0, Align())
        min_size = analyze_storage(src.element.mint, side_src.fmt,
                                   side_src.presc.mint_registry).min_size
        return _append(segments, CopyEach(_bound(src, dst),
                                          max(min_size, 1), element))
    if isinstance(src, p.PresStruct):
        if len(src.fields) != len(dst.fields):
            return False
        return all(
            _fuse_node(sf.pres, df.pres, sides, segments)
            for sf, df in zip(src.fields, dst.fields)
        )
    # Optionals, unions, exceptions: decode/re-encode.
    return False


def _coalesce(segments):
    """Merge adjacent fixed copies, and fold an Align into the byte run
    before it: a run followed by an aligned item ends aligned."""
    out = []
    for segment in segments:
        last = out[-1] if out else None
        if isinstance(segment, CopyFixed) and isinstance(last, CopyFixed):
            out[-1] = CopyFixed(last.nbytes + segment.nbytes, last.aligned)
        elif isinstance(segment, Align) and isinstance(last, CopyRun):
            out[-1] = CopyRun(last.bound, last.nul, (1, 1))
        else:
            out.append(segment)
    return out


def fuse_channel(src_items, dst_items, sides):
    """Copy segments bridging two channels (:meth:`PresCStub.channels
    <repro.pres.presc.PresCStub.channels>` values), or None."""
    if len(src_items) != len(dst_items):
        return None
    segments = []
    for (_sn, src), (_dn, dst) in zip(src_items, dst_items):
        if not _fuse_node(src, dst, sides, segments):
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
    #: The ingress and egress :class:`Side` the plan was fused from.
    sides: tuple = field(default=(), init=False, repr=False)

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
    sides = (Side(ingress_presc, ingress_backend.wire_format),
             Side(egress_presc, egress_backend.wire_format))
    egress_stubs = {s.operation_name: s for s in egress_presc.stubs}

    ops = {}
    for stub in ingress_presc.stubs:
        other = egress_stubs.get(stub.operation_name)
        if other is None or stub.oneway != other.oneway:
            continue  # unknown-operation error at runtime (check_bridge
            #           reports these as BREAKING before serving)
        name = stub.operation_name
        request_segments = None
        reply_segments = {}
        if fuse:
            channels_in, channels_eg = stub.channels(), other.channels()
            request_segments = fuse_channel(
                channels_in.pop("request"), channels_eg.pop("request"),
                sides)
            for label, items in channels_eg.items():
                if label not in channels_in:
                    continue
                segments = fuse_channel(items, channels_in[label],
                                        sides[::-1])
                if segments is not None:
                    reply_segments[0 if label == "ok"
                                   else int(label[1:])] = segments
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
    plan.sides = sides
    plan.rebind()
    for module in (ingress_module, egress_module):
        codecs.of(module).subscribe(lambda op, _names: plan.rebind(op))
    return plan
