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
names that node as the channel's blocker.  The segment classes and the
rules that build them live beside the walk, in
:mod:`repro.compat.pairwalk`, as pure data: ``flick bridge`` and the
goldens read them.  What runs is :func:`compile_copy`'s printout of a
channel's segments (the request, or a reply arm with its discriminator
word) as one Python function, compiled at the channel's first call and
kept in ``OpPlan.copies``: the element loop is a ``for``, each check a
line, and the egress pieces go into the buffer with one reserve after
the last check passed.  It refuses exactly the frames the ingress
decoder refuses, with the ``WireFormatError`` each segment's rule
states.

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
from repro.core.loader import load_stub_module
from repro.mir import ops as m

from repro.gateway.envelope import IngressSpec

__all__ = ["Align", "BridgePlan", "CopyCounted", "CopyEach", "CopyFixed",
           "CopyRun", "OpPlan", "build_plan", "compile_copy", "protocol_of"]

#: backend name -> wire protocol family (the names repro.envelopes
#: and RemoteCallError use).
_PROTOCOLS = {"iiop": "giop", "oncrpc-xdr": "oncrpc"}


def protocol_of(backend_name):
    """The wire protocol family a backend serves, or None."""
    return _PROTOCOLS.get(backend_name)


# ----------------------------------------------------------------------
# Copy functions: each fused channel's segments printed as one function
# ----------------------------------------------------------------------

#: A copy function's names and entry: it reads *data* through a view
#: and collects the egress pieces in a list (a bytearray where an Align
#: needs the output length) ...
_PROLOGUE = """\
from struct import Struct
from repro.errors import WireFormatError as _Error
_unpack, _pack, _Z = Struct(">I").unpack_from, Struct(">I").pack, bytes(4)
def copy(data, src, buffer):
    data, start = memoryview(data), src
    size = data.nbytes%s"""
_COLLECT = "\n    out = %s\n    put = out.%s"

#: ... which go into *buffer* with one reserve, once every check passed.
#: A channel with nothing to rewrite is one slice of *data* instead.
_EPILOGUE = """\
    body = %s
    offset = buffer.reserve(%s)
    buffer.data[offset:buffer.length] = body
    return src"""


def _check(failed, message, offset, field, limit=None, actual=None):
    """The lines that refuse with WireFormatError when *failed* holds."""
    return ("if %s:" % failed, "    raise _Error(%r, offset=%s, field=%r, "
            "limit=%s, actual=%s)" % (message, offset, field, limit, actual))


def _print(segments, say, copied="put(data[src:end])"):
    """Hand *say* the lines that copy *segments*: each segment's checks
    in its rule's order, then its bytes (*copied* for a region copied
    as it is)."""
    for segment in segments:
        kind = type(segment)
        if kind is Align:
            say("put(bytes(-(buffer.length + len(out)) % 4))",
                "src += -src % 4")
        elif kind is CopyFixed:
            say("end = src + %d" % segment.nbytes, *_check(
                "end > size", "fused region truncated", "src", "body",
                segment.nbytes, "size - src"), copied, "src = end")
        else:
            nul_in = segment.nul[0] if kind is CopyRun else 0
            say(*_check("src + 4 > size", "array count truncated", "src",
                        "count", 4, "size - src"),
                "c = _unpack(data, src)[0]")
            if segment.bound is not None:
                say(*_check("c > %d" % (segment.bound + nul_in),
                            "array count exceeds bound", "src", "count",
                            segment.bound + nul_in, "c"))
        if kind is CopyCounted:
            nbytes = "4 + c * %d" % segment.elem_size
            say("end = src + " + nbytes, *_check(
                "end > size", "array elements truncated", "src", "elements",
                nbytes, "size - src"), copied, "src = end")
        elif kind is CopyRun:
            (_, nul_out), (pad_in, pad_out) = segment.nul, segment.pad
            if nul_in:
                say(*_check("c < 1", "string length 0 too short", "src",
                            "count"))
            say("end = src + 4 + c", *_check(
                "end > size", "byte run truncated", "src + 4", "run", "c",
                "size - src - 4"),
                "put(_pack(c + %d))" % (nul_out - nul_in),
                "put(data[src + 4:end - %d])" % nul_in,
                "t = %d" % nul_out + (" + -(c + %d) %% 4" % (
                    nul_out - nul_in) if pad_out else ""),
                "if t:", "    put(_Z[:t])",
                "src = end" + (" + -c % 4" if pad_in else ""))
        elif kind is CopyEach:
            say("src += 4", *_check(
                "src + c * %d > size" % segment.min_size,
                "array elements truncated", "src", "elements",
                "c * %d" % segment.min_size, "size - src"),
                "put(_pack(c))", "for _ in range(c):")
            _print(segment.segments, lambda *texts: say(
                *("    " + text for text in texts)))


def compile_copy(segments, name):
    """Print *segments* as ``copy(data, src, buffer)`` and compile it.

    The function copies ``data[src:]`` into *buffer* and returns the end
    offset, refusing with the ``WireFormatError`` (message, offset,
    field, limit, actual) each segment's rule states, in segment order;
    nothing is written to *buffer* before the last check passed."""
    track = "Align()" in repr(segments)  # an Align reads len(out)
    verbatim = all(type(s) in (CopyFixed, CopyCounted) for s in segments)
    lines = [_PROLOGUE % ("" if verbatim else _COLLECT % (
        ("bytearray()", "extend") if track else ("[]", "append")))]
    _print(segments, lambda *texts: lines.extend(
        "    " + text for text in texts), "pass" if verbatim else
        "put(data[src:end])")
    lines.append(_EPILOGUE % (
        ("data[start:src]", "src - start") if verbatim
        else ("out" if track else 'b"".join(out)', "len(body)")))
    return load_stub_module("\n".join(lines), "copy_" + name).copy


def _deferred(segments, copies, key, name):
    """What stands in for channel *key*'s copy function in *copies*
    until its first call compiles it there."""

    def first(data, src, buffer):
        copies[key] = copy = compile_copy(segments, name)
        return copy(data, src, buffer)

    return first


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
    #: ``"request"`` or a reply discriminator -> the fused channel's
    #: copy function (compiled at its first call).
    copies: Dict[object, object] = field(default_factory=dict, init=False)


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
    ingress_module = ingress_result.module
    egress_module = egress_result.module

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
        key = ingress_backend.demux_key(ingress_presc, stub)
        op = ops[key] = OpPlan(
            name=name,
            oneway=stub.oneway,
            ingress_key=key,
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
        # A reply arm's function copies its discriminator word too.
        for channel, segments in [("request", request_segments), *(
                (arm, [CopyFixed(4), *arm_segments])
                for arm, arm_segments in reply_segments.items())]:
            if segments is not None:
                op.copies[channel] = _deferred(
                    segments, op.copies, channel, "%s_%s" % (name, channel))
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
