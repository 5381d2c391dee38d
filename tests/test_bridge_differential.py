"""Fused copy plans against the decode/re-encode fallback, frame by frame.

For a generated schema (strings, octet sequences, ``octet[16]`` inside a
struct, sequences of fixed and of variable-size structs) compiled for
IIOP and for ONC RPC, ``build_plan(...)`` and ``build_plan(...,
fuse=False)`` are handed the same frames: a valid request and a valid
reply, each cut at every byte of its body and with every count or
length word the fused segments read set to 0, 1, the bound and just
past it, and past the end of the frame.  Each frame must come out of
both plans as identical egress bytes, or be refused by both with an
identical ingress error reply.  Requests cross CDR->XDR and replies
XDR->CDR on an IIOP-ingress bridge, the other way round on an
ONC-ingress one.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.encoding import MarshalBuffer
from repro.errors import WireFormatError
from repro.gateway import build_plan, transcode_request, translate_reply
from repro.gateway.envelope import parse_request
from repro.gateway.plan import CopyCounted, CopyEach, CopyRun, run_segments

SCHEMA = """
module D {
  struct Rect { long a; long b; };
  struct Tagged { long n; octet tag[16]; };
  struct Item { string name; long n; octet tag[16]; };
  typedef octet Tag[16];
  typedef sequence<octet> Octets;
  typedef sequence<octet, 8> Octets8;
  typedef sequence<Rect> Rects;
  typedef sequence<Item, 4> Items;
  typedef sequence<string<8>, 4> Names;
  union U switch (long) { case 0: long a; default: string<8> b; };
  interface Diff {
    %s
  };
};
"""

BRIDGES = [("iiop", "oncrpc-xdr"), ("oncrpc-xdr", "iiop")]

_INT = st.integers(-2 ** 31, 2 ** 31 - 1)
_TAG = st.binary(min_size=16, max_size=16)


def _text(bound):
    return st.text(st.characters(max_codepoint=255), max_size=bound)


#: IDL type -> strategy of its presented value, given the module that
#: presents it.
TYPES = {
    "long": lambda m: _INT,
    "string": lambda m: _text(12),
    "string<8>": lambda m: _text(8),
    "Octets": lambda m: st.binary(max_size=12),
    "Octets8": lambda m: st.binary(max_size=8),
    "Tagged": lambda m: st.builds(m.D_Tagged, _INT, _TAG),
    "Rects": lambda m: st.lists(st.builds(m.D_Rect, _INT, _INT),
                                max_size=4),
    "Items": lambda m: st.lists(
        st.builds(m.D_Item, _text(6), _INT, _TAG), max_size=4),
    "Names": lambda m: st.lists(_text(8), max_size=4),
}

_COMPILED = {}


def _bridge(operation, ingress, egress):
    """``(fused plan, fallback plan, ingress module, egress module)``."""
    text = SCHEMA % operation
    results = []
    for backend in (ingress, egress):
        key = (text, backend)
        if key not in _COMPILED:
            _COMPILED[key] = api.compile(text, name="diff.idl",
                                         backend=backend)
        results.append(_COMPILED[key])
    return (build_plan(*results), build_plan(*results, fuse=False),
            results[0].load_module(), results[1].load_module())


def _op(plan):
    (op,) = plan.ops.values()
    return op


# ----------------------------------------------------------------------
# What a plan makes of one frame
# ----------------------------------------------------------------------


def _refusal(plan, request, error):
    """The ingress error reply the request core writes for *error*."""
    buffer = MarshalBuffer()
    plan.ingress_module.encode_error_reply(request, error, buffer)
    return "refused", bytes(buffer.getvalue())


def _request_outcome(plan, frame):
    envelope = parse_request(frame, plan.ingress_spec)
    buffer = MarshalBuffer()
    try:
        transcode_request(plan.ops[envelope.op_key], frame, envelope,
                          buffer)
    except Exception as error:
        return _refusal(plan, frame, error)
    return "sent", bytes(buffer.getvalue())


def _reply_outcome(plan, request, reply):
    envelope = parse_request(request, plan.ingress_spec)
    buffer = MarshalBuffer()
    try:
        translate_reply(plan.ops[envelope.op_key], reply, envelope.ctx,
                        buffer)
    except Exception as error:
        return _refusal(plan, request, error)
    return "answered", bytes(buffer.getvalue())


# ----------------------------------------------------------------------
# Mutated frames
# ----------------------------------------------------------------------


class _Spy:
    """A segment that records where it starts reading."""

    def __init__(self, segment, seen):
        self.segment = segment
        self.seen = seen

    def copy(self, data, src, buffer):
        self.seen.append((src, self.segment))
        return self.segment.copy(data, src, buffer)


def _spied(segments, seen):
    out = []
    for segment in segments:
        if isinstance(segment, CopyEach):
            segment = CopyEach(segment.bound, segment.min_size,
                               _spied(segment.segments, seen))
        out.append(_Spy(segment, seen))
    return out


def _count_words(segments, frame, start):
    """``(offset, bound)`` of every count word *segments* read running
    over *frame* from *start*."""
    seen = []
    run_segments(_spied(segments, seen), frame, start, MarshalBuffer())
    return [(offset, segment.bound) for offset, segment in seen
            if isinstance(segment, (CopyRun, CopyCounted, CopyEach))]


def _mutations(frame, start, words, giop):
    """*frame* cut at every byte from *start*, and with each count word
    in *words* set to edge values; a GIOP frame's size field follows."""
    frames = [frame[:cut] for cut in range(start, len(frame))]
    for offset, bound in words:
        left = len(frame) - offset - 4
        values = {0, 1, left, left + 1, left + 5, 0xFFFFFFFF}
        if bound is not None:
            values |= {bound, bound + 1, bound + 2}
        for value in sorted(values):
            mutated = bytearray(frame)
            struct.pack_into(">I", mutated, offset, value)
            frames.append(bytes(mutated))
    if giop:
        frames = [frame[:8] + struct.pack(">I", len(frame) - 12)
                  + frame[12:] for frame in frames]
    return frames


def _agree(operation, ingress, egress, args, result, fused=True):
    """Run both plans over mutations of the request carrying *args* and
    of the reply carrying *result*; they must agree on every frame."""
    plan, plain, near, far = _bridge(operation, ingress, egress)
    op = _op(plan)
    assert (op.request_segments is not None) == fused
    name = op.name
    buffer = MarshalBuffer()
    getattr(near, "_m_req_" + name)(buffer, 77, *args)
    request = bytes(buffer.getvalue())
    giop_in = plan.ingress_protocol == "giop"
    envelope = parse_request(request, plan.ingress_spec)
    words = (_count_words(op.request_segments, request,
                          envelope.body_offset) if fused else [])
    for frame in _mutations(request, envelope.body_offset, words, giop_in):
        assert _request_outcome(plan, frame) \
            == _request_outcome(plain, frame)
    buffer = MarshalBuffer()
    reply_args = () if result is None else (result,)
    getattr(far, "_m_rep_ok_" + name)(buffer, 77, *reply_args)
    reply = bytes(buffer.getvalue())
    body = op.check_reply(reply, 77)
    segments = op.reply_segments.get(0)
    words = [] if segments is None else _count_words(segments, reply,
                                                     body + 4)
    for frame in _mutations(reply, body, words, not giop_in):
        assert _reply_outcome(plan, request, frame) \
            == _reply_outcome(plain, request, frame)
    return plan


@pytest.mark.parametrize("ingress,egress", BRIDGES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(params=st.lists(st.sampled_from(sorted(TYPES)), min_size=1,
                       max_size=3),
       returns=st.sampled_from(sorted(TYPES) + ["void"]),
       data=st.data())
def test_fused_and_fallback_agree_on_every_frame(ingress, egress, params,
                                                 returns, data):
    operation = "%s op(%s);" % (returns, ", ".join(
        "in %s a%d" % (kind, index) for index, kind in enumerate(params)))
    _plan, _plain, near, far = _bridge(operation, ingress, egress)
    args = [data.draw(TYPES[kind](near)) for kind in params]
    result = None if returns == "void" else data.draw(TYPES[returns](far))
    plan = _agree(operation, ingress, egress, args, result)
    assert 0 in _op(plan).reply_segments


@pytest.mark.parametrize("ingress,egress", BRIDGES)
def test_a_string_ending_the_message_fuses(ingress, egress):
    """XDR pads the last string of a message and CDR does not."""
    for text in ("", "a", "abcd", "abcdefg"):
        _agree("string op(in long n, in string s);", ingress, egress,
               (5, text), text[::-1])


@pytest.mark.parametrize("operation,args,result", [
    # What follows a byte run must start on a 4-byte boundary in both
    # formats: an octet does not in CDR, nor does an octet array.
    ("void op(in string s, in octet b);", ("abc", 7), None),
    ("void op(in string s, in Tag t);", ("abc", bytes(16)), None),
    ("U op(in U u);", ((1, "union"),), (0, 5)),
])
@pytest.mark.parametrize("ingress,egress", BRIDGES)
def test_channels_that_still_fall_back(ingress, egress, operation, args,
                                       result):
    plan = _agree(operation, ingress, egress, args, result, fused=False)
    assert (0 in _op(plan).reply_segments) == (result is None)


def test_a_forged_element_count_is_refused_before_any_element():
    """A count the bytes left cannot hold at the element's minimum size
    is refused before one element is copied, as the generated decoder
    refuses it before building one."""
    plan, _plain, near, _far = _bridge("void op(in Items a);", "iiop",
                                       "oncrpc-xdr")
    (each,) = _op(plan).request_segments
    assert isinstance(each, CopyEach)
    buffer = MarshalBuffer()
    near._m_req_op(buffer, 77, [near.D_Item("ab", 1, bytes(16))])
    frame = bytearray(buffer.getvalue())
    envelope = parse_request(bytes(frame), plan.ingress_spec)
    left = len(frame) - envelope.body_offset - 4
    struct.pack_into(">I", frame, envelope.body_offset,
                     left // each.min_size + 1)
    with pytest.raises(WireFormatError) as caught:
        transcode_request(_op(plan), bytes(frame), envelope, MarshalBuffer())
    assert caught.value.field == "elements"
